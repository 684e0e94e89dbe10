//! The `csmv-service` binary: bind a TCP address and serve RESP traffic
//! through the native CSMV engine until a client issues `SHUTDOWN`.
//!
//! ```text
//! csmv-service --addr 127.0.0.1:7379 --keys 1024 --clients 4 --check-history
//! ```
//!
//! Fault flags arm the PR 4 deterministic fault plan *inside* the engine
//! (request/response drops, a server kill), which is how CI chaos-tests
//! the full network → engine → recovery path end-to-end. Arming any
//! fault auto-arms the recovery policy defaults the engine requires.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use csmv_native::{KillServer, NativeFaultPlan, NativeFaultSpec};
use csmv_service::{serve, ServiceConfig};

const USAGE: &str = "\
csmv-service — RESP front-end for the native CSMV engine

USAGE:
  csmv-service [--addr HOST:PORT] [--keys N] [--clients N] [--servers N]
               [--max-batch N] [--channel-depth N] [--retry-budget N]
               [--versions-per-box N] [--reader-slots N]
               [--resp-timeout-us N] [--max-send-attempts N]
               [--max-run-secs N] [--check-history]
               [--fault-drop-req-pct P] [--fault-drop-resp-pct P]
               [--fault-kill-server SID@BATCH] [--fault-seed N]

Defaults: --addr 127.0.0.1:7379 --keys 1024 --clients 4 --servers 2
          --retry-budget 64 --max-run-secs 3600";

struct Args {
    addr: String,
    cfg: ServiceConfig,
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    let v = v.strip_prefix("0x").map_or_else(
        || v.parse::<T>().map_err(|_| ()),
        |hex| {
            u64::from_str_radix(hex, 16)
                .map_err(|_| ())
                .and_then(|n| n.to_string().parse::<T>().map_err(|_| ()))
        },
    );
    v.map_err(|_| format!("{flag}: not a number"))
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _bin = argv.next();
    let mut args = Args {
        addr: "127.0.0.1:7379".to_string(),
        cfg: ServiceConfig::default(),
    };
    let mut spec = NativeFaultSpec::default();
    let mut fault_seed: u64 = 1;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => args.addr = argv.next().ok_or("--addr needs a value")?,
            "--keys" => args.cfg.keys = parse_num("--keys", argv.next())?,
            "--clients" => args.cfg.engine.client_threads = parse_num("--clients", argv.next())?,
            "--servers" => args.cfg.engine.server_threads = parse_num("--servers", argv.next())?,
            "--max-batch" => args.cfg.engine.max_batch = parse_num("--max-batch", argv.next())?,
            "--channel-depth" => {
                args.cfg.engine.channel_depth = parse_num("--channel-depth", argv.next())?
            }
            "--versions-per-box" => {
                args.cfg.engine.versions_per_box = parse_num("--versions-per-box", argv.next())?
            }
            "--reader-slots" => {
                args.cfg.engine.reader_slots = parse_num("--reader-slots", argv.next())?
            }
            "--retry-budget" => {
                args.cfg.engine.recovery.retry_budget =
                    Some(parse_num("--retry-budget", argv.next())?)
            }
            "--resp-timeout-us" => {
                args.cfg.engine.recovery.resp_timeout =
                    Some(parse_num("--resp-timeout-us", argv.next())?)
            }
            "--max-send-attempts" => {
                args.cfg.engine.recovery.max_send_attempts =
                    parse_num("--max-send-attempts", argv.next())?
            }
            "--max-run-secs" => {
                args.cfg.engine.max_run =
                    Duration::from_secs(parse_num("--max-run-secs", argv.next())?)
            }
            "--check-history" => args.cfg.check_history = true,
            "--fault-drop-req-pct" => {
                spec.drop_req_pct = parse_num("--fault-drop-req-pct", argv.next())?
            }
            "--fault-drop-resp-pct" => {
                spec.drop_resp_pct = parse_num("--fault-drop-resp-pct", argv.next())?
            }
            "--fault-kill-server" => {
                let v = argv.next().ok_or("--fault-kill-server needs SID@BATCH")?;
                let (sid, batch) = v
                    .split_once('@')
                    .ok_or("--fault-kill-server wants SID@BATCH")?;
                spec.kill_server = Some(KillServer {
                    server: sid.parse().map_err(|_| "bad SID")?,
                    after_batches: batch.parse().map_err(|_| "bad BATCH")?,
                });
            }
            "--fault-seed" => fault_seed = parse_num("--fault-seed", argv.next())?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if spec.armed() {
        // The engine refuses armed faults without an armed recovery
        // policy; fill in serving-grade defaults unless overridden.
        let rec = &mut args.cfg.engine.recovery;
        if rec.resp_timeout.is_none() {
            rec.resp_timeout = Some(5_000);
        }
        if rec.max_send_attempts < 4 {
            rec.max_send_attempts = 8;
        }
        if rec.backoff_base == 0 {
            rec.backoff_base = 64;
        }
        if rec.jitter_seed == 0 {
            rec.jitter_seed = fault_seed ^ 0x5EED;
        }
        args.cfg.engine.faults = Some(NativeFaultPlan::new(fault_seed, spec));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let report = serve(&args.cfg, &args.addr, stop, |local| {
        println!("csmv-service: listening on {local}");
    });
    match report {
        Ok(r) => {
            let s = &r.result.stats;
            println!(
                "csmv-service: served {} connections: commits={} aborts={} failed={} gts={}",
                r.connections,
                s.commits(),
                s.aborts(),
                s.failed,
                r.result.gts
            );
            let by_reason: Vec<String> = stm_core::AbortReason::ALL
                .iter()
                .filter_map(|&reason| {
                    let n = r.result.metrics.aborts.count(reason);
                    (n > 0).then(|| format!("{}={n}", reason.key()))
                })
                .collect();
            if !by_reason.is_empty() {
                println!("csmv-service: aborts by reason: {}", by_reason.join(" "));
            }
            // Version-GC and memory-footprint summary, one greppable line
            // (scripts/soak.sh asserts the plateau off these fields).
            let gc = &r.result.metrics.gc;
            let footprint = r
                .result
                .metrics
                .footprint
                .samples()
                .last()
                .map_or(0, |s| s.value);
            println!(
                "csmv-service: gc: footprint_bytes={footprint} max_version_list_len={} \
                 reclaimed={} spilled={} pruned={} pinned_commits={}",
                gc.max_version_list_len,
                gc.versions_reclaimed,
                gc.versions_spilled,
                gc.spill_pruned,
                gc.pinned_commits
            );
            // What the coalescing writers and the batching readers did,
            // one greppable line (the CI service-smoke job copies it into
            // its step summary).
            println!(
                "csmv-service: io: replies={} writes={} replies_per_write={:.2} \
                 submits={} submit_calls={} jobs_per_submit={:.2}",
                r.replies,
                r.reply_writes,
                r.replies as f64 / r.reply_writes.max(1) as f64,
                r.submits,
                r.submit_calls,
                r.submits as f64 / r.submit_calls.max(1) as f64
            );
            if args.cfg.check_history {
                println!(
                    "csmv-service: history: ok ({} records)",
                    r.result.records.len()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("csmv-service: {e}");
            ExitCode::FAILURE
        }
    }
}

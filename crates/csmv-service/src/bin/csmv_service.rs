//! The `csmv-service` binary: bind a TCP address and serve RESP traffic
//! through the native CSMV engine until a client issues `SHUTDOWN`.
//!
//! ```text
//! csmv-service --addr 127.0.0.1:7379 --keys 1024 --clients 4 --check-history
//! ```

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use csmv_service::{serve, ServiceConfig};

const USAGE: &str = "\
csmv-service — RESP front-end for the native CSMV engine

USAGE:
  csmv-service [--addr HOST:PORT] [--keys N] [--clients N]
               [--max-batch N] [--channel-depth N] [--retry-budget N]
               [--versions-per-box N] [--reader-slots N]
               [--max-run-secs N] [--check-history]

Defaults: --addr 127.0.0.1:7379 --keys 1024 --clients 8 --channel-depth 128
          --retry-budget 64 --max-run-secs 3600";

struct Args {
    addr: String,
    cfg: ServiceConfig,
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: not a number"))
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _bin = argv.next();
    let mut args = Args {
        addr: "127.0.0.1:7379".to_string(),
        cfg: ServiceConfig::default(),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => args.addr = argv.next().ok_or("--addr needs a value")?,
            "--keys" => args.cfg.keys = parse_num("--keys", argv.next())?,
            "--clients" => args.cfg.engine.client_threads = parse_num("--clients", argv.next())?,
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
                args.cfg.engine.retry_budget = Some(parse_num("--retry-budget", argv.next())?)
            }
            "--max-run-secs" => {
                args.cfg.engine.max_run =
                    Duration::from_secs(parse_num("--max-run-secs", argv.next())?)
            }
            "--check-history" => args.cfg.check_history = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
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
            println!(
                "csmv-service: gc: footprint_bytes={} max_version_list_len={} \
                 reclaimed={} spilled={} pruned={} pinned_commits={}",
                gc.footprint_bytes,
                gc.max_version_list_len,
                gc.versions_reclaimed,
                gc.versions_spilled,
                gc.spill_pruned,
                gc.pinned_commits
            );
            // How the connections batched their replies and their
            // submissions, one greppable line (the CI service-smoke job
            // copies it into its step summary).
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

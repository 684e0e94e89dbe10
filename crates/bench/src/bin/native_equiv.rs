//! `native_equiv` — cross-backend equivalence check for the native CSMV
//! backend, run by the CI `native-equivalence` job at several thread
//! counts and seeds.
//!
//! One invocation is one lane: `--threads N --seed S [--quick]`. It
//! checks, for the bank and list workloads:
//!
//! 1. **History oracle.** The native run's recorded history passes
//!    `stm_core::check_history` (opacity + validity-at-commit) — enforced
//!    inside `csmv_native::run_checked`, which refuses to return a result
//!    otherwise.
//! 2. **Cross-backend final state (bank).** The simulator executes the
//!    *identical* transaction multiset — the first N simulated threads get
//!    the same seeded sources as the N native workers, every other
//!    simulated thread gets an empty source — under a commutative bank
//!    configuration (a balance floor the transfer clamp can never reach),
//!    so both backends must reach the *same* final state even though
//!    their commit orders differ.
//! 3. **Structural soundness (list).** List operations do not commute, so
//!    the backends may legally diverge; instead the native run must keep
//!    the committed chain strictly sorted and its records must replay to
//!    exactly the final store state.
//!
//! Exits 0 when every check passes, 1 otherwise.

use std::collections::HashMap;

use bench::{native_txs, Scale};
use csmv_native::NativeConfig;
use stm_core::history::replay_committed;
use workloads::{BankConfig, BankSource, ListConfig, ListSource};

struct Args {
    scale: Scale,
    scale_name: String,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = Scale::paper();
    let mut quick = false;
    let mut threads = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                scale = Scale {
                    seed: scale.seed,
                    ..Scale::quick()
                };
                quick = true;
            }
            "--paper" => {
                scale = Scale {
                    seed: scale.seed,
                    ..Scale::paper()
                };
                quick = false;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed requires a value")?;
                scale.seed = v
                    .parse()
                    .map_err(|_| format!("bad --seed '{v}' (decimal only)"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads requires a value")?;
                threads = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("bad --threads '{v}'")),
                };
            }
            "--help" | "-h" => {
                println!("usage: native_equiv [--quick|--paper] [--seed N] [--threads N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        scale,
        scale_name: if quick { "quick" } else { "paper" }.to_string(),
        threads,
    })
}

fn native_cfg(args: &Args) -> NativeConfig {
    NativeConfig {
        client_threads: args.threads,
        versions_per_box: args.scale.versions as usize,
        ..Default::default()
    }
}

/// Bank in its commutative configuration: with this balance floor no
/// sequence of transfers can drive an account to the overdraw clamp, so
/// transfers commute and every commit order reaches the same final state.
fn commutative_bank(scale: &Scale) -> BankConfig {
    BankConfig {
        accounts: scale.accounts,
        initial_balance: 1_000_000,
        rot_pct: 20,
        max_transfer: 100,
        partitions: None,
    }
}

fn check_bank(args: &Args) -> Result<(), String> {
    let scale = &args.scale;
    let bank = commutative_bank(scale);
    let txs = native_txs(scale, args.threads);
    let total = (args.threads * txs) as u64;

    // Native run; `run_checked` applies the history oracle internally.
    let res = csmv_native::run_checked(
        &native_cfg(args),
        |t| BankSource::new(&bank, scale.seed, t, txs),
        bank.accounts,
        |_| bank.initial_balance,
    )
    .map_err(|e| format!("bank native run: {e}"))?;
    if res.stats.failed != 0 {
        return Err(format!(
            "bank native run failed {} transaction(s) terminally",
            res.stats.failed
        ));
    }
    let committed = res.stats.commits();
    if committed != total {
        return Err(format!(
            "bank native run committed {committed} of {total} transactions"
        ));
    }
    let native_total: u64 = res.final_state.values().sum();
    if native_total != bank.total_balance() {
        return Err(format!(
            "bank native run broke balance conservation: {} != {}",
            native_total,
            bank.total_balance()
        ));
    }

    // Simulator run of the identical transaction multiset: the first
    // `threads` simulated threads replicate the native sources, the rest
    // are empty.
    let sim_cfg = csmv::CsmvConfig {
        gpu: gpu_sim::GpuConfig {
            num_sms: scale.sms,
            ..Default::default()
        },
        versions_per_box: scale.versions,
        max_rs: 8,
        max_ws: 2,
        ..Default::default()
    };
    let native_threads = args.threads;
    let sim = csmv::run(
        &sim_cfg,
        |t| {
            let per_thread = if t < native_threads { txs } else { 0 };
            BankSource::new(&bank, scale.seed, t, per_thread)
        },
        bank.accounts,
        |_| bank.initial_balance,
    );
    if sim.stats.commits() != total {
        return Err(format!(
            "bank simulator run committed {} of {total} transactions",
            sim.stats.commits()
        ));
    }
    let sim_state = replay_committed(&sim.records, &bank.initial_state());
    if sim_state != res.final_state {
        let diverging = res
            .final_state
            .iter()
            .filter(|(k, v)| sim_state.get(k) != Some(v))
            .count();
        return Err(format!(
            "bank final states diverge between backends on {diverging} account(s) \
             (commutative workload: they must agree exactly)"
        ));
    }
    println!(
        "PASS bank    threads={} seed={} ({total} txs, oracle clean, \
         final state matches the simulator)",
        args.threads, scale.seed
    );
    Ok(())
}

fn check_list(args: &Args) -> Result<(), String> {
    let scale = &args.scale;
    let txs = native_txs(scale, args.threads).min(512);
    let list = ListConfig {
        key_range: scale.accounts.max(64),
        initial_nodes: 64,
        contains_pct: 30,
        pool_per_thread: txs as u64,
        threads: args.threads,
    };
    let init = list.initial_state();
    let res = csmv_native::run_checked(
        &native_cfg(args),
        |t| ListSource::new(&list, scale.seed, t, txs),
        list.num_items(),
        |item| *init.get(&item).unwrap_or(&0),
    )
    .map_err(|e| format!("list native run: {e}"))?;
    if res.stats.failed != 0 {
        return Err(format!(
            "list native run failed {} transaction(s) terminally",
            res.stats.failed
        ));
    }

    // The committed chain must be strictly sorted, duplicate-free, and
    // terminate at the tail sentinel.
    let heap = &res.final_state;
    let mut keys = Vec::new();
    let mut node = heap[&ListConfig::next_item(0)];
    let mut hops = 0u64;
    while node != 1 {
        keys.push(heap[&ListConfig::key_item(node)]);
        node = heap[&ListConfig::next_item(node)];
        hops += 1;
        if hops > list.num_nodes() {
            return Err("cycle in the committed list chain".into());
        }
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if keys != sorted {
        return Err("committed list chain is not strictly sorted".into());
    }

    // Replay consistency over the full item space (the workload's initial
    // state only names chain items; the store holds every item).
    let full_init: HashMap<u64, u64> = (0..list.num_items())
        .map(|i| (i, *init.get(&i).unwrap_or(&0)))
        .collect();
    if replay_committed(&res.records, &full_init) != res.final_state {
        return Err("list records do not replay to the final store state".into());
    }
    println!(
        "PASS list    threads={} seed={} ({} ops, oracle clean, chain sorted, \
         replay consistent)",
        args.threads,
        scale.seed,
        args.threads * txs
    );
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return std::process::ExitCode::from(2);
        }
    };
    println!(
        "native_equiv: scale={} seed={} threads={}",
        args.scale_name, args.scale.seed, args.threads
    );
    let mut failed = false;
    for check in [check_bank, check_list] {
        if let Err(msg) = check(&args) {
            eprintln!("FAIL {msg}");
            failed = true;
        }
    }
    if failed {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}

//! CI driver: exhaustively explore a CSMV model instance and verify the
//! expected verdict.
//!
//! ```text
//! model_check [--mutation NAME] [--clients N] [--txs N] [--servers N]
//!             [--keys N] [--capacity N] [--depth N] [--faults]
//!             [--expect-violation] [--trace-out PATH] [--quiet]
//! ```
//!
//! Exit code 0 when the verdict matches the expectation: a healthy model
//! must explore cleanly, a mutated one must produce a counterexample
//! whose replay independently re-establishes the violation. Any other
//! outcome (violation in a healthy model, mutation surviving, trace that
//! does not replay) exits 1.

use csmv_model::{confirm, explore, render, ExploreConfig, ModelConfig, Mutation};

struct Args {
    mutation: Mutation,
    clients: usize,
    txs: usize,
    servers: usize,
    keys: u64,
    capacity: u64,
    depth: usize,
    faults: bool,
    expect_violation: bool,
    trace_out: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mutation: Mutation::None,
        clients: 2,
        txs: 2,
        servers: 2,
        keys: 2,
        capacity: 2,
        depth: 64,
        faults: false,
        expect_violation: false,
        trace_out: None,
        quiet: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--mutation" => {
                let v = value(&mut i)?;
                args.mutation =
                    Mutation::from_name(&v).ok_or_else(|| format!("unknown mutation `{v}`"))?;
            }
            "--clients" => args.clients = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--txs" => args.txs = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--servers" => args.servers = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--keys" => args.keys = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--capacity" => args.capacity = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--depth" => args.depth = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--faults" => args.faults = true,
            "--expect-violation" => args.expect_violation = true,
            "--trace-out" => args.trace_out = Some(value(&mut i)?),
            "--quiet" => args.quiet = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("model_check: {e}");
            std::process::exit(2);
        }
    };
    // Every client increments every key, round-robin from its own offset:
    // maximal cross-client contention on every server.
    let programs: Vec<Vec<u64>> = (0..args.clients)
        .map(|c| {
            (0..args.txs)
                .map(|j| ((c + j) as u64) % args.keys)
                .collect()
        })
        .collect();
    let cfg = ModelConfig {
        num_servers: args.servers,
        num_keys: args.keys,
        atr_capacity: args.capacity,
        programs,
        max_req_drops: if args.faults { 1 } else { 0 },
        max_req_dups: if args.faults { 1 } else { 0 },
        max_resp_drops: if args.faults { 1 } else { 0 },
        mutation: args.mutation,
    };
    let xcfg = ExploreConfig {
        max_depth: args.depth,
        ..ExploreConfig::default()
    };
    let started = std::time::Instant::now();
    let r = explore(&cfg, &xcfg);
    let elapsed = started.elapsed();
    if !args.quiet {
        println!(
            "mutation={} clients={} servers={} keys={} faults={}: {} states, \
             {} transitions, depth {}, {} terminal, truncated={}, {:.2?}",
            args.mutation.name(),
            args.clients,
            args.servers,
            args.keys,
            args.faults,
            r.states,
            r.transitions,
            r.depth_reached,
            r.terminal_states,
            r.truncated,
            elapsed
        );
    }
    match &r.counterexample {
        None => {
            if args.expect_violation {
                eprintln!(
                    "FAIL: mutation `{}` survived exploration (no counterexample)",
                    args.mutation.name()
                );
                std::process::exit(1);
            }
            if r.truncated {
                eprintln!("FAIL: exploration truncated — exhaustiveness not established");
                std::process::exit(1);
            }
            println!("OK: no violation; state space exhausted");
        }
        Some(cex) => {
            let rendered = render(&cfg, &cex.trace, &cex.cycle);
            if let Some(path) = &args.trace_out {
                let body = format!("violation: {}\n\n{rendered}", cex.violation);
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("model_check: writing {path}: {e}");
                    std::process::exit(2);
                }
            }
            if !args.expect_violation {
                eprintln!("FAIL: unexpected violation: {}", cex.violation);
                eprint!("{rendered}");
                std::process::exit(1);
            }
            // A counterexample must replay: re-establish the violation
            // independently of the explorer's bookkeeping.
            if cex.cycle.is_empty() {
                match confirm(&cfg, &cex.trace) {
                    Ok(v) => println!("OK: counterexample replays — {v}"),
                    Err(e) => {
                        eprintln!("FAIL: counterexample does not replay: {e}");
                        eprint!("{rendered}");
                        std::process::exit(1);
                    }
                }
            } else {
                println!("OK: counterexample lasso — {}", cex.violation);
            }
            if !args.quiet {
                print!("{rendered}");
            }
        }
    }
}

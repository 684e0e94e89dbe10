//! The command-line surface shared by every simulator bench binary:
//!
//! ```text
//! <bench> [--json PATH] [--seed N] [--quick | --paper] [--threads N] [--analysis]
//!         [--atr-cap N] [--faults SPEC] [--fault-seed N]
//! ```
//!
//! Every setting has exactly one spelling — a flag; no environment variable
//! is read. `--seed` feeds every workload RNG, so two runs with the same
//! seed, scale and binary produce byte-identical `--json` reports — the
//! property `bench-gate` checks in CI.

use crate::report::BenchReport;
use crate::{Row, Scale};
use std::path::PathBuf;

/// Parsed command line of a bench binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Bench binary name, recorded in the report.
    pub bench: String,
    /// Where to write the JSON report, if requested.
    pub json: Option<PathBuf>,
    /// Scale (geometry, workload sizes, seed) the run uses.
    pub scale: Scale,
    /// Scale label recorded in the report (`quick` or `paper`).
    pub scale_name: String,
    /// Host threads used to execute bench cells (`--threads`; default 1).
    /// Results are identical for every value — only wall-clock time
    /// changes — and the count is recorded in the report's `config` block,
    /// which `bench-gate` treats as non-gating.
    pub threads: usize,
}

impl BenchArgs {
    /// Parse `std::env::args`. Prints usage and exits on `--help` or on a
    /// malformed command line.
    pub fn parse(bench: &str) -> BenchArgs {
        Self::parse_from(bench, std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (testable).
    pub fn parse_from(bench: &str, args: impl IntoIterator<Item = String>) -> BenchArgs {
        match Self::try_parse(bench, args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{}", usage(bench));
                std::process::exit(2);
            }
        }
    }

    fn try_parse(bench: &str, args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut scale = Scale::paper();
        let mut quick = false;
        let mut json = None;
        let mut threads = 1;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => {
                    let path = args.next().ok_or("--json requires a path")?;
                    json = Some(PathBuf::from(path));
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed requires a value")?;
                    scale.seed = parse_u64(&v).ok_or_else(|| format!("bad --seed '{v}'"))?;
                }
                "--quick" => {
                    scale = Scale {
                        seed: scale.seed,
                        analysis: scale.analysis,
                        atr_cap: scale.atr_cap,
                        ..Scale::quick()
                    };
                    quick = true;
                }
                "--paper" => {
                    scale = Scale {
                        seed: scale.seed,
                        analysis: scale.analysis,
                        atr_cap: scale.atr_cap,
                        ..Scale::paper()
                    };
                    quick = false;
                }
                "--threads" => {
                    let v = args.next().ok_or("--threads requires a value")?;
                    threads = parse_threads(&v).ok_or_else(|| format!("bad --threads '{v}'"))?;
                }
                "--atr-cap" => {
                    let v = args.next().ok_or("--atr-cap requires a value")?;
                    scale.atr_cap =
                        Some(parse_u64(&v).ok_or_else(|| format!("bad --atr-cap '{v}'"))?);
                }
                "--faults" => {
                    let v = args.next().ok_or("--faults requires a spec")?;
                    // Validate eagerly so a typo fails at the command line,
                    // not halfway through a sweep.
                    v.parse::<gpu_sim::fault::FaultSpec>()
                        .map_err(|e| format!("bad --faults '{v}': {e}"))?;
                    scale.faults = Some(v);
                }
                "--fault-seed" => {
                    let v = args.next().ok_or("--fault-seed requires a value")?;
                    scale.fault_seed =
                        parse_u64(&v).ok_or_else(|| format!("bad --fault-seed '{v}'"))?;
                }
                "--analysis" => scale.analysis = true,
                "--help" | "-h" => {
                    println!("{}", usage(bench));
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(BenchArgs {
            bench: bench.to_string(),
            json,
            scale,
            scale_name: if quick { "quick" } else { "paper" }.to_string(),
            threads,
        })
    }

    /// Emit the JSON report if `--json` was given. Call once, at the end of
    /// the bench, with every measured row.
    pub fn emit_json(&self, rows: &[Row]) {
        let Some(path) = &self.json else { return };
        let mut report =
            BenchReport::from_rows(&self.bench, &self.scale_name, self.scale.seed, rows);
        report.threads = self.threads as u64;
        if self.scale.faults.is_some() {
            report.faults = self.scale.faults.clone();
            report.fault_seed = Some(self.scale.fault_seed);
        }
        match report.write_file(path) {
            Ok(()) => eprintln!("[{}] wrote {}", self.bench, path.display()),
            Err(e) => {
                eprintln!("[{}] failed to write {}: {e}", self.bench, path.display());
                std::process::exit(1);
            }
        }
    }
}

fn parse_threads(s: &str) -> Option<usize> {
    match s.replace('_', "").parse() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        s.replace('_', "").parse().ok()
    }
}

fn usage(bench: &str) -> String {
    format!(
        "usage: {bench} [--json PATH] [--seed N] [--quick | --paper] [--threads N] [--analysis]\n\
         \x20             [--atr-cap N] [--faults SPEC] [--fault-seed N]\n\
         \n\
         --json PATH     write the structured report (schema: crates/bench/src/report.rs)\n\
         --seed N        workload RNG seed (decimal or 0x-hex; default 0xC53A17)\n\
         --quick         reduced smoke-test scale\n\
         --paper         paper-faithful scale (the default)\n\
         --threads N     host threads for bench cells (default 1; results are\n\
                         identical for every value)\n\
         --analysis      run under the race/invariant analysis layer\n\
         --atr-cap N     force the CSMV ATR ring to N records (default: each run\n\
                         sizes its own); a tiny value degrades CSMV on purpose,\n\
                         to prove bench-gate fails on a regression\n\
         --faults SPEC   deterministic fault injection (comma-separated clauses,\n\
                         e.g. 'drop_req=0.1,drop_resp=0.1,dup_req=0.05,delay_req=0.2x200';\n\
                         also kill=W@C, stall=W@CxN, crash_sm=S@C); arms client\n\
                         timeouts/backoff and the stall watchdog\n\
         --fault-seed N  seed for fault decisions and recovery jitter (default\n\
                         0xFA0175)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_keep_the_paper_seed() {
        let a = BenchArgs::try_parse("table5", argv(&[])).unwrap();
        assert_eq!(a.scale.seed, 0xC5_3A17);
        assert!(a.json.is_none());
    }

    #[test]
    fn flags_override_scale_and_seed() {
        let a = BenchArgs::try_parse(
            "mc_suite",
            argv(&["--quick", "--seed", "0xBEEF", "--json", "/tmp/r.json"]),
        )
        .unwrap();
        assert_eq!(a.scale_name, "quick");
        assert_eq!(a.scale.sms, Scale::quick().sms);
        assert_eq!(a.scale.seed, 0xBEEF);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("/tmp/r.json")));
    }

    #[test]
    fn seed_survives_a_later_scale_flag() {
        let a = BenchArgs::try_parse("t", argv(&["--seed", "7", "--quick"])).unwrap();
        assert_eq!(a.scale.seed, 7);
        let a = BenchArgs::try_parse("t", argv(&["--seed", "7", "--paper"])).unwrap();
        assert_eq!(a.scale.seed, 7);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(BenchArgs::try_parse("t", argv(&["--seed"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--seed", "zap"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--frobnicate"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--json"])).is_err());
    }

    #[test]
    fn threads_defaults_to_one_and_parses_from_the_flag() {
        let a = BenchArgs::try_parse("t", argv(&[])).unwrap();
        assert_eq!(a.threads, 1);
        let a = BenchArgs::try_parse("t", argv(&["--threads", "8"])).unwrap();
        assert_eq!(a.threads, 8);
    }

    #[test]
    fn fault_flags_parse_and_validate_eagerly() {
        let a = BenchArgs::try_parse(
            "t",
            argv(&[
                "--faults",
                "drop_req=0.2,delay_req=0.1x100",
                "--fault-seed",
                "0xFA",
            ]),
        )
        .unwrap();
        assert_eq!(
            a.scale.faults.as_deref(),
            Some("drop_req=0.2,delay_req=0.1x100")
        );
        assert_eq!(a.scale.fault_seed, 0xFA);
        assert!(a.scale.fault_plan().is_some());
        // A malformed spec is rejected at parse time, before any run starts.
        assert!(BenchArgs::try_parse("t", argv(&["--faults", "drop_req=eleven"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--faults"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--fault-seed", "zap"])).is_err());
    }

    #[test]
    fn faultless_scales_keep_recovery_inert() {
        let a = BenchArgs::try_parse("t", argv(&[])).unwrap();
        assert!(a.scale.faults.is_none());
        assert!(a.scale.fault_plan().is_none());
        assert!(a.scale.fault_watchdog().is_none());
        assert_eq!(a.scale.recovery().resp_timeout, None);
        let b = BenchArgs::try_parse("t", argv(&["--faults", "drop_req=0.1"])).unwrap();
        assert!(b.scale.recovery().resp_timeout.is_some());
        assert!(b.scale.fault_watchdog().is_some());
    }

    #[test]
    fn atr_cap_parses_and_survives_a_later_scale_flag() {
        assert_eq!(
            BenchArgs::try_parse("t", argv(&[])).unwrap().scale.atr_cap,
            None
        );
        for scale_flag in ["--quick", "--paper"] {
            let a = BenchArgs::try_parse("t", argv(&["--atr-cap", "4", scale_flag])).unwrap();
            assert_eq!(a.scale.atr_cap, Some(4));
        }
        assert!(BenchArgs::try_parse("t", argv(&["--atr-cap"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--atr-cap", "tiny"])).is_err());
    }

    #[test]
    fn zero_or_malformed_thread_counts_are_rejected() {
        assert!(BenchArgs::try_parse("t", argv(&["--threads"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--threads", "0"])).is_err());
        assert!(BenchArgs::try_parse("t", argv(&["--threads", "many"])).is_err());
    }
}

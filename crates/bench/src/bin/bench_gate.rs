//! `bench-gate` — the CI benchmark-regression gate.
//!
//! Compares candidate JSON reports (produced by the bench binaries'
//! `--json` flag) against committed baselines and exits nonzero when any
//! gated metric regressed past its threshold (see `bench::gate`).
//!
//! ```text
//! bench-gate --baseline results/baselines --candidate target/bench-json
//! bench-gate --baseline results/baselines/table5.json --candidate table5.json
//! bench-gate --equal --baseline eq-results/t1 --candidate eq-results/t8
//! ```
//!
//! Directory mode pairs files by name: every `*.json` in the baseline
//! directory must have a same-named candidate.
//!
//! `--equal` switches from thresholded regression gating to the strict
//! equivalence check (`bench::gate::equal`): the CI bench-smoke job uses
//! it to prove that reports produced at different `--threads`
//! values are identical apart from the recorded thread count and the
//! non-reproducible wall-clock rows.

use bench::gate::{compare, compare_advisory, equal};
use bench::report::BenchReport;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    baseline: PathBuf,
    candidate: PathBuf,
    equal: bool,
}

fn usage() -> String {
    "usage: bench-gate [--equal] --baseline PATH --candidate PATH\n\
     \n\
     PATH is either a single report or a directory of them; with\n\
     directories, files are paired by name and every baseline must\n\
     have a candidate. --equal demands strict equivalence (modulo\n\
     the recorded thread count and wall-clock rows) instead of the\n\
     thresholded regression gate. Exits 1 on any regression, 2 on\n\
     usage or configuration errors."
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut candidate = None;
    let mut equal = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    args.next().ok_or("--baseline requires a path")?,
                ))
            }
            "--candidate" => {
                candidate = Some(PathBuf::from(
                    args.next().ok_or("--candidate requires a path")?,
                ))
            }
            "--equal" => equal = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        candidate: candidate.ok_or("--candidate is required")?,
        equal,
    })
}

/// The (baseline, candidate) file pairs to check.
fn pair_files(args: &Args) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if args.baseline.is_dir() {
        if !args.candidate.is_dir() {
            return Err("--baseline is a directory but --candidate is not".into());
        }
        let mut names: Vec<String> = std::fs::read_dir(&args.baseline)
            .map_err(|e| format!("{}: {e}", args.baseline.display()))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                name.ends_with(".json").then_some(name)
            })
            .collect();
        names.sort();
        if names.is_empty() {
            return Err(format!(
                "no *.json baselines under {}",
                args.baseline.display()
            ));
        }
        Ok(names
            .into_iter()
            .map(|name| (args.baseline.join(&name), args.candidate.join(&name)))
            .collect())
    } else {
        Ok(vec![(args.baseline.clone(), args.candidate.clone())])
    }
}

fn check_pair(baseline: &Path, candidate: &Path, strict_equal: bool) -> Result<usize, String> {
    if !baseline.exists() {
        return Err(format!(
            "baseline report {} is missing (commit it under results/baselines/ \
             or point --baseline at the right tree)",
            baseline.display()
        ));
    }
    let base = BenchReport::read_file(baseline).map_err(|e| {
        format!(
            "baseline {e} (schema v{} expected)",
            bench::report::SCHEMA_VERSION
        )
    })?;
    if !candidate.exists() {
        return Err(format!(
            "candidate report {} is missing (did the bench run with --json?)",
            candidate.display()
        ));
    }
    let cand = BenchReport::read_file(candidate).map_err(|e| {
        format!(
            "candidate {e} (schema v{} expected)",
            bench::report::SCHEMA_VERSION
        )
    })?;
    if strict_equal {
        return match equal(&base, &cand) {
            Ok(()) => {
                println!("PASS {} (equivalent, {} rows)", base.bench, base.rows.len());
                Ok(0)
            }
            Err(diff) => {
                println!("FAIL {} — reports are not equivalent:", base.bench);
                println!("  {diff}");
                Ok(1)
            }
        };
    }
    // Comparability failures (schema / config mismatch) must name the
    // offending files, not just the bench, so CI logs are actionable.
    let violations = compare(&base, &cand)
        .map_err(|e| format!("{} vs {}: {e}", baseline.display(), candidate.display()))?;
    if violations.is_empty() {
        println!(
            "PASS {} ({} rows gated)",
            base.bench,
            base.rows.iter().filter(|r| !r.wall_clock).count()
        );
    } else {
        println!("FAIL {} — {} violation(s):", base.bench, violations.len());
        for v in &violations {
            println!("  {v}");
        }
    }
    // Advisory drift (service latency percentiles): surfaced, never
    // counted against the gate.
    for w in compare_advisory(&base, &cand) {
        println!("  WARN (advisory) {w}");
    }
    Ok(violations.len())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let pairs = match pair_files(&args) {
        Ok(pairs) => pairs,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut total = 0usize;
    for (baseline, candidate) in &pairs {
        match check_pair(baseline, candidate, args.equal) {
            Ok(n) => total += n,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    if total == 0 {
        println!(
            "bench-gate: all {} report(s) {}",
            pairs.len(),
            if args.equal {
                "equivalent"
            } else {
                "within thresholds"
            }
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "bench-gate: {total} violation(s) across {} report(s)",
            pairs.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(path: &Path, schema: u64) {
        let json = format!(
            "{{\"schema_version\":{schema},\"bench\":\"b\",\"scale\":\"quick\",\
             \"seed\":1,\"rows\":[]}}"
        );
        std::fs::write(path, json).unwrap();
    }

    #[test]
    fn missing_and_mismatched_baselines_name_the_file_and_schema() {
        // Per-process-unique so concurrent test invocations on the same
        // machine cannot clobber each other's fixtures.
        let dir = std::env::temp_dir().join(format!("csmv-bench-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");

        // Missing baseline: the error names the absent file.
        let err = check_pair(&base, &cand, false).unwrap_err();
        assert!(err.contains("base.json"), "{err}");
        assert!(err.contains("missing"), "{err}");

        // Missing candidate: likewise.
        write(&base, bench::report::SCHEMA_VERSION);
        let err = check_pair(&base, &cand, false).unwrap_err();
        assert!(err.contains("cand.json"), "{err}");
        assert!(err.contains("missing"), "{err}");

        // Stale baseline schema: the error names both files and both
        // schema versions, so CI logs say exactly what to regenerate.
        write(&base, bench::report::SCHEMA_VERSION - 1);
        write(&cand, bench::report::SCHEMA_VERSION);
        let err = check_pair(&base, &cand, false).unwrap_err();
        assert!(err.contains("base.json"), "{err}");
        assert!(err.contains("cand.json"), "{err}");
        assert!(
            err.contains(&format!("v{}", bench::report::SCHEMA_VERSION - 1)),
            "{err}"
        );
        assert!(
            err.contains(&format!("v{}", bench::report::SCHEMA_VERSION)),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

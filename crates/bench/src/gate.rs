//! The benchmark-regression gate: compares a candidate [`BenchReport`]
//! against a committed baseline and reports per-metric violations.
//!
//! The simulator is deterministic, so a candidate produced from the same
//! code at the same seed/scale matches its baseline exactly; the thresholds
//! exist to absorb *intentional* code changes whose timing drifts a little,
//! while still catching real regressions (a degraded ATR window, a lost
//! optimization, an abort storm). Each gated metric declares which direction
//! is bad and how much relative + absolute slack it gets. Wall-clock rows
//! (the CPU baseline) are skipped entirely — host timing is not
//! reproducible.

use crate::report::{BenchReport, ReportRow, SCHEMA_VERSION};

/// Which direction of drift fails the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// A candidate value *below* the allowed band fails (e.g. throughput).
    HigherIsBetter,
    /// A candidate value *above* the allowed band fails (e.g. abort rate).
    LowerIsBetter,
}

/// Allowed drift for one gated metric.
#[derive(Debug, Clone, Copy)]
pub struct Threshold {
    /// Bad direction.
    pub direction: Direction,
    /// Relative slack (0.10 = 10 % of the baseline value).
    pub rel: f64,
    /// Absolute slack, in the metric's own unit, added on top of the
    /// relative band (keeps near-zero baselines from gating on noise).
    pub abs: f64,
}

impl Threshold {
    /// The candidate value at which the gate starts failing.
    pub fn limit(&self, baseline: f64) -> f64 {
        match self.direction {
            Direction::HigherIsBetter => baseline * (1.0 - self.rel) - self.abs,
            Direction::LowerIsBetter => baseline * (1.0 + self.rel) + self.abs,
        }
    }

    /// Does `candidate` pass against `baseline`?
    pub fn passes(&self, baseline: f64, candidate: f64) -> bool {
        match self.direction {
            Direction::HigherIsBetter => candidate >= self.limit(baseline),
            Direction::LowerIsBetter => candidate <= self.limit(baseline),
        }
    }
}

/// The gated subset of the schema. Everything else in the report (abort
/// taxonomy, histograms, series) is informational: it explains *why* a gated
/// metric moved, but does not fail the gate on its own.
pub fn threshold_for(metric: &str) -> Option<Threshold> {
    use Direction::*;
    let t = |direction, rel, abs| {
        Some(Threshold {
            direction,
            rel,
            abs,
        })
    };
    match metric {
        // Committed work must not shrink at all: the workload is fixed.
        "commits" => t(HigherIsBetter, 0.0, 0.0),
        "throughput" => t(HigherIsBetter, 0.10, 0.0),
        "abort_pct" => t(LowerIsBetter, 0.10, 0.5),
        "total_ms_per_tx" => t(LowerIsBetter, 0.15, 1e-6),
        "wasted_ms_per_tx" => t(LowerIsBetter, 0.15, 1e-4),
        "elapsed_ms" => t(LowerIsBetter, 0.10, 1e-3),
        "commit_latency.mean" => t(LowerIsBetter, 0.15, 64.0),
        "poll_stall_cycles" => t(LowerIsBetter, 0.25, 4096.0),
        _ => None,
    }
}

/// The gated subset for a given execution backend.
///
/// Simulated reports gate the full [`threshold_for`] set — the simulator
/// is deterministic, so timing metrics are reproducible. Service reports
/// are wall-clock measured on whatever host runs them: only their
/// terminal accounting gates.
pub fn threshold_for_backend(backend: &str, metric: &str) -> Option<Threshold> {
    use Direction::*;
    let t = |direction, rel, abs| {
        Some(Threshold {
            direction,
            rel,
            abs,
        })
    };
    match backend {
        // Open-loop loadgen rows against csmv-service: the request
        // *schedule* is seed-deterministic, so terminal accounting gates
        // tightly — a small absolute band absorbs the handful of
        // requests host scheduling may shed or abort differently —
        // while latency is advisory only (see
        // [`advisory_threshold_for_backend`]).
        "service" => match metric {
            "service.ok" => t(HigherIsBetter, 0.0, 4.0),
            "service.retry" | "service.busy" => t(LowerIsBetter, 0.0, 4.0),
            // Unclassifiable errors are never acceptable.
            "service.err" => t(LowerIsBetter, 0.0, 0.0),
            _ => None,
        },
        _ => threshold_for(metric),
    }
}

/// The *advisory* subset for a backend: drift here is reported by
/// `bench-gate` as a warning but never fails the gate. Service latency
/// percentiles are wall-clock host measurements — too noisy to gate at
/// first — yet worth surfacing when they move far outside the baseline's
/// band.
pub fn advisory_threshold_for_backend(backend: &str, metric: &str) -> Option<Threshold> {
    use Direction::*;
    if backend != "service" {
        return None;
    }
    let t = |rel, abs| {
        Some(Threshold {
            direction: LowerIsBetter,
            rel,
            abs,
        })
    };
    match metric {
        "latency_p50_us" => t(0.50, 100.0),
        "latency_p99_us" => t(0.50, 200.0),
        _ => None,
    }
}

/// One reason the gate failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The candidate has no row matching a baseline (system, x) pair.
    MissingRow { system: String, x: u64 },
    /// A gated metric present in the baseline is absent from the candidate.
    MissingMetric {
        system: String,
        x: u64,
        metric: String,
    },
    /// A gated metric drifted past its threshold.
    Regression {
        system: String,
        x: u64,
        metric: String,
        baseline: f64,
        candidate: f64,
        limit: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingRow { system, x } => {
                write!(f, "missing row: system={system} x={x}")
            }
            Violation::MissingMetric { system, x, metric } => {
                write!(f, "missing metric: system={system} x={x} {metric}")
            }
            Violation::Regression {
                system,
                x,
                metric,
                baseline,
                candidate,
                limit,
            } => write!(
                f,
                "regression: system={system} x={x} {metric}: \
                 baseline {baseline:.6} -> candidate {candidate:.6} (limit {limit:.6})"
            ),
        }
    }
}

/// Compare a candidate report against its baseline.
///
/// Returns `Err` when the two reports are not comparable at all (different
/// bench, scale, seed or schema version — a configuration mistake, not a
/// performance regression), otherwise the list of violations (empty = pass).
pub fn compare(baseline: &BenchReport, candidate: &BenchReport) -> Result<Vec<Violation>, String> {
    if baseline.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "baseline schema v{} != supported v{SCHEMA_VERSION} (regenerate the baseline)",
            baseline.schema_version
        ));
    }
    if candidate.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "candidate schema v{} != supported v{SCHEMA_VERSION} \
             (rebuild the candidate with this tree's bench binaries)",
            candidate.schema_version
        ));
    }
    for (what, b, c) in [
        (
            "schema_version",
            baseline.schema_version.to_string(),
            candidate.schema_version.to_string(),
        ),
        ("bench", baseline.bench.clone(), candidate.bench.clone()),
        ("scale", baseline.scale.clone(), candidate.scale.clone()),
        (
            "seed",
            baseline.seed.to_string(),
            candidate.seed.to_string(),
        ),
        // Simulated cycles and service wall-clock are different universes;
        // comparing across backends is a configuration mistake.
        (
            "backend",
            baseline.backend.clone(),
            candidate.backend.clone(),
        ),
        // Fault injection changes results by design; comparing a faulted run
        // against a fault-free baseline is a configuration mistake.
        (
            "faults",
            format!("{:?}", baseline.faults),
            format!("{:?}", candidate.faults),
        ),
        (
            "fault_seed",
            format!("{:?}", baseline.fault_seed),
            format!("{:?}", candidate.fault_seed),
        ),
    ] {
        if b != c {
            return Err(format!(
                "reports are not comparable: {what} differs (baseline {b}, candidate {c})"
            ));
        }
    }

    let mut violations = Vec::new();
    for base_row in &baseline.rows {
        if base_row.wall_clock {
            continue;
        }
        let Some(cand_row) = find_row(candidate, base_row) else {
            violations.push(Violation::MissingRow {
                system: base_row.system.clone(),
                x: base_row.x,
            });
            continue;
        };
        for (metric, base_value) in &base_row.metrics {
            let Some(threshold) = threshold_for_backend(&baseline.backend, metric) else {
                continue;
            };
            let Some(cand_value) = cand_row.metric(metric) else {
                violations.push(Violation::MissingMetric {
                    system: base_row.system.clone(),
                    x: base_row.x,
                    metric: metric.clone(),
                });
                continue;
            };
            if !threshold.passes(*base_value, cand_value) {
                violations.push(Violation::Regression {
                    system: base_row.system.clone(),
                    x: base_row.x,
                    metric: metric.clone(),
                    baseline: *base_value,
                    candidate: cand_value,
                    limit: threshold.limit(*base_value),
                });
            }
        }
    }
    Ok(violations)
}

/// Advisory comparison: walks the same rows as [`compare`] but applies
/// the [`advisory_threshold_for_backend`] set. The result is a list of
/// *warnings* — `bench-gate` prints them and exits zero. Call after
/// [`compare`] has already vetted the reports' identity; rows or
/// metrics missing from the candidate are simply skipped here.
pub fn compare_advisory(baseline: &BenchReport, candidate: &BenchReport) -> Vec<Violation> {
    let mut warnings = Vec::new();
    for base_row in &baseline.rows {
        if base_row.wall_clock {
            continue;
        }
        let Some(cand_row) = find_row(candidate, base_row) else {
            continue;
        };
        for (metric, base_value) in &base_row.metrics {
            let Some(threshold) = advisory_threshold_for_backend(&baseline.backend, metric) else {
                continue;
            };
            let Some(cand_value) = cand_row.metric(metric) else {
                continue;
            };
            if !threshold.passes(*base_value, cand_value) {
                warnings.push(Violation::Regression {
                    system: base_row.system.clone(),
                    x: base_row.x,
                    metric: metric.clone(),
                    baseline: *base_value,
                    candidate: cand_value,
                    limit: threshold.limit(*base_value),
                });
            }
        }
    }
    warnings
}

/// Strict equivalence check, used by the CI `bench-smoke` job to prove its
/// `--threads 2` and `--threads 8` reports match the `--threads 1` report.
///
/// Everything must match exactly — row order, identities, metric names and
/// order, and every simulated metric value bit for bit — except the two
/// execution details that legitimately differ between runs: the recorded
/// `config.threads`, and the metric *values* of wall-clock rows (the CPU
/// baseline is measured in host time, which is never reproducible). Returns
/// a description of the first difference found.
pub fn equal(a: &BenchReport, b: &BenchReport) -> Result<(), String> {
    let diff = |what: &str, av: &dyn std::fmt::Display, bv: &dyn std::fmt::Display| {
        Err(format!("{what} differs: {av} vs {bv}"))
    };
    if a.schema_version != b.schema_version {
        return diff("schema_version", &a.schema_version, &b.schema_version);
    }
    if a.bench != b.bench {
        return diff("bench", &a.bench, &b.bench);
    }
    if a.scale != b.scale {
        return diff("scale", &a.scale, &b.scale);
    }
    if a.seed != b.seed {
        return diff("seed", &a.seed, &b.seed);
    }
    if a.backend != b.backend {
        return diff("backend", &a.backend, &b.backend);
    }
    if a.faults != b.faults {
        return diff(
            "faults",
            &format!("{:?}", a.faults),
            &format!("{:?}", b.faults),
        );
    }
    if a.fault_seed != b.fault_seed {
        return diff(
            "fault_seed",
            &format!("{:?}", a.fault_seed),
            &format!("{:?}", b.fault_seed),
        );
    }
    if a.rows.len() != b.rows.len() {
        return diff("row count", &a.rows.len(), &b.rows.len());
    }
    for (i, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        let ctx = format!("row {i} (system={} x={})", ra.system, ra.x);
        if ra.system != rb.system || ra.x != rb.x {
            return Err(format!(
                "row {i} identity differs: system={} x={} vs system={} x={}",
                ra.system, ra.x, rb.system, rb.x
            ));
        }
        if ra.wall_clock != rb.wall_clock {
            return diff(
                &format!("{ctx}: wall_clock"),
                &ra.wall_clock,
                &rb.wall_clock,
            );
        }
        if ra.metrics.len() != rb.metrics.len() {
            return diff(
                &format!("{ctx}: metric count"),
                &ra.metrics.len(),
                &rb.metrics.len(),
            );
        }
        for ((ka, va), (kb, vb)) in ra.metrics.iter().zip(&rb.metrics) {
            if ka != kb {
                return diff(&format!("{ctx}: metric order"), ka, kb);
            }
            if !ra.wall_clock && va.to_bits() != vb.to_bits() {
                return diff(&format!("{ctx}: metric '{ka}'"), va, vb);
            }
        }
    }
    Ok(())
}

fn find_row<'a>(report: &'a BenchReport, key: &ReportRow) -> Option<&'a ReportRow> {
    report
        .rows
        .iter()
        .find(|r| r.system == key.system && r.x == key.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: Vec<ReportRow>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            bench: "bank_suite".into(),
            scale: "quick".into(),
            seed: 7,
            threads: 1,
            backend: "sim".into(),
            faults: None,
            fault_seed: None,
            rows,
        }
    }

    fn row(system: &str, x: u64, metrics: &[(&str, f64)]) -> ReportRow {
        ReportRow {
            system: system.into(),
            x,
            wall_clock: false,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn base_metrics() -> Vec<(&'static str, f64)> {
        vec![
            ("throughput", 1e6),
            ("abort_pct", 10.0),
            ("commits", 1000.0),
            ("aborts.read_validation", 50.0), // informational, not gated
        ]
    }

    #[test]
    fn identical_reports_pass() {
        let b = report(vec![row("CSMV", 50, &base_metrics())]);
        assert_eq!(compare(&b, &b.clone()).unwrap(), vec![]);
    }

    #[test]
    fn drift_within_the_band_passes() {
        let b = report(vec![row("CSMV", 50, &base_metrics())]);
        let c = report(vec![row(
            "CSMV",
            50,
            &[
                ("throughput", 0.95e6), // -5 % < the 10 % band
                ("abort_pct", 10.4),    // within rel+abs slack
                ("commits", 1000.0),
                ("aborts.read_validation", 500.0), // ungated: any drift is fine
            ],
        )]);
        assert_eq!(compare(&b, &c).unwrap(), vec![]);
    }

    #[test]
    fn throughput_collapse_fails() {
        let b = report(vec![row("CSMV", 50, &base_metrics())]);
        let mut m = base_metrics();
        m[0].1 = 0.5e6; // -50 %
        let c = report(vec![row("CSMV", 50, &m)]);
        let violations = compare(&b, &c).unwrap();
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::Regression { metric, .. } if metric == "throughput"
        ));
        // The rendering names the row and the band.
        let text = violations[0].to_string();
        assert!(
            text.contains("CSMV") && text.contains("throughput"),
            "{text}"
        );
    }

    #[test]
    fn lost_commits_fail_with_zero_slack() {
        let b = report(vec![row("CSMV", 50, &base_metrics())]);
        let mut m = base_metrics();
        m[2].1 = 999.0;
        let c = report(vec![row("CSMV", 50, &m)]);
        assert_eq!(compare(&b, &c).unwrap().len(), 1);
    }

    #[test]
    fn missing_row_and_missing_metric_fail() {
        let b = report(vec![
            row("CSMV", 50, &base_metrics()),
            row("PR-STM", 50, &base_metrics()),
        ]);
        let c = report(vec![row("CSMV", 50, &[("abort_pct", 10.0)])]);
        let violations = compare(&b, &c).unwrap();
        assert!(violations.contains(&Violation::MissingRow {
            system: "PR-STM".into(),
            x: 50
        }));
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::MissingMetric { metric, .. } if metric == "throughput"
        )));
        // Missing *ungated* metrics are not violations.
        assert!(!violations.iter().any(|v| matches!(
            v,
            Violation::MissingMetric { metric, .. } if metric == "aborts.read_validation"
        )));
    }

    #[test]
    fn wall_clock_rows_are_skipped() {
        let mut cpu = row("JVSTM (CPU)", 50, &[("throughput", 1e6)]);
        cpu.wall_clock = true;
        let b = report(vec![cpu.clone()]);
        let mut slow = cpu;
        slow.metrics[0].1 = 1.0; // collapsed, but wall-clock: ignored
        let c = report(vec![slow]);
        assert_eq!(compare(&b, &c).unwrap(), vec![]);
    }

    #[test]
    fn mismatched_configs_are_errors_not_regressions() {
        let b = report(vec![]);
        let mut c = b.clone();
        c.seed = 8;
        assert!(compare(&b, &c).unwrap_err().contains("seed"));
        let mut c = b.clone();
        c.scale = "paper".into();
        assert!(compare(&b, &c).unwrap_err().contains("scale"));
        let mut c = b.clone();
        c.bench = "mc_suite".into();
        assert!(compare(&b, &c).unwrap_err().contains("bench"));
        let mut c = b.clone();
        c.backend = "service".into();
        assert!(compare(&b, &c).unwrap_err().contains("backend"));
        assert!(equal(&b, &c).unwrap_err().contains("backend"));
    }

    #[test]
    fn schema_version_mismatch_refuses_in_both_directions() {
        // An old (v2) baseline against a current candidate: refuse with
        // an instruction to regenerate the baseline.
        let current = report(vec![row("CSMV", 50, &base_metrics())]);
        let mut stale = current.clone();
        stale.schema_version = SCHEMA_VERSION - 1;
        let err = compare(&stale, &current).unwrap_err();
        assert!(err.contains("baseline schema"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
        // A current baseline against an old candidate (stale bench
        // binary): refuse with an instruction to rebuild, never a
        // silent threshold pass.
        let err = compare(&current, &stale).unwrap_err();
        assert!(err.contains("candidate schema"), "{err}");
        assert!(err.contains("rebuild"), "{err}");
    }

    #[test]
    fn service_reports_gate_counts_and_latency_is_advisory_only() {
        let metrics: Vec<(&str, f64)> = vec![
            ("latency_p50_us", 150.0),
            ("latency_p99_us", 900.0),
            ("latency_p999_us", 2500.0),
            ("arrival_rate", 400.0),
            ("achieved_rate", 399.0),
            ("service.ok", 795.0),
            ("service.retry", 3.0),
            ("service.busy", 2.0),
            ("service.err", 0.0),
            ("commits", 795.0),
            ("failed", 0.0),
        ];
        let mut b = report(vec![row("loadgen", 400, &metrics)]);
        b.backend = "service".into();

        // Small accounting drift inside the band, latency within 50%:
        // clean pass, no warnings.
        let mut c = b.clone();
        for (k, v) in c.rows[0].metrics.iter_mut() {
            match k.as_str() {
                "service.ok" => *v -= 3.0,
                "service.retry" => *v += 3.0,
                "latency_p99_us" => *v *= 1.3,
                _ => {}
            }
        }
        assert_eq!(compare(&b, &c).unwrap(), vec![]);
        assert_eq!(compare_advisory(&b, &c), vec![]);

        // Committed replies collapsing past the band fails the gate.
        let mut c = b.clone();
        c.rows[0].metrics.iter_mut().for_each(|(k, v)| {
            if k == "service.ok" {
                *v = 700.0;
            }
        });
        let violations = compare(&b, &c).unwrap();
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::Regression { metric, .. } if metric == "service.ok"
        )));

        // Any unclassified error fails with zero slack.
        let mut c = b.clone();
        c.rows[0].metrics.iter_mut().for_each(|(k, v)| {
            if k == "service.err" {
                *v = 1.0;
            }
        });
        assert_eq!(compare(&b, &c).unwrap().len(), 1);

        // A latency blow-up never fails the gate — it surfaces as an
        // advisory warning instead.
        let mut c = b.clone();
        c.rows[0].metrics.iter_mut().for_each(|(k, v)| {
            if k.starts_with("latency_") {
                *v *= 10.0;
            }
        });
        assert_eq!(compare(&b, &c).unwrap(), vec![]);
        let warnings = compare_advisory(&b, &c);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings.iter().all(|w| matches!(
            w,
            Violation::Regression { metric, .. } if metric.starts_with("latency_p")
        )));
        // Advisory checks never apply to non-service backends.
        assert_eq!(compare_advisory(&report(vec![]), &report(vec![])), vec![]);
        assert!(advisory_threshold_for_backend("sim", "latency_p50_us").is_none());
    }

    #[test]
    fn improvements_never_fail() {
        let b = report(vec![row("CSMV", 50, &base_metrics())]);
        let c = report(vec![row(
            "CSMV",
            50,
            &[
                ("throughput", 2e6),
                ("abort_pct", 1.0),
                ("commits", 2000.0),
                ("aborts.read_validation", 0.0),
            ],
        )]);
        assert_eq!(compare(&b, &c).unwrap(), vec![]);
    }

    #[test]
    fn thread_count_is_not_gating() {
        // Baselines predate the `config.threads` field and parse as
        // threads=1; a parallel candidate must still gate cleanly against
        // them without regenerating anything.
        let b = report(vec![row("CSMV", 50, &base_metrics())]);
        let mut c = b.clone();
        c.threads = 8;
        assert_eq!(compare(&b, &c).unwrap(), vec![]);
        assert_eq!(compare(&c, &b).unwrap(), vec![]);
    }

    #[test]
    fn equal_ignores_threads_and_wall_clock_values_only() {
        let mut cpu = row("JVSTM (CPU)", 50, &[("throughput", 1e6)]);
        cpu.wall_clock = true;
        let a = report(vec![row("CSMV", 50, &base_metrics()), cpu.clone()]);
        // Different thread count and different wall-clock timing: equivalent.
        let mut b = a.clone();
        b.threads = 8;
        b.rows[1].metrics[0].1 = 2e6;
        assert_eq!(equal(&a, &b), Ok(()));
        // A simulated metric differing in the last bit: not equivalent.
        let mut b = a.clone();
        b.rows[0].metrics[0].1 = f64::from_bits(b.rows[0].metrics[0].1.to_bits() + 1);
        let err = equal(&a, &b).unwrap_err();
        assert!(err.contains("throughput"), "{err}");
        // Row order is part of the contract.
        let mut b = a.clone();
        b.rows.swap(0, 1);
        assert!(equal(&a, &b).is_err());
        // So is the row set.
        let mut b = a.clone();
        b.rows.pop();
        let err = equal(&a, &b).unwrap_err();
        assert!(err.contains("row count"), "{err}");
    }

    #[test]
    fn threshold_directions_are_correct() {
        let t = threshold_for("throughput").unwrap();
        assert!(t.passes(100.0, 95.0));
        assert!(!t.passes(100.0, 80.0));
        let t = threshold_for("abort_pct").unwrap();
        assert!(t.passes(10.0, 11.0));
        assert!(!t.passes(10.0, 20.0));
        assert!(threshold_for("gts_stall.sum").is_none());
    }
}

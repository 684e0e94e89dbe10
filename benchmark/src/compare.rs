//! `compare a.json b.json`: judge result file `b` against `a` with the
//! direction and bound `BENCHMARK.json` fixes for each end-to-end metric.
//! One row per workload × metric; exit nonzero on any `worse`. This is the
//! tool the "two sets of runs agree" criterion is checked with.

use crate::json::Json;
use crate::spec::{gates, Gate, WORKLOADS};
use crate::stats::quartile_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The reps of one side disagree by more than the bound, and the two
    /// sides' reps overlap: the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of one metric: its value and the per-window values
/// behind it.
pub struct Reading {
    pub value: f64,
    pub reps: Vec<f64>,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(gate: &Gate, a: f64, b: f64) -> f64 {
    let delta = if gate.higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        delta.signum()
    } else {
        delta / a.abs()
    }
}

/// `exact`: the metric is deterministic on this workload (simulated
/// throughput), so any decrease is worse and no spread applies.
pub fn judge(gate: &Gate, a: &Reading, b: &Reading, exact: bool) -> Verdict {
    let change = worse_by(gate, a.value, b.value);
    if exact {
        return match change {
            c if c > 0.0 => Verdict::Worse,
            c if c < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let spread = quartile_spread(&a.reps).max(quartile_spread(&b.reps));
    if spread > gate.bound {
        // Too noisy for the medians to decide; only a clean separation
        // of every rep does.
        let all = |better: bool| {
            !a.reps.is_empty()
                && !b.reps.is_empty()
                && a.reps.iter().all(|&x| {
                    b.reps.iter().all(|&y| {
                        let w = worse_by(gate, x, y);
                        if better {
                            w < 0.0
                        } else {
                            w > 0.0
                        }
                    })
                })
        };
        return if all(true) {
            Verdict::Better
        } else if all(false) && change > gate.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if change > gate.bound {
        Verdict::Worse
    } else if change < -gate.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn reading(run: &Json, metric: &str) -> Option<Reading> {
    let value = run.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
    let reps = run
        .get("reps")
        .and_then(|r| r.get(metric))
        .and_then(Json::as_arr)
        .map(|reps| reps.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Reading { value, reps })
}

/// Compare two result files. Prints the table; `Ok(true)` when nothing
/// got worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let gates = gates()?;
    let mut clean = true;
    let mut rows = 0;
    println!("workload metric a b change bound verdict");
    for w in WORKLOADS {
        let run_of = |doc: &'_ Json| doc.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (Some(ra), Some(rb)) = (run_of(&a), run_of(&b)) else {
            continue;
        };
        for g in &gates {
            let (Some(x), Some(y)) = (reading(&ra, &g.name), reading(&rb, &g.name)) else {
                continue;
            };
            let exact = w == "sim-bank" && g.name == "commit_tps";
            let verdict = judge(g, &x, &y, exact);
            clean &= verdict != Verdict::Worse;
            rows += 1;
            println!(
                "{w} {} {} {} {:+.2}% {}% {}",
                g.name,
                x.value,
                y.value,
                100.0 * -worse_by(g, x.value, y.value),
                100.0 * if exact { 0.0 } else { g.bound },
                verdict.label()
            );
        }
        // The simulator's statistics are exact: report any that moved.
        let layers = |r: &Json| {
            r.get("layers")
                .and_then(Json::as_obj)
                .cloned()
                .unwrap_or_default()
        };
        for (name, va) in layers(&ra).iter().filter(|(n, _)| n.starts_with("sim.")) {
            let host_time = name == "sim.host_s" || name == "sim.host_ns_per_sim_cycle";
            let vb = layers(&rb).get(name).cloned();
            if !host_time && vb.as_ref() != Some(va) {
                let show = |v: Option<&Json>| v.and_then(|v| v.get("value")).map(Json::encode);
                println!(
                    "{w} {name} {} {} changed (simulated statistic, expected identical)",
                    show(Some(va)).unwrap_or_default(),
                    show(vb.as_ref()).unwrap_or_default()
                );
            }
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool) -> Gate {
        Gate {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    fn read(reps: &[f64]) -> Reading {
        Reading {
            value: crate::stats::median(reps),
            reps: reps.to_vec(),
        }
    }

    #[test]
    fn within_bound_is_same_beyond_it_is_better_or_worse_by_direction() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.0];
        let up = [120.0, 121.0, 119.0, 120.0, 120.0];
        let near = [105.0, 106.0, 104.0, 105.0, 105.0];
        let tps = gate(true);
        assert_eq!(
            judge(&tps, &read(&steady), &read(&near), false),
            Verdict::Same
        );
        assert_eq!(
            judge(&tps, &read(&steady), &read(&up), false),
            Verdict::Better
        );
        assert_eq!(
            judge(&tps, &read(&up), &read(&steady), false),
            Verdict::Worse
        );
        let lat = gate(false);
        assert_eq!(
            judge(&lat, &read(&steady), &read(&up), false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&lat, &read(&up), &read(&steady), false),
            Verdict::Better
        );
    }

    #[test]
    fn noisy_reps_are_unresolved_unless_every_rep_separates() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let shifted = [95.0, 105.0, 115.0, 125.0, 135.0];
        let far = [200.0, 220.0, 240.0, 260.0, 280.0];
        let tps = gate(true);
        assert_eq!(
            judge(&tps, &read(&noisy), &read(&shifted), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&tps, &read(&noisy), &read(&far), false),
            Verdict::Better
        );
        assert_eq!(
            judge(&tps, &read(&far), &read(&noisy), false),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_flag_any_decrease() {
        let tps = gate(true);
        let one = |v| Reading {
            value: v,
            reps: Vec::new(),
        };
        assert_eq!(judge(&tps, &one(1000.0), &one(1000.0), true), Verdict::Same);
        assert_eq!(judge(&tps, &one(1000.0), &one(999.9), true), Verdict::Worse);
        assert_eq!(
            judge(&tps, &one(1000.0), &one(1000.1), true),
            Verdict::Better
        );
    }
}

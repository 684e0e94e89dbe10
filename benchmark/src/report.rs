//! What one workload run hands back: per-rep values of each metric, the
//! failure count and the correctness verdict, plus the two ways they are
//! printed (one line per metric for people, one JSON line for the driver).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, rep_spread};

#[derive(Default)]
pub struct Outcome {
    /// Violated correctness gates; empty means the outputs were correct.
    pub problems: Vec<String>,
    /// Operations (transactions, requests) the measured reps attempted.
    pub attempted: u64,
    /// Those that ended in anything but a committed result.
    pub failed: u64,
    /// Metric name → one value per rep. The reported value is the median.
    reps: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// Append one rep's reading of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.reps.entry(name).or_default().push(value);
    }

    /// Set a metric measured once per run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.reps.insert(name, vec![value]);
    }

    pub fn reps(&self, name: &str) -> &[f64] {
        self.reps.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median over reps, `None` when the workload never measured `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.reps.get(name).map(|v| median(v))
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// 0 when every gate passed; the process exits with this.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    fn listed(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// `workload metric value unit min max reps`, one line per metric of
    /// this pass. Per-layer metrics the workload does not exercise are
    /// left out here (they read 0 in the JSON line).
    pub fn print(&self, workload: &str, trace: bool) {
        for &(name, unit) in Self::listed(trace) {
            let reps = self.reps(name);
            if reps.is_empty() {
                continue;
            }
            let min = reps.iter().copied().fold(f64::MAX, f64::min);
            let max = reps.iter().copied().fold(f64::MIN, f64::max);
            println!(
                "{workload} {name} {} {unit} min {min} max {max} reps {}",
                median(reps),
                reps.len()
            );
        }
        for p in &self.problems {
            println!("{workload} INCORRECT {p}");
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, with every metric of this pass present.
    pub fn result(&self, trace: bool) -> Result<Json, String> {
        let mut metrics = BTreeMap::new();
        for &(name, unit) in Self::listed(trace) {
            let value = match (self.value(name), trace) {
                (Some(v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            metrics.insert(
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            );
        }
        if let Some(stray) = self
            .reps
            .keys()
            .find(|k| !END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == *k))
        {
            return Err(format!("metric {stray} is not in the spec"));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// Per-rep values of this pass's metrics, for the saved result file
    /// (`compare` needs the rep spread to call a difference unresolved).
    pub fn reps_json(&self, trace: bool) -> Json {
        Json::obj(Self::listed(trace).iter().filter_map(|&(name, _)| {
            let reps = self.reps(name);
            (!reps.is_empty()).then(|| {
                (
                    name,
                    Json::Arr(reps.iter().map(|&v| Json::Num(v)).collect()),
                )
            })
        }))
    }

    /// `(max − min) ÷ median` over the reps of `name`.
    pub fn spread(&self, name: &str) -> f64 {
        rep_spread(self.reps(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        for (name, _) in END_TO_END {
            o.push(name, 1.5);
            o.push(name, 2.5);
            o.push(name, 9.0);
        }
        o
    }

    #[test]
    fn result_has_exactly_the_contract_keys_and_every_metric() {
        let o = measured();
        let r = o.result(false).unwrap();
        let keys: Vec<&str> = r.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = r.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // Median of the three reps, with its unit.
        let tps = &metrics["commit_tps"];
        assert_eq!(tps.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(tps.get("unit").and_then(Json::as_str), Some("1/s"));
        // The layer pass lists every per-layer metric, 0 where unmeasured.
        let layers = o.result(true).unwrap();
        assert_eq!(
            layers.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_or_a_stray_name_is_an_error() {
        let mut o = Outcome::default();
        o.push("commit_tps", 1.0);
        assert!(o.result(false).is_err());
        let mut o = measured();
        o.push("not.in.spec", 1.0);
        assert!(o.result(false).unwrap_err().contains("not.in.spec"));
    }

    #[test]
    fn a_violated_gate_turns_into_a_nonzero_exit() {
        let mut o = measured();
        assert_eq!(o.exit_code(), 0);
        o.problems.push("bank total 4095999 != 4096000".into());
        assert_eq!(o.exit_code(), 1);
        assert_eq!(
            o.result(false)
                .unwrap()
                .get("correct")
                .and_then(Json::as_bool),
            Some(false)
        );
    }
}

//! Names the benchmark is addressed by: the six workloads and every metric
//! the binary emits. `BENCHMARK.json` at the repo root lists the same
//! names with their direction, bound and reason; a unit test below keeps
//! the two in step, and `compare` reads directions and bounds from the
//! embedded copy.

use crate::json::Json;

/// The contract file, embedded so `compare` and the tests need no path.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Workload names, in the order the full run executes them.
pub const WORKLOADS: [&str; 6] = [
    "native-update",
    "native-scan",
    "native-contend",
    "service-sat",
    "service-open",
    "sim-bank",
];

/// `(name, unit)` of every end-to-end metric; every workload reports all.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("commit_tps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 82] = [
    // Median and 90th percentile of the time one operation takes. Both
    // demoted from end-to-end: on the seed code sets of ten runs disagreed
    // on them by more than any bound the contract allows (see README.md).
    ("p50_us", "us"),
    ("p90_us", "us"),
    // From the MetricsReport/CommitStats the engine returns.
    ("worker.commit_per_attempt", "ratio"),
    ("worker.useful_ns_per_commit", "ns"),
    ("worker.wasted_ns_per_commit", "ns"),
    ("worker.gts_stall_ns_per_commit", "ns"),
    ("worker.batch_mean", "count"),
    ("worker.spec_exec_per_commit", "ratio"),
    ("worker.spec_squash_ratio", "ratio"),
    ("worker.abort.read_validation", "ratio"),
    ("worker.abort.write_write", "ratio"),
    ("worker.abort.prevalidation_kill", "ratio"),
    ("worker.abort.snapshot_too_old", "ratio"),
    ("worker.abort.version_overflow", "ratio"),
    ("worker.abort.other", "ratio"),
    ("server.stall_ns_per_commit", "ns"),
    ("atr.occupancy_mean", "count"),
    ("atr.occupancy_max", "count"),
    ("store.reads_per_s", "1/s"),
    ("store.gc_reclaimed_per_commit", "ratio"),
    ("store.gc_spilled_per_commit", "ratio"),
    ("store.max_version_list_len", "count"),
    ("store.footprint_peak_bytes", "bytes"),
    // In-process probe of NativeEngine (service workloads).
    ("engine.kv_tps", "1/s"),
    ("engine.kv_p50_us", "us"),
    ("engine.kv_p90_us", "us"),
    ("engine.submit_call_ns", "ns"),
    ("engine.wake_us", "us"),
    ("engine.commit_latency_mean_us", "us"),
    ("engine.idle_p50_us", "us"),
    ("engine.idle_tps", "1/s"),
    ("engine.stall_windows", "count"),
    ("engine.max_us", "us"),
    ("engine.start_s", "s"),
    ("engine.shutdown_s", "s"),
    // Bench-side spans around the socket (service workloads).
    ("service.p99_us", "us"),
    ("service.p999_us", "us"),
    ("service.max_us", "us"),
    ("service.stall_windows", "count"),
    ("service.busy_ratio", "ratio"),
    ("service.retry_ratio", "ratio"),
    ("service.gen_late_p99_us", "us"),
    ("service.sock_write_us", "us"),
    ("service.drain_s", "s"),
    ("service.conn_overhead_us", "us"),
    ("service.lat.get_p50_us", "us"),
    ("service.lat.get_p90_us", "us"),
    ("service.lat.set_p50_us", "us"),
    ("service.lat.set_p90_us", "us"),
    ("service.lat.incr_p50_us", "us"),
    ("service.lat.incr_p90_us", "us"),
    ("service.lat.multi_p50_us", "us"),
    ("service.lat.multi_p90_us", "us"),
    // Pure-function microbenches.
    ("resp.parse_frame_ns", "ns"),
    ("resp.parse_reply_ns", "ns"),
    ("resp.encode_command_ns", "ns"),
    ("command.parse_ns", "ns"),
    ("steps.footprint_hits_entry_ns", "ns"),
    ("steps.preval_losers_ns", "ns"),
    ("steps.retain_from_ns", "ns"),
    ("steps.version_needed_ns", "ns"),
    ("stm_core.registry_cycle_ns", "ns"),
    ("stm_core.watermark_ns", "ns"),
    ("stm_core.check_history_ns_per_tx", "ns"),
    ("stm_core.histogram_record_ns", "ns"),
    ("workloads.bank_next_tx_ns", "ns"),
    ("workloads.list_next_tx_ns", "ns"),
    ("workloads.kv_gen_ns", "ns"),
    // The simulator's own (bit-exact) statistics.
    ("sim.tx_per_s", "1/s"),
    ("sim.host_s", "s"),
    ("sim.abort_pct", "%"),
    ("sim.commits", "count"),
    ("sim.client_cycles_per_tx", "cycles"),
    ("sim.server_cycles_per_tx", "cycles"),
    ("sim.wasted_cycles_per_tx", "cycles"),
    ("sim.atr_occupancy_mean", "count"),
    ("sim.gts_stall_cycles_per_commit", "cycles"),
    ("sim.host_ns_per_sim_cycle", "ns"),
    // About the measurement itself.
    ("fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.nproc", "count"),
    ("bench.rep_spread", "ratio"),
];

/// Direction and regression bound of one end-to-end metric, as
/// `BENCHMARK.json` fixes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end gates of the embedded `BENCHMARK.json`.
pub fn gates() -> Result<Vec<Gate>, String> {
    let spec = Json::parse(BENCHMARK_JSON)?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            Ok(Gate {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names_of(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_equal_what_the_binary_emits() {
        let spec = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(names_of(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_of(&spec, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names_of(&spec, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            spec.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract_alphabet() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "metric name {name:?}");
            assert!(unit_ok(unit), "unit {unit:?} of {name}");
            assert!(seen.insert(*name), "metric {name} is listed twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w), "workload name {w:?}");
            assert!(seen.insert(w), "{w} names both a workload and a metric");
        }
    }

    #[test]
    fn gates_carry_direction_and_a_contract_sized_bound() {
        let gates = gates().unwrap();
        assert_eq!(gates.len(), END_TO_END.len());
        for g in &gates {
            assert!(g.bound > 0.0 && g.bound <= 0.25, "{g:?}");
        }
        let setup = gates.iter().find(|g| g.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(gates.iter().all(|g| g.bound <= setup.bound));
        let tps = gates.iter().find(|g| g.name == "commit_tps").unwrap();
        assert!(tps.higher_is_better);
    }
}

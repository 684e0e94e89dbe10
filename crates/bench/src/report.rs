//! The canonical JSON schema every bench binary emits under `--json` and the
//! `bench-gate` comparator consumes.
//!
//! A report is one benchmark invocation: the bench name, the scale/seed it
//! ran at, and one row per measured configuration. Each row flattens the
//! run's [`stm_core::MetricsReport`] (plus the headline throughput/abort
//! numbers) into an ordered `metric name → f64` map, so the gate can apply
//! per-metric thresholds without knowing any STM internals. Rows measured in
//! wall-clock time (the CPU baseline) are marked `wall_clock` and skipped by
//! the gate — host timing is not reproducible.

use crate::json::{parse, Json};
use crate::Row;
use stm_core::{AbortReason, FaultEvent};

/// Bumped whenever the schema changes incompatibly; `bench-gate` refuses to
/// compare reports of different versions.
///
/// v2 added the execution `backend` to the config block and the
/// wall-clock metrics `txn_per_sec` / `latency_p50_us` / `latency_p99_us`
/// to every row.
///
/// v3 added `latency_p999_us` to every row plus the open-loop service
/// metrics (`arrival_rate`, `achieved_rate`, `service.*` counters and
/// per-class latency summaries) on rows produced by the `loadgen`
/// binary against `csmv-service` (`config.backend` = "service").
///
/// Still v3 (additive): the version-GC PR appended
/// `aborts.snapshot_too_old` (via the [`AbortReason::ALL`] loop),
/// `memory_footprint_bytes`, `max_version_list_len` and the `gc.*`
/// counters to every row. Old gates ignore unknown rows, so no bump —
/// but baselines were regenerated to carry them.
///
/// Still v3 (additive): the pipelined-commit PR appended `gts_stall_ns`
/// (mean GTS-turn stall per commit) and the `server_stall.*` series
/// summaries (server-side version-wait during validation). Missing rows in
/// an older baseline are additive, never an error. Its three
/// `pipeline.spec_*` counters left the schema with the mechanism they
/// counted, and the baselines were stripped of them.
pub const SCHEMA_VERSION: u64 = 3;

/// One benchmark invocation's structured output.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this build).
    pub schema_version: u64,
    /// Bench binary name (`bank_suite`, `loadgen`, …).
    pub bench: String,
    /// Scale label: `quick` or `paper`.
    pub scale: String,
    /// Workload RNG seed the run used.
    pub seed: u64,
    /// Host threads the bench harness used to execute its cells (the
    /// report's `config.threads`). Purely an execution detail: cells are
    /// deterministic and ordered, so reports produced at different thread
    /// counts are otherwise identical, and `bench-gate` never gates on it.
    pub threads: u64,
    /// Execution backend the rows were measured on (`config.backend`):
    /// `"sim"` (the cycle-level simulator, the default) or `"service"`
    /// (`loadgen` against a live `csmv-service`, wall-clock measured). Like
    /// `faults`, this is part of the run's identity — `bench-gate` refuses
    /// cross-backend comparisons and applies a backend-specific threshold
    /// policy.
    pub backend: String,
    /// Fault-injection spec the run used (`config.faults`), if any. Unlike
    /// `threads` this changes results, so `bench-gate` refuses to compare
    /// reports whose fault configs differ.
    pub faults: Option<String>,
    /// Seed feeding fault decisions and recovery jitter
    /// (`config.fault_seed`); recorded only when faults were injected.
    pub fault_seed: Option<u64>,
    /// Measured configurations, in execution order.
    pub rows: Vec<ReportRow>,
}

/// One measured configuration within a report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// System label (`CSMV`, `PR-STM`, …).
    pub system: String,
    /// Swept parameter value (%ROT, ways, versions or server count).
    pub x: u64,
    /// True when the row was measured in host wall-clock time.
    pub wall_clock: bool,
    /// Flat metric map, in canonical order.
    pub metrics: Vec<(String, f64)>,
}

impl ReportRow {
    /// Look up one metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// Flatten one measured [`Row`] into the canonical metric map.
fn flatten(row: &Row) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = vec![
        ("throughput".into(), row.throughput),
        ("abort_pct".into(), row.abort_pct),
        ("total_ms_per_tx".into(), row.total_ms_per_tx),
        ("wasted_ms_per_tx".into(), row.wasted_ms_per_tx),
        ("elapsed_ms".into(), row.elapsed_ms),
        ("commits".into(), row.commits as f64),
        ("aborts".into(), row.aborts as f64),
        (
            "poll_stall_cycles".into(),
            (row.client_bd.poll_stall_cycles + row.server_bd.poll_stall_cycles) as f64,
        ),
        // Wall-clock metrics (v2): zero on simulated rows.
        ("txn_per_sec".into(), row.txn_per_sec),
        ("latency_p50_us".into(), row.latency_p50_us),
        ("latency_p99_us".into(), row.latency_p99_us),
        // v3: p99.9 everywhere (nonzero on service rows only).
        ("latency_p999_us".into(), row.latency_p999_us),
    ];
    // v3, additive: open-loop service metrics, present only on loadgen
    // rows so every other backend's reports are byte-stable.
    if let Some(s) = &row.service {
        m.push(("arrival_rate".into(), s.arrival_rate));
        m.push(("achieved_rate".into(), s.achieved_rate));
        m.push(("service.ok".into(), s.ok as f64));
        m.push(("service.retry".into(), s.retry as f64));
        m.push(("service.busy".into(), s.busy as f64));
        m.push(("service.err".into(), s.err as f64));
        m.push(("service.inflight_max".into(), s.inflight_max as f64));
        for (class, l) in &s.classes {
            m.push((format!("service.{class}.count"), l.count as f64));
            m.push((format!("service.{class}.p50_us"), l.p50_us));
            m.push((format!("service.{class}.p99_us"), l.p99_us));
            m.push((format!("service.{class}.p999_us"), l.p999_us));
        }
    }
    let metrics = &row.metrics;
    for reason in AbortReason::ALL {
        m.push((
            format!("aborts.{}", reason.key()),
            metrics.aborts.count(reason) as f64,
        ));
    }
    // Fault/recovery observability: informational (never gated), present in
    // every report so fault-armed runs stay schema-compatible.
    m.push(("failed".into(), row.failed as f64));
    for event in FaultEvent::ALL {
        m.push((
            format!("faults.{}", event.key()),
            metrics.faults.count(event) as f64,
        ));
    }
    m.push(("faults.total".into(), metrics.faults.total() as f64));
    for (prefix, h) in [
        ("commit_latency", &metrics.commit_latency),
        ("abort_latency", &metrics.abort_latency),
        ("batch_sizes", &metrics.batch_sizes),
    ] {
        m.push((format!("{prefix}.count"), h.count() as f64));
        m.push((format!("{prefix}.mean"), h.mean()));
        m.push((format!("{prefix}.p50"), h.quantile(0.5) as f64));
        m.push((format!("{prefix}.p99"), h.quantile(0.99) as f64));
        m.push((format!("{prefix}.max"), h.max() as f64));
    }
    for (prefix, s) in [
        ("atr_occupancy", &metrics.atr_occupancy),
        ("gts_stall", &metrics.gts_stall),
        ("server_stall", &metrics.server_stall),
    ] {
        m.push((format!("{prefix}.samples"), s.len() as f64));
        m.push((format!("{prefix}.mean"), s.mean()));
        m.push((format!("{prefix}.max"), s.max() as f64));
        m.push((format!("{prefix}.sum"), s.sum() as f64));
    }
    // v3, additive: `gts_stall_ns` is the mean GTS-turn stall charged to
    // each commit.
    m.push((
        "gts_stall_ns".into(),
        metrics.gts_stall.sum() as f64 / (row.commits.max(1) as f64),
    ));
    // v3, additive: version-GC and memory-footprint observability. The
    // footprint row is the *peak* sampled bytes so a bounded-memory gate
    // compares worst-case residency, not whatever the final sample was.
    let gc = &metrics.gc;
    m.push((
        "memory_footprint_bytes".into(),
        metrics.footprint.max() as f64,
    ));
    m.push((
        "max_version_list_len".into(),
        gc.max_version_list_len as f64,
    ));
    m.push(("gc.reclaimed".into(), gc.versions_reclaimed as f64));
    m.push(("gc.spilled".into(), gc.versions_spilled as f64));
    m.push(("gc.pruned".into(), gc.spill_pruned as f64));
    m.push(("gc.pinned_commits".into(), gc.pinned_commits as f64));
    m
}

impl BenchReport {
    /// Build a report from measured rows.
    pub fn from_rows(bench: &str, scale: &str, seed: u64, rows: &[Row]) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            bench: bench.to_string(),
            scale: scale.to_string(),
            seed,
            threads: 1,
            backend: "sim".to_string(),
            faults: None,
            fault_seed: None,
            rows: rows
                .iter()
                .map(|r| ReportRow {
                    system: r.system.clone(),
                    x: r.x,
                    wall_clock: r.wall_clock,
                    metrics: flatten(r),
                })
                .collect(),
        }
    }

    /// Serialize to the canonical JSON document.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("system".into(), Json::Str(r.system.clone())),
                    ("x".into(), Json::Num(r.x as f64)),
                    ("wall_clock".into(), Json::Bool(r.wall_clock)),
                    (
                        "metrics".into(),
                        Json::Obj(
                            r.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("bench".into(), Json::Str(self.bench.clone())),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("rows".into(), Json::Arr(rows)),
            ("config".into(), {
                let mut cfg = vec![
                    ("threads".into(), Json::Num(self.threads as f64)),
                    ("backend".into(), Json::Str(self.backend.clone())),
                ];
                if let Some(spec) = &self.faults {
                    cfg.push(("faults".into(), Json::Str(spec.clone())));
                }
                if let Some(seed) = self.fault_seed {
                    cfg.push(("fault_seed".into(), Json::Num(seed as f64)));
                }
                Json::Obj(cfg)
            }),
        ])
    }

    /// Deserialize from a JSON document.
    pub fn from_json(doc: &Json) -> Result<BenchReport, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing '{key}'"));
        let schema_version = field("schema_version")?
            .as_u64()
            .ok_or("'schema_version' must be an integer")?;
        let bench = field("bench")?
            .as_str()
            .ok_or("'bench' must be a string")?
            .to_string();
        let scale = field("scale")?
            .as_str()
            .ok_or("'scale' must be a string")?
            .to_string();
        let seed = field("seed")?.as_u64().ok_or("'seed' must be an integer")?;
        // `config` is optional so baselines written before it existed still
        // parse (they ran single-threaded).
        let (threads, backend, faults, fault_seed) = match doc.get("config") {
            Some(cfg) => (
                cfg.get("threads")
                    .map(|t| t.as_u64().ok_or("'config.threads' must be an integer"))
                    .transpose()?
                    .unwrap_or(1),
                // Optional with a "sim" default: every report written
                // before the field existed was a simulator run.
                cfg.get("backend")
                    .map(|b| {
                        b.as_str()
                            .map(str::to_string)
                            .ok_or("'config.backend' must be a string")
                    })
                    .transpose()?
                    .unwrap_or_else(|| "sim".to_string()),
                // Optional so fault-free baselines (and reports written
                // before the fault layer existed) parse unchanged.
                cfg.get("faults")
                    .map(|f| {
                        f.as_str()
                            .map(str::to_string)
                            .ok_or("'config.faults' must be a string")
                    })
                    .transpose()?,
                cfg.get("fault_seed")
                    .map(|s| s.as_u64().ok_or("'config.fault_seed' must be an integer"))
                    .transpose()?,
            ),
            None => (1, "sim".to_string(), None, None),
        };
        let mut rows = Vec::new();
        for (i, row) in field("rows")?
            .as_array()
            .ok_or("'rows' must be an array")?
            .iter()
            .enumerate()
        {
            let rf = |key: &str| {
                row.get(key)
                    .ok_or_else(|| format!("row {i}: missing '{key}'"))
            };
            let system = rf("system")?
                .as_str()
                .ok_or_else(|| format!("row {i}: 'system' must be a string"))?
                .to_string();
            let x = rf("x")?
                .as_u64()
                .ok_or_else(|| format!("row {i}: 'x' must be an integer"))?;
            let wall_clock = rf("wall_clock")?
                .as_bool()
                .ok_or_else(|| format!("row {i}: 'wall_clock' must be a boolean"))?;
            let mut metrics = Vec::new();
            for (k, v) in rf("metrics")?
                .as_object()
                .ok_or_else(|| format!("row {i}: 'metrics' must be an object"))?
            {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("row {i}: metric '{k}' must be a number"))?;
                metrics.push((k.clone(), v));
            }
            rows.push(ReportRow {
                system,
                x,
                wall_clock,
                metrics,
            });
        }
        Ok(BenchReport {
            schema_version,
            bench,
            scale,
            seed,
            threads,
            backend,
            faults,
            fault_seed,
            rows,
        })
    }

    /// Write the report to `path`, creating parent directories as needed.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json().pretty())
    }

    /// Read a report back from `path`.
    pub fn read_file(path: &std::path::Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::MetricsReport;
    use stm_core::TimeBreakdown;

    fn sample_row() -> Row {
        let mut metrics = MetricsReport::default();
        metrics.record_commit(120);
        metrics.record_commit(80);
        metrics.record_abort(AbortReason::PreValidationKill, 40);
        metrics.batch_sizes.record(17);
        metrics.atr_occupancy.push(10, 3);
        metrics.gts_stall.push(20, 7);
        metrics.gc.versions_reclaimed = 9;
        metrics.gc.versions_spilled = 4;
        metrics.gc.spill_pruned = 3;
        metrics.gc.pinned_commits = 1;
        metrics.gc.max_version_list_len = 5;
        metrics.footprint.push(5, 4096);
        metrics.footprint.push(15, 8192);
        metrics.server_stall.push(30, 11);
        let client_bd = TimeBreakdown {
            poll_stall_cycles: 55,
            ..Default::default()
        };
        Row {
            system: "CSMV".into(),
            x: 50,
            throughput: 1.25e6,
            abort_pct: 3.5,
            total_ms_per_tx: 0.02,
            wasted_ms_per_tx: 0.001,
            client_bd,
            server_bd: TimeBreakdown::default(),
            elapsed_ms: 12.0,
            commits: 1000,
            aborts: 35,
            failed: 0,
            txn_per_sec: 0.0,
            latency_p50_us: 0.0,
            latency_p99_us: 0.0,
            latency_p999_us: 0.0,
            service: None,
            analysis: None,
            wall_clock: false,
            metrics,
        }
    }

    #[test]
    fn flatten_covers_the_taxonomy_and_summaries() {
        let report = BenchReport::from_rows("fig2", "quick", 7, &[sample_row()]);
        let row = &report.rows[0];
        assert_eq!(row.metric("throughput"), Some(1.25e6));
        assert_eq!(row.metric("aborts.prevalidation_kill"), Some(1.0));
        assert_eq!(row.metric("aborts.write_write"), Some(0.0));
        assert_eq!(row.metric("commit_latency.count"), Some(2.0));
        assert_eq!(row.metric("commit_latency.mean"), Some(100.0));
        assert_eq!(row.metric("batch_sizes.max"), Some(17.0));
        assert_eq!(row.metric("atr_occupancy.samples"), Some(1.0));
        assert_eq!(row.metric("failed"), Some(0.0));
        assert_eq!(row.metric("txn_per_sec"), Some(0.0));
        assert_eq!(row.metric("latency_p50_us"), Some(0.0));
        assert_eq!(row.metric("latency_p99_us"), Some(0.0));
        assert_eq!(row.metric("faults.timeouts"), Some(0.0));
        assert_eq!(row.metric("faults.total"), Some(0.0));
        assert_eq!(row.metric("gts_stall.sum"), Some(7.0));
        assert_eq!(row.metric("poll_stall_cycles"), Some(55.0));
        // Version-GC rows are additive v3 and peak-valued for footprint.
        assert_eq!(row.metric("memory_footprint_bytes"), Some(8192.0));
        assert_eq!(row.metric("max_version_list_len"), Some(5.0));
        assert_eq!(row.metric("gc.reclaimed"), Some(9.0));
        assert_eq!(row.metric("gc.spilled"), Some(4.0));
        assert_eq!(row.metric("gc.pruned"), Some(3.0));
        assert_eq!(row.metric("gc.pinned_commits"), Some(1.0));
        assert_eq!(row.metric("aborts.snapshot_too_old"), Some(0.0));
        // Additive v3 rows: server-side stall summaries and the
        // per-commit GTS stall.
        assert_eq!(row.metric("server_stall.samples"), Some(1.0));
        assert_eq!(row.metric("server_stall.sum"), Some(11.0));
        assert_eq!(row.metric("gts_stall_ns"), Some(7.0 / 1000.0));
        assert_eq!(row.metric("no_such_metric"), None);
        // Every abort reason appears exactly once.
        for reason in AbortReason::ALL {
            let key = format!("aborts.{}", reason.key());
            assert_eq!(
                row.metrics.iter().filter(|(k, _)| *k == key).count(),
                1,
                "{key}"
            );
        }
    }

    #[test]
    fn service_rows_flatten_their_open_loop_metrics_additively() {
        use crate::{ClassLatency, ServiceStats};
        let plain = BenchReport::from_rows("loadgen", "quick", 1, &[sample_row()]);
        assert_eq!(plain.rows[0].metric("arrival_rate"), None);
        assert_eq!(plain.rows[0].metric("latency_p999_us"), Some(0.0));

        let mut row = sample_row();
        row.service = Some(ServiceStats {
            arrival_rate: 400.0,
            achieved_rate: 398.5,
            ok: 795,
            retry: 2,
            busy: 3,
            err: 0,
            inflight_max: 9,
            classes: vec![(
                "get".into(),
                ClassLatency {
                    count: 500,
                    p50_us: 120.0,
                    p99_us: 900.0,
                    p999_us: 2200.0,
                },
            )],
        });
        let report = BenchReport::from_rows("loadgen", "quick", 1, &[row]);
        let r = &report.rows[0];
        assert_eq!(r.metric("arrival_rate"), Some(400.0));
        assert_eq!(r.metric("achieved_rate"), Some(398.5));
        assert_eq!(r.metric("service.ok"), Some(795.0));
        assert_eq!(r.metric("service.busy"), Some(3.0));
        assert_eq!(r.metric("service.inflight_max"), Some(9.0));
        assert_eq!(r.metric("service.get.count"), Some(500.0));
        assert_eq!(r.metric("service.get.p999_us"), Some(2200.0));
        // The non-service metric set is unchanged: additive only.
        for (k, _) in &plain.rows[0].metrics {
            assert!(r.metric(k).is_some(), "{k} lost");
        }
        // And it survives the JSON round trip.
        let back = BenchReport::from_json(&crate::json::parse(&report.to_json().pretty()).unwrap())
            .unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::from_rows("table3", "paper", 0xC5_3A17, &[sample_row()]);
        report.threads = 8;
        let text = report.to_json().pretty();
        let back = BenchReport::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        // The fault config is part of the run's identity: it must survive the
        // round trip too.
        report.faults = Some("drop_req=0.1,dup_req=0.05".into());
        report.fault_seed = Some(0xFA_0175);
        let text = report.to_json().pretty();
        let back = BenchReport::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        // And so is the backend.
        report.backend = "service".into();
        let text = report.to_json().pretty();
        let back = BenchReport::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn reports_without_a_config_block_default_to_one_thread_on_sim() {
        let doc = parse(
            "{\"schema_version\":1,\"bench\":\"b\",\"scale\":\"quick\",\"seed\":1,\"rows\":[]}",
        )
        .unwrap();
        let report = BenchReport::from_json(&doc).unwrap();
        assert_eq!(report.threads, 1);
        assert_eq!(report.backend, "sim");
    }

    #[test]
    fn file_round_trip_and_deterministic_bytes() {
        let dir = std::env::temp_dir().join("csmv-bench-report-test");
        let path = dir.join("r.json");
        let report = BenchReport::from_rows("fig3", "quick", 1, &[sample_row()]);
        report.write_file(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        BenchReport::read_file(&path)
            .unwrap()
            .write_file(&path)
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_reports_are_rejected_with_context() {
        let err = BenchReport::from_json(&parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let doc = parse(
            "{\"schema_version\":1,\"bench\":\"b\",\"scale\":\"quick\",\"seed\":1,\
             \"rows\":[{\"system\":\"S\",\"x\":1,\"wall_clock\":false,\
             \"metrics\":{\"throughput\":\"fast\"}}]}",
        )
        .unwrap();
        let err = BenchReport::from_json(&doc).unwrap_err();
        assert!(err.contains("throughput"), "{err}");
    }
}

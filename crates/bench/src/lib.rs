//! # bench — the experiment harness
//!
//! The paper's evaluation (§IV) on the simulator, one sweep per workload:
//!
//! | target | reproduces |
//! |---|---|
//! | `bank_suite`  | Fig. 2a/2b, Fig. 4, Tables I–II — one Bank sweep over %ROT |
//! | `mc_suite`    | Fig. 3, Tables III–IV — one MemcachedGPU sweep over associativity |
//! | `table5`      | Table V — memory & abort rate vs versions per VBox |
//! | `multiserver` | extension (§V): Bank throughput vs commit-server count |
//!
//! plus `native_equiv` (simulator ↔ `csmv-native` equivalence lanes),
//! `loadgen` (open-loop driver for a live `csmv-service`) and `bench-gate`
//! (baseline comparison). Native and service *performance* is measured by
//! the repo benchmark (`BENCHMARK.json`, `benchmark/`), not here.
//!
//! The sim binaries share one command line ([`cli`]); `--quick` selects a
//! reduced geometry for smoke runs, the default is the paper-faithful
//! scale: 28 SMs, 64-thread blocks, 6 000 bank accounts, a 1 M-slot cache,
//! 99.8 % GETs.

#![forbid(unsafe_code)]

pub mod cli;
pub mod gate;
pub mod json;
pub mod report;

use gpu_sim::{AnalysisConfig, AnalysisStats, GpuConfig};
use stm_core::{MetricsReport, Phase, RunResult, TimeBreakdown};
use workloads::{BankConfig, BankSource, MemcachedConfig, MemcachedSource, Zipfian};

/// Experiment scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// SMs on the device (CSMV dedicates the last one to the server).
    pub sms: usize,
    /// Bank accounts.
    pub accounts: u64,
    /// Transactions per thread (Bank).
    pub bank_txs: usize,
    /// Cache slots (Memcached).
    pub capacity: u64,
    /// Transactions per thread (Memcached).
    pub mc_txs: usize,
    /// Versions per VBox for the MV STMs.
    pub versions: u64,
    /// RNG seed.
    pub seed: u64,
    /// Run every configuration under the analysis layer (race detector +
    /// protocol-invariant checkers) and report its counters. Slows the
    /// simulation down; results are unchanged (analysis never perturbs
    /// timing).
    pub analysis: bool,
    /// Override the CSMV ATR ring capacity (`--atr-cap`). Normally
    /// `None` (each run sizes its own ring); setting a tiny value degrades
    /// CSMV with spurious window aborts — used to prove `bench-gate`
    /// actually fails on a regression.
    pub atr_cap: Option<u64>,
    /// Deterministic fault-injection spec (`--faults`; comma-separated
    /// clauses, see `gpu_sim::fault::FaultSpec`). `None` runs fault-free.
    pub faults: Option<String>,
    /// Seed every fault-plan decision and the recovery jitter derive from
    /// (`--fault-seed`).
    pub fault_seed: u64,
}

impl Scale {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            sms: 28,
            accounts: 6_000,
            bank_txs: 6,
            capacity: 1 << 20,
            mc_txs: 12,
            versions: 8,
            seed: 0xC5_3A17,
            analysis: false,
            atr_cap: None,
            faults: None,
            fault_seed: 0xFA_0175,
        }
    }

    /// A reduced configuration for smoke tests.
    pub fn quick() -> Self {
        Self {
            sms: 6,
            accounts: 512,
            bank_txs: 3,
            capacity: 1 << 12,
            mc_txs: 6,
            versions: 8,
            seed: 0xC5_3A17,
            analysis: false,
            atr_cap: None,
            faults: None,
            fault_seed: 0xFA_0175,
        }
    }

    /// The fault plan the `faults` spec selects. Panics on a malformed spec:
    /// that is a configuration error, not a measurement.
    pub fn fault_plan(&self) -> Option<gpu_sim::fault::FaultPlan> {
        self.faults.as_ref().map(|spec| {
            let parsed = spec
                .parse()
                .unwrap_or_else(|e| panic!("bad fault spec '{spec}': {e}"));
            gpu_sim::fault::FaultPlan::new(self.fault_seed, parsed)
        })
    }

    /// The client recovery policy armed alongside fault injection: generous
    /// timeout × attempts (terminal abandonment of a batch on a *live* but
    /// slow server risks an unpublished commit timestamp; see DESIGN.md §11)
    /// plus seeded backoff jitter. Inert when no faults are injected, so
    /// fault-free runs behave exactly as before.
    pub fn recovery(&self) -> stm_core::RetryPolicy {
        if self.faults.is_none() {
            return stm_core::RetryPolicy::default();
        }
        stm_core::RetryPolicy {
            resp_timeout: Some(20_000),
            max_send_attempts: 16,
            retry_budget: None,
            backoff_base: 64,
            backoff_cap: 4096,
            jitter_seed: self.fault_seed ^ 0x5EED,
        }
    }

    /// Stall watchdog armed under fault injection, so an unsurvivable plan
    /// fails loudly instead of hanging the bench.
    pub fn fault_watchdog(&self) -> Option<u64> {
        self.faults.as_ref().map(|_| 4_000_000)
    }

    /// The analysis configuration the `analysis` knob selects.
    pub fn analysis_cfg(&self) -> AnalysisConfig {
        AnalysisConfig {
            races: self.analysis,
            invariants: self.analysis,
        }
    }

    fn gpu(&self) -> GpuConfig {
        GpuConfig {
            num_sms: self.sms,
            ..GpuConfig::default()
        }
    }
}

/// Latency summary for one operation class (`get`, `set`, `incr`,
/// `multi`) measured by the open-loop load generator, in microseconds
/// from *scheduled* arrival to reply (coordinated-omission-free).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLatency {
    /// Requests of this class that received a terminal reply.
    pub count: u64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
}

/// Counters an open-loop load-generator run against `csmv-service`
/// attaches to its row (schema v3; absent on every other backend).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// Offered load, requests per second (the schedule's fixed rate).
    pub arrival_rate: f64,
    /// Terminally-replied requests per second actually achieved.
    pub achieved_rate: f64,
    /// Requests answered with a committed result.
    pub ok: u64,
    /// Requests answered `-RETRY …` (terminal abort, taxonomy-keyed).
    pub retry: u64,
    /// Requests shed with `-BUSY …` (engine queue backpressure).
    pub busy: u64,
    /// Requests answered with any other error.
    pub err: u64,
    /// Peak concurrently-in-flight requests observed.
    pub inflight_max: u64,
    /// Per-operation-class latency summaries, in emission order.
    pub classes: Vec<(String, ClassLatency)>,
}

/// One measured configuration: everything the tables/figures print.
#[derive(Debug, Clone)]
pub struct Row {
    /// System label.
    pub system: String,
    /// Swept parameter value (%ROT or ways or versions).
    pub x: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Abort rate in percent.
    pub abort_pct: f64,
    /// Average total time per committed transaction, milliseconds.
    pub total_ms_per_tx: f64,
    /// Average wasted (aborted-attempt) time per committed tx, milliseconds.
    pub wasted_ms_per_tx: f64,
    /// Client-side per-phase breakdown (cycles).
    pub client_bd: TimeBreakdown,
    /// Server-side per-phase breakdown (cycles; CSMV only).
    pub server_bd: TimeBreakdown,
    /// Simulated duration in milliseconds.
    pub elapsed_ms: f64,
    /// Raw commit/abort counters.
    pub commits: u64,
    /// Raw abort count.
    pub aborts: u64,
    /// Transactions terminally failed by the recovery layer (fault
    /// injection only; 0 in healthy runs).
    pub failed: u64,
    /// Wall-clock committed transactions per second (`loadgen` rows and
    /// the CPU baseline; simulated rows report 0 — their `throughput` is
    /// cycle-derived).
    pub txn_per_sec: f64,
    /// Latency p50 in microseconds (`loadgen` rows; 0 for simulated rows,
    /// whose latency histograms are in cycles).
    pub latency_p50_us: f64,
    /// Latency p99 in microseconds (`loadgen` rows only).
    pub latency_p99_us: f64,
    /// Latency p99.9 in microseconds (`loadgen` rows only). Schema v3.
    pub latency_p999_us: f64,
    /// Open-loop service counters (loadgen rows only). Schema v3.
    pub service: Option<ServiceStats>,
    /// Analysis-layer counters, when [`Scale::analysis`] was on.
    pub analysis: Option<AnalysisStats>,
    /// True when *every* metric of the row is host timing (the CPU
    /// baseline): not reproducible, so `bench-gate` skips the row.
    pub wall_clock: bool,
    /// Structured observability harvested from the run (empty for
    /// wall-clock-measured systems).
    pub metrics: MetricsReport,
}

const CLOCK_GHZ: f64 = 1.58;

fn cycles_to_ms(c: u64) -> f64 {
    c as f64 / (CLOCK_GHZ * 1e6)
}

fn cycles_to_ms_f(c: f64) -> f64 {
    c / (CLOCK_GHZ * 1e6)
}

/// Build a [`Row`] from a simulated run (used directly by benches that drive
/// an STM themselves, e.g. `multiserver`).
pub fn row_from(system: &str, x: u64, res: &RunResult) -> Row {
    Row {
        system: system.to_string(),
        x,
        throughput: res.throughput(CLOCK_GHZ),
        abort_pct: res.abort_rate_pct(),
        total_ms_per_tx: cycles_to_ms_f(res.stats.total_cycles_per_tx()),
        wasted_ms_per_tx: cycles_to_ms_f(res.stats.wasted_cycles_per_tx()),
        client_bd: res.client_breakdown,
        server_bd: res.server_breakdown,
        elapsed_ms: cycles_to_ms(res.elapsed_cycles),
        commits: res.stats.commits(),
        aborts: res.stats.aborts(),
        failed: res.stats.failed,
        txn_per_sec: 0.0,
        latency_p50_us: 0.0,
        latency_p99_us: 0.0,
        latency_p999_us: 0.0,
        service: None,
        analysis: res.analysis.as_ref().map(|a| a.stats()),
        wall_clock: false,
        metrics: res.metrics.clone(),
    }
}

// ---------------------------------------------------------------------------
// Bank benchmark runners
// ---------------------------------------------------------------------------

/// CSMV on Bank at a given %ROT (any variant, any version count).
pub fn bank_csmv(scale: &Scale, rot_pct: u8, variant: csmv::CsmvVariant, versions: u64) -> Row {
    let bank = BankConfig {
        accounts: scale.accounts,
        ..BankConfig::paper(rot_pct)
    };
    let mut cfg = csmv::CsmvConfig {
        gpu: scale.gpu(),
        versions_per_box: versions,
        max_rs: 8,
        // Bank transfers write 2 items; small entries buy a deep ATR ring.
        max_ws: 2,
        record_history: false,
        variant,
        analysis: scale.analysis_cfg(),
        recovery: scale.recovery(),
        faults: scale.fault_plan(),
        ..Default::default()
    };
    if let Some(watchdog) = scale.fault_watchdog() {
        cfg.max_idle_cycles = Some(watchdog);
    }
    cfg.fit_atr_capacity();
    if let Some(cap) = scale.atr_cap {
        cfg.atr_capacity = cap;
    }
    let res = csmv::run(
        &cfg,
        |t| BankSource::new(&bank, scale.seed, t, scale.bank_txs),
        bank.accounts,
        |_| bank.initial_balance,
    );
    row_from(variant.name(), rot_pct as u64, &res)
}

/// JVSTM-GPU on Bank.
pub fn bank_jvstm_gpu(scale: &Scale, rot_pct: u8) -> Row {
    let bank = BankConfig {
        accounts: scale.accounts,
        ..BankConfig::paper(rot_pct)
    };
    let cfg = jvstm_gpu::JvstmGpuConfig {
        gpu: scale.gpu(),
        versions_per_box: scale.versions,
        max_rs: 8,
        max_ws: 8,
        atr_capacity: cfg_atr(scale),
        record_history: false,
        analysis: scale.analysis_cfg(),
        recovery: scale.recovery(),
        faults: scale.fault_plan(),
        max_idle_cycles: scale.fault_watchdog(),
        ..Default::default()
    };
    let res = jvstm_gpu::run(
        &cfg,
        |t| BankSource::new(&bank, scale.seed, t, scale.bank_txs),
        bank.accounts,
        |_| bank.initial_balance,
    );
    row_from("JVSTM-GPU", rot_pct as u64, &res)
}

fn cfg_atr(scale: &Scale) -> usize {
    // Append-only ATR sized to the worst case: every transaction commits.
    scale.sms * 2 * gpu_sim::WARP_LANES * scale.bank_txs.max(scale.mc_txs) + 64
}

/// PR-STM on Bank. The read-set capacity must cover a full balance scan.
pub fn bank_prstm(scale: &Scale, rot_pct: u8) -> Row {
    let bank = BankConfig {
        accounts: scale.accounts,
        ..BankConfig::paper(rot_pct)
    };
    let cfg = prstm::PrstmConfig {
        gpu: scale.gpu(),
        max_rs: scale.accounts as usize + 8,
        max_ws: 8,
        record_history: false,
        analysis: scale.analysis_cfg(),
        recovery: scale.recovery(),
        faults: scale.fault_plan(),
        max_idle_cycles: scale.fault_watchdog(),
        ..Default::default()
    };
    let res = prstm::run(
        &cfg,
        |t| BankSource::new(&bank, scale.seed, t, scale.bank_txs),
        bank.accounts,
        |_| bank.initial_balance,
    );
    row_from("PR-STM", rot_pct as u64, &res)
}

/// JVSTM on the host CPU (wall-clock measured).
pub fn bank_jvstm_cpu(scale: &Scale, rot_pct: u8) -> Row {
    let bank = BankConfig {
        accounts: scale.accounts,
        ..BankConfig::paper(rot_pct)
    };
    let cfg = jvstm_cpu::JvstmCpuConfig {
        threads: 28,
        record_history: false,
    };
    // Give each CPU thread the same per-thread quota as a GPU thread times
    // the thread-count ratio, so total work is comparable.
    let gpu_threads = scale.sms * 2 * gpu_sim::WARP_LANES;
    let txs = (scale.bank_txs * gpu_threads / cfg.threads).max(1);
    let res = jvstm_cpu::run(
        &cfg,
        |t| BankSource::new(&bank, scale.seed, t, txs),
        bank.accounts,
        |_| bank.initial_balance,
    );
    Row {
        system: "JVSTM (CPU)".into(),
        x: rot_pct as u64,
        throughput: res.throughput(),
        abort_pct: res.stats.abort_rate_pct(),
        total_ms_per_tx: res.stats.total_cycles_per_tx() / 1e6, // ns → ms
        wasted_ms_per_tx: res.stats.wasted_cycles_per_tx() / 1e6,
        client_bd: TimeBreakdown::default(),
        server_bd: TimeBreakdown::default(),
        elapsed_ms: res.elapsed.as_secs_f64() * 1e3,
        commits: res.stats.commits(),
        aborts: res.stats.aborts(),
        failed: 0,
        txn_per_sec: res.throughput(),
        latency_p50_us: 0.0,
        latency_p99_us: 0.0,
        latency_p999_us: 0.0,
        service: None,
        analysis: None, // the CPU baseline runs outside the simulator
        wall_clock: true,
        metrics: MetricsReport::default(),
    }
}

/// Per-worker transaction quota for a `native_equiv` lane: the same total
/// work as a GPU bank run at this scale, split over `clients` threads, so
/// every thread count checks the same amount of work.
pub fn native_txs(scale: &Scale, clients: usize) -> usize {
    let gpu_threads = scale.sms * 2 * gpu_sim::WARP_LANES;
    (scale.bank_txs * gpu_threads / clients.max(1)).max(1)
}

// ---------------------------------------------------------------------------
// Memcached benchmark runners
// ---------------------------------------------------------------------------

fn mc_cfg(scale: &Scale, ways: u64) -> MemcachedConfig {
    MemcachedConfig {
        capacity: scale.capacity,
        ..MemcachedConfig::paper(ways)
    }
}

/// Per-thread read-set bound for Memcached: a PUT may scan all key tags and
/// all LRU stamps.
fn mc_max_rs(ways: u64) -> usize {
    (2 * ways + 4) as usize
}

/// CSMV on Memcached at a given associativity.
pub fn mc_csmv(scale: &Scale, ways: u64, variant: csmv::CsmvVariant) -> Row {
    let mc = mc_cfg(scale, ways);
    let zipf = Zipfian::new(mc.capacity as usize, mc.zipf_s);
    let mut cfg = csmv::CsmvConfig {
        gpu: scale.gpu(),
        versions_per_box: 4,
        max_rs: mc_max_rs(ways),
        max_ws: 4,
        record_history: false,
        variant,
        analysis: scale.analysis_cfg(),
        recovery: scale.recovery(),
        faults: scale.fault_plan(),
        ..Default::default()
    };
    if let Some(watchdog) = scale.fault_watchdog() {
        cfg.max_idle_cycles = Some(watchdog);
    }
    cfg.fit_atr_capacity();
    if let Some(cap) = scale.atr_cap {
        cfg.atr_capacity = cap;
    }
    let res = csmv::run(
        &cfg,
        |t| MemcachedSource::new(&mc, zipf.clone(), scale.seed, t, scale.mc_txs),
        mc.num_items(),
        |item| init_mc_item(&mc, item),
    );
    row_from(variant.name(), ways, &res)
}

/// JVSTM-GPU on Memcached.
pub fn mc_jvstm_gpu(scale: &Scale, ways: u64) -> Row {
    let mc = mc_cfg(scale, ways);
    let zipf = Zipfian::new(mc.capacity as usize, mc.zipf_s);
    let cfg = jvstm_gpu::JvstmGpuConfig {
        gpu: scale.gpu(),
        versions_per_box: 4,
        max_rs: mc_max_rs(ways),
        max_ws: 4,
        atr_capacity: cfg_atr(scale),
        record_history: false,
        analysis: scale.analysis_cfg(),
        recovery: scale.recovery(),
        faults: scale.fault_plan(),
        max_idle_cycles: scale.fault_watchdog(),
        ..Default::default()
    };
    let res = jvstm_gpu::run(
        &cfg,
        |t| MemcachedSource::new(&mc, zipf.clone(), scale.seed, t, scale.mc_txs),
        mc.num_items(),
        |item| init_mc_item(&mc, item),
    );
    row_from("JVSTM-GPU", ways, &res)
}

/// PR-STM on Memcached.
pub fn mc_prstm(scale: &Scale, ways: u64) -> Row {
    let mc = mc_cfg(scale, ways);
    let zipf = Zipfian::new(mc.capacity as usize, mc.zipf_s);
    let cfg = prstm::PrstmConfig {
        gpu: scale.gpu(),
        max_rs: mc_max_rs(ways) + 2,
        max_ws: 4,
        record_history: false,
        analysis: scale.analysis_cfg(),
        recovery: scale.recovery(),
        faults: scale.fault_plan(),
        max_idle_cycles: scale.fault_watchdog(),
        ..Default::default()
    };
    let res = prstm::run(
        &cfg,
        |t| MemcachedSource::new(&mc, zipf.clone(), scale.seed, t, scale.mc_txs),
        mc.num_items(),
        |item| init_mc_item(&mc, item),
    );
    row_from("PR-STM", ways, &res)
}

/// Initial value of a Memcached transactional item (pre-populated cache).
fn init_mc_item(mc: &MemcachedConfig, item: u64) -> u64 {
    use workloads::memcached::{FIELDS_PER_SLOT, F_KEY, F_VALUE};
    let slot = item / FIELDS_PER_SLOT;
    let field = item % FIELDS_PER_SLOT;
    let set = slot / mc.ways;
    let way = slot % mc.ways;
    let key = set + mc.num_sets() * way;
    match field {
        f if f == F_KEY => MemcachedConfig::tag(key),
        f if f == F_VALUE => MemcachedConfig::initial_value(key) & 0xFFFF_FFFF,
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Table formatting
// ---------------------------------------------------------------------------

/// Render rows as an aligned text table with the given headers and a
/// per-row cell extractor.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Engineering-notation throughput.
pub fn fmt_tput(v: f64) -> String {
    format!("{v:.3e}")
}

/// Milliseconds with sensible precision.
pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else if v >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// Extract the paper's Table I/III columns from a row.
pub fn breakdown_cells(row: &Row, csmv_style: bool) -> Vec<String> {
    let bd = |p: Phase| cycles_to_ms(row.client_bd.phase(p) + row.server_bd.phase(p));
    let divergence =
        cycles_to_ms(row.client_bd.commit_divergence() + row.server_bd.commit_divergence());
    let total = cycles_to_ms(row.client_bd.commit_total() + row.server_bd.commit_total());
    let mut cells = vec![fmt_ms(total)];
    if csmv_style {
        cells.push(fmt_ms(bd(Phase::WaitServer)));
        cells.push(fmt_ms(bd(Phase::PreValidation)));
    }
    cells.push(fmt_ms(bd(Phase::Validation)));
    cells.push(fmt_ms(bd(Phase::RecordInsert)));
    cells.push(fmt_ms(bd(Phase::WriteBack)));
    cells.push(fmt_ms(divergence));
    cells
}

// ---------------------------------------------------------------------------
// Parallel cell execution
// ---------------------------------------------------------------------------

/// One independently runnable measurement: a closure producing a [`Row`].
///
/// Bench binaries describe their whole sweep as a flat list of cells and
/// hand it to [`run_cells`]. Each cell is a pure function of its captured
/// configuration — every simulated run is deterministic — so executing the
/// cells on several host threads changes wall-clock time only, never a
/// result.
pub type Cell<'a> = Box<dyn Fn() -> Row + Send + Sync + 'a>;

/// Map `f` over `items` on up to `threads` host threads, returning results
/// in item order regardless of how the OS schedules the workers.
///
/// Workers claim indices from a shared atomic counter, collect
/// `(index, result)` pairs, and the pairs are placed back by index — so the
/// output is identical for every thread count, which is what lets the CI
/// equivalence matrix compare `--threads 1` and `--threads 8` reports
/// byte for byte.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(i, item)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("bench worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// Execute every cell on up to `threads` host threads, preserving cell
/// order in the returned rows.
pub fn run_cells(threads: usize, cells: Vec<Cell<'_>>) -> Vec<Row> {
    par_map(threads, &cells, |_, cell| cell())
}

/// Print the analysis-layer summary line for a set of rows (no-op when the
/// rows were measured without analysis).
pub fn print_analysis_summary(rows: &[Row]) {
    let mut events = 0u64;
    let mut races = 0u64;
    let mut violations = 0u64;
    let mut any = false;
    for r in rows {
        if let Some(a) = r.analysis {
            any = true;
            events += a.events;
            races += a.races;
            violations += a.violations;
        }
    }
    if any {
        println!(
            "analysis: {events} memory events, {races} races, {violations} invariant violations"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysed_quick_bank_runs_are_clean() {
        let mut scale = Scale::quick();
        scale.analysis = true;
        for row in [
            bank_csmv(&scale, 50, csmv::CsmvVariant::Full, 8),
            bank_jvstm_gpu(&scale, 50),
            bank_prstm(&scale, 50),
        ] {
            let a = row.analysis.expect("analysis was on");
            assert!(a.events > 0, "{}", row.system);
            assert_eq!(a.races, 0, "{}", row.system);
            assert_eq!(a.violations, 0, "{}", row.system);
        }
    }

    #[test]
    fn quick_scale_bank_smoke() {
        let scale = Scale::quick();
        let r = bank_csmv(&scale, 50, csmv::CsmvVariant::Full, 8);
        assert!(r.throughput > 0.0);
        assert!(r.commits > 0);
        let r = bank_jvstm_gpu(&scale, 50);
        assert!(r.throughput > 0.0);
        let r = bank_prstm(&scale, 50);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn quick_scale_memcached_smoke() {
        let scale = Scale::quick();
        for f in [mc_csmv_full, mc_jvstm_gpu_wrap, mc_prstm_wrap] {
            let r = f(&scale, 4);
            assert!(r.throughput > 0.0, "{}", r.system);
            assert!(r.commits > 0);
        }
    }

    fn mc_csmv_full(s: &Scale, w: u64) -> Row {
        mc_csmv(s, w, csmv::CsmvVariant::Full)
    }
    fn mc_jvstm_gpu_wrap(s: &Scale, w: u64) -> Row {
        mc_jvstm_gpu(s, w)
    }
    fn mc_prstm_wrap(s: &Scale, w: u64) -> Row {
        mc_prstm(s, w)
    }

    #[test]
    fn par_map_preserves_item_order_for_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * v).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(threads, &items, |i, v| {
                assert_eq!(items[i], *v);
                v * v
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_cells_matches_sequential_execution() {
        let scale = Scale::quick();
        let cells: Vec<Cell> = vec![
            Box::new(|| bank_prstm(&scale, 10)),
            Box::new(|| bank_jvstm_gpu(&scale, 50)),
            Box::new(|| bank_prstm(&scale, 90)),
        ];
        let parallel = run_cells(4, cells);
        let sequential = [
            bank_prstm(&scale, 10),
            bank_jvstm_gpu(&scale, 50),
            bank_prstm(&scale, 90),
        ];
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(sequential.iter()) {
            assert_eq!(p.system, s.system);
            assert_eq!(p.x, s.x);
            assert_eq!(p.commits, s.commits);
            assert_eq!(p.aborts, s.aborts);
            assert_eq!(p.elapsed_ms, s.elapsed_ms);
        }
    }
}

//! `native-update`, `native-scan`, `native-contend`: closed loops through
//! `csmv_native::run`, measured from outside.
//!
//! A pass is one `run` call (five for the list, see [`Kind::segments`])
//! with every engine thread on one CPU: warm-up, then the measured windows
//! back to back. The workload's own source is wrapped so that it stops handing out
//! transactions when the last window closes, and each transaction is
//! wrapped so that the moment the engine drops it (commit) is clocked —
//! that gives a per-transaction latency and an exact count of completions
//! inside each window without touching the engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use csmv_native::{NativeConfig, NativeRunResult};
use stm_core::{AbortReason, CommitStats, MetricsReport, TxLogic, TxOp, TxSource};
use workloads::{BankConfig, BankSource, ListConfig, ListSource};

use crate::report::Outcome;
use crate::stats::Hist;
use crate::trace::{Tracer, SAMPLE_EVERY};
use crate::Plan;

/// Bank accounts for `native-update` and `native-scan`.
pub const ACCOUNTS: u64 = 4096;
/// Free list nodes each `native-contend` thread starts a `run` with.
const LIST_POOL: u64 = 200_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Bank, 0 % read-only: 2-read/2-write transfers.
    Update,
    /// Bank, 90 % read-only: each scan reads every account.
    Scan,
    /// Sorted-list set, 30 % contains, ~50 % aborts at two clients.
    Contend,
}

impl Kind {
    fn bank(self) -> BankConfig {
        BankConfig::small(ACCOUNTS, if self == Kind::Scan { 90 } else { 0 })
    }

    fn list(n: usize) -> ListConfig {
        ListConfig {
            key_range: 512,
            initial_nodes: 64,
            contains_pct: 30,
            pool_per_thread: LIST_POOL,
            threads: n,
        }
    }

    /// `run` calls the measured part of a pass is split into, each with
    /// its own warm-up and an equal share of the windows. One, except for
    /// the list, where every insert a thread is handed uses up a node of its
    /// pool and a thread whose pool is empty is handed removes instead: an
    /// hour-long run would end up timing operations on an empty list. Five
    /// runs of four windows use a quarter of each pool on the seed code.
    fn segments(self) -> usize {
        if self == Kind::Contend {
            5
        } else {
            1
        }
    }

    /// Transactions per thread in the untimed oracle pass: enough to cross
    /// every path, few enough that recording and checking the history
    /// stays near a second (a scan records 4096 reads).
    fn oracle_txs(self) -> usize {
        match self {
            Kind::Update => 40_000,
            Kind::Scan => 300,
            Kind::Contend => 10_000,
        }
    }
}

/// Set-up-only `run` calls after the measured one: at least 14, and as
/// many more, up to 199, as fit in [`SETUP_BUDGET`]. A Bank call is a
/// quarter of a millisecond, so its `setup_s` is a median over two hundred;
/// a list call builds 200 000 pool nodes and takes twenty.
const SETUP_CYCLES: std::ops::RangeInclusive<usize> = 14..=199;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// What the wrappers of one worker thread observed.
struct ThreadLog {
    /// Per window: hand-out → drop latency of the transactions dropped in
    /// it. Their count is the window's completions.
    lat: Mutex<Vec<Hist>>,
    /// Sampled `(born, dropped)` pairs from traced windows.
    spans: Mutex<Vec<(Instant, Instant)>>,
    handed: AtomicU64,
    reads: AtomicU64,
}

/// The time line of one `run` call, shared by its sources: the first
/// `next_tx` any thread makes starts the warm-up, the windows follow
/// back to back, and at the end of the last one the sources run dry.
struct RunLog {
    t0: OnceLock<Instant>,
    warmup: Duration,
    window: Duration,
    windows: usize,
    /// Odd windows are traced.
    traced: bool,
    threads: Vec<ThreadLog>,
}

impl RunLog {
    fn new(n: usize, warmup: Duration, window: Duration, windows: usize, traced: bool) -> Self {
        Self {
            t0: OnceLock::new(),
            warmup,
            window,
            windows,
            traced,
            threads: (0..n)
                .map(|_| ThreadLog {
                    lat: Mutex::new(vec![Hist::default(); windows]),
                    spans: Mutex::default(),
                    handed: AtomicU64::new(0),
                    reads: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The window `now` falls in, if any, given when the first opened.
    fn window_at(&self, opened: Instant, now: Instant) -> Option<usize> {
        crate::window_index(opened, self.window, self.windows, now)
    }
}

/// Hands out the inner source's transactions until the last window
/// closes, then `None` — which is how a duration-based run ends.
pub struct DeadlineSource<'a, S> {
    inner: S,
    run: &'a RunLog,
    me: &'a ThreadLog,
    /// When the first window opens and the last closes; fixed by the
    /// first `next_tx`.
    span: Option<(Instant, Instant)>,
    handed: u64,
}

impl<'a, S> DeadlineSource<'a, S> {
    fn new(inner: S, run: &'a RunLog, thread: usize) -> Self {
        Self {
            inner,
            run,
            me: &run.threads[thread],
            span: None,
            handed: 0,
        }
    }
}

impl<'a, S: TxSource> TxSource for DeadlineSource<'a, S> {
    type Tx = TimedTx<'a, S::Tx>;

    fn next_tx(&mut self) -> Option<Self::Tx> {
        let now = Instant::now();
        let (opened, closes) = *self.span.get_or_insert_with(|| {
            let opened = *self.run.t0.get_or_init(|| now) + self.run.warmup;
            (opened, opened + self.run.window * self.run.windows as u32)
        });
        let tx = if now < closes {
            self.inner.next_tx()
        } else {
            None
        };
        let Some(inner) = tx else {
            // Relaxed: read after the run joined this thread.
            self.me.handed.store(self.handed, Ordering::Relaxed);
            return None;
        };
        self.handed += 1;
        Some(TimedTx {
            inner,
            born: now,
            opened,
            reads: 0,
            sampled: self.run.traced && self.handed.is_multiple_of(SAMPLE_EVERY),
            run: self.run,
            log: self.me,
        })
    }
}

/// A transaction body that clocks its own lifetime: the engine drops a
/// body exactly once, when it reached its terminal outcome.
pub struct TimedTx<'a, T> {
    inner: T,
    born: Instant,
    opened: Instant,
    reads: u64,
    sampled: bool,
    run: &'a RunLog,
    log: &'a ThreadLog,
}

impl<T: TxLogic> TxLogic for TimedTx<'_, T> {
    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn next(&mut self, last_read: Option<u64>) -> TxOp {
        let op = self.inner.next(last_read);
        self.reads += u64::from(matches!(op, TxOp::Read { .. }));
        op
    }
}

impl<T> Drop for TimedTx<'_, T> {
    fn drop(&mut self) {
        let now = Instant::now();
        // Relaxed: a statistic, read after the run joined this thread.
        self.log.reads.fetch_add(self.reads, Ordering::Relaxed);
        let Some(window) = self.run.window_at(self.opened, now) else {
            return;
        };
        if let Ok(mut lat) = self.log.lat.lock() {
            lat[window].record((now - self.born).as_nanos() as u64);
        }
        if self.sampled && window % 2 == 1 {
            if let Ok(mut spans) = self.log.spans.lock() {
                spans.push((self.born, now));
            }
        }
    }
}

/// One `run` call as seen from outside.
struct Measured {
    result: NativeRunResult,
    /// Per window: completions inside it, and their latency.
    windows: Vec<Hist>,
    handed: u64,
    /// The most any one thread was handed.
    busiest: u64,
    reads: u64,
    /// Wall time of the call outside warm-up and windows: store and
    /// thread construction before the first `next_tx`, drain and join
    /// after the last window, and collecting the final state.
    setup: Duration,
}

fn engine_config(n: usize, load: Duration) -> NativeConfig {
    NativeConfig {
        client_threads: n,
        server_threads: 1,
        record_history: false,
        // The watchdog must never cut a run short.
        max_run: load + Duration::from_secs(60),
        ..Default::default()
    }
}

fn measure(kind: Kind, seed: u64, log: &RunLog, tracer: Option<&Tracer>) -> Measured {
    let n = log.threads.len();
    let load = log.warmup + log.window * log.windows as u32;
    let cfg = engine_config(n, load);
    let called = Instant::now();
    let result = match kind {
        Kind::Update | Kind::Scan => {
            let bank = kind.bank();
            csmv_native::run(
                &cfg,
                |t| DeadlineSource::new(BankSource::new(&bank, seed, t, usize::MAX), log, t),
                bank.accounts,
                |_| bank.initial_balance,
            )
        }
        Kind::Contend => {
            let list = Kind::list(n);
            let init = list.initial_state();
            csmv_native::run(
                &cfg,
                |t| DeadlineSource::new(ListSource::new(&list, seed, t, usize::MAX), log, t),
                list.num_items(),
                |item| *init.get(&item).unwrap_or(&0),
            )
        }
    }
    .expect("the benchmark's engine config is valid");
    let returned = Instant::now();

    let started = *log.t0.get().unwrap_or(&called);
    let mut windows = vec![Hist::default(); log.windows];
    let mut handed = 0;
    let mut busiest = 0;
    let mut reads = 0;
    for t in &log.threads {
        let lat = t.lat.lock().expect("wrappers do not panic under the lock");
        windows
            .iter_mut()
            .zip(lat.iter())
            .for_each(|(w, l)| w.merge(l));
        handed += t.handed.load(Ordering::Relaxed);
        busiest = busiest.max(t.handed.load(Ordering::Relaxed));
        reads += t.reads.load(Ordering::Relaxed);
    }
    if let Some(tracer) = tracer {
        let root = tracer.record(
            0,
            "run",
            called,
            returned,
            &[
                ("setup", called, started),
                ("load", started, started + load),
                ("join", started + load, returned),
            ],
        );
        for t in &log.threads {
            for &(born, dropped) in t.spans.lock().expect("as above").iter() {
                tracer.record(root, "tx", born, dropped, &[]);
            }
        }
    }
    Measured {
        result,
        windows,
        handed,
        busiest,
        reads,
        setup: (returned - called).saturating_sub(load),
    }
}

/// Bank gate: money is conserved and every update commit took exactly one
/// timestamp.
pub fn check_bank(
    final_state: &HashMap<u64, u64>,
    expected_total: u64,
    gts: u64,
    update_commits: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let total: u64 = final_state.values().sum();
    if total != expected_total {
        problems.push(format!("bank total {total} != {expected_total}"));
    }
    if gts != update_commits {
        problems.push(format!("gts {gts} != update commits {update_commits}"));
    }
    problems
}

/// List gate: the chain from the head sentinel reaches the tail sentinel
/// through strictly increasing keys (which also rules out a cycle, so the
/// walk terminates).
pub fn check_list(final_state: &HashMap<u64, u64>, num_nodes: u64) -> Vec<String> {
    let field = |item: u64| final_state.get(&item).copied().unwrap_or(0);
    let mut node = field(ListConfig::next_item(0));
    let mut last_key = 0;
    while node != 1 {
        if node == 0 || node >= num_nodes {
            return vec![format!("list chain leaves the node table at node {node}")];
        }
        let key = field(ListConfig::key_item(node));
        if key <= last_key {
            return vec![format!("list keys not increasing: {key} after {last_key}")];
        }
        last_key = key;
        node = field(ListConfig::next_item(node));
    }
    Vec::new()
}

fn check_run(kind: Kind, n: usize, m: &Measured) -> Vec<String> {
    let stats = &m.result.stats;
    let mut problems = match kind {
        Kind::Update | Kind::Scan => check_bank(
            &m.result.final_state,
            kind.bank().total_balance(),
            m.result.gts,
            stats.update_commits,
        ),
        Kind::Contend => {
            let list = Kind::list(n);
            let mut problems = check_list(&m.result.final_state, list.num_nodes());
            // Half of what is not a `contains` is an insert.
            let inserts = m.busiest * u64::from(100 - list.contains_pct) / 200;
            if inserts >= list.pool_per_thread {
                problems.push(format!(
                    "a thread was handed about {inserts} inserts from a pool of {}: \
                     the list ran out of nodes and the run timed removes from an empty list",
                    list.pool_per_thread
                ));
            }
            problems
        }
    };
    if stats.commits() + stats.failed != m.handed {
        problems.push(format!(
            "{} handed out but {} committed + {} failed",
            m.handed,
            stats.commits(),
            stats.failed
        ));
    }
    problems
}

/// Per-layer readings of the `CommitStats`/`MetricsReport` an engine run
/// returns; shared with the service workloads, whose `serve` call returns
/// the same pair.
pub fn push_engine_layers(out: &mut Outcome, stats: &CommitStats, m: &MetricsReport) {
    let commits = stats.commits().max(1) as f64;
    let per_commit = |v: f64| v / commits;
    let attempts = (stats.commits() + stats.aborts()).max(1) as f64;
    out.push(
        "worker.commit_per_attempt",
        stats.commits() as f64 / attempts,
    );
    out.push(
        "worker.useful_ns_per_commit",
        per_commit(stats.useful_cycles as f64),
    );
    out.push(
        "worker.wasted_ns_per_commit",
        per_commit(stats.wasted_cycles as f64),
    );
    // Series keep at most 65 536 samples; mean × count restores the total.
    let total = |s: &stm_core::Series| s.mean() * s.len() as f64;
    out.push(
        "worker.gts_stall_ns_per_commit",
        per_commit(total(&m.gts_stall)),
    );
    out.push("worker.batch_mean", m.batch_sizes.mean());
    out.push(
        "worker.spec_exec_per_commit",
        per_commit(m.pipeline.spec_executed as f64),
    );
    out.push(
        "worker.spec_squash_ratio",
        m.pipeline.spec_squashed as f64 / m.pipeline.spec_executed.max(1) as f64,
    );
    let named = [
        ("worker.abort.read_validation", AbortReason::ReadValidation),
        ("worker.abort.write_write", AbortReason::WriteWrite),
        (
            "worker.abort.prevalidation_kill",
            AbortReason::PreValidationKill,
        ),
        ("worker.abort.snapshot_too_old", AbortReason::SnapshotTooOld),
        (
            "worker.abort.version_overflow",
            AbortReason::VersionOverflow,
        ),
    ];
    let mut other = m.aborts.total();
    for (name, reason) in named {
        out.push(name, per_commit(m.aborts.count(reason) as f64));
        other -= m.aborts.count(reason);
    }
    out.push("worker.abort.other", per_commit(other as f64));
    out.push(
        "server.stall_ns_per_commit",
        per_commit(total(&m.server_stall)),
    );
    out.push("atr.occupancy_mean", m.atr_occupancy.mean());
    out.push("atr.occupancy_max", m.atr_occupancy.max() as f64);
    out.push(
        "store.gc_reclaimed_per_commit",
        per_commit(m.gc.versions_reclaimed as f64),
    );
    out.push(
        "store.gc_spilled_per_commit",
        per_commit(m.gc.versions_spilled as f64),
    );
    out.push(
        "store.max_version_list_len",
        m.gc.max_version_list_len as f64,
    );
    out.push("store.footprint_peak_bytes", m.footprint.max() as f64);
}

/// The untimed oracle pass: a count-bounded run with history recording on,
/// checked by `stm_core::check_history` inside `run_checked`.
fn oracle(kind: Kind, plan: &Plan) -> Vec<String> {
    let txs = ((kind.oracle_txs() as f64 * plan.oracle_scale) as usize).max(50);
    let cfg = engine_config(plan.n, Duration::from_secs(60));
    let seed = plan.seed ^ 0x0AC1E;
    let checked = match kind {
        Kind::Update | Kind::Scan => {
            let bank = kind.bank();
            csmv_native::run_checked(
                &cfg,
                |t| BankSource::new(&bank, seed, t, txs),
                bank.accounts,
                |_| bank.initial_balance,
            )
        }
        Kind::Contend => {
            let list = Kind::list(plan.n);
            let init = list.initial_state();
            csmv_native::run_checked(
                &cfg,
                |t| ListSource::new(&list, seed, t, txs),
                list.num_items(),
                |item| *init.get(&item).unwrap_or(&0),
            )
        }
    };
    match checked {
        Ok(r) if r.stats.commits() as usize == txs * plan.n => Vec::new(),
        Ok(r) => vec![format!(
            "oracle pass committed {} of {} transactions",
            r.stats.commits(),
            txs * plan.n
        )],
        Err(e) => vec![format!("oracle pass: {e}")],
    }
}

/// Run one native workload: the `run` call (five for the list) holding
/// the warm-up and the windows, the gates on its result, the set-up-only
/// calls, then the oracle pass.
pub fn run(kind: Kind, plan: &Plan, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    // The whole engine on one CPU (see `pin`).
    crate::pin::system();
    let segments = kind.segments();
    let warmup = plan.warmup / segments as u32;
    let secs = plan.window.as_secs_f64();
    let mut tps_by_parity = [Vec::new(), Vec::new()];
    for segment in 0..segments {
        let windows = plan.windows / segments;
        let log = RunLog::new(plan.n, warmup, plan.window, windows, plan.trace);
        let m = measure(kind, plan.seed + ((segment as u64) << 32), &log, tracer);
        out.problems.extend(check_run(kind, plan.n, &m));
        for (w, lat) in m.windows.iter().enumerate() {
            let tps = lat.count() as f64 / secs;
            tps_by_parity[w % 2].push(tps);
            out.push("commit_tps", tps);
            out.push("p50_us", lat.quantile(0.5) / 1e3);
            out.push("p90_us", lat.quantile(0.9) / 1e3);
        }
        out.push("setup_s", m.setup.as_secs_f64());
        let load = (warmup + plan.window * windows as u32).as_secs_f64();
        out.push("store.reads_per_s", m.reads as f64 / load);
        push_engine_layers(&mut out, &m.result.stats, &m.result.metrics);
        out.attempted += m.handed;
        out.failed += m.result.stats.failed;
    }
    // Set-up-only cycles: `run` calls whose sources are dry from the start.
    let cycling = Instant::now();
    for cycle in 0..*SETUP_CYCLES.end() {
        if cycle >= *SETUP_CYCLES.start() && cycling.elapsed() > SETUP_BUDGET {
            break;
        }
        let dry = RunLog::new(plan.n, Duration::ZERO, Duration::ZERO, 0, false);
        let d = measure(kind, plan.seed + 1 + cycle as u64, &dry, None);
        out.problems.extend(check_run(kind, plan.n, &d));
        out.push("setup_s", d.setup.as_secs_f64());
    }
    if plan.trace {
        let [untraced, traced] = &tps_by_parity;
        out.set(
            "trace.overhead_ratio",
            crate::stats::median(traced) / crate::stats::median(untraced),
        );
    }
    crate::close_measurement(&mut out, "commit_tps");
    out.problems.extend(oracle(kind, plan));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source of no-op read-only transactions, `quota` of them.
    struct Noop(usize);
    struct NoopTx;
    impl TxLogic for NoopTx {
        fn is_read_only(&self) -> bool {
            true
        }
        fn reset(&mut self) {}
        fn next(&mut self, _: Option<u64>) -> TxOp {
            TxOp::Finish
        }
    }
    impl TxSource for Noop {
        type Tx = NoopTx;
        fn next_tx(&mut self) -> Option<NoopTx> {
            self.0 = self.0.checked_sub(1)?;
            Some(NoopTx)
        }
    }

    /// One thread, no warm-up, two windows of `window` each.
    fn run_log(window: Duration) -> RunLog {
        RunLog::new(1, Duration::ZERO, window, 2, false)
    }

    fn clocked(log: &RunLog) -> Vec<u64> {
        let lat = log.threads[0].lat.lock().unwrap();
        lat.iter().map(Hist::count).collect()
    }

    #[test]
    fn deadline_source_stops_at_the_deadline_and_counts_what_it_handed_out() {
        let log = run_log(Duration::from_millis(15));
        let mut src = DeadlineSource::new(Noop(usize::MAX), &log, 0);
        let mut handed = 0u64;
        let began = Instant::now();
        while let Some(tx) = src.next_tx() {
            handed += 1;
            drop(tx);
        }
        // Two windows of 15 ms.
        assert!(began.elapsed() >= Duration::from_millis(30));
        // It stays stopped, and reported exactly what it handed out.
        assert!(src.next_tx().is_none());
        assert_eq!(log.threads[0].handed.load(Ordering::Relaxed), handed);
        // Every body was clocked once, in one of the two windows (the
        // last may have been dropped just after the second closed).
        let per_window = clocked(&log);
        let total: u64 = per_window.iter().sum();
        assert!(per_window.iter().all(|&c| c > 0), "{per_window:?}");
        assert!(
            total == handed || total + 1 == handed,
            "{total} of {handed}"
        );
    }

    #[test]
    fn deadline_source_also_stops_when_the_inner_source_runs_dry() {
        let log = run_log(Duration::from_secs(3600));
        let mut src = DeadlineSource::new(Noop(3), &log, 0);
        assert_eq!(std::iter::from_fn(|| src.next_tx()).count(), 3);
        assert_eq!(log.threads[0].handed.load(Ordering::Relaxed), 3);
        assert_eq!(clocked(&log), [3, 0]);
    }

    #[test]
    fn a_completion_is_counted_in_the_window_it_happens_in_or_not_at_all() {
        let log = run_log(Duration::from_millis(20));
        let mut src = DeadlineSource::new(Noop(2), &log, 0);
        let (second, late) = (src.next_tx().unwrap(), src.next_tx().unwrap());
        std::thread::sleep(Duration::from_millis(25));
        drop(second);
        std::thread::sleep(Duration::from_millis(20));
        drop(late);
        assert_eq!(clocked(&log), [0, 1]);
        // During a warm-up nothing is counted.
        let warm = RunLog::new(
            1,
            Duration::from_secs(3600),
            Duration::from_secs(1),
            1,
            false,
        );
        let mut src = DeadlineSource::new(Noop(1), &warm, 0);
        drop(src.next_tx());
        assert_eq!(clocked(&warm), [0]);
    }

    #[test]
    fn bank_gate_catches_a_total_that_is_off_by_one() {
        let state: HashMap<u64, u64> = (0..4).map(|i| (i, 1000)).collect();
        assert!(check_bank(&state, 4000, 7, 7).is_empty());
        let off = check_bank(&state, 4001, 7, 7);
        assert_eq!(off, ["bank total 4000 != 4001"]);
        assert_eq!(
            check_bank(&state, 4000, 8, 7),
            ["gts 8 != update commits 7"]
        );
        // The violation reaches the process exit code.
        let mut out = Outcome::default();
        out.problems = off;
        assert_ne!(out.exit_code(), 0);
    }

    #[test]
    fn list_gate_accepts_the_initial_chain_and_rejects_disorder() {
        let list = Kind::list(2);
        let mut state = list.initial_state();
        assert!(check_list(&state, list.num_nodes()).is_empty());
        // Swap two keys: still linked, no longer sorted.
        let (a, b) = (ListConfig::key_item(2), ListConfig::key_item(3));
        let (ka, kb) = (state[&a], state[&b]);
        state.insert(a, kb);
        state.insert(b, ka);
        assert!(check_list(&state, list.num_nodes())[0].contains("not increasing"));
        // Point a node back at itself: the walk must terminate.
        let mut looped = list.initial_state();
        looped.insert(ListConfig::next_item(5), 5);
        assert!(check_list(&looped, list.num_nodes())[0].contains("not increasing"));
        // Point a node outside the table.
        let mut torn = list.initial_state();
        torn.insert(ListConfig::next_item(5), list.num_nodes());
        assert!(check_list(&torn, list.num_nodes())[0].contains("leaves the node table"));
    }
}

//! # csmv-native — the CSMV commit protocol on real OS threads
//!
//! The second execution backend of this repo: where `crates/csmv` runs the
//! client–server protocol inside the `gpu-sim` discrete-event simulator
//! (reporting simulated cycles), this crate runs the *same protocol* on
//! host threads and reports wall-clock throughput — a pool of workers
//! ([`worker`]) that each execute a batch, validate it against the shared
//! ATR and reserve its commit timestamps in place ([`validator`]), and
//! write it back in GTS order: batched ATR inserts and client-side
//! write-back exactly as the paper describes (§III), with the server role
//! co-located in the committing thread because a CPU host has no on-chip
//! memory for a dedicated server to keep the ATR in (DESIGN.md §13).
//!
//! Three properties tie the backends together:
//!
//! * **Shared transitions.** Workers and validators drive every protocol
//!   decision through the pure [`csmv::steps`] functions — the same ones
//!   the simulator warps and the `csmv-model` model checker use — so the
//!   executions cannot silently drift.
//! * **Shared oracle.** Every run records a commit history checked by
//!   [`stm_core::check_history`] (opacity + validity-at-commit), exactly
//!   as `tests/cross_stm.rs` does for the simulator.
//! * **Shared workloads.** Transaction bodies are `stm_core::TxLogic`
//!   state machines, so bank/list runs are the same seeded workload on
//!   either backend.
//!
//! Determinism differs from the simulator: the simulator's scheduler makes
//! whole runs bit-reproducible, while native runs are only *history-sound*
//! — commit order depends on OS scheduling, so tests assert semantic
//! equivalence (oracle-clean histories, conserved invariants, final-state
//! agreement on commutative workloads) instead of bit-equality.

#![forbid(unsafe_code)]

mod atr;
mod engine;
mod pool;
mod store;
mod validator;
mod worker;

use std::collections::HashMap;
use std::time::Duration;

use stm_core::history::{HistoryError, TxRecord};
use stm_core::metrics::MetricsReport;
use stm_core::stats::CommitStats;
use stm_core::TxSource;

pub use engine::{Completion, CompletionSink, NativeEngine, Refused, Submission, SubmitError};

/// Configuration of a native run.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Worker threads. Each executes, validates, reserves and writes back
    /// its own batches.
    pub client_threads: usize,
    /// Read by nothing: there are no commit-server threads, every worker
    /// validates and reserves in place. The field stays only because
    /// `benchmark/` sets it and a PR that claims a gain may not edit the
    /// benchmark; a `[benchmark]` PR removes it (ROADMAP item 1c).
    pub server_threads: usize,
    /// Versions retained per item (the store's ring depth).
    pub versions_per_box: usize,
    /// ATR ring capacity (entries resident for validation).
    pub atr_capacity: u64,
    /// Largest write-set an ATR entry can hold: a transaction writing more
    /// distinct items fails terminally with `AtrWindowOverflow`.
    pub max_ws: usize,
    /// Transactions a worker executes and commits per batch (1..=32).
    /// A worker holds at most one batch's reservation at a time, and
    /// executes nothing while that batch awaits its GTS turn.
    pub max_batch: usize,
    /// Jobs the engine's intake queues per worker (the backpressure
    /// bound is `channel_depth × client_threads`); a closed-loop
    /// [`run`] has no intake and ignores it. The default is one
    /// connection's pipeline of `csmv-service`, which gives the rule: no
    /// more pipelining connections than workers ⇒ nothing is ever shed.
    pub channel_depth: usize,
    /// Reader-snapshot registry slots (active-reader epochs the version GC
    /// must respect). Each worker round holds one slot while it executes,
    /// and each pinned long reader holds one across retries; a full table
    /// degrades readers to unprotected (pre-GC) behaviour, never blocks
    /// them. 0 disables reader protection and snapshot pinning entirely.
    pub reader_slots: usize,
    /// Record per-transaction histories for the correctness oracle.
    pub record_history: bool,
    /// Aborted attempts per transaction before it is failed terminally with
    /// `RetryBudgetExhausted`; `None` retries forever. A pinned read-only
    /// transaction's aborts are not charged against it.
    pub retry_budget: Option<u32>,
    /// Hard wall-clock watchdog: every wait in the system re-checks this
    /// deadline, so `run` always joins every thread in bounded time.
    pub max_run: Duration,
}

impl Default for NativeConfig {
    fn default() -> Self {
        Self {
            client_threads: 8,
            server_threads: 2,
            versions_per_box: 8,
            atr_capacity: 4096,
            max_ws: 16,
            max_batch: 8,
            channel_depth: 128,
            reader_slots: 64,
            record_history: true,
            retry_budget: None,
            max_run: Duration::from_secs(30),
        }
    }
}

/// Why a [`NativeConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeConfigError {
    /// `client_threads` must be at least 1.
    NoClients,
    /// `versions_per_box` must be at least 1.
    NoVersions,
    /// `atr_capacity` must be at least 1.
    NoAtrCapacity,
    /// `max_ws` must be at least 1.
    NoWsCapacity,
    /// `max_batch` must be in `1..=32` (pre-validation uses a 32-lane
    /// mask, like a warp).
    BadBatch,
    /// `channel_depth` must be at least 1.
    NoChannelDepth,
}

impl std::fmt::Display for NativeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeConfigError::NoClients => write!(f, "client_threads must be >= 1"),
            NativeConfigError::NoVersions => write!(f, "versions_per_box must be >= 1"),
            NativeConfigError::NoAtrCapacity => write!(f, "atr_capacity must be >= 1"),
            NativeConfigError::NoWsCapacity => write!(f, "max_ws must be >= 1"),
            NativeConfigError::BadBatch => write!(f, "max_batch must be in 1..=32"),
            NativeConfigError::NoChannelDepth => write!(f, "channel_depth must be >= 1"),
        }
    }
}

impl std::error::Error for NativeConfigError {}

impl NativeConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), NativeConfigError> {
        if self.client_threads == 0 {
            return Err(NativeConfigError::NoClients);
        }
        if self.versions_per_box == 0 {
            return Err(NativeConfigError::NoVersions);
        }
        if self.atr_capacity == 0 {
            return Err(NativeConfigError::NoAtrCapacity);
        }
        if self.max_ws == 0 {
            return Err(NativeConfigError::NoWsCapacity);
        }
        if self.max_batch == 0 || self.max_batch > 32 {
            return Err(NativeConfigError::BadBatch);
        }
        if self.channel_depth == 0 {
            return Err(NativeConfigError::NoChannelDepth);
        }
        Ok(())
    }
}

/// Errors out of [`run_checked`].
#[derive(Debug)]
pub enum NativeRunError {
    /// The configuration was rejected.
    Config(NativeConfigError),
    /// The committed history failed the opacity oracle.
    History(HistoryError),
}

impl std::fmt::Display for NativeRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeRunError::Config(e) => write!(f, "invalid native config: {e}"),
            NativeRunError::History(e) => write!(f, "history violation: {e}"),
        }
    }
}

impl std::error::Error for NativeRunError {}

impl From<NativeConfigError> for NativeRunError {
    fn from(e: NativeConfigError) -> Self {
        NativeRunError::Config(e)
    }
}

/// Outcome of a native run (wall-clock based, like `jvstm-cpu`).
#[derive(Debug, Default)]
pub struct NativeRunResult {
    /// Aggregated commit/abort/failure counters. `useful_cycles` /
    /// `wasted_cycles` hold nanoseconds on this backend.
    pub stats: CommitStats,
    /// Committed-transaction records (empty unless `record_history`).
    pub records: Vec<TxRecord>,
    /// Merged worker metrics; times in nanoseconds.
    pub metrics: MetricsReport,
    /// The final committed value of every item.
    pub final_state: HashMap<u64, u64>,
    /// Final Global Timestamp (equals committed update count when no
    /// granted batch was abandoned).
    pub gts: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl NativeRunResult {
    /// Committed transactions per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.stats.commits() as f64 / secs
        }
    }
}

/// Run a workload to completion on the native backend.
///
/// `make_source(t)` builds worker `t`'s transaction source; `initial(i)`
/// the starting value of item `i` (items `0..num_items`). The call joins
/// every spawned thread before returning — in bounded time, because every
/// wait in the system (in-flight ATR entries, GTS turns) re-checks the
/// `max_run` deadline.
pub fn run<S, F>(
    cfg: &NativeConfig,
    make_source: F,
    num_items: u64,
    initial: impl FnMut(u64) -> u64,
) -> Result<NativeRunResult, NativeConfigError>
where
    S: TxSource + Send,
    S::Tx: Send,
    F: Fn(usize) -> S + Sync,
{
    let (shared, workers) = pool::build(cfg, num_items, initial)?;
    let outputs: Vec<worker::WorkerOutput> = std::thread::scope(|scope| {
        let workers: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(wid, w)| {
                let make_source = &make_source;
                scope.spawn(move || w.run(make_source(wid)))
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("native worker panicked"))
            .collect()
    });
    Ok(shared.collect(outputs))
}

/// Apply the opacity oracle ([`stm_core::check_history`]: opacity +
/// validity-at-commit) to a finished run's recorded history.
pub(crate) fn checked(
    result: NativeRunResult,
    initial: &HashMap<u64, u64>,
) -> Result<NativeRunResult, NativeRunError> {
    stm_core::check_history(&result.records, initial, true).map_err(NativeRunError::History)?;
    Ok(result)
}

/// [`run`], then validate the recorded history with
/// [`stm_core::check_history`] (opacity + validity-at-commit), the same
/// oracle `tests/cross_stm.rs` applies to the simulator.
pub fn run_checked<S, F>(
    cfg: &NativeConfig,
    make_source: F,
    num_items: u64,
    mut initial: impl FnMut(u64) -> u64,
) -> Result<NativeRunResult, NativeRunError>
where
    S: TxSource + Send,
    S::Tx: Send,
    F: Fn(usize) -> S + Sync,
{
    let mut cfg = cfg.clone();
    cfg.record_history = true;
    let init: HashMap<u64, u64> = (0..num_items).map(|i| (i, initial(i))).collect();
    let result = run(&cfg, make_source, num_items, |i| {
        *init.get(&i).unwrap_or(&0)
    })?;
    checked(result, &init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::{AbortReason, TxLogic, TxOp};

    /// Writes `value` to each of `items`.
    struct WriteAll {
        items: Vec<u64>,
        value: u64,
        next: usize,
    }

    impl TxLogic for WriteAll {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.next = 0;
        }
        fn next(&mut self, _last: Option<u64>) -> TxOp {
            let Some(&item) = self.items.get(self.next) else {
                return TxOp::Finish;
            };
            self.next += 1;
            TxOp::Write {
                item,
                value: self.value,
            }
        }
    }

    struct Txs(Vec<WriteAll>);

    impl TxSource for Txs {
        type Tx = WriteAll;
        fn next_tx(&mut self) -> Option<WriteAll> {
            self.0.pop()
        }
    }

    #[test]
    fn a_write_set_over_the_entry_capacity_fails_and_inserts_nothing() {
        let cfg = NativeConfig {
            client_threads: 1,
            max_ws: 2,
            ..NativeConfig::default()
        };
        let write = |items: &[u64], value| WriteAll {
            items: items.to_vec(),
            value,
            next: 0,
        };
        let res = run_checked(
            &cfg,
            |_| Txs(vec![write(&[0, 1, 2], 7), write(&[3, 4], 9)]),
            8,
            |_| 0,
        )
        .expect("the committed history is clean");
        assert_eq!(
            res.stats.update_commits, 1,
            "the 2-write transaction commits"
        );
        assert_eq!(res.stats.failed, 1, "the 3-write transaction fails");
        assert_eq!(res.metrics.aborts.count(AbortReason::AtrWindowOverflow), 1);
        assert_eq!(res.gts, 1);
        let state: Vec<u64> = (0..5).map(|i| res.final_state[&i]).collect();
        assert_eq!(state, [0, 0, 0, 9, 9]);
    }

    #[test]
    fn config_validation_catches_every_zero() {
        let ok = NativeConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (
                NativeConfig {
                    client_threads: 0,
                    ..ok.clone()
                },
                NativeConfigError::NoClients,
            ),
            (
                NativeConfig {
                    versions_per_box: 0,
                    ..ok.clone()
                },
                NativeConfigError::NoVersions,
            ),
            (
                NativeConfig {
                    atr_capacity: 0,
                    ..ok.clone()
                },
                NativeConfigError::NoAtrCapacity,
            ),
            (
                NativeConfig {
                    max_ws: 0,
                    ..ok.clone()
                },
                NativeConfigError::NoWsCapacity,
            ),
            (
                NativeConfig {
                    max_batch: 0,
                    ..ok.clone()
                },
                NativeConfigError::BadBatch,
            ),
            (
                NativeConfig {
                    max_batch: 33,
                    ..ok.clone()
                },
                NativeConfigError::BadBatch,
            ),
            (
                NativeConfig {
                    channel_depth: 0,
                    ..ok.clone()
                },
                NativeConfigError::NoChannelDepth,
            ),
        ];
        for (cfg, err) in cases {
            assert_eq!(cfg.validate(), Err(err));
        }
    }
}

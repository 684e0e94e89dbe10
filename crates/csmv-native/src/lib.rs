//! # csmv-native — the CSMV commit protocol on real OS threads
//!
//! The second execution backend of this repo: where `crates/csmv` runs the
//! client–server protocol inside the `gpu-sim` discrete-event simulator
//! (reporting simulated cycles), this crate runs the *same protocol* on
//! host threads and reports wall-clock throughput — a pool of client
//! workers ([`worker`]) feeding hash-partitioned commit-server threads
//! ([`server`]) over bounded request channels, with batched ATR inserts
//! and client-side write-back, exactly as the paper describes (§III).
//!
//! Three properties tie the backends together:
//!
//! * **Shared transitions.** Clients and servers drive every protocol
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

pub mod fault;

mod atr;
mod engine;
mod msg;
mod pool;
mod server;
mod store;
mod worker;

use std::collections::HashMap;
use std::time::Duration;

use stm_core::history::{HistoryError, TxRecord};
use stm_core::metrics::MetricsReport;
use stm_core::stats::CommitStats;
use stm_core::{RetryPolicy, TxSource};

pub use engine::{Completion, CompletionSink, NativeEngine, Refused, Submission, SubmitError};
pub use fault::{KillServer, NativeFaultPlan, NativeFaultSpec};

/// Configuration of a native run.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Client worker threads.
    pub client_threads: usize,
    /// Commit-server threads; clients are hash-partitioned onto them.
    pub server_threads: usize,
    /// Versions retained per item (the store's ring depth).
    pub versions_per_box: usize,
    /// ATR ring capacity (entries resident for validation).
    pub atr_capacity: u64,
    /// Largest write-set an ATR entry can hold.
    pub max_ws: usize,
    /// Transactions a worker executes and submits per batch (1..=32).
    /// While a batch awaits its verdicts or its GTS turn the worker
    /// speculatively executes up to one more batch at its current
    /// snapshot ([`csmv::steps::pipeline_admissible`]); at most one batch
    /// is ever *submitted* at a time.
    pub max_batch: usize,
    /// Bound of each server's request channel (backpressure depth).
    pub channel_depth: usize,
    /// Reader-snapshot registry slots (active-reader epochs the version GC
    /// must respect). Each worker round holds one slot while it executes,
    /// and each pinned long reader holds one across retries; a full table
    /// degrades readers to unprotected (pre-GC) behaviour, never blocks
    /// them. 0 disables reader protection and snapshot pinning entirely.
    pub reader_slots: usize,
    /// Record per-transaction histories for the correctness oracle.
    pub record_history: bool,
    /// Failure-recovery policy. Cycle-valued fields (`resp_timeout`,
    /// backoff) are interpreted as **microseconds** on this backend.
    pub recovery: RetryPolicy,
    /// Deterministic fault injection; `None` runs healthy.
    pub faults: Option<NativeFaultPlan>,
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
            channel_depth: 64,
            reader_slots: 64,
            record_history: true,
            recovery: RetryPolicy::default(),
            faults: None,
            max_run: Duration::from_secs(30),
        }
    }
}

/// Why a [`NativeConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeConfigError {
    /// `client_threads` must be at least 1.
    NoClients,
    /// `server_threads` must be at least 1.
    NoServers,
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
    /// Fault injection needs an armed recovery policy: a response timeout
    /// and at least 4 send attempts (the fault plan guarantees delivery
    /// by the fourth attempt unless the server died).
    FaultsNeedRecovery,
}

impl std::fmt::Display for NativeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeConfigError::NoClients => write!(f, "client_threads must be >= 1"),
            NativeConfigError::NoServers => write!(f, "server_threads must be >= 1"),
            NativeConfigError::NoVersions => write!(f, "versions_per_box must be >= 1"),
            NativeConfigError::NoAtrCapacity => write!(f, "atr_capacity must be >= 1"),
            NativeConfigError::NoWsCapacity => write!(f, "max_ws must be >= 1"),
            NativeConfigError::BadBatch => write!(f, "max_batch must be in 1..=32"),
            NativeConfigError::NoChannelDepth => write!(f, "channel_depth must be >= 1"),
            NativeConfigError::FaultsNeedRecovery => write!(
                f,
                "fault injection requires recovery: resp_timeout set and max_send_attempts >= 4"
            ),
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
        if self.server_threads == 0 {
            return Err(NativeConfigError::NoServers);
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
        if self.faults.as_ref().is_some_and(|f| f.spec().armed())
            && (self.recovery.resp_timeout.is_none() || self.recovery.max_send_attempts < 4)
        {
            return Err(NativeConfigError::FaultsNeedRecovery);
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
    /// Merged worker + server metrics; latency samples in nanoseconds.
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

/// Hash partition of a client onto a server thread.
pub(crate) fn partition(client: usize, servers: usize) -> usize {
    (fault::mix64(client as u64) % servers as u64) as usize
}

/// Run a workload to completion on the native backend.
///
/// `make_source(t)` builds worker `t`'s transaction source; `initial(i)`
/// the starting value of item `i` (items `0..num_items`). The call joins
/// every spawned thread before returning — in bounded time, because every
/// wait in the system (channel receives, GTS spins, backoffs) re-checks
/// the `max_run` deadline.
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
    let (shared, servers, workers) = pool::build(cfg, num_items, initial)?;
    let (outputs, server_metrics) = std::thread::scope(|scope| {
        let servers: Vec<_> = servers
            .into_iter()
            .map(|server| scope.spawn(move || server.run()))
            .collect();
        let workers: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(wid, w)| {
                let make_source = &make_source;
                scope.spawn(move || w.run(make_source(wid)))
            })
            .collect();
        let outputs: Vec<worker::WorkerOutput> = workers
            .into_iter()
            .map(|h| h.join().expect("native worker panicked"))
            .collect();
        let server_metrics: Vec<MetricsReport> = servers
            .into_iter()
            .map(|h| h.join().expect("native server panicked"))
            .collect();
        (outputs, server_metrics)
    });
    Ok(shared.collect(outputs, server_metrics))
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
                    server_threads: 0,
                    ..ok.clone()
                },
                NativeConfigError::NoServers,
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

    #[test]
    fn armed_faults_require_recovery() {
        let cfg = NativeConfig {
            faults: Some(NativeFaultPlan::new(
                1,
                NativeFaultSpec {
                    drop_req_pct: 10,
                    ..Default::default()
                },
            )),
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(NativeConfigError::FaultsNeedRecovery));
        let armed = NativeConfig {
            recovery: RetryPolicy {
                resp_timeout: Some(5_000),
                max_send_attempts: 8,
                ..Default::default()
            },
            ..cfg
        };
        assert_eq!(armed.validate(), Ok(()));
        // An inert (all-zero) fault plan needs no recovery.
        let inert = NativeConfig {
            faults: Some(NativeFaultPlan::new(1, NativeFaultSpec::default())),
            ..NativeConfig::default()
        };
        assert_eq!(inert.validate(), Ok(()));
    }

    #[test]
    fn partition_is_stable_and_in_range() {
        for servers in 1..5 {
            for c in 0..64 {
                let p = partition(c, servers);
                assert!(p < servers);
                assert_eq!(p, partition(c, servers));
            }
        }
        // With more clients than servers, every server gets someone.
        let hit: std::collections::HashSet<_> = (0..64).map(|c| partition(c, 4)).collect();
        assert_eq!(hit.len(), 4);
    }
}

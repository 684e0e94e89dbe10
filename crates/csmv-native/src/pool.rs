//! The thread pool behind both entry points: [`crate::run`] (closed loop,
//! scoped threads) and [`crate::NativeEngine`] (submit API, long-lived
//! threads) build the same workers around the same shared state, and
//! merge what the threads hand back the same way. Only the spawn call and
//! the workers' intake differ, and those stay with the callers.

use std::sync::Arc;
use std::time::Instant;

use stm_core::SnapshotRegistry;

use crate::atr::NativeAtr;
use crate::store::NativeStore;
use crate::worker::{NativeWorker, WorkerOutput};
use crate::{NativeConfig, NativeConfigError, NativeRunResult};

/// What every thread of one pool shares: the store, the ATR, the reader
/// registry, the run's clock and the settings workers read. Cloning it
/// clones the `Arc`s, so each worker reaches the store and ATR through a
/// single pointer.
#[derive(Clone)]
pub(crate) struct Shared {
    pub store: Arc<NativeStore>,
    pub atr: Arc<NativeAtr>,
    pub registry: Arc<SnapshotRegistry>,
    pub retry_budget: Option<u32>,
    pub start: Instant,
    /// `start + max_run`: every wait in the system re-checks it.
    pub deadline: Instant,
    pub max_batch: usize,
    pub record_history: bool,
}

/// Validate `cfg` and build one pool, ready to spawn: the shared state
/// and `client_threads` workers (worker `w` is element `w`).
pub(crate) fn build(
    cfg: &NativeConfig,
    num_items: u64,
    initial: impl FnMut(u64) -> u64,
) -> Result<(Shared, Vec<NativeWorker>), NativeConfigError> {
    cfg.validate()?;
    let store = Arc::new(NativeStore::new(num_items, cfg.versions_per_box, initial));
    let start = Instant::now();
    let shared = Shared {
        store,
        atr: Arc::new(NativeAtr::new(cfg.atr_capacity, cfg.max_ws)),
        registry: Arc::new(SnapshotRegistry::new(cfg.reader_slots)),
        retry_budget: cfg.retry_budget,
        start,
        deadline: start + cfg.max_run,
        max_batch: cfg.max_batch,
        record_history: cfg.record_history,
    };
    let workers = (0..cfg.client_threads)
        .map(|wid| NativeWorker::new(wid, shared.clone()))
        .collect();
    Ok((shared, workers))
}

impl Shared {
    /// Merge what the joined threads handed back into the run result.
    pub(crate) fn collect(
        &self,
        workers: impl IntoIterator<Item = WorkerOutput>,
    ) -> NativeRunResult {
        let elapsed = self.start.elapsed();
        let mut result = NativeRunResult {
            elapsed,
            gts: self.atr.gts(),
            ..Default::default()
        };
        for out in workers {
            result.stats.merge(&out.stats);
            result.records.extend(out.records);
            result.metrics.merge(&out.metrics);
        }
        // The store's GC counters and its end-of-run footprint are shared
        // by every worker: merge them exactly once.
        result.metrics.gc.merge(&self.store.gc_stats());
        result.final_state = self.store.final_state();
        result
    }
}

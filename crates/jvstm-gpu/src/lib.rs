//! # jvstm-gpu — a straight port of JVSTM onto the (simulated) GPU
//!
//! This is the paper's conventional-design baseline (§III-A, §IV-B): the
//! JVSTM multi-version STM algorithm transplanted to the GPU with **no**
//! GPU-oriented redesign. It is also, by construction, "CSMV with every
//! optimization removed":
//!
//! * the global timestamp (GTS) and the Active Transaction Record (ATR)
//!   live in **off-chip global memory**;
//! * every committing transaction **validates independently** against the
//!   ATR (per-lane, divergent, uncoalesced);
//! * ATR insertion, write-back and the GTS bump happen **sequentially under
//!   a global lock** acquired with a global-memory CAS;
//! * read-only transactions, as in every MV STM, run instrumentation-free
//!   and never validate.
//!
//! The commit protocol follows §III-A's three phases: validate → insert in
//! ATR (CAS; on failure revalidate newly committed entries and retry) →
//! write-back + GTS increment + release.

#![forbid(unsafe_code)]

pub mod atr;
pub mod client;

use gpu_sim::fault::FaultPlan;
use gpu_sim::{AnalysisConfig, Device, GpuConfig};
use stm_core::mv_exec::{MvExecConfig, PlainSetArea};
use stm_core::{launch, RetryPolicy, RunResult, TxSource, VBoxHeap};

pub use atr::GlobalAtr;
pub use client::JvstmGpuClient;

/// Configuration of a JVSTM-GPU launch.
#[derive(Debug, Clone)]
pub struct JvstmGpuConfig {
    /// Device geometry and cost model.
    pub gpu: GpuConfig,
    /// Versions retained per VBox.
    pub versions_per_box: u64,
    /// Client warps per SM (the paper runs 64-thread blocks = 2 warps).
    pub warps_per_sm: usize,
    /// Read-set capacity per thread.
    pub max_rs: usize,
    /// Write-set capacity per thread.
    pub max_ws: usize,
    /// ATR capacity (entries); must exceed the total number of update
    /// commits in the run, as the baseline's ATR is append-only.
    pub atr_capacity: usize,
    /// Record per-transaction histories for the correctness oracle.
    pub record_history: bool,
    /// ATR entries folded into one validation step (simulation batching —
    /// identical cycle cost, coarser interleaving; entries are immutable
    /// once published, so batching is race-free).
    pub validate_batch: usize,
    /// Analysis layer (race detector); all-off by default.
    pub analysis: AnalysisConfig,
    /// Failure-recovery policy: per-transaction retry budget (enforced by
    /// the shared MV engine) plus seeded exponential backoff between retry
    /// rounds. Inert by default.
    pub recovery: RetryPolicy,
    /// Deterministic fault plan installed on the device (warp kills/stalls,
    /// SM crashes). `None` = fault-free.
    pub faults: Option<FaultPlan>,
    /// Stall watchdog: abort the run (loudly) if no warp makes non-polling
    /// progress for this many cycles. `None` disables the watchdog.
    pub max_idle_cycles: Option<u64>,
}

impl Default for JvstmGpuConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::default(),
            versions_per_box: 4,
            warps_per_sm: 2,
            max_rs: 64,
            max_ws: 16,
            atr_capacity: 1 << 16,
            record_history: true,
            validate_batch: 16,
            analysis: AnalysisConfig::default(),
            recovery: RetryPolicy::default(),
            faults: None,
            max_idle_cycles: None,
        }
    }
}

impl JvstmGpuConfig {
    /// Total client threads in a launch.
    pub fn num_threads(&self) -> usize {
        self.gpu.num_sms * self.warps_per_sm * gpu_sim::WARP_LANES
    }
}

/// Run a workload to completion on JVSTM-GPU.
///
/// * `make_source(thread_id)` builds each thread's transaction stream;
/// * `num_items` / `initial(item)` describe the transactional heap.
pub fn run<S, F>(
    cfg: &JvstmGpuConfig,
    make_source: F,
    num_items: u64,
    mut initial: impl FnMut(u64) -> u64,
) -> RunResult
where
    S: TxSource + 'static,
    F: FnMut(usize) -> S,
{
    let mut dev = Device::new(cfg.gpu.clone());
    let gts_addr = dev.alloc_global(1);
    let heap = VBoxHeap::init(
        dev.global_mut(),
        num_items,
        cfg.versions_per_box,
        &mut initial,
    );
    let atr = GlobalAtr::alloc(dev.global_mut(), cfg.atr_capacity, cfg.max_ws);
    launch::arm(&mut dev, &cfg.faults, cfg.max_idle_cycles, cfg.analysis);
    let exec_cfg = MvExecConfig::new(cfg.record_history, &cfg.recovery);
    let clients = launch::spawn_clients(
        &mut dev,
        cfg.gpu.num_sms,
        cfg.warps_per_sm,
        make_source,
        |dev, sources, thread_base, _slot| {
            let area = PlainSetArea::alloc(dev.global_mut(), cfg.max_rs, cfg.max_ws);
            JvstmGpuClient::new(
                sources,
                thread_base,
                exec_cfg.clone(),
                heap.clone(),
                atr.clone(),
                area,
                gts_addr,
                cfg.validate_batch,
            )
        },
    );
    // A watchdog trip is a protocol bug (or an unsurvivable fault plan):
    // surface it loudly instead of returning a silently-short result.
    launch::finish(&mut dev, &clients, |c: &mut JvstmGpuClient<S>| {
        c.exec.harvest()
    })
    .unwrap_or_else(|stall| panic!("jvstm-gpu run stalled: {stall:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use stm_core::check_history;
    use workloads::{BankConfig, BankSource};

    fn small_cfg() -> JvstmGpuConfig {
        let gpu = GpuConfig {
            num_sms: 4,
            ..Default::default()
        };
        JvstmGpuConfig {
            gpu,
            atr_capacity: 4096,
            ..Default::default()
        }
    }

    #[test]
    fn bank_run_is_opaque_and_conserves_balance() {
        let cfg = small_cfg();
        let bank = BankConfig::small(64, 30);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 42, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert!(res.stats.commits() > 0);
        let initial: HashMap<u64, u64> = bank.initial_state();
        check_history(&res.records, &initial, true).expect("opaque history");
        // Replay writes in cts order: total balance must be conserved.
        let mut heap = initial;
        let mut updates: Vec<_> = res.records.iter().filter(|r| r.cts.is_some()).collect();
        updates.sort_by_key(|r| r.cts.unwrap());
        for r in updates {
            for &(item, value) in &r.writes {
                heap.insert(item, value);
            }
        }
        assert_eq!(heap.values().sum::<u64>(), bank.total_balance());
    }

    #[test]
    fn all_transactions_eventually_commit() {
        let cfg = small_cfg();
        let bank = BankConfig::small(32, 50);
        let txs_per_thread = 2;
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 7, t, txs_per_thread),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert_eq!(
            res.stats.commits(),
            (cfg.num_threads() * txs_per_thread) as u64,
            "every generated transaction must commit exactly once"
        );
    }

    #[test]
    fn read_dominated_runs_have_few_aborts() {
        let cfg = small_cfg();
        let bank = BankConfig::small(64, 100);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 3, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert_eq!(
            res.stats.aborts(),
            0,
            "pure-ROT workloads never abort in an MV STM"
        );
        assert!(res.stats.rot_commits > 0);
    }

    #[test]
    fn stock_run_is_race_free() {
        let mut cfg = small_cfg();
        cfg.analysis = AnalysisConfig {
            races: true,
            invariants: false,
        };
        let bank = BankConfig::small(32, 30);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 13, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        );
        let report = res.analysis.expect("analysis was enabled");
        assert!(report.events > 0);
        assert_eq!(report.race_count, 0, "races: {:?}", report.races);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = small_cfg();
        let bank = BankConfig::small(48, 20);
        let go = || {
            run(
                &cfg,
                |t| BankSource::new(&bank, 11, t, 2),
                bank.accounts,
                |_| bank.initial_balance,
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.stats, b.stats);
    }
}

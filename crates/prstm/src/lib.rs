//! # prstm — PR-STM, the single-versioned GPU STM baseline
//!
//! A reproduction of PR-STM (Shen et al., Euro-Par'15; JPDC'20): invisible
//! reads over a versioned lock table, encounter-time write locking, and a
//! **priority-rule contention manager** where a transaction's priority grows
//! with its abort count (aging), making the conflict order total and
//! starvation-free. This is the paper's main single-versioned comparison
//! point (§IV-B).
//!
//! Two properties drive its behaviour in the evaluation:
//!
//! * **no multi-versioning** — read-only transactions are ordinary
//!   transactions: every read is tracked and the whole read-set re-validated
//!   per read (PR-STM has no global clock to shortcut opacity checks), so a
//!   ROT touching *n* items costs O(n²) — the collapse CSMV's Fig. 2 shows
//!   at high %ROT;
//! * **per-item versioned locks in global memory** — all synchronization is
//!   off-chip CAS traffic.
//!
//! Deviation noted for the record: under SIMT warp-lockstep, spinning on an
//! unsealed lock can deadlock warps, so readers abort instead of waiting
//! (waiting is allowed only on *sealed* locks, whose owner is inside its
//! wait-free commit). Lock stealing by stronger transactions is kept, as in
//! the original.

#![forbid(unsafe_code)]

pub mod check;
pub mod client;
pub mod lock;
pub mod log;

use gpu_sim::fault::FaultPlan;
use gpu_sim::{AnalysisConfig, Device, GpuConfig};
use stm_core::launch;
use stm_core::mv_exec::PlainSetArea;
use stm_core::{RetryPolicy, RunResult, TxSource};

pub use check::PrstmInvariantChecker;
pub use client::PrstmClient;
pub use lock::LockTable;
pub use log::LockLog;

/// Configuration of a PR-STM launch.
#[derive(Debug, Clone)]
pub struct PrstmConfig {
    /// Device geometry and cost model.
    pub gpu: GpuConfig,
    /// Client warps per SM.
    pub warps_per_sm: usize,
    /// Read-set capacity per thread (ROTs track reads too!).
    pub max_rs: usize,
    /// Write-set capacity per thread.
    pub max_ws: usize,
    /// Record per-transaction histories for the correctness oracle.
    pub record_history: bool,
    /// Analysis layer (race detector / lock-discipline checks); all-off by
    /// default.
    pub analysis: AnalysisConfig,
    /// Failure-recovery policy: per-transaction retry budget plus seeded
    /// exponential backoff layered over the contention manager. Inert by
    /// default.
    pub recovery: RetryPolicy,
    /// Deterministic fault plan installed on the device (warp kills/stalls,
    /// SM crashes). `None` = fault-free.
    pub faults: Option<FaultPlan>,
    /// Stall watchdog: abort the run (loudly) if no warp makes non-polling
    /// progress for this many cycles. `None` disables the watchdog.
    pub max_idle_cycles: Option<u64>,
}

impl Default for PrstmConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::default(),
            warps_per_sm: 2,
            max_rs: 256,
            max_ws: 16,
            record_history: true,
            analysis: AnalysisConfig::default(),
            recovery: RetryPolicy::default(),
            faults: None,
            max_idle_cycles: None,
        }
    }
}

impl PrstmConfig {
    /// Total client threads in a launch.
    pub fn num_threads(&self) -> usize {
        self.gpu.num_sms * self.warps_per_sm * gpu_sim::WARP_LANES
    }
}

/// Run a workload to completion on PR-STM.
pub fn run<S, F>(
    cfg: &PrstmConfig,
    make_source: F,
    num_items: u64,
    mut initial: impl FnMut(u64) -> u64,
) -> RunResult
where
    S: TxSource + 'static,
    F: FnMut(usize) -> S,
{
    let mut dev = Device::new(cfg.gpu.clone());
    let table = LockTable::init(dev.global_mut(), num_items, &mut initial);
    let log = LockLog::new();
    launch::arm(&mut dev, &cfg.faults, cfg.max_idle_cycles, cfg.analysis);
    if cfg.analysis.invariants {
        dev.add_invariant_checker(Box::new(PrstmInvariantChecker::new(&table)));
    }
    let clients = launch::spawn_clients(
        &mut dev,
        cfg.gpu.num_sms,
        cfg.warps_per_sm,
        make_source,
        |dev, sources, thread_base, slot| {
            let area = PlainSetArea::alloc(dev.global_mut(), cfg.max_rs, cfg.max_ws);
            let mut client = PrstmClient::new(
                sources,
                thread_base,
                table.clone(),
                area,
                log.clone(),
                cfg.record_history,
                slot as u64,
            );
            client.set_recovery(cfg.recovery.clone());
            client
        },
    );
    // A watchdog trip is a protocol bug (or an unsurvivable fault plan):
    // surface it loudly instead of returning a silently-short result.
    launch::finish(&mut dev, &clients, PrstmClient::<S>::harvest)
        .unwrap_or_else(|stall| panic!("prstm run stalled: {stall:?}"))
}

#[cfg(test)]
mod metrics_tests {
    use super::*;
    use stm_core::{AbortReason, TxLogic, TxOp, TxSource};

    /// Increment item 0 once (maximal write-write contention).
    #[derive(Clone)]
    struct Incr {
        step: u8,
    }
    impl TxLogic for Incr {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.step = 0;
        }
        fn next(&mut self, last: Option<u64>) -> TxOp {
            match self.step {
                0 => {
                    self.step = 1;
                    TxOp::Read { item: 0 }
                }
                1 => {
                    self.step = 2;
                    TxOp::Write {
                        item: 0,
                        value: last.unwrap() + 1,
                    }
                }
                _ => TxOp::Finish,
            }
        }
    }
    struct Once(Option<Incr>);
    impl TxSource for Once {
        type Tx = Incr;
        fn next_tx(&mut self) -> Option<Incr> {
            self.0.take()
        }
    }

    #[test]
    fn contended_aborts_carry_write_write_reasons() {
        let gpu = gpu_sim::GpuConfig {
            num_sms: 4,
            ..Default::default()
        };
        let cfg = PrstmConfig {
            gpu,
            ..Default::default()
        };
        let res = run(&cfg, |_| Once(Some(Incr { step: 0 })), 4, |_| 0);
        let n = cfg.num_threads() as u64;
        assert_eq!(res.stats.update_commits, n);
        // Metrics agree with the counters: every abort is classified and
        // latency-sampled, every commit latency-sampled.
        assert_eq!(res.metrics.aborts.total(), res.stats.aborts());
        assert_eq!(res.metrics.abort_latency.count(), res.stats.aborts());
        assert_eq!(res.metrics.commit_latency.count(), res.stats.commits());
        // All lanes fight over item 0's lock: encounter-time locking makes
        // write-write the dominant (and certainly a present) reason.
        assert!(
            res.metrics.aborts.count(AbortReason::WriteWrite) > 0,
            "lock-busy aborts must be classified: {:?}",
            res.metrics.aborts
        );
    }

    #[test]
    fn retry_budget_fails_transactions_terminally() {
        // Maximal contention on item 0 with a budget of one retry: lanes
        // that lose twice are dropped with RetryBudgetExhausted instead of
        // retrying forever, and every transaction is accounted exactly once.
        let gpu = gpu_sim::GpuConfig {
            num_sms: 4,
            ..Default::default()
        };
        let cfg = PrstmConfig {
            gpu,
            recovery: stm_core::RetryPolicy {
                retry_budget: Some(1),
                backoff_base: 32,
                backoff_cap: 256,
                jitter_seed: 5,
                ..stm_core::RetryPolicy::default()
            },
            ..Default::default()
        };
        let run_once = || run(&cfg, |_| Once(Some(Incr { step: 0 })), 4, |_| 0);
        let res = run_once();
        let n = cfg.num_threads() as u64;
        assert_eq!(
            res.stats.commits() + res.stats.failed,
            n,
            "every transaction must either commit or fail terminally"
        );
        assert!(
            res.stats.failed > 0,
            "full contention with budget 1 must exhaust some budgets"
        );
        assert!(res.metrics.aborts.count(AbortReason::RetryBudgetExhausted) > 0);
        // Seeded backoff keeps the run deterministic.
        let again = run_once();
        assert_eq!(res.elapsed_cycles, again.elapsed_cycles);
        assert_eq!(res.stats, again.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use stm_core::{check_history, TxLogic, TxOp, TxSource};
    use workloads::{BankConfig, BankSource};

    fn small_cfg() -> PrstmConfig {
        let gpu = GpuConfig {
            num_sms: 4,
            ..Default::default()
        };
        PrstmConfig {
            gpu,
            ..Default::default()
        }
    }

    #[test]
    fn bank_run_is_serializable_and_conserves_balance() {
        let cfg = small_cfg();
        let bank = BankConfig::small(64, 30);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 42, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert_eq!(res.stats.commits(), (cfg.num_threads() * 3) as u64);
        let initial: HashMap<u64, u64> = bank.initial_state();
        // Single-versioned: read points are the commit instants themselves.
        check_history(&res.records, &initial, false).expect("serializable history");
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
    fn rots_are_tracked_and_can_abort() {
        // In a single-versioned STM, ROTs conflict with updates: under
        // write pressure on a tiny bank, some balance scans must retry.
        let cfg = small_cfg();
        let bank = BankConfig::small(8, 50);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 7, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert!(
            res.stats.rot_aborts > 0,
            "expected ROT aborts under contention"
        );
        check_history(&res.records, &bank.initial_state(), false).expect("serializable");
    }

    /// All threads increment one counter.
    #[derive(Clone)]
    struct Incr {
        step: u8,
        seen: u64,
    }
    impl TxLogic for Incr {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.step = 0;
        }
        fn next(&mut self, last: Option<u64>) -> TxOp {
            match self.step {
                0 => {
                    self.step = 1;
                    TxOp::Read { item: 0 }
                }
                1 => {
                    self.seen = last.unwrap();
                    self.step = 2;
                    TxOp::Write {
                        item: 0,
                        value: self.seen + 1,
                    }
                }
                _ => TxOp::Finish,
            }
        }
    }
    struct Once(Option<Incr>);
    impl TxSource for Once {
        type Tx = Incr;
        fn next_tx(&mut self) -> Option<Incr> {
            self.0.take()
        }
    }

    #[test]
    fn contended_counter_is_exact() {
        let cfg = small_cfg();
        let res = run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
        let n = cfg.num_threads() as u64;
        assert_eq!(res.stats.update_commits, n);
        check_history(&res.records, &HashMap::new(), false).expect("serializable");
        let max_write = res
            .records
            .iter()
            .filter_map(|r| r.cts.map(|c| (c, r.writes[0].1)))
            .max()
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(max_write, n);
    }

    #[test]
    fn stock_run_is_clean_under_full_analysis() {
        let mut cfg = small_cfg();
        cfg.analysis = AnalysisConfig {
            races: true,
            invariants: true,
        };
        let bank = BankConfig::small(16, 30);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 21, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        );
        let report = res.analysis.expect("analysis was enabled");
        assert!(report.events > 0);
        assert!(
            report.is_clean(),
            "races {:?}, violations {:?}",
            report.races,
            report.violations
        );
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

    #[test]
    fn long_rots_pay_quadratic_validation() {
        // Same commit count, larger read-sets: total cycles must grow
        // super-linearly (the O(n²) incremental validation).
        let cfg = small_cfg();
        let cycles = |accounts: u64| {
            let bank = BankConfig::small(accounts, 100);
            let res = run(
                &cfg,
                |t| BankSource::new(&bank, 5, t, 1),
                bank.accounts,
                |_| bank.initial_balance,
            );
            res.elapsed_cycles as f64
        };
        let small = cycles(32);
        let big = cycles(128);
        // 4× the reads should cost clearly more than 4× the time.
        assert!(
            big > 8.0 * small,
            "expected super-linear ROT cost, got {small} vs {big}"
        );
    }
}

//! Pipelined-commit equivalence for the native backend.
//!
//! The worker overlaps the next batch's execution with the current
//! batch's verdict wait and GTS stall. Two obligations:
//!
//! 1. **Bit-equal final states.** On a commutative bank configuration (a
//!    balance floor the transfer clamp can never reach) the final state
//!    is a function of the transaction multiset alone, so a native run
//!    must land exactly where a serial execution of the same seeded
//!    sources does, and where its own committed records replay to —
//!    speculation may reorder commits, never change them.
//! 2. **Chaos.** The pipeline under fixed fault seeds (message drops, a
//!    mid-run server kill) must stay opaque (`run_checked` applies
//!    `stm_core::check_history` internally) with full terminal
//!    accounting, mirroring `tests/native_faults.rs`.

use std::time::Duration;

use csmv_native::{KillServer, NativeConfig, NativeFaultPlan, NativeFaultSpec};
use proptest::prelude::*;
use stm_core::history::replay_committed;
use stm_core::logic::run_sequential;
use stm_core::metrics::AbortReason;
use stm_core::{RetryPolicy, TxSource};
use workloads::{BankConfig, BankSource};

/// Hard ceiling on one native run (see `tests/native_faults.rs`).
const MAX_RUN: Duration = Duration::from_secs(5);

/// Bank in its commutative configuration: no transfer sequence can reach
/// the overdraw clamp, so transfers commute.
fn commutative_bank() -> BankConfig {
    BankConfig {
        accounts: 24,
        initial_balance: 1_000_000,
        rot_pct: 20,
        max_transfer: 100,
        partitions: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// A pipelined run of a seeded commutative workload commits
    /// everything and lands on the serial execution's final state.
    #[test]
    fn pipelined_run_agrees_with_serial_execution_on_commutative_bank(
        seed in proptest::num::u64::ANY,
        clients in 1usize..=4,
    ) {
        let bank = commutative_bank();
        let txs = 24;
        let cfg = NativeConfig {
            client_threads: clients,
            server_threads: 2,
            max_run: MAX_RUN,
            ..Default::default()
        };
        let res = csmv_native::run_checked(
            &cfg,
            |t| BankSource::new(&bank, seed, t, txs),
            bank.accounts,
            |_| bank.initial_balance,
        )
        .unwrap_or_else(|e| panic!("native run not opaque: {e}"));
        prop_assert_eq!(res.stats.failed, 0);
        prop_assert_eq!(res.stats.commits(), (clients * txs) as u64);

        let mut serial = bank.initial_state();
        for t in 0..clients {
            let mut source = BankSource::new(&bank, seed, t, txs);
            while let Some(mut tx) = source.next_tx() {
                run_sequential(&mut tx, &mut serial);
            }
        }
        prop_assert_eq!(
            &res.final_state, &serial,
            "commutative workload: commit order must not change the final state"
        );
        prop_assert_eq!(
            &replay_committed(&res.records, &bank.initial_state()), &res.final_state,
            "the store must hold exactly what the committed records wrote"
        );
    }
}

/// Chaos lanes: fixed fault seeds, each run opaque and fully
/// accounted inside the deadline.
#[test]
fn pipelined_runs_survive_chaos_faults() {
    let chaos: &[(u64, NativeFaultSpec)] = &[
        (
            0xC0FFEE,
            NativeFaultSpec {
                drop_req_pct: 20,
                drop_resp_pct: 20,
                kill_server: None,
            },
        ),
        (
            0xBADB0B,
            NativeFaultSpec {
                drop_req_pct: 30,
                drop_resp_pct: 10,
                kill_server: None,
            },
        ),
        (
            0xDEAD5EED,
            NativeFaultSpec {
                drop_req_pct: 10,
                drop_resp_pct: 25,
                kill_server: Some(KillServer {
                    server: 1,
                    after_batches: 2,
                }),
            },
        ),
    ];
    let bank = BankConfig::small(24, 30);
    let txs = 24;
    let clients = 4;
    for &(fault_seed, spec) in chaos {
        let cfg = NativeConfig {
            client_threads: clients,
            server_threads: 2,
            recovery: RetryPolicy {
                resp_timeout: Some(5_000),
                max_send_attempts: 8,
                retry_budget: Some(8),
                backoff_base: 100,
                backoff_cap: 2_000,
                jitter_seed: fault_seed ^ 0x5EED,
            },
            faults: Some(NativeFaultPlan::new(fault_seed, spec)),
            max_run: MAX_RUN,
            ..Default::default()
        };
        let res = csmv_native::run_checked(
            &cfg,
            |t| BankSource::new(&bank, fault_seed, t, txs),
            bank.accounts,
            |_| bank.initial_balance,
        )
        .unwrap_or_else(|e| panic!("chaos seed {fault_seed:#x}: run not opaque: {e}"));
        assert!(
            res.elapsed < MAX_RUN + Duration::from_secs(1),
            "chaos seed {fault_seed:#x}: run must join promptly (took {:?})",
            res.elapsed
        );
        let total = (clients * txs) as u64;
        assert_eq!(
            res.stats.commits() + res.stats.failed,
            total,
            "chaos seed {fault_seed:#x}: every transaction must commit or fail \
             with a recorded reason"
        );
        if spec.kill_server.is_none() {
            // Same accounting obligation as `tests/native_faults.rs`: with
            // the servers alive, terminal failures are allowed iff they
            // are retry-budget exhaustion — speculation squashes charge
            // the same budget, never a recovery failure.
            assert_eq!(res.metrics.aborts.count(AbortReason::ServerTimeout), 0);
            assert_eq!(res.metrics.aborts.count(AbortReason::ServerUnavailable), 0);
            assert_eq!(
                res.stats.failed,
                res.metrics.aborts.count(AbortReason::RetryBudgetExhausted),
                "chaos seed {fault_seed:#x}: every no-kill failure must be \
                 contention budget exhaustion"
            );
        }
    }
}

//! Serial equivalence for the native backend and the simulator.
//!
//! The obligation is bit-equal final states: on a commutative bank
//! configuration (a balance floor the transfer clamp can never reach) the
//! final state is a function of the transaction multiset alone, so a
//! native run must land exactly where a serial execution of the same
//! seeded sources does, where its own committed records replay to, and
//! where the simulated GPU lands on the same multiset.

use std::time::Duration;

use csmv_native::NativeConfig;
use gpu_sim::GpuConfig;
use proptest::prelude::*;
use stm_core::history::replay_committed;
use stm_core::logic::run_sequential;
use stm_core::TxSource;
use workloads::{BankConfig, BankSource};

/// Hard ceiling on one native run.
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

    /// A native run of a seeded commutative workload commits
    /// everything and lands on the serial execution's final state, and so
    /// does a simulated run of the same transactions.
    #[test]
    fn native_run_agrees_with_serial_execution_on_commutative_bank(
        seed in proptest::num::u64::ANY,
        clients in 1usize..=4,
    ) {
        let bank = commutative_bank();
        let txs = 24;
        let cfg = NativeConfig {
            client_threads: clients,
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

        // The simulator on the same multiset: its first `clients` threads
        // get the native workers' sources, every other thread an empty one.
        let sim_cfg = csmv::CsmvConfig {
            gpu: GpuConfig { num_sms: 2, ..Default::default() },
            ..Default::default()
        };
        let sim = csmv::run(
            &sim_cfg,
            |t| BankSource::new(&bank, seed, t, if t < clients { txs } else { 0 }),
            bank.accounts,
            |_| bank.initial_balance,
        );
        prop_assert_eq!(sim.stats.commits(), (clients * txs) as u64);
        prop_assert_eq!(
            &replay_committed(&sim.records, &bank.initial_state()), &serial,
            "the simulator must reach the same final state on the same multiset"
        );
    }
}

//! The native backend running the repo's benchmark workloads on real OS
//! threads, validated by the same history oracle the simulator uses.

use std::collections::HashMap;
use std::time::Duration;

use csmv_native::{NativeConfig, NativeRunResult};
use stm_core::history::replay_committed;
use stm_core::{TxLogic, TxOp, TxSource};
use workloads::{BankConfig, BankSource, ListConfig, ListSource};

fn native_cfg(clients: usize) -> NativeConfig {
    NativeConfig {
        client_threads: clients,
        max_run: Duration::from_secs(20),
        ..Default::default()
    }
}

fn run_bank(cfg: &NativeConfig, bank: &BankConfig, seed: u64, txs: usize) -> NativeRunResult {
    csmv_native::run_checked(
        cfg,
        |t| BankSource::new(bank, seed, t, txs),
        bank.accounts,
        |_| bank.initial_balance,
    )
    .expect("bank run must pass the history oracle")
}

#[test]
fn bank_on_native_across_thread_counts() {
    let bank = BankConfig::small(64, 20);
    for clients in [1, 4, 8] {
        let txs = 64;
        let res = run_bank(&native_cfg(clients), &bank, 42, txs);
        assert_eq!(res.stats.failed, 0, "healthy run must not fail txs");
        assert_eq!(res.stats.commits(), (clients * txs) as u64);
        // Total balance is conserved in the final committed state.
        let total: u64 = res.final_state.values().sum();
        assert_eq!(total, bank.total_balance());
        // The committed records replay to exactly the final store state.
        let init = bank.initial_state();
        assert_eq!(replay_committed(&res.records, &init), res.final_state);
        // Dense timestamps: the final GTS counts the update commits.
        assert_eq!(res.gts, res.stats.update_commits);
    }
}

#[test]
fn atr_occupancy_is_observed_at_every_reservation() {
    // The validator records the batch size and the ATR occupancy once per
    // won reservation, and the worker the store footprint once per round,
    // so over hundreds of rounds the counts stay tied.
    let bank = BankConfig::small(64, 50);
    let res = run_bank(&native_cfg(4), &bank, 5, 512);
    let m = &res.metrics;
    assert!(m.batch_sizes.count() > 64, "the run must take many rounds");
    assert_eq!(m.atr_occupancy.len(), m.batch_sizes.count());
    assert!(m.footprint.len() >= m.atr_occupancy.len());
    assert!(m.gc.footprint_bytes > 0, "the end-of-run footprint is read");
}

#[test]
fn bank_rots_commit_without_server_round_trips() {
    let bank = BankConfig::small(32, 100); // all Balance scans
    let res = run_bank(&native_cfg(4), &bank, 7, 32);
    assert_eq!(res.stats.rot_commits, 4 * 32);
    assert_eq!(res.stats.update_commits, 0);
    assert_eq!(res.gts, 0);
    // Every scan read a consistent snapshot: sum equals the invariant.
    for rec in &res.records {
        assert!(rec.cts.is_none());
        let sum: u64 = rec.reads.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, bank.total_balance());
    }
}

#[test]
fn bank_native_matches_sequential_final_state_when_commutative() {
    // With a balance floor no sequence of transfers can breach, the
    // overdraw clamp never fires and transfers commute: any commit order
    // yields the same final state. 8 threads × 64 transfers × max 100
    // per transfer bounds any account's net debit far below 1_000_000.
    let bank = BankConfig {
        accounts: 32,
        initial_balance: 1_000_000,
        rot_pct: 0,
        max_transfer: 100,
        partitions: None,
    };
    let seed = 11;
    let txs = 64;
    let res = run_bank(&native_cfg(8), &bank, seed, txs);
    assert_eq!(res.stats.failed, 0);
    // Sequential ground truth: every thread's transfers applied in order.
    use stm_core::logic::run_sequential;
    let mut state: HashMap<u64, u64> = bank.initial_state();
    for t in 0..8 {
        let mut src = BankSource::new(&bank, seed, t, txs);
        while let Some(mut tx) = src.next_tx() {
            run_sequential(&mut tx, &mut state);
        }
    }
    assert_eq!(res.final_state, state);
}

#[test]
fn list_on_native_keeps_the_chain_sorted() {
    let cfg = ListConfig {
        key_range: 64,
        initial_nodes: 12,
        contains_pct: 30,
        pool_per_thread: 2,
        threads: 4,
    };
    let init = cfg.initial_state();
    // `run`, not `run_checked`: the O(n log n) opacity oracle is covered
    // by every other test in this file; at this scan length it would
    // dominate the test's runtime. Scan consistency is asserted linearly
    // below.
    let res = csmv_native::run(
        &NativeConfig {
            client_threads: 4,
            max_run: Duration::from_secs(20),
            ..Default::default()
        },
        |t| ListSource::new(&cfg, 13, t, 4),
        cfg.num_items(),
        {
            let init = init.clone();
            move |item| *init.get(&item).unwrap_or(&0)
        },
    )
    .expect("list run must pass the history oracle");
    assert_eq!(res.stats.failed, 0);
    assert_eq!(res.stats.commits(), 4 * 4);
    // Walk the committed chain: strictly sorted, unique, terminating.
    let heap = &res.final_state;
    let mut keys = Vec::new();
    let mut n = heap[&ListConfig::next_item(0)];
    let mut hops = 0;
    while n != 1 {
        keys.push(heap[&ListConfig::key_item(n)]);
        n = heap[&ListConfig::next_item(n)];
        hops += 1;
        assert!(hops < 10_000, "cycle in committed list chain");
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted, "committed chain must be strictly sorted");
    // Replay consistency, as for bank. The workload's initial state only
    // names chain items; the store holds every item, so compare over the
    // full item space.
    let full_init: HashMap<u64, u64> = (0..cfg.num_items())
        .map(|i| (i, *init.get(&i).unwrap_or(&0)))
        .collect();
    assert_eq!(replay_committed(&res.records, &full_init), res.final_state);
}

/// A source whose every transaction yields the CPU once its body has
/// run: between a snapshot and its validation, other workers commit.
struct Interleaved<S>(S);

struct Yields<T>(T);

impl<S: TxSource> TxSource for Interleaved<S> {
    type Tx = Yields<S::Tx>;
    fn next_tx(&mut self) -> Option<Self::Tx> {
        self.0.next_tx().map(Yields)
    }
}

impl<T: TxLogic> TxLogic for Yields<T> {
    fn is_read_only(&self) -> bool {
        self.0.is_read_only()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn next(&mut self, last_read: Option<u64>) -> TxOp {
        let op = self.0.next(last_read);
        if matches!(op, TxOp::Finish) {
            std::thread::yield_now();
        }
        op
    }
}

#[test]
fn eight_concurrent_validators_on_a_hot_list_stay_opaque_and_account_for_every_tx() {
    // Every worker validates and reserves in place, so eight of them on a
    // 16-key list are eight validators racing for the same ATR window:
    // lost CASes, delta scans and in-flight entries all occur. Every
    // execution hands the CPU over before it is validated (`Yields`), so
    // the workers interleave inside each other's snapshot-to-validation
    // window on any host, however few CPUs it has to spare. The oracle
    // (`run_checked`) must stay clean, and every transaction handed out
    // must end as a commit or as a budget exhaustion — nothing lost,
    // nothing timed out.
    use stm_core::metrics::AbortReason;
    let list = ListConfig {
        key_range: 16,
        initial_nodes: 8,
        contains_pct: 20,
        pool_per_thread: 64,
        threads: 8,
    };
    let init = list.initial_state();
    let txs = 200;
    let cfg = NativeConfig {
        retry_budget: Some(64),
        ..native_cfg(8)
    };
    let res = csmv_native::run_checked(
        &cfg,
        |t| Interleaved(ListSource::new(&list, 29, t, txs)),
        list.num_items(),
        |item| *init.get(&item).unwrap_or(&0),
    )
    .expect("hot list run must pass the history oracle");
    assert_eq!(res.stats.commits() + res.stats.failed, (8 * txs) as u64);
    assert_eq!(
        res.stats.failed,
        res.metrics.aborts.count(AbortReason::RetryBudgetExhausted),
        "contention is the only way to fail"
    );
    assert!(
        res.metrics.aborts.count(AbortReason::ReadValidation) > 0,
        "eight writers on sixteen keys never met in the ATR"
    );
    assert_eq!(res.gts, res.stats.update_commits, "dense timestamps");
}

#[test]
fn long_full_scan_reader_commits_against_a_saturating_write_stream() {
    // The starvation-freedom demonstration for the version-GC PR: a
    // full-scan read-only transaction over every account, against three
    // writer threads hammering a store with a *single-version* ring
    // (`versions_per_box: 1`). Without reader-gated GC this livelocks —
    // every scan loses some account's version to a concurrent write-back
    // and aborts with `VersionOverflow` forever. With round registration
    // and snapshot pinning the scans must all commit inside the retry
    // budget, with zero budget exhaustions.
    use stm_core::metrics::AbortReason;
    let scan_bank = BankConfig {
        accounts: 131_072,
        initial_balance: 1_000,
        rot_pct: 100, // thread 0: nothing but full Balance scans
        max_transfer: 10,
        partitions: None,
    };
    let write_bank = BankConfig {
        rot_pct: 0, // threads 1..: nothing but transfers
        ..scan_bank.clone()
    };
    let cfg = NativeConfig {
        client_threads: 8,
        versions_per_box: 1,
        retry_budget: Some(12),
        max_run: Duration::from_secs(20),
        ..Default::default()
    };
    let scans = 8;
    // `run`, not `run_checked`: the O(n log n) opacity oracle is covered
    // by every other test in this file; at this scan length it would
    // dominate the test's runtime. Scan consistency is asserted linearly
    // below.
    let res = csmv_native::run(
        &cfg,
        |t| {
            let (bank, txs) = if t == 0 {
                (&scan_bank, scans)
            } else {
                (&write_bank, 4000)
            };
            BankSource::new(bank, 23, t, txs)
        },
        scan_bank.accounts,
        |_| scan_bank.initial_balance,
    )
    .expect("config is valid");
    assert_eq!(res.stats.failed, 0, "no transaction may exhaust its budget");
    assert_eq!(
        res.metrics.aborts.count(AbortReason::RetryBudgetExhausted),
        0
    );
    assert_eq!(res.stats.rot_commits, scans as u64, "every scan committed");
    // Each committed scan saw a consistent snapshot.
    for rec in res.records.iter().filter(|r| r.cts.is_none()) {
        let sum: u64 = rec.reads.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, scan_bank.accounts * scan_bank.initial_balance);
    }
    // The GC demonstrably engaged: registered scans forced spills.
    let gc = &res.metrics.gc;
    assert!(
        gc.versions_spilled > 0,
        "write storm must hit retained versions"
    );

    assert!(
        gc.max_version_list_len <= (cfg.versions_per_box + cfg.reader_slots) as u64,
        "version list length {} breaches the ring+readers bound",
        gc.max_version_list_len
    );
    assert!(
        !res.metrics.footprint.is_empty(),
        "the run must observe its memory footprint"
    );
}

#[test]
fn single_client_single_server_is_bounded_and_clean() {
    use stm_core::metrics::AbortReason;
    let bank = BankConfig::small(16, 50);
    let res = run_bank(&native_cfg(1), &bank, 3, 32);
    assert_eq!(res.stats.failed, 0);
    assert_eq!(res.stats.commits(), 32);
    // A lone client never loses validation against the ATR — its only
    // conflicts are batch-mates caught by intra-batch pre-validation.
    assert_eq!(
        res.stats.aborts(),
        res.metrics.aborts.count(AbortReason::PreValidationKill)
    );
    assert_eq!(res.metrics.aborts.count(AbortReason::ReadValidation), 0);
    // With no other reader registered, nothing is ever spilled: the
    // end-of-run footprint is the store's ring words and head indices.
    let cfg = native_cfg(1);
    let words = bank.accounts * (cfg.versions_per_box as u64 + 1);
    assert_eq!(res.metrics.gc.versions_spilled, 0);
    assert_eq!(res.metrics.gc.footprint_bytes, words * 8);
}

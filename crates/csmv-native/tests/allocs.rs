//! Heap allocations per commit, counted: a worker in steady state commits
//! out of buffers it reuses — executions, footprints, validation slots,
//! verdicts and the round's lanes — so a committed transaction costs no
//! allocation of its own. Bank transfers cover short footprints; the
//! sorted list, whose updates read hundreds of items, covers long ones.
//!
//! The `#[global_allocator]` below — a counting wrapper over `System` — is
//! the one piece of `unsafe` this package has, and it lives in this test
//! crate only: the library crate stays `#![forbid(unsafe_code)]`. It counts
//! every thread of the process, so this file holds a single test. What a
//! run costs once — the store, the ATR, the threads, the final state — is
//! the same at every length, so the difference between a short and a long
//! run, divided by the commits between them, is the steady-state cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use csmv_native::NativeConfig;
use workloads::{BankConfig, BankSource, ListConfig, ListSource};

/// Calls to `alloc`/`realloc` since the process started (a statistic:
/// `Relaxed`).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const THREADS: usize = 2;
const SHORT: usize = 20_000;
const LONG: usize = 60_000;
/// Transactions per thread of the short and the long list run: a list
/// update reads a few hundred items, so these take as long as Bank's.
const LIST_SHORT: usize = 2_000;
const LIST_LONG: usize = 6_000;

/// Allocations a committed transaction may cost in steady state. Measured
/// (EXPERIMENTS.md, "Allocation-free commit"): 6.56 per transfer and 11.16 per commit at 90 %
/// read-only with a `HashSet`, read and write vectors per execution and
/// fresh batch vectors per round; 0.001 and 0.000 with every buffer
/// reused. The bound is far above what is left and far below one
/// allocation per batch, so bringing back a vector per round fails here.
const MAX_ALLOCS_PER_COMMIT: f64 = 0.05;

/// Allocations and commits of one closed-loop Bank run, `per_thread`
/// transactions on each worker.
fn bank_run(rot_pct: u8, per_thread: usize) -> (u64, u64) {
    let bank = BankConfig::small(4096, rot_pct);
    let cfg = NativeConfig {
        client_threads: THREADS,
        record_history: false,
        ..NativeConfig::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = csmv_native::run(
        &cfg,
        |t| BankSource::new(&bank, 3, t, per_thread),
        bank.accounts,
        |_| bank.initial_balance,
    )
    .expect("the config is valid");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.stats.failed, 0);
    assert_eq!(result.stats.commits(), (THREADS * per_thread) as u64);
    (allocs, result.stats.commits())
}

/// Allocations and commits of one closed-loop run of `native-contend`'s
/// sorted-list set (30 % contains, keys 1–512), `per_thread` operations
/// on each worker. Every run gets the same pool, sized for the long one,
/// so the store costs the same at both lengths.
fn list_run(per_thread: usize) -> (u64, u64) {
    let list = ListConfig {
        key_range: 512,
        initial_nodes: 64,
        contains_pct: 30,
        pool_per_thread: LIST_LONG as u64,
        threads: THREADS,
    };
    let cfg = NativeConfig {
        client_threads: THREADS,
        record_history: false,
        ..NativeConfig::default()
    };
    let init = list.initial_state();
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = csmv_native::run(
        &cfg,
        |t| ListSource::new(&list, 5, t, per_thread),
        list.num_items(),
        |item| *init.get(&item).unwrap_or(&0),
    )
    .expect("the config is valid");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.stats.failed, 0);
    assert_eq!(result.stats.commits(), (THREADS * per_thread) as u64);
    (allocs, result.stats.commits())
}

/// Steady-state allocations per commit: the difference between a short
/// and a long run over the commits between them, checked against
/// [`MAX_ALLOCS_PER_COMMIT`].
fn check(
    what: &str,
    (short_allocs, short_commits): (u64, u64),
    (long_allocs, long_commits): (u64, u64),
) {
    let per_commit =
        long_allocs.saturating_sub(short_allocs) as f64 / (long_commits - short_commits) as f64;
    println!("allocations per commit, {what}: {per_commit:.3}");
    assert!(
        per_commit <= MAX_ALLOCS_PER_COMMIT,
        "{per_commit:.3} allocations per commit, {what}, bound {MAX_ALLOCS_PER_COMMIT}"
    );
}

#[test]
fn a_commit_in_steady_state_allocates_nothing() {
    for rot_pct in [0, 90] {
        check(
            &format!("Bank at {rot_pct} % read-only"),
            bank_run(rot_pct, SHORT),
            bank_run(rot_pct, LONG),
        );
    }
    check("sorted list", list_run(LIST_SHORT), list_run(LIST_LONG));
}

//! The native Aggregated Txn Record (ATR): a seqlock-tagged ring of
//! committed write-sets shared by every committing worker, plus the two
//! global counters (`next_cts`, GTS) the protocol revolves around.
//!
//! Entry classification, reservation and turn-taking decisions are *not*
//! made here — validators and workers feed the raw values read here
//! through the pure [`csmv::steps`] functions, the same ones the simulator
//! and the model checker use.
//!
//! ## Seqlock protocol
//!
//! An insert stores [`WRITING`] into the tag, writes the payload, then
//! stores the entry's cts. A reader loads the tag, classifies it
//! ([`csmv::steps::classify_tag`], with `WRITING` forced to in-flight),
//! copies the payload, and re-loads the tag: the copy is only valid if
//! both loads returned the expected cts. All tag and payload accesses are
//! `SeqCst`, which makes the classic torn-read argument go through: if a
//! payload copy observed any store of a concurrent insert, that insert's
//! `WRITING` tag store precedes the copy in the single total order, so the
//! re-load cannot still return the old cts and the copy is discarded.
//! Concurrent inserts into the same slot (laps ≥ capacity apart, only
//! possible if an inserter is descheduled between its CAS and its insert
//! for a whole ring lap) are serialized by a per-slot mutex and resolved
//! monotonically: an inserter that finds a newer lap already published
//! leaves it in place, so late stale inserts can never shadow a live
//! entry.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use csmv::steps::{self, ReserveOutcome, TagState};

/// Tag value marking an insert in progress. Classified as in-flight by
/// readers; never a valid cts (cts fits 32 bits).
const WRITING: u64 = u64::MAX;

pub(crate) struct NativeAtr {
    capacity: u64,
    max_ws: usize,
    /// Seqlock tag per slot: 0 (never used), `WRITING`, or the entry cts.
    tags: Vec<AtomicU64>,
    /// Payload length per slot.
    lens: Vec<AtomicU64>,
    /// Payload items, `slot * max_ws + k`.
    items: Vec<AtomicU64>,
    /// Insert serialization per slot (see module docs; uncontended in
    /// practice).
    slot_locks: Vec<Mutex<()>>,
    /// The next commit timestamp to hand out; reservation is one CAS.
    next_cts: AtomicU64,
    /// The Global Timestamp: newest fully written-back commit.
    gts: AtomicU64,
    /// Event-driven turn handoff: a worker waiting for its write-back
    /// turn registers `(base, thread)` here and parks; the publisher
    /// unparks exactly the waiter whose window the bump unblocked
    /// ([`csmv::steps::gts_turn_reached`]) — one wake per publish, no
    /// thundering herd. Scanning an empty list is a single uncontended
    /// lock.
    turn_waiters: Mutex<Vec<(u64, std::thread::Thread)>>,
}

impl NativeAtr {
    pub(crate) fn new(capacity: u64, max_ws: usize) -> Self {
        let n = capacity as usize;
        Self {
            capacity,
            max_ws,
            tags: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lens: (0..n).map(|_| AtomicU64::new(0)).collect(),
            items: (0..n * max_ws).map(|_| AtomicU64::new(0)).collect(),
            slot_locks: (0..n).map(|_| Mutex::new(())).collect(),
            next_cts: AtomicU64::new(1),
            gts: AtomicU64::new(0),
            turn_waiters: Mutex::new(Vec::new()),
        }
    }

    /// Write-set capacity of one entry.
    pub(crate) fn max_ws(&self) -> usize {
        self.max_ws
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current GTS — the snapshot new transactions execute against.
    pub(crate) fn gts(&self) -> u64 {
        self.gts.load(Ordering::SeqCst)
    }

    /// Publish a fully written-back batch window (the turn-holder's single
    /// GTS bump, [`csmv::steps::gts_publish_value`]).
    pub(crate) fn publish_gts(&self, value: u64) {
        self.gts.store(value, Ordering::SeqCst);
        // Wake the turn-waiter this bump unblocked (and, as a
        // defensive backstop, any waiter whose window the GTS has already
        // passed). Taking the lock after the store closes the lost-wakeup
        // race: a waiter that read the old GTS either still holds the
        // lock (so this scan runs after it registers) or has not locked
        // yet (and will re-check the GTS under the lock before parking).
        let mut waiters = self.turn_waiters.lock();
        waiters.retain(|(base, thread)| {
            if steps::gts_turn_reached(value, *base) || *base <= value {
                thread.unpark();
                false
            } else {
                true
            }
        });
    }

    /// Block until it is (or may be) `base`'s write-back turn, or
    /// `timeout` elapses. Spurious wakeups are fine; callers re-check
    /// their turn predicate in a loop, and the timeout backstops the
    /// run-deadline watchdog.
    pub(crate) fn wait_turn(&self, base: u64, timeout: Duration) {
        {
            let mut waiters = self.turn_waiters.lock();
            let gts = self.gts.load(Ordering::SeqCst);
            if steps::gts_turn_reached(gts, base) || base <= gts {
                return;
            }
            waiters.push((base, std::thread::current()));
        }
        std::thread::park_timeout(timeout);
        // Timeout or stale-token path: withdraw the registration if the
        // publisher has not already consumed it.
        let me = std::thread::current().id();
        self.turn_waiters
            .lock()
            .retain(|(_, thread)| thread.id() != me);
    }

    /// Block until the GTS has (or may have) moved past `seen`, or
    /// `timeout` elapses — the wait of a worker whose every runnable
    /// retry needs a newer snapshot
    /// ([`csmv::steps::retry_may_succeed`]). It parks on the turn-waiter
    /// list: the GTS first exceeds `seen` exactly when the turn of a
    /// batch based at `seen + 2` is reached or passed.
    pub(crate) fn wait_gts_past(&self, seen: u64, timeout: Duration) {
        self.wait_turn(seen + 2, timeout);
    }

    /// Threads parked for a turn right now.
    #[cfg(test)]
    pub(crate) fn parked_waiters(&self) -> usize {
        self.turn_waiters.lock().len()
    }

    /// Current reservation counter.
    pub(crate) fn next_cts(&self) -> u64 {
        self.next_cts.load(Ordering::SeqCst)
    }

    /// Live (reserved, not yet GTS-published) window size — the ATR
    /// occupancy metric.
    pub(crate) fn occupancy(&self) -> u64 {
        self.next_cts().saturating_sub(1 + self.gts())
    }

    /// One CAS attempt to reserve `n` consecutive timestamps at
    /// `expected`, decided by [`csmv::steps::reserve_outcome`].
    pub(crate) fn try_reserve(&self, expected: u64, n: u64) -> ReserveOutcome {
        let observed = match self.next_cts.compare_exchange(
            expected,
            expected + n,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(prev) => prev,
            Err(prev) => prev,
        };
        steps::reserve_outcome(observed, expected)
    }

    /// Publish the write-set of commit `cts` into its ring slot. The
    /// write-set must fit an entry: a truncated entry would hide writes
    /// from every validator, so workers fail an over-capacity execution
    /// before it gets here ([`NativeAtr::max_ws`]).
    pub(crate) fn insert(&self, cts: u64, ws: &[u64]) {
        assert!(
            ws.len() <= self.max_ws,
            "write-set exceeds ATR entry capacity"
        );
        let slot = (cts % self.capacity) as usize;
        let _serialize = self.slot_locks[slot].lock();
        let current = self.tags[slot].load(Ordering::SeqCst);
        if current != WRITING && current > cts {
            // A newer lap already owns the slot; our entry is dead anyway
            // (every snapshot that could need it is out of the window).
            return;
        }
        self.tags[slot].store(WRITING, Ordering::SeqCst);
        self.lens[slot].store(ws.len() as u64, Ordering::SeqCst);
        for (k, &item) in ws.iter().enumerate() {
            self.items[slot * self.max_ws + k].store(item, Ordering::SeqCst);
        }
        self.tags[slot].store(cts, Ordering::SeqCst);
    }

    /// Seqlock read of entry `cts`, classified through
    /// [`csmv::steps::classify_tag`]. `items` holds the entry's write-set
    /// when the answer is `Published` (the inserter has reserved but not
    /// yet published an `InFlight` entry — poll again; the ring recycled a
    /// `Recycled` one), and is unspecified otherwise.
    pub(crate) fn read_entry_into(&self, cts: u64, items: &mut Vec<u64>) -> TagState {
        let slot = (cts % self.capacity) as usize;
        let tag = self.tags[slot].load(Ordering::SeqCst);
        if tag == WRITING {
            return TagState::InFlight;
        }
        let state = steps::classify_tag(tag, cts);
        if state != TagState::Published {
            return state;
        }
        let n = (self.lens[slot].load(Ordering::SeqCst) as usize).min(self.max_ws);
        let payload = &self.items[slot * self.max_ws..][..n];
        items.clear();
        items.extend(payload.iter().map(|item| item.load(Ordering::SeqCst)));
        // Seqlock double-check: discard the copy if the slot moved on
        // while we were reading it.
        if self.tags[slot].load(Ordering::SeqCst) == cts {
            TagState::Published
        } else {
            TagState::Recycled
        }
    }
}

#[cfg(test)]
impl NativeAtr {
    /// A test standing in for another committer: reserve `cts` (it must be
    /// the next one) and insert its write-set. The entry is not written
    /// back — the GTS is the test's to publish, or to withhold.
    pub(crate) fn reserve_and_insert(&self, cts: u64, ws: &[u64]) {
        assert_eq!(self.try_reserve(cts, 1), ReserveOutcome::Won { base: cts });
        self.insert(cts, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_protocol_origin() {
        let atr = NativeAtr::new(8, 4);
        assert_eq!(atr.gts(), 0);
        assert_eq!(atr.next_cts(), 1);
        assert_eq!(atr.occupancy(), 0);
        assert_eq!(atr.capacity(), 8);
    }

    #[test]
    fn reserve_is_cas_over_next_cts() {
        let atr = NativeAtr::new(8, 4);
        assert_eq!(atr.try_reserve(1, 3), ReserveOutcome::Won { base: 1 });
        assert_eq!(atr.try_reserve(1, 1), ReserveOutcome::Lost { target: 4 });
        assert_eq!(atr.try_reserve(4, 1), ReserveOutcome::Won { base: 4 });
        assert_eq!(atr.next_cts(), 5);
        assert_eq!(atr.occupancy(), 4);
    }

    #[test]
    fn insert_then_read_round_trips() {
        let atr = NativeAtr::new(8, 4);
        let mut items = vec![99];
        // The reserved-not-inserted look.
        assert_eq!(atr.read_entry_into(1, &mut items), TagState::InFlight);
        atr.insert(1, &[10, 20]);
        assert_eq!(atr.read_entry_into(1, &mut items), TagState::Published);
        assert_eq!(items, [10, 20], "the buffer is replaced, not appended to");
    }

    #[test]
    fn recycled_laps_classify_as_recycled() {
        let atr = NativeAtr::new(4, 2);
        let mut items = Vec::new();
        atr.insert(1, &[7]);
        atr.insert(5, &[9]); // same slot, next lap
        assert_eq!(atr.read_entry_into(1, &mut items), TagState::Recycled);
        assert_eq!(atr.read_entry_into(5, &mut items), TagState::Published);
        assert_eq!(items, [9]);
        // A late stale insert must not shadow the live lap.
        atr.insert(1, &[7]);
        assert_eq!(atr.read_entry_into(5, &mut items), TagState::Published);
        assert_eq!(items, [9]);
    }

    #[test]
    fn gts_publication_round_trips() {
        let atr = NativeAtr::new(4, 2);
        atr.publish_gts(3);
        assert_eq!(atr.gts(), 3);
    }

    #[test]
    fn wait_turn_returns_immediately_when_turn_reached() {
        let atr = NativeAtr::new(4, 2);
        atr.publish_gts(2);
        // Exact turn (gts + 1 == base) and already-passed windows must not
        // park at all — no registration is left behind either way.
        atr.wait_turn(3, Duration::from_secs(5));
        atr.wait_turn(1, Duration::from_secs(5));
        assert!(atr.turn_waiters.lock().is_empty());
    }

    #[test]
    fn publish_gts_unparks_registered_waiter() {
        use std::sync::Arc;

        let atr = Arc::new(NativeAtr::new(8, 2));
        let waiter = {
            let atr = Arc::clone(&atr);
            std::thread::spawn(move || {
                // Loop like the worker does: spurious wakeups are allowed,
                // only a reached turn ends the wait.
                while !steps::gts_turn_reached(atr.gts(), 4) {
                    atr.wait_turn(4, Duration::from_secs(5));
                }
            })
        };
        // Let the waiter register and park, then publish the bump that
        // unblocks its window.
        while atr.turn_waiters.lock().is_empty() {
            std::thread::yield_now();
        }
        atr.publish_gts(3);
        waiter.join().expect("waiter thread panicked");
        assert!(atr.turn_waiters.lock().is_empty());
        assert_eq!(atr.gts(), 3);
    }

    #[test]
    fn wait_gts_past_wakes_on_the_first_publication_past_the_seen_value() {
        use std::sync::Arc;

        let atr = Arc::new(NativeAtr::new(8, 2));
        atr.publish_gts(5);
        // Already past: no park, no registration.
        atr.wait_gts_past(4, Duration::from_secs(5));
        assert!(atr.turn_waiters.lock().is_empty());
        let waiter = {
            let atr = Arc::clone(&atr);
            std::thread::spawn(move || {
                while atr.gts() <= 5 {
                    atr.wait_gts_past(5, Duration::from_secs(5));
                }
            })
        };
        while atr.turn_waiters.lock().is_empty() {
            std::thread::yield_now();
        }
        atr.publish_gts(6);
        waiter.join().expect("waiter thread panicked");
        assert!(atr.turn_waiters.lock().is_empty());
    }

    #[test]
    fn wait_turn_timeout_withdraws_registration() {
        let atr = NativeAtr::new(4, 2);
        // Nobody publishes; the park times out and the waiter must remove
        // its own registration so dead entries cannot accumulate.
        atr.wait_turn(7, Duration::from_millis(5));
        assert!(atr.turn_waiters.lock().is_empty());
    }
}

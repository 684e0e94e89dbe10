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
//! The standard seqlock (Boehm, MSPC 2012). An insert takes the slot with
//! one CAS of its tag to [`WRITING`], issues a `Release` fence, writes the
//! payload `Relaxed` and stores the entry's cts `Release`. A reader loads
//! the tag `Acquire` and classifies it ([`csmv::steps::classify_tag`],
//! `WRITING` as in-flight), copies the payload `Relaxed`, issues an
//! `Acquire` fence and re-loads the tag; the copy counts only if both
//! loads returned the cts. If the copy saw a store of a later insert, the
//! two fences synchronize, so that insert's `WRITING` precedes the re-load
//! and the copy is discarded. The CAS (`Acquire`: the lap it replaces is
//! ordered before it) also serializes inserts a lap apart in one slot: it
//! waits out a `WRITING` tag, and a late insert that finds a newer lap
//! leaves it in place. `next_cts`, the GTS and the registry stay `SeqCst`.

use parking_lot::Mutex;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

use csmv::steps::{self, ReserveOutcome, TagState};

/// Tag value marking an insert in progress. Classified as in-flight by
/// readers; never a valid cts (cts fits 32 bits).
const WRITING: u64 = u64::MAX;

pub(crate) struct NativeAtr {
    capacity: u64,
    max_ws: usize,
    /// `max_ws + 2` words per slot, so that an entry shares its cache
    /// lines: the seqlock tag (0 never used, `WRITING`, or the entry cts),
    /// the payload length, then the payload items.
    words: Vec<AtomicU64>,
    /// The next commit timestamp to hand out; reservation is one CAS.
    next_cts: AtomicU64,
    /// The Global Timestamp: newest fully written-back commit.
    gts: AtomicU64,
    /// Event-driven turn handoff: a worker waiting for its write-back
    /// turn registers `(base, thread)` here and parks; the publisher
    /// unparks exactly the waiter whose window the bump unblocked
    /// ([`csmv::steps::gts_turn_reached`]), one wake per publish.
    turn_waiters: Mutex<Vec<(u64, std::thread::Thread)>>,
}

impl NativeAtr {
    pub(crate) fn new(capacity: u64, max_ws: usize) -> Self {
        let n = capacity as usize;
        Self {
            capacity,
            max_ws,
            words: (0..n * (max_ws + 2)).map(|_| AtomicU64::new(0)).collect(),
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

    /// The words of the slot entry `cts` lives in: a mask, not a
    /// division, finds it in a ring of power-of-two capacity.
    fn slot(&self, cts: u64) -> &[AtomicU64] {
        let index = if self.capacity.is_power_of_two() {
            cts & (self.capacity - 1)
        } else {
            cts % self.capacity
        };
        let stride = self.max_ws + 2;
        &self.words[index as usize * stride..][..stride]
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
    /// `deadline` passes: a park ends at the publication that unblocks it,
    /// or at the run deadline, never on a timer of its own. Spurious
    /// wakeups are fine; callers re-check their turn predicate in a loop.
    pub(crate) fn wait_turn(&self, base: u64, deadline: Instant) {
        {
            let mut waiters = self.turn_waiters.lock();
            let gts = self.gts.load(Ordering::SeqCst);
            if steps::gts_turn_reached(gts, base) || base <= gts {
                return;
            }
            waiters.push((base, std::thread::current()));
        }
        std::thread::park_timeout(deadline.saturating_duration_since(Instant::now()));
        // Deadline or stale-token path: withdraw the registration if the
        // publisher has not already consumed it.
        let me = std::thread::current().id();
        self.turn_waiters
            .lock()
            .retain(|(_, thread)| thread.id() != me);
    }

    /// Block until the GTS has (or may have) moved past `seen`, or
    /// `deadline` passes — the wait of a worker whose every runnable
    /// retry needs a newer snapshot
    /// ([`csmv::steps::retry_may_succeed`]). It parks on the turn-waiter
    /// list: the GTS first exceeds `seen` exactly when the turn of a
    /// batch based at `seen + 2` is reached or passed.
    pub(crate) fn wait_gts_past(&self, seen: u64, deadline: Instant) {
        self.wait_turn(seen + 2, deadline);
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
        let slot = self.slot(cts);
        let (tag, len, items) = (&slot[0], &slot[1], &slot[2..]);
        loop {
            let current = tag.load(Relaxed);
            if current == WRITING {
                // Another lap is mid-insert: wait it out.
                std::thread::yield_now();
            } else if current > cts {
                // A newer lap owns the slot; our entry is dead anyway
                // (every snapshot that could need it is out of the window).
                return;
            } else if tag
                .compare_exchange(current, WRITING, Acquire, Relaxed)
                .is_ok()
            {
                // `Acquire`: the lap replaced is ordered before our stores.
                break;
            }
        }
        fence(Release);
        len.store(ws.len() as u64, Relaxed);
        for (word, &item) in items.iter().zip(ws) {
            word.store(item, Relaxed);
        }
        tag.store(cts, Release);
    }

    /// Seqlock read of entry `cts`, classified through
    /// [`csmv::steps::classify_tag`]. `items` holds the entry's write-set
    /// when the answer is `Published` (the inserter has reserved but not
    /// yet published an `InFlight` entry — poll again; the ring recycled a
    /// `Recycled` one), and is unspecified otherwise.
    pub(crate) fn read_entry_into(&self, cts: u64, items: &mut Vec<u64>) -> TagState {
        let slot = self.slot(cts);
        let (tag, len, payload) = (&slot[0], &slot[1], &slot[2..]);
        let tag_seen = tag.load(Acquire);
        if tag_seen == WRITING {
            return TagState::InFlight;
        }
        let state = steps::classify_tag(tag_seen, cts);
        if state != TagState::Published {
            return state;
        }
        let n = (len.load(Relaxed) as usize).min(self.max_ws);
        items.clear();
        items.extend(payload[..n].iter().map(|item| item.load(Relaxed)));
        // Seqlock double-check: discard the copy if the slot moved on
        // while we were reading it.
        fence(Acquire);
        if tag.load(Relaxed) == cts {
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
    use std::time::Duration;

    /// A deadline no test reaches.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

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

    /// Does `items` hold the lapping tests' payload of entry `cts`? Its
    /// length and its items are functions of `cts`, so a copy of another
    /// lap, or one torn between two laps, cannot pass for it.
    fn is_payload_of(items: &[u64], cts: u64, max_ws: usize) -> bool {
        items.len() == 1 + cts as usize % max_ws
            && (0..).zip(items).all(|(k, &item)| item == cts * 8 + k)
    }

    /// Two inserters drive a ring of `capacity` slots through laps, each
    /// taking its next cts from a shared counter, so two inserts a lap
    /// apart can meet in one slot; two readers meanwhile copy the newest
    /// entries. Every `Published` copy must be its cts's payload, and no
    /// slot's tag may ever go back. All four threads start together, and
    /// the inserters yield now and then, so that readers get the CPU
    /// while laps are driven on a host with fewer cores than threads.
    fn lapping(capacity: u64, inserts: u64) {
        const MAX_WS: usize = 3;
        let atr = NativeAtr::new(capacity, MAX_WS);
        let next = AtomicU64::new(1);
        let last = 2 * inserts;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut ws = Vec::with_capacity(MAX_WS);
                    start.wait();
                    for _ in 0..inserts {
                        let cts = next.fetch_add(1, Ordering::Relaxed);
                        ws.clear();
                        ws.extend((0..=cts % MAX_WS as u64).map(|k| cts * 8 + k));
                        atr.insert(cts, &ws);
                        if cts.is_multiple_of(256) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut items = Vec::new();
                        let mut tags = vec![0; capacity as usize];
                        let mut published = 0u64;
                        while next.load(Ordering::Relaxed) <= last {
                            let newest = next.load(Ordering::Relaxed) - 1;
                            for cts in newest.saturating_sub(capacity).max(1)..=newest {
                                if atr.read_entry_into(cts, &mut items) == TagState::Published {
                                    assert!(
                                        is_payload_of(&items, cts, MAX_WS),
                                        "entry {cts} read as {items:?}"
                                    );
                                    published += 1;
                                }
                            }
                            for (slot, seen) in tags.iter_mut().enumerate() {
                                let tag = atr.slot(slot as u64)[0].load(Ordering::Acquire);
                                if tag != WRITING {
                                    assert!(tag >= *seen, "slot {slot}: tag {tag} after {seen}");
                                    *seen = tag;
                                }
                            }
                        }
                        published
                    })
                })
                .collect();
            let published: u64 = readers
                .into_iter()
                .map(|reader| reader.join().expect("reader panicked"))
                .sum();
            assert!(published > 0, "no reader saw a published entry");
        });
        // Quiescent: the last lap of every slot is published, and whole.
        let mut items = Vec::new();
        for cts in last + 1 - capacity..=last {
            assert_eq!(atr.read_entry_into(cts, &mut items), TagState::Published);
            assert!(is_payload_of(&items, cts, MAX_WS), "entry {cts}");
        }
    }

    #[test]
    fn lapping_inserts_and_seqlock_reads_agree() {
        for capacity in 2..=4 {
            lapping(capacity, 20_000);
        }
    }

    /// The lapping test at length; CI runs it in release.
    #[test]
    #[ignore = "long: run in release with --ignored"]
    fn lapping_inserts_and_seqlock_reads_agree_at_length() {
        for capacity in 2..=4 {
            lapping(capacity, 2_000_000);
        }
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
        atr.wait_turn(3, far());
        atr.wait_turn(1, far());
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
                    atr.wait_turn(4, far());
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
        atr.wait_gts_past(4, far());
        assert!(atr.turn_waiters.lock().is_empty());
        let waiter = {
            let atr = Arc::clone(&atr);
            std::thread::spawn(move || {
                while atr.gts() <= 5 {
                    atr.wait_gts_past(5, far());
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
        // Nobody publishes; the park ends at the deadline and the waiter
        // must remove its own registration so dead entries cannot
        // accumulate.
        atr.wait_turn(7, Instant::now() + Duration::from_millis(5));
        assert!(atr.turn_waiters.lock().is_empty());
        // A deadline already passed parks for no time at all.
        atr.wait_turn(7, Instant::now() - Duration::from_millis(1));
        assert!(atr.turn_waiters.lock().is_empty());
    }

    /// With no publisher, a park lasts until the deadline: it does not end
    /// early on a slice of its own. (Spurious wakeups are allowed, so the
    /// caller's loop is what is timed, as the worker's is.)
    #[test]
    fn a_park_with_no_publisher_returns_at_the_deadline() {
        let atr = NativeAtr::new(4, 2);
        let wait = Duration::from_millis(30);
        let start = Instant::now();
        let deadline = start + wait;
        let mut parks = 0;
        while Instant::now() < deadline {
            atr.wait_turn(7, deadline);
            parks += 1;
        }
        let waited = start.elapsed();
        assert!(waited >= wait);
        assert!(
            parks < 10,
            "{parks} parks in {waited:?}: a park must last until the deadline"
        );
        assert!(atr.turn_waiters.lock().is_empty());
    }
}

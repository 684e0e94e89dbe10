//! The native multi-versioned store: per-item bounded version rings over
//! real atomics, with reader-gated version GC.
//!
//! Layout mirrors the simulator's `stm_core::vbox` packing — each version
//! is one `AtomicU64` packing `(cts << 32) | value` so a version can never
//! tear — with a per-item head index pointing at the newest slot.
//!
//! ## Ordering
//!
//! Write-backs are serialized *globally* by GTS turn-taking: a turn check
//! is a `SeqCst` load of the value the previous holder's `SeqCst` GTS
//! store published after its write-back. So everything one holder wrote —
//! slots, heads, the per-item spill flags, the GC counters — happens
//! before the next holder reads it: `publish_gated` needs no CAS, and the
//! holder's own state is loaded and stored `Relaxed`. For readers, a slot
//! and then its head are stored `Release` and loaded `Acquire`. A reader
//! walks newest → oldest from a head snapshot. Every version written
//! concurrently carries a cts above any active reader's snapshot (a GTS
//! value published *before* the writer's turn), so a reader only accepts
//! versions written before its snapshot; and because the ring recycles
//! oldest-first, a reader whose version was recycled sees only too-new
//! timestamps and fails with a safe, spurious `VersionOverflow`.
//!
//! ## Reader-gated recycling (version GC)
//!
//! [`NativeStore::publish_gated`] consults the registered reader snapshots
//! (see [`stm_core::gc::SnapshotRegistry`]) before recycling the oldest
//! ring slot. A victim version still needed by a registered snapshot —
//! [`csmv::steps::version_needed`] over the victim and its successor — is
//! *spilled* to the item's overflow list instead of destroyed, and the
//! overflow list is pruned on the same pass down to exactly the entries
//! some registered snapshot still resolves on. Per item that is at most
//! one spilled version per registry slot, so the store's footprint is
//! bounded by `ring + reader_slots` versions per item no matter how long a
//! reader pins its snapshot. Retention is thereby adaptive per object:
//! write-hot items nobody snapshots old stay at ring depth (effectively
//! single-version once the watermark passes), while items a long reader
//! needs keep deep history. The spill push happens strictly *before* the
//! ring slot is overwritten, so a retained version is findable (ring or
//! spill) at every instant; spill entries live under a per-item mutex, so
//! they cannot tear either. The turn holder flags each item whose spill
//! list is non-empty, so recycling a victim nobody needs from an item with
//! no spill entry takes no lock; readers never read the flags.
//!
//! Spilled versions carry their **coverage upper bound** — the successor's
//! cts at spill time — because retention is per-version, not prefix: the
//! versions *between* a retained spill entry and the ring may have been
//! reclaimed for good (nobody registered needed them). A spill entry
//! therefore only answers snapshots in `[cts, cover_end)`; a snapshot in a
//! reclaimed hole gets `None` (the safe, retriable
//! `VersionOverflow`/`SnapshotTooOld` abort) rather than a silently stale
//! older value.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use csmv::steps;
use stm_core::metrics::GcStats;

/// Sentinel for a never-written version slot.
const EMPTY: u64 = u64::MAX;

#[inline]
fn pack(ts: u64, value: u64) -> u64 {
    debug_assert!(ts < u32::MAX as u64, "commit timestamp must fit 32 bits");
    debug_assert!(value <= u32::MAX as u64, "value must fit 32 bits");
    (ts << 32) | value
}

#[inline]
fn unpack(word: u64) -> (u64, u64) {
    (word >> 32, word & u32::MAX as u64)
}

/// `counter += n`, by the single writer: only the write-back turn holder
/// updates the GC counters, so a `Relaxed` load and store do what a
/// read-modify-write would (see the module's ordering section; every other
/// reader wants a statistic). Lock-prefixed RMWs here cost a Bank
/// transfer workload ≈ 4 % of its commits per second.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// `counter = max(counter, value)`, by the single writer (see [`bump`]).
#[inline]
fn raise(counter: &AtomicU64, value: u64) {
    if value > counter.load(Ordering::Relaxed) {
        counter.store(value, Ordering::Relaxed);
    }
}

/// The shared heap: `num_items` items × `versions_per_box` packed
/// versions, plus per-item GC overflow lists.
pub struct NativeStore {
    versions_per_box: usize,
    /// Ring index of the newest version, per item.
    heads: Vec<AtomicU64>,
    /// `item * versions_per_box + slot` → packed `(cts, value)`.
    slots: Vec<AtomicU64>,
    /// Per-item spilled versions `(cts, cover_end, value)`, ascending cts:
    /// versions recycled out of the ring while a registered reader still
    /// needed them, each resolving the snapshots in `[cts, cover_end)`
    /// (module docs). Mutated only by the write-back turn holder.
    spill: Vec<Mutex<Vec<(u64, u64, u64)>>>,
    /// Per item: is its spill list non-empty? Only the turn holder reads
    /// or writes it (module docs).
    has_spill: Vec<AtomicBool>,
    /// Live spill entries across all items (footprint accounting).
    spill_total: AtomicU64,
    /// GC counters, updated by the single writer with relaxed stores
    /// ([`bump`], [`raise`]).
    reclaimed: AtomicU64,
    spilled: AtomicU64,
    spill_pruned: AtomicU64,
    max_list_len: AtomicU64,
}

impl NativeStore {
    /// Build a store with every item holding one initial version at ts 0.
    pub fn new(
        num_items: u64,
        versions_per_box: usize,
        mut initial: impl FnMut(u64) -> u64,
    ) -> Self {
        let n = num_items as usize;
        let mut heads = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n * versions_per_box);
        let mut spill = Vec::with_capacity(n);
        for i in 0..n {
            slots.push(AtomicU64::new(pack(0, initial(i as u64))));
            for _ in 1..versions_per_box {
                slots.push(AtomicU64::new(EMPTY));
            }
            heads.push(AtomicU64::new(0));
            spill.push(Mutex::new(Vec::new()));
        }
        Self {
            versions_per_box,
            heads,
            slots,
            spill,
            has_spill: (0..n).map(|_| AtomicBool::new(false)).collect(),
            spill_total: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            spill_pruned: AtomicU64::new(0),
            max_list_len: AtomicU64::new(0),
        }
    }

    /// Number of items in the heap.
    #[cfg(test)]
    pub fn num_items(&self) -> u64 {
        self.heads.len() as u64
    }

    /// Newest committed value with `cts <= snapshot`, or `None` when the
    /// version rolled out of the ring and was not retained for any
    /// registered reader (the `VersionOverflow` / `SnapshotTooOld` abort).
    pub fn read_at(&self, item: u64, snapshot: u64) -> Option<u64> {
        let vpb = self.versions_per_box;
        let base = item as usize * vpb;
        // Newest to oldest: down from the head, wrapping at the bottom (a
        // `%` by the run-time ring depth is a division per version walked).
        let mut slot = self.heads[item as usize].load(Ordering::Acquire) as usize;
        for _ in 0..vpb {
            let word = self.slots[base + slot].load(Ordering::Acquire);
            if word == EMPTY {
                // Walked past the oldest version ever written; the ring
                // never wrapped, so nothing can be in the spill either.
                return None;
            }
            let (ts, value) = unpack(word);
            if ts <= snapshot {
                return Some(value);
            }
            slot = if slot == 0 { vpb - 1 } else { slot - 1 };
        }
        // Ring exhausted with only too-new timestamps: the version this
        // snapshot needs was recycled — unless the GC spilled it for a
        // registered reader. Only an entry whose coverage contains the
        // snapshot may answer: an entry merely *older* than the snapshot
        // can have reclaimed versions between itself and the ring, and
        // serving it would be a stale read, not a snapshot read.
        let list = self.spill[item as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        list.iter()
            .rev()
            .find(|&&(ts, cover_end, _)| ts <= snapshot && snapshot < cover_end)
            .map(|&(_, _, v)| v)
    }

    /// Publish one version with the current registered reader snapshots
    /// (in any order). Callers must hold the GTS write-back turn (module
    /// docs). The recycled victim is spilled, not destroyed, when some
    /// registered snapshot still resolves on it, and the item's spill list
    /// is pruned down to the entries registered snapshots still need.
    pub fn publish_gated(&self, item: u64, cts: u64, value: u64, readers: &[u64]) {
        let vpb = self.versions_per_box;
        let base = item as usize * vpb;
        let head = self.heads[item as usize].load(Ordering::Relaxed) as usize;
        let next = (head + 1) % vpb;
        let victim = self.slots[base + next].load(Ordering::Relaxed);
        if victim == EMPTY {
            // Slots fill in ring order: before the first wrap, slots
            // `0..=next` hold versions once this one lands, and nothing
            // was ever recycled, so nothing of this item is spilled.
            raise(&self.max_list_len, (next + 1) as u64);
        } else {
            // The oldest version that will remain in the ring after the
            // overwrite — the victim's successor for the retention check.
            let successor_ts = if vpb == 1 {
                cts
            } else {
                unpack(self.slots[base + (head + 2) % vpb].load(Ordering::Relaxed)).0
            };
            let (vts, vval) = unpack(victim);
            let needed = steps::version_needed(vts, successor_ts, readers.iter().copied());
            // Spill entries left; no lock without one or a victim to keep.
            let mut listed = 0;
            let has_spill = &self.has_spill[item as usize];
            if needed || has_spill.load(Ordering::Relaxed) {
                let mut list = self.spill[item as usize]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if needed {
                    // Coverage is fixed at spill time: the entry resolves
                    // exactly the snapshots in [vts, successor_ts).
                    list.push((vts, successor_ts, vval));
                    bump(&self.spilled, 1);
                    bump(&self.spill_total, 1);
                }
                // Prune to the entries a registered snapshot still resolves
                // on within their coverage: at most one per reader.
                let before = list.len();
                list.retain(|&(ts, cover_end, _)| {
                    steps::version_needed(ts, cover_end, readers.iter().copied())
                });
                let pruned = (before - list.len()) as u64;
                if pruned > 0 {
                    bump(&self.spill_pruned, pruned);
                    // Saturating: a miscount misreports, never wraps.
                    let live = self.spill_total.load(Ordering::Relaxed);
                    self.spill_total
                        .store(live.saturating_sub(pruned), Ordering::Relaxed);
                }
                listed = list.len();
                has_spill.store(listed > 0, Ordering::Relaxed);
            }
            if !needed {
                bump(&self.reclaimed, 1);
            }
            raise(&self.max_list_len, (vpb + listed) as u64);
        }
        self.slots[base + next].store(pack(cts, value), Ordering::Release);
        self.heads[item as usize].store(next as u64, Ordering::Release);
    }

    /// [`NativeStore::publish_gated`] with no registered readers: every
    /// recycled victim is reclaimed in place (the pre-GC behaviour).
    #[cfg(test)]
    pub fn publish(&self, item: u64, cts: u64, value: u64) {
        self.publish_gated(item, cts, value, &[]);
    }

    /// The newest committed value of every item — the run's final state.
    /// Only meaningful once all workers have joined.
    pub fn final_state(&self) -> HashMap<u64, u64> {
        let vpb = self.versions_per_box;
        let mut out = HashMap::with_capacity(self.heads.len());
        for i in 0..self.heads.len() {
            let head = self.heads[i].load(Ordering::Acquire) as usize;
            let word = self.slots[i * vpb + head].load(Ordering::Acquire);
            debug_assert_ne!(word, EMPTY, "head slot must hold a version");
            let (_, value) = unpack(word);
            out.insert(i as u64, value);
        }
        out
    }

    /// Bytes of live version storage: ring words + head indices + spilled
    /// versions (cts + coverage bound + value). O(1) — the spill
    /// population is counter-tracked.
    pub fn footprint_bytes(&self) -> u64 {
        let words = (self.slots.len() + self.heads.len()) as u64;
        words * 8 + self.spill_total.load(Ordering::Relaxed) * 24
    }

    /// GC counters accumulated so far and the footprint now
    /// (`pinned_commits` is a worker-side counter and stays 0 here). Merge
    /// this into the run report exactly once — the store is shared by
    /// every worker.
    pub fn gc_stats(&self) -> GcStats {
        GcStats {
            versions_reclaimed: self.reclaimed.load(Ordering::Relaxed),
            versions_spilled: self.spilled.load(Ordering::Relaxed),
            spill_pruned: self.spill_pruned.load(Ordering::Relaxed),
            pinned_commits: 0,
            max_version_list_len: self.max_list_len.load(Ordering::Relaxed),
            footprint_bytes: self.footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_versions_at_ts_zero() {
        let s = NativeStore::new(4, 3, |i| 10 + i);
        for i in 0..4 {
            assert_eq!(s.read_at(i, 0), Some(10 + i));
            assert_eq!(s.read_at(i, 99), Some(10 + i));
        }
        assert_eq!(s.num_items(), 4);
    }

    #[test]
    fn snapshot_reads_walk_back() {
        let s = NativeStore::new(1, 4, |_| 0);
        s.publish(0, 1, 100);
        s.publish(0, 3, 300);
        assert_eq!(s.read_at(0, 0), Some(0));
        assert_eq!(s.read_at(0, 1), Some(100));
        assert_eq!(s.read_at(0, 2), Some(100));
        assert_eq!(s.read_at(0, 3), Some(300));
        assert_eq!(s.read_at(0, u32::MAX as u64 - 1), Some(300));
    }

    #[test]
    fn ring_overflow_reports_none() {
        let s = NativeStore::new(1, 2, |_| 0);
        s.publish(0, 5, 1);
        s.publish(0, 6, 2);
        // Versions at ts 0 and 5 are gone; snapshot 4 can't be served.
        assert_eq!(s.read_at(0, 4), None);
        assert_eq!(s.read_at(0, 5), Some(1));
        assert_eq!(s.read_at(0, 6), Some(2));
        let gc = s.gc_stats();
        assert_eq!(gc.versions_reclaimed, 1); // cts 5 filled the empty slot
        assert_eq!(gc.versions_spilled, 0);
    }

    #[test]
    fn registered_reader_keeps_its_version_across_a_ring_wrap() {
        let s = NativeStore::new(1, 2, |_| 0);
        // A reader is registered at snapshot 0; wrap the ring repeatedly.
        let readers = [0u64];
        for cts in 1..=8 {
            s.publish_gated(0, cts, 100 + cts, &readers);
        }
        // The snapshot-0 version survived in the spill...
        assert_eq!(s.read_at(0, 0), Some(0));
        // ...and exactly one spilled version is retained for one reader.
        let gc = s.gc_stats();
        assert_eq!(gc.versions_spilled, 1);
        assert_eq!(gc.spill_pruned, 0);
        assert_eq!(gc.versions_reclaimed, 6);
        assert!(gc.max_version_list_len <= 3, "{}", gc.max_version_list_len);
        // Newer snapshots read from the ring as usual.
        assert_eq!(s.read_at(0, 8), Some(108));
    }

    #[test]
    fn spill_is_pruned_once_no_reader_needs_it() {
        let s = NativeStore::new(1, 2, |_| 0);
        s.publish_gated(0, 1, 11, &[0]); // fills the empty slot, no victim
        s.publish_gated(0, 2, 22, &[0]); // spills ts 0 for the reader
        assert_eq!(s.gc_stats().versions_spilled, 1);
        assert_eq!(s.read_at(0, 0), Some(0));
        // Reader gone: the next publish prunes the stale spill entry.
        s.publish_gated(0, 3, 33, &[]);
        let gc = s.gc_stats();
        assert_eq!(gc.spill_pruned, 1);
        assert_eq!(s.read_at(0, 0), None);
        assert_eq!(s.footprint_bytes(), (2 + 1) * 8);
    }

    /// The longest version list of `item` by counting: occupied ring slots
    /// plus spill entries.
    fn counted_list_len(s: &NativeStore, item: u64) -> u64 {
        let vpb = s.versions_per_box;
        let ring = s.slots[item as usize * vpb..][..vpb]
            .iter()
            .filter(|w| w.load(Ordering::Relaxed) != EMPTY)
            .count();
        let spilled = s.spill[item as usize].lock().unwrap().len();
        (ring + spilled) as u64
    }

    /// The ring length comes from the slot index, not from a scan: it
    /// agrees with counting on a fresh ring, a partly filled one, across
    /// the wrap, with a spill entry on top, and at one version per box.
    #[test]
    fn max_version_list_len_matches_counting_the_slots() {
        for vpb in [1, 2, 3, 8] {
            let s = NativeStore::new(2, vpb, |_| 0);
            assert_eq!(s.gc_stats().max_version_list_len, 0, "nothing published");
            let mut longest = 0;
            for cts in 1..=2 * vpb as u64 + 1 {
                // A reader at snapshot 1 keeps one spill entry once the
                // version at 1 is recycled.
                s.publish_gated(0, cts, cts, &[1]);
                longest = longest.max(counted_list_len(&s, 0));
                assert_eq!(
                    s.gc_stats().max_version_list_len,
                    longest,
                    "vpb {vpb} cts {cts}"
                );
            }
            assert_eq!(longest, vpb as u64 + 1, "vpb {vpb}: the ring and one spill");
        }
    }

    mod per_item {
        //! The per-item spill flag: runs of publishes with no registered
        //! reader (where an item with no spill entry is recycled without
        //! its lock) interleaved with runs under a reader that forces
        //! spills on the items it outlives, and prunes once it is gone.

        use super::super::NativeStore;
        use super::counted_list_len;
        use proptest::prelude::*;
        use std::sync::atomic::Ordering;

        const ITEMS: u64 = 4;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64 })]

            #[test]
            fn unlocked_recycles_interleave_with_spilling_readers(
                vpb in 1usize..=3,
                // Per run: a reader registered at the run's first snapshot
                // (1) or none (0), and the items the run publishes to.
                runs in proptest::collection::vec(
                    (0u8..=1, proptest::collection::vec(0..ITEMS, 1..=12)),
                    1..=12,
                ),
            ) {
                let s = NativeStore::new(ITEMS, vpb, |i| i);
                // Every version ever published, per item: the reference.
                let mut history: Vec<Vec<(u64, u64)>> = (0..ITEMS).map(|i| vec![(0, i)]).collect();
                let (mut cts, mut recycles, mut longest) = (0, 0, 0);
                for (reader, items) in runs {
                    let readers: Vec<u64> = if reader == 1 { vec![cts] } else { Vec::new() };
                    for item in items {
                        cts += 1;
                        let value = cts * 10 + item;
                        let versions = &mut history[item as usize];
                        // The initial version sits in slot 0, so the
                        // first `vpb - 1` publishes fill empty slots.
                        recycles += u64::from(versions.len() >= vpb);
                        versions.push((cts, value));
                        s.publish_gated(item, cts, value, &readers);
                        let flagged = s.has_spill[item as usize].load(Ordering::Relaxed);
                        let spilled = !s.spill[item as usize].lock().unwrap().is_empty();
                        prop_assert_eq!(flagged, spilled, "item {} at cts {}", item, cts);
                        longest = longest.max(counted_list_len(&s, item));
                        prop_assert_eq!(s.gc_stats().max_version_list_len, longest);
                    }
                    for (item, versions) in (0..).zip(&history) {
                        for snap in 0..=cts {
                            let newest = versions.iter().rev().find(|&&(ts, _)| ts <= snap);
                            let expected = newest.map(|&(_, v)| v);
                            let read = s.read_at(item, snap);
                            // An answer is never stale; the registered
                            // snapshot and the newest one always have one.
                            prop_assert!(read.is_none() || read == expected, "item {} snapshot {}", item, snap);
                            if readers.contains(&snap) || snap == cts {
                                prop_assert_eq!(read, expected, "item {} snapshot {}", item, snap);
                            }
                        }
                    }
                }
                let gc = s.gc_stats();
                prop_assert_eq!(gc.versions_reclaimed + gc.versions_spilled, recycles);
                let listed: u64 = (0..ITEMS as usize)
                    .map(|i| s.spill[i].lock().unwrap().len() as u64)
                    .sum();
                prop_assert_eq!(gc.versions_spilled - gc.spill_pruned, listed);
                prop_assert_eq!(gc.footprint_bytes, ITEMS * (vpb as u64 + 1) * 8 + listed * 24);
            }
        }
    }

    #[test]
    fn reader_between_retained_versions_keeps_only_its_cover() {
        let s = NativeStore::new(1, 2, |_| 0);
        let readers = [3u64];
        for cts in 1..=6 {
            s.publish_gated(0, cts, cts * 10, &readers);
        }
        // Snapshot 3 resolves on cts 3; versions 0,1,2 must not linger.
        assert_eq!(s.read_at(0, 3), Some(30));
        let gc = s.gc_stats();
        assert!(gc.max_version_list_len <= 3, "{}", gc.max_version_list_len);
        assert_eq!(s.footprint_bytes(), (2 + 1) * 8 + 24);
    }

    #[test]
    fn uncovered_snapshot_between_spill_and_ring_gets_none() {
        let s = NativeStore::new(1, 2, |_| 0);
        // A reader pinned at snapshot 0 keeps the ts-0 version spilled
        // while the versions at ts 1..=4 are reclaimed for good.
        let readers = [0u64];
        for cts in 1..=6 {
            s.publish_gated(0, cts, 100 + cts, &readers);
        }
        assert_eq!(s.read_at(0, 0), Some(0));
        // Snapshots 1..=4 fall in the reclaimed hole between the spill
        // entry (covers [0, 1)) and the ring (ts 5, 6): they must get the
        // safe retriable None, never the stale ts-0 value.
        for snap in 1..=4 {
            assert_eq!(s.read_at(0, snap), None, "snapshot {snap}");
        }
        assert_eq!(s.read_at(0, 5), Some(105));
        assert_eq!(s.read_at(0, 6), Some(106));
    }

    #[test]
    fn final_state_is_newest_versions() {
        let s = NativeStore::new(3, 2, |i| i);
        s.publish(1, 7, 42);
        let fs = s.final_state();
        assert_eq!(fs[&0], 0);
        assert_eq!(fs[&1], 42);
        assert_eq!(fs[&2], 2);
    }

    #[test]
    fn values_up_to_u32_max_round_trip() {
        let s = NativeStore::new(1, 2, |_| u32::MAX as u64);
        assert_eq!(s.read_at(0, 0), Some(u32::MAX as u64));
    }

    mod race {
        //! The ring-recycle/reader race (satellite of the version-GC PR):
        //! a reader holding one snapshot across full ring wraps, against a
        //! live writer that also retains a *different* pinned snapshot —
        //! so spill entries with reclaimed holes beyond them exist, the
        //! geometry where an uncovered fallback would serve stale values.
        //!
        //! The invariant is exact, not just "some cts at-or-below the
        //! snapshot": every successful read must equal the newest
        //! published version `<= snapshot` *at some instant during that
        //! read's window*, bracketed by the writer's published-progress
        //! counters — or be `None` (the safe `VersionOverflow`), which is
        //! only allowed when the reader's snapshot is unregistered.
        //! Observed version timestamps additionally never regress.

        use super::super::NativeStore;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Arc, Barrier};

        /// Value written at `cts` — an affine encoding so a foreign or
        /// torn word is detectable from the value alone.
        fn val_of(cts: u64) -> u64 {
            cts * 5 + 7
        }

        /// Decode a read back to the cts it was written at.
        fn cts_of(value: u64) -> Option<u64> {
            (value >= 7 && (value - 7).is_multiple_of(5)).then_some((value - 7) / 5)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 12 })]

            #[test]
            fn ring_wrap_under_a_live_reader_is_never_torn_or_stale(
                vpb in 1usize..=4,
                snapshot in 0u64..8,
                pinned in 0u64..8,
                publishes in 16u64..64,
                // The vendored proptest has no `bool` strategy; a 0/1 flag
                // stands in for it.
                registered_flag in 0u8..=1,
            ) {
                let registered = registered_flag == 1;
                let store = Arc::new(NativeStore::new(1, vpb, |_| val_of(0)));
                let start = Arc::new(Barrier::new(2));
                // Writer progress: `pre_pub` is bumped before publishing
                // cts, `post_pub` after it lands. For any read window,
                // `post_pub` sampled before the read is a lower bound on
                // what was fully published at read start, and `pre_pub`
                // sampled after is an upper bound on anything the read
                // could have observed.
                let pre_pub = Arc::new(AtomicU64::new(0));
                let post_pub = Arc::new(AtomicU64::new(0));
                let writer = {
                    let (store, start) = (Arc::clone(&store), Arc::clone(&start));
                    let (pre_pub, post_pub) = (Arc::clone(&pre_pub), Arc::clone(&post_pub));
                    std::thread::spawn(move || {
                        // The pinned snapshot is always registered (it is
                        // what forces spill entries into existence); the
                        // reader's own snapshot only when `registered`.
                        let readers: Vec<u64> = if registered {
                            vec![pinned, snapshot]
                        } else {
                            vec![pinned]
                        };
                        start.wait();
                        for cts in 1..=publishes {
                            pre_pub.store(cts, Ordering::Release);
                            store.publish_gated(0, cts, val_of(cts), &readers);
                            post_pub.store(cts, Ordering::Release);
                            if cts % 4 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                };
                let reads: Vec<(u64, Option<u64>, u64)> = {
                    let store = Arc::clone(&store);
                    start.wait();
                    (0..256)
                        .map(|_| {
                            let lo = post_pub.load(Ordering::Acquire);
                            let read = store.read_at(0, snapshot);
                            let hi = pre_pub.load(Ordering::Acquire);
                            (lo, read, hi)
                        })
                        .collect()
                };
                writer.join().expect("writer must not panic");

                let mut newest_seen = 0;
                for (lo, read, hi) in reads {
                    match read {
                        Some(v) => {
                            let cts = cts_of(v);
                            prop_assert!(
                                cts.is_some_and(|c| c <= snapshot),
                                "read {v} is torn or from a version above snapshot {snapshot}"
                            );
                            let cts = cts.expect("checked above");
                            // The newest published version <= snapshot was
                            // already at least min(snapshot, lo) when the
                            // read began and at most min(snapshot, hi)
                            // when it ended; a read outside that range is
                            // stale (e.g. an uncovered spill entry) or
                            // from the future.
                            prop_assert!(
                                cts >= snapshot.min(lo) && cts <= snapshot.min(hi),
                                "read cts {cts} outside its window \
                                 [{}, {}] (snapshot {snapshot})",
                                snapshot.min(lo),
                                snapshot.min(hi)
                            );
                            prop_assert!(
                                cts >= newest_seen,
                                "observed version regressed: {cts} after {newest_seen}"
                            );
                            newest_seen = cts;
                        }
                        None => prop_assert!(
                            !registered,
                            "a registered snapshot must never lose its version"
                        ),
                    }
                }
                // Quiescent checks (all of 1..=publishes landed): the
                // registered snapshot resolves exactly, and the pinned
                // snapshot's retained cover is exact too — through ring or
                // covered spill, never a neighbouring stale entry.
                prop_assert_eq!(store.read_at(0, pinned), Some(val_of(pinned)));
                if registered {
                    prop_assert_eq!(store.read_at(0, snapshot), Some(val_of(snapshot)));
                }
                // At most one spill entry per registered snapshot.
                let bound = vpb as u64 + if registered { 2 } else { 1 };
                prop_assert!(store.gc_stats().max_version_list_len <= bound);
            }
        }
    }
}

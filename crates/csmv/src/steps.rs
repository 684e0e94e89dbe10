//! Pure transition functions of the CSMV commit protocol.
//!
//! Every decision the client and server warps make — seqlock-tag
//! classification, conflict detection, duplicate suppression, batch
//! windows, GTS turn-taking — is factored here as a side-effect-free
//! function over plain values. The simulator warps ([`crate::client`],
//! [`crate::server`], [`crate::multi`]) call these for their control
//! decisions, and the `csmv-model` explicit-state model checker calls the
//! *same* functions for its abstract transitions, so the checked model
//! cannot silently drift from the implementation.
//!
//! Nothing in this module touches simulated memory, charges cycles, or
//! records metrics: inputs are values already read, outputs are decisions.

/// Classification of an ATR slot's seqlock tag against the timestamp a
/// validator expects to find there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// The tag matches: the entry is published and its payload readable.
    Published,
    /// The tag is older than expected: the inserter has reserved but not
    /// yet published this entry — the validator must poll.
    InFlight,
    /// The tag is newer than expected: the ring recycled an entry the
    /// validator still needed; its snapshot fell out of the window.
    Recycled,
}

/// Classify a seqlock tag read from an ATR slot. `expected` is the
/// timestamp (single-server: cts; multi-server: local-seq tag) whose entry
/// the validator is trying to read.
#[inline]
pub fn classify_tag(tag: u64, expected: u64) -> TagState {
    use std::cmp::Ordering::*;
    match tag.cmp(&expected) {
        Equal => TagState::Published,
        Less => TagState::InFlight,
        Greater => TagState::Recycled,
    }
}

/// Does a transaction footprint (read-set items chained with write-set
/// items) intersect any of the committed entries' write-set items?
///
/// This is the whole of CSMV validation: a transaction is invalid iff an
/// entry committed after its snapshot wrote something it read or wrote.
pub fn footprint_conflicts<I>(footprint: I, entries: &[(u64, Vec<u64>)]) -> bool
where
    I: IntoIterator<Item = u64>,
{
    for e in footprint {
        for (_, items) in entries {
            if items.contains(&e) {
                return true;
            }
        }
    }
    false
}

/// [`footprint_conflicts`] against a single committed entry's write-set,
/// for validators that scan the window incrementally (borrowing each
/// cached entry in turn instead of materialising an owned entry list per
/// transaction). Checking entries one at a time is equivalent: a
/// footprint conflicts with a window iff it conflicts with some entry in
/// it.
#[inline]
pub fn footprint_hits_entry<I>(footprint: I, items: &[u64]) -> bool
where
    I: IntoIterator<Item = u64>,
{
    footprint.into_iter().any(|e| items.contains(&e))
}

/// Is a snapshot still inside the ATR ring's validation window when the
/// counter stands at `next`? (Entries `(snapshot, next)` must all still be
/// resident; the ring holds `capacity` of them.)
#[inline]
pub fn snapshot_in_window(snapshot: u64, next: u64, capacity: u64) -> bool {
    next - 1 - snapshot <= capacity
}

/// Outcome of a batched commit-timestamp reservation attempt (a CAS of
/// `expected -> expected + n` that observed `observed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveOutcome {
    /// The CAS won: the batch owns `[base, base + n)`.
    Won { base: u64 },
    /// The CAS lost: entries `[expected, target)` appeared concurrently
    /// and must be validated before retrying at `target`.
    Lost { target: u64 },
}

/// Decide a reservation attempt from the CAS's observed old value.
#[inline]
pub fn reserve_outcome(observed: u64, expected: u64) -> ReserveOutcome {
    if observed == expected {
        ReserveOutcome::Won { base: expected }
    } else {
        ReserveOutcome::Lost { target: observed }
    }
}

/// Is a freshly polled REQUEST carrying `seq` a duplicate of the batch the
/// receiver last accepted from that slot (`last_seq`, 0 = none yet)?
///
/// Duplicates arise from recovery resends and injected duplicate
/// deliveries; they must be suppressed, not re-dispatched (at-most-once
/// batch processing).
#[inline]
pub fn is_duplicate_batch(seq: u64, last_seq: u64) -> bool {
    seq != 0 && seq == last_seq
}

/// Does a response-seq echo certify that the response payload for batch
/// `seq` is complete? (The echo is the last payload word written before
/// the RESPONSE flip; clients and the receiver's duplicate sweep both rely
/// on it.)
#[inline]
pub fn response_certified(echo: u64, seq: u64) -> bool {
    echo == seq
}

/// The batch window of a set of granted commit timestamps: `(base, n)`
/// with `base` the smallest cts and `n` the count. `(0, 0)` for an empty
/// set.
pub fn batch_window(ctss: &[u64]) -> (u64, u64) {
    match ctss.iter().min() {
        None => (0, 0),
        Some(&base) => (base, ctss.len() as u64),
    }
}

/// Are the granted timestamps consecutive (`base..base + n`)? The
/// single-server protocol guarantees it (one CAS reserves the whole
/// batch); the client's single GTS bump relies on it.
pub fn window_is_dense(ctss: &[u64]) -> bool {
    let (base, n) = batch_window(ctss);
    ctss.iter().all(|&c| c >= base && c < base + n)
        && ctss.iter().max().is_none_or(|&m| m == base + n - 1)
}

/// GTS turn-taking: may a batch based at `base` publish now? Only when the
/// GTS has reached `base - 1`, i.e. every earlier timestamp is published
/// (§III-B: commits become visible in timestamp order).
#[inline]
pub fn gts_turn_reached(gts: u64, base: u64) -> bool {
    gts + 1 == base
}

/// The value a batch `[base, base + n)` publishes to the GTS: one write
/// makes the whole batch visible.
#[inline]
pub fn gts_publish_value(base: u64, n: u64) -> u64 {
    base + n - 1
}

/// Progressive GTS publication (multi-server): given the current GTS and a
/// warp's unpublished commit timestamps, absorb the run of consecutive
/// timestamps starting at `gts + 1` and return the new GTS (unchanged if
/// it is not this warp's turn). Timestamps `<= gts` are already covered
/// (e.g. by a crash-hole skip) and contribute nothing.
pub fn gts_run(gts: u64, pending: &[u64]) -> u64 {
    let mut new_gts = gts;
    loop {
        match pending.iter().find(|&&c| c == new_gts + 1) {
            Some(_) => new_gts += 1,
            None => return new_gts,
        }
    }
}

/// Multi-server owner-of: the partition (the commit server) owning `item`
/// when items are hash-partitioned over `partitions` servers.
#[inline]
pub fn partition_of(item: u64, partitions: usize) -> usize {
    (item % partitions as u64) as usize
}

/// Multi-server liveness: is a partition whose receiver last stamped its
/// heartbeat at cycle `heartbeat` dead at cycle `now`? Only a stamp older
/// than `patience` cycles says so.
#[inline]
pub fn heartbeat_stale(now: u64, heartbeat: u64, patience: u64) -> bool {
    now.saturating_sub(heartbeat) > patience
}

/// The version-GC watermark: the minimum over the active reader snapshots,
/// clamped to the GTS (an in-flight registration of a future timestamp can
/// never raise the watermark above the committed frontier). With no active
/// readers the watermark is the GTS itself — everything older than the
/// newest committed version is reclaimable.
pub fn watermark<I>(active_snapshots: I, gts: u64) -> u64
where
    I: IntoIterator<Item = u64>,
{
    active_snapshots.into_iter().fold(gts, |w, s| w.min(s))
}

/// Adaptive retention: which versions of one item must survive a GC pass
/// at `watermark`? Keeps the newest version with `ts <= watermark` (the
/// one every snapshot in `[watermark, gts]` at or below it resolves to)
/// plus everything newer. `versions` must be sorted by ascending `ts`;
/// returns the index of the first version to retain (everything before it
/// is reclaimable). This is what makes retention per-object adaptive:
/// write-hot items whose old versions are all below the watermark collapse
/// to (effectively) a single version, while an item pinned by an old
/// registered snapshot keeps its deep history.
pub fn retain_from(versions: &[u64], watermark: u64) -> usize {
    versions
        .iter()
        .rposition(|&ts| ts <= watermark)
        .unwrap_or(0)
}

/// Does any registered reader snapshot *resolve on* the version at `ts`,
/// given that the next-newer retained version is at `next_ts`? A snapshot
/// read returns the newest version `<=` the snapshot, so the version at
/// `ts` is the answer exactly for snapshots in `[ts, next_ts)`. This is
/// the per-version retention test behind adaptive GC: a version no
/// registered snapshot resolves on is reclaimable even when it is above
/// the watermark.
#[inline]
pub fn version_needed<I>(ts: u64, next_ts: u64, readers: I) -> bool
where
    I: IntoIterator<Item = u64>,
{
    readers.into_iter().any(|s| ts <= s && s < next_ts)
}

/// Starvation-freedom escalation: should a reader that has already burned
/// `attempts` of its retry `budget` pin its snapshot (register it and keep
/// re-executing at the same timestamp)? Pinning engages at the half-way
/// point — early enough that the guaranteed-commit path has budget left,
/// late enough that the fast path (fresh snapshot each retry) gets a fair
/// shot first. With no budget there is no exhaustion to outrun, so never.
#[inline]
pub fn should_pin(attempts: u32, budget: Option<u32>) -> bool {
    match budget {
        Some(b) => attempts >= b.div_ceil(2),
        None => false,
    }
}

/// Intra-warp pre-validation: lane `broadcaster` broadcasts its write-set
/// `ws_items`; every *later* committing lane whose read- or write-set
/// intersects it loses (`in_footprint(lane, item)` answers membership).
/// Returns the loser mask. Earlier lanes and already-lost lanes are
/// untouched, so repeated application over broadcasters yields the
/// conflict-free survivor set the server can batch.
///
/// Per item, only the set bits of `committing & !losers` above the
/// broadcaster are visited, in ascending lane order: `in_footprint` is
/// asked exactly what a test of every lane would ask, in the same order.
pub fn preval_losers(
    broadcaster: usize,
    ws_items: &[u64],
    committing: u32,
    mut in_footprint: impl FnMut(usize, u64) -> bool,
) -> u32 {
    let later = u32::try_from(broadcaster + 1)
        .ok()
        .and_then(|shift| u32::MAX.checked_shl(shift))
        .unwrap_or(0);
    let mut losers: u32 = 0;
    for &item in ws_items {
        let mut live = committing & later & !losers;
        while live != 0 {
            let j = live.trailing_zeros() as usize;
            live &= live - 1;
            if in_footprint(j, item) {
                losers |= 1 << j;
            }
        }
    }
    losers
}

/// May re-running a transaction the server's validation rejected at
/// snapshot `rejected_at` end differently, now that the GTS reads `gts`?
///
/// Execution is a function of the snapshot: while `gts == rejected_at` the
/// transaction reads the same values and builds the same footprint, and
/// the ATR entry that footprint hit (or the ring lap that pushed its
/// snapshot out of the window) is still there — the resubmission is
/// rejected again, however often it is tried. Only a GTS that has moved
/// past the rejected snapshot gives the retry a new snapshot to read at.
/// `false` means: leave the transaction where it is, charge nothing, and
/// wait for the next GTS publication.
#[inline]
pub fn retry_may_succeed(rejected_at: u64, gts: u64) -> bool {
    gts > rejected_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn items_are_owned_by_their_residue_class() {
        assert_eq!(partition_of(7, 1), 0);
        assert_eq!(partition_of(7, 2), 1);
        assert_eq!(partition_of(8, 4), 0);
        assert_eq!(partition_of(u64::MAX, 3), (u64::MAX % 3) as usize);
    }

    #[test]
    fn a_heartbeat_goes_stale_only_past_its_patience() {
        assert!(!heartbeat_stale(100, 100, 0));
        assert!(!heartbeat_stale(150, 100, 50));
        assert!(heartbeat_stale(151, 100, 50));
        // A stamp from the future (read before a racing write) is fresh.
        assert!(!heartbeat_stale(100, 200, 0));
    }

    #[test]
    fn tag_classification() {
        assert_eq!(classify_tag(5, 5), TagState::Published);
        assert_eq!(classify_tag(4, 5), TagState::InFlight);
        assert_eq!(classify_tag(6, 5), TagState::Recycled);
    }

    #[test]
    fn conflict_is_footprint_intersection() {
        let entries = vec![(2, vec![7, 9]), (1, vec![3])];
        assert!(footprint_conflicts([1, 3].into_iter(), &entries));
        assert!(footprint_conflicts([9].into_iter(), &entries));
        assert!(!footprint_conflicts([4, 5].into_iter(), &entries));
        assert!(!footprint_conflicts(std::iter::empty(), &entries));
    }

    #[test]
    fn window_mirrors_ring_capacity() {
        // next = 10, capacity 4: snapshots 5..=9 validate, 4 does not.
        assert!(snapshot_in_window(5, 10, 4));
        assert!(!snapshot_in_window(4, 10, 4));
    }

    #[test]
    fn reservation_cas_semantics() {
        assert_eq!(reserve_outcome(3, 3), ReserveOutcome::Won { base: 3 });
        assert_eq!(reserve_outcome(7, 3), ReserveOutcome::Lost { target: 7 });
    }

    #[test]
    fn duplicate_batches_need_a_prior_seq() {
        assert!(is_duplicate_batch(4, 4));
        assert!(!is_duplicate_batch(5, 4));
        assert!(!is_duplicate_batch(0, 0)); // nothing received yet
    }

    #[test]
    fn batch_windows() {
        assert_eq!(batch_window(&[]), (0, 0));
        assert_eq!(batch_window(&[4, 2, 3]), (2, 3));
        assert!(window_is_dense(&[4, 2, 3]));
        assert!(window_is_dense(&[]));
        assert!(!window_is_dense(&[2, 4]));
    }

    #[test]
    fn turn_taking() {
        assert!(gts_turn_reached(4, 5));
        assert!(!gts_turn_reached(3, 5));
        assert_eq!(gts_publish_value(5, 3), 7);
    }

    #[test]
    fn progressive_runs() {
        assert_eq!(gts_run(2, &[3, 4, 7]), 4);
        assert_eq!(gts_run(2, &[4, 7]), 2);
        assert_eq!(gts_run(0, &[1]), 1);
        assert_eq!(gts_run(5, &[]), 5);
    }

    #[test]
    fn watermark_is_min_snapshot_clamped_by_gts() {
        assert_eq!(watermark([7, 3, 9], 10), 3);
        assert_eq!(watermark([], 10), 10);
        assert_eq!(watermark([15], 10), 10);
        assert_eq!(watermark([0], 10), 0);
    }

    #[test]
    fn retention_keeps_the_covering_version_and_everything_newer() {
        let versions = [1, 3, 6, 9];
        // Watermark 6: version 6 covers snapshots 6..9; 1 and 3 go.
        assert_eq!(retain_from(&versions, 6), 2);
        // Watermark 7: still version 6.
        assert_eq!(retain_from(&versions, 7), 2);
        // Watermark below everything: keep all (nothing covers, so the
        // oldest must survive).
        assert_eq!(retain_from(&versions, 0), 0);
        // Watermark above everything: only the newest survives.
        assert_eq!(retain_from(&versions, 100), 3);
        assert_eq!(retain_from(&[], 5), 0);
    }

    #[test]
    fn retained_reads_equal_full_reads_for_covered_snapshots() {
        // The retention contract, checked exhaustively on a small list:
        // every snapshot >= watermark reads the same version from the
        // pruned list as from the full list.
        let versions = [1, 3, 6, 9];
        for wm in 0..12 {
            let keep = retain_from(&versions, wm);
            for snap in wm..12 {
                let full = versions.iter().rev().find(|&&ts| ts <= snap);
                let pruned = versions[keep..].iter().rev().find(|&&ts| ts <= snap);
                assert_eq!(full, pruned, "wm={wm} snap={snap}");
            }
        }
    }

    #[test]
    fn a_version_is_needed_by_the_snapshots_it_resolves() {
        // Version at ts 3, successor at ts 6: snapshots 3..=5 resolve here.
        assert!(version_needed(3, 6, [5]));
        assert!(version_needed(3, 6, [3]));
        assert!(!version_needed(3, 6, [6]));
        assert!(!version_needed(3, 6, [2]));
        assert!(!version_needed(3, 6, []));
        assert!(version_needed(3, 6, [1, 9, 4]));
    }

    #[test]
    fn pinning_engages_at_half_budget() {
        assert!(!should_pin(0, Some(8)));
        assert!(!should_pin(3, Some(8)));
        assert!(should_pin(4, Some(8)));
        assert!(should_pin(7, Some(8)));
        assert!(should_pin(1, Some(1)));
        assert!(!should_pin(1000, None));
    }

    #[test]
    fn a_rejected_retry_waits_for_the_gts_to_move() {
        // Same snapshot, same reads, same ATR entry: futile.
        assert!(!retry_may_succeed(7, 7));
        // Any publication past the rejected snapshot gives a new one.
        assert!(retry_may_succeed(7, 8));
        assert!(retry_may_succeed(0, 40));
    }

    #[test]
    fn per_entry_conflict_agrees_with_window_conflict() {
        let entries = vec![(3u64, vec![10, 20]), (4u64, vec![30])];
        for fp in [vec![10], vec![30], vec![20, 99], vec![99], vec![]] {
            let window = footprint_conflicts(fp.iter().copied(), &entries);
            let per_entry = entries
                .iter()
                .any(|(_, items)| footprint_hits_entry(fp.iter().copied(), items));
            assert_eq!(window, per_entry, "footprint {fp:?}");
        }
    }

    #[test]
    fn preval_later_lanes_lose() {
        // Lane 0 broadcasts {7}; lanes 1 and 2 committing, lane 2 reads 7.
        let committing = 0b111;
        let losers = preval_losers(0, &[7], committing, |j, item| j == 2 && item == 7);
        assert_eq!(losers, 0b100);
        // Earlier lanes never lose to a later broadcaster.
        let losers = preval_losers(2, &[7], committing, |_, _| true);
        assert_eq!(losers, 0);
    }

    /// The nested loop `preval_losers` replaced: every broadcast item
    /// against every lane above the broadcaster, skipping idle and
    /// already-lost lanes.
    fn preval_losers_reference(
        broadcaster: usize,
        ws_items: &[u64],
        committing: u32,
        mut in_footprint: impl FnMut(usize, u64) -> bool,
    ) -> u32 {
        let mut losers: u32 = 0;
        for &item in ws_items {
            for j in (broadcaster + 1)..u32::BITS as usize {
                if committing & (1 << j) == 0 || losers & (1 << j) != 0 {
                    continue;
                }
                if in_footprint(j, item) {
                    losers |= 1 << j;
                }
            }
        }
        losers
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        /// The set-bit loop returns the reference's mask and asks
        /// `in_footprint` the same questions in the same order, so the
        /// simulator, which charges nothing per question, is unmoved.
        /// Lane `j`'s footprint is bit `item` of `table[j]` (a quarter of
        /// the bits set); broadcasters run past the last lane.
        #[test]
        fn preval_visits_set_bits_as_the_nested_loop_did(
            broadcaster in 0usize..=33,
            ws_items in proptest::collection::vec(0u64..16, 0..=6),
            committing in proptest::num::u64::ANY,
            table in proptest::collection::vec((0u32..=0xFFFF, 0u32..=0xFFFF).prop_map(|(a, b)| a & b), 32),
        ) {
            let committing = committing as u32;
            let mut calls = (Vec::new(), Vec::new());
            let losers = preval_losers(broadcaster, &ws_items, committing, |j, item| {
                calls.0.push((j, item));
                table[j] & (1 << item) != 0
            });
            let reference = preval_losers_reference(broadcaster, &ws_items, committing, |j, item| {
                calls.1.push((j, item));
                table[j] & (1 << item) != 0
            });
            prop_assert_eq!(losers, reference);
            prop_assert_eq!(calls.0, calls.1);
        }
    }
}

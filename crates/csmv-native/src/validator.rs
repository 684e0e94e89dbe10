//! The validation/reservation half of the CSMV protocol — the paper's
//! commit server — as a function the committing worker calls.
//!
//! The paper runs this in a server SM because the ATR then lives in that
//! SM's on-chip memory (§III). A CPU host has no such asymmetry: the
//! [`NativeAtr`] is a lock-free ring every thread reaches equally, so each
//! worker owns a [`Validator`] and commits in place. The steps are the
//! simulated server's, unchanged: check every snapshot against the ATR
//! window ([`csmv::steps::snapshot_in_window`]), test every footprint
//! against the entries committed since its snapshot
//! ([`csmv::steps::footprint_hits_entry`]), reserve dense commit timestamps
//! for the survivors with a single CAS ([`csmv::steps::reserve_outcome`] via
//! [`NativeAtr::try_reserve`]) and insert their ATR entries. Write-back is
//! the worker's next step, exactly as it is the client's in the paper.
//!
//! Nothing in this module may panic: the `xtask` `no-panic-in-server-path`
//! lint covers every `impl Validator` block.

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

use csmv::steps::{self, ReserveOutcome, TagState};
use stm_core::metrics::{AbortReason, MetricsReport};

use crate::atr::NativeAtr;
use crate::pool::Shared;

/// What validation reads of one transaction, where its execution keeps it.
#[derive(Debug, Default)]
pub(crate) struct TxSubmit {
    /// GTS value the transaction executed against.
    pub snapshot: u64,
    /// Read-set items (in any order; repeats are harmless).
    pub rs: Vec<u64>,
    /// Write-set items (the ATR entry payload).
    pub ws: Vec<u64>,
}

/// The footprints of a batch whose lanes carry them.
fn footprints<L: Borrow<TxSubmit>>(txs: &[L]) -> impl Iterator<Item = &TxSubmit> {
    txs.iter().map(Borrow::borrow)
}

/// Pre-validation's filter on a footprint: one [`bit`] per item, every
/// bit above 32 items.
fn signature(t: &TxSubmit) -> u64 {
    if t.rs.len() + t.ws.len() > 32 {
        return u64::MAX;
    }
    t.rs.iter()
        .chain(&t.ws)
        .fold(0, |sig, &item| sig | bit(item))
}

/// An item's signature bit: a Fibonacci hash's top six bits.
fn bit(item: u64) -> u64 {
    1 << (item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// Is `item` in `t`'s footprint? Its signature `sig` only rules items
/// out; the exact scans decide the rest.
fn in_footprint(t: &TxSubmit, sig: u64, item: u64) -> bool {
    sig & bit(item) != 0 && (t.rs.contains(&item) || t.ws.contains(&item))
}

/// Intra-batch pre-validation, the simulator's intra-warp broadcast round
/// over the same pure step ([`csmv::steps::preval_losers`]): each
/// surviving lane kills every later lane whose footprint holds an item it
/// writes. Returns the loser mask of up to 32 lanes. A later lane whose
/// signature shares no bit with the broadcast items' is left out of the
/// round: none of its answers could be yes.
pub(crate) fn prevalidate<L: Borrow<TxSubmit>>(lanes: &[L]) -> u32 {
    let n = lanes.len().min(32);
    let mut sigs = [0; 32];
    for (sig, t) in sigs.iter_mut().zip(footprints(lanes)) {
        *sig = signature(t);
    }
    let mut losers = 0;
    for (b, t) in footprints(lanes).enumerate().take(n.saturating_sub(1)) {
        let written = t.ws.iter().fold(0, |sig, &item| sig | bit(item));
        let exposed = (b + 1..n)
            .filter(|&j| sigs[j] & written != 0)
            .fold(0, |mask, j| mask | 1 << j);
        if losers & (1 << b) == 0 && exposed & !losers != 0 {
            losers |= steps::preval_losers(b, &t.ws, exposed & !losers, |j, item| {
                in_footprint(lanes[j].borrow(), sigs[j], item)
            });
        }
    }
    losers
}

/// Per-transaction commit verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Validation passed; the transaction owns this commit timestamp and
    /// must write back when its GTS turn arrives.
    Granted { cts: u64 },
    /// Validation failed for this reason; nothing was reserved.
    Rejected { reason: AbortReason },
}

/// The window closed on the transaction's snapshot.
pub(crate) const WINDOW_CLOSED: Verdict = Verdict::Rejected {
    reason: AbortReason::AtrWindowOverflow,
};

pub(crate) struct Validator {
    atr: Arc<NativeAtr>,
    deadline: Instant,
    /// The write-set of the entry being scanned; one buffer, reused for
    /// every entry read.
    entry: Vec<u64>,
}

impl Validator {
    pub(crate) fn new(ctx: &Shared) -> Self {
        Self {
            atr: ctx.atr.clone(),
            deadline: ctx.deadline,
            entry: Vec::new(),
        }
    }

    /// Validate a batch against the ATR and reserve timestamps for the
    /// survivors. Replaces the contents of `verdicts` with one verdict per
    /// transaction, in order, every one `Some`, and returns the granted
    /// window `(base, n)`: the survivors hold `base..base + n` in batch
    /// order (`(0, 0)` when none survived).
    ///
    /// A won reservation records the batch's size (`batch_sizes`) and the
    /// ATR occupancy right after it, this batch included
    /// (`atr_occupancy`); any stall waited out on an in-flight entry is
    /// recorded as `server_stall`. All go into `metrics`, the caller's
    /// report.
    pub(crate) fn validate_and_reserve<L: Borrow<TxSubmit>>(
        &mut self,
        txs: &[L],
        metrics: &mut MetricsReport,
        verdicts: &mut Vec<Option<Verdict>>,
    ) -> (u64, u64) {
        verdicts.clear();
        verdicts.resize(txs.len(), None);
        let mut scanned = 0;
        loop {
            let expected = self.atr.next_cts();
            self.scan(txs, verdicts, scanned, expected, metrics);
            let live = verdicts.iter().filter(|v| v.is_none()).count() as u64;
            if live == 0 {
                return (0, 0);
            }
            match self.atr.try_reserve(expected, live) {
                ReserveOutcome::Won { base } => {
                    let undecided = footprints(txs).zip(verdicts.iter_mut());
                    for (cts, (t, v)) in (base..).zip(undecided.filter(|(_, v)| v.is_none())) {
                        self.atr.insert(cts, &t.ws);
                        *v = Some(Verdict::Granted { cts });
                    }
                    metrics.batch_sizes.record(txs.len() as u64);
                    metrics.atr_occupancy.push(self.atr.occupancy());
                    return (base, live);
                }
                // Entries [expected, target) appeared concurrently; loop
                // around and validate that delta before retrying the CAS.
                ReserveOutcome::Lost { .. } => scanned = expected,
            }
        }
    }

    /// Decide what the window up to `expected` (the reservation counter's
    /// value) decides: reject every undecided transaction whose snapshot
    /// fell out of the window or whose footprint an entry in
    /// `(snapshot, expected)` wrote. Entries below `scanned` have already
    /// been tested against every transaction still undecided and are not
    /// read again.
    ///
    /// The scan is entry-major: each entry is read once and tested against
    /// every undecided transaction whose snapshot is below it. Entries go
    /// in ascending cts and a transaction's first event decides it, so
    /// every verdict is that of a per-transaction scan.
    fn scan<L: Borrow<TxSubmit>>(
        &mut self,
        txs: &[L],
        verdicts: &mut [Option<Verdict>],
        scanned: u64,
        expected: u64,
        metrics: &mut MetricsReport,
    ) {
        for (t, v) in footprints(txs).zip(verdicts.iter_mut()) {
            if v.is_none() && !steps::snapshot_in_window(t.snapshot, expected, self.atr.capacity())
            {
                *v = Some(WINDOW_CLOSED);
            }
        }
        let from = footprints(txs)
            .zip(verdicts.iter())
            .filter(|(_, v)| v.is_none())
            .map(|(t, _)| t.snapshot + 1)
            .min()
            .unwrap_or(expected)
            .max(scanned);
        for cts in from..expected {
            let exposed = |t: &TxSubmit, v: &Option<Verdict>| v.is_none() && t.snapshot < cts;
            if !footprints(txs)
                .zip(verdicts.iter())
                .any(|(t, v)| exposed(t, v))
            {
                continue;
            }
            let published = self.read_entry_blocking(cts, metrics);
            for (t, v) in footprints(txs).zip(verdicts.iter_mut()) {
                if !exposed(t, v) {
                    continue;
                }
                if !published {
                    // Recycled mid-validation (or deadline hit).
                    *v = Some(WINDOW_CLOSED);
                } else if steps::footprint_hits_entry(
                    t.rs.iter().chain(t.ws.iter()).copied(),
                    &self.entry,
                ) {
                    *v = Some(Verdict::Rejected {
                        reason: AbortReason::ReadValidation,
                    });
                }
            }
        }
    }

    /// Read ATR entry `cts` into `self.entry`, waiting while its inserter
    /// is in flight. False means recycled (or the run deadline passed
    /// while waiting).
    ///
    /// The wait is the GTS handoff's: park until the GTS reaches `cts`, or
    /// the run deadline. A reserved entry is inserted before its batch
    /// writes back, and its inserter waits on nothing this validator
    /// holds (a worker validates holding no reservation). A stall waited
    /// out is recorded into the `server_stall` series.
    fn read_entry_blocking(&mut self, cts: u64, metrics: &mut MetricsReport) -> bool {
        let mut wait_start: Option<Instant> = None;
        loop {
            match self.atr.read_entry_into(cts, &mut self.entry) {
                TagState::Published => {
                    if let Some(began) = wait_start {
                        metrics.server_stall.push(began.elapsed().as_nanos() as u64);
                    }
                    return true;
                }
                TagState::Recycled => return false,
                TagState::InFlight => {
                    let now = Instant::now();
                    wait_start.get_or_insert(now);
                    if now >= self.deadline {
                        return false;
                    }
                    self.atr.wait_gts_past(cts.saturating_sub(1), self.deadline);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;

    const READ_VALIDATION: Verdict = Verdict::Rejected {
        reason: AbortReason::ReadValidation,
    };

    fn validator(atr: &Arc<NativeAtr>) -> Validator {
        Validator {
            atr: atr.clone(),
            deadline: Instant::now() + Duration::from_secs(10),
            entry: Vec::new(),
        }
    }

    /// [`Validator::validate_and_reserve`] into a buffer holding stale
    /// verdicts, which the call must replace.
    fn verdicts_of(v: &mut Validator, txs: &[TxSubmit]) -> Vec<Verdict> {
        let mut verdicts = vec![Some(Verdict::Granted { cts: 0 }); 3];
        v.validate_and_reserve(txs, &mut MetricsReport::default(), &mut verdicts);
        verdicts
            .into_iter()
            .map(|v| v.expect("every verdict is decided"))
            .collect()
    }

    /// An entry reserved but not yet inserted is waited out on the GTS
    /// handoff, not polled: the validator parks as a turn waiter, and the
    /// inserter's write-back publication wakes it to a verdict on the
    /// entry, with the wait recorded as one `server_stall` observation.
    #[test]
    fn an_in_flight_entry_is_waited_out_parked_on_the_gts() {
        let atr = Arc::new(NativeAtr::new(8, 2));
        assert_eq!(atr.try_reserve(1, 1), ReserveOutcome::Won { base: 1 });
        let validating = {
            let atr = atr.clone();
            std::thread::spawn(move || {
                let mut v = validator(&atr);
                let mut metrics = MetricsReport::default();
                let txs = [TxSubmit {
                    snapshot: 0,
                    rs: vec![3],
                    ws: vec![4],
                }];
                let mut verdicts = Vec::new();
                v.validate_and_reserve(&txs, &mut metrics, &mut verdicts);
                (verdicts, metrics.server_stall.len())
            })
        };
        let give_up = Instant::now() + Duration::from_secs(3);
        while atr.parked_waiters() == 0 {
            assert!(Instant::now() < give_up, "the validator never parked");
            std::thread::yield_now();
        }
        // The other committer inserts entry 1, a write to what the batch
        // read, and writes it back.
        atr.insert(1, &[3]);
        atr.publish_gts(1);
        let (verdicts, stalls) = validating.join().expect("validator panicked");
        assert_eq!(verdicts, [Some(READ_VALIDATION)]);
        assert_eq!(stalls, 1, "one wait, one observation");
    }

    /// A lost CAS is answered by scanning the delta and nothing below it:
    /// the batch passes the window up to 2, another committer then takes
    /// cts 2 for a write to what the batch read — and the ring laps over
    /// entry 1, so reading that entry again would close the window
    /// instead.
    #[test]
    fn a_lost_cas_rejects_on_the_delta_without_rescanning_the_window() {
        let atr = Arc::new(NativeAtr::new(4, 2));
        atr.reserve_and_insert(1, &[7]);
        let mut v = validator(&atr);
        let mut metrics = MetricsReport::default();
        let txs = [TxSubmit {
            snapshot: 0,
            rs: vec![5],
            ws: vec![6],
        }];
        let mut verdicts = vec![None];
        v.scan(&txs, &mut verdicts, 0, 2, &mut metrics);
        assert_eq!(verdicts, [None], "entry 1 does not touch the footprint");

        atr.reserve_and_insert(2, &[5]);
        atr.insert(5, &[9]); // slot 1, next lap
        assert_eq!(atr.try_reserve(2, 1), ReserveOutcome::Lost { target: 3 });
        v.scan(&txs, &mut verdicts, 2, 3, &mut metrics);
        assert_eq!(verdicts, [Some(READ_VALIDATION)]);

        // The whole call from scratch does read entry 1, and finds it gone.
        assert_eq!(
            verdicts_of(&mut v, &txs),
            [WINDOW_CLOSED],
            "the scenario does depend on what is re-read"
        );
        assert_eq!(atr.next_cts(), 3, "a rejected batch reserves nothing");
    }

    /// The transaction-major scan the entry-major one must agree with:
    /// each transaction on its own walks `(snapshot, next)` over `entry`
    /// (`None` = recycled) and its first event decides it; survivors take
    /// dense timestamps from `next` in batch order.
    fn reference(
        txs: &[TxSubmit],
        entry: impl Fn(u64) -> Option<Vec<u64>>,
        next: u64,
        capacity: u64,
    ) -> Vec<Verdict> {
        let mut grant = next;
        txs.iter()
            .map(|t| {
                if next - 1 - t.snapshot > capacity {
                    return WINDOW_CLOSED;
                }
                for cts in t.snapshot + 1..next {
                    let Some(items) = entry(cts) else {
                        return WINDOW_CLOSED;
                    };
                    if t.rs.iter().chain(&t.ws).any(|i| items.contains(i)) {
                        return READ_VALIDATION;
                    }
                }
                grant += 1;
                Verdict::Granted { cts: grant - 1 }
            })
            .collect()
    }

    fn keys(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0u64..12, len)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// Windows of up to twelve committed entries on a ring of two to
        /// six slots — so some snapshots have fallen out of the window —
        /// under batches of mixed snapshots; in half the cases the slot of
        /// one resident entry is lapped, so the scan meets a recycled
        /// entry inside the window.
        #[test]
        fn the_entry_major_scan_agrees_with_a_transaction_major_reference(
            capacity in 2u64..=6,
            committed in proptest::collection::vec(keys(1..=3), 1..=12),
            batch in proptest::collection::vec((0u64..64, keys(0..=3), keys(1..=3)), 1..=6),
            lapped in (0u8..=1, 0u64..64),
        ) {
            let atr = Arc::new(NativeAtr::new(capacity, 3));
            let newest = committed.len() as u64;
            for (cts, ws) in (1..).zip(&committed) {
                atr.reserve_and_insert(cts, ws);
            }
            // The newest `capacity` entries are resident; lapping one of
            // them means an insert that has not been reserved yet.
            let lapped = (lapped.0 == 1).then(|| newest - lapped.1 % capacity.min(newest));
            if let Some(cts) = lapped {
                atr.insert(cts + capacity, &[99]);
            }
            let entry = |cts: u64| {
                let resident = cts + capacity > newest && lapped != Some(cts);
                resident.then(|| committed[cts as usize - 1].clone())
            };
            let txs: Vec<TxSubmit> = batch
                .into_iter()
                .map(|(s, rs, ws)| TxSubmit { snapshot: s % (newest + 1), rs, ws })
                .collect();
            let expected = reference(&txs, entry, newest + 1, capacity);

            let verdicts = verdicts_of(&mut validator(&atr), &txs);
            prop_assert_eq!(&verdicts, &expected);
            let granted: Vec<&TxSubmit> = txs
                .iter()
                .zip(&verdicts)
                .filter(|(_, v)| matches!(v, Verdict::Granted { .. }))
                .map(|(t, _)| t)
                .collect();
            let next = newest + 1 + granted.len() as u64;
            prop_assert_eq!(atr.next_cts(), next);
            // Every survivor's entry went in; a batch longer than the ring
            // lapped its own first entries.
            let mut items = Vec::new();
            for (cts, t) in (newest + 1..).zip(granted) {
                if cts + capacity >= next {
                    prop_assert_eq!(atr.read_entry_into(cts, &mut items), TagState::Published);
                    prop_assert_eq!(&items, &t.ws);
                }
            }
        }

        /// A footprint is a set: the same batch, once with each read set
        /// sorted and deduplicated and once shuffled with up to four of its
        /// items repeated, gets the same verdicts — the same granted
        /// timestamps among them — on two ATRs given the same history.
        #[test]
        fn read_order_and_repeats_change_no_verdict(
            capacity in 2u64..=6,
            committed in proptest::collection::vec(keys(1..=3), 1..=12),
            batch in proptest::collection::vec((0u64..64, keys(0..=6), keys(1..=3)), 1..=6),
            scrambles in proptest::collection::vec((proptest::num::u64::ANY, 0usize..=4), 6),
        ) {
            let newest = committed.len() as u64;
            let history = || {
                let atr = Arc::new(NativeAtr::new(capacity, 3));
                for (cts, ws) in (1..).zip(&committed) {
                    atr.reserve_and_insert(cts, ws);
                }
                atr
            };
            let (mut sets, mut logs) = (Vec::new(), Vec::new());
            for ((s, rs, ws), &(seed, repeats)) in batch.into_iter().zip(&scrambles) {
                let snapshot = s % (newest + 1);
                let mut set = rs.clone();
                set.sort_unstable();
                set.dedup();
                let log = scrambled(rs, seed, repeats);
                sets.push(TxSubmit { snapshot, rs: set, ws: ws.clone() });
                logs.push(TxSubmit { snapshot, rs: log, ws });
            }
            let (by_set, by_log) = (history(), history());
            let verdicts = verdicts_of(&mut validator(&by_set), &sets);
            prop_assert_eq!(verdicts_of(&mut validator(&by_log), &logs), verdicts);
            prop_assert_eq!(by_log.next_cts(), by_set.next_cts());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The signature filter changes no answer: over lanes with
        /// footprints of 0–64 items drawn from 96, so that bits collide
        /// and footprints above 32 items saturate, every `in_footprint`
        /// answer is the exact scan's, and `prevalidate`'s loser mask is
        /// `steps::preval_losers`'s over the exact scans.
        #[test]
        fn the_signature_filter_changes_no_prevalidation_answer(
            lanes in proptest::collection::vec(
                (proptest::collection::vec(0u64..96, 0..=48),
                 proptest::collection::vec(0u64..96, 0..=16)),
                1..=32,
            ),
            probes in proptest::collection::vec(0u64..96, 16),
        ) {
            let txs: Vec<TxSubmit> = lanes
                .into_iter()
                .map(|(rs, ws)| TxSubmit { snapshot: 0, rs, ws })
                .collect();
            let exact = |t: &TxSubmit, item: u64| t.rs.contains(&item) || t.ws.contains(&item);
            for t in &txs {
                let sig = signature(t);
                for &item in probes.iter().chain(&t.rs).chain(&t.ws) {
                    prop_assert_eq!(in_footprint(t, sig, item), exact(t, item), "item {}", item);
                }
            }
            let committing = u32::MAX >> (32 - txs.len());
            let mut losers = 0;
            for (b, t) in txs.iter().enumerate() {
                if losers & (1 << b) == 0 {
                    losers |= steps::preval_losers(b, &t.ws, committing & !losers, |j, item| {
                        exact(&txs[j], item)
                    });
                }
            }
            prop_assert_eq!(prevalidate(&txs), losers);
        }
    }

    /// `items` with `repeats` of them (picked by `seed`) appended, then
    /// shuffled (Fisher–Yates over a xorshift stream from `seed`).
    fn scrambled(mut items: Vec<u64>, seed: u64, repeats: usize) -> Vec<u64> {
        let mut x = seed | 1;
        let mut next = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        if !items.is_empty() {
            for _ in 0..repeats {
                let k = next(items.len());
                items.push(items[k]);
            }
        }
        for i in (1..items.len()).rev() {
            items.swap(i, next(i + 1));
        }
        items
    }
}

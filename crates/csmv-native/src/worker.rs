//! A native worker thread: executes transactions against the
//! multi-versioned store, pre-validates its own batch, validates it against
//! the ATR and reserves its commit timestamps in place
//! ([`crate::validator::Validator`] — the paper's server role, a function
//! call here), and performs the write-back when its GTS turn arrives.
//!
//! Every protocol decision goes through the pure [`csmv::steps`]
//! functions: intra-batch pre-validation ([`csmv::steps::preval_losers`]),
//! batch windows ([`csmv::steps::batch_window`] /
//! [`csmv::steps::window_is_dense`]) and GTS turn-taking
//! ([`csmv::steps::gts_turn_reached`] / [`csmv::steps::gts_publish_value`]).
//! The one wait a commit can block in is the turn wait, a park on the
//! ATR's event-driven handoff ([`crate::atr::NativeAtr::wait_turn`]); a
//! round with nothing runnable parks on the same handoff until the GTS
//! moves. One more step decides what is *not* run: a transaction that
//! aborted at snapshot `s` for a reason that is a function of `s` —
//! validation rejected it, or a version it reads is gone — stays where it
//! is while the GTS still reads `s` ([`csmv::steps::retry_may_succeed`]).
//!
//! Transactions reach the worker through one feed loop
//! ([`NativeWorker::feed`]) with two intakes: a closed-loop `TxSource`
//! ([`NativeWorker::run`]) or the engine's shared submit queue
//! ([`NativeWorker::serve`]).
//!
//! Retries follow the `retry_budget` of `stm_core::recovery::RetryPolicy`.
//! Latency samples recorded into the metrics report are **nanoseconds**.
//!
//! In steady state a commit allocates nothing and reads the clock about
//! once. Every buffer a round fills — executions, footprints, validation
//! slots, verdicts, the round's lanes — is emptied and reused, never
//! dropped ([`Lanes`], [`NativeWorker::release`]); and every time is a
//! difference of the worker's clock stamps ([`NativeWorker::stamp`]).
//!
//! Nothing in this module may panic: the `xtask` `no-panic-in-server-path`
//! lint covers every `impl NativeWorker` block.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use csmv::steps;
use stm_core::history::TxRecord;
use stm_core::metrics::{AbortReason, MetricsReport};
use stm_core::stats::CommitStats;
use stm_core::{TxLogic, TxOp, TxSource};

use crate::engine::{EngineJob, Intake};
use crate::pool::Shared;
use crate::validator::{TxSubmit, Validator, Verdict};

/// Backstop timeout for a turn-waiter parked in
/// [`crate::atr::NativeAtr::wait_turn`]: publishers unpark it long before
/// this in a healthy run; the timeout only bounds how late the
/// run-deadline watchdog can fire.
const TURN_WAIT_SLICE: Duration = Duration::from_micros(200);

/// How a transaction reports its terminal outcome. Closed-loop batch
/// sources use the no-op [`Fire`] wrapper (the harness only reads the
/// aggregate counters); engine jobs reply to their submitter over a
/// completion channel.
pub(crate) trait Finish: TxLogic {
    /// Report `outcome`, reached at `at`: the worker's latest stamp (the
    /// worker's clock rule, so a completion reads no clock of its own).
    fn finish(self, outcome: Result<(), AbortReason>, at: Instant);
}

/// No-op finisher wrapping a closed-loop source's transaction body.
struct Fire<T>(T);

impl<T: TxLogic> TxLogic for Fire<T> {
    fn is_read_only(&self) -> bool {
        self.0.is_read_only()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn next(&mut self, last_read: Option<u64>) -> TxOp {
        self.0.next(last_read)
    }
}

impl<T: TxLogic> Finish for Fire<T> {
    fn finish(self, _outcome: Result<(), AbortReason>, _at: Instant) {}
}

/// What one worker hands back to the harness when it joins.
pub(crate) struct WorkerOutput {
    pub stats: CommitStats,
    pub records: Vec<TxRecord>,
    pub metrics: MetricsReport,
}

/// Rounds between two samples of the store's memory footprint and of the
/// ATR's occupancy pushed into the metrics report (both reads are O(1);
/// this bounds sample volume, so the capped series span the whole run).
const FOOTPRINT_SAMPLE_ROUNDS: u64 = 64;

/// A transaction waiting to run (or re-run after an abort).
struct Pending<T> {
    tx: T,
    attempts: u32,
    /// Start of the current attempt, a stamp of the worker's clock: the
    /// start of its execution or, until it first runs, the feed loop's
    /// stamp when it was taken in.
    attempt_start: Instant,
    /// Starvation-freedom escalation (read-only transactions): the pinned
    /// snapshot and the registry slot holding it. A pinned transaction
    /// re-executes at this snapshot every retry; because the registration
    /// keeps the GC from reclaiming the versions it resolves on, and ROTs
    /// never validate, the next execution no write-back races commits. A
    /// pin that still overflows (poisoned by the one turn that scanned
    /// before it landed) is re-armed at a fresh snapshot, keeping the slot
    /// (see [`NativeWorker::maybe_pin`]).
    pin: Option<(u64, usize)>,
    /// The snapshot this transaction last aborted at for a reason that is
    /// a function of the snapshot alone: validation rejected it, or a
    /// version it reads is gone ([`NativeWorker::overflowed`]). While the
    /// GTS still reads that value a retry is futile
    /// ([`csmv::steps::retry_may_succeed`]): it would execute at the same
    /// snapshot and meet the same ATR entry, or the same missing version.
    /// Never cleared — once the GTS has moved past it, it no longer
    /// matters.
    rejected_at: Option<u64>,
}

impl<T> Pending<T> {
    /// `tx`, taken in by the feed loop at `now`.
    fn new(tx: T, now: Instant) -> Self {
        Self {
            tx,
            attempts: 0,
            attempt_start: now,
            pin: None,
            rejected_at: None,
        }
    }

    /// May this transaction be executed now, with the GTS at `gts`?
    fn runnable_at(&self, gts: u64) -> bool {
        self.rejected_at
            .is_none_or(|s| steps::retry_may_succeed(s, gts))
    }
}

/// Remove the first transaction of `pending` that may run at `gts`. Those
/// that may not keep their places, so order is kept on both sides.
fn pop_runnable<T>(pending: &mut VecDeque<Pending<T>>, gts: u64) -> Option<Pending<T>> {
    let first = pending.iter().position(|p| p.runnable_at(gts))?;
    pending.remove(first)
}

/// The buffers of one execution. They come off the worker's free list
/// and go back to it however the attempt ends — commit, abort or overflow
/// ([`NativeWorker::release`]) — so they are allocated once per
/// execution in flight, not once per execution.
#[derive(Default)]
struct Executed {
    /// `(item, value)` pairs actually read from shared state, in order.
    /// Only a [`TxRecord`] reads them, so they are kept only while the
    /// history is recorded.
    reads: Vec<(u64, u64)>,
    /// Deduplicated read-set items, ascending (the validation footprint
    /// of an update transaction; empty for a read-only one).
    rs: Vec<u64>,
    /// `(item, value)` write-set, last write per item.
    ws: Vec<(u64, u64)>,
}

enum Exec {
    /// Read-only: consistent by construction at its snapshot.
    ReadOnly(Executed),
    /// An update transaction ready for commit.
    Update(Executed),
    /// A version rolled out of the store ring mid-execution.
    Overflow,
    /// The write-set has more items than an ATR entry holds: no attempt
    /// can ever commit it.
    Oversize,
}

/// What an intake hands the feed loop when asked for the next transaction.
enum Next<T> {
    Tx(T),
    /// Nothing available right now; more may come.
    Empty,
    /// Nothing will ever come again.
    Closed,
}

/// What the feed loop owns: the work buffered behind the round, and the
/// buffers a round passes its batch through. They are emptied, never
/// dropped, so once they have grown to a batch a round allocates nothing.
struct Lanes<T> {
    /// Transactions waiting to run (or re-run).
    pending: VecDeque<Pending<T>>,
    /// The round's executed update transactions, each with its snapshot.
    execs: Vec<(Pending<T>, Executed, u64)>,
    /// Those of `execs` that pre-validation kept.
    survivors: Vec<(Pending<T>, Executed, u64)>,
    /// One validation slot per survivor; slots past the batch keep their
    /// buffers for later rounds.
    subs: Vec<TxSubmit>,
    /// The validator's verdicts on the survivors.
    verdicts: Vec<Verdict>,
    /// The survivors validation granted, each with its commit timestamp.
    granted: Vec<(Pending<T>, Executed, u64, u64)>,
    /// The granted commit timestamps.
    ctss: Vec<u64>,
    /// Aborted attempts, back into `pending` when the round ends.
    retry: Vec<Pending<T>>,
}

impl<T> Lanes<T> {
    fn new() -> Self {
        Self {
            pending: VecDeque::new(),
            execs: Vec::new(),
            survivors: Vec::new(),
            subs: Vec::new(),
            verdicts: Vec::new(),
            granted: Vec::new(),
            ctss: Vec::new(),
            retry: Vec::new(),
        }
    }
}

pub(crate) struct NativeWorker {
    id: usize,
    ctx: Shared,
    validator: Validator,
    rounds: u64,
    stats: CommitStats,
    records: Vec<TxRecord>,
    metrics: MetricsReport,
    /// The worker's clock: its latest stamp ([`NativeWorker::stamp`]).
    now: Instant,
    /// Execution buffers not in use.
    free: Vec<Executed>,
    /// The items the execution in progress has read; an update's
    /// footprint is deduplicated out of it. The one buffer a full scan
    /// grows, so scan-sized capacity stays out of the free list.
    read_items: Vec<u64>,
    /// The registered reader snapshots a write-back retains versions for.
    readers: Vec<u64>,
    /// Write-set-items scratch for the pre-validation broadcast.
    scratch_ws: Vec<u64>,
}

impl NativeWorker {
    /// Worker `id` of the pool `ctx` describes.
    pub(crate) fn new(id: usize, ctx: Shared) -> Self {
        Self {
            id,
            validator: Validator::new(&ctx),
            now: ctx.start,
            ctx,
            rounds: 0,
            stats: CommitStats::default(),
            records: Vec::new(),
            metrics: MetricsReport::default(),
            free: Vec::new(),
            read_items: Vec::new(),
            readers: Vec::new(),
            scratch_ws: Vec::new(),
        }
    }

    /// Read the clock into the worker's stamp. It is read once per
    /// feed-loop iteration (after the intake answered, never before a
    /// blocking refill: the deadline check and the arrivals' stamp), once
    /// per execution (its end, and the next execution's start), once after
    /// each GTS publication (the latency of the whole batch), and only
    /// while a turn wait actually waits; and once after a validation that
    /// rejected something, which ends those attempts.
    fn stamp(&mut self) -> Instant {
        self.now = Instant::now();
        self.now
    }

    /// Nanoseconds from `since` to the latest stamp.
    fn elapsed(&self, since: Instant) -> u64 {
        self.now.saturating_duration_since(since).as_nanos() as u64
    }

    /// The latest stamp on the run's time axis (for sampled series).
    fn now_ns(&self) -> u64 {
        self.elapsed(self.ctx.start)
    }

    /// Hand an execution's buffers back to the free list, emptied.
    fn release(&mut self, mut ex: Executed) {
        ex.reads.clear();
        ex.rs.clear();
        ex.ws.clear();
        self.free.push(ex);
    }

    /// Drain the source to completion (or the run deadline), committing
    /// in batches of up to `max_batch`.
    pub(crate) fn run<S: TxSource>(self, mut source: S) -> WorkerOutput {
        self.feed(|_idle| match source.next_tx() {
            Some(tx) => Next::Tx(Fire(tx)),
            None => Next::Closed,
        })
    }

    /// Serve transactions submitted through a [`crate::NativeEngine`]:
    /// move jobs out of the intake every worker shares, up to one batch
    /// per lock ([`Intake::refill`]), and feed them on one by one — until
    /// the intake is closed and empty, or the run deadline.
    ///
    /// Only an idle worker waits, on the intake's condvar, until a job
    /// arrives, the intake closes or the deadline; a worker with work in
    /// hand takes what is queued right now. Once `refill` reports that
    /// this worker has left — at the deadline it hands over everything
    /// still queued, for the feed loop to fail — it is never called again.
    pub(crate) fn serve(self, intake: &Intake) -> WorkerOutput {
        let (batch, deadline) = (self.ctx.max_batch, self.ctx.deadline);
        let mut hand: VecDeque<EngineJob> = VecDeque::with_capacity(batch);
        let mut left = false;
        self.feed(|idle| {
            if hand.is_empty() && !left {
                left = intake.refill(&mut hand, batch, idle, deadline);
            }
            match hand.pop_front() {
                Some(job) => Next::Tx(job),
                None if left => Next::Closed,
                None => Next::Empty,
            }
        })
    }

    /// The feed loop: keep up to two batches of work buffered and commit
    /// it round by round until the intake closes and nothing is pending.
    /// A round passes over the transactions rejected at its snapshot
    /// ([`pop_runnable`]), so the second batch lets it fill anyway.
    /// `next(idle)` yields the next transaction; `idle` tells it the
    /// worker holds no work and may block briefly.
    ///
    /// At the run deadline everything buffered *and* everything the intake
    /// still holds is failed with `ServerTimeout`, so commits + failed
    /// accounts for every transaction and every accepted engine job gets
    /// a terminal completion.
    fn feed<T: Finish>(mut self, mut next: impl FnMut(bool) -> Next<T>) -> WorkerOutput {
        let mut l = Lanes::new();
        let mut closed = false;
        let target = 2 * self.ctx.max_batch;
        loop {
            // The iteration's stamp is read once the intake has answered:
            // only the first call can block (it alone is made idle), and
            // the stamp must not predate that wait.
            let mut stamp = None;
            while !closed && l.pending.len() < target {
                let got = next(l.pending.is_empty());
                let now = *stamp.get_or_insert_with(Instant::now);
                match got {
                    Next::Tx(tx) => l.pending.push_back(Pending::new(tx, now)),
                    Next::Empty => break,
                    Next::Closed => closed = true,
                }
            }
            self.now = stamp.unwrap_or_else(Instant::now);
            if self.now >= self.ctx.deadline {
                for p in l.pending.drain(..) {
                    self.fail(p, AbortReason::ServerTimeout);
                }
                while let Next::Tx(tx) = next(false) {
                    self.fail(Pending::new(tx, self.now), AbortReason::ServerTimeout);
                }
                break;
            }
            if l.pending.is_empty() {
                if closed {
                    break;
                }
                continue;
            }
            self.round(&mut l);
        }
        WorkerOutput {
            stats: self.stats,
            records: self.records,
            metrics: self.metrics,
        }
    }

    /// One round: execute everything pending at a single snapshot,
    /// pre-validate the batch, validate the survivors and reserve their
    /// timestamps, write back the granted window.
    ///
    /// The round's snapshot is registered in the reader table for the
    /// duration of the execute phase, so concurrent write-backs retain
    /// (spill rather than reclaim) any version this round's reads resolve
    /// on. Pinned transactions (see [`NativeWorker::maybe_pin`]) execute
    /// at their own pinned snapshot instead.
    ///
    /// Transactions that validation rejected, or that could not read a
    /// version, at this very snapshot are passed over
    /// ([`Pending::runnable_at`]): no execution, no budget charge.
    /// A round left with nothing to run waits for the next GTS
    /// publication on the ATR's waiter list instead of re-running them.
    fn round<T: Finish>(&mut self, l: &mut Lanes<T>) {
        self.rounds += 1;
        if self.sampling_round() {
            self.metrics
                .footprint
                .push(self.now_ns(), self.ctx.store.footprint_bytes());
        }
        let snapshot = self.ctx.atr.gts();
        let round_slot = self.ctx.registry.register(snapshot);
        // Fill the batch straight out of `pending`. What runs ends in
        // `execs` or `retry` (or commits), never back in `pending`, so no
        // transaction runs twice in a round.
        let mut ran = 0;
        while ran < self.ctx.max_batch {
            let Some(mut p) = pop_runnable(&mut l.pending, snapshot) else {
                break;
            };
            ran += 1;
            if p.attempts > 0 {
                p.tx.reset();
            }
            // The previous execution's end stamp is this one's start.
            p.attempt_start = self.now;
            let snap = p.pin.map_or(snapshot, |(s, _)| s);
            let exec = self.execute(&mut p.tx, snap);
            self.stamp();
            match exec {
                Exec::ReadOnly(ex) => self.commit_rot(p, snap, ex),
                Exec::Update(ex) => l.execs.push((p, ex, snap)),
                Exec::Overflow => l.retry.extend(self.overflowed(p, snap)),
                Exec::Oversize => self.fail(p, AbortReason::AtrWindowOverflow),
            }
        }
        if ran == 0 {
            // Everything pending aborted at this snapshot against a batch
            // another worker has reserved and not yet published.
            // `TURN_WAIT_SLICE` bounds the park, so the feed loop still
            // sees the run deadline and new arrivals.
            if let Some(slot) = round_slot {
                self.ctx.registry.deregister(slot);
            }
            self.ctx.atr.wait_gts_past(snapshot, TURN_WAIT_SLICE);
            return;
        }

        // Intra-batch pre-validation: the native analogue of the
        // simulator's intra-warp broadcast round, over the same pure step.
        // Mixed snapshots are fine — the rule is footprint intersection,
        // independent of when each lane executed.
        let n = l.execs.len();
        debug_assert!(n <= 32, "max_batch must be <= 32");
        let committing: u32 = if n == 0 {
            0
        } else {
            u32::MAX >> (u32::BITS as usize - n)
        };
        let mut losers: u32 = 0;
        for b in 0..n {
            if losers & (1 << b) != 0 {
                continue;
            }
            self.scratch_ws.clear();
            self.scratch_ws
                .extend(l.execs[b].1.ws.iter().map(|&(i, _)| i));
            losers |= steps::preval_losers(b, &self.scratch_ws, committing & !losers, |j, item| {
                let e = &l.execs[j].1;
                e.rs.contains(&item) || e.ws.iter().any(|&(i, _)| i == item)
            });
        }
        for (k, (p, ex, snap)) in l.execs.drain(..).enumerate() {
            if losers & (1 << k) != 0 {
                self.release(ex);
                l.retry
                    .extend(self.recycle(p, AbortReason::PreValidationKill));
            } else {
                l.survivors.push((p, ex, snap));
            }
        }

        // Reads are done: release the round's reader slot before the
        // write-back so our own registration doesn't force needless
        // spills. Pinned transactions keep their slots across rounds.
        if let Some(slot) = round_slot {
            self.ctx.registry.deregister(slot);
        }
        if !l.survivors.is_empty() {
            self.commit_batch(l);
        }
        l.pending.extend(l.retry.drain(..));
    }

    /// A read of `p` at `snapshot` found no version: recycle it with the
    /// reason [`Self::overflow_reason`] gives, pinning or re-arming a
    /// long reader ([`Self::maybe_pin`]). Versions are only ever replaced
    /// by newer ones, so what is unreadable at `snapshot` stays
    /// unreadable at it: like a validation reject, the abort is recorded
    /// in `rejected_at` and the retry waits for the GTS to move
    /// ([`csmv::steps::retry_may_succeed`]). Without that, a transaction
    /// reading an item whose writer has written back but not yet published
    /// the GTS — and is not getting the CPU — burns its whole retry budget
    /// at one snapshot.
    fn overflowed<T: Finish>(&mut self, p: Pending<T>, snapshot: u64) -> Option<Pending<T>> {
        let reason = self.overflow_reason(snapshot);
        let mut p = self.recycle(p, reason)?;
        p.rejected_at = Some(snapshot);
        self.maybe_pin(&mut p);
        Some(p)
    }

    /// Classify a store read failure: below the GC watermark the version
    /// was legitimately reclaimed (`SnapshotTooOld` — retry with a fresh,
    /// registered snapshot); at or above it the loss came from the
    /// registration/scan race window (`VersionOverflow`).
    fn overflow_reason(&self, snapshot: u64) -> AbortReason {
        if snapshot < self.ctx.registry.watermark(self.ctx.atr.gts()) {
            AbortReason::SnapshotTooOld
        } else {
            AbortReason::VersionOverflow
        }
    }

    /// Starvation-freedom escalation: once a read-only transaction has
    /// burned half its retry budget ([`csmv::steps::should_pin`]), pin the
    /// current snapshot — register it and keep it across retries. The
    /// registration keeps every version the snapshot resolves on retained,
    /// and ROTs never validate, so a pinned reader commits as soon as it
    /// gets one execution no write-back races.
    ///
    /// At most one write-back turn can have scanned the registry before
    /// the pin landed (turns are serialized by the GTS), and that turn may
    /// reclaim a version the pinned snapshot needs — leaving the snapshot
    /// *permanently* unreadable. So when an already-pinned transaction
    /// overflows, the pin is **re-armed**: the held slot moves
    /// ([`stm_core::SnapshotRegistry::update`]) to a fresh snapshot instead of
    /// dooming the reader to retry a dead one. Every turn that scans after
    /// the re-arm retains the new snapshot's versions. Overflows while
    /// pinned are also exempt from the retry budget (see
    /// [`NativeWorker::recycle`]): each one implies a racing turn
    /// poisoned the (re-)registration, which is bounded to one per turn,
    /// so a pinned reader never terminates with `RetryBudgetExhausted` —
    /// it commits once one execution goes unraced (the run-deadline
    /// watchdog still bounds the total wait).
    ///
    /// No-op when the registry is full (the reader stays on ordinary
    /// retries) or for update transactions (their validation can fail
    /// regardless of version retention, so pinning buys them nothing).
    fn maybe_pin<T: TxLogic>(&mut self, p: &mut Pending<T>) {
        if !p.tx.is_read_only() {
            return;
        }
        if let Some((_, slot)) = p.pin {
            let snap = self.ctx.atr.gts();
            self.ctx.registry.update(slot, snap);
            p.pin = Some((snap, slot));
            return;
        }
        if !steps::should_pin(p.attempts, self.ctx.policy.retry_budget) {
            return;
        }
        let snap = self.ctx.atr.gts();
        if let Some(slot) = self.ctx.registry.register(snap) {
            p.pin = Some((snap, slot));
        }
    }

    /// Drop a transaction's pinned-snapshot registration, if any.
    fn release_pin<T>(&self, p: &mut Pending<T>) {
        if let Some((_, slot)) = p.pin.take() {
            self.ctx.registry.deregister(slot);
        }
    }

    /// Execute one transaction body at `snapshot` against the store, into
    /// buffers off the free list.
    ///
    /// Kept out of line: inlined into `round`, its only caller, the read
    /// loop ran 6 % slower (`store.reads_per_s` on `native-scan`).
    #[inline(never)]
    fn execute<T: TxLogic>(&mut self, tx: &mut T, snapshot: u64) -> Exec {
        let mut ex = self.free.pop().unwrap_or_default();
        self.read_items.clear();
        let mut last: Option<u64> = None;
        loop {
            match tx.next(last) {
                TxOp::Read { item } => {
                    if let Some(&(_, v)) = ex.ws.iter().find(|&&(i, _)| i == item) {
                        // Read-own-write: served from the private buffer,
                        // excluded from the recorded reads (it never
                        // touched shared state).
                        last = Some(v);
                    } else {
                        match self.ctx.store.read_at(item, snapshot) {
                            Some(v) => {
                                self.read_items.push(item);
                                if self.ctx.record_history {
                                    ex.reads.push((item, v));
                                }
                                last = Some(v);
                            }
                            None => {
                                self.release(ex);
                                return Exec::Overflow;
                            }
                        }
                    }
                }
                TxOp::Write { item, value } => {
                    match ex.ws.iter_mut().find(|(i, _)| *i == item) {
                        Some(entry) => entry.1 = value,
                        None => ex.ws.push((item, value)),
                    }
                    last = None;
                }
                TxOp::Finish => break,
            }
        }
        if ex.ws.is_empty() {
            Exec::ReadOnly(ex)
        } else if ex.ws.len() > self.ctx.atr.max_ws() {
            self.release(ex);
            Exec::Oversize
        } else {
            // The validation footprint, by sort + dedup. Built once at the
            // end — never per read, which would be quadratic in the read
            // count (a full-scan ROT reads every item).
            self.read_items.sort_unstable();
            self.read_items.dedup();
            ex.rs.extend_from_slice(&self.read_items);
            Exec::Update(ex)
        }
    }

    /// Is this one of the rounds whose footprint and occupancy are
    /// sampled?
    fn sampling_round(&self) -> bool {
        self.rounds % FOOTPRINT_SAMPLE_ROUNDS == 1
    }

    /// Validate the surviving batch and reserve its timestamps in place
    /// and, for what was granted, perform the in-order write-back and
    /// single GTS publication.
    fn commit_batch<T: Finish>(&mut self, l: &mut Lanes<T>) {
        let n = l.survivors.len();
        if l.subs.len() < n {
            l.subs.resize_with(n, TxSubmit::default);
        }
        for ((_, ex, snap), sub) in l.survivors.iter_mut().zip(&mut l.subs) {
            sub.snapshot = *snap;
            // Nothing reads a survivor's footprint after validation, so it
            // moves into the slot; the slot's old buffer circulates back.
            std::mem::swap(&mut sub.rs, &mut ex.rs);
            sub.ws.clear();
            sub.ws.extend(ex.ws.iter().map(|&(i, _)| i));
        }
        self.validator
            .validate_and_reserve(&l.subs[..n], &mut self.metrics, &mut l.verdicts);
        if l.verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Rejected { .. }))
        {
            // The rejected attempts end here, not at their executions' end.
            self.stamp();
        }
        for ((p, ex, snap), &v) in l.survivors.drain(..).zip(&l.verdicts) {
            match v {
                Verdict::Granted { cts } => l.granted.push((p, ex, snap, cts)),
                Verdict::Rejected { reason } => {
                    self.release(ex);
                    if let Some(mut p) = self.recycle(p, reason) {
                        p.rejected_at = Some(snap);
                        l.retry.push(p);
                    }
                }
            }
        }
        if l.granted.is_empty() {
            return;
        }
        // The live window right after a reservation, this batch included;
        // sampled, because a push per batch fills the capped series within
        // the first half second of a run.
        if self.sampling_round() {
            self.metrics
                .atr_occupancy
                .push(self.now_ns(), self.ctx.atr.occupancy());
        }
        l.ctss.clear();
        l.ctss.extend(l.granted.iter().map(|&(_, _, _, c)| c));
        let (base, nw) = steps::batch_window(&l.ctss);
        debug_assert!(steps::window_is_dense(&l.ctss));
        if !self.await_turn(base) {
            // Deadline while waiting: nothing was written back, so the
            // committed history stays consistent (the GTS hole just
            // stalls everyone else until their own deadline).
            for (p, ex, _, _) in l.granted.drain(..) {
                self.release(ex);
                self.fail(p, AbortReason::ServerTimeout);
            }
            return;
        }
        // Timestamps are unique, so the unstable sort (which, unlike the
        // stable one, never allocates) keeps nothing out of order.
        l.granted.sort_unstable_by_key(|&(_, _, _, c)| c);
        // One registry scan per batch: the write-back's GC pass retains
        // every version a currently registered reader resolves on. A
        // registration landing mid-write-back can miss this scan — that
        // reader's one spurious abort is the documented race window.
        self.ctx.registry.registered_into(&mut self.readers);
        for (_, ex, _, cts) in &l.granted {
            for &(item, value) in &ex.ws {
                self.ctx
                    .store
                    .publish_gated(item, *cts, value, &self.readers);
            }
        }
        self.ctx.atr.publish_gts(steps::gts_publish_value(base, nw));
        // One stamp ends every attempt of the batch: latency runs from
        // each attempt's start to the publication.
        self.stamp();
        for (p, mut ex, snap, cts) in l.granted.drain(..) {
            let latency = self.elapsed(p.attempt_start);
            self.stats.update_commits += 1;
            self.stats.useful_cycles += latency;
            self.metrics.record_commit(latency);
            if self.ctx.record_history {
                self.records.push(TxRecord {
                    thread: self.id,
                    read_point: snap,
                    cts: Some(cts),
                    reads: std::mem::take(&mut ex.reads),
                    writes: std::mem::take(&mut ex.ws),
                });
            }
            self.release(ex);
            p.tx.finish(Ok(()), self.now);
        }
    }

    /// Wait until it is `base`'s turn to publish
    /// ([`csmv::steps::gts_turn_reached`]); false on deadline. The worker
    /// parks on the ATR's turn handoff and is woken by the publisher the
    /// moment its predecessor's window lands; `TURN_WAIT_SLICE` bounds
    /// each park, so the run deadline is seen between parks.
    ///
    /// A turn that is already there costs no clock read and no sample:
    /// only a wait is timed and recorded into `gts_stall`.
    fn await_turn(&mut self, base: u64) -> bool {
        if steps::gts_turn_reached(self.ctx.atr.gts(), base) {
            return true;
        }
        let wait_start = self.stamp();
        loop {
            if self.now >= self.ctx.deadline {
                return false;
            }
            self.ctx.atr.wait_turn(base, TURN_WAIT_SLICE);
            self.stamp();
            if steps::gts_turn_reached(self.ctx.atr.gts(), base) {
                let waited = self.elapsed(wait_start);
                self.metrics.gts_stall.push(self.now_ns(), waited);
                return true;
            }
        }
    }

    /// Commit a read-only transaction: consistent at its snapshot by
    /// construction, no validation (as in the paper).
    fn commit_rot<T: Finish>(&mut self, mut p: Pending<T>, snapshot: u64, mut ex: Executed) {
        if p.pin.is_some() {
            self.metrics.gc.pinned_commits += 1;
        }
        self.release_pin(&mut p);
        let latency = self.elapsed(p.attempt_start);
        self.stats.rot_commits += 1;
        self.stats.useful_cycles += latency;
        self.metrics.record_commit(latency);
        if self.ctx.record_history {
            self.records.push(TxRecord {
                thread: self.id,
                read_point: snapshot,
                cts: None,
                reads: std::mem::take(&mut ex.reads),
                writes: Vec::new(),
            });
        }
        self.release(ex);
        p.tx.finish(Ok(()), self.now);
    }

    /// Record a retriable abort and hand the transaction back for another
    /// attempt — or, once its retry budget is exhausted, fail it
    /// terminally with `RetryBudgetExhausted` and return `None`. The
    /// attempt ends at the worker's latest stamp.
    ///
    /// Aborts of an already-pinned reader are recorded in the stats but
    /// **not** charged against the budget: the re-arm bounds them to one
    /// per racing write-back turn (see [`NativeWorker::maybe_pin`]), and
    /// not charging them is what makes the pinned commit a guarantee
    /// rather than best-effort — a repeatedly-poisoned pin can no longer
    /// burn down to `RetryBudgetExhausted` while waiting out the race.
    /// (Only read-only transactions pin, and they only abort on overflow,
    /// so this never shields a validation failure.)
    fn recycle<T: Finish>(&mut self, mut p: Pending<T>, reason: AbortReason) -> Option<Pending<T>> {
        let latency = self.elapsed(p.attempt_start);
        if p.tx.is_read_only() {
            self.stats.rot_aborts += 1;
        } else {
            self.stats.update_aborts += 1;
        }
        self.stats.wasted_cycles += latency;
        self.metrics.record_abort(reason, latency);
        if p.pin.is_none() {
            p.attempts += 1;
            if self.ctx.policy.budget_exhausted(p.attempts) {
                self.fail(p, AbortReason::RetryBudgetExhausted);
                return None;
            }
        }
        Some(p)
    }

    /// Fail a transaction terminally (recovery outcome, never retried)
    /// and deliver its completion.
    fn fail<T: Finish>(&mut self, mut p: Pending<T>, reason: AbortReason) {
        self.release_pin(&mut p);
        let latency = self.elapsed(p.attempt_start);
        self.stats.failed += 1;
        self.stats.wasted_cycles += latency;
        self.metrics.record_abort(reason, latency);
        p.tx.finish(Err(reason), self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atr::NativeAtr;
    use crate::engine::{Completion, CompletionSink, Refused, Submission};
    use crate::store::NativeStore;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use stm_core::{RetryPolicy, SnapshotRegistry};
    use workloads::BankTx;

    /// Worker 0 of a one-worker pool. Where a scenario needs a second
    /// committer, the test is it: it takes commit timestamp 1
    /// (`NativeAtr::reserve_and_insert`) on the ATR it shares with the
    /// worker, so the GTS stays at 0 until the test publishes it.
    fn lone_worker(
        registry: Arc<SnapshotRegistry>,
        store: Arc<NativeStore>,
        atr: Arc<NativeAtr>,
        budget: u32,
        max_run: Duration,
    ) -> NativeWorker {
        let start = Instant::now();
        let ctx = Shared {
            store,
            atr,
            registry,
            policy: RetryPolicy {
                retry_budget: Some(budget),
                ..RetryPolicy::default()
            },
            start,
            deadline: start + max_run,
            max_batch: 8,
            record_history: true,
        };
        NativeWorker::new(0, ctx)
    }

    /// A lone worker over `accounts` accounts of balance 100, retry
    /// budget `budget`, and the ATR it commits on.
    fn bank_worker(
        accounts: u64,
        budget: u32,
        max_run: Duration,
    ) -> (NativeWorker, Arc<NativeAtr>) {
        let atr = Arc::new(NativeAtr::new(64, 4));
        let w = lone_worker(
            Arc::new(SnapshotRegistry::new(4)),
            Arc::new(NativeStore::new(accounts, 2, |_| 100)),
            atr.clone(),
            budget,
            max_run,
        );
        (w, atr)
    }

    /// An item no transfer touches.
    const ELSEWHERE: u64 = u64::MAX;

    /// Transfer `k` of a conflict-free series: account `2k` to `2k + 1`.
    fn transfer(k: u64) -> BankTx {
        BankTx::Transfer {
            from: 2 * k,
            to: 2 * k + 1,
            amount: 1,
            step: 0,
            from_balance: 0,
            to_balance: 0,
        }
    }

    /// Closed-loop source of `transfer(0..n)`.
    struct Transfers(std::ops::Range<u64>);

    impl TxSource for Transfers {
        type Tx = BankTx;
        fn next_tx(&mut self) -> Option<BankTx> {
            self.0.next().map(transfer)
        }
    }

    /// Counts the executions of the wrapped body, as each one begins.
    struct Counted {
        tx: BankTx,
        runs: Arc<AtomicUsize>,
        begun: bool,
    }

    fn counted(tx: BankTx, runs: &Arc<AtomicUsize>) -> Fire<Counted> {
        Fire(Counted {
            tx,
            runs: runs.clone(),
            begun: false,
        })
    }

    impl TxLogic for Counted {
        fn is_read_only(&self) -> bool {
            self.tx.is_read_only()
        }
        fn reset(&mut self) {
            self.begun = false;
            self.tx.reset()
        }
        fn next(&mut self, last_read: Option<u64>) -> TxOp {
            if !std::mem::replace(&mut self.begun, true) {
                self.runs.fetch_add(1, Ordering::SeqCst);
            }
            self.tx.next(last_read)
        }
    }

    /// Spin until `executed` reaches `n`; false if it has not after 5 s.
    fn wait_for(executed: &AtomicUsize, n: usize) -> bool {
        let give_up = Instant::now() + Duration::from_secs(5);
        while executed.load(Ordering::SeqCst) < n {
            if Instant::now() >= give_up {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// The deadline drain is the same for both intakes. Another committer
    /// holds commit timestamp 1 and never publishes — a GTS hole — so the
    /// worker's first batch is granted a window whose turn never comes:
    /// what holds that reservation, what is buffered behind it, and
    /// everything the intake still holds, each get exactly one terminal
    /// `ServerTimeout`.
    #[test]
    fn deadline_fails_every_transaction_of_either_intake_exactly_once() {
        const PRODUCED: u64 = 40;
        let max_run = Duration::from_millis(60);

        let (w, atr) = bank_worker(2 * PRODUCED, 8, max_run);
        atr.reserve_and_insert(1, &[ELSEWHERE]);
        let out = w.run(Transfers(0..PRODUCED));
        assert_eq!(out.stats.commits(), 0);
        assert_eq!(out.stats.failed, PRODUCED);
        assert_eq!(out.stats.aborts(), 0, "nothing conflicts with the hole");
        assert_eq!(atr.next_cts(), 10, "the first batch did reserve");
        assert_eq!(atr.gts(), 0, "and was never written back");

        let (w, atr) = bank_worker(2 * PRODUCED, 8, max_run);
        atr.reserve_and_insert(1, &[ELSEWHERE]);
        let intake = Intake::new(PRODUCED as usize, 1);
        let outcomes = Arc::new(Outcomes(Mutex::new(Vec::new())));
        let sink: Arc<dyn CompletionSink> = outcomes.clone();
        let mut jobs: Vec<Submission> = (0..PRODUCED)
            .map(|k| Submission {
                ticket: k,
                tx: Box::new(transfer(k)),
            })
            .collect();
        assert_eq!(intake.offer(&sink, &mut jobs), Ok(()));
        // The intake stays open: only the deadline ends the run, and most
        // jobs are still queued when it does. The lone worker is the last
        // to leave, so it closes the intake behind it.
        let out = w.serve(&intake);
        assert_eq!(out.stats.commits(), 0);
        assert_eq!(out.stats.failed, PRODUCED);
        let mut settled = outcomes.0.lock().unwrap().clone();
        settled.sort_unstable_by_key(|&(ticket, _)| ticket);
        let timed_out: Vec<_> = (0..PRODUCED)
            .map(|k| (k, Err(AbortReason::ServerTimeout)))
            .collect();
        assert_eq!(settled, timed_out, "every ticket settled exactly once");
        let mut late = vec![Submission {
            ticket: PRODUCED,
            tx: Box::new(transfer(0)),
        }];
        assert_eq!(intake.offer(&sink, &mut late), Err(Refused::Closed));
    }

    /// A sink that keeps `(ticket, outcome)` for the test.
    struct Outcomes(Mutex<Vec<(u64, Result<(), AbortReason>)>>);

    impl CompletionSink for Outcomes {
        fn complete(&self, ticket: u64, completion: Completion) {
            self.0.lock().unwrap().push((ticket, completion.outcome));
        }
    }

    /// A batch waiting for its turn holds the worker: nothing buffered
    /// behind it runs until the turn comes. The other committer holds
    /// cts 1, so the first batch of eight is granted the window 2..=9 and
    /// the worker parks for its turn; the eight transfers buffered behind
    /// it have not run by then, and run once each after the test
    /// publishes the GTS.
    #[test]
    fn work_buffered_behind_a_batch_awaiting_its_turn_waits_with_it() {
        let (w, atr) = bank_worker(32, 8, Duration::from_secs(10));
        atr.reserve_and_insert(1, &[ELSEWHERE]);
        let executed = Arc::new(AtomicUsize::new(0));
        let out = std::thread::scope(|s| {
            let seen = executed.clone();
            s.spawn(move || {
                let give_up = Instant::now() + Duration::from_secs(5);
                while atr.parked_waiters() == 0 && Instant::now() < give_up {
                    std::thread::yield_now();
                }
                let ran = seen.load(Ordering::SeqCst);
                // The other committer's write-back lands: the worker's
                // window is next.
                atr.publish_gts(1);
                assert_eq!(ran, 8, "bodies run while the turn was held");
            });
            let mut k = 0;
            w.feed(|_idle| {
                if k == 16 {
                    return Next::Closed;
                }
                k += 1;
                Next::Tx(counted(transfer(k - 1), &executed))
            })
        });
        assert_eq!(out.stats.update_commits, 16);
        assert_eq!(out.stats.failed, 0);
        assert_eq!(out.stats.aborts(), 0);
        assert_eq!(executed.load(Ordering::SeqCst), 16, "each body ran once");
    }

    /// The doomed retry at a frozen GTS. Another committer has reserved
    /// commit timestamp 1 for a write to account 0 and not yet published
    /// the GTS, so a transfer executed at snapshot 0 aborts — rejected
    /// against that ATR entry, or, if the other's write-back has already
    /// replaced the only version, unable to read the account at all.
    /// Either abort is a function of the snapshot: while the GTS still
    /// reads 0 the worker must not run the transfer again — one execution
    /// in 50 ms — and the wait is charged nothing: with a budget of two, a
    /// second charge would fail the transaction. Once the test publishes
    /// the GTS the retry runs and commits.
    #[test]
    fn a_retry_rejected_at_a_frozen_gts_waits_for_the_next_publication() {
        for (written_back, abort) in [
            (false, AbortReason::ReadValidation),
            (true, AbortReason::VersionOverflow),
        ] {
            let atr = Arc::new(NativeAtr::new(64, 4));
            let store = Arc::new(NativeStore::new(2, 1, |_| 100));
            atr.reserve_and_insert(1, &[0]);
            if written_back {
                store.publish_gated(0, 1, 99, &[]);
            }
            let w = lone_worker(
                Arc::new(SnapshotRegistry::new(4)),
                store,
                atr.clone(),
                2,
                Duration::from_secs(10),
            );
            let executed = Arc::new(AtomicUsize::new(0));
            let out = std::thread::scope(|s| {
                let seen = executed.clone();
                s.spawn(move || {
                    let ran = wait_for(&seen, 1);
                    std::thread::sleep(Duration::from_millis(50));
                    let runs = seen.load(Ordering::SeqCst);
                    // The other committer's turn ends: cts 1 is history.
                    atr.publish_gts(1);
                    assert!(ran, "the transfer never ran");
                    assert_eq!(runs, 1, "{abort:?}: re-run at the snapshot it aborted at");
                });
                let mut fed = false;
                w.feed(|_idle| {
                    if std::mem::replace(&mut fed, true) {
                        return Next::Closed;
                    }
                    Next::Tx(counted(transfer(0), &executed))
                })
            });
            assert_eq!(out.stats.update_commits, 1, "{abort:?}");
            assert_eq!(out.stats.update_aborts, 1, "{abort:?}: charged once");
            assert_eq!(out.metrics.aborts.count(abort), 1);
            assert_eq!(out.stats.failed, 0, "{abort:?}");
            assert_eq!(executed.load(Ordering::SeqCst), 2);
            assert_eq!(out.records[0].read_point, 1, "the retry ran at the new GTS");
        }
    }

    fn full_scan(accounts: u64) -> Pending<Fire<BankTx>> {
        Pending::new(
            Fire(BankTx::Balance {
                accounts,
                next: 0,
                sum: 0,
            }),
            Instant::now(),
        )
    }

    /// The one-in-flight-turn race, as often as a test needs it: the turn
    /// of commit `cts` has replaced the only version of account 0 — its
    /// registry scan predated every registration, so the old version was
    /// reclaimed — and has not yet bumped the GTS, which reads `cts - 1`.
    /// A scan at that snapshot cannot read the account, and (the abort
    /// being a function of the snapshot) is not run again at it: each
    /// charged overflow below needs a turn of its own.
    fn racing_turn(store: &NativeStore, atr: &NativeAtr, cts: u64) {
        atr.publish_gts(cts - 1);
        store.publish_gated(0, cts, 20, &[]);
    }

    /// The poisoned-pin scenario, step by step: a write-back destroys the
    /// only version at the reader's snapshot *before* any registration
    /// lands (the one-in-flight-turn race), the reader burns half its
    /// budget and pins — a snapshot that is permanently unreadable — and
    /// the re-arm moves the held slot to a fresh snapshot that commits.
    #[test]
    fn poisoned_pin_is_rearmed_and_commits() {
        let store = Arc::new(NativeStore::new(1, 1, |_| 10));
        let atr = Arc::new(NativeAtr::new(64, 4));
        let registry = Arc::new(SnapshotRegistry::new(4));
        // Budget 6: pinning engages at attempt 3 (half the budget).
        let mut w = lone_worker(
            registry.clone(),
            store.clone(),
            atr.clone(),
            6,
            Duration::from_secs(10),
        );

        let mut l = Lanes::new();
        l.pending.push_back(full_scan(1));
        // Three rounds, each racing a turn — three overflows; the third
        // engages the pin, at the (poisoned) snapshot 2.
        for attempts in 1..=3 {
            racing_turn(&store, &atr, attempts as u64);
            w.round(&mut l);
            assert_eq!(l.pending.len(), 1, "still retrying");
            assert_eq!(l.pending[0].attempts, attempts);
        }
        let (pin_snap, pin_slot) = l.pending[0].pin.expect("pin engaged at half budget");
        assert_eq!(pin_snap, 2);
        assert_eq!(registry.min_registered(), Some(2), "pin slot is held");

        // The racing turn completes: GTS catches up to the write-back.
        atr.publish_gts(3);
        // The pinned snapshot is still dead; the retry overflows once more
        // and the re-arm moves the held slot to the fresh snapshot.
        w.round(&mut l);
        assert_eq!(l.pending.len(), 1);
        let (new_snap, new_slot) = l.pending[0].pin.expect("pin survives the re-arm");
        assert_eq!(new_snap, 3, "re-armed at the current GTS");
        assert_eq!(new_slot, pin_slot, "the slot is kept, not re-claimed");
        assert_eq!(
            l.pending[0].attempts, 3,
            "a poisoned-pin overflow is recorded but not charged"
        );

        // At snapshot 3 the scan reads the live version and commits.
        w.round(&mut l);
        assert!(l.pending.is_empty(), "pinned reader committed");
        assert_eq!(w.stats.rot_commits, 1);
        assert_eq!(w.stats.failed, 0);
        assert_eq!(w.metrics.gc.pinned_commits, 1);
        assert_eq!(
            registry.min_registered(),
            None,
            "the pin slot is released on commit"
        );
        // All 4 overflows are in the abort stats, but only the 3 unpinned
        // ones were charged — however often the pin is poisoned, the
        // budget can no longer run out.
        assert_eq!(w.stats.rot_aborts, 4);
    }

    /// A full registry never blocks a reader — it just stays on ordinary
    /// unpinned retries (and commits here once the snapshot advances).
    #[test]
    fn full_registry_degrades_to_unpinned_retries() {
        let store = Arc::new(NativeStore::new(1, 1, |_| 10));
        let atr = Arc::new(NativeAtr::new(64, 4));
        let registry = Arc::new(SnapshotRegistry::new(1));
        let foreign = registry.register(5).expect("slot free");
        let mut w = lone_worker(
            registry.clone(),
            store.clone(),
            atr.clone(),
            6,
            Duration::from_secs(10),
        );

        let mut l = Lanes::new();
        l.pending.push_back(full_scan(1));
        for attempts in 1..=4 {
            racing_turn(&store, &atr, attempts as u64);
            w.round(&mut l);
            assert_eq!(l.pending[0].attempts, attempts, "past half the budget");
            assert_eq!(l.pending[0].pin, None, "no slot free, no pin");
        }
        atr.publish_gts(4);
        w.round(&mut l);
        assert!(l.pending.is_empty());
        assert_eq!(w.stats.rot_commits, 1);
        assert_eq!(w.metrics.gc.pinned_commits, 0);
        registry.deregister(foreign);
    }
}

//! A native worker thread: executes transactions against the
//! multi-versioned store, pre-validates its own batch, validates it against
//! the ATR and reserves its commit timestamps in place
//! ([`crate::validator::Validator`] — the paper's server role, a function
//! call here), and performs the write-back when its GTS turn arrives.
//!
//! Every protocol decision goes through the pure [`csmv::steps`]
//! functions: intra-batch pre-validation ([`csmv::steps::preval_losers`],
//! via [`crate::validator::prevalidate`]), the batch window (the
//! reservation's, [`csmv::steps::reserve_outcome`]) and GTS turn-taking
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
//! Retries follow [`crate::NativeConfig::retry_budget`]. Times recorded
//! into the metrics report are **nanoseconds**.
//!
//! In steady state a commit allocates nothing and reads the clock about
//! once. Every buffer a round fills is emptied and reused, never dropped
//! ([`Lanes`], [`NativeWorker::release`]); an executed transaction stays
//! in its lane until it settles; and every time is a difference of the
//! worker's clock stamps ([`NativeWorker::stamp`]).
//!
//! Nothing in this module may panic: the `xtask` `no-panic-in-server-path`
//! lint covers every `impl NativeWorker` block.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::time::Instant;

use csmv::steps;
use stm_core::history::TxRecord;
use stm_core::metrics::{AbortReason, MetricsReport};
use stm_core::stats::CommitStats;
use stm_core::{TxLogic, TxOp, TxSource};

use crate::engine::{EngineJob, Intake};
use crate::pool::Shared;
use crate::validator::{prevalidate, TxSubmit, Validator, Verdict, WINDOW_CLOSED};

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

/// A transaction waiting to run (or re-run after an abort).
struct Pending<T> {
    tx: T,
    attempts: u32,
    /// Start of the current attempt, a stamp of the worker's clock: the
    /// start of its execution or, until it first runs, the feed loop's
    /// stamp when it was taken in.
    attempt_start: Instant,
    /// A read-only transaction's pinned snapshot and the registry slot
    /// holding it ([`NativeWorker::maybe_pin`]): it re-executes there.
    pin: Option<(u64, usize)>,
    /// The snapshot this transaction last aborted at for a reason that is
    /// a function of the snapshot alone — validation rejected it, or a
    /// version it reads is gone. While the GTS still reads it, a retry is
    /// futile ([`csmv::steps::retry_may_succeed`]). Never cleared.
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
    /// The snapshot, the read items as read (kept for an update only) and
    /// the write-set items; `values` holds the last value written to each.
    fp: TxSubmit,
    values: Vec<u64>,
}

/// An executed update transaction, from its execution to its settlement.
struct Lane<T> {
    p: Pending<T>,
    ex: Executed,
}

impl<T> Borrow<TxSubmit> for Lane<T> {
    fn borrow(&self) -> &TxSubmit {
        &self.ex.fp
    }
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
/// round's lanes; emptied, never dropped.
struct Lanes<T> {
    /// Transactions waiting to run (or re-run).
    pending: VecDeque<Pending<T>>,
    /// The round's executed update transactions, in execution order. An
    /// abort takes its lane out; the rest settle in place.
    execs: Vec<Lane<T>>,
    /// The validator's verdicts on `execs`.
    verdicts: Vec<Option<Verdict>>,
    /// Aborted attempts, back into `pending` when the round ends.
    retry: Vec<Pending<T>>,
}

impl<T> Lanes<T> {
    fn new() -> Self {
        Self {
            pending: VecDeque::new(),
            execs: Vec::new(),
            verdicts: Vec::new(),
            retry: Vec::new(),
        }
    }
}

pub(crate) struct NativeWorker {
    id: usize,
    ctx: Shared,
    validator: Validator,
    stats: CommitStats,
    records: Vec<TxRecord>,
    metrics: MetricsReport,
    /// The worker's clock: its latest stamp ([`NativeWorker::stamp`]).
    now: Instant,
    /// Execution buffers not in use.
    free: Vec<Executed>,
    /// The items the execution in progress has read, in read order, which
    /// an update's footprint copies: a full scan grows only this buffer.
    read_items: Vec<u64>,
    /// The registered reader snapshots a write-back retains versions for.
    readers: Vec<u64>,
}

impl NativeWorker {
    /// Worker `id` of the pool `ctx` describes.
    pub(crate) fn new(id: usize, ctx: Shared) -> Self {
        Self {
            id,
            validator: Validator::new(&ctx),
            now: ctx.start,
            ctx,
            stats: CommitStats::default(),
            records: Vec::new(),
            metrics: MetricsReport::default(),
            free: Vec::new(),
            read_items: Vec::new(),
            readers: Vec::new(),
        }
    }

    /// Read the clock into the worker's stamp: once per feed-loop
    /// iteration (after the intake answered), once per execution (its end
    /// and the next one's start), once after each GTS publication, once
    /// after a validation that rejected something, and while a turn wait
    /// actually waits (DESIGN.md §13, *the clock rule*).
    fn stamp(&mut self) -> Instant {
        self.now = Instant::now();
        self.now
    }

    /// Nanoseconds from `since` to the latest stamp.
    fn elapsed(&self, since: Instant) -> u64 {
        self.now.saturating_duration_since(since).as_nanos() as u64
    }

    /// Hand an execution's buffers back to the free list, emptied.
    fn release(&mut self, mut ex: Executed) {
        ex.reads.clear();
        ex.fp.rs.clear();
        ex.fp.ws.clear();
        ex.values.clear();
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
    /// The round's snapshot is registered in the reader table while it
    /// executes, so concurrent write-backs retain any version its reads
    /// resolve on. Pinned transactions ([`NativeWorker::maybe_pin`])
    /// execute at their own pinned snapshot instead.
    ///
    /// Transactions that validation rejected, or that could not read a
    /// version, at this very snapshot are passed over
    /// ([`Pending::runnable_at`]): no execution, no budget charge.
    /// A round left with nothing to run waits for the next GTS
    /// publication on the ATR's waiter list instead of re-running them.
    fn round<T: Finish>(&mut self, l: &mut Lanes<T>) {
        self.metrics
            .footprint
            .push(self.ctx.store.footprint_bytes());
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
                Exec::ReadOnly(ex) => self.commit_rot(p, ex),
                Exec::Update(ex) => l.execs.push(Lane { p, ex }),
                Exec::Overflow => l.retry.extend(self.overflowed(p, snap)),
                Exec::Oversize => self.fail(p, AbortReason::AtrWindowOverflow),
            }
        }
        if ran == 0 {
            // Everything pending aborted at this snapshot against a batch
            // another worker has reserved and is committing, so the
            // publication that ends this park comes within one commit (or
            // the run deadline does). Arrivals meanwhile wait in the
            // intake, for this worker's next round or an idle worker.
            if let Some(slot) = round_slot {
                self.ctx.registry.deregister(slot);
            }
            self.ctx.atr.wait_gts_past(snapshot, self.ctx.deadline);
            return;
        }

        // Intra-batch pre-validation. Mixed snapshots are fine — the rule
        // is footprint intersection, independent of when each lane
        // executed. The killed lanes leave; the rest keep their order.
        let losers = prevalidate(&l.execs);
        if losers != 0 {
            let mut lane = 0;
            let killed = l.execs.extract_if(.., |_| {
                lane += 1;
                losers & (1 << (lane - 1)) != 0
            });
            for Lane { p, ex } in killed {
                self.release(ex);
                l.retry
                    .extend(self.recycle(p, AbortReason::PreValidationKill));
            }
        }

        // Reads are done: release the round's reader slot before the
        // write-back so our own registration doesn't force needless
        // spills. Pinned transactions keep their slots across rounds.
        if let Some(slot) = round_slot {
            self.ctx.registry.deregister(slot);
        }
        if !l.execs.is_empty() {
            self.commit_batch(l);
        }
        l.pending.extend(l.retry.drain(..));
    }

    /// A read of `p` at `snapshot` found no version: recycle it with the
    /// reason [`Self::overflow_reason`] gives, pinning or re-arming a
    /// long reader ([`Self::maybe_pin`]). What is unreadable at `snapshot`
    /// stays so (versions are only replaced by newer ones), so like a
    /// validation reject the abort is recorded in `rejected_at`, and the
    /// retry waits for the GTS to move instead of burning its budget.
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

    /// Starvation-freedom escalation (DESIGN.md §15): once a read-only
    /// transaction has burned half its retry budget
    /// ([`csmv::steps::should_pin`]), register the current snapshot and
    /// keep it across retries, so the versions it resolves on are
    /// retained. The one turn that may have scanned the registry before
    /// the pin landed can leave the snapshot permanently unreadable, so an
    /// already-pinned transaction that overflows is **re-armed**: the held
    /// slot moves to a fresh snapshot ([`stm_core::SnapshotRegistry::update`]).
    /// Such overflows are not charged ([`NativeWorker::recycle`]).
    ///
    /// No-op when the registry is full (the reader stays on ordinary
    /// retries) or for update transactions (validation can fail them
    /// regardless of retention).
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
        if !steps::should_pin(p.attempts, self.ctx.retry_budget) {
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
        ex.fp.snapshot = snapshot;
        self.read_items.clear();
        let mut last: Option<u64> = None;
        loop {
            match tx.next(last) {
                TxOp::Read { item } => {
                    if let Some(k) = ex.fp.ws.iter().position(|&i| i == item) {
                        // Read-own-write: served from the private buffer,
                        // excluded from the recorded reads (it never
                        // touched shared state).
                        last = ex.values.get(k).copied();
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
                    match ex.fp.ws.iter().position(|&i| i == item) {
                        Some(k) => ex.values[k] = value,
                        None => {
                            ex.fp.ws.push(item);
                            ex.values.push(value);
                        }
                    }
                    last = None;
                }
                TxOp::Finish => break,
            }
        }
        if ex.fp.ws.is_empty() {
            Exec::ReadOnly(ex)
        } else if ex.fp.ws.len() > self.ctx.atr.max_ws() {
            self.release(ex);
            Exec::Oversize
        } else {
            // The validation footprint is the read log as read: both of
            // its readers (pre-validation and the validator) are linear
            // membership scans, which neither order nor repeats change.
            ex.fp.rs.extend_from_slice(&self.read_items);
            Exec::Update(ex)
        }
    }

    /// Validate the surviving batch and reserve its timestamps in place
    /// and, for what was granted, perform the in-order write-back and
    /// single GTS publication. The lanes are read where they are: the
    /// rejected leave, and the granted hold `base..base + n` in lane order.
    fn commit_batch<T: Finish>(&mut self, l: &mut Lanes<T>) {
        let (base, nw) =
            self.validator
                .validate_and_reserve(&l.execs, &mut self.metrics, &mut l.verdicts);
        if nw < l.execs.len() as u64 {
            // The rejected attempts end here, not at their executions' end.
            self.stamp();
            let verdicts = || l.verdicts.iter().map(|v| v.unwrap_or(WINDOW_CLOSED));
            let mut granted = verdicts().map(|v| matches!(v, Verdict::Granted { .. }));
            let reasons = verdicts().filter_map(|v| match v {
                Verdict::Rejected { reason } => Some(reason),
                Verdict::Granted { .. } => None,
            });
            let rejected = l.execs.extract_if(.., |_| granted.next() == Some(false));
            for (Lane { p, ex }, reason) in rejected.zip(reasons) {
                let snap = ex.fp.snapshot;
                self.release(ex);
                if let Some(mut p) = self.recycle(p, reason) {
                    p.rejected_at = Some(snap);
                    l.retry.push(p);
                }
            }
        }
        if nw == 0 {
            return;
        }
        if !self.await_turn(base) {
            // Deadline while waiting: nothing was written back, so the
            // committed history stays consistent (the GTS hole just
            // stalls everyone else until their own deadline).
            for Lane { p, ex } in l.execs.drain(..) {
                self.release(ex);
                self.fail(p, AbortReason::ServerTimeout);
            }
            return;
        }
        // One registry scan per batch: the write-back's GC pass retains
        // every version a currently registered reader resolves on. A
        // registration landing mid-write-back can miss this scan — that
        // reader's one spurious abort is the documented race window.
        self.ctx.registry.registered_into(&mut self.readers);
        for (cts, lane) in (base..).zip(&l.execs) {
            for (&item, &value) in lane.ex.fp.ws.iter().zip(&lane.ex.values) {
                self.ctx
                    .store
                    .publish_gated(item, cts, value, &self.readers);
            }
        }
        self.ctx.atr.publish_gts(steps::gts_publish_value(base, nw));
        // One stamp ends every attempt of the batch: latency runs from
        // each attempt's start to the publication.
        self.stamp();
        for (cts, Lane { p, mut ex }) in (base..).zip(l.execs.drain(..)) {
            let latency = self.elapsed(p.attempt_start);
            self.stats.update_commits += 1;
            self.stats.useful_cycles += latency;
            self.metrics.record_commit(latency);
            if self.ctx.record_history {
                self.records.push(TxRecord {
                    thread: self.id,
                    read_point: ex.fp.snapshot,
                    cts: Some(cts),
                    reads: std::mem::take(&mut ex.reads),
                    writes: ex
                        .fp
                        .ws
                        .iter()
                        .copied()
                        .zip(ex.values.iter().copied())
                        .collect(),
                });
            }
            self.release(ex);
            p.tx.finish(Ok(()), self.now);
        }
    }

    /// Wait until it is `base`'s turn to publish
    /// ([`csmv::steps::gts_turn_reached`]); false on deadline. The worker
    /// parks on the ATR's turn handoff until its predecessor's window
    /// lands or the run deadline. Only a wait is timed, into `gts_stall`.
    fn await_turn(&mut self, base: u64) -> bool {
        if steps::gts_turn_reached(self.ctx.atr.gts(), base) {
            return true;
        }
        let wait_start = self.stamp();
        loop {
            if self.now >= self.ctx.deadline {
                return false;
            }
            self.ctx.atr.wait_turn(base, self.ctx.deadline);
            self.stamp();
            if steps::gts_turn_reached(self.ctx.atr.gts(), base) {
                let waited = self.elapsed(wait_start);
                self.metrics.gts_stall.push(waited);
                return true;
            }
        }
    }

    /// Commit a read-only transaction: consistent at its snapshot by
    /// construction, no validation (as in the paper).
    fn commit_rot<T: Finish>(&mut self, mut p: Pending<T>, mut ex: Executed) {
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
                read_point: ex.fp.snapshot,
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
    /// Aborts of an already-pinned reader are recorded but **not**
    /// charged: the re-arm bounds them to one per racing write-back turn
    /// ([`NativeWorker::maybe_pin`]), so a pinned commit is a guarantee.
    /// Only read-only transactions pin, so no validation failure is
    /// shielded.
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
            if self.ctx.retry_budget.is_some_and(|b| p.attempts >= b) {
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
    use std::time::Duration;
    use stm_core::SnapshotRegistry;
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
            retry_budget: Some(budget),
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

    /// A transaction body that plays back a fixed list of operations.
    struct Script {
        ops: Vec<TxOp>,
        at: usize,
    }

    impl TxLogic for Script {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.at = 0;
        }
        fn next(&mut self, _last_read: Option<u64>) -> TxOp {
            self.at += 1;
            self.ops.get(self.at - 1).copied().unwrap_or(TxOp::Finish)
        }
    }

    struct Scripts(std::vec::IntoIter<Vec<TxOp>>);

    impl TxSource for Scripts {
        type Tx = Script;
        fn next_tx(&mut self) -> Option<Script> {
            self.0.next().map(|ops| Script { ops, at: 0 })
        }
    }

    /// A footprint keeps a repeated read as read, and pre-validation
    /// still finds it: in one batch, lane 0 writes account 0 and lane 1
    /// reads account 0 twice before writing account 5, so lane 1 is killed
    /// once and commits on its retry.
    #[test]
    fn a_read_repeated_in_the_footprint_is_still_killed_by_a_batch_mate() {
        let (w, atr) = bank_worker(8, 8, Duration::from_secs(10));
        let out = w.run(Scripts(
            vec![
                vec![TxOp::Write { item: 0, value: 7 }],
                vec![
                    TxOp::Read { item: 0 },
                    TxOp::Read { item: 0 },
                    TxOp::Write { item: 5, value: 1 },
                ],
            ]
            .into_iter(),
        ));
        assert_eq!(out.stats.update_commits, 2);
        assert_eq!(out.stats.update_aborts, 1);
        assert_eq!(out.metrics.aborts.count(AbortReason::PreValidationKill), 1);
        assert_eq!(out.stats.failed, 0);
        assert_eq!(atr.gts(), 2, "two rounds, one commit each");
        let reread = &out.records[1];
        assert_eq!(reread.reads, [(0, 7), (0, 7)], "the retry read the write");
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

//! A long-lived submit API over the native backend.
//!
//! Where [`crate::run`] drives a *closed-loop* workload (each worker owns a
//! `TxSource` and drains it), the engine inverts control: it owns the worker
//! pool and accepts boxed [`TxLogic`] bodies from any thread. This is the interface `csmv-service` fronts with a wire
//! protocol — the engine knows nothing about sockets or framing, only
//! transactions.
//!
//! The hand-off is batch-granular in both directions. A submitter passes
//! everything it has in one [`NativeEngine::submit_batch`] call, which takes
//! the intake lock once; a worker moves up to one commit batch of jobs out
//! per lock ([`Intake::refill`]); and each job's terminal [`Completion`] is
//! delivered to the submitter's [`CompletionSink`] under the ticket the
//! submitter chose, so no job carries a channel of its own.
//! [`NativeEngine::try_submit`] is the one-job form of the same call, whose
//! sink is an `mpsc` sender.
//!
//! Backpressure is explicit: the intake is bounded, a call accepts the
//! first `room` jobs in order and hands the rest back ([`Refused::Busy`]),
//! so an overloaded engine sheds load instead of growing memory. Every
//! accepted transaction gets exactly one terminal [`Completion`] — commit,
//! terminal abort, or `ServerTimeout` when the run deadline drains the
//! intake: the last worker to leave closes the intake under its lock and
//! fails what is still queued, and from then on submissions are refused
//! with [`Refused::Closed`].
//!
//! Nothing in `impl Intake` or `impl EngineJob` may panic: both run on
//! worker threads, and the `xtask` `no-panic-in-server-path` lint covers
//! them.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stm_core::metrics::AbortReason;
use stm_core::{TxLogic, TxOp};

use crate::pool::{self, Shared};
use crate::worker::{Finish, WorkerOutput};
use crate::{NativeConfig, NativeConfigError, NativeRunError, NativeRunResult};

/// Terminal outcome of one submitted transaction, delivered to the
/// submitter's [`CompletionSink`].
pub struct Completion {
    /// The transaction body, handed back so the submitter can extract
    /// whatever its committed execution recorded (read values, computed
    /// results).
    pub tx: Box<dyn TxLogic>,
    /// `Ok` on commit; `Err` carries the terminal abort reason.
    pub outcome: Result<(), AbortReason>,
    /// Wall-clock time from submit acceptance to the terminal outcome,
    /// measured to the finishing worker's latest stamp at the outcome: a
    /// worker reads the clock about once per execution, never once per
    /// completion. (A job dropped unfinished reads the clock.)
    pub latency: Duration,
}

/// Where a submitter receives the outcomes of its jobs. One sink serves
/// any number of jobs: each [`Submission`] names a `ticket` and the engine
/// passes it back with the job's [`Completion`]. `complete` runs on
/// whichever worker thread finished the job, so it must be quick and must
/// not panic. Every accepted job calls it exactly once.
pub trait CompletionSink: Send + Sync {
    /// Job `ticket` reached its terminal outcome.
    fn complete(&self, ticket: u64, completion: Completion);
}

/// One transaction of a [`NativeEngine::submit_batch`] call.
pub struct Submission {
    /// Passed back to the sink with the outcome; the submitter's to choose.
    pub ticket: u64,
    /// The transaction body.
    pub tx: Box<dyn TxLogic>,
}

/// Why [`NativeEngine::submit_batch`] left jobs in the caller's vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The bounded intake filled up — backpressure, not failure. The jobs
    /// before the ones left behind were accepted.
    Busy,
    /// The engine is no longer accepting work (its run deadline passed and
    /// every worker left). Nothing was accepted.
    Closed,
}

/// Body left in a job whose own body went out with its completion.
struct Spent;

impl TxLogic for Spent {
    fn is_read_only(&self) -> bool {
        true
    }
    fn reset(&mut self) {}
    fn next(&mut self, _last_read: Option<u64>) -> TxOp {
        TxOp::Finish
    }
}

/// An `mpsc` sender as a sink: [`NativeEngine::try_submit`]'s. A
/// submitter that hung up just discards its completion.
impl CompletionSink for Sender<Completion> {
    fn complete(&self, _ticket: u64, completion: Completion) {
        drop(self.send(completion));
    }
}

/// One accepted transaction in flight through the worker pool. It settles
/// its ticket exactly once: through [`Finish::finish`], or — should it be
/// dropped unfinished, which only a dying worker or an abandoned engine
/// can do — as `ServerUnavailable` from `Drop`. A sink has no "sender hung
/// up" signal, so the guarantee has to be structural.
pub(crate) struct EngineJob {
    tx: Box<dyn TxLogic>,
    accepted: Instant,
    /// The submitter's sink and ticket; `None` once the outcome went.
    done: Option<(Arc<dyn CompletionSink>, u64)>,
}

impl EngineJob {
    /// Deliver `outcome`, reached at `at`, unless it went already.
    fn settle(&mut self, outcome: Result<(), AbortReason>, at: Instant) {
        let Some((sink, ticket)) = self.done.take() else {
            return;
        };
        let completion = Completion {
            // `Spent` is zero-sized: boxing it does not allocate.
            tx: std::mem::replace(&mut self.tx, Box::new(Spent)),
            outcome,
            latency: at.saturating_duration_since(self.accepted),
        };
        sink.complete(ticket, completion);
    }
}

impl Drop for EngineJob {
    fn drop(&mut self) {
        // A finished job went out already: no clock read for it.
        if self.done.is_some() {
            self.settle(Err(AbortReason::ServerUnavailable), Instant::now());
        }
    }
}

impl TxLogic for EngineJob {
    fn is_read_only(&self) -> bool {
        self.tx.is_read_only()
    }
    fn reset(&mut self) {
        self.tx.reset()
    }
    fn next(&mut self, last_read: Option<u64>) -> TxOp {
        self.tx.next(last_read)
    }
}

impl Finish for EngineJob {
    fn finish(mut self, outcome: Result<(), AbortReason>, at: Instant) {
        self.settle(outcome, at);
    }
}

/// The engine's one intake: a bounded queue every submitter appends to
/// and every worker refills from, each a batch per lock.
pub(crate) struct Intake {
    state: Mutex<IntakeState>,
    /// Idle workers wait here for an arrival or the close.
    arrival: Condvar,
    /// Most jobs the queue holds: the backpressure bound.
    depth: usize,
}

struct IntakeState {
    jobs: VecDeque<EngineJob>,
    /// Workers waiting on `arrival`. Only they are notified: a futex wake
    /// is a syscall even when nobody waits.
    parked: usize,
    /// Workers that have not yet left at the run deadline; the last of
    /// them closes the intake.
    serving: usize,
    /// No submission is accepted any more: the engine is shutting down
    /// (workers drain what is queued and leave), or the last worker left.
    closed: bool,
}

impl Intake {
    /// An open intake of `depth` jobs served by `workers` workers.
    pub(crate) fn new(depth: usize, workers: usize) -> Self {
        Self {
            state: Mutex::new(IntakeState {
                jobs: VecDeque::with_capacity(depth),
                parked: 0,
                serving: workers,
                closed: false,
            }),
            arrival: Condvar::new(),
            depth,
        }
    }

    /// A poisoned lock only means a thread panicked while holding it; every
    /// update below leaves the queue and its counters consistent.
    fn lock(&self) -> MutexGuard<'_, IntakeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Accept as many of `jobs`, in order, as the queue has room for,
    /// under one lock, and leave the rest where they are; then, unlocked,
    /// wake a worker if one is parked.
    pub(crate) fn offer(
        &self,
        sink: &Arc<dyn CompletionSink>,
        jobs: &mut Vec<Submission>,
    ) -> Result<(), Refused> {
        let accepted = Instant::now();
        let mut s = self.lock();
        if s.closed {
            return Err(Refused::Closed);
        }
        let take = jobs.len().min(self.depth.saturating_sub(s.jobs.len()));
        s.jobs.extend(jobs.drain(..take).map(|job| EngineJob {
            tx: job.tx,
            accepted,
            done: Some((sink.clone(), job.ticket)),
        }));
        let wake = take > 0 && s.parked > 0;
        drop(s);
        if wake {
            self.arrival.notify_one();
        }
        if jobs.is_empty() {
            Ok(())
        } else {
            Err(Refused::Busy)
        }
    }

    /// Refuse further submissions; workers drain what is queued and leave.
    fn close(&self) {
        self.lock().closed = true;
        self.arrival.notify_all();
    }

    /// Move up to `batch` queued jobs into `hand`, under one lock. With
    /// nothing queued, a worker that holds no work (`idle`) waits — for an
    /// arrival, the close or `deadline` — and the condvar gives the lock up
    /// meanwhile, so a worker with jobs in hand never waits behind it.
    ///
    /// Returns true once this worker has left and must not come back:
    /// the intake is closed and empty, or `deadline` has passed. A worker
    /// leaving at the deadline takes everything queued along, to fail it;
    /// the last one closes the intake under the same lock, so a job is
    /// either taken by a worker or refused at submit, never stranded.
    pub(crate) fn refill(
        &self,
        hand: &mut VecDeque<EngineJob>,
        batch: usize,
        idle: bool,
        deadline: Instant,
    ) -> bool {
        let mut s = self.lock();
        loop {
            let now = Instant::now();
            if now >= deadline {
                hand.extend(s.jobs.drain(..));
                s.serving = s.serving.saturating_sub(1);
                s.closed |= s.serving == 0;
                return true;
            }
            if !s.jobs.is_empty() {
                let take = s.jobs.len().min(batch);
                hand.extend(s.jobs.drain(..take));
                // More than one batch arrived at once: pass the wake-up on.
                let pass_on = !s.jobs.is_empty() && s.parked > 0;
                drop(s);
                if pass_on {
                    self.arrival.notify_one();
                }
                return false;
            }
            if s.closed {
                return true;
            }
            if !idle {
                return false;
            }
            s.parked += 1;
            s = self
                .arrival
                .wait_timeout(s, deadline - now)
                .map_or_else(|e| e.into_inner().0, |(guard, _timed_out)| guard);
            s.parked -= 1;
        }
    }
}

/// Why [`NativeEngine::try_submit`] rejected a transaction. Both variants
/// hand the body back so the caller can reply or retry without losing it.
pub enum SubmitError {
    /// The bounded submit queue is full — backpressure, not failure.
    Busy(Box<dyn TxLogic>),
    /// The engine is no longer accepting work (its run deadline passed and
    /// every worker exited).
    Closed(Box<dyn TxLogic>),
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy(_) => write!(f, "SubmitError::Busy"),
            SubmitError::Closed(_) => write!(f, "SubmitError::Closed"),
        }
    }
}

/// The native backend as a long-lived transaction-processing engine: spawn
/// with [`NativeEngine::start`], feed with [`NativeEngine::submit_batch`],
/// stop with [`NativeEngine::shutdown`] (or `shutdown_checked` to validate
/// the recorded history against the opacity oracle).
pub struct NativeEngine {
    intake: Arc<Intake>,
    workers: Vec<JoinHandle<WorkerOutput>>,
    shared: Shared,
    initial: HashMap<u64, u64>,
}

impl NativeEngine {
    /// Validate `cfg` and spawn the worker threads. Items `0..num_items`
    /// start at `initial(i)`.
    pub fn start(
        cfg: &NativeConfig,
        num_items: u64,
        mut initial: impl FnMut(u64) -> u64,
    ) -> Result<NativeEngine, NativeConfigError> {
        let init: HashMap<u64, u64> = (0..num_items).map(|i| (i, initial(i))).collect();
        let (shared, workers) = pool::build(cfg, num_items, |i| *init.get(&i).unwrap_or(&0))?;

        // The intake is the backpressure boundary: deep enough to keep
        // every worker's batch pipeline full, bounded so overload surfaces
        // as `Busy` instead of unbounded memory growth.
        let depth = cfg.channel_depth * cfg.client_threads.max(1);
        let intake = Arc::new(Intake::new(depth, workers.len()));
        let workers = workers
            .into_iter()
            .map(|w| {
                let intake = intake.clone();
                std::thread::spawn(move || w.serve(&intake))
            })
            .collect();

        Ok(NativeEngine {
            intake,
            workers,
            shared,
            initial: init,
        })
    }

    /// Hand `jobs` to the worker pool in one call — one intake lock for
    /// all of them. Accepted jobs are drained from the front of `jobs`, in
    /// order, and each one's terminal outcome reaches `sink` under its
    /// ticket. On `Err` the jobs that were not accepted are still in
    /// `jobs`, untouched: the tail past the intake's room for
    /// [`Refused::Busy`] (shed or retry them), all of them for
    /// [`Refused::Closed`].
    pub fn submit_batch(
        &self,
        sink: &Arc<dyn CompletionSink>,
        jobs: &mut Vec<Submission>,
    ) -> Result<(), Refused> {
        self.intake.offer(sink, jobs)
    }

    /// [`NativeEngine::submit_batch`] for one transaction completing to a
    /// channel: the same call, with `done` as the sink. It stays because
    /// `benchmark/`'s engine probe compiles against it.
    pub fn try_submit(
        &self,
        tx: Box<dyn TxLogic>,
        done: Sender<Completion>,
    ) -> Result<(), SubmitError> {
        let sink: Arc<dyn CompletionSink> = Arc::new(done);
        let mut jobs = vec![Submission { ticket: 0, tx }];
        let refused = self.submit_batch(&sink, &mut jobs).err();
        // A refused call leaves the job in `jobs`; an accepted one took it.
        match (refused, jobs.pop()) {
            (Some(Refused::Busy), Some(job)) => Err(SubmitError::Busy(job.tx)),
            (Some(Refused::Closed), Some(job)) => Err(SubmitError::Closed(job.tx)),
            _ => Ok(()),
        }
    }

    /// Current Global Timestamp (counts committed update transactions).
    pub fn gts(&self) -> u64 {
        self.shared.atr.gts()
    }

    /// The most distinct items one transaction may write
    /// ([`crate::NativeConfig::max_ws`]); a transaction writing more fails
    /// terminally with [`AbortReason::AtrWindowOverflow`].
    pub fn max_ws(&self) -> usize {
        self.shared.atr.max_ws()
    }

    /// Close the intake, let the workers drain everything in flight,
    /// join every thread and return the aggregated run result.
    pub fn shutdown(mut self) -> NativeRunResult {
        self.intake.close();
        // A thread that panicked (impossible by construction — the
        // no-panic lint covers NativeWorker and Validator) contributes
        // nothing.
        let outputs = self.workers.drain(..).filter_map(|h| h.join().ok());
        self.shared.collect(outputs)
    }

    /// [`NativeEngine::shutdown`], then validate the recorded history with
    /// [`stm_core::check_history`] (opacity + validity-at-commit). Only
    /// meaningful when the engine ran with `record_history` on.
    pub fn shutdown_checked(mut self) -> Result<NativeRunResult, NativeRunError> {
        let initial = std::mem::take(&mut self.initial);
        crate::checked(self.shutdown(), &initial)
    }
}

/// An engine dropped without `shutdown` still releases its threads: the
/// workers drain the intake and leave.
impl Drop for NativeEngine {
    fn drop(&mut self) {
        self.intake.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Reads `item`, writes `item + 1` back — the canonical contended
    /// counter increment.
    struct IncTx {
        item: u64,
        step: u8,
        seen: u64,
    }

    impl IncTx {
        fn new(item: u64) -> Self {
            Self {
                item,
                step: 0,
                seen: 0,
            }
        }
    }

    impl TxLogic for IncTx {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.step = 0;
            self.seen = 0;
        }
        fn next(&mut self, last_read: Option<u64>) -> TxOp {
            if let Some(v) = last_read {
                self.seen = v;
            }
            let op = match self.step {
                0 => TxOp::Read { item: self.item },
                1 => TxOp::Write {
                    item: self.item,
                    value: self.seen + 1,
                },
                _ => TxOp::Finish,
            };
            self.step += 1;
            op
        }
    }

    /// A body that sleeps mid-execution, to wedge a worker and force the
    /// bounded submit queue to fill.
    struct SlowTx {
        inner: IncTx,
        sleep: Duration,
    }

    impl TxLogic for SlowTx {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.inner.reset()
        }
        fn next(&mut self, last_read: Option<u64>) -> TxOp {
            std::thread::sleep(self.sleep);
            self.inner.next(last_read)
        }
    }

    /// A sink that reports `(ticket, outcome)` to the test.
    struct Tickets(Mutex<mpsc::Sender<(u64, Result<(), AbortReason>)>>);

    impl CompletionSink for Tickets {
        fn complete(&self, ticket: u64, completion: Completion) {
            let _ = self.0.lock().unwrap().send((ticket, completion.outcome));
        }
    }

    type Outcomes = mpsc::Receiver<(u64, Result<(), AbortReason>)>;

    fn tickets() -> (Arc<dyn CompletionSink>, Outcomes) {
        let (tx, rx) = mpsc::channel();
        (Arc::new(Tickets(Mutex::new(tx))), rx)
    }

    fn increments(tickets: std::ops::Range<u64>) -> Vec<Submission> {
        tickets
            .map(|ticket| Submission {
                ticket,
                tx: Box::new(IncTx::new(ticket % 4)),
            })
            .collect()
    }

    #[test]
    fn submitted_increments_all_commit_and_pass_the_oracle() {
        let cfg = NativeConfig {
            client_threads: 3,
            ..Default::default()
        };
        let engine = Arc::new(NativeEngine::start(&cfg, 4, |_| 0).unwrap());
        const PER_THREAD: usize = 100;
        const SUBMITTERS: usize = 2;
        let oks: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let engine = engine.clone();
                    s.spawn(move || {
                        let (done_tx, done_rx) = mpsc::channel();
                        for i in 0..PER_THREAD {
                            let tx = Box::new(IncTx::new(((t * PER_THREAD + i) % 4) as u64));
                            // Busy backpressure: spin-retry (the test load is
                            // tiny, so this terminates fast).
                            let mut tx: Box<dyn TxLogic> = tx;
                            loop {
                                match engine.try_submit(tx, done_tx.clone()) {
                                    Ok(()) => break,
                                    Err(SubmitError::Busy(back)) => {
                                        tx = back;
                                        std::thread::yield_now();
                                    }
                                    Err(SubmitError::Closed(_)) => panic!("engine closed early"),
                                }
                            }
                        }
                        drop(done_tx);
                        done_rx.iter().filter(|c| c.outcome.is_ok()).count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(oks, SUBMITTERS * PER_THREAD);
        let result = Arc::into_inner(engine).unwrap().shutdown_checked().unwrap();
        assert_eq!(
            result.stats.update_commits as usize,
            SUBMITTERS * PER_THREAD
        );
        assert_eq!(result.stats.failed, 0);
        // Every commit incremented exactly one of 4 counters by 1.
        let total: u64 = result.final_state.values().sum();
        assert_eq!(total as usize, SUBMITTERS * PER_THREAD);
        assert_eq!(result.gts as usize, SUBMITTERS * PER_THREAD);
    }

    /// The batched call, end to end: every job of every batch commits and
    /// reports under its own ticket, whichever worker finished it.
    #[test]
    fn a_batch_completes_every_job_under_its_own_ticket() {
        let cfg = NativeConfig {
            client_threads: 2,
            ..Default::default()
        };
        let engine = NativeEngine::start(&cfg, 4, |_| 0).unwrap();
        let (sink, outcomes) = tickets();
        const JOBS: u64 = 96;
        for first in (0..JOBS).step_by(32) {
            let mut jobs = increments(first..first + 32);
            assert_eq!(engine.submit_batch(&sink, &mut jobs), Ok(()));
            assert!(jobs.is_empty());
        }
        let mut seen: Vec<u64> = (0..JOBS)
            .map(|_| {
                let (ticket, outcome) = outcomes
                    .recv_timeout(Duration::from_secs(10))
                    .expect("accepted job must complete");
                assert_eq!(outcome, Ok(()));
                ticket
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..JOBS).collect::<Vec<_>>());
        let result = engine.shutdown_checked().unwrap();
        assert_eq!(result.stats.update_commits, JOBS);
        assert!(outcomes.try_recv().is_err(), "one completion per job");
    }

    /// The same bound, the same shedding: a burst larger than the intake's
    /// room is accepted in order up to the room and the tail is handed
    /// back in order — never more shed than one-at-a-time submission
    /// would, and never out of order.
    #[test]
    fn a_burst_is_accepted_in_order_up_to_the_room_and_the_rest_returned() {
        let (sink, outcomes) = tickets();
        let intake = Intake::new(5, 1);
        let mut jobs = increments(0..3);
        assert_eq!(intake.offer(&sink, &mut jobs), Ok(()));
        let mut jobs = increments(3..9);
        assert_eq!(intake.offer(&sink, &mut jobs), Err(Refused::Busy));
        let shed: Vec<u64> = jobs.iter().map(|j| j.ticket).collect();
        assert_eq!(shed, [5, 6, 7, 8], "room for two of the six");
        assert_eq!(intake.offer(&sink, &mut jobs), Err(Refused::Busy));
        assert_eq!(jobs.len(), 4, "a full intake accepts nothing");

        // A worker takes one batch per lock, oldest first.
        let far = Instant::now() + Duration::from_secs(3600);
        let mut hand = VecDeque::new();
        assert!(!intake.refill(&mut hand, 4, false, far));
        assert_eq!(hand.len(), 4);
        assert_eq!(intake.offer(&sink, &mut jobs), Ok(()), "room again");
        assert!(!intake.refill(&mut hand, 8, false, far));
        for job in hand.drain(..) {
            job.finish(Ok(()), Instant::now());
        }
        let order: Vec<u64> = outcomes.try_iter().map(|(ticket, _)| ticket).collect();
        assert_eq!(order, (0..9).collect::<Vec<_>>());

        // Closed and empty: the worker leaves, submissions are refused.
        intake.close();
        assert!(intake.refill(&mut hand, 8, true, far));
        let mut jobs = increments(9..10);
        assert_eq!(intake.offer(&sink, &mut jobs), Err(Refused::Closed));
        assert_eq!(jobs.len(), 1);
    }

    /// A job dropped without an outcome — a dying worker, an abandoned
    /// engine — still settles its ticket, exactly once.
    #[test]
    fn a_job_dropped_unfinished_settles_its_ticket() {
        let (sink, outcomes) = tickets();
        let intake = Intake::new(4, 1);
        assert_eq!(intake.offer(&sink, &mut increments(0..2)), Ok(()));
        let mut hand = VecDeque::new();
        let far = Instant::now() + Duration::from_secs(3600);
        assert!(!intake.refill(&mut hand, 1, false, far));
        hand.pop_front().unwrap().finish(Ok(()), Instant::now());
        drop(intake); // ticket 1 is still queued
        let settled: Vec<_> = outcomes.try_iter().collect();
        assert_eq!(
            settled,
            [(0, Ok(())), (1, Err(AbortReason::ServerUnavailable))]
        );
    }

    /// Intake starvation regression: one submitter keeping one job in
    /// flight finds both workers idle every time. The worker that takes
    /// the job must not then wait, job in hand, behind the other idle
    /// worker — when it did (the idle one slept *holding* the queue lock),
    /// each job cost several idle slices and this load completed a few
    /// dozen jobs in half a second instead of thousands. An idle worker
    /// now sleeps on the intake's condvar, which gives the lock up.
    #[test]
    fn a_worker_with_a_job_in_hand_never_waits_for_an_idle_one() {
        let cfg = NativeConfig {
            client_threads: 2,
            record_history: false,
            ..Default::default()
        };
        let engine = NativeEngine::start(&cfg, 1, |_| 0).unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let window = Duration::from_millis(500);
        let until = Instant::now() + window;
        let mut completed = 0;
        while Instant::now() < until {
            engine
                .try_submit(Box::new(IncTx::new(0)), done_tx.clone())
                .expect("one job in flight cannot fill the queue");
            let c = done_rx.recv().expect("accepted job must complete");
            assert!(c.outcome.is_ok());
            completed += 1;
        }
        let result = engine.shutdown();
        assert_eq!(result.stats.update_commits, completed);
        assert!(
            completed >= 500,
            "one job in flight at a time completed only {completed} jobs in {window:?}"
        );
    }

    #[test]
    fn full_submit_queue_surfaces_busy_and_returns_the_body() {
        let cfg = NativeConfig {
            client_threads: 1,
            max_batch: 1,
            channel_depth: 1, // submit queue depth 1 * 1 client
            ..Default::default()
        };
        let engine = NativeEngine::start(&cfg, 1, |_| 0).unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let slow = |ms| {
            Box::new(SlowTx {
                inner: IncTx::new(0),
                sleep: Duration::from_millis(ms),
            })
        };
        // First two fill the worker and the depth-1 queue; the third must
        // be shed as Busy with its body handed back.
        let mut saw_busy = false;
        for _ in 0..3 {
            if let Err(SubmitError::Busy(back)) = engine.try_submit(slow(200), done_tx.clone()) {
                assert!(!back.is_read_only());
                saw_busy = true;
            }
        }
        assert!(saw_busy, "a depth-1 queue never reported Busy");
        drop(done_tx);
        let accepted = done_rx.iter().count();
        assert!((1..=2).contains(&accepted), "accepted {accepted}");
        let result = engine.shutdown();
        assert_eq!(result.stats.update_commits as usize, accepted);
    }

    /// Accepted ⇒ exactly one completion, across the run deadline: a
    /// second thread keeps submitting while the deadline passes and the
    /// workers leave. Every job the engine accepted — before, during or
    /// after the drain — gets a terminal outcome, the engine's own
    /// accounting agrees (commits + failed = accepted), and once the
    /// intake has closed it refuses instead of accepting into a void.
    #[test]
    fn deadline_drain_gives_every_job_a_terminal_reply() {
        let cfg = NativeConfig {
            client_threads: 2,
            max_run: Duration::from_millis(60),
            ..Default::default()
        };
        let engine = NativeEngine::start(&cfg, 4, |_| 0).unwrap();
        let (sink, outcomes) = tickets();
        let accepted: u64 = std::thread::scope(|s| {
            let submitter = s.spawn(|| {
                let mut accepted = 0;
                let mut ticket = 0;
                loop {
                    let mut jobs = increments(ticket..ticket + 4);
                    ticket += 4;
                    match engine.submit_batch(&sink, &mut jobs) {
                        Ok(()) => accepted += 4,
                        Err(Refused::Busy) => {
                            accepted += 4 - jobs.len() as u64;
                            std::thread::yield_now();
                        }
                        // The last worker has left: the submitter ran
                        // across the whole drain.
                        Err(Refused::Closed) => {
                            assert_eq!(jobs.len(), 4, "a closed intake accepts nothing");
                            return accepted;
                        }
                    }
                }
            });
            submitter.join().unwrap()
        });
        let (done_tx, _done_rx) = mpsc::channel();
        assert!(matches!(
            engine.try_submit(Box::new(IncTx::new(0)), done_tx),
            Err(SubmitError::Closed(_))
        ));
        let result = engine.shutdown();
        let (mut oks, mut timeouts) = (0, 0);
        for (_, outcome) in outcomes.try_iter() {
            match outcome {
                Ok(()) => oks += 1,
                Err(AbortReason::ServerTimeout) => timeouts += 1,
                Err(other) => panic!("unexpected terminal outcome {other:?}"),
            }
        }
        assert_eq!(oks + timeouts, accepted, "accepted = completions");
        assert_eq!(result.stats.commits(), oks);
        assert_eq!(result.stats.failed, timeouts);
        assert!(oks > 0, "the engine served before its deadline");
    }
}

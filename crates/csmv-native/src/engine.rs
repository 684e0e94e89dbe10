//! A long-lived submit API over the native backend.
//!
//! Where [`crate::run`] drives a *closed-loop* workload (each worker owns a
//! `TxSource` and drains it), the engine inverts control: it owns the worker
//! pool and commit-server threads and accepts individual boxed
//! [`TxLogic`] bodies from any thread, replying on a per-submission
//! completion channel. This is the interface `csmv-service` fronts with a
//! wire protocol — the engine knows nothing about sockets or framing, only
//! transactions.
//!
//! Backpressure is explicit: submissions go through one bounded queue
//! shared by every worker, and [`NativeEngine::try_submit`] returns
//! [`SubmitError::Busy`] (handing the body back) when it is full, so an
//! overloaded engine sheds load instead of growing memory. Every accepted
//! transaction is guaranteed a terminal [`Completion`] — commit, terminal
//! abort, or `ServerTimeout` when the run deadline drains the queue.

use std::collections::HashMap;
use std::sync::mpsc::{self, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stm_core::metrics::{AbortReason, MetricsReport};
use stm_core::{TxLogic, TxOp};

use crate::pool::{self, Shared};
use crate::worker::{Finish, WorkerOutput};
use crate::{NativeConfig, NativeConfigError, NativeRunError, NativeRunResult};

/// Terminal outcome of one submitted transaction, delivered on the
/// submitter's completion channel.
pub struct Completion {
    /// The transaction body, handed back so the submitter can extract
    /// whatever its committed execution recorded (read values, computed
    /// results).
    pub tx: Box<dyn TxLogic>,
    /// `Ok` on commit; `Err` carries the terminal abort reason.
    pub outcome: Result<(), AbortReason>,
    /// Wall-clock time from submit acceptance to the terminal outcome.
    pub latency: Duration,
}

/// One accepted transaction in flight through the worker pool.
pub(crate) struct EngineJob {
    tx: Box<dyn TxLogic>,
    accepted: Instant,
    done: Sender<Completion>,
}

impl EngineJob {
    /// Stamp `tx` as accepted now; its terminal outcome goes to `done`.
    pub(crate) fn new(tx: Box<dyn TxLogic>, done: Sender<Completion>) -> Self {
        Self {
            tx,
            accepted: Instant::now(),
            done,
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
    fn finish(self, outcome: Result<(), AbortReason>) {
        let latency = self.accepted.elapsed();
        // A submitter that hung up just discards its completion.
        let _ = self.done.send(Completion {
            tx: self.tx,
            outcome,
            latency,
        });
    }
}

/// Why [`NativeEngine::try_submit`] rejected a transaction. Both variants
/// hand the body back so the caller can reply or retry without losing it.
pub enum SubmitError {
    /// The bounded submit queue is full — backpressure, not failure.
    Busy(Box<dyn TxLogic>),
    /// The engine is no longer accepting work (shut down, or its run
    /// deadline passed and every worker exited).
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
/// with [`NativeEngine::start`], feed with [`NativeEngine::try_submit`],
/// stop with [`NativeEngine::shutdown`] (or `shutdown_checked` to validate
/// the recorded history against the opacity oracle).
pub struct NativeEngine {
    submit_tx: Option<SyncSender<EngineJob>>,
    workers: Vec<JoinHandle<WorkerOutput>>,
    servers: Vec<JoinHandle<MetricsReport>>,
    shared: Shared,
    initial: HashMap<u64, u64>,
}

impl NativeEngine {
    /// Validate `cfg` and spawn the commit-server and worker threads.
    /// Items `0..num_items` start at `initial(i)`.
    pub fn start(
        cfg: &NativeConfig,
        num_items: u64,
        mut initial: impl FnMut(u64) -> u64,
    ) -> Result<NativeEngine, NativeConfigError> {
        let init: HashMap<u64, u64> = (0..num_items).map(|i| (i, initial(i))).collect();
        let (shared, servers, workers) =
            pool::build(cfg, num_items, |i| *init.get(&i).unwrap_or(&0))?;
        let servers = servers
            .into_iter()
            .map(|server| std::thread::spawn(move || server.run()))
            .collect();

        // The submit queue is the backpressure boundary: deep enough to keep
        // every worker's batch pipeline full, bounded so overload surfaces
        // as `SubmitError::Busy` instead of unbounded memory growth.
        let depth = cfg.channel_depth * cfg.client_threads.max(1);
        let (submit_tx, submit_rx) = mpsc::sync_channel(depth);
        let jobs = Arc::new(Mutex::new(submit_rx));
        let workers = workers
            .into_iter()
            .map(|w| {
                let jobs = jobs.clone();
                std::thread::spawn(move || w.serve(jobs))
            })
            .collect();

        Ok(NativeEngine {
            submit_tx: Some(submit_tx),
            workers,
            servers,
            shared,
            initial: init,
        })
    }

    /// Hand one transaction to the worker pool. Returns immediately; the
    /// terminal outcome arrives on `done` as a [`Completion`]. `Busy` is
    /// backpressure — the bounded submit queue is full and the caller
    /// should shed or retry.
    pub fn try_submit(
        &self,
        tx: Box<dyn TxLogic>,
        done: Sender<Completion>,
    ) -> Result<(), SubmitError> {
        let Some(sender) = &self.submit_tx else {
            return Err(SubmitError::Closed(tx));
        };
        match sender.try_send(EngineJob::new(tx, done)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => Err(SubmitError::Busy(job.tx)),
            Err(TrySendError::Disconnected(job)) => Err(SubmitError::Closed(job.tx)),
        }
    }

    /// Current Global Timestamp (counts committed update transactions).
    pub fn gts(&self) -> u64 {
        self.shared.atr.gts()
    }

    /// Close the submit queue, let the workers drain everything in flight,
    /// join every thread and return the aggregated run result.
    pub fn shutdown(mut self) -> NativeRunResult {
        self.submit_tx = None;
        // A thread that panicked (impossible by construction — the
        // no-panic lint covers NativeWorker and NativeServer) contributes
        // nothing.
        let outputs: Vec<WorkerOutput> = self
            .workers
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect();
        let server_metrics: Vec<MetricsReport> = self
            .servers
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect();
        self.shared.collect(outputs, server_metrics)
    }

    /// [`NativeEngine::shutdown`], then validate the recorded history with
    /// [`stm_core::check_history`] (opacity + validity-at-commit). Only
    /// meaningful when the engine ran with `record_history` on.
    pub fn shutdown_checked(mut self) -> Result<NativeRunResult, NativeRunError> {
        let initial = std::mem::take(&mut self.initial);
        crate::checked(self.shutdown(), &initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn submitted_increments_all_commit_and_pass_the_oracle() {
        let cfg = NativeConfig {
            client_threads: 3,
            server_threads: 2,
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

    /// Intake starvation regression: one submitter keeping one job in
    /// flight finds both workers idle every time. The worker that takes
    /// the job must not then wait, job in hand, for the queue lock the
    /// other idle worker holds while blocked on the empty queue — when it
    /// did, each job cost several idle slices and this load completed a
    /// few dozen jobs in half a second instead of thousands.
    #[test]
    fn a_worker_with_a_job_in_hand_never_waits_for_an_idle_one() {
        let cfg = NativeConfig {
            client_threads: 2,
            server_threads: 1,
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
            server_threads: 1,
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

    #[test]
    fn deadline_drain_gives_every_job_a_terminal_reply() {
        let cfg = NativeConfig {
            client_threads: 1,
            server_threads: 1,
            max_run: Duration::from_millis(30),
            ..Default::default()
        };
        let engine = NativeEngine::start(&cfg, 1, |_| 0).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        let (done_tx, done_rx) = mpsc::channel();
        // Past the deadline the engine either sheds at submit (workers
        // exited, queue disconnected) or fails the job terminally — never
        // silence.
        match engine.try_submit(Box::new(IncTx::new(0)), done_tx) {
            Ok(()) => {
                let c = done_rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("accepted job must get a terminal completion");
                assert!(c.outcome.is_err());
            }
            Err(SubmitError::Closed(_)) => {}
            Err(SubmitError::Busy(_)) => panic!("deadline drain must not report Busy"),
        }
        let result = engine.shutdown();
        assert_eq!(result.stats.commits(), 0);
    }
}

//! One client connection: a reader half that parses frames, tracks
//! `MULTI` state and submits transactions, and a writer half that sends
//! replies strictly in request order.
//!
//! Pipelining falls out of the split: the reader keeps accepting and
//! submitting requests while earlier ones are still in flight, and the
//! writer takes each submission's completion in turn. The reply
//! queue between the halves is bounded, so one connection can hold at
//! most [`PIPELINE_DEPTH`] replies outstanding — past that the reader
//! stops draining the socket and TCP pushes back on the client.
//!
//! The writer is burst-granular ([`write_loop`]): every reply that is
//! already available is appended to one output buffer, and the socket
//! gets one `write_all` per burst — just before the writer would block,
//! so no reply ever waits on a sleeping writer.
//!
//! Nothing in `impl Connection` may panic: the `xtask`
//! `no-panic-in-server-path` lint covers this file.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use csmv_native::{Completion, NativeEngine, SubmitError};

use crate::command::{Command, KvOp, KvResult, KvTx, ResultSink};
use crate::resp;

/// Replies one connection may have outstanding before the reader stops
/// draining its socket.
pub const PIPELINE_DEPTH: usize = 128;

/// How often a blocked socket read wakes up to notice service shutdown.
const READ_SLICE: Duration = Duration::from_millis(200);

/// Output-buffer size at which the writer flushes mid-burst, so a slow or
/// vanished reader meets TCP back-pressure (through the bounded slot
/// queue) instead of growing server memory.
const OUT_CAP: usize = 16 * 1024;

/// What the writers of all connections did, summed as each one ends
/// (plain statistics: `Relaxed`).
#[derive(Default)]
pub(crate) struct IoCounters {
    /// Replies encoded.
    pub(crate) replies: AtomicU64,
    /// `write_all` calls that carried them.
    pub(crate) reply_writes: AtomicU64,
}

/// How each committed op encodes into its reply slot.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// `GET` → bulk string.
    Get,
    /// `SET` → `+OK`.
    Set,
    /// `INCRBY` → integer.
    Incr,
}

/// One in-order reply slot handed from reader to writer.
enum Slot {
    /// An immediate, already-encoded reply.
    Ready(Vec<u8>),
    /// A submitted transaction: encode once its completion arrives.
    Tx {
        done: Receiver<Completion>,
        results: ResultSink,
        ops: Vec<OpKind>,
        /// Wrap the op replies in an `EXEC` array.
        exec: bool,
    },
}

/// Reader-side `MULTI` bookkeeping.
struct MultiState {
    ops: Vec<KvOp>,
    kinds: Vec<OpKind>,
    /// A queued command failed to parse; `EXEC` must refuse the block.
    dirty: bool,
}

pub(crate) struct Connection {
    stream: TcpStream,
    engine: Arc<NativeEngine>,
    /// Valid keys are `0..keys`.
    keys: u64,
    shutdown: Arc<AtomicBool>,
    io: Arc<IoCounters>,
}

impl Connection {
    pub(crate) fn new(
        stream: TcpStream,
        engine: Arc<NativeEngine>,
        keys: u64,
        shutdown: Arc<AtomicBool>,
        io: Arc<IoCounters>,
    ) -> Self {
        Self {
            stream,
            engine,
            keys,
            shutdown,
            io,
        }
    }

    /// Serve the connection to completion (client hangup, protocol
    /// error, or service shutdown).
    pub(crate) fn run(mut self) {
        if self.stream.set_read_timeout(Some(READ_SLICE)).is_err() {
            return;
        }
        let Ok(wstream) = self.stream.try_clone() else {
            return;
        };
        let (slot_tx, slot_rx) = mpsc::sync_channel::<Slot>(PIPELINE_DEPTH);
        let io = self.io.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut writer = Writer::new(wstream);
                // A write error ends the writer, and with it the
                // connection: the reader's next `send` fails.
                let _ = write_loop(&mut writer, slot_rx);
                io.replies.fetch_add(writer.replies, Ordering::Relaxed);
                io.reply_writes.fetch_add(writer.writes, Ordering::Relaxed);
            });
            self.read_loop(&slot_tx);
            drop(slot_tx);
        });
    }

    fn read_loop(&mut self, slots: &SyncSender<Slot>) {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut multi: Option<MultiState> = None;
        loop {
            // Drain complete frames before reading more bytes.
            loop {
                match resp::parse_frame(&buf) {
                    resp::ParseOutcome::Incomplete => break,
                    resp::ParseOutcome::Error(e) => {
                        let _ = slots.send(Slot::Ready(resp::error(&format!("ERR protocol: {e}"))));
                        return;
                    }
                    resp::ParseOutcome::Frame(argv, used) => {
                        buf.drain(..used);
                        if argv.is_empty() {
                            continue;
                        }
                        match self.dispatch(&argv, &mut multi) {
                            Dispatch::Reply(slot) => {
                                if slots.send(slot).is_err() {
                                    return; // writer gone (socket died)
                                }
                            }
                            Dispatch::Close(slot) => {
                                let _ = slots.send(slot);
                                return;
                            }
                        }
                    }
                }
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return, // EOF
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn dispatch(&self, argv: &[Vec<u8>], multi: &mut Option<MultiState>) -> Dispatch {
        let cmd = match Command::parse(argv) {
            Ok(cmd) => cmd,
            Err(e) => {
                // Inside MULTI a bad command poisons the block, as in
                // Redis: EXEC will refuse it.
                if let Some(m) = multi.as_mut() {
                    m.dirty = true;
                }
                return Dispatch::Reply(Slot::Ready(resp::error(&e)));
            }
        };
        match cmd {
            Command::Ping => Dispatch::Reply(Slot::Ready(resp::simple("PONG"))),
            Command::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Dispatch::Close(Slot::Ready(resp::simple("OK")))
            }
            Command::Multi => {
                if multi.is_some() {
                    Dispatch::Reply(Slot::Ready(resp::error(
                        "ERR MULTI calls can not be nested",
                    )))
                } else {
                    *multi = Some(MultiState {
                        ops: Vec::new(),
                        kinds: Vec::new(),
                        dirty: false,
                    });
                    Dispatch::Reply(Slot::Ready(resp::simple("OK")))
                }
            }
            Command::Discard => match multi.take() {
                Some(_) => Dispatch::Reply(Slot::Ready(resp::simple("OK"))),
                None => Dispatch::Reply(Slot::Ready(resp::error("ERR DISCARD without MULTI"))),
            },
            Command::Exec => match multi.take() {
                None => Dispatch::Reply(Slot::Ready(resp::error("ERR EXEC without MULTI"))),
                Some(m) if m.dirty => Dispatch::Reply(Slot::Ready(resp::error(
                    "EXECABORT Transaction discarded because of previous errors.",
                ))),
                Some(m) if m.ops.is_empty() => Dispatch::Reply(Slot::Ready(resp::array_header(0))),
                Some(m) => Dispatch::Reply(self.submit(m.ops, m.kinds, true)),
            },
            Command::Get(k) | Command::Set(k, _) | Command::IncrBy(k, _) if k >= self.keys => {
                if let Some(m) = multi.as_mut() {
                    m.dirty = true;
                }
                Dispatch::Reply(Slot::Ready(resp::error(&format!(
                    "ERR key {k} out of range (keys 0..{})",
                    self.keys
                ))))
            }
            Command::Get(k) => self.queue_or_submit(multi, KvOp::Get(k), OpKind::Get),
            Command::Set(k, v) => self.queue_or_submit(multi, KvOp::Set(k, v), OpKind::Set),
            Command::IncrBy(k, d) => self.queue_or_submit(multi, KvOp::IncrBy(k, d), OpKind::Incr),
        }
    }

    fn queue_or_submit(&self, multi: &mut Option<MultiState>, op: KvOp, kind: OpKind) -> Dispatch {
        if let Some(m) = multi.as_mut() {
            m.ops.push(op);
            m.kinds.push(kind);
            Dispatch::Reply(Slot::Ready(resp::simple("QUEUED")))
        } else {
            Dispatch::Reply(self.submit(vec![op], vec![kind], false))
        }
    }

    /// Hand a transaction to the engine; backpressure surfaces here as a
    /// `-BUSY` reply instead of queue growth.
    fn submit(&self, ops: Vec<KvOp>, kinds: Vec<OpKind>, exec: bool) -> Slot {
        let results: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let tx = Box::new(KvTx::new(ops, results.clone()));
        let (done_tx, done_rx) = mpsc::channel();
        match self.engine.try_submit(tx, done_tx) {
            Ok(()) => Slot::Tx {
                done: done_rx,
                results,
                ops: kinds,
                exec,
            },
            Err(SubmitError::Busy(_)) => {
                Slot::Ready(resp::error("BUSY engine queue full, retry later"))
            }
            Err(SubmitError::Closed(_)) => Slot::Ready(resp::error("ERR engine is shut down")),
        }
    }
}

enum Dispatch {
    Reply(Slot),
    Close(Slot),
}

/// The writer's output side: replies accumulate in `out` and leave in
/// one `write_all` per [`Writer::flush`].
struct Writer<W> {
    sink: W,
    out: Vec<u8>,
    replies: u64,
    writes: u64,
}

impl<W: Write> Writer<W> {
    fn new(sink: W) -> Self {
        Self {
            sink,
            out: Vec::with_capacity(OUT_CAP),
            replies: 0,
            writes: 0,
        }
    }

    /// Hand everything buffered to the sink in one write.
    fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.writes += 1;
        let written = self.sink.write_all(&self.out);
        self.out.clear();
        written
    }

    /// The next value of `rx`, `None` once its sender is gone. Flush
    /// before every block: only when nothing is there yet is the buffer
    /// written out and the blocking receive taken, so a buffered reply
    /// never waits while the writer sleeps.
    fn next<T>(&mut self, rx: &Receiver<T>) -> io::Result<Option<T>> {
        match rx.try_recv() {
            Ok(v) => Ok(Some(v)),
            Err(TryRecvError::Disconnected) => Ok(None),
            Err(TryRecvError::Empty) => {
                self.flush()?;
                Ok(rx.recv().ok())
            }
        }
    }
}

/// Writer half: encode replies strictly in request order and send them a
/// burst at a time. Three rules: append whatever is ready (the next slot,
/// and a `Tx` slot's completion, are taken without blocking); flush
/// before every block ([`Writer::next`]); flush whenever the buffer
/// reaches [`OUT_CAP`]. No timer is needed: a reply is held back only
/// while the writer has more replies to encode right now.
fn write_loop<W: Write>(w: &mut Writer<W>, slots: Receiver<Slot>) -> io::Result<()> {
    while let Some(slot) = w.next(&slots)? {
        match slot {
            Slot::Ready(b) => w.out.extend_from_slice(&b),
            Slot::Tx {
                done,
                results,
                ops,
                exec,
            } => match w.next(&done)? {
                Some(c) => encode_outcome(&mut w.out, &c.outcome, &results, &ops, exec),
                // The engine dropped the job without a completion (it can
                // only happen past the run deadline, mid-teardown).
                None => w.out.extend(resp::error("ERR engine is shut down")),
            },
        }
        w.replies += 1;
        if w.out.len() >= OUT_CAP {
            w.flush()?;
        }
    }
    w.flush()?;
    w.sink.flush()
}

/// Append one terminal transaction outcome's RESP reply to `out`. The
/// error arm is **total** over [`stm_core::metrics::AbortReason`]: every
/// reason (including additions like `snapshot_too_old`) is carried as a
/// typed `-RETRY <key>` reply through the same generic path — see the
/// taxonomy test below.
fn encode_outcome(
    out: &mut Vec<u8>,
    outcome: &Result<(), stm_core::metrics::AbortReason>,
    results: &ResultSink,
    ops: &[OpKind],
    exec: bool,
) {
    match outcome {
        // Typed retry error carrying the abort-reason taxonomy key.
        Err(reason) => out.extend(resp::error(&format!("RETRY {}", reason.key()))),
        Ok(()) => {
            let vals = results.lock().unwrap_or_else(|e| e.into_inner());
            if exec {
                out.extend(resp::array_header(ops.len()));
            }
            for (i, kind) in ops.iter().enumerate() {
                let val = vals.get(i).copied();
                out.extend(match (kind, val) {
                    (OpKind::Set, _) => resp::simple("OK"),
                    (OpKind::Get, Some(KvResult::Value(v))) => resp::bulk(v.to_string().as_bytes()),
                    (OpKind::Incr, Some(KvResult::Value(v))) => resp::integer(v as i64),
                    // A committed tx always recorded one result per op;
                    // anything else is an internal invariant break.
                    _ => resp::error("ERR internal: missing op result"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::metrics::AbortReason;

    /// How long a test waits for the writer before declaring it stuck.
    const STUCK: Duration = Duration::from_secs(10);

    /// A `Write` that hands every `write` call's bytes to the test.
    struct Recording(mpsc::Sender<Vec<u8>>);

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A `Write` whose peer is gone.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What a finished writer reports: the loop's result, replies, writes.
    type Ended = (io::Result<()>, u64, u64);

    /// Run the writer on its own thread, so a writer that blocks where it
    /// must not fails the test on a timeout instead of hanging it.
    fn spawn_writer<W: Write + Send + 'static>(sink: W, slots: Receiver<Slot>) -> Receiver<Ended> {
        let (ended_tx, ended_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut w = Writer::new(sink);
            let result = write_loop(&mut w, slots);
            let _ = ended_tx.send((result, w.replies, w.writes));
        });
        ended_rx
    }

    /// A `Tx` slot for `ops` and the handle that completes it.
    fn tx_slot(ops: &[OpKind], vals: &[KvResult], exec: bool) -> (Slot, mpsc::Sender<Completion>) {
        let results: ResultSink = Arc::new(Mutex::new(vals.to_vec()));
        let (done_tx, done) = mpsc::channel();
        let slot = Slot::Tx {
            done,
            results,
            ops: ops.to_vec(),
            exec,
        };
        (slot, done_tx)
    }

    fn complete(done: &mpsc::Sender<Completion>, outcome: Result<(), AbortReason>) {
        let tx = Box::new(KvTx::new(Vec::new(), ResultSink::default()));
        let sent = done.send(Completion {
            tx,
            outcome,
            latency: Duration::ZERO,
        });
        assert!(sent.is_ok(), "the slot still holds the receiver");
    }

    /// A burst that is entirely available — immediate replies, committed
    /// and aborted transactions, an `EXEC` block — leaves in one write
    /// whose bytes are the per-reply encodings back to back.
    #[test]
    fn a_ready_burst_leaves_in_one_write_in_request_order() {
        let (slot_tx, slots) = mpsc::sync_channel(PIPELINE_DEPTH);
        let mut expected = Vec::new();
        for round in 0..8u64 {
            slot_tx.send(Slot::Ready(resp::simple("PONG"))).unwrap();
            expected.extend(resp::simple("PONG"));

            let (slot, done) = tx_slot(&[OpKind::Get], &[KvResult::Value(round)], false);
            complete(&done, Ok(()));
            slot_tx.send(slot).unwrap();
            expected.extend(resp::bulk(round.to_string().as_bytes()));

            let (slot, done) = tx_slot(&[OpKind::Incr], &[], false);
            complete(&done, Err(AbortReason::RetryBudgetExhausted));
            slot_tx.send(slot).unwrap();
            expected.extend(resp::error("RETRY retry_budget_exhausted"));

            let (slot, done) = tx_slot(
                &[OpKind::Get, OpKind::Incr, OpKind::Set],
                &[KvResult::Value(7), KvResult::Value(round + 1), KvResult::Ok],
                true,
            );
            complete(&done, Ok(()));
            slot_tx.send(slot).unwrap();
            expected.extend(resp::array_header(3));
            expected.extend(resp::bulk(b"7"));
            expected.extend(resp::integer(round as i64 + 1));
            expected.extend(resp::simple("OK"));
        }
        drop(slot_tx);
        let (write_tx, writes) = mpsc::channel();
        let ended = spawn_writer(Recording(write_tx), slots);
        let (result, replies, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes.len(), 1, "one burst, one write");
        assert_eq!(writes[0], expected);
        assert_eq!((replies, write_calls), (32, 1));
    }

    /// Flush before every block: with the head slot's completion still
    /// pending, the reply buffered before it must reach the sink *before*
    /// the writer sleeps. The completion is delivered only after that
    /// write was seen, so a writer that blocks first times the test out.
    #[test]
    fn buffered_replies_are_written_before_the_writer_blocks() {
        let (slot_tx, slots) = mpsc::sync_channel(PIPELINE_DEPTH);
        let (slot, done) = tx_slot(&[OpKind::Set], &[KvResult::Ok], false);
        slot_tx.send(Slot::Ready(resp::simple("PONG"))).unwrap();
        slot_tx.send(slot).unwrap();
        let (write_tx, writes) = mpsc::channel();
        let ended = spawn_writer(Recording(write_tx), slots);

        let first = writes.recv_timeout(STUCK);
        assert_eq!(
            first.expect("the writer blocked on a completion while holding a reply back"),
            b"+PONG\r\n"
        );
        complete(&done, Ok(()));
        // Nothing follows the completed slot, so its reply must not wait
        // for the next one either.
        let second = writes.recv_timeout(STUCK);
        assert_eq!(
            second.expect("the writer blocked on the slot queue while holding a reply back"),
            b"+OK\r\n"
        );
        drop(slot_tx);
        let (result, replies, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        assert_eq!((replies, write_calls), (2, 2));
    }

    /// The buffer is bounded: a burst larger than `OUT_CAP` is cut into
    /// writes of about that size, never one write of everything.
    #[test]
    fn the_output_cap_splits_an_oversized_burst() {
        let pong = resp::simple("PONG");
        let n = 2 * OUT_CAP / pong.len(); // just under two caps' worth
        let (slot_tx, slots) = mpsc::channel();
        for _ in 0..n {
            slot_tx.send(Slot::Ready(pong.clone())).unwrap();
        }
        drop(slot_tx);
        let (write_tx, writes) = mpsc::channel();
        let ended = spawn_writer(Recording(write_tx), slots);
        let (result, replies, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes.len(), 2);
        assert!((OUT_CAP..OUT_CAP + pong.len()).contains(&writes[0].len()));
        assert_eq!(writes.concat(), pong.repeat(n));
        assert_eq!((replies, write_calls), (n as u64, 2));
    }

    /// A write error ends the writer at once, although the reader half
    /// still holds the slot queue open.
    #[test]
    fn a_failing_write_ends_the_writer() {
        let (slot_tx, slots) = mpsc::sync_channel(PIPELINE_DEPTH);
        slot_tx.send(Slot::Ready(resp::simple("PONG"))).unwrap();
        let ended = spawn_writer(Broken, slots);
        let (result, _, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert_eq!(result.map_err(|e| e.kind()), Err(ErrorKind::BrokenPipe));
        assert_eq!(write_calls, 1);
        // The reader half notices on its next reply.
        assert!(slot_tx.send(Slot::Ready(resp::simple("PONG"))).is_err());
    }

    fn encoded(outcome: Result<(), AbortReason>, exec: bool) -> Vec<u8> {
        let mut out = Vec::new();
        encode_outcome(&mut out, &outcome, &ResultSink::default(), &[], exec);
        out
    }

    /// The `-RETRY <reason>` reply taxonomy is total: every abort reason —
    /// terminal and retriable alike — encodes to a typed error carrying a
    /// distinct, machine-parseable key. A new `AbortReason` variant cannot
    /// silently fall outside the wire taxonomy.
    #[test]
    fn retry_reply_taxonomy_is_total_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for &reason in &AbortReason::ALL {
            let key = reason.key();
            assert!(!key.is_empty(), "{reason:?} must have a taxonomy key");
            assert!(
                key.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{reason:?} key {key:?} must be a lowercase identifier"
            );
            assert!(seen.insert(key), "{reason:?} key {key:?} is not distinct");
            let reply =
                String::from_utf8(encoded(Err(reason), true)).expect("RESP errors are UTF-8");
            assert_eq!(
                reply,
                format!("-RETRY {key}\r\n"),
                "{reason:?} must surface as a typed RETRY error"
            );
        }
    }

    /// The reason this PR adds rides the same path as the rest.
    #[test]
    fn snapshot_too_old_is_carried_on_the_wire() {
        assert_eq!(
            encoded(Err(AbortReason::SnapshotTooOld), false),
            b"-RETRY snapshot_too_old\r\n"
        );
    }
}

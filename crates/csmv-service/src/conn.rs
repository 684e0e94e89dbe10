//! One client connection, served by one thread: it parses frames, tracks
//! `MULTI` state, submits transactions and writes their replies strictly
//! in request order.
//!
//! The loop is half-duplex. Parse every complete frame the read buffer
//! holds, hand the engine every transaction they held in one
//! [`NativeEngine::submit_batch`] call ([`Connection::hand_over`]), write
//! every reply owed ([`Replies::answer_all`]), and only then read the
//! socket again. Workers settle transactions by ticket (the request's
//! sequence number) into the connection's [`Settled`] sink; the thread
//! moves the outcomes into their cells itself, so no reply is handed to
//! another thread to be written. At [`PIPELINE_DEPTH`] replies owed, the
//! thread answers them before it takes the next request, and a client
//! that keeps sending meets TCP back-pressure.
//!
//! Nothing in `impl Connection`, `impl Replies` or `impl Settled` may
//! panic: the `xtask` `no-panic-in-server-path` lint covers this file.
//! Locks are recovered from poison: every update leaves them consistent.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use csmv_native::{Completion, CompletionSink, NativeEngine, Refused, Submission};
use stm_core::metrics::AbortReason;

use crate::command::{Command, KvOp, KvResult, KvTx, ResultSink};
use crate::resp;

/// Replies one connection may owe before it stops reading its socket.
pub const PIPELINE_DEPTH: usize = 128;

/// How long a blocking socket read or write may wait before the
/// connection looks at the service's stop flag again.
const IO_SLICE: Duration = Duration::from_millis(200);

/// Output-buffer size at which replies are flushed mid-burst: a slow
/// client meets TCP back-pressure instead of growing server memory.
const OUT_CAP: usize = 16 * 1024;

/// Words of the longest command the service knows (`SET key value`,
/// `INCRBY key delta`) and then some: an argv up to this long is borrowed
/// from a stack array. A longer one can only fail its arity check.
const ARGV_INLINE: usize = 4;

/// What a transaction the engine shed answers, in its own position.
const BUSY: &[u8] = b"-BUSY engine queue full, retry later\r\n";
/// What a transaction answers that reached an engine already shut down.
const ENGINE_CLOSED: &[u8] = b"-ERR engine is shut down\r\n";

/// What all connections did, summed as each one ends (plain statistics:
/// `Relaxed`).
#[derive(Default)]
pub(crate) struct IoCounters {
    /// Replies encoded.
    pub(crate) replies: AtomicU64,
    /// Flushes that carried them: each hands one buffer to the socket.
    pub(crate) reply_writes: AtomicU64,
    /// Transactions the engine accepted.
    pub(crate) submits: AtomicU64,
    /// `submit_batch` calls that carried them.
    pub(crate) submit_calls: AtomicU64,
}

/// A transaction's terminal outcome, as the engine reported it.
type Outcome = Result<(), AbortReason>;

/// How each committed op encodes into its reply.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// `GET` → bulk string.
    Get,
    /// `SET` → `+OK`.
    Set,
    /// `INCRBY` → integer.
    Incr,
}

/// The op kinds of one transaction: inline for a bare command.
enum Kinds {
    /// A bare `GET`/`SET`/`INCRBY`.
    Bare(OpKind),
    /// An `EXEC` block: the op replies are wrapped in an array.
    Exec(Vec<OpKind>),
}

/// A submitted transaction's place in the reply order.
struct TxCell {
    kinds: Kinds,
    /// Where the body records its per-op results. Recycled once the reply
    /// is encoded.
    results: ResultSink,
    /// The engine's verdict; `None` while the job is in flight.
    outcome: Option<Outcome>,
}

/// One reply, in request order.
enum Cell {
    /// An immediate reply that never changes: `+OK`, `+QUEUED`, `+PONG`,
    /// `-BUSY`.
    Static(&'static [u8]),
    /// An immediate, already-encoded reply (an error naming the request).
    Ready(Vec<u8>),
    /// A transaction: encoded once it is settled.
    Tx(TxCell),
}

impl Cell {
    fn is_ready(&self) -> bool {
        !matches!(self, Cell::Tx(TxCell { outcome: None, .. }))
    }
}

/// Where workers settle a connection's transactions: outcomes by ticket,
/// in completion order, until the connection collects them. A completion
/// wakes the connection only when it settles the ticket it is parked on.
#[derive(Default)]
pub(crate) struct Settled {
    state: Mutex<SettledState>,
    /// The connection parks here, on an unsettled head.
    head_settled: Condvar,
}

#[derive(Default)]
struct SettledState {
    /// Outcomes not collected yet.
    outcomes: Vec<(u64, Outcome)>,
    /// The ticket the connection is parked on, while it is parked.
    parked_on: Option<u64>,
}

impl Settled {
    fn lock(&self) -> MutexGuard<'_, SettledState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park the connection until `head` is settled, unless anything
    /// settled is waiting to be collected (which may be `head`).
    fn await_head(&self, head: u64) {
        let mut s = self.lock();
        if s.outcomes.is_empty() {
            s.parked_on = Some(head);
        }
        while s.parked_on.is_some() {
            s = self.head_settled.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl CompletionSink for Settled {
    fn complete(&self, ticket: u64, completion: Completion) {
        // The body goes first, outside the lock: what it recorded is in
        // the cell's result sink, and the sink is the cell's alone again.
        drop(completion.tx);
        let mut s = self.lock();
        s.outcomes.push((ticket, completion.outcome));
        let wake = s.parked_on == Some(ticket);
        if wake {
            s.parked_on = None;
        }
        drop(s);
        if wake {
            self.head_settled.notify_one();
        }
    }
}

/// The connection's reply half: the replies it owes, in request order,
/// and the buffer they are encoded into on their way to `wire`. Only the
/// connection's thread touches it.
struct Replies<W> {
    wire: W,
    settled: Arc<Settled>,
    /// Owed replies: cell `t` sits at index `t - head`.
    cells: VecDeque<Cell>,
    head: u64,
    /// Swapped with the sink's vector, so a collection allocates nothing.
    collected: Vec<(u64, Outcome)>,
    /// Result sinks of encoded replies, for the next transactions.
    free: Vec<ResultSink>,
    out: Vec<u8>,
    /// The service's stop flag.
    stop: Arc<AtomicBool>,
    replies: u64,
    /// Flushes.
    writes: u64,
}

impl<W: Write> Replies<W> {
    fn new(wire: W, stop: Arc<AtomicBool>) -> Self {
        Self {
            wire,
            settled: Arc::default(),
            cells: VecDeque::with_capacity(PIPELINE_DEPTH),
            head: 0,
            collected: Vec::new(),
            free: Vec::new(),
            out: Vec::with_capacity(OUT_CAP),
            stop,
            replies: 0,
            writes: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.cells.len() >= PIPELINE_DEPTH
    }

    /// Append `cell` in request order and return its ticket. A full
    /// pipeline is answered first, so the engine must hold every job the
    /// head may be.
    fn push(&mut self, cell: Cell) -> io::Result<u64> {
        if self.is_full() {
            self.answer_all()?;
        }
        let ticket = self.head + self.cells.len() as u64;
        self.cells.push_back(cell);
        Ok(ticket)
    }

    /// The owed cell `ticket`, if it is owed.
    fn cell(&mut self, ticket: u64) -> Option<&mut Cell> {
        let at = usize::try_from(ticket.checked_sub(self.head)?).ok()?;
        self.cells.get_mut(at)
    }

    /// The engine refused transaction `ticket`: `reply` takes its place,
    /// in its own position, and its result sink is free again.
    fn shed(&mut self, ticket: u64, reply: &'static [u8]) {
        let Some(cell) = self.cell(ticket) else {
            return;
        };
        if let Cell::Tx(tx) = std::mem::replace(cell, Cell::Static(reply)) {
            self.free.push(tx.results);
        }
    }

    /// Move every outcome settled since the last collection into its
    /// cell; a ticket not owed is ignored.
    fn collect(&mut self) {
        std::mem::swap(&mut self.settled.lock().outcomes, &mut self.collected);
        let mut collected = std::mem::take(&mut self.collected);
        for (ticket, outcome) in collected.drain(..) {
            if let Some(Cell::Tx(tx)) = self.cell(ticket) {
                tx.outcome = Some(outcome);
            }
        }
        self.collected = collected;
    }

    /// Write every reply owed, in request order, by three rules: append
    /// whatever is ready; flush before every wait (on the head here, on
    /// the socket after return); flush at [`OUT_CAP`]. No timer is
    /// needed: a reply is held back only while another is being encoded.
    fn answer_all(&mut self) -> io::Result<()> {
        while !self.cells.is_empty() {
            self.collect();
            self.append_ready()?;
            if !self.cells.is_empty() {
                self.flush()?;
                self.settled.await_head(self.head);
            }
        }
        self.flush()
    }

    /// Encode the ready prefix of the owed replies into the buffer.
    fn append_ready(&mut self) -> io::Result<()> {
        while self.cells.front().is_some_and(Cell::is_ready) {
            let Some(cell) = self.cells.pop_front() else {
                break;
            };
            self.head += 1;
            match cell {
                Cell::Static(reply) => self.out.extend_from_slice(reply),
                Cell::Ready(reply) => self.out.extend_from_slice(&reply),
                Cell::Tx(tx) => {
                    // Only a settled cell is ready.
                    let outcome = tx.outcome.unwrap_or(Err(AbortReason::ServerUnavailable));
                    let mut vals = tx.results.lock().unwrap_or_else(|e| e.into_inner());
                    encode_outcome(&mut self.out, &outcome, &vals, &tx.kinds);
                    // An aborted attempt may have recorded results too.
                    vals.clear();
                    drop(vals);
                    self.free.push(tx.results);
                }
            }
            self.replies += 1;
            if self.out.len() >= OUT_CAP {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Hand everything buffered to the wire, in as many `write` calls as
    /// it takes. A write that ran out its slice goes on from where it
    /// stopped, unless the service is stopping: a client that does not
    /// read then loses its connection instead of holding the service up.
    fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.writes += 1;
        let mut at = 0;
        while let Some(rest) = self.out.get(at..).filter(|rest| !rest.is_empty()) {
            match self.wire.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => at += n,
                Err(e) if timed_out(&e) && !self.stop.load(Ordering::Relaxed) => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        Ok(())
    }
}

/// A socket call that ran out its slice, or was interrupted: it may be
/// made again.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// Connection-side `MULTI` bookkeeping.
struct MultiState {
    ops: Vec<KvOp>,
    kinds: Vec<OpKind>,
    /// A queued command failed to parse; `EXEC` must refuse the block.
    dirty: bool,
}

pub(crate) struct Connection {
    engine: Arc<NativeEngine>,
    /// Valid keys are `0..keys`.
    keys: u64,
    io: Arc<IoCounters>,
    /// The replies, on the socket requests are read from too.
    replies: Replies<TcpStream>,
    /// The replies' sink, as the engine sees it.
    sink: Arc<dyn CompletionSink>,
    multi: Option<MultiState>,
    /// Transactions parsed since the last hand-over, in ticket order.
    held: Vec<Submission>,
    submits: u64,
    submit_calls: u64,
}

impl Connection {
    pub(crate) fn new(
        stream: TcpStream,
        engine: Arc<NativeEngine>,
        keys: u64,
        shutdown: Arc<AtomicBool>,
        io: Arc<IoCounters>,
    ) -> Self {
        let replies = Replies::new(stream, shutdown);
        Self {
            engine,
            keys,
            io,
            sink: replies.settled.clone(),
            replies,
            multi: None,
            held: Vec::with_capacity(PIPELINE_DEPTH),
            submits: 0,
            submit_calls: 0,
        }
    }

    /// Serve the connection to completion (client hangup, protocol error,
    /// `SHUTDOWN`, service shutdown, or a socket error).
    pub(crate) fn run(mut self) {
        // An error ends the connection; there is nobody to tell.
        let _ = self.serve();
        let io = &self.io;
        for (total, n) in [
            (&io.replies, self.replies.replies),
            (&io.reply_writes, self.replies.writes),
            (&io.submits, self.submits),
            (&io.submit_calls, self.submit_calls),
        ] {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn serve(&mut self) -> io::Result<()> {
        self.replies.wire.set_read_timeout(Some(IO_SLICE))?;
        self.replies.wire.set_write_timeout(Some(IO_SLICE))?;
        let mut buf: Vec<u8> = Vec::new();
        let mut args: Vec<Range<usize>> = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            // Every reply owed is written before the socket is read again,
            // and before the connection ends.
            let open = self.drain_frames(&mut buf, &mut args)?;
            self.hand_over();
            self.replies.answer_all()?;
            if !open || self.replies.stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match self.replies.wire.read(&mut chunk) {
                Ok(0) => return Ok(()), // EOF
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if timed_out(&e) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Parse and answer every complete frame in `buf`, then drain the
    /// bytes they took, once. False once the connection must close:
    /// protocol error or `SHUTDOWN`.
    fn drain_frames(
        &mut self,
        buf: &mut Vec<u8>,
        args: &mut Vec<Range<usize>>,
    ) -> io::Result<bool> {
        let mut rest: &[u8] = buf;
        let open = loop {
            let used = match resp::parse_frame_into(rest, args) {
                resp::Framed::Incomplete => break true,
                resp::Framed::Error(e) => {
                    self.push(Cell::Ready(resp::error(&format!("ERR protocol: {e}"))))?;
                    break false;
                }
                resp::Framed::Frame(used) => used,
            };
            let frame = rest;
            rest = rest.get(used..).unwrap_or_default();
            if args.is_empty() {
                continue;
            }
            let word = |r: &Range<usize>| frame.get(r.clone()).unwrap_or_default();
            let dispatch = if args.len() <= ARGV_INLINE {
                let mut argv: [&[u8]; ARGV_INLINE] = [&[]; ARGV_INLINE];
                for (slot, r) in argv.iter_mut().zip(args.iter()) {
                    *slot = word(r);
                }
                self.dispatch(argv.get(..args.len()).unwrap_or_default())
            } else {
                self.dispatch(&args.iter().map(word).collect::<Vec<_>>())
            };
            match dispatch {
                Dispatch::Reply(cell) => {
                    self.push(cell)?;
                }
                Dispatch::Close(cell) => {
                    self.push(cell)?;
                    break false;
                }
                Dispatch::Bare(op, kind) => {
                    self.push_tx(|sink| KvTx::one(op, sink), Kinds::Bare(kind))?
                }
                Dispatch::Block(ops, kinds) => {
                    self.push_tx(|sink| KvTx::new(ops, sink), Kinds::Exec(kinds))?
                }
            }
        };
        let consumed = buf.len() - rest.len();
        buf.drain(..consumed);
        Ok(open)
    }

    fn dispatch(&mut self, argv: &[&[u8]]) -> Dispatch {
        let cmd = match Command::parse(argv) {
            Ok(cmd) => cmd,
            Err(e) => {
                // Inside MULTI a bad command poisons the block, as in
                // Redis: EXEC will refuse it.
                if let Some(m) = self.multi.as_mut() {
                    m.dirty = true;
                }
                return error(&e);
            }
        };
        match cmd {
            Command::Ping => Dispatch::Reply(Cell::Static(resp::PONG)),
            Command::Shutdown => {
                self.replies.stop.store(true, Ordering::SeqCst);
                Dispatch::Close(Cell::Static(resp::OK))
            }
            Command::Multi => {
                if self.multi.is_some() {
                    error("ERR MULTI calls can not be nested")
                } else {
                    self.multi = Some(MultiState {
                        ops: Vec::new(),
                        kinds: Vec::new(),
                        dirty: false,
                    });
                    Dispatch::Reply(Cell::Static(resp::OK))
                }
            }
            Command::Discard => match self.multi.take() {
                Some(_) => Dispatch::Reply(Cell::Static(resp::OK)),
                None => error("ERR DISCARD without MULTI"),
            },
            Command::Exec => match self.multi.take() {
                None => error("ERR EXEC without MULTI"),
                Some(m) if m.dirty => {
                    error("EXECABORT Transaction discarded because of previous errors.")
                }
                Some(m) if m.ops.is_empty() => Dispatch::Reply(Cell::Ready(resp::array_header(0))),
                Some(m) if writes_exceed(&m.ops, self.engine.max_ws()) => error(&format!(
                    "EXECABORT Transaction writes more than {} distinct keys.",
                    self.engine.max_ws()
                )),
                Some(m) => Dispatch::Block(m.ops, m.kinds),
            },
            Command::Get(k) | Command::Set(k, _) | Command::IncrBy(k, _) if k >= self.keys => {
                if let Some(m) = self.multi.as_mut() {
                    m.dirty = true;
                }
                error(&format!("ERR key {k} out of range (keys 0..{})", self.keys))
            }
            Command::Get(k) => self.queue_or_submit(KvOp::Get(k), OpKind::Get),
            Command::Set(k, v) => self.queue_or_submit(KvOp::Set(k, v), OpKind::Set),
            Command::IncrBy(k, d) => self.queue_or_submit(KvOp::IncrBy(k, d), OpKind::Incr),
        }
    }

    fn queue_or_submit(&mut self, op: KvOp, kind: OpKind) -> Dispatch {
        if let Some(m) = self.multi.as_mut() {
            m.ops.push(op);
            m.kinds.push(kind);
            Dispatch::Reply(Cell::Static(resp::QUEUED))
        } else {
            Dispatch::Bare(op, kind)
        }
    }

    /// Append `cell` in request order. A full pipeline is answered first,
    /// so everything held goes to the engine first: the head may be one of
    /// those jobs.
    fn push(&mut self, cell: Cell) -> io::Result<u64> {
        if self.replies.is_full() {
            self.hand_over();
        }
        self.replies.push(cell)
    }

    /// Give a transaction its place in the reply order and hold it for
    /// the next hand-over. `body` builds it around its result sink.
    fn push_tx(&mut self, body: impl FnOnce(ResultSink) -> KvTx, kinds: Kinds) -> io::Result<()> {
        let results = self.replies.free.pop().unwrap_or_default();
        let tx = Box::new(body(results.clone()));
        let ticket = self.push(Cell::Tx(TxCell {
            kinds,
            results,
            outcome: None,
        }))?;
        self.held.push(Submission { ticket, tx });
        Ok(())
    }

    /// Hand the engine every held transaction in one call. It accepts
    /// them in order up to its intake's room; backpressure surfaces as a
    /// `-BUSY` reply in each shed transaction's own position instead of
    /// queue growth.
    fn hand_over(&mut self) {
        if self.held.is_empty() {
            return;
        }
        let offered = self.held.len();
        let refused = self.engine.submit_batch(&self.sink, &mut self.held);
        self.submit_calls += 1;
        self.submits += (offered - self.held.len()) as u64;
        if let Err(why) = refused {
            let reply = match why {
                Refused::Busy => BUSY,
                Refused::Closed => ENGINE_CLOSED,
            };
            for job in self.held.drain(..) {
                self.replies.shed(job.ticket, reply);
            }
        }
    }
}

/// What one command asks of the connection.
enum Dispatch {
    /// Answer at once.
    Reply(Cell),
    /// Answer at once, then close the connection.
    Close(Cell),
    /// Run a bare command's op and answer with its outcome.
    Bare(KvOp, OpKind),
    /// Run an `EXEC` block's ops and answer with its outcome.
    Block(Vec<KvOp>, Vec<OpKind>),
}

/// Does an `EXEC` block write more than `max_ws` distinct keys — more
/// than one transaction's write-set may hold? Only a block with more
/// writes than that pays for counting the distinct ones.
fn writes_exceed(ops: &[KvOp], max_ws: usize) -> bool {
    let written = || {
        ops.iter().filter_map(|op| match *op {
            KvOp::Set(k, _) | KvOp::IncrBy(k, _) => Some(k),
            KvOp::Get(_) => None,
        })
    };
    if written().count() <= max_ws {
        return false;
    }
    let mut keys: Vec<u64> = written().collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() > max_ws
}

/// Answer at once with `-text`.
fn error(text: &str) -> Dispatch {
    Dispatch::Reply(Cell::Ready(resp::error(text)))
}

/// Append one terminal transaction outcome's RESP reply to `out`. The
/// error arm is **total** over [`stm_core::metrics::AbortReason`]: every
/// reason (including additions like `snapshot_too_old`) is carried as a
/// typed `-RETRY <key>` reply through the same generic path — see the
/// taxonomy test below.
fn encode_outcome(out: &mut Vec<u8>, outcome: &Outcome, vals: &[KvResult], kinds: &Kinds) {
    if let Err(reason) = outcome {
        // Typed retry error carrying the abort-reason taxonomy key.
        return resp::put_error(out, &["RETRY ", reason.key()]);
    }
    let ops = match kinds {
        Kinds::Bare(kind) => std::slice::from_ref(kind),
        Kinds::Exec(kinds) => {
            resp::put_array_header(out, kinds.len());
            kinds
        }
    };
    for (i, kind) in ops.iter().enumerate() {
        match (kind, vals.get(i)) {
            (OpKind::Set, _) => out.extend_from_slice(resp::OK),
            (OpKind::Get, Some(KvResult::Value(v))) => resp::put_bulk_u64(out, *v),
            (OpKind::Incr, Some(KvResult::Value(v))) => resp::put_integer(out, *v as i64),
            // A committed tx always recorded one result per op;
            // anything else is an internal invariant break.
            _ => resp::put_error(out, &["ERR internal: missing op result"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver};
    use std::time::Instant;

    /// How long a test waits for the reply half before declaring it
    /// stuck.
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

    /// A `Write` whose peer drains slowly: each call takes at most five
    /// bytes, and every other call times out instead.
    #[derive(Default)]
    struct Slow {
        taken: Vec<u8>,
        calls: u64,
    }

    impl Write for Slow {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(ErrorKind::TimedOut.into());
            }
            let n = buf.len().min(5);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A reply half writing to `wire`, with a sink of its own.
    fn replies<W: Write>(wire: W) -> Replies<W> {
        Replies::new(wire, Arc::new(AtomicBool::new(false)))
    }

    /// A reply half recording into the returned channel.
    fn recording() -> (Replies<Recording>, Receiver<Vec<u8>>) {
        let (write_tx, writes) = mpsc::channel();
        (replies(Recording(write_tx)), writes)
    }

    /// What a reply half that answered everything hands back.
    type Answered<W> = (io::Result<()>, Replies<W>);

    /// Answer everything owed on a thread of its own, so a reply half
    /// that waits where it must not fails the test on a timeout instead
    /// of hanging it.
    fn spawn_answer<W: Write + Send + 'static>(mut r: Replies<W>) -> Receiver<Answered<W>> {
        let (ended_tx, ended_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let result = r.answer_all();
            let _ = ended_tx.send((result, r));
        });
        ended_rx
    }

    /// [`spawn_answer`], waited for.
    fn answered<W: Write + Send + 'static>(r: Replies<W>) -> Answered<W> {
        spawn_answer(r)
            .recv_timeout(STUCK)
            .expect("replies are stuck")
    }

    fn pong<W: Write>(r: &mut Replies<W>) -> u64 {
        r.push(Cell::Static(resp::PONG)).unwrap()
    }

    /// Push an in-flight transaction whose body recorded `vals`.
    fn in_flight<W: Write>(r: &mut Replies<W>, kinds: Kinds, vals: &[KvResult]) -> u64 {
        r.push(Cell::Tx(TxCell {
            kinds,
            results: Arc::new(Mutex::new(vals.to_vec())),
            outcome: None,
        }))
        .unwrap()
    }

    /// Push an in-flight bare `GET` that read `val`.
    fn get<W: Write>(r: &mut Replies<W>, val: u64) -> u64 {
        in_flight(r, Kinds::Bare(OpKind::Get), &[KvResult::Value(val)])
    }

    /// Complete `ticket` the way a worker does.
    fn complete(settled: &Settled, ticket: u64, outcome: Outcome) {
        let tx = Box::new(KvTx::new(Vec::new(), ResultSink::default()));
        settled.complete(
            ticket,
            Completion {
                tx,
                outcome,
                latency: Duration::ZERO,
            },
        );
    }

    /// Wait until the reply half is parked on `ticket`.
    fn parked_on(settled: &Settled, ticket: u64) {
        let give_up = Instant::now() + STUCK;
        while settled.lock().parked_on != Some(ticket) {
            assert!(Instant::now() < give_up, "never parked on ticket {ticket}");
            std::thread::yield_now();
        }
    }

    /// A burst that is entirely available — immediate replies, committed
    /// and aborted transactions, an `EXEC` block — leaves in one write
    /// whose bytes are the per-reply encodings back to back.
    #[test]
    fn a_ready_burst_leaves_in_one_write_in_request_order() {
        let (mut r, writes) = recording();
        let settled = r.settled.clone();
        let mut expected = Vec::new();
        for round in 0..8u64 {
            pong(&mut r);
            expected.extend(resp::simple("PONG"));

            complete(&settled, get(&mut r, round), Ok(()));
            expected.extend(resp::bulk(round.to_string().as_bytes()));

            let aborted = in_flight(&mut r, Kinds::Bare(OpKind::Incr), &[]);
            complete(&settled, aborted, Err(AbortReason::RetryBudgetExhausted));
            expected.extend(resp::error("RETRY retry_budget_exhausted"));

            let block = in_flight(
                &mut r,
                Kinds::Exec(vec![OpKind::Get, OpKind::Incr, OpKind::Set]),
                &[KvResult::Value(7), KvResult::Value(round + 1), KvResult::Ok],
            );
            complete(&settled, block, Ok(()));
            expected.extend(resp::array_header(3));
            expected.extend(resp::bulk(b"7"));
            expected.extend(resp::integer(round as i64 + 1));
            expected.extend(resp::simple("OK"));
        }
        let (result, r) = answered(r);
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes.len(), 1, "one burst, one write");
        assert_eq!(writes[0], expected);
        assert_eq!((r.replies, r.writes), (32, 1));
    }

    /// Flush before every wait: with the head cell still in flight, the
    /// reply buffered before it must reach the wire *before* the thread
    /// parks. The completion is delivered only after that write was
    /// seen, so a reply half that parks first times the test out.
    #[test]
    fn buffered_replies_are_written_before_the_writer_blocks() {
        let (mut r, writes) = recording();
        let settled = r.settled.clone();
        pong(&mut r);
        let set = in_flight(&mut r, Kinds::Bare(OpKind::Set), &[KvResult::Ok]);
        let ended = spawn_answer(r);

        let first = writes.recv_timeout(STUCK);
        assert_eq!(
            first.expect("parked on an unsettled head while holding a reply back"),
            b"+PONG\r\n"
        );
        complete(&settled, set, Ok(()));
        // Nothing follows the settled cell, so its reply must not wait for
        // the next one either.
        let second = writes.recv_timeout(STUCK);
        assert_eq!(
            second.expect("returned to the socket while holding a reply back"),
            b"+OK\r\n"
        );
        let (result, r) = ended.recv_timeout(STUCK).expect("replies are stuck");
        assert!(result.is_ok());
        assert_eq!((r.replies, r.writes), (2, 2));
    }

    /// The buffer is bounded: a burst larger than `OUT_CAP` is cut into
    /// writes of about that size, never one write of everything.
    #[test]
    fn the_output_cap_splits_an_oversized_burst() {
        let big = resp::bulk(&[b'x'; 300]);
        let n = 2 * OUT_CAP / big.len(); // just under two caps' worth
        assert!(n <= PIPELINE_DEPTH);
        let (mut r, writes) = recording();
        for _ in 0..n {
            r.push(Cell::Ready(big.clone())).unwrap();
        }
        let (result, r) = answered(r);
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes.len(), 2);
        assert!((OUT_CAP..OUT_CAP + big.len()).contains(&writes[0].len()));
        assert_eq!(writes.concat(), big.repeat(n));
        assert_eq!((r.replies, r.writes), (n as u64, 2));
    }

    /// A write error ends the connection at once: it is returned, not
    /// retried, and nothing waits for the head after it.
    #[test]
    fn a_failing_write_ends_the_writer() {
        let mut r = replies(Broken);
        pong(&mut r);
        get(&mut r, 1); // in flight: answering would wait for it
        let (result, r) = answered(r);
        assert_eq!(result.map_err(|e| e.kind()), Err(ErrorKind::BrokenPipe));
        assert_eq!(r.writes, 1);
    }

    /// A write that times out keeps its offset and goes on while the
    /// service runs, so a slow client gets every byte; once the service
    /// is stopping, a timed-out write ends the connection.
    #[test]
    fn a_timed_out_write_resumes_until_the_service_stops() {
        let mut r = replies(Slow::default());
        for _ in 0..3 {
            pong(&mut r);
        }
        assert!(r.answer_all().is_ok());
        assert_eq!(r.wire.taken, b"+PONG\r\n".repeat(3));
        assert_eq!(r.writes, 1);

        let mut r = replies(Slow::default());
        pong(&mut r);
        r.stop.store(true, Ordering::Relaxed);
        let ended = r.answer_all();
        assert_eq!(ended.map_err(|e| e.kind()), Err(ErrorKind::TimedOut));
        assert!(r.wire.taken.is_empty());
    }

    /// A worker that settles a ticket after the connection's write failed
    /// — nobody will ever write its reply — finds nothing to break,
    /// whether its ticket is still owed, was settled before, or never was
    /// owed, and whether or not the reply half still exists.
    #[test]
    fn a_cell_settled_after_the_writer_died_is_harmless() {
        let mut r = replies(Broken);
        let settled = r.settled.clone();
        pong(&mut r);
        let in_flight = get(&mut r, 1);
        assert!(r.answer_all().is_err());
        complete(&settled, in_flight, Ok(()));
        complete(&settled, in_flight, Ok(()));
        complete(&settled, in_flight + PIPELINE_DEPTH as u64, Ok(()));
        r.collect();
        r.shed(0, BUSY);
        drop(r);
        complete(&settled, in_flight, Ok(()));
    }

    /// Workers finish in any order; the wire order is the request order.
    /// Settling anything but the head does not even wake the parked
    /// thread, so the four replies leave together once the head settles.
    #[test]
    fn tickets_settled_in_reverse_order_still_reply_in_request_order() {
        let (mut r, writes) = recording();
        let settled = r.settled.clone();
        let tickets: Vec<u64> = (0..4).map(|val| get(&mut r, val)).collect();
        assert_eq!(tickets, [0, 1, 2, 3]);
        let ended = spawn_answer(r);
        parked_on(&settled, 0);
        for &ticket in tickets[1..].iter().rev() {
            complete(&settled, ticket, Ok(()));
        }
        assert_eq!(settled.lock().parked_on, Some(0), "only the head wakes");
        complete(&settled, 0, Ok(()));
        let (result, r) = ended.recv_timeout(STUCK).expect("replies are stuck");
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes, [b"$1\r\n0\r\n$1\r\n1\r\n$1\r\n2\r\n$1\r\n3\r\n"]);
        assert_eq!(r.replies, 4);
    }

    /// A transaction the engine shed is answered `-BUSY` where its reply
    /// belongs: between its committed neighbours, not ahead of them, and
    /// its result sink goes back for reuse.
    #[test]
    fn a_shed_job_answers_busy_in_its_own_position() {
        let (mut r, writes) = recording();
        let settled = r.settled.clone();
        let before = get(&mut r, 4);
        let shed = in_flight(&mut r, Kinds::Bare(OpKind::Get), &[]); // never ran
        let after = get(&mut r, 6);
        complete(&settled, after, Ok(()));
        r.shed(shed, BUSY);
        assert_eq!(r.free.len(), 1, "the shed job's sink is free at once");
        let ended = spawn_answer(r);
        complete(&settled, before, Ok(()));
        let (result, r) = ended.recv_timeout(STUCK).expect("replies are stuck");
        assert!(result.is_ok());
        assert_eq!(
            writes.try_iter().collect::<Vec<_>>().concat(),
            b"$1\r\n4\r\n-BUSY engine queue full, retry later\r\n$1\r\n6\r\n"
        );
        assert_eq!(r.replies, 3);
        assert_eq!(r.free.len(), 3, "every sink comes back, shed or written");
        assert!(r.free.iter().all(|sink| sink.lock().unwrap().is_empty()));
    }

    /// The pipeline bound: with `PIPELINE_DEPTH` replies owed, a push
    /// answers all of them — waiting for the head — before its cell gets
    /// its place.
    #[test]
    fn a_full_pipeline_is_answered_before_the_next_push() {
        let (mut r, writes) = recording();
        let settled = r.settled.clone();
        let head = get(&mut r, 9);
        for _ in 1..PIPELINE_DEPTH {
            pong(&mut r);
        }
        assert!(r.is_full());
        let (pushed_tx, pushed) = mpsc::channel();
        std::thread::spawn(move || {
            let ticket = r.push(Cell::Static(resp::PONG));
            let _ = pushed_tx.send((ticket.ok(), r));
        });
        parked_on(&settled, head);
        assert!(writes.try_recv().is_err(), "nothing passes the head");
        complete(&settled, head, Ok(()));
        let (ticket, mut r) = pushed.recv_timeout(STUCK).expect("the push is stuck");
        assert_eq!(ticket, Some(PIPELINE_DEPTH as u64));
        let mut owed = b"$1\r\n9\r\n".to_vec();
        owed.extend(b"+PONG\r\n".repeat(PIPELINE_DEPTH - 1));
        assert_eq!(writes.try_iter().collect::<Vec<_>>(), [owed]);
        assert!(r.answer_all().is_ok());
        assert_eq!(r.replies, PIPELINE_DEPTH as u64 + 1);
        assert_eq!(writes.try_iter().collect::<Vec<_>>(), [b"+PONG\r\n"]);
    }

    fn encoded(outcome: Outcome, kinds: Kinds) -> Vec<u8> {
        let mut out = Vec::new();
        encode_outcome(&mut out, &outcome, &[], &kinds);
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
            let reply = String::from_utf8(encoded(Err(reason), Kinds::Exec(Vec::new())))
                .expect("RESP errors are UTF-8");
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
            encoded(Err(AbortReason::SnapshotTooOld), Kinds::Bare(OpKind::Get)),
            b"-RETRY snapshot_too_old\r\n"
        );
    }
}

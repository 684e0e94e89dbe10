//! One client connection: a reader half that parses frames, tracks
//! `MULTI` state and submits transactions, and a writer half that sends
//! replies strictly in request order.
//!
//! Between the halves — and between the connection and the engine — sits
//! one [`ReplyRing`]: the reader appends a cell per request, in request
//! order; the engine settles a transaction's cell by ticket (its sequence
//! number) from whichever worker finished it; the writer takes the ready
//! prefix. No request owns a channel or a result sink. Pipelining falls
//! out of the split: the reader keeps accepting and submitting requests
//! while earlier ones are still in flight. The ring is bounded, so one
//! connection can hold at most [`PIPELINE_DEPTH`] replies outstanding —
//! past that the reader stops draining the socket and TCP pushes back on
//! the client.
//!
//! Both crossings are burst-granular. The reader hands the engine every
//! transaction one socket read brought in with one
//! [`NativeEngine::submit_batch`] call ([`Connection::hand_over`]) — always
//! before it blocks, on the socket or on a full ring, because the writer
//! may be waiting for a job still in the reader's hand. The writer
//! ([`write_loop`]) appends every reply that is already available to one
//! output buffer, and the socket gets one `write_all` per burst — just
//! before the writer would block, so no reply ever waits on a sleeping
//! writer.
//!
//! A request allocates once: the boxed transaction body the engine's
//! [`Submission`] takes. The reader parses frames in place — argument
//! ranges into its read buffer, borrowed as the command's argv — and a
//! bare command's op rides inline in its body; the writer encodes every
//! reply straight into its output buffer, and the constant ones are
//! `'static` bytes.
//!
//! Nothing in `impl Connection` or `impl ReplyRing` may panic: the `xtask`
//! `no-panic-in-server-path` lint covers this file. The ring's lock is
//! recovered from poison: every update leaves it consistent.

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

/// Replies one connection may have outstanding before the reader stops
/// draining its socket.
pub const PIPELINE_DEPTH: usize = 128;

/// How often a blocked socket read wakes up to notice service shutdown.
const READ_SLICE: Duration = Duration::from_millis(200);

/// Output-buffer size at which the writer flushes mid-burst, so a slow or
/// vanished reader meets TCP back-pressure (through the bounded ring)
/// instead of growing server memory.
const OUT_CAP: usize = 16 * 1024;

/// Words of the longest command the service knows (`SET key value`,
/// `INCRBY key delta`) and then some: an argv up to this long is borrowed
/// from a stack array. A longer one can only fail its arity check.
const ARGV_INLINE: usize = 4;

/// What a transaction the engine shed answers, in its own position.
const BUSY: &[u8] = b"-BUSY engine queue full, retry later\r\n";
/// What a transaction answers that reached an engine already shut down.
const ENGINE_CLOSED: &[u8] = b"-ERR engine is shut down\r\n";

/// What the two halves of all connections did, summed as each one ends
/// (plain statistics: `Relaxed`).
#[derive(Default)]
pub(crate) struct IoCounters {
    /// Replies encoded.
    pub(crate) replies: AtomicU64,
    /// `write_all` calls that carried them.
    pub(crate) reply_writes: AtomicU64,
    /// Transactions the engine accepted.
    pub(crate) submits: AtomicU64,
    /// `submit_batch` calls that carried them.
    pub(crate) submit_calls: AtomicU64,
}

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
    /// Where the body records its per-op results. Recycled through the
    /// ring once the reply is encoded.
    results: ResultSink,
    /// The engine's verdict; `None` while the job is in flight.
    outcome: Option<Result<(), AbortReason>>,
}

/// One reply, in request order.
enum Cell {
    /// An immediate reply that never changes: `+OK`, `+QUEUED`, `+PONG`,
    /// `-BUSY`.
    Static(&'static [u8]),
    /// An immediate, already-encoded reply (an error naming the request).
    Ready(Vec<u8>),
    /// A transaction: encoded by the writer once it is settled.
    Tx(TxCell),
}

impl Cell {
    fn is_ready(&self) -> bool {
        !matches!(self, Cell::Tx(TxCell { outcome: None, .. }))
    }
}

/// Why [`ReplyRing::push`] did not append.
enum PushError {
    /// [`PIPELINE_DEPTH`] replies are outstanding; the cell comes back.
    Full(Cell),
    /// The writer ended (its socket died): the connection is over.
    WriterGone,
}

/// What [`ReplyRing::take_ready`] found.
enum Take {
    /// At least one cell was moved out.
    Cells,
    /// The head is still in flight, or the ring is empty.
    WouldBlock,
    /// The reader is done and every reply has been taken.
    Finished,
}

/// The connection's one queue: replies in request order, bounded at
/// [`PIPELINE_DEPTH`]. Three parties lock it, each briefly and never
/// while holding another lock: the reader per request ([`Self::push`]),
/// a worker per finished job ([`CompletionSink::complete`]), the writer
/// per burst ([`Self::take_ready`]). Wake-ups are targeted, and issued
/// after the lock is released: the writer is notified only when it is
/// parked *and* the head became ready, the reader only when it is parked
/// on a full ring. Whoever notifies clears the `parked` flag, so one park
/// costs one notify.
pub(crate) struct ReplyRing {
    state: Mutex<RingState>,
    /// The writer parks here, on an empty ring or an unsettled head.
    head_ready: Condvar,
    /// The reader parks here, on a full ring.
    room: Condvar,
}

struct RingState {
    cells: VecDeque<Cell>,
    /// Ticket of `cells[0]`: cell `t` sits at index `t - head`.
    head: u64,
    /// Result sinks whose replies are written, for the reader to reuse.
    free: Vec<ResultSink>,
    writer_parked: bool,
    reader_parked: bool,
    /// The reader is done: nothing more will be pushed.
    closed: bool,
    /// The writer ended on a write error: pushes fail from now on.
    writer_gone: bool,
}

impl ReplyRing {
    fn new() -> Self {
        Self {
            state: Mutex::new(RingState {
                cells: VecDeque::with_capacity(PIPELINE_DEPTH),
                head: 0,
                free: Vec::new(),
                writer_parked: false,
                reader_parked: false,
                closed: false,
                writer_gone: false,
            }),
            head_ready: Condvar::new(),
            room: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append `cell` and return its ticket. On a full ring: wait for the
    /// writer to make room if `wait`, else hand the cell back.
    fn push(&self, cell: Cell, wait: bool) -> Result<u64, PushError> {
        let mut s = self.lock();
        loop {
            if s.writer_gone {
                return Err(PushError::WriterGone);
            }
            if s.cells.len() < PIPELINE_DEPTH {
                break;
            }
            if !wait {
                return Err(PushError::Full(cell));
            }
            s.reader_parked = true;
            s = self.room.wait(s).unwrap_or_else(|e| e.into_inner());
            s.reader_parked = false;
        }
        let ticket = s.head + s.cells.len() as u64;
        // A parked writer behind a non-empty ring waits for its head to
        // settle, which this push does not change.
        let wake = s.cells.is_empty() && cell.is_ready() && std::mem::take(&mut s.writer_parked);
        s.cells.push_back(cell);
        drop(s);
        if wake {
            self.head_ready.notify_one();
        }
        Ok(ticket)
    }

    /// Change the in-flight cell `ticket` and wake the writer if that made
    /// the head ready. A ticket that is not in the ring any more (the
    /// writer died and took the replies with it) is ignored.
    fn update(&self, ticket: u64, change: impl FnOnce(&mut RingState, usize)) {
        let mut s = self.lock();
        let Some(at) = ticket.checked_sub(s.head).map(|at| at as usize) else {
            return;
        };
        if at >= s.cells.len() {
            return;
        }
        change(&mut s, at);
        let wake = at == 0 && std::mem::take(&mut s.writer_parked);
        drop(s);
        if wake {
            self.head_ready.notify_one();
        }
    }

    /// The engine's verdict on transaction `ticket`.
    fn settle(&self, ticket: u64, outcome: Result<(), AbortReason>) {
        self.update(ticket, |s, at| {
            if let Some(Cell::Tx(tx)) = s.cells.get_mut(at) {
                tx.outcome = Some(outcome);
            }
        });
    }

    /// The engine refused transaction `ticket`: `reply` takes its place,
    /// in its own position.
    fn shed(&self, ticket: u64, reply: &'static [u8]) {
        self.update(ticket, |s, at| {
            if let Some(cell) = s.cells.get_mut(at) {
                if let Cell::Tx(tx) = std::mem::replace(cell, Cell::Static(reply)) {
                    s.free.push(tx.results);
                }
            }
        });
    }

    /// Move the recycled result sinks into `stash` (which is empty).
    fn recycled(&self, stash: &mut Vec<ResultSink>) {
        std::mem::swap(&mut self.lock().free, stash);
    }

    /// The reader is done.
    fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        let wake = std::mem::take(&mut s.writer_parked);
        drop(s);
        if wake {
            self.head_ready.notify_one();
        }
    }

    /// The writer ended; a reader parked on a full ring must not wait for
    /// it.
    fn writer_gone(&self) {
        let mut s = self.lock();
        s.writer_gone = true;
        let wake = std::mem::take(&mut s.reader_parked);
        drop(s);
        if wake {
            self.room.notify_one();
        }
    }

    /// Writer side, one lock per burst: give back the `spent` sinks of the
    /// previous burst and move the whole ready prefix into `burst`. With
    /// nothing ready, park until the head settles (or the reader is done)
    /// if `wait`.
    fn take_ready(&self, burst: &mut Vec<Cell>, spent: &mut Vec<ResultSink>, wait: bool) -> Take {
        let mut s = self.lock();
        s.free.append(spent);
        loop {
            let ready = s.cells.iter().take_while(|c| c.is_ready()).count();
            if ready > 0 {
                burst.extend(s.cells.drain(..ready));
                s.head += ready as u64;
                let wake = std::mem::take(&mut s.reader_parked);
                drop(s);
                if wake {
                    self.room.notify_one();
                }
                return Take::Cells;
            }
            if s.closed && s.cells.is_empty() {
                return Take::Finished;
            }
            if !wait {
                return Take::WouldBlock;
            }
            s.writer_parked = true;
            s = self.head_ready.wait(s).unwrap_or_else(|e| e.into_inner());
            s.writer_parked = false;
        }
    }
}

impl CompletionSink for ReplyRing {
    fn complete(&self, ticket: u64, completion: Completion) {
        // The body goes first, outside the lock: what it recorded is in
        // the cell's result sink, and the sink is the cell's alone again.
        drop(completion.tx);
        self.settle(ticket, completion.outcome);
    }
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
    ring: Arc<ReplyRing>,
    /// The ring again, as the engine sees it.
    sink: Arc<dyn CompletionSink>,
    multi: Option<MultiState>,
    /// Transactions parsed since the last hand-over, in ticket order.
    held: Vec<Submission>,
    /// Recycled result sinks, taken from the ring a burst at a time.
    sinks: Vec<ResultSink>,
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
        let ring = Arc::new(ReplyRing::new());
        Self {
            stream,
            engine,
            keys,
            shutdown,
            io,
            sink: ring.clone(),
            ring,
            multi: None,
            held: Vec::with_capacity(PIPELINE_DEPTH),
            sinks: Vec::new(),
            submits: 0,
            submit_calls: 0,
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
        let ring = self.ring.clone();
        let io = self.io.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut writer = Writer::new(wstream);
                // A write error ends the writer, and with it the
                // connection: the reader's next push fails.
                let _ = write_loop(&mut writer, &ring);
                io.replies.fetch_add(writer.replies, Ordering::Relaxed);
                io.reply_writes.fetch_add(writer.writes, Ordering::Relaxed);
            });
            self.read_loop();
            self.ring.close();
        });
        self.io.submits.fetch_add(self.submits, Ordering::Relaxed);
        self.io
            .submit_calls
            .fetch_add(self.submit_calls, Ordering::Relaxed);
    }

    fn read_loop(&mut self) {
        let mut buf: Vec<u8> = Vec::new();
        let mut args: Vec<Range<usize>> = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            // Drain complete frames before reading more bytes, then hand
            // the engine what they held — on every way out of the loop,
            // since an unsubmitted transaction's reply would never come.
            let open = self.drain_frames(&mut buf, &mut args);
            self.hand_over();
            if !open || self.shutdown.load(Ordering::Relaxed) {
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

    /// Parse and answer every complete frame in `buf`, then drain the
    /// bytes they took, once. False once the connection must close:
    /// protocol error, `SHUTDOWN`, writer gone.
    fn drain_frames(&mut self, buf: &mut Vec<u8>, args: &mut Vec<Range<usize>>) -> bool {
        let mut rest: &[u8] = buf;
        let open = loop {
            let used = match resp::parse_frame_into(rest, args) {
                resp::Framed::Incomplete => break true,
                resp::Framed::Error(e) => {
                    let _ = self.push(Cell::Ready(resp::error(&format!("ERR protocol: {e}"))));
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
            let pushed = match dispatch {
                Dispatch::Reply(cell) => self.push(cell),
                Dispatch::Close(cell) => {
                    let _ = self.push(cell);
                    break false;
                }
                Dispatch::Bare(op, kind) => {
                    self.push_tx(|sink| KvTx::one(op, sink), Kinds::Bare(kind))
                }
                Dispatch::Block(ops, kinds) => {
                    self.push_tx(|sink| KvTx::new(ops, sink), Kinds::Exec(kinds))
                }
            };
            if pushed.is_none() {
                break false; // writer gone (socket died)
            }
        };
        let consumed = buf.len() - rest.len();
        buf.drain(..consumed);
        open
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
                self.shutdown.store(true, Ordering::SeqCst);
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

    /// Append `cell` in request order; `None` once the writer is gone. A
    /// full ring blocks the reader — that is the pipeline bound — but
    /// first everything held goes to the engine: the writer may be
    /// waiting on the very jobs in the reader's hand.
    fn push(&mut self, cell: Cell) -> Option<u64> {
        let cell = match self.ring.push(cell, false) {
            Ok(ticket) => return Some(ticket),
            Err(PushError::WriterGone) => return None,
            Err(PushError::Full(cell)) => cell,
        };
        self.hand_over();
        self.ring.push(cell, true).ok()
    }

    /// Give a transaction its place in the reply order and hold it for
    /// the next hand-over. `body` builds it around its result sink.
    fn push_tx(&mut self, body: impl FnOnce(ResultSink) -> KvTx, kinds: Kinds) -> Option<u64> {
        if self.sinks.is_empty() {
            self.ring.recycled(&mut self.sinks);
        }
        let results = self.sinks.pop().unwrap_or_default();
        let tx = Box::new(body(results.clone()));
        let ticket = self.push(Cell::Tx(TxCell {
            kinds,
            results,
            outcome: None,
        }))?;
        self.held.push(Submission { ticket, tx });
        Some(ticket)
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
                self.ring.shed(job.ticket, reply);
            }
        }
    }
}

/// What one command asks of the reader.
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
}

/// Writer half: encode replies strictly in request order and send them a
/// burst at a time. Three rules: append whatever is ready (the ring's
/// whole ready prefix is taken without blocking, under one lock); flush
/// before every block — only when nothing is ready is the buffer written
/// out and the blocking take made, so a buffered reply never waits while
/// the writer sleeps; flush whenever the buffer reaches [`OUT_CAP`]. No
/// timer is needed: a reply is held back only while the writer has more
/// replies to encode right now.
fn write_loop<W: Write>(w: &mut Writer<W>, ring: &ReplyRing) -> io::Result<()> {
    let written = write_bursts(w, ring);
    // Whatever ended the writer, the reader must not wait for it.
    ring.writer_gone();
    written
}

fn write_bursts<W: Write>(w: &mut Writer<W>, ring: &ReplyRing) -> io::Result<()> {
    let mut burst: Vec<Cell> = Vec::with_capacity(PIPELINE_DEPTH);
    let mut spent: Vec<ResultSink> = Vec::new();
    loop {
        match ring.take_ready(&mut burst, &mut spent, false) {
            Take::Cells => {}
            Take::Finished => break,
            Take::WouldBlock => {
                w.flush()?;
                if let Take::Finished = ring.take_ready(&mut burst, &mut spent, true) {
                    break;
                }
            }
        }
        for cell in burst.drain(..) {
            match cell {
                Cell::Static(reply) => w.out.extend_from_slice(reply),
                Cell::Ready(reply) => w.out.extend_from_slice(&reply),
                Cell::Tx(tx) => {
                    // `take_ready` hands out settled cells only.
                    let outcome = tx.outcome.unwrap_or(Err(AbortReason::ServerUnavailable));
                    let mut vals = tx.results.lock().unwrap_or_else(|e| e.into_inner());
                    encode_outcome(&mut w.out, &outcome, &vals, &tx.kinds);
                    // An aborted attempt may have recorded results too.
                    vals.clear();
                    drop(vals);
                    spent.push(tx.results);
                }
            }
            w.replies += 1;
            if w.out.len() >= OUT_CAP {
                w.flush()?;
            }
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
    outcome: &Result<(), AbortReason>,
    vals: &[KvResult],
    kinds: &Kinds,
) {
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
    fn spawn_writer<W: Write + Send + 'static>(sink: W, ring: &Arc<ReplyRing>) -> Receiver<Ended> {
        let (ended_tx, ended_rx) = mpsc::channel();
        let ring = ring.clone();
        std::thread::spawn(move || {
            let mut w = Writer::new(sink);
            let result = write_loop(&mut w, &ring);
            let _ = ended_tx.send((result, w.replies, w.writes));
        });
        ended_rx
    }

    /// A writer recording into the returned channel.
    fn recording_writer(ring: &Arc<ReplyRing>) -> (Receiver<Vec<u8>>, Receiver<Ended>) {
        let (write_tx, writes) = mpsc::channel();
        (writes, spawn_writer(Recording(write_tx), ring))
    }

    fn push(ring: &ReplyRing, cell: Cell) -> u64 {
        match ring.push(cell, false) {
            Ok(ticket) => ticket,
            Err(_) => panic!("the ring has room and a writer"),
        }
    }

    fn pong(ring: &ReplyRing) -> u64 {
        push(ring, Cell::Static(resp::PONG))
    }

    /// Push an in-flight transaction whose body recorded `vals`.
    fn in_flight(ring: &ReplyRing, kinds: Kinds, vals: &[KvResult]) -> u64 {
        push(
            ring,
            Cell::Tx(TxCell {
                kinds,
                results: Arc::new(Mutex::new(vals.to_vec())),
                outcome: None,
            }),
        )
    }

    /// Push an in-flight bare `GET` that read `val`.
    fn get(ring: &ReplyRing, val: u64) -> u64 {
        in_flight(ring, Kinds::Bare(OpKind::Get), &[KvResult::Value(val)])
    }

    /// Complete `ticket` the way a worker does.
    fn complete(ring: &ReplyRing, ticket: u64, outcome: Result<(), AbortReason>) {
        let tx = Box::new(KvTx::new(Vec::new(), ResultSink::default()));
        ring.complete(
            ticket,
            Completion {
                tx,
                outcome,
                latency: Duration::ZERO,
            },
        );
    }

    /// A burst that is entirely available — immediate replies, committed
    /// and aborted transactions, an `EXEC` block — leaves in one write
    /// whose bytes are the per-reply encodings back to back.
    #[test]
    fn a_ready_burst_leaves_in_one_write_in_request_order() {
        let ring = Arc::new(ReplyRing::new());
        let mut expected = Vec::new();
        for round in 0..8u64 {
            pong(&ring);
            expected.extend(resp::simple("PONG"));

            complete(&ring, get(&ring, round), Ok(()));
            expected.extend(resp::bulk(round.to_string().as_bytes()));

            let aborted = in_flight(&ring, Kinds::Bare(OpKind::Incr), &[]);
            complete(&ring, aborted, Err(AbortReason::RetryBudgetExhausted));
            expected.extend(resp::error("RETRY retry_budget_exhausted"));

            let block = in_flight(
                &ring,
                Kinds::Exec(vec![OpKind::Get, OpKind::Incr, OpKind::Set]),
                &[KvResult::Value(7), KvResult::Value(round + 1), KvResult::Ok],
            );
            complete(&ring, block, Ok(()));
            expected.extend(resp::array_header(3));
            expected.extend(resp::bulk(b"7"));
            expected.extend(resp::integer(round as i64 + 1));
            expected.extend(resp::simple("OK"));
        }
        ring.close();
        let (writes, ended) = recording_writer(&ring);
        let (result, replies, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes.len(), 1, "one burst, one write");
        assert_eq!(writes[0], expected);
        assert_eq!((replies, write_calls), (32, 1));
    }

    /// Flush before every block: with the head cell still in flight, the
    /// reply buffered before it must reach the sink *before* the writer
    /// sleeps. The completion is delivered only after that write was
    /// seen, so a writer that blocks first times the test out.
    #[test]
    fn buffered_replies_are_written_before_the_writer_blocks() {
        let ring = Arc::new(ReplyRing::new());
        pong(&ring);
        let set = in_flight(&ring, Kinds::Bare(OpKind::Set), &[KvResult::Ok]);
        let (writes, ended) = recording_writer(&ring);

        let first = writes.recv_timeout(STUCK);
        assert_eq!(
            first.expect("the writer blocked on an unsettled head while holding a reply back"),
            b"+PONG\r\n"
        );
        complete(&ring, set, Ok(()));
        // Nothing follows the settled cell, so its reply must not wait for
        // the next one either.
        let second = writes.recv_timeout(STUCK);
        assert_eq!(
            second.expect("the writer blocked on the empty ring while holding a reply back"),
            b"+OK\r\n"
        );
        ring.close();
        let (result, replies, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        assert_eq!((replies, write_calls), (2, 2));
    }

    /// The buffer is bounded: a burst larger than `OUT_CAP` is cut into
    /// writes of about that size, never one write of everything.
    #[test]
    fn the_output_cap_splits_an_oversized_burst() {
        let big = resp::bulk(&[b'x'; 300]);
        let n = 2 * OUT_CAP / big.len(); // just under two caps' worth
        assert!(n <= PIPELINE_DEPTH);
        let ring = Arc::new(ReplyRing::new());
        for _ in 0..n {
            push(&ring, Cell::Ready(big.clone()));
        }
        ring.close();
        let (writes, ended) = recording_writer(&ring);
        let (result, replies, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes.len(), 2);
        assert!((OUT_CAP..OUT_CAP + big.len()).contains(&writes[0].len()));
        assert_eq!(writes.concat(), big.repeat(n));
        assert_eq!((replies, write_calls), (n as u64, 2));
    }

    /// A write error ends the writer at once, although the reader half
    /// still holds the ring open; the reader notices on its next push.
    #[test]
    fn a_failing_write_ends_the_writer() {
        let ring = Arc::new(ReplyRing::new());
        pong(&ring);
        let ended = spawn_writer(Broken, &ring);
        let (result, _, write_calls) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert_eq!(result.map_err(|e| e.kind()), Err(ErrorKind::BrokenPipe));
        assert_eq!(write_calls, 1);
        let refused = ring.push(Cell::Ready(resp::simple("PONG")), true);
        assert!(matches!(refused, Err(PushError::WriterGone)));
    }

    /// A worker that settles a cell after the writer died — nobody will
    /// ever write it — finds nothing to break, whether its ticket is
    /// still in the ring, was settled before, or never was in it.
    #[test]
    fn a_cell_settled_after_the_writer_died_is_harmless() {
        let ring = Arc::new(ReplyRing::new());
        pong(&ring);
        let in_flight = get(&ring, 1);
        let ended = spawn_writer(Broken, &ring);
        let (result, _, _) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_err());
        complete(&ring, in_flight, Ok(()));
        complete(&ring, in_flight, Ok(()));
        complete(&ring, in_flight + PIPELINE_DEPTH as u64, Ok(()));
        ring.shed(0, BUSY);
    }

    /// Workers finish in any order; the wire order is the request order.
    /// Settling anything but the head does not even wake the writer, so
    /// the four replies leave together once the head settles.
    #[test]
    fn tickets_settled_in_reverse_order_still_reply_in_request_order() {
        let ring = Arc::new(ReplyRing::new());
        let tickets: Vec<u64> = (0..4).map(|val| get(&ring, val)).collect();
        assert_eq!(tickets, [0, 1, 2, 3]);
        let (writes, ended) = recording_writer(&ring);
        for &ticket in tickets.iter().rev() {
            complete(&ring, ticket, Ok(()));
        }
        ring.close();
        let (result, replies, _) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        let writes: Vec<Vec<u8>> = writes.try_iter().collect();
        assert_eq!(writes, [b"$1\r\n0\r\n$1\r\n1\r\n$1\r\n2\r\n$1\r\n3\r\n"]);
        assert_eq!(replies, 4);
    }

    /// A transaction the engine shed is answered `-BUSY` where its reply
    /// belongs: between its committed neighbours, not ahead of them, and
    /// its result sink goes back for reuse.
    #[test]
    fn a_shed_job_answers_busy_in_its_own_position() {
        let ring = Arc::new(ReplyRing::new());
        let before = get(&ring, 4);
        let shed = in_flight(&ring, Kinds::Bare(OpKind::Get), &[]); // never ran
        let after = get(&ring, 6);
        let (writes, ended) = recording_writer(&ring);
        complete(&ring, after, Ok(()));
        ring.shed(shed, BUSY);
        complete(&ring, before, Ok(()));
        ring.close();
        let (result, replies, _) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        assert_eq!(
            writes.try_iter().collect::<Vec<_>>().concat(),
            b"$1\r\n4\r\n-BUSY engine queue full, retry later\r\n$1\r\n6\r\n"
        );
        assert_eq!(replies, 3);
        let mut recycled = Vec::new();
        ring.recycled(&mut recycled);
        assert_eq!(recycled.len(), 3, "every sink comes back, shed or written");
        assert!(recycled.iter().all(|sink| sink.lock().unwrap().is_empty()));
    }

    /// The ring is the pipeline bound: at `PIPELINE_DEPTH` outstanding
    /// replies a push hands the cell back (the reader then submits what
    /// it holds and waits), and a waiting push gets its place as soon as
    /// the writer has taken a burst.
    #[test]
    fn a_full_ring_refuses_until_the_writer_makes_room() {
        let ring = Arc::new(ReplyRing::new());
        for _ in 0..PIPELINE_DEPTH {
            pong(&ring);
        }
        let refused = ring.push(Cell::Ready(resp::simple("PONG")), false);
        let Err(PushError::Full(cell)) = refused else {
            panic!("the ring is full");
        };
        let (writes, ended) = recording_writer(&ring);
        assert_eq!(ring.push(cell, true).ok(), Some(PIPELINE_DEPTH as u64));
        ring.close();
        let (result, replies, _) = ended.recv_timeout(STUCK).expect("writer is stuck");
        assert!(result.is_ok());
        assert_eq!(replies, PIPELINE_DEPTH as u64 + 1);
        let written = writes.try_iter().collect::<Vec<_>>().concat();
        assert_eq!(written, b"+PONG\r\n".repeat(PIPELINE_DEPTH + 1));
    }

    fn encoded(outcome: Result<(), AbortReason>, kinds: Kinds) -> Vec<u8> {
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

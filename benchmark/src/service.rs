//! `service-sat` and `service-open`: RESP over TCP against
//! `csmv_service::serve` running on a thread of this process.
//!
//! A pass is one session: a fresh server on one CPU, `n` connections driven
//! from the same CPU (closed loop) or a second one (open loop), a warm-up and
//! then the measured windows back to back, with the seeded KV mix driven
//! through the connections:
//! closed loop with 32 requests in flight per connection (`service-sat`),
//! or open loop on a precomputed Poisson schedule with latency taken from
//! the *scheduled* send time (`service-open`).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use csmv_native::NativeConfig;
use csmv_service::command::KvOp;
use csmv_service::resp::{self, parse_reply, Reply, ReplyOutcome};
use csmv_service::{ServiceConfig, ServiceError, ServiceReport};

use crate::report::Outcome;
use crate::stats::{median, Hist, SplitMix64};
use crate::trace::{Tracer, SAMPLE_EVERY};
use crate::Plan;

/// Keys the server holds. The first `n` are audit keys, one per
/// connection, that only ever receive `INCRBY +1`.
pub const KEYS: u64 = 1024;
/// Requests each `service-sat` connection keeps in flight.
pub const IN_FLIGHT: usize = 32;
/// `service-open` arrival rate over all connections, requests per second:
/// about 1 % of what `service-sat` sustains on the reference host. Low on
/// purpose: on the seed code a starved worker stalls the engine for tens
/// of milliseconds now and then, an open loop keeps sending meanwhile, and
/// once 128 requests are queued the engine sheds with `-BUSY` — at 4000/s
/// that is a 32 ms stall and happened in every second pass; at 1000/s it
/// takes 128 ms. The workload is meant to have no failing operation.
pub const OPEN_RATE: f64 = 1000.0;
/// Requests per connection in the untimed oracle pass.
const ORACLE_REQUESTS: u64 = 6000;
/// A reply this late means the server lost the request.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// How long draining connections are left alone before the drain assist
/// steps in.
const DRAIN_GRACE: Duration = Duration::from_millis(100);
/// Set-up-only sessions after the measured one (a server started, `PING`ed
/// on every connection and stopped), so that `setup_s` is a median over
/// fifteen samples.
const SETUP_CYCLES: usize = 14;
/// Width of the windows `service.stall_windows` counts.
pub const STALL_WINDOW: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Get,
    Set,
    Incr,
    Multi,
}

pub const CLASSES: [(Class, &str, &str); 4] = [
    (
        Class::Get,
        "service.lat.get_p50_us",
        "service.lat.get_p90_us",
    ),
    (
        Class::Set,
        "service.lat.set_p50_us",
        "service.lat.set_p90_us",
    ),
    (
        Class::Incr,
        "service.lat.incr_p50_us",
        "service.lat.incr_p90_us",
    ),
    (
        Class::Multi,
        "service.lat.multi_p50_us",
        "service.lat.multi_p90_us",
    ),
];

/// One generated request: a bare op, or a three-op `MULTI … EXEC` block.
#[derive(Clone, Debug, PartialEq)]
pub struct KvReq {
    pub class: Class,
    pub ops: Vec<KvOp>,
    /// An `INCRBY +1` on this connection's audit key.
    pub audit: bool,
}

impl KvReq {
    /// Replies the server owes: `+OK`, three `+QUEUED` and the `EXEC`
    /// array for a block, one otherwise. The last one is terminal.
    pub fn replies(&self) -> usize {
        if self.class == Class::Multi {
            self.ops.len() + 2
        } else {
            1
        }
    }

    /// Append the request's wire bytes, framed by the public encoder.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let op = |op: &KvOp, out: &mut Vec<u8>| match *op {
            KvOp::Get(k) => out.extend(resp::encode_command(&["GET", &k.to_string()])),
            KvOp::Set(k, v) => out.extend(resp::encode_command(&[
                "SET",
                &k.to_string(),
                &v.to_string(),
            ])),
            KvOp::IncrBy(k, d) => out.extend(resp::encode_command(&[
                "INCRBY",
                &k.to_string(),
                &d.to_string(),
            ])),
        };
        if self.class == Class::Multi {
            out.extend(resp::encode_command(&["MULTI"]));
            self.ops.iter().for_each(|o| op(o, out));
            out.extend(resp::encode_command(&["EXEC"]));
        } else {
            op(&self.ops[0], out);
        }
    }
}

/// The seeded request stream of one connection: 50 % GET, 25 % SET, 15 %
/// INCRBY, 10 % MULTI(GET, INCRBY, SET), uniform keys.
pub struct KvGen {
    rng: SplitMix64,
    audit_key: u64,
    conns: u64,
}

impl KvGen {
    pub fn new(seed: u64, conn: usize, conns: usize) -> Self {
        Self {
            rng: SplitMix64(seed ^ ((conn as u64 + 1) << 40) ^ 0x5E_ED0F_C0DE),
            audit_key: conn as u64,
            conns: conns as u64,
        }
    }

    fn key(&mut self) -> u64 {
        self.conns + self.rng.below(KEYS - self.conns)
    }

    pub fn next_req(&mut self) -> KvReq {
        let one = |class, op| KvReq {
            class,
            ops: vec![op],
            audit: false,
        };
        match self.rng.below(100) {
            0..=49 => one(Class::Get, KvOp::Get(self.key())),
            50..=74 => one(Class::Set, KvOp::Set(self.key(), self.rng.below(1000))),
            // One increment in sixteen goes to the audit key: enough for
            // thousands of audited increments per pass, rare enough that
            // two are seldom in flight on one key — a transaction that
            // loses to its neighbours 64 times in a row comes back as
            // `-RETRY retry_budget_exhausted`, and the workload is meant
            // to have no failing operation.
            75..=89 if self.rng.below(16) == 0 => KvReq {
                audit: true,
                ..one(Class::Incr, KvOp::IncrBy(self.audit_key, 1))
            },
            75..=89 => one(Class::Incr, KvOp::IncrBy(self.key(), 1)),
            _ => KvReq {
                class: Class::Multi,
                ops: vec![
                    KvOp::Get(self.key()),
                    KvOp::IncrBy(self.key(), -1),
                    KvOp::Set(self.key(), self.rng.below(1000)),
                ],
                audit: false,
            },
        }
    }
}

/// An open-loop connection's precomputed arrivals: Poisson at `rate`
/// requests per second until `horizon`. Offsets and bytes are a pure
/// function of `(seed, conn, conns, rate, horizon)`.
pub struct Schedule {
    pub offsets_ns: Vec<u64>,
    pub reqs: Vec<KvReq>,
    pub wire: Vec<u8>,
    /// `wire[ends[i-1]..ends[i]]` is request `i`.
    pub ends: Vec<usize>,
}

impl Schedule {
    pub fn new(seed: u64, conn: usize, conns: usize, rate: f64, horizon: Duration) -> Self {
        let mut gaps = SplitMix64(seed ^ ((conn as u64 + 1) << 48) ^ 0xA221_7A15);
        let mut gen = KvGen::new(seed, conn, conns);
        let mut s = Schedule {
            offsets_ns: Vec::new(),
            reqs: Vec::new(),
            wire: Vec::new(),
            ends: Vec::new(),
        };
        let mut at = 0.0f64;
        loop {
            // Exponential gap; 1 − u keeps ln() off zero.
            at += -(1.0 - gaps.unit()).ln() / rate;
            if at >= horizon.as_secs_f64() {
                return s;
            }
            let req = gen.next_req();
            req.encode(&mut s.wire);
            s.ends.push(s.wire.len());
            s.offsets_ns.push((at * 1e9) as u64);
            s.reqs.push(req);
        }
    }

    fn bytes(&self, i: usize) -> &[u8] {
        &self.wire[if i == 0 { 0 } else { self.ends[i - 1] }..self.ends[i]]
    }
}

/// What one connection saw during a session.
#[derive(Default)]
struct ConnStats {
    ok: u64,
    retry: u64,
    busy: u64,
    err: u64,
    unaccounted: u64,
    /// Per window: terminal `OK`s placed in it, and their latency.
    lat: Vec<Hist>,
    /// The same latencies by request class, all windows together.
    class_lat: [Hist; 4],
    /// How late the open-loop writer sent, against the schedule.
    late: Hist,
    /// Duration of each `write_all` in traced windows; reported as its
    /// median.
    write: Hist,
    /// `STALL_WINDOW`-wide slots of the measured span that saw a completion.
    busy_slots: Vec<bool>,
    /// Last request sent → last outstanding reply.
    drain: Duration,
    audit_ok: u64,
    audit_read: Option<u64>,
    /// The first reply that was an error, for the run's log.
    first_error: Option<String>,
}

impl ConnStats {
    fn sized_for(w: &Windows) -> Self {
        Self {
            lat: vec![Hist::default(); w.count],
            busy_slots: vec![false; w.slots()],
            ..Default::default()
        }
    }

    fn merge(&mut self, o: &ConnStats) {
        self.ok += o.ok;
        self.retry += o.retry;
        self.busy += o.busy;
        self.err += o.err;
        self.unaccounted += o.unaccounted;
        if self.lat.len() < o.lat.len() {
            self.lat.resize(o.lat.len(), Hist::default());
        }
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.merge(b);
        }
        for (a, b) in self.class_lat.iter_mut().zip(&o.class_lat) {
            a.merge(b);
        }
        self.late.merge(&o.late);
        self.write.merge(&o.write);
        if self.busy_slots.len() < o.busy_slots.len() {
            self.busy_slots.resize(o.busy_slots.len(), false);
        }
        for (a, b) in self.busy_slots.iter_mut().zip(&o.busy_slots) {
            *a |= b;
        }
        self.drain = self.drain.max(o.drain);
        if self.first_error.is_none() {
            self.first_error.clone_from(&o.first_error);
        }
    }

    fn terminal(&self) -> u64 {
        self.ok + self.retry + self.busy + self.err
    }
}

/// A request written and not yet answered.
struct Pending {
    /// The scheduled send time of an open-loop request; `None` in a closed
    /// loop. A closed-loop request is timed from its write and counted in
    /// the window its reply arrives in. An open-loop request is timed
    /// from `due` and counted in the window it was due in, however late
    /// its reply — otherwise a stall would remove exactly the requests it
    /// delayed.
    due: Option<Instant>,
    write_start: Instant,
    write_end: Instant,
    class: Class,
    replies_left: usize,
    audit: bool,
    sampled: bool,
}

/// The measured windows of a session, back to back from `opens`, and
/// where the spans of the traced (odd) ones go.
#[derive(Clone, Copy)]
struct Windows<'a> {
    opens: Instant,
    len: Duration,
    count: usize,
    tracer: Option<&'a Tracer>,
}

impl Windows<'_> {
    fn closes(&self) -> Instant {
        self.opens + self.len * self.count as u32
    }

    /// The window `t` falls in, if any.
    fn index_at(&self, t: Instant) -> Option<usize> {
        crate::window_index(self.opens, self.len, self.count, t)
    }

    fn traced_at(&self, t: Instant) -> bool {
        self.tracer.is_some() && self.index_at(t).is_some_and(|i| i % 2 == 1)
    }

    fn slots(&self) -> usize {
        (self.len * self.count as u32)
            .as_nanos()
            .div_ceil(STALL_WINDOW.as_nanos()) as usize
    }
}

/// Reply bytes read and not yet parsed, with the terminal-reply
/// bookkeeping shared by both loops.
struct ReplyReader {
    buf: Vec<u8>,
    off: usize,
}

impl ReplyReader {
    /// Block for more bytes. `Ok(false)` is EOF.
    fn fill(&mut self, stream: &mut TcpStream) -> std::io::Result<bool> {
        if self.off > 0 && self.off == self.buf.len() {
            self.buf.clear();
            self.off = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete reply, if the buffer holds one.
    fn next(&mut self) -> Result<Option<Reply>, String> {
        match parse_reply(&self.buf[self.off..]) {
            ReplyOutcome::Reply(r, used) => {
                self.off += used;
                Ok(Some(r))
            }
            ReplyOutcome::Incomplete => {
                if self.off > 0 {
                    self.buf.drain(..self.off);
                    self.off = 0;
                }
                Ok(None)
            }
            ReplyOutcome::Error(e) => Err(e),
        }
    }
}

/// Account one terminal reply: classify it, clock it in the window it
/// belongs to, and emit its spans if it was sampled.
fn complete(stats: &mut ConnStats, p: &Pending, reply: &Reply, read_at: Instant, w: &Windows) {
    let now = Instant::now();
    if let (Reply::Error(e), None) = (reply, &stats.first_error) {
        stats.first_error = Some(e.clone());
    }
    match reply {
        Reply::Error(e) if e.starts_with("RETRY") => stats.retry += 1,
        Reply::Error(e) if e.starts_with("BUSY") => stats.busy += 1,
        Reply::Error(_) => stats.err += 1,
        _ => {
            stats.ok += 1;
            stats.audit_ok += u64::from(p.audit);
            if let Some(window) = w.index_at(p.due.unwrap_or(now)) {
                let ns = (now - p.due.unwrap_or(p.write_start)).as_nanos() as u64;
                stats.lat[window].record(ns);
                stats.class_lat[p.class as usize].record(ns);
            }
            if let Some(since) = now.checked_duration_since(w.opens) {
                let slot = (since.as_nanos() / STALL_WINDOW.as_nanos()) as usize;
                if let Some(s) = stats.busy_slots.get_mut(slot) {
                    *s = true;
                }
            }
        }
    }
    if let (true, Some(tracer)) = (p.sampled, w.tracer) {
        let from = p.due.unwrap_or(p.write_start);
        tracer.record(
            0,
            "req",
            from,
            now,
            &[
                ("gen.late", from, p.write_start),
                ("sock.write", p.write_start, p.write_end),
                ("wait", p.write_end, read_at.max(p.write_end)),
                ("reply.parse", read_at.max(p.write_end), now),
            ],
        );
    }
}

/// Read this connection's audit key back; the caller compares it with the
/// increments the server acknowledged.
fn read_audit(stream: &mut TcpStream, reader: &mut ReplyReader, key: u64) -> Option<u64> {
    stream
        .write_all(&resp::encode_command(&["GET", &key.to_string()]))
        .ok()?;
    loop {
        match reader.next() {
            Ok(Some(Reply::Bulk(b))) => return std::str::from_utf8(&b).ok()?.parse().ok(),
            Ok(Some(_)) | Err(_) => return None,
            Ok(None) => {
                if !reader.fill(stream).ok()? {
                    return None;
                }
            }
        }
    }
}

/// How far the connections of one server have got: how many are still
/// sending, how many have not yet finished draining and auditing.
struct Progress {
    sending: AtomicUsize,
    active: AtomicUsize,
}

impl Progress {
    fn new(conns: usize) -> Self {
        Self {
            sending: AtomicUsize::new(conns),
            active: AtomicUsize::new(conns),
        }
    }
}

/// Decrements its counter when dropped, so every exit path counts down.
struct CountDown<'a>(&'a AtomicUsize);

impl Drop for CountDown<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Drain assist. On the seed code an engine that runs dry starves the
/// worker holding the last jobs: its idle peer re-takes the shared queue
/// lock every 5 ms slice (ROADMAP item 3), and the last replies of a
/// session arrive 2–10 s late. The windows are closed by then, so nothing
/// measured depends on it, but every pass would wait it out. So: once all
/// connections stopped sending, they get [`DRAIN_GRACE`] to finish alone
/// (`service.drain_s` at or above the grace means they did not), then
/// this connection keeps one `SET` in flight so the idle worker has work
/// and the starved one gets the lock. `engine.idle_tps`,
/// `engine.stall_windows` and `engine.max_us` measure the stall itself.
fn drain_assist(mut stream: TcpStream, key: u64, progress: &Progress) {
    let pause = Duration::from_millis(1);
    let left = |counter: &AtomicUsize| counter.load(Ordering::SeqCst) > 0;
    while left(&progress.sending) && left(&progress.active) {
        std::thread::sleep(pause);
    }
    let stopped = Instant::now();
    while left(&progress.active) && stopped.elapsed() < DRAIN_GRACE {
        std::thread::sleep(pause);
    }
    let kick = resp::encode_command(&["SET", &key.to_string(), "0"]);
    let mut ok = [0u8; 5];
    while left(&progress.active) {
        if stream.write_all(&kick).is_err() || stream.read_exact(&mut ok).is_err() {
            return;
        }
    }
}

/// Closed loop: keep `IN_FLIGHT` requests outstanding until the window
/// closes or `limit` requests were sent, then drain.
fn closed_loop(
    mut stream: TcpStream,
    mut gen: KvGen,
    conn: usize,
    limit: u64,
    w: Windows,
    progress: &Progress,
) -> ConnStats {
    let mut sending = Some(CountDown(&progress.sending));
    let mut stopped_at = None;
    let mut stats = ConnStats::sized_for(&w);
    let closes = w.closes();
    let mut reader = ReplyReader {
        buf: Vec::new(),
        off: 0,
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut out = Vec::new();
    let mut sent = 0u64;
    'conn: loop {
        let now = Instant::now();
        let open = now < closes && sent < limit;
        if !open && sending.take().is_some() {
            stopped_at = Some(now);
        }
        if open && pending.len() < IN_FLIGHT {
            let first_new = pending.len();
            let traced = w.traced_at(now);
            while pending.len() < IN_FLIGHT && sent < limit {
                let req = gen.next_req();
                req.encode(&mut out);
                sent += 1;
                pending.push_back(Pending {
                    due: None,
                    write_start: now,
                    write_end: now,
                    class: req.class,
                    replies_left: req.replies(),
                    audit: req.audit,
                    sampled: traced && sent.is_multiple_of(SAMPLE_EVERY),
                });
            }
            if stream.write_all(&out).is_err() {
                break 'conn;
            }
            out.clear();
            if traced {
                let end = Instant::now();
                stats.write.record((end - now).as_nanos() as u64);
                pending
                    .range_mut(first_new..)
                    .for_each(|p| p.write_end = end);
            }
        }
        if pending.is_empty() {
            break;
        }
        match reader.fill(&mut stream) {
            Ok(true) => {}
            Ok(false) | Err(_) => break,
        }
        let read_at = Instant::now();
        loop {
            match reader.next() {
                Ok(Some(reply)) => {
                    let Some(head) = pending.front_mut() else {
                        stats.err += 1; // a reply nobody asked for
                        break 'conn;
                    };
                    head.replies_left -= 1;
                    if head.replies_left == 0 {
                        complete(&mut stats, head, &reply, read_at, &w);
                        pending.pop_front();
                    }
                }
                Ok(None) => break,
                Err(_) => break 'conn,
            }
        }
    }
    drop(sending);
    stats.unaccounted = pending.len() as u64;
    stats.drain = stopped_at.map_or(Duration::ZERO, |t| t.elapsed());
    if pending.is_empty() {
        stats.audit_read = read_audit(&mut stream, &mut reader, conn as u64);
    }
    stats
}

/// Open loop: one paced writer (this thread) and one blocking reader.
fn open_loop(
    mut stream: TcpStream,
    schedule: &Schedule,
    conn: usize,
    epoch: Instant,
    w: Windows,
    progress: &Progress,
) -> ConnStats {
    let sending = CountDown(&progress.sending);
    let Ok(mut rstream) = stream.try_clone() else {
        return ConnStats {
            unaccounted: schedule.reqs.len() as u64,
            ..Default::default()
        };
    };
    let (meta_tx, meta_rx) = mpsc::channel::<Pending>();
    let (mut stats, mut reader) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut stats = ConnStats::sized_for(&w);
            let mut reader = ReplyReader {
                buf: Vec::new(),
                off: 0,
            };
            let mut read_at = Instant::now();
            'requests: for mut pending in meta_rx {
                while pending.replies_left > 0 {
                    match reader.next() {
                        Ok(Some(reply)) => {
                            pending.replies_left -= 1;
                            if pending.replies_left == 0 {
                                complete(&mut stats, &pending, &reply, read_at, &w);
                            }
                        }
                        Ok(None) => match reader.fill(&mut rstream) {
                            Ok(true) => read_at = Instant::now(),
                            Ok(false) | Err(_) => break 'requests,
                        },
                        Err(_) => break 'requests,
                    }
                }
            }
            (stats, reader)
        });

        let mut late = Hist::default();
        let mut write = Hist::default();
        for (i, req) in schedule.reqs.iter().enumerate() {
            let due = epoch + Duration::from_nanos(schedule.offsets_ns[i]);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let write_start = Instant::now();
            late.record(write_start.saturating_duration_since(due).as_nanos() as u64);
            if stream.write_all(schedule.bytes(i)).is_err() {
                break;
            }
            let traced = w.traced_at(due);
            let write_end = if traced {
                let end = Instant::now();
                write.record((end - write_start).as_nanos() as u64);
                end
            } else {
                write_start
            };
            let sent = Pending {
                due: Some(due),
                write_start,
                write_end,
                class: req.class,
                replies_left: req.replies(),
                audit: req.audit,
                sampled: traced && (i as u64 + 1).is_multiple_of(SAMPLE_EVERY),
            };
            if meta_tx.send(sent).is_err() {
                break;
            }
        }
        drop(meta_tx);
        drop(sending);
        let stopped = Instant::now();
        let (mut stats, reader) = reader.join().expect("the reply reader does not panic");
        stats.drain = stopped.elapsed();
        stats.late = late;
        stats.write = write;
        (stats, reader)
    });
    stats.unaccounted = schedule.reqs.len() as u64 - stats.terminal();
    if stats.unaccounted == 0 {
        stats.audit_read = read_audit(&mut stream, &mut reader, conn as u64);
    }
    stats
}

/// A running `csmv_service::serve` with its connections open: the state a
/// session is in once its set-up is done.
struct Live {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<ServiceReport, ServiceError>>,
    /// `n` measured connections, then the drain assist's.
    conns: Vec<TcpStream>,
    /// Bind + `NativeEngine::start` + connect, until every connection
    /// answered a `PING`.
    setup: Duration,
}

impl Live {
    fn start(n: usize, split: bool, check_history: bool) -> Result<Live, String> {
        let cfg = ServiceConfig {
            engine: NativeConfig {
                client_threads: n,
                server_threads: 1,
                ..ServiceConfig::default().engine
            },
            keys: KEYS,
            check_history,
        };
        let called = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let (addr_tx, addr_rx) = mpsc::channel();
        // The server and every thread it starts on the system CPU. This
        // thread, and the generator threads it starts later, beside them
        // — or, when `split`, on the load CPU.
        crate::pin::system();
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                csmv_service::serve(&cfg, "127.0.0.1:0", stop, |a| {
                    let _ = addr_tx.send(a);
                })
            })
        };
        if split {
            crate::pin::load();
        }
        // A PONG on each connection shows that the accept loop, and the
        // engine started before it, are up.
        let connect = |addr| -> std::io::Result<TcpStream> {
            let mut s = TcpStream::connect::<std::net::SocketAddr>(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            s.write_all(&resp::encode_command(&["PING"]))?;
            let mut pong = [0u8; 7];
            s.read_exact(&mut pong)?;
            if &pong != b"+PONG\r\n" {
                return Err(std::io::Error::other("PING was not answered with PONG"));
            }
            Ok(s)
        };
        let opened = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "no listener address within 10 s".to_string())
            .and_then(|addr| {
                let measured: std::io::Result<Vec<TcpStream>> =
                    (0..n).map(|_| connect(addr)).collect();
                let setup = called.elapsed();
                let assist = connect(addr);
                measured
                    .and_then(|mut conns| {
                        conns.push(assist?);
                        Ok((conns, setup))
                    })
                    .map_err(|e| format!("connect: {e}"))
            });
        match opened {
            Ok((conns, setup)) => Ok(Live {
                stop,
                handle,
                conns,
                setup,
            }),
            Err(why) => {
                stop.store(true, Ordering::SeqCst);
                let served = match handle.join() {
                    Ok(Err(e)) => format!(" ({e})"),
                    _ => String::new(),
                };
                Err(format!("service did not start: {why}{served}"))
            }
        }
    }

    /// Run `body(conn, stream, progress)` on one thread per measured
    /// connection with the drain assist beside them, then close the
    /// connections, stop the server (which drains the engine) and return
    /// each connection's stats with the server's report.
    fn run(
        mut self,
        body: impl Fn(usize, TcpStream, &Progress) -> ConnStats + Sync,
    ) -> (Vec<ConnStats>, Result<ServiceReport, String>) {
        let assist = self
            .conns
            .pop()
            .expect("start opened the assist connection");
        let progress = Progress::new(self.conns.len());
        let per_conn = std::thread::scope(|s| {
            let (body, progress) = (&body, &progress);
            let handles: Vec<_> = self
                .conns
                .into_iter()
                .enumerate()
                .map(|(c, stream)| {
                    s.spawn(move || {
                        let _active = CountDown(&progress.active);
                        body(c, stream, progress)
                    })
                })
                .collect();
            // The first general key; audit keys stay untouched.
            let key = handles.len() as u64;
            s.spawn(move || drain_assist(assist, key, progress));
            handles
                .into_iter()
                .map(|h| h.join().expect("a connection thread does not panic"))
                .collect()
        });
        self.stop.store(true, Ordering::SeqCst);
        let report = match self.handle.join() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("serve panicked".into()),
        };
        (per_conn, report)
    }
}

/// One session: a server's life from start to stop, with the warm-up
/// and every measured window inside it.
#[derive(Default)]
struct Session {
    stats: ConnStats,
    report: Option<ServiceReport>,
    setup: Duration,
    scheduled: u64,
    problems: Vec<String>,
}

fn session(open: bool, plan: &Plan, tracer: Option<&Tracer>) -> Session {
    let (n, seed) = (plan.n, plan.seed);
    let load = plan.warmup + plan.window * plan.windows as u32;
    let schedules: Vec<Schedule> = if open {
        (0..n)
            .map(|c| Schedule::new(seed, c, n, OPEN_RATE / n as f64, load))
            .collect()
    } else {
        Vec::new()
    };
    let mut ses = Session::default();
    let live = match Live::start(n, open, false) {
        Ok(live) => live,
        Err(e) => {
            ses.problems.push(e);
            return ses;
        }
    };
    ses.setup = live.setup;

    let epoch = Instant::now();
    let w = Windows {
        opens: epoch + plan.warmup,
        len: plan.window,
        count: plan.windows,
        tracer,
    };
    let (per_conn, report) = live.run(|c, stream, progress| {
        if open {
            open_loop(stream, &schedules[c], c, epoch, w, progress)
        } else {
            closed_loop(stream, KvGen::new(seed, c, n), c, u64::MAX, w, progress)
        }
    });
    for (c, stats) in per_conn.iter().enumerate() {
        ses.problems.extend(check_audit(c, stats));
        ses.stats.merge(stats);
    }
    ses.scheduled = ses.stats.terminal() + ses.stats.unaccounted;
    if ses.stats.unaccounted > 0 {
        ses.problems.push(format!(
            "{} of {} requests never got a terminal reply",
            ses.stats.unaccounted, ses.scheduled
        ));
    }
    match report {
        Ok(report) => ses.report = Some(report),
        Err(e) => ses.problems.push(e),
    }
    ses
}

/// Audit gate: the audit key holds exactly the increments the server
/// acknowledged on this connection.
fn check_audit(conn: usize, stats: &ConnStats) -> Vec<String> {
    match stats.audit_read {
        Some(v) if v == stats.audit_ok => Vec::new(),
        Some(v) => vec![format!(
            "connection {conn}: audit key reads {v} after {} acknowledged increments",
            stats.audit_ok
        )],
        None => vec![format!("connection {conn}: audit key could not be read")],
    }
}

/// The untimed oracle pass: a count-bounded closed loop against a server
/// that records its history and checks it at shutdown.
fn oracle(plan: &Plan) -> Vec<String> {
    let limit = ((ORACLE_REQUESTS as f64 * plan.oracle_scale) as u64).max(100);
    let live = match Live::start(plan.n, false, true) {
        Ok(live) => live,
        Err(e) => return vec![e],
    };
    // One long window: the loop ends on the request count, not the clock.
    let w = Windows {
        opens: Instant::now(),
        len: Duration::from_secs(600),
        count: 1,
        tracer: None,
    };
    let (per_conn, report) = live.run(|c, stream, progress| {
        let gen = KvGen::new(plan.seed ^ 0x0AC1E, c, plan.n);
        closed_loop(stream, gen, c, limit, w, progress)
    });
    let mut problems = Vec::new();
    for (c, stats) in per_conn.iter().enumerate() {
        problems.extend(check_audit(c, stats));
        if stats.ok != limit {
            problems.push(format!(
                "oracle pass: connection {c} got {} OKs of {limit}",
                stats.ok
            ));
        }
    }
    if let Err(e) = report {
        problems.push(format!("oracle pass: {e}"));
    }
    problems
}

/// Run one service workload: one session holding the warm-up and every
/// window, the gates on it, a few set-up-only cycles, then the oracle
/// pass.
pub fn run(open: bool, plan: &Plan, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let ses = session(open, plan, tracer);
    out.problems.extend(ses.problems);
    let s = &ses.stats;
    let us = |ns: f64| ns / 1e3;

    // The headline the tracing overhead is judged on: throughput when
    // saturated, median latency (inverted, so higher is better) when not.
    let mut headline = [Vec::new(), Vec::new()];
    let mut all = Hist::default();
    for (w, lat) in s.lat.iter().enumerate() {
        let tps = lat.count() as f64 / plan.window.as_secs_f64();
        let p50 = us(lat.quantile(0.5));
        headline[w % 2].push(if open { 1.0 / p50.max(1e-9) } else { tps });
        out.push("commit_tps", tps);
        out.push("p50_us", p50);
        out.push("p90_us", us(lat.quantile(0.9)));
        all.merge(lat);
    }
    out.push("setup_s", ses.setup.as_secs_f64());
    // Set-up-only cycles: a server started, connected to and stopped
    // without load.
    for _ in 0..SETUP_CYCLES {
        match Live::start(plan.n, open, false) {
            Ok(live) => {
                out.push("setup_s", live.setup.as_secs_f64());
                if let (_, Err(e)) = live.run(|_, _, _| ConnStats::default()) {
                    out.problems.push(e);
                }
            }
            Err(e) => out.problems.push(e),
        }
    }

    out.set("service.p99_us", us(all.quantile(0.99)));
    out.set("service.p999_us", us(all.quantile(0.999)));
    out.set("service.max_us", us(all.max() as f64));
    let stalled = s.busy_slots.iter().filter(|&&b| !b).count();
    out.set("service.stall_windows", stalled as f64);
    let terminal = s.terminal().max(1) as f64;
    out.set("service.busy_ratio", s.busy as f64 / terminal);
    out.set("service.retry_ratio", s.retry as f64 / terminal);
    out.set("service.drain_s", s.drain.as_secs_f64());
    if open {
        let late = us(s.late.quantile(0.99));
        out.set("service.gen_late_p99_us", late);
        if late > 1000.0 {
            println!(
                "warning: the generator ran {late:.0} us late at p99; \
                 latencies include generator delay"
            );
        }
    }
    if s.write.count() > 0 {
        out.set("service.sock_write_us", us(s.write.quantile(0.5)));
    }
    for (class, p50_name, p90_name) in CLASSES {
        let h = &s.class_lat[class as usize];
        out.set(p50_name, us(h.quantile(0.5)));
        out.set(p90_name, us(h.quantile(0.9)));
    }
    if let Some(report) = &ses.report {
        crate::native::push_engine_layers(&mut out, &report.result.stats, &report.result.metrics);
    }
    out.attempted = ses.scheduled;
    out.failed = ses.scheduled - s.ok;
    if out.failed > 0 {
        println!(
            "{} of {} requests failed: {} RETRY, {} BUSY, {} other errors, {} unanswered; first: {}",
            out.failed,
            out.attempted,
            s.retry,
            s.busy,
            s.err,
            s.unaccounted,
            s.first_error.as_deref().unwrap_or("-")
        );
    }
    if plan.trace {
        let [untraced, traced] = &headline;
        out.set("trace.overhead_ratio", median(traced) / median(untraced));
    }
    crate::close_measurement(&mut out, if open { "p50_us" } else { "commit_tps" });
    out.problems.extend(oracle(plan));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, conn: usize) -> Vec<KvReq> {
        let mut g = KvGen::new(seed, conn, 2);
        (0..2000).map(|_| g.next_req()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_requests_and_another_seed_does_not() {
        assert_eq!(stream(1, 0), stream(1, 0));
        assert_ne!(stream(1, 0), stream(2, 0));
        assert_ne!(stream(1, 0), stream(1, 1));
    }

    #[test]
    fn the_mix_and_the_audit_key_rule_hold() {
        let reqs = stream(3, 1);
        let share = |c: Class| reqs.iter().filter(|r| r.class == c).count() as f64 / 2000.0;
        assert!((share(Class::Get) - 0.50).abs() < 0.05);
        assert!((share(Class::Set) - 0.25).abs() < 0.05);
        assert!((share(Class::Incr) - 0.15).abs() < 0.04);
        assert!((share(Class::Multi) - 0.10).abs() < 0.04);
        assert!(reqs.iter().any(|r| r.audit));
        for r in &reqs {
            for op in &r.ops {
                let key = match *op {
                    KvOp::Get(k) | KvOp::Set(k, _) | KvOp::IncrBy(k, _) => k,
                };
                assert!(key < KEYS);
                // Audit keys (0 and 1 here) only ever see this
                // connection's own +1 increments.
                if key < 2 {
                    assert!(r.audit && *op == KvOp::IncrBy(1, 1), "{r:?}");
                }
            }
        }
    }

    #[test]
    fn encoded_requests_parse_back_through_the_public_parser() {
        for req in stream(5, 0).iter().take(200) {
            let mut wire = Vec::new();
            req.encode(&mut wire);
            let mut frames = 0;
            let mut rest = &wire[..];
            while !rest.is_empty() {
                match resp::parse_frame(rest) {
                    resp::ParseOutcome::Frame(argv, used) => {
                        assert!(csmv_service::command::Command::parse(&argv).is_ok());
                        rest = &rest[used..];
                        frames += 1;
                    }
                    other => panic!("request does not parse: {other:?}"),
                }
            }
            assert_eq!(frames, req.replies());
        }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_arrival_schedule() {
        let make = |seed| Schedule::new(seed, 0, 2, 2000.0, Duration::from_millis(500));
        let (a, b, c) = (make(9), make(9), make(10));
        assert_eq!(a.offsets_ns, b.offsets_ns);
        assert_eq!(a.wire, b.wire);
        assert_ne!(a.offsets_ns, c.offsets_ns);
        assert_ne!(a.wire, c.wire);
        // About rate × horizon arrivals, in order, each with its bytes.
        assert!((800..1200).contains(&a.reqs.len()), "{}", a.reqs.len());
        assert!(a.offsets_ns.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.ends.len(), a.reqs.len());
        let mut first = Vec::new();
        a.reqs[0].encode(&mut first);
        assert_eq!(a.bytes(0), first);
    }

    #[test]
    fn audit_gate_compares_the_key_with_acknowledged_increments() {
        let stats = |ok, read| ConnStats {
            audit_ok: ok,
            audit_read: read,
            ..Default::default()
        };
        assert!(check_audit(0, &stats(7, Some(7))).is_empty());
        assert!(check_audit(0, &stats(7, Some(8)))[0].contains("reads 8 after 7"));
        assert!(check_audit(0, &stats(7, None))[0].contains("could not be read"));
    }
}

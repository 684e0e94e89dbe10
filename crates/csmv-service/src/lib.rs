//! # csmv-service — a network front-end for the native CSMV engine
//!
//! A Redis-subset TCP server speaking RESP: `GET`/`SET`/`INCRBY` map to
//! single-op CSMV transactions, a `MULTI…EXEC` block maps to one
//! transaction, and `PING`/`DISCARD`/`SHUTDOWN` are control commands.
//! Every connection is pipelined (replies strictly in request order),
//! and every accepted request gets exactly one terminal reply:
//!
//! * `+OK` / bulk / integer — the transaction committed;
//! * `-RETRY <abort_reason>` — the transaction aborted terminally, with
//!   the `AbortReason` taxonomy key (`retry_budget_exhausted`,
//!   `server_timeout`, `server_unavailable`, …);
//! * `-BUSY …` — backpressure: the engine's bounded submit queue was
//!   full and the request was shed before execution;
//! * `-EXECABORT …` — an `EXEC` block refused before execution: a queued
//!   command failed, or the block writes more distinct keys than one
//!   transaction may (the engine's `max_ws`).
//!
//! Consistency model: bare pipelined commands are *independent
//! concurrent transactions* — they may execute in any serializable
//! order, and ordering against a previous command on the same
//! connection is only guaranteed once that command's reply arrived
//! (its commit happened before the reply was written). Atomicity and
//! intra-request ordering are what `MULTI…EXEC` is for, including
//! read-own-write inside the block.
//!
//! The server itself holds no transactional state — it is a framing and
//! flow-control layer over [`csmv_native::NativeEngine`], and a
//! `--check-history` run validates the full committed history against
//! the opacity oracle at shutdown, exactly like the in-process harnesses.

#![forbid(unsafe_code)]

pub mod command;
pub mod resp;

mod conn;

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csmv_native::{NativeConfig, NativeEngine, NativeRunError, NativeRunResult};

use conn::{Connection, IoCounters};

/// How often the stop watcher looks at the `stop` flag (the flag is a
/// plain `AtomicBool` shared with the caller, so it can only be polled).
const STOP_POLL: Duration = Duration::from_millis(20);

/// Service configuration: engine shape plus the listener address.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine configuration (worker pool, intake depth, retry budget).
    /// `max_run` bounds the whole serving session. The default intake
    /// queues one connection's pipeline ([`conn::PIPELINE_DEPTH`]) per
    /// worker, so a service with no more pipelining connections than
    /// workers never answers `-BUSY`; past that, overload sheds.
    pub engine: NativeConfig,
    /// Number of keys; valid keys are `0..keys`.
    pub keys: u64,
    /// Validate the committed history against the opacity oracle at
    /// shutdown (forces `record_history`).
    pub check_history: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            engine: NativeConfig {
                // Serving sessions are long-lived; the engine watchdog is
                // a last-resort bound, not a bench duration.
                max_run: Duration::from_secs(3600),
                // Unbounded retry makes overload invisible; a budget
                // turns pathological contention into typed -RETRY
                // replies the client can act on.
                retry_budget: Some(64),
                record_history: false,
                ..Default::default()
            },
            keys: 1024,
            check_history: false,
        }
    }
}

/// What a completed serving session hands back.
pub struct ServiceReport {
    /// The engine's aggregated run result (oracle-checked when
    /// `check_history` was set).
    pub result: NativeRunResult,
    /// Connections accepted over the session.
    pub connections: u64,
    /// Replies written, over all connections.
    pub replies: u64,
    /// Flushes that carried them: a connection coalesces every reply that
    /// is ready into one buffer and hands it to the socket at once, so
    /// `replies / reply_writes` is the mean burst size.
    pub reply_writes: u64,
    /// Transactions the engine accepted, over all connections.
    pub submits: u64,
    /// `submit_batch` calls that carried them: a reader hands over
    /// everything one socket read brought in with one call, so
    /// `submits / submit_calls` is the mean hand-off size.
    pub submit_calls: u64,
}

/// Errors out of [`serve`].
#[derive(Debug)]
pub enum ServiceError {
    /// The listener could not be bound.
    Bind(std::io::Error),
    /// The engine rejected its configuration, or the committed history
    /// failed the opacity oracle at shutdown.
    Engine(NativeRunError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Bind(e) => write!(f, "bind failed: {e}"),
            ServiceError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Bind `addr`, serve connections until a client issues `SHUTDOWN` (or
/// `stop` is set externally), then drain the engine and return the
/// aggregated report. The accept loop notices the flag within 20 ms, and
/// every connection within one 200 ms socket slice, even one blocked
/// writing to a client that does not read.
///
/// `on_ready` is called with the bound local address before the first
/// accept — tests use it to learn an OS-assigned port.
pub fn serve<A: ToSocketAddrs>(
    cfg: &ServiceConfig,
    addr: A,
    stop: Arc<AtomicBool>,
    on_ready: impl FnOnce(std::net::SocketAddr),
) -> Result<ServiceReport, ServiceError> {
    let mut engine_cfg = cfg.engine.clone();
    if cfg.check_history {
        engine_cfg.record_history = true;
    }
    let listener = TcpListener::bind(addr).map_err(ServiceError::Bind)?;
    let local = listener.local_addr().map_err(ServiceError::Bind)?;
    on_ready(local);

    let engine = Arc::new(
        NativeEngine::start(&engine_cfg, cfg.keys, |_| 0)
            .map_err(|e| ServiceError::Engine(NativeRunError::Config(e)))?,
    );

    let io = Arc::new(IoCounters::default());
    let mut connections: u64 = 0;
    let mut handles = Vec::new();
    // `accept` blocks, so a connection is served the moment it arrives.
    // The watcher is what ends it: once `stop` is set (by the caller or by
    // a `SHUTDOWN` command) it connects to the listener's own address,
    // and the loop, woken by that connection, sees the flag and drops it.
    let accepting = AtomicBool::new(true);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            while accepting.load(Ordering::SeqCst) {
                if stop.load(Ordering::SeqCst) {
                    // Retried every slice until the loop has ended: a
                    // failed connect must not leave `accept` blocked.
                    let _ = TcpStream::connect(wake_addr(local));
                }
                std::thread::park_timeout(STOP_POLL);
            }
        });
        while let Ok((stream, _peer)) = listener.accept() {
            if stop.load(Ordering::SeqCst) {
                break; // the watcher's wake-up (or a client too late to serve)
            }
            connections += 1;
            let _ = stream.set_nodelay(true);
            let conn = Connection::new(stream, engine.clone(), cfg.keys, stop.clone(), io.clone());
            handles.push(std::thread::spawn(move || conn.run()));
            reap_finished(&mut handles);
        }
        // Also reached on an `accept` error: release the watcher either way.
        accepting.store(false, Ordering::SeqCst);
        watcher.thread().unpark();
    });
    drop(listener);
    // Connections notice the stop flag within one socket slice, reading
    // or writing; join them all so every in-flight reply is written
    // before the engine drains.
    for h in handles {
        let _ = h.join();
    }
    let engine = match Arc::into_inner(engine) {
        Some(e) => e,
        None => {
            // Unreachable once every connection joined; refuse to guess.
            return Err(ServiceError::Engine(NativeRunError::Config(
                csmv_native::NativeConfigError::NoClients,
            )));
        }
    };
    let result = if cfg.check_history {
        engine.shutdown_checked().map_err(ServiceError::Engine)?
    } else {
        engine.shutdown()
    };
    Ok(ServiceReport {
        result,
        connections,
        replies: io.replies.load(Ordering::Relaxed),
        reply_writes: io.reply_writes.load(Ordering::Relaxed),
        submits: io.submits.load(Ordering::Relaxed),
        submit_calls: io.submit_calls.load(Ordering::Relaxed),
    })
}

/// Where the stop watcher connects to wake `accept`: the listener's own
/// address, with a wildcard bind address replaced by loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        ip if !ip.is_unspecified() => ip,
        std::net::IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
        std::net::IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
    };
    SocketAddr::new(ip, local.port())
}

/// Drop the handles of threads that have already ended, so a long-lived
/// server under connection churn holds handles only for the connections
/// still open. (A connection thread's result is ignored at the final join
/// too, so nothing is lost by not joining a finished one.)
fn reap_finished<T>(handles: &mut Vec<std::thread::JoinHandle<T>>) {
    handles.retain(|h| !h.is_finished());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::{parse_reply, Reply, ReplyOutcome};
    use std::io::{Read, Write};

    /// Pipeline `cmds` on `stream` and collect `want` in-order replies.
    fn session(stream: &mut TcpStream, cmds: &[&[&str]], want: usize) -> Vec<Reply> {
        let mut wire = Vec::new();
        for cmd in cmds {
            let args: Vec<&[u8]> = cmd.iter().map(|s| s.as_bytes()).collect();
            wire.extend(crate::resp::encode_command(&args));
        }
        stream.write_all(&wire).unwrap();
        let mut replies = Vec::new();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while replies.len() < want {
            match parse_reply(&buf) {
                ReplyOutcome::Reply(r, used) => {
                    buf.drain(..used);
                    replies.push(r);
                    continue;
                }
                ReplyOutcome::Incomplete => {}
                ReplyOutcome::Error(e) => panic!("bad reply stream: {e}"),
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed early: got {replies:?}");
            buf.extend_from_slice(&chunk[..n]);
        }
        replies
    }

    #[test]
    fn the_stop_wake_up_goes_to_loopback_when_the_bind_address_is_a_wildcard() {
        let wake = |bound: &str| wake_addr(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7379"), "127.0.0.1:7379");
        assert_eq!(wake("[::]:7379"), "[::1]:7379");
        assert_eq!(wake("192.0.2.7:7379"), "192.0.2.7:7379");
    }

    #[test]
    fn reaping_drops_finished_threads_and_keeps_live_ones() {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let live = std::thread::spawn(move || parked.recv().is_ok());
        let mut handles: Vec<_> = (0..3).map(|_| std::thread::spawn(|| true)).collect();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::yield_now();
        }
        handles.insert(1, live);
        reap_finished(&mut handles);
        assert_eq!(handles.len(), 1, "only the parked thread is kept");
        release.send(()).unwrap();
        assert!(handles.pop().unwrap().join().unwrap());
    }

    type Server = (
        SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<Result<ServiceReport, ServiceError>>,
    );

    /// A two-worker, history-checked server over `keys` keys on an
    /// OS-assigned port: its address, its stop flag and its thread.
    fn start_server(keys: u64) -> Server {
        start_server_with(keys, ServiceConfig::default().engine.channel_depth)
    }

    /// [`start_server`] with an engine intake of `2 * channel_depth` jobs.
    fn start_server_with(keys: u64, channel_depth: usize) -> Server {
        let cfg = ServiceConfig {
            engine: NativeConfig {
                client_threads: 2,
                channel_depth,
                ..ServiceConfig::default().engine
            },
            keys,
            check_history: true,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                serve(&cfg, "127.0.0.1:0", stop, |a| {
                    let _ = addr_tx.send(a);
                })
            })
        };
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        (addr, stop, server)
    }

    /// A client whose reads give up instead of hanging the test.
    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    /// Coalesced replies on the wire, at both extremes: 64 pipelined
    /// commands sent in one write come back complete and in order, and a
    /// strict ping-pong client — one request in flight — never waits on a
    /// reply the connection is holding back. The caller-set stop flag
    /// ends the session.
    #[test]
    fn a_pipelined_burst_stays_in_order_and_ping_pong_is_never_held_back() {
        let (addr, stop, server) = start_server(128);
        let mut c = connect(addr);

        // Bare pipelined commands are independent transactions, so every
        // command of the burst gets a key of its own and a reply that
        // names its position.
        let seeded: Vec<Vec<String>> = (0..16)
            .map(|k| vec!["SET".into(), k.to_string(), (1000 + k).to_string()])
            .collect();
        let mut burst: Vec<Vec<String>> = Vec::new();
        let mut want: Vec<Reply> = Vec::new();
        for i in 0..59u64 {
            let (cmd, reply) = match i % 4 {
                0 => (
                    vec!["GET".into(), (i / 4).to_string()],
                    Reply::Bulk((1000 + i / 4).to_string().into_bytes()),
                ),
                1 => (
                    vec!["INCRBY".into(), (16 + i).to_string(), (i + 1).to_string()],
                    Reply::Integer(i as i64 + 1),
                ),
                2 => (
                    vec!["SET".into(), (16 + i).to_string(), "5".into()],
                    Reply::Simple("OK".into()),
                ),
                _ => (vec!["PING".into()], Reply::Simple("PONG".into())),
            };
            burst.push(cmd);
            want.push(reply);
            if i == 30 {
                for cmd in [
                    vec!["MULTI"],
                    vec!["GET", "15"],
                    vec!["INCRBY", "100", "3"],
                    vec!["EXEC"],
                ] {
                    burst.push(cmd.into_iter().map(String::from).collect());
                }
                want.push(Reply::Simple("OK".into()));
                want.push(Reply::Simple("QUEUED".into()));
                want.push(Reply::Simple("QUEUED".into()));
                want.push(Reply::Array(vec![
                    Reply::Bulk(b"1015".to_vec()),
                    Reply::Integer(3),
                ]));
            }
        }
        assert_eq!(burst.len(), 64 - 1);
        burst.push(vec!["PING".into()]);
        want.push(Reply::Simple("PONG".into()));

        fn run(c: &mut TcpStream, cmds: &[Vec<String>]) -> Vec<Reply> {
            let cmds: Vec<Vec<&str>> = cmds
                .iter()
                .map(|c| c.iter().map(String::as_str).collect())
                .collect();
            let cmds: Vec<&[&str]> = cmds.iter().map(Vec::as_slice).collect();
            session(c, &cmds, cmds.len())
        }
        let replies = run(&mut c, &seeded);
        assert!(replies.iter().all(|r| *r == Reply::Simple("OK".into())));
        assert_eq!(run(&mut c, &burst), want);

        for round in 1..=200i64 {
            let replies = session(&mut c, &[&["INCRBY", "101", "1"]], 1);
            assert_eq!(replies, [Reply::Integer(round)], "round trip {round}");
        }

        stop.store(true, Ordering::SeqCst);
        let report = server.join().unwrap().expect("serve failed");
        assert_eq!(
            report.connections, 1,
            "the stop wake-up is not a connection"
        );
        assert_eq!(report.replies, 16 + 64 + 200);
        assert!(report.reply_writes >= 202 && report.reply_writes <= report.replies);
        // 16 SETs, 45 + 1 transactions in the burst, 200 round trips; the
        // round trips go over one at a time, the bursts several per call.
        assert_eq!(report.submits, 16 + 46 + 200);
        assert!(report.submit_calls >= 202 && report.submit_calls < report.submits);
        assert_eq!(report.result.stats.failed, 0);
    }

    /// The default intake has room for one full pipeline per worker: two
    /// clients that each write a whole pipeline before either reads a
    /// reply — the backlog two connections can build up behind any stall —
    /// are both served, nothing shed.
    #[test]
    fn two_full_pipelines_at_once_are_never_shed_by_the_default_intake() {
        let depth = ServiceConfig::default().engine.channel_depth;
        assert!(depth >= conn::PIPELINE_DEPTH, "{depth} jobs per worker");

        let (addr, stop, server) = start_server(64);
        let pipeline: Vec<Vec<String>> = (0..conn::PIPELINE_DEPTH)
            .map(|i| vec!["INCRBY".into(), (i % 64).to_string(), "1".into()])
            .collect();
        let mut wire = Vec::new();
        for cmd in &pipeline {
            let args: Vec<&[u8]> = cmd.iter().map(|s| s.as_bytes()).collect();
            wire.extend(crate::resp::encode_command(&args));
        }
        let mut clients = [connect(addr), connect(addr)];
        for c in &mut clients {
            c.write_all(&wire).unwrap();
        }
        for c in &mut clients {
            let replies = session(c, &[], conn::PIPELINE_DEPTH);
            for (i, reply) in replies.iter().enumerate() {
                assert!(matches!(reply, Reply::Integer(_)), "reply {i} is {reply:?}");
            }
        }
        stop.store(true, Ordering::SeqCst);
        let report = server.join().unwrap().expect("serve failed");
        assert_eq!(report.submits, 2 * conn::PIPELINE_DEPTH as u64);
        assert_eq!(report.result.stats.commits(), report.submits);
        assert_eq!(report.result.stats.failed, 0);
    }

    /// One write of four pipelines' worth of commands against an engine
    /// whose intake holds two jobs. A single socket read brings in more
    /// commands than one pipeline holds, so the connection runs into the
    /// pipeline bound with transactions still in its hand — which it must
    /// submit before it waits for the head, because the head may be one of
    /// exactly those (a connection that waits first hangs here, and the
    /// client's read times out). Most transactions are shed, each `-BUSY`
    /// in its own position: every reply must match the command at its
    /// index.
    #[test]
    fn a_burst_deeper_than_the_ring_completes_in_order_on_a_tiny_engine() {
        let (addr, stop, server) = start_server_with(64, 1);
        let mut c = connect(addr);
        let mut cmds: Vec<Vec<String>> = Vec::new();
        while cmds.len() < 4 * conn::PIPELINE_DEPTH {
            let i = cmds.len() as u64;
            let key = (i % 64).to_string();
            match i % 8 {
                0 | 4 => cmds.push(vec!["PING".into()]),
                3 => {
                    for cmd in [vec!["MULTI"], vec!["GET", &key], vec!["INCRBY", &key, "1"]] {
                        cmds.push(cmd.into_iter().map(String::from).collect());
                    }
                    cmds.push(vec!["EXEC".into()]);
                }
                _ => cmds.push(vec!["GET".into(), key]),
            }
        }
        let borrowed: Vec<Vec<&str>> = cmds
            .iter()
            .map(|c| c.iter().map(String::as_str).collect())
            .collect();
        let borrowed: Vec<&[&str]> = borrowed.iter().map(Vec::as_slice).collect();
        let replies = session(&mut c, &borrowed, cmds.len());

        let busy = |r: &Reply| matches!(r, Reply::Error(e) if e.starts_with("BUSY"));
        let mut in_multi = false;
        let (mut committed, mut shed) = (0u64, 0u64);
        for (i, (cmd, reply)) in cmds.iter().zip(&replies).enumerate() {
            let fits = match cmd[0].as_str() {
                "PING" => *reply == Reply::Simple("PONG".into()),
                "MULTI" => {
                    in_multi = true;
                    *reply == Reply::Simple("OK".into())
                }
                _ if in_multi && cmd[0] != "EXEC" => *reply == Reply::Simple("QUEUED".into()),
                tx => {
                    in_multi = false;
                    shed += u64::from(busy(reply));
                    committed += u64::from(!busy(reply));
                    busy(reply)
                        || match tx {
                            "EXEC" => matches!(reply, Reply::Array(ops) if ops.len() == 2),
                            _ => matches!(reply, Reply::Bulk(_)),
                        }
                }
            };
            assert!(fits, "reply {i} to {cmd:?} is {reply:?}");
        }
        assert!(
            committed > 0 && shed > 0,
            "{committed} committed, {shed} shed"
        );

        stop.store(true, Ordering::SeqCst);
        let report = server.join().unwrap().expect("serve failed");
        assert_eq!(report.replies as usize, cmds.len());
        assert_eq!(report.submits, committed);
        assert_eq!(report.result.stats.commits(), committed);
        assert_eq!(report.result.stats.failed, 0);
    }

    /// An error reply is one line, whatever the client sent: a command
    /// name with a line break in it is echoed with spaces in its place, so
    /// that request gets exactly one reply and the `PONG` after it is the
    /// second. (Echoed as sent, `X\r\n+OK` would answer `-ERR unknown
    /// command 'X` and `+OK'`, and every later reply would go to the wrong
    /// request.) An argv longer than the reader's stack array gets the
    /// arity error all the same.
    #[test]
    fn an_error_reply_cannot_inject_replies() {
        let (addr, stop, server) = start_server(8);
        let mut c = connect(addr);
        let replies = session(
            &mut c,
            &[
                &["X\r\n+OK"],
                &["PING"],
                &["set", "1", "2", "3", "4", "5"],
                &["PING"],
            ],
            4,
        );
        assert_eq!(
            replies,
            [
                Reply::Error("ERR unknown command 'X  +OK'".into()),
                Reply::Simple("PONG".into()),
                Reply::Error("ERR wrong number of arguments for 'set'".into()),
                Reply::Simple("PONG".into()),
            ]
        );
        stop.store(true, Ordering::SeqCst);
        let mut rest = Vec::new();
        let _ = c.read_to_end(&mut rest);
        assert!(rest.is_empty(), "bytes past the last reply: {rest:?}");
        let report = server.join().unwrap().expect("serve failed");
        assert_eq!(report.replies, 4);
    }

    /// An `EXEC` block writing more distinct keys than a transaction's
    /// write-set holds is refused with one error reply — it never reaches
    /// the engine, whose ATR entry could not hold it — and the connection
    /// stays usable.
    #[test]
    fn an_exec_block_over_the_write_set_capacity_is_refused() {
        let max_ws = ServiceConfig::default().engine.max_ws;
        let (addr, stop, server) = start_server(64);
        let mut c = connect(addr);
        let keys: Vec<String> = (0..=max_ws).map(|k| k.to_string()).collect();
        let mut cmds: Vec<Vec<&str>> = vec![vec!["MULTI"]];
        cmds.extend(keys.iter().map(|k| vec!["SET", k.as_str(), "1"]));
        cmds.extend([vec!["EXEC"], vec!["PING"]]);
        let cmds: Vec<&[&str]> = cmds.iter().map(Vec::as_slice).collect();
        let replies = session(&mut c, &cmds, cmds.len());
        let n = replies.len();
        assert_eq!(replies[0], Reply::Simple("OK".into()));
        assert!(replies[1..n - 2]
            .iter()
            .all(|r| *r == Reply::Simple("QUEUED".into())));
        assert_eq!(
            replies[n - 2],
            Reply::Error(format!(
                "EXECABORT Transaction writes more than {max_ws} distinct keys."
            ))
        );
        assert_eq!(replies[n - 1], Reply::Simple("PONG".into()));
        stop.store(true, Ordering::SeqCst);
        let mut rest = Vec::new();
        let _ = c.read_to_end(&mut rest);
        assert!(rest.is_empty(), "bytes past the last reply: {rest:?}");
        let report = server.join().unwrap().expect("serve failed");
        assert_eq!(report.replies, n as u64);
        assert_eq!(report.result.stats.update_commits, 0, "nothing was written");
    }

    /// A client that sends everything and then shuts its sending half
    /// still gets every reply, in order, and then EOF: the connection
    /// answers what it owes before it reads again, so the EOF it reads
    /// comes after the last reply went out.
    #[test]
    fn a_half_closed_client_gets_every_reply_then_eof() {
        let (addr, stop, server) = start_server(32);
        let mut c = connect(addr);
        let mut cmds: Vec<Vec<String>> = Vec::new();
        let mut want: Vec<Reply> = Vec::new();
        for i in 0..64u64 {
            let key = (i % 32).to_string();
            let (cmd, reply) = match i % 4 {
                0 => (vec!["PING".into()], Reply::Simple("PONG".into())),
                1 => (
                    vec!["SET".into(), key, "7".into()],
                    Reply::Simple("OK".into()),
                ),
                2 => (
                    vec!["BOGUS".into()],
                    Reply::Error("ERR unknown command 'BOGUS'".into()),
                ),
                _ => (
                    vec!["INCRBY".into(), (32 + i).to_string(), "1".into()],
                    Reply::Error(format!("ERR key {} out of range (keys 0..32)", 32 + i)),
                ),
            };
            cmds.push(cmd);
            want.push(reply);
        }
        let mut wire = Vec::new();
        for cmd in &cmds {
            let args: Vec<&[u8]> = cmd.iter().map(|s| s.as_bytes()).collect();
            wire.extend(crate::resp::encode_command(&args));
        }
        c.write_all(&wire).unwrap();
        c.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        let mut replies = Vec::new();
        let mut rest = &got[..];
        while !rest.is_empty() {
            match parse_reply(rest) {
                ReplyOutcome::Reply(r, used) => {
                    replies.push(r);
                    rest = &rest[used..];
                }
                other => panic!(
                    "bad reply stream after {} replies: {other:?}",
                    replies.len()
                ),
            }
        }
        assert_eq!(replies, want);
        stop.store(true, Ordering::SeqCst);
        let report = server.join().unwrap().expect("serve failed");
        assert_eq!(report.replies, 64);
        assert_eq!(report.submits, 16);
    }

    #[test]
    fn end_to_end_pipelined_session_with_multi_exec() {
        let (addr, _stop, server) = start_server(16);
        let mut c1 = TcpStream::connect(addr).unwrap();

        // Bare pipelined commands are independent concurrent transactions:
        // ordering between them is only guaranteed once the earlier reply
        // has arrived, so order-dependent steps wait between batches.
        let replies = session(&mut c1, &[&["PING"], &["SET", "3", "41"]], 2);
        assert_eq!(replies[0], Reply::Simple("PONG".into()));
        assert_eq!(replies[1], Reply::Simple("OK".into()));
        let replies = session(&mut c1, &[&["INCRBY", "3", "1"]], 1);
        assert_eq!(replies[0], Reply::Integer(42));
        let replies = session(&mut c1, &[&["GET", "3"]], 1);
        assert_eq!(replies[0], Reply::Bulk(b"42".to_vec()));

        // A MULTI block is one atomic transaction, pipelined in a single
        // write, with read-own-write inside the block.
        let replies = session(
            &mut c1,
            &[
                &["MULTI"],
                &["GET", "3"],
                &["INCRBY", "3", "-2"],
                &["SET", "4", "9"],
                &["EXEC"],
            ],
            5,
        );
        assert_eq!(replies[0], Reply::Simple("OK".into()));
        assert_eq!(replies[1], Reply::Simple("QUEUED".into()));
        assert_eq!(replies[2], Reply::Simple("QUEUED".into()));
        assert_eq!(replies[3], Reply::Simple("QUEUED".into()));
        assert_eq!(
            replies[4],
            Reply::Array(vec![
                Reply::Bulk(b"42".to_vec()),
                Reply::Integer(40),
                Reply::Simple("OK".into()),
            ])
        );

        // Misuse surfaces as immediate typed errors, never a hang.
        let replies = session(
            &mut c1,
            &[
                &["GET", "999"],
                &["EXEC"],
                &["MULTI"],
                &["BOGUS"],
                &["GET", "1"],
                &["EXEC"],
            ],
            6,
        );
        assert!(matches!(&replies[0], Reply::Error(e) if e.contains("out of range")));
        assert!(matches!(&replies[1], Reply::Error(e) if e.contains("EXEC without MULTI")));
        assert_eq!(replies[2], Reply::Simple("OK".into())); // MULTI
        assert!(matches!(&replies[3], Reply::Error(e) if e.contains("unknown command")));
        assert_eq!(replies[4], Reply::Simple("QUEUED".into()));
        assert!(matches!(&replies[5], Reply::Error(e) if e.starts_with("EXECABORT")));

        // A second connection sees the committed state, then stops the
        // service.
        let mut c2 = TcpStream::connect(addr).unwrap();
        let replies = session(&mut c2, &[&["GET", "4"], &["GET", "3"], &["SHUTDOWN"]], 3);
        assert_eq!(replies[0], Reply::Bulk(b"9".to_vec()));
        assert_eq!(replies[1], Reply::Bulk(b"40".to_vec()));
        assert_eq!(replies[2], Reply::Simple("OK".into()));

        let report = server.join().unwrap().expect("serve failed");
        assert_eq!(report.connections, 2);
        assert_eq!(report.replies, 2 + 1 + 1 + 5 + 6 + 3);
        // 3 update txs (SET, INCRBY, the EXEC block) + 3 read-only GETs.
        assert_eq!(report.result.stats.update_commits, 3);
        assert_eq!(report.result.stats.rot_commits, 3);
        assert_eq!(report.result.stats.failed, 0);
        assert_eq!(report.result.final_state.get(&3), Some(&40));
        assert_eq!(report.result.final_state.get(&4), Some(&9));
    }
}

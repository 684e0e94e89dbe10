//! Heap allocations per request, counted, for each request class the
//! benchmark's mix sends: a request must allocate once — the boxed
//! transaction body the engine's `Submission` takes — and an `EXEC` block
//! twice more, for its op and kind vectors (DESIGN.md §14, "A request
//! allocates once").
//!
//! The `#[global_allocator]` below — a counting wrapper over `System` — is
//! the one piece of `unsafe` this package has, and it lives in this test
//! crate only: the library crates stay `#![forbid(unsafe_code)]`. It counts
//! every thread of the process, so this file holds a single test, and the
//! client's own share is taken out: the measured loop writes a pre-encoded
//! window and reads the replies into a fixed buffer, and what
//! `parse_reply` allocates checking them is measured offline on the same
//! reply bytes and subtracted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csmv_native::NativeConfig;
use csmv_service::resp::{self, parse_reply, Reply, ReplyOutcome};
use csmv_service::{serve, ServiceConfig};

/// Calls to `alloc`/`realloc` since the process started (a statistic:
/// `Relaxed`).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests per class sent while warming up, and then measured.
const WARM_UP: usize = 2_000;
const MEASURED: usize = 20_000;

/// Allocations a bare `GET` may cost, over the whole process. Measured:
/// 15.30 with a channel, a result sink and a kinds vector per request;
/// 10.25 with the per-connection reply ring; 9.00 once the engine's
/// workers reuse their execution and batch buffers; 1.00 since frames are
/// parsed in place, a bare op rides inline in its body and replies are
/// encoded into the writer's buffer (EXPERIMENTS.md, "Allocation-free
/// request"). The one left is the `Box<dyn TxLogic>`. Any per-request
/// allocation brought back, anywhere in the process, fails here.
const MAX_ALLOCS_PER_GET: f64 = 1.5;

/// Allocations a request of the mix may cost: 1 each for the 90 % bare
/// commands, 3 for the 10 % `EXEC` blocks (the box, the op vector and the
/// kind vector) — 1.2 by construction, 11.35 before.
const MAX_ALLOCS_PER_MIXED: f64 = 1.6;

/// One request class: a window of requests written at once, as a
/// `service-sat` connection keeps them in flight.
struct Class {
    name: &'static str,
    /// The window, encoded.
    wire: Vec<u8>,
    /// Requests in the window (a `MULTI…EXEC` block is one).
    requests: usize,
    /// Replies the window gets back (one per frame).
    replies: usize,
}

/// A window of `requests`, each a list of frames, each frame its words.
fn class(name: &'static str, requests: &[Vec<Vec<String>>]) -> Class {
    let mut wire = Vec::new();
    let mut replies = 0;
    for frame in requests.iter().flatten() {
        wire.extend(resp::encode_command(frame));
        replies += 1;
    }
    Class {
        name,
        wire,
        requests: requests.len(),
        replies,
    }
}

fn words(frame: &[&str]) -> Vec<String> {
    frame.iter().map(|w| w.to_string()).collect()
}

fn get(key: usize) -> Vec<Vec<String>> {
    vec![words(&["GET", &key.to_string()])]
}

fn set(key: usize) -> Vec<Vec<String>> {
    vec![words(&["SET", &key.to_string(), "7"])]
}

fn incr(key: usize) -> Vec<Vec<String>> {
    vec![words(&["INCRBY", &key.to_string(), "1"])]
}

fn block(key: usize) -> Vec<Vec<String>> {
    let (a, b, c) = (
        key.to_string(),
        (key + 1).to_string(),
        (key + 2).to_string(),
    );
    vec![
        words(&["MULTI"]),
        words(&["GET", &a]),
        words(&["INCRBY", &b, "-1"]),
        words(&["SET", &c, "9"]),
        words(&["EXEC"]),
    ]
}

/// The classes: each bare command and a block alone, then the benchmark's
/// 50/25/15/10 mix of the four, interleaved.
fn classes() -> Vec<Class> {
    let many = |n: usize, one: fn(usize) -> Vec<Vec<String>>| -> Vec<_> {
        (0..n).map(|i| one(i % 13)).collect()
    };
    let mix: Vec<_> = (0..40)
        .map(|i| match i % 20 {
            0 | 10 => block(i % 13),
            3 | 9 | 16 => incr(i % 16),
            1 | 5 | 12 | 14 | 18 => set(i % 16),
            _ => get(i % 16),
        })
        .collect();
    vec![
        class("GET", &many(32, get)),
        class("SET", &many(32, set)),
        class("INCRBY", &many(32, incr)),
        class("MULTI GET INCRBY SET EXEC", &many(8, block)),
        class("mix 50/25/15/10", &mix),
    ]
}

/// Send the window `rounds` times, reading each window's replies into
/// `buf` and checking them; `buf[..n]` ends up holding the last window's
/// replies, and `n` is returned.
fn pump(stream: &mut TcpStream, c: &Class, buf: &mut [u8], rounds: usize) -> usize {
    let mut filled = 0;
    for _ in 0..rounds {
        stream.write_all(&c.wire).expect("send a window");
        filled = 0;
        let mut parsed = 0;
        let mut replies = 0;
        while replies < c.replies {
            match parse_reply(&buf[parsed..filled]) {
                ReplyOutcome::Reply(reply, used) => {
                    assert!(!matches!(reply, Reply::Error(_)), "{}: {reply:?}", c.name);
                    parsed += used;
                    replies += 1;
                }
                ReplyOutcome::Incomplete => {
                    let n = stream.read(&mut buf[filled..]).expect("read replies");
                    assert!(n > 0, "the server hung up");
                    filled += n;
                }
                ReplyOutcome::Error(e) => panic!("{}: bad reply stream: {e}", c.name),
            }
        }
        assert_eq!(parsed, filled, "{}: more replies than requests", c.name);
    }
    filled
}

/// What `parse_reply` allocates reading `replies` once.
fn client_allocs(replies: &[u8]) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut at = 0;
    while let ReplyOutcome::Reply(reply, used) = parse_reply(&replies[at..]) {
        drop(reply);
        at += used;
    }
    assert_eq!(at, replies.len());
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_request_allocates_once() {
    let cfg = ServiceConfig {
        engine: NativeConfig {
            client_threads: 2,
            ..ServiceConfig::default().engine
        },
        keys: 16,
        check_history: false,
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
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let classes = classes();
    let mut buf = vec![0u8; 64 * 1024];
    let mut per_request = Vec::new();
    let mut frames = 0;
    for c in &classes {
        pump(&mut stream, c, &mut buf, WARM_UP / c.requests);
        let rounds = MEASURED / c.requests;
        let before = ALLOCS.load(Ordering::Relaxed);
        let last = pump(&mut stream, c, &mut buf, rounds);
        let process = ALLOCS.load(Ordering::Relaxed) - before;
        // Every window's replies have the shapes of the last one's.
        let client = rounds as u64 * client_allocs(&buf[..last]);
        let served = (rounds * c.requests) as f64;
        let per = process.saturating_sub(client) as f64 / served;
        println!(
            "allocations per request, {}: {per:.2} ({process} in the process, \
             {client} of them the client's)",
            c.name
        );
        per_request.push(per);
        frames += (WARM_UP / c.requests + rounds) * c.replies;
    }

    stop.store(true, Ordering::SeqCst);
    let report = server.join().unwrap().expect("serve failed");
    assert_eq!(report.result.stats.failed, 0);
    assert_eq!(report.replies as usize, frames);

    let (get, mixed) = (per_request[0], per_request[4]);
    assert!(
        get <= MAX_ALLOCS_PER_GET,
        "{get:.2} allocations per bare GET, bound {MAX_ALLOCS_PER_GET}"
    );
    assert!(
        mixed <= MAX_ALLOCS_PER_MIXED,
        "{mixed:.2} allocations per request of the mix, bound {MAX_ALLOCS_PER_MIXED}"
    );
}

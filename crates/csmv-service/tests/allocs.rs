//! Heap allocations per request, counted: a bare `GET` crossing the
//! service↔engine boundary must not pay for a channel, a result sink or a
//! kinds vector of its own (ROADMAP item 1's acceptance).
//!
//! The `#[global_allocator]` below — a counting wrapper over `System` — is
//! the one piece of `unsafe` this package has, and it lives in this test
//! crate only: the library crates stay `#![forbid(unsafe_code)]`. It counts
//! every thread of the process, so this file holds a single test and the
//! measured client loop itself allocates nothing (a pre-encoded request
//! buffer, a fixed reply buffer).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use csmv_native::NativeConfig;
use csmv_service::{resp, serve, ServiceConfig};

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

/// Requests in flight at once: what a `service-sat` connection keeps, and
/// well inside the engine's 128-job intake, so nothing is shed.
const WINDOW: usize = 32;
const WARM_UP: usize = 2_000;
const MEASURED: usize = 20_000;

/// Allocations a bare `GET` may cost, over the whole process. Measured:
/// 15.30 with a channel, a result sink and a kinds vector per request;
/// 10.25 with the per-connection reply ring; 9.00 once the engine's
/// workers reuse their execution and batch buffers (EXPERIMENTS.md,
/// "Allocation-free commit"). What is left is the service tier's own: the
/// parsed argv (3) and its upper-cased command name (1), the one-op `ops`
/// vector and the boxed body (2), and the reply's encoding (3: the
/// value's `to_string`, the header's `format!` and the append that
/// outgrows it). The bound sits midway between the last two readings, so
/// bringing back a per-request vector in the engine fails here.
const MAX_ALLOCS_PER_GET: f64 = 9.6;

/// Send `rounds` windows of `GET 0` and check every reply.
fn pump(stream: &mut TcpStream, request: &[u8], expected: &[u8], reply: &mut [u8], rounds: usize) {
    for _ in 0..rounds {
        stream.write_all(request).expect("send a window");
        stream.read_exact(reply).expect("read a window's replies");
        assert!(reply == expected, "a GET of an untouched key answers 0");
    }
}

#[test]
fn a_bare_get_costs_a_bounded_number_of_allocations() {
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

    let request = resp::encode_command(&[b"GET".as_slice(), b"0"]).repeat(WINDOW);
    let expected = resp::bulk(b"0").repeat(WINDOW);
    let mut reply = vec![0u8; expected.len()];

    pump(
        &mut stream,
        &request,
        &expected,
        &mut reply,
        WARM_UP / WINDOW,
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    pump(
        &mut stream,
        &request,
        &expected,
        &mut reply,
        MEASURED / WINDOW,
    );
    let per_get = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / MEASURED as f64;

    stop.store(true, Ordering::SeqCst);
    let report = server.join().unwrap().expect("serve failed");
    assert_eq!(report.result.stats.failed, 0);
    assert_eq!(
        report.replies as usize,
        WARM_UP / WINDOW * WINDOW + MEASURED
    );

    println!("allocations per bare GET: {per_get:.2}");
    assert!(
        per_get <= MAX_ALLOCS_PER_GET,
        "{per_get:.2} allocations per bare GET, bound {MAX_ALLOCS_PER_GET}"
    );
}

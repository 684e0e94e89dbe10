//! A connection costs one OS thread, and gives it back when it closes.
//!
//! The count is the process's, read from `/proc/self/task`, so this file
//! holds a single test: another test running beside it would move the
//! count.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use csmv_native::NativeConfig;
use csmv_service::{serve, ServiceConfig};

/// Connections opened on top of the baseline.
const MORE: usize = 4;

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Connect and see one `PING` answered, so the connection is being
/// served when this returns.
fn ping(addr: std::net::SocketAddr) -> TcpStream {
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(b"*1\r\n$4\r\nPING\r\n").unwrap();
    let mut reply = [0u8; 7];
    c.read_exact(&mut reply).unwrap();
    assert_eq!(&reply, b"+PONG\r\n");
    c
}

#[test]
fn each_connection_runs_one_thread_and_returns_it_on_close() {
    let cfg = ServiceConfig {
        engine: NativeConfig {
            client_threads: 2,
            ..ServiceConfig::default().engine
        },
        keys: 8,
        check_history: false,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (addr_tx, addr_rx) = mpsc::channel();
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve(&cfg, "127.0.0.1:0", stop, |a| {
                let _ = addr_tx.send(a);
            })
        })
    };
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();

    // An answered PING means the engine and the accept loop are up: from
    // here on only connections move the count.
    let first = ping(addr);
    let baseline = threads();
    let more: Vec<TcpStream> = (0..MORE).map(|_| ping(addr)).collect();
    assert_eq!(
        threads() - baseline,
        MORE,
        "threads added by {MORE} more connections"
    );

    drop(more);
    let give_up = Instant::now() + Duration::from_secs(2);
    while threads() != baseline {
        assert!(
            Instant::now() < give_up,
            "{} threads 2 s after {MORE} connections closed, {baseline} before",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(first);
    stop.store(true, Ordering::SeqCst);
    let report = server.join().unwrap().expect("serve failed");
    assert_eq!(report.connections, 1 + MORE as u64);
    assert_eq!(report.replies, 1 + MORE as u64);
}

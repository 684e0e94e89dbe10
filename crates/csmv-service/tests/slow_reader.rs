//! A client that pipelines requests and never reads a reply must not keep
//! the service from stopping. Once its socket buffers are full the
//! connection is blocked writing replies nobody drains — and reads no
//! requests meanwhile, so the client's own write stalls too. The stop flag
//! must still end the connection, and with it `serve`, within one socket
//! slice.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use csmv_native::NativeConfig;
use csmv_service::{resp, serve, ServiceConfig};

/// `GET`s per client write.
const CHUNK: u64 = 4096;
/// `GET`s the client sets out to write: more than the socket buffers of
/// both sides hold of them and their replies, so the write stalls first.
const TOTAL: u64 = 2_000_000;
/// How long the client's write must make no progress to count as stalled.
const STALL: Duration = Duration::from_secs(2);
/// How long `serve` may take to return once the stop flag is set.
const STOP_BOUND: Duration = Duration::from_secs(2);

#[test]
fn a_client_that_stops_reading_cannot_hang_serve() {
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
    let (ended_tx, ended) = mpsc::channel();
    {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let served = serve(&cfg, "127.0.0.1:0", stop, |a| {
                let _ = addr_tx.send(a);
            });
            let _ = ended_tx.send(served.is_ok());
        });
    }
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();

    // The client writes from a helper thread, so the test can watch it
    // stall; the write fails once the stopped service closes the socket.
    let client = TcpStream::connect(addr).unwrap();
    let mut sender = client.try_clone().unwrap();
    let sent = Arc::new(AtomicU64::new(0));
    let chunk: Vec<u8> = (0..CHUNK)
        .flat_map(|i| resp::encode_command(&[b"GET", (i % 8).to_string().as_bytes()]))
        .collect();
    {
        let sent = sent.clone();
        std::thread::spawn(move || {
            for _ in 0..TOTAL / CHUNK {
                if sender.write_all(&chunk).is_err() {
                    return;
                }
                sent.fetch_add(CHUNK, Ordering::Relaxed);
            }
        });
    }

    let mut progress = (0, Instant::now());
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = sent.load(Ordering::Relaxed);
        assert!(
            now < TOTAL / CHUNK * CHUNK,
            "the client's write never stalled"
        );
        if now != progress.0 {
            progress = (now, Instant::now());
        } else if progress.1.elapsed() >= STALL {
            break;
        }
    }
    let stalled_at = sent.load(Ordering::Relaxed);

    stop.store(true, Ordering::SeqCst);
    let stopping = Instant::now();
    let served = ended.recv_timeout(STOP_BOUND);
    assert_eq!(
        served,
        Ok(true),
        "serve had not returned {STOP_BOUND:?} after stop, its connection blocked writing"
    );
    eprintln!(
        "slow reader: {stalled_at} GETs written before the stall; serve returned {:?} after stop",
        stopping.elapsed()
    );
    drop(client);
}

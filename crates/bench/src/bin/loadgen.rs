//! `loadgen` — an open-loop load generator for `csmv-service`.
//!
//! Closed-loop clients (send, wait, send) hide saturation: when the
//! server slows down, the offered load politely drops with it and the
//! measured latency stays flat — the coordinated-omission trap. This
//! generator is *open-loop*: each connection precomputes a seeded,
//! deterministic exponential inter-arrival schedule for a fixed target
//! rate, then fires every request at its scheduled instant whether or
//! not earlier replies have arrived. Latency is measured from the
//! *scheduled* arrival to the terminal reply, so queueing delay the
//! server causes is charged to the server.
//!
//! Every request is terminally accounted exactly once — `ok` (committed
//! reply), `retry` (`-RETRY`, terminal abort with taxonomy key), `busy`
//! (`-BUSY` backpressure shed) or `err` (anything else) — and the run
//! exits nonzero if accounting doesn't balance or any `err` occurred.
//! Results are emitted as a schema-v3 [`bench::report::BenchReport`]
//! (`backend` = "service", one row per arrival rate) that `bench-gate`
//! gates against `results/baselines/service/`.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7379 --rates 200,400 --duration-ms 2000 \
//!         --conns 4 --seed 1 --json target/bench-json/loadgen.json
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bench::report::BenchReport;
use bench::{ClassLatency, Row, ServiceStats};
use csmv_service::resp::{self, parse_reply, Reply, ReplyOutcome};
use stm_core::{Histogram, MetricsReport, TimeBreakdown};

const USAGE: &str = "\
loadgen — open-loop RESP load generator for csmv-service

USAGE:
  loadgen --addr HOST:PORT [--rates R1,R2,...] [--duration-ms N]
          [--conns N] [--keys N] [--seed N] [--json PATH] [--shutdown]

  --rates        arrival rates in requests/second (default 200,400)
  --duration-ms  schedule length per rate (default 2000)
  --conns        connections; the rate is split evenly (default 1)
  --keys         key range 0..N commands draw from (default 1024)
  --seed         schedule/workload RNG seed (default 1)
  --json         write the schema-v3 bench report here
  --shutdown     send SHUTDOWN on a fresh connection when done";

// ---------------------------------------------------------------------------
// Deterministic schedule
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, seedable, good enough for schedules and key picks.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` with 53 bits of entropy.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Request classes, in the fixed order the report emits them.
const CLASSES: [&str; 4] = ["get", "set", "incr", "multi"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Get,
    Set,
    Incr,
    Multi,
}

impl Class {
    fn index(self) -> usize {
        match self {
            Class::Get => 0,
            Class::Set => 1,
            Class::Incr => 2,
            Class::Multi => 3,
        }
    }
}

/// One scheduled request: when to fire, what to send, how many replies
/// it owes.
struct Scheduled {
    offset_us: u64,
    class: Class,
    wire: Vec<u8>,
    replies: usize,
}

/// Precompute one connection's whole schedule. The request count, op
/// mix and keys are a pure function of `(seed, rate, conn)` — two runs
/// at the same arguments offer byte-identical load.
fn build_schedule(
    seed: u64,
    rate: f64,
    conn: usize,
    conn_rate: f64,
    duration: Duration,
) -> Vec<Scheduled> {
    let mut rng = seed ^ (rate.to_bits().rotate_left(17)) ^ ((conn as u64) << 32) ^ 0x10AD_6E4E;
    let horizon_us = duration.as_micros() as u64;
    let mut at_us: f64 = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential inter-arrival gap for a Poisson process at
        // `conn_rate`; 1-u keeps ln() off zero.
        let gap_s = -(1.0 - unit(&mut rng)).ln() / conn_rate;
        at_us += gap_s * 1e6;
        if at_us as u64 >= horizon_us {
            return out;
        }
        out.push(make_request(&mut rng, at_us as u64));
    }
}

fn make_request(rng: &mut u64, offset_us: u64) -> Scheduled {
    let keys = KEY_RANGE.load(Ordering::Relaxed);
    let key = |rng: &mut u64| (splitmix64(rng) % keys).to_string();
    let val = |rng: &mut u64| (splitmix64(rng) % 1000).to_string();
    match splitmix64(rng) % 100 {
        // 50% GET, 25% SET, 15% INCRBY, 10% MULTI of three ops.
        0..=49 => Scheduled {
            offset_us,
            class: Class::Get,
            wire: resp::encode_command(&["GET", &key(rng)]),
            replies: 1,
        },
        50..=74 => Scheduled {
            offset_us,
            class: Class::Set,
            wire: resp::encode_command(&["SET", &key(rng), &val(rng)]),
            replies: 1,
        },
        75..=89 => Scheduled {
            offset_us,
            class: Class::Incr,
            wire: resp::encode_command(&["INCRBY", &key(rng), "1"]),
            replies: 1,
        },
        _ => {
            let mut wire = resp::encode_command(&["MULTI"]);
            wire.extend(resp::encode_command(&["GET", &key(rng)]));
            wire.extend(resp::encode_command(&["INCRBY", &key(rng), "-1"]));
            wire.extend(resp::encode_command(&["SET", &key(rng), &val(rng)]));
            wire.extend(resp::encode_command(&["EXEC"]));
            Scheduled {
                offset_us,
                class: Class::Multi,
                // +OK, QUEUED x3, then the EXEC reply that carries the
                // transaction's outcome.
                replies: 5,
                wire,
            }
        }
    }
}

/// Key range shared with the schedule builder (set once at startup).
static KEY_RANGE: AtomicU64 = AtomicU64::new(1024);

// ---------------------------------------------------------------------------
// One connection's open-loop session
// ---------------------------------------------------------------------------

/// Terminal accounting and per-class latency for one connection.
#[derive(Default)]
struct ConnOutcome {
    ok: u64,
    retry: u64,
    busy: u64,
    err: u64,
    unaccounted: u64,
    class_hist: Vec<Histogram>,
}

impl ConnOutcome {
    fn new() -> Self {
        Self {
            class_hist: vec![Histogram::default(); CLASSES.len()],
            ..Default::default()
        }
    }

    fn merge(&mut self, other: &ConnOutcome) {
        self.ok += other.ok;
        self.retry += other.retry;
        self.busy += other.busy;
        self.err += other.err;
        self.unaccounted += other.unaccounted;
        for (a, b) in self.class_hist.iter_mut().zip(&other.class_hist) {
            a.merge(b);
        }
    }

    fn terminal(&self) -> u64 {
        self.ok + self.retry + self.busy + self.err
    }
}

/// Classify a request's terminal reply.
fn classify(reply: &Reply) -> &'static str {
    match reply {
        Reply::Error(e) if e.starts_with("RETRY") => "retry",
        Reply::Error(e) if e.starts_with("BUSY") => "busy",
        Reply::Error(_) => "err",
        _ => "ok",
    }
}

/// Run one connection's schedule: a writer fires requests at their
/// scheduled instants, a reader matches replies back and records
/// latency from the *scheduled* arrival.
fn run_conn(
    addr: &str,
    schedule: Vec<Scheduled>,
    start: Instant,
    inflight: std::sync::Arc<AtomicU64>,
    inflight_max: &AtomicU64,
) -> std::io::Result<ConnOutcome> {
    let mut wstream = TcpStream::connect(addr)?;
    wstream.set_nodelay(true)?;
    let rstream = wstream.try_clone()?;
    let (meta_tx, meta_rx) = mpsc::channel::<(u64, Class, usize)>();

    let reader = std::thread::spawn({
        let mut stream = rstream;
        let inflight = inflight.clone();
        move || {
            let mut out = ConnOutcome::new();
            let mut buf: Vec<u8> = Vec::new();
            let mut chunk = [0u8; 16 * 1024];
            'requests: while let Ok((offset_us, class, replies)) = meta_rx.recv() {
                let mut last: Option<Reply> = None;
                for _ in 0..replies {
                    loop {
                        match parse_reply(&buf) {
                            ReplyOutcome::Reply(r, used) => {
                                buf.drain(..used);
                                last = Some(r);
                                break;
                            }
                            ReplyOutcome::Incomplete => {}
                            ReplyOutcome::Error(_) => {
                                out.unaccounted += 1;
                                continue 'requests;
                            }
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => {
                                out.unaccounted += 1;
                                continue 'requests;
                            }
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    }
                }
                let Some(last) = last else {
                    out.unaccounted += 1;
                    continue;
                };
                match classify(&last) {
                    "retry" => out.retry += 1,
                    "busy" => out.busy += 1,
                    "err" => out.err += 1,
                    _ => out.ok += 1,
                }
                let lat_us = (start.elapsed().as_micros() as u64).saturating_sub(offset_us);
                out.class_hist[class.index()].record(lat_us);
                inflight.fetch_sub(1, Ordering::Relaxed);
            }
            out
        }
    });

    for req in &schedule {
        let due = start + Duration::from_micros(req.offset_us);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let cur = inflight.fetch_add(1, Ordering::Relaxed) + 1;
        inflight_max.fetch_max(cur, Ordering::Relaxed);
        wstream.write_all(&req.wire)?;
        let _ = meta_tx.send((req.offset_us, req.class, req.replies));
    }
    drop(meta_tx);
    let out = reader.join().unwrap_or_else(|_| {
        let mut o = ConnOutcome::new();
        o.unaccounted = schedule.len() as u64;
        o
    });
    Ok(out)
}

// ---------------------------------------------------------------------------
// One rate's measurement → a schema-v3 row
// ---------------------------------------------------------------------------

struct RateResult {
    row: Row,
    scheduled: u64,
    unaccounted: u64,
    err: u64,
}

fn run_rate(
    addr: &str,
    rate: u64,
    duration: Duration,
    conns: usize,
    seed: u64,
) -> std::io::Result<RateResult> {
    let conn_rate = rate as f64 / conns as f64;
    let schedules: Vec<Vec<Scheduled>> = (0..conns)
        .map(|c| build_schedule(seed, rate as f64, c, conn_rate, duration))
        .collect();
    let scheduled: u64 = schedules.iter().map(|s| s.len() as u64).sum();
    let inflight = std::sync::Arc::new(AtomicU64::new(0));
    let inflight_max = AtomicU64::new(0);
    let start = Instant::now();
    let outcomes: Vec<std::io::Result<ConnOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .into_iter()
            .map(|schedule| {
                let inflight = inflight.clone();
                let inflight_max = &inflight_max;
                s.spawn(move || run_conn(addr, schedule, start, inflight, inflight_max))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut total = ConnOutcome::new();
    for o in outcomes {
        total.merge(&o?);
    }
    let mut all = Histogram::default();
    for h in &total.class_hist {
        all.merge(h);
    }
    let classes = CLASSES
        .iter()
        .zip(&total.class_hist)
        .map(|(name, h)| {
            (
                name.to_string(),
                ClassLatency {
                    count: h.count(),
                    p50_us: h.quantile(0.5) as f64,
                    p99_us: h.quantile(0.99) as f64,
                    p999_us: h.quantile(0.999) as f64,
                },
            )
        })
        .collect();
    let achieved_rate = total.terminal() as f64 / elapsed.as_secs_f64();
    let row = Row {
        system: "loadgen".into(),
        x: rate,
        throughput: achieved_rate,
        abort_pct: 0.0,
        total_ms_per_tx: 0.0,
        wasted_ms_per_tx: 0.0,
        client_bd: TimeBreakdown::default(),
        server_bd: TimeBreakdown::default(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        commits: total.ok,
        aborts: total.retry,
        failed: total.err + total.unaccounted,
        txn_per_sec: achieved_rate,
        latency_p50_us: all.quantile(0.5) as f64,
        latency_p99_us: all.quantile(0.99) as f64,
        latency_p999_us: all.quantile(0.999) as f64,
        service: Some(ServiceStats {
            arrival_rate: rate as f64,
            achieved_rate,
            ok: total.ok,
            retry: total.retry,
            busy: total.busy,
            err: total.err,
            inflight_max: inflight_max.load(Ordering::Relaxed),
            classes,
        }),
        analysis: None,
        wall_clock: false,
        metrics: MetricsReport::default(),
    };
    Ok(RateResult {
        row,
        scheduled,
        unaccounted: total.unaccounted,
        err: total.err,
    })
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

struct Args {
    addr: String,
    rates: Vec<u64>,
    duration: Duration,
    conns: usize,
    keys: u64,
    seed: u64,
    json: Option<std::path::PathBuf>,
    shutdown: bool,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _bin = argv.next();
    let mut args = Args {
        addr: String::new(),
        rates: vec![200, 400],
        duration: Duration::from_millis(2000),
        conns: 1,
        keys: 1024,
        seed: 1,
        json: None,
        shutdown: false,
    };
    let num = |flag: &str, v: Option<String>| -> Result<u64, String> {
        v.ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag}: not a number"))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => args.addr = argv.next().ok_or("--addr needs a value")?,
            "--rates" => {
                args.rates = argv
                    .next()
                    .ok_or("--rates needs a value")?
                    .split(',')
                    .map(|r| r.trim().parse().map_err(|_| format!("bad rate '{r}'")))
                    .collect::<Result<_, _>>()?;
                if args.rates.is_empty() {
                    return Err("--rates needs at least one rate".into());
                }
            }
            "--duration-ms" => {
                args.duration = Duration::from_millis(num("--duration-ms", argv.next())?)
            }
            "--conns" => args.conns = num("--conns", argv.next())?.max(1) as usize,
            "--keys" => args.keys = num("--keys", argv.next())?.max(1),
            "--seed" => args.seed = num("--seed", argv.next())?,
            "--json" => args.json = Some(argv.next().ok_or("--json needs a path")?.into()),
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if args.addr.is_empty() {
        return Err(format!("--addr is required\n\n{USAGE}"));
    }
    Ok(args)
}

/// Send `SHUTDOWN` on a fresh connection and wait for its `+OK`.
fn send_shutdown(addr: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&resp::encode_command(&["SHUTDOWN"]))?;
    let mut buf = [0u8; 64];
    let _ = stream.read(&mut buf)?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    KEY_RANGE.store(args.keys, Ordering::Relaxed);

    let mut rows = Vec::new();
    let mut bad = 0u64;
    for &rate in &args.rates {
        match run_rate(&args.addr, rate, args.duration, args.conns, args.seed) {
            Ok(res) => {
                let s = res
                    .row
                    .service
                    .as_ref()
                    .expect("loadgen rows carry service stats");
                println!(
                    "loadgen: rate={rate}/s scheduled={} ok={} retry={} busy={} err={} \
                     unaccounted={} achieved={:.1}/s p50={}us p99={}us p999={}us",
                    res.scheduled,
                    s.ok,
                    s.retry,
                    s.busy,
                    s.err,
                    res.unaccounted,
                    s.achieved_rate,
                    res.row.latency_p50_us,
                    res.row.latency_p99_us,
                    res.row.latency_p999_us,
                );
                bad += res.err + res.unaccounted;
                rows.push(res.row);
            }
            Err(e) => {
                eprintln!("loadgen: rate {rate}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut report = BenchReport::from_rows("loadgen", "svc", args.seed, &rows);
    report.backend = "service".to_string();
    report.threads = args.conns as u64;
    if let Some(path) = &args.json {
        if let Err(e) = report.write_file(path) {
            eprintln!("loadgen: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("loadgen: wrote {}", path.display());
    }
    if args.shutdown {
        if let Err(e) = send_shutdown(&args.addr) {
            eprintln!("loadgen: shutdown: {e}");
            return ExitCode::FAILURE;
        }
        println!("loadgen: sent SHUTDOWN");
    }
    if bad > 0 {
        eprintln!("loadgen: {bad} request(s) errored or went unaccounted");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! The repo benchmark: six duration-based workloads over the native,
//! service and sim hosts, end-to-end metrics from an untraced pass and
//! per-layer metrics from a traced pass, every layer measured from
//! outside. See `README.md` beside this package and `BENCHMARK.json` at
//! the repo root.

mod compare;
mod json;
mod micro;
mod native;
mod pin;
mod probe;
mod report;
mod service;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use report::Outcome;
use spec::WORKLOADS;
use trace::Tracer;

/// Windows per pass. Many short windows rather than few long ones: on a
/// shared two-core host slow spells last a few hundred milliseconds, and
/// the median over twenty windows steps over them.
const WINDOWS: usize = 20;

const USAGE: &str = "\
csmv-benchmark — the repo benchmark

USAGE:
  csmv-benchmark [--seed N] [--seconds S] [--quick] [--only WORKLOAD] [--out FILE]
      Run every workload untraced (end-to-end metrics), then traced
      (per-layer metrics), each pass in a child process; print every
      metric as `workload metric value unit` and write the result file
      (default benchmark/out/result.json).
  csmv-benchmark --workload WORKLOAD --seed N --seconds S --trace 0|1
      One pass of one workload in this process; the last line of output
      is the result object BENCHMARK.json's contract describes.
  csmv-benchmark compare A.json B.json
      Judge result file B against A with BENCHMARK.json's directions and
      bounds; exit nonzero if any metric got worse.

  --seed N      inputs are a pure function of N (default 1)
  --seconds S   measured seconds per pass (default: run_seconds of BENCHMARK.json)
  --quick       40 ms windows, every gate on: a smoke run in under 20 s
  --only W      run just workload W
WORKLOADS: native-update native-scan native-contend service-sat service-open sim-bank";

/// How one pass of one workload is sized.
pub struct Plan {
    pub seed: u64,
    /// Engine client threads, generator threads and connections:
    /// `min(nproc, 4)`.
    pub n: usize,
    /// Measured windows, back to back on one running system; every
    /// reported value is the median over them.
    pub windows: usize,
    pub window: Duration,
    /// Load before the first window opens, not measured.
    pub warmup: Duration,
    /// A traced pass traces every odd window, so that the cost of tracing
    /// is measured against the even ones inside one process.
    pub trace: bool,
    /// Share of the full-size oracle pass and microbench loops to run
    /// (1 at the contract's run length, less under `--quick`).
    pub oracle_scale: f64,
    pub micro_min: Duration,
}

impl Plan {
    fn new(seed: u64, seconds: f64, trace: bool) -> Plan {
        let windows = WINDOWS;
        let window = Duration::from_secs_f64(seconds / windows as f64);
        let scale = (seconds / 10.0).clamp(0.05, 1.0);
        Plan {
            seed,
            n: nproc().min(4),
            windows,
            window,
            warmup: Duration::from_secs_f64(scale),
            trace,
            oracle_scale: scale,
            micro_min: Duration::from_secs_f64(0.3 * scale),
        }
    }
}

/// CPUs this process was given, counted once: `available_parallelism`
/// follows the affinity mask, which the workloads narrow later.
fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// High-water mark of this process's resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The window `t` falls in, of `count` windows of `len` back to back from
/// `opens`; `None` before the first and after the last.
pub fn window_index(opens: Instant, len: Duration, count: usize, t: Instant) -> Option<usize> {
    let since = t.checked_duration_since(opens)?;
    let index = (since.as_nanos() / len.as_nanos().max(1)) as usize;
    (index < count).then_some(index)
}

/// What every workload records once its measured part is over: how far
/// the windows of its headline metric disagree, the failure ratio, and
/// peak memory — read here, before the oracle pass, whose recorded
/// history would otherwise be what sets the high-water mark.
pub fn close_measurement(out: &mut Outcome, headline: &'static str) {
    out.set("bench.rep_spread", out.spread(headline));
    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb());
}

/// Where result and trace files go: `benchmark/out` under the checkout
/// root the command is run from, or `out` when run from the package.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// One pass of one workload, in this process.
fn run_workload(workload: &str, plan: &Plan) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let t = plan.trace.then_some(&tracer);
    let mut out = match workload {
        "native-update" => native::run(native::Kind::Update, plan, t),
        "native-scan" => native::run(native::Kind::Scan, plan, t),
        "native-contend" => native::run(native::Kind::Contend, plan, t),
        "service-sat" => service::run(false, plan, t),
        "service-open" => service::run(true, plan, t),
        "sim-bank" => sim::run(plan),
        other => return Err(format!("unknown workload {other}\n\n{USAGE}")),
    };
    out.set("bench.nproc", nproc() as f64);
    if !plan.trace {
        return Ok(out);
    }
    let p50 = out.value("p50_us").unwrap_or(0.0);
    match workload {
        "native-update" => {
            micro::protocol_steps(plan, &mut out);
            micro::bank_source(plan, &mut out);
            warn_if_generator_bound(&out, "workloads.bank_next_tx_ns", plan.n);
        }
        "native-scan" => micro::core(plan, &mut out),
        "native-contend" => {
            micro::list_source(plan, &mut out);
            warn_if_generator_bound(&out, "workloads.list_next_tx_ns", plan.n);
        }
        "service-sat" | "service-open" => {
            probe::run(plan, workload == "service-open", t, &mut out);
            // What the socket, parser and connection threads add over the
            // engine alone, in the matching regime.
            let engine = if workload == "service-sat" {
                micro::wire(plan, &mut out);
                "engine.kv_p50_us"
            } else {
                "engine.idle_p50_us"
            };
            out.set(
                "service.conn_overhead_us",
                p50 - out.value(engine).unwrap_or(0.0),
            );
        }
        _ => {}
    }
    if workload != "sim-bank" {
        let path = out_dir().join(format!("trace-{workload}.json"));
        tracer
            .write(workload, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{workload} trace written to {}", path.display());
    }
    Ok(out)
}

/// A generator that costs more than 5 % of a worker's time per commit is
/// being measured in place of the engine.
fn warn_if_generator_bound(out: &Outcome, gen_metric: &str, n: usize) {
    let (Some(gen_ns), Some(tps)) = (out.value(gen_metric), out.value("commit_tps")) else {
        return;
    };
    let worker_ns_per_commit = n as f64 * 1e9 / tps.max(1.0);
    if gen_ns > 0.05 * worker_ns_per_commit {
        println!(
            "warning: {gen_metric} = {gen_ns:.0} ns is {:.1} % of a worker's {worker_ns_per_commit:.0} ns \
             per commit: the generator is a measurable part of this workload",
            100.0 * gen_ns / worker_ns_per_commit
        );
    }
}

/// The driver's form: print the metric lines, the per-window values, and
/// the result object as the last line.
fn child(workload: &str, plan: &Plan) -> ExitCode {
    println!(
        "{workload}: seed {} windows {} x {:.2} s, n = {} (nproc {}), trace {}, (system, load) cpus {:?}",
        plan.seed,
        plan.windows,
        plan.window.as_secs_f64(),
        plan.n,
        nproc(),
        u8::from(plan.trace),
        pin::cpus()
    );
    let out = match run_workload(workload, plan) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    out.print(workload, plan.trace);
    let result = match out.result(plan.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("reps {}", out.reps_json(plan.trace).encode());
    println!("{}", result.encode());
    ExitCode::from(out.exit_code())
}

/// Run one pass in a child process of this binary, so that peak memory
/// and thread state are per workload. Returns `(result, reps)`.
fn spawn_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (result_line, shown) = lines.split_last().ok_or(format!("{workload}: no output"))?;
    let mut reps = Json::obj::<String>([]);
    for line in shown {
        match line.strip_prefix("reps ") {
            Some(json) => reps = Json::parse(json).map_err(|e| format!("{workload}: reps: {e}"))?,
            None => println!("{line}"),
        }
    }
    let result = Json::parse(result_line).map_err(|e| {
        format!("{workload}: last line is not a result object ({e}): {result_line}")
    })?;
    if !output.status.success() {
        return Err(format!("{workload}: pass exited with {}", output.status));
    }
    Ok((result, reps))
}

/// The full run: every workload, untraced then traced.
fn full(seed: u64, seconds: f64, only: Option<&str>, out_file: Option<PathBuf>) -> ExitCode {
    println!(
        "csmv-benchmark: seed {seed}, {seconds} s per pass, nproc {}",
        nproc()
    );
    let mut workloads = std::collections::BTreeMap::new();
    let mut failures = Vec::new();
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        let passes = spawn_pass(w, seed, seconds, false)
            .and_then(|e2e| Ok((e2e, spawn_pass(w, seed, seconds, true)?)));
        let ((e2e, reps), (layers, _)) = match passes {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                failures.push(w.to_string());
                continue;
            }
        };
        let correct = [&e2e, &layers]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        if !correct {
            failures.push(w.to_string());
        }
        let field = |k: &str| e2e.get(k).cloned().unwrap_or(Json::Null);
        workloads.insert(
            w.to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", field("attempted")),
                ("failed", field("failed")),
                ("metrics", field("metrics")),
                ("reps", reps),
                (
                    "layers",
                    layers.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        );
    }
    if workloads.is_empty() && failures.is_empty() {
        eprintln!("no workload selected\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_file.unwrap_or_else(|| out_dir().join("result.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.encode()));
    match written {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {}", failures.join(" "));
        ExitCode::FAILURE
    }
}

struct Cli {
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    workload: Option<String>,
    only: Option<String>,
    trace: bool,
    out_file: Option<PathBuf>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            seed: 1,
            seconds: None,
            quick: false,
            workload: None,
            only: None,
            trace: false,
            out_file: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--seed" => {
                    cli.seed = value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                    cli.seconds = Some(s);
                }
                "--trace" => {
                    cli.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--workload" => cli.workload = Some(value()?.clone()),
                "--only" => cli.only = Some(value()?.clone()),
                "--out" => cli.out_file = Some(value()?.into()),
                "--quick" => cli.quick = true,
                "--help" | "-h" => return Err("help".into()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cli)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("compare takes two result files\n\n{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Cli {
        seed,
        seconds,
        quick,
        workload,
        only,
        trace,
        out_file,
    } = cli;
    for name in workload.iter().chain(&only) {
        if !WORKLOADS.contains(&name.as_str()) {
            eprintln!("unknown workload {name}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let seconds = seconds.unwrap_or_else(|| {
        if quick {
            0.8
        } else {
            Json::parse(spec::BENCHMARK_JSON)
                .ok()
                .and_then(|s| s.get("run_seconds")?.as_f64())
                .unwrap_or(10.0)
        }
    });
    match workload {
        Some(w) => child(&w, &Plan::new(seed, seconds, trace)),
        None => full(seed, seconds, only.as_deref(), out_file),
    }
}

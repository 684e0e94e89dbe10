//! `sim-bank`: the paper's own host — CSMV inside the `gpu-sim`
//! discrete-event simulator, Bank at 50 % read-only.
//!
//! One simulation is the unit of work; the pass repeats it on the same
//! seed until the time is up. The simulator is deterministic, so every
//! repetition must produce bit-identical simulated statistics (a gate),
//! while the host time per simulation is what varies and is measured.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use csmv::{CsmvConfig, CsmvVariant};
use gpu_sim::GpuConfig;
use stm_core::{RunResult, TxSource};
use workloads::{BankConfig, BankSource};

use crate::report::Outcome;
use crate::stats::quantile;
use crate::Plan;

/// Streaming multiprocessors: 13 run clients, the last is the server.
const SMS: usize = 14;
/// Transactions per simulated client thread; sized so one simulation
/// takes a few hundred milliseconds of host time and a run fits many.
const TXS_PER_THREAD: usize = 1;
const ROT_PCT: u8 = 50;
const VERSIONS: u64 = 8;

/// The paper harness's Bank shape (`bench::bank_csmv`): transfers read and
/// write two items, and small ATR entries buy a deep ring. With the
/// default entry size the ring is shallow enough that some seeds trip the
/// simulator's stall watchdog.
fn config(record_history: bool) -> CsmvConfig {
    let mut cfg = CsmvConfig {
        gpu: GpuConfig {
            num_sms: SMS,
            ..Default::default()
        },
        versions_per_box: VERSIONS,
        max_rs: 8,
        max_ws: 2,
        record_history,
        variant: CsmvVariant::Full,
        ..Default::default()
    };
    cfg.fit_atr_capacity();
    cfg
}

/// Notes when the simulation first asks any source for a transaction:
/// everything before that is device, heap and source construction.
struct Stamped {
    inner: BankSource,
    first: Arc<OnceLock<Instant>>,
}

impl TxSource for Stamped {
    type Tx = <BankSource as TxSource>::Tx;
    fn next_tx(&mut self) -> Option<Self::Tx> {
        self.first.get_or_init(Instant::now);
        self.inner.next_tx()
    }
}

struct Rep {
    result: RunResult,
    host: Duration,
    setup: Duration,
}

fn simulate(bank: &BankConfig, seed: u64) -> Result<Rep, String> {
    let first = Arc::new(OnceLock::new());
    let called = Instant::now();
    let result = csmv::run_checked(
        &config(false),
        |t| Stamped {
            inner: BankSource::new(bank, seed, t, TXS_PER_THREAD),
            first: first.clone(),
        },
        bank.accounts,
        |_| bank.initial_balance,
    )
    .map_err(|e| format!("simulation of seed {seed}: {e}"))?;
    let host = called.elapsed();
    let setup = first.get().map_or(host, |t| *t - called);
    Ok(Rep {
        result,
        host,
        setup,
    })
}

/// The simulated statistics two runs of the same seed must agree on.
fn fingerprint(
    r: &RunResult,
) -> (
    stm_core::CommitStats,
    u64,
    [u64; 2],
    stm_core::MetricsReport,
) {
    (
        r.stats,
        r.elapsed_cycles,
        [
            r.client_breakdown.commit_total(),
            r.server_breakdown.commit_total(),
        ],
        r.metrics.clone(),
    )
}

/// The untimed oracle pass: one simulation with history recording on,
/// through `run_checked` (config and stall diagnosis) and the opacity
/// checker.
fn oracle(bank: &BankConfig, seed: u64) -> Vec<String> {
    let run = csmv::run_checked(
        &config(true),
        |t| BankSource::new(bank, seed, t, TXS_PER_THREAD),
        bank.accounts,
        |_| bank.initial_balance,
    );
    match run {
        Err(e) => vec![format!("oracle pass: {e}")],
        Ok(r) => match stm_core::check_history(&r.records, &bank.initial_state(), true) {
            Ok(_) => Vec::new(),
            Err(e) => vec![format!("oracle pass: history violation: {e}")],
        },
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let bank = BankConfig::paper(ROT_PCT);
    let cfg = config(false);
    let threads = cfg.num_threads() as u64;

    // One discarded simulation pages the simulator's memory in; it is
    // also what every later one must be bit-identical to.
    let reference = match simulate(&bank, plan.seed) {
        Ok(rep) => rep.result,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let r = &reference;
    let per_commit = |v: f64| v / r.stats.commits().max(1) as f64;
    out.set("sim.tx_per_s", r.throughput(cfg.gpu.clock_ghz));
    out.set("sim.abort_pct", r.abort_rate_pct());
    out.set("sim.commits", r.stats.commits() as f64);
    out.set(
        "sim.client_cycles_per_tx",
        per_commit(r.client_breakdown.commit_total() as f64),
    );
    out.set(
        "sim.server_cycles_per_tx",
        per_commit(r.server_breakdown.commit_total() as f64),
    );
    out.set("sim.wasted_cycles_per_tx", r.stats.wasted_cycles_per_tx());
    out.set("sim.atr_occupancy_mean", r.metrics.atr_occupancy.mean());
    out.set(
        "sim.gts_stall_cycles_per_commit",
        per_commit(r.metrics.gts_stall.mean() * r.metrics.gts_stall.len() as f64),
    );

    let budget = plan.window * plan.windows as u32;
    let began = Instant::now();
    let mut host_us = Vec::new();
    while host_us.len() < 3 || began.elapsed() < budget {
        let rep = match simulate(&bank, plan.seed) {
            Ok(rep) => rep,
            Err(e) => {
                out.problems.push(e);
                break;
            }
        };
        if fingerprint(&rep.result) != fingerprint(&reference) {
            out.problems.push(format!(
                "simulation {} of seed {} differs from the first: {} cycles / {} commits, was {} / {}",
                host_us.len() + 2,
                plan.seed,
                rep.result.elapsed_cycles,
                rep.result.stats.commits(),
                reference.elapsed_cycles,
                reference.stats.commits(),
            ));
        }
        host_us.push(rep.host.as_secs_f64() * 1e6);
        out.push("setup_s", rep.setup.as_secs_f64());
        out.push("commit_tps", rep.result.throughput(cfg.gpu.clock_ghz));
        out.push("p50_us", rep.host.as_secs_f64() * 1e6);
        out.push("sim.host_s", rep.host.as_secs_f64());
        out.push(
            "sim.host_ns_per_sim_cycle",
            rep.host.as_nanos() as f64 / rep.result.elapsed_cycles.max(1) as f64,
        );
        out.attempted += threads * TXS_PER_THREAD as u64;
        out.failed += (threads * TXS_PER_THREAD as u64).saturating_sub(rep.result.stats.commits());
    }
    out.set("p90_us", quantile(&host_us, 0.9));
    crate::close_measurement(&mut out, "p50_us");
    out.problems.extend(oracle(&bank, plan.seed));
    out
}

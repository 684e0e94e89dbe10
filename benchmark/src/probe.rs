//! The `engine.*` layer: `NativeEngine` driven in-process, without the
//! socket, through `start` / `try_submit` / `shutdown` and the public
//! `command::KvTx` — the same KV mix the service workloads send.
//!
//! Two phases, each on its own engine. *Saturated*: `n` submitters, each
//! keeping 32 submissions in flight and collecting completions in submit
//! order, the way a service connection's writer half does. *Idle*: one
//! submitter, one submission in flight, so every request finds the workers
//! asleep — the regime in which single requests stall for seconds on the
//! seed code (ROADMAP item 3). A phase gives up on a completion that is
//! [`GIVE_UP`] overdue; `shutdown` then releases the stalled job, which is
//! why the phases do not share an engine.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csmv_native::{Completion, NativeEngine, SubmitError};
use csmv_service::command::KvTx;
use csmv_service::ServiceConfig;
use stm_core::TxLogic;

use crate::report::Outcome;
use crate::service::{KvGen, IN_FLIGHT, KEYS, STALL_WINDOW};
use crate::stats::Hist;
use crate::trace::{Tracer, SAMPLE_EVERY};
use crate::Plan;

/// How long past its end a phase waits for a completion before it
/// abandons what is still in flight to `shutdown`.
const GIVE_UP: Duration = Duration::from_secs(1);

/// What one submitter measured.
#[derive(Default)]
struct Submitter {
    /// Submit → completion received, as the submitter clocks it.
    observed: Hist,
    /// `Completion::latency`: accept → terminal outcome, as the engine
    /// clocks it.
    engine_ns: u64,
    /// Observed minus engine-reported: the way back to the submitter.
    wake_ns: u64,
    submit_call_ns: u64,
    submits: u64,
    completions: u64,
    failed: u64,
    /// In flight when the phase gave up; `shutdown` completes them.
    abandoned: u64,
    /// Offsets of completions from the phase start, for stall windows.
    done_at: Vec<Duration>,
}

struct InFlight {
    submitted: Instant,
    accepted: Instant,
    done: Receiver<Completion>,
    sampled: bool,
}

/// Keep `depth` submissions in flight until `until`, then drain.
fn submit_loop(
    engine: &NativeEngine,
    mut gen: KvGen,
    depth: usize,
    began: Instant,
    until: Instant,
    tracer: Option<&Tracer>,
) -> Submitter {
    let mut s = Submitter::default();
    let mut flight: VecDeque<InFlight> = VecDeque::new();
    loop {
        while flight.len() < depth && Instant::now() < until {
            let req = gen.next_req();
            let sink = Arc::new(Mutex::new(Vec::new()));
            let mut tx: Box<dyn TxLogic> = Box::new(KvTx::new(req.ops, sink));
            let (done_tx, done) = mpsc::channel();
            let submitted = Instant::now();
            loop {
                match engine.try_submit(tx, done_tx.clone()) {
                    Ok(()) => break,
                    Err(SubmitError::Busy(back)) => {
                        tx = back;
                        std::thread::yield_now();
                    }
                    Err(SubmitError::Closed(_)) => {
                        s.failed += 1;
                        return s;
                    }
                }
            }
            let accepted = Instant::now();
            s.submit_call_ns += (accepted - submitted).as_nanos() as u64;
            s.submits += 1;
            flight.push_back(InFlight {
                submitted,
                accepted,
                done,
                sampled: tracer.is_some() && s.submits.is_multiple_of(SAMPLE_EVERY),
            });
        }
        let Some(head) = flight.pop_front() else {
            return s;
        };
        let patience = (until + GIVE_UP).saturating_duration_since(Instant::now());
        let Ok(c) = head.done.recv_timeout(patience) else {
            s.abandoned = 1 + flight.len() as u64;
            s.observed
                .record(head.submitted.elapsed().as_nanos() as u64);
            return s;
        };
        let now = Instant::now();
        let observed = now - head.submitted;
        s.observed.record(observed.as_nanos() as u64);
        s.engine_ns += c.latency.as_nanos() as u64;
        s.wake_ns += observed.saturating_sub(c.latency).as_nanos() as u64;
        s.completions += 1;
        s.failed += u64::from(c.outcome.is_err());
        s.done_at.push(now - began);
        if let (true, Some(tracer)) = (head.sampled, tracer) {
            let finished = (head.accepted + c.latency).min(now);
            tracer.record(
                0,
                "probe",
                head.submitted,
                now,
                &[
                    ("submit", head.submitted, head.accepted),
                    ("engine", head.accepted, finished),
                    ("wake", finished, now),
                ],
            );
        }
    }
}

/// `STALL_WINDOW`-wide slots of `[0, len)` in which nothing completed.
fn stall_windows(done_at: &[Duration], len: Duration) -> u64 {
    let slots = len.as_nanos().div_ceil(STALL_WINDOW.as_nanos()) as usize;
    let mut seen = vec![false; slots];
    for d in done_at {
        if let Some(s) = seen.get_mut((d.as_nanos() / STALL_WINDOW.as_nanos()) as usize) {
            *s = true;
        }
    }
    seen.iter().filter(|&&s| !s).count() as u64
}

/// Start an engine shaped like the service's, timing the call.
fn start(plan: &Plan, split: bool) -> Result<(NativeEngine, Duration), String> {
    let cfg = csmv_native::NativeConfig {
        client_threads: plan.n,
        server_threads: 1,
        ..ServiceConfig::default().engine
    };
    // Placed as the service workload places its server and generator: the
    // engine on the system CPU, the submitters (this thread and its later
    // children) beside it or, when `split`, on the load CPU.
    crate::pin::system();
    let called = Instant::now();
    let engine = NativeEngine::start(&cfg, KEYS, |_| 0);
    let took = called.elapsed();
    if split {
        crate::pin::load();
    }
    Ok((engine.map_err(|e| format!("engine probe: {e}"))?, took))
}

/// Shut an engine down, timing the call, and check that every accepted
/// submission — abandoned ones included — ended as a commit.
fn shutdown(engine: NativeEngine, submits: u64, problems: &mut Vec<String>) -> Duration {
    let called = Instant::now();
    let result = engine.shutdown();
    let took = called.elapsed();
    if result.stats.failed > 0 || result.stats.commits() != submits {
        problems.push(format!(
            "engine probe: {submits} submitted, {} committed, {} failed",
            result.stats.commits(),
            result.stats.failed
        ));
    }
    took
}

/// Probe the engine and record every `engine.*` metric.
pub fn run(plan: &Plan, split: bool, tracer: Option<&Tracer>, out: &mut Outcome) {
    let phase = Duration::from_secs_f64(plan.oracle_scale);

    // Saturated: n submitters × IN_FLIGHT.
    let (engine, start_took) = match start(plan, split) {
        Ok(started) => started,
        Err(e) => return out.problems.push(e),
    };
    out.set("engine.start_s", start_took.as_secs_f64());
    let began = Instant::now();
    let sat: Vec<Submitter> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.n)
            .map(|t| {
                let engine = &engine;
                let gen = KvGen::new(plan.seed ^ 0xE61E, t, plan.n);
                s.spawn(move || submit_loop(engine, gen, IN_FLIGHT, began, began + phase, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe submitter does not panic"))
            .collect()
    });
    let mut observed = Hist::default();
    let mut done_at = Vec::new();
    let (mut completions, mut submits, mut submit_ns, mut engine_ns, mut failed) = (0, 0, 0, 0, 0);
    for s in &sat {
        observed.merge(&s.observed);
        done_at.extend_from_slice(&s.done_at);
        completions += s.completions;
        submits += s.submits;
        submit_ns += s.submit_call_ns;
        engine_ns += s.engine_ns;
        failed += s.failed;
    }
    let shutdown_took = shutdown(engine, submits, &mut out.problems);
    out.set("engine.shutdown_s", shutdown_took.as_secs_f64());
    let in_phase = done_at.iter().filter(|d| **d < phase).count();
    out.set("engine.kv_tps", in_phase as f64 / phase.as_secs_f64());
    out.set("engine.kv_p50_us", observed.quantile(0.5) / 1e3);
    out.set("engine.kv_p90_us", observed.quantile(0.9) / 1e3);
    out.set(
        "engine.submit_call_ns",
        submit_ns as f64 / submits.max(1) as f64,
    );
    out.set(
        "engine.commit_latency_mean_us",
        engine_ns as f64 / completions.max(1) as f64 / 1e3,
    );
    let mut stalls = stall_windows(&done_at, phase);

    // Idle: 1 submitter × 1.
    let (engine, _) = match start(plan, split) {
        Ok(started) => started,
        Err(e) => return out.problems.push(e),
    };
    let began = Instant::now();
    let gen = KvGen::new(plan.seed ^ 0x1D1E, 0, plan.n);
    let idle = submit_loop(&engine, gen, 1, began, began + phase, tracer);
    let idle_len = began.elapsed().max(phase);
    shutdown(engine, idle.submits, &mut out.problems);
    failed += idle.failed;
    stalls += stall_windows(&idle.done_at, idle_len);
    out.set("engine.idle_p50_us", idle.observed.quantile(0.5) / 1e3);
    out.set(
        "engine.idle_tps",
        idle.completions as f64 / idle_len.as_secs_f64(),
    );
    out.set(
        "engine.wake_us",
        idle.wake_ns as f64 / idle.completions.max(1) as f64 / 1e3,
    );
    out.set("engine.stall_windows", stalls as f64);
    out.set(
        "engine.max_us",
        observed.max().max(idle.observed.max()) as f64 / 1e3,
    );
    if failed > 0 {
        out.problems.push(format!(
            "engine probe: {failed} submission(s) did not commit"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_windows_counts_slots_without_a_completion() {
        let ms = Duration::from_millis;
        // 500 ms = 5 slots; completions land in slots 0, 0 and 3.
        assert_eq!(stall_windows(&[ms(10), ms(90), ms(350)], ms(500)), 3);
        assert_eq!(stall_windows(&[], ms(250)), 3);
        // A completion past the end (the drain) fills no slot.
        assert_eq!(stall_windows(&[ms(700)], ms(200)), 2);
    }
}

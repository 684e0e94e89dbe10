//! Pinned simulated results: small seeded Bank runs on every single-server
//! variant and on two-server CSMV, healthy and faulted. A simulated run is
//! a pure function of its configuration and seeds, so a change that keeps
//! the protocol's behaviour must keep every number below bit for bit; a
//! change that moves one must say so and re-pin it.
//!
//! The workload is integer-only, so the numbers do not depend on the host's
//! floating-point library.

use csmv::{run_checked, run_multi_checked, CsmvConfig, CsmvVariant, MultiCsmvConfig};
use gpu_sim::{FaultPlan, FaultSpec, GpuConfig};
use stm_core::{AbortReason, FaultEvent, RetryPolicy, RunResult};
use workloads::{BankConfig, BankSource};

const SEED: u64 = 0x601D;
const TXS: usize = 3;

/// A summary of a run: cycles, commits, failures, aborts and fault events
/// by kind (zero counts omitted), and an FNV-1a digest of every committed
/// record in harvest order.
fn summary(res: &RunResult) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &res.records {
        mix(r.thread as u64);
        mix(r.read_point);
        mix(r.cts.unwrap_or(u64::MAX));
        for &(item, value) in r.reads.iter().chain(&r.writes) {
            mix(item);
            mix(value);
        }
    }
    let aborts: Vec<String> = AbortReason::ALL
        .iter()
        .filter(|&&r| res.metrics.aborts.count(r) > 0)
        .map(|&r| format!("{}={}", r.key(), res.metrics.aborts.count(r)))
        .collect();
    let faults: Vec<String> = FaultEvent::ALL
        .iter()
        .filter(|&&e| res.metrics.faults.count(e) > 0)
        .map(|&e| format!("{}={}", e.key(), res.metrics.faults.count(e)))
        .collect();
    format!(
        "cycles={} commits={} failed={} aborts=[{}] faults=[{}] digest={h:016x}",
        res.elapsed_cycles,
        res.stats.commits(),
        res.stats.failed,
        aborts.join(","),
        faults.join(",")
    )
}

fn single(variant: CsmvVariant, faults: Option<FaultPlan>) -> String {
    let cfg = CsmvConfig {
        gpu: GpuConfig {
            num_sms: 4,
            ..Default::default()
        },
        variant,
        server_workers: 3,
        atr_capacity: 16,
        recovery: faults.as_ref().map(|_| recovery()).unwrap_or_default(),
        faults,
        ..Default::default()
    };
    let bank = BankConfig::small(32, 20);
    let res = run_checked(
        &cfg,
        |t| BankSource::new(&bank, SEED, t, TXS),
        bank.accounts,
        |_| bank.initial_balance,
    )
    .expect("the run drains");
    summary(&res)
}

/// The recovery policy of the faulted runs; a healthy run keeps the inert
/// default, so it exercises no timeout.
fn recovery() -> RetryPolicy {
    RetryPolicy {
        resp_timeout: Some(20_000),
        max_send_attempts: 16,
        backoff_base: 64,
        backoff_cap: 2048,
        jitter_seed: 3,
        ..Default::default()
    }
}

fn multi(faults: Option<FaultPlan>, heartbeat_patience: Option<u64>) -> String {
    let cfg = MultiCsmvConfig {
        gpu: GpuConfig {
            num_sms: 5,
            ..Default::default()
        },
        num_servers: 2,
        versions_per_box: 8,
        server_workers: 2,
        atr_capacity: 32,
        recovery: faults.as_ref().map(|_| recovery()).unwrap_or_default(),
        faults,
        heartbeat_patience,
        max_idle_cycles: Some(400_000),
        ..Default::default()
    };
    let bank = BankConfig::small(32, 20).partitioned(2);
    let res = run_multi_checked(
        &cfg,
        |t| BankSource::new(&bank, SEED, t, TXS),
        bank.accounts,
        |_| bank.initial_balance,
    )
    .expect("the run drains");
    summary(&res)
}

fn message_faults(seed: u64) -> Option<FaultPlan> {
    let spec: FaultSpec = "drop_req=0.2,drop_resp=0.2,dup_req=0.1,delay_req=0.3x200"
        .parse()
        .unwrap();
    Some(FaultPlan::new(seed, spec))
}

#[test]
fn single_server_full() {
    assert_eq!(
        single(CsmvVariant::Full, None),
        "cycles=1856744 commits=576 failed=0 \
         aborts=[read_validation=1217,atr_window_overflow=150,prevalidation_kill=3064] \
         faults=[] digest=efb3c5287d06ab2b"
    );
}

#[test]
fn single_server_nocv() {
    assert_eq!(
        single(CsmvVariant::NoCv, None),
        "cycles=1396080 commits=576 failed=0 \
         aborts=[read_validation=985,atr_window_overflow=264,prevalidation_kill=3242] \
         faults=[] digest=a49e015851fcd65a"
    );
}

#[test]
fn single_server_onlycs() {
    assert_eq!(
        single(CsmvVariant::OnlyCs, None),
        "cycles=2123336 commits=576 failed=0 \
         aborts=[read_validation=3272,atr_window_overflow=142] \
         faults=[] digest=3de17edaab516206"
    );
}

#[test]
fn single_server_full_under_message_faults() {
    assert_eq!(
        single(CsmvVariant::Full, message_faults(0xFA01)),
        "cycles=2169279 commits=576 failed=0 \
         aborts=[read_validation=1163,atr_window_overflow=149,prevalidation_kill=2911] \
         faults=[timeouts=183,resends=183,duplicates_injected=26,duplicates_suppressed=136,\
         delays_injected=144] digest=dd2844d4c97f0be7"
    );
}

#[test]
fn two_servers() {
    assert_eq!(
        multi(None, None),
        "cycles=1770034 commits=576 failed=0 \
         aborts=[read_validation=1295,atr_window_overflow=10,prevalidation_kill=2907] \
         faults=[] digest=de14a0021dbb788d"
    );
}

#[test]
fn two_servers_under_message_faults() {
    assert_eq!(
        multi(message_faults(0xFA02), None),
        "cycles=2557966 commits=576 failed=0 \
         aborts=[read_validation=1184,atr_window_overflow=9,prevalidation_kill=2890] \
         faults=[timeouts=247,resends=247,duplicates_injected=45,duplicates_suppressed=192,\
         delays_injected=139] digest=418f014bee5650bd"
    );
}

#[test]
fn two_servers_with_a_crashed_server_sm() {
    // SM 4 runs partition 1's server; it dies early in the run, and the
    // clients quarantine its partition.
    let spec: FaultSpec = "crash_sm=4@20000".parse().unwrap();
    assert_eq!(
        multi(Some(FaultPlan::new(0xC0A5, spec)), Some(25_000)),
        "cycles=1676378 commits=359 failed=217 \
         aborts=[read_validation=764,atr_window_overflow=9,prevalidation_kill=2512,\
         server_unavailable=217] \
         faults=[timeouts=47,resends=47,duplicates_suppressed=36,quarantines=6] \
         digest=c61061381f74800f"
    );
}

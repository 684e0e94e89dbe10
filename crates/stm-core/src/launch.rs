//! The launcher every simulated STM shares (CSMV single- and multi-server,
//! JVSTM-GPU, PR-STM): [`arm`] the device, [`spawn_clients`], and
//! [`finish`] — run, return a stall, harvest the clients. Each STM lays out
//! its own memory and spawns its own server warps around these steps, in
//! its own order: the order of allocations and spawns is part of every
//! simulated number, since warp ids break scheduling ties.

use gpu_sim::{AnalysisConfig, Device, FaultPlan, StallInfo, WarpId, WarpProgram, WARP_LANES};

use crate::history::TxRecord;
use crate::metrics::MetricsReport;
use crate::result::RunResult;
use crate::stats::CommitStats;

/// What one client warp leaves for the run's result: its counters, its
/// report and its committed-transaction records.
pub type ClientHarvest = (CommitStats, MetricsReport, Vec<TxRecord>);

/// Install the fault plan, the stall watchdog and the analysis layer.
/// Invariant checkers need the analysis layer, so register them after.
pub fn arm(
    dev: &mut Device,
    faults: &Option<FaultPlan>,
    max_idle_cycles: Option<u64>,
    analysis: AnalysisConfig,
) {
    if let Some(plan) = faults {
        dev.set_fault_plan(plan.clone());
    }
    if let Some(max_idle) = max_idle_cycles {
        dev.set_watchdog(max_idle);
    }
    dev.enable_analysis(analysis);
}

/// Spawn `warps_per_sm` client warps on each of SMs `0..client_sms`, SM by
/// SM, and return their ids in slot order. `client(dev, sources,
/// thread_base, slot)` builds slot `slot`'s warp from the transaction
/// sources of threads `thread_base..thread_base + 32`; it gets the device
/// to allocate per-warp state between spawns.
pub fn spawn_clients<S, P: WarpProgram + 'static>(
    dev: &mut Device,
    client_sms: usize,
    warps_per_sm: usize,
    mut make_source: impl FnMut(usize) -> S,
    mut client: impl FnMut(&mut Device, Vec<S>, usize, usize) -> P,
) -> Vec<WarpId> {
    let mut ids = Vec::new();
    for sm in 0..client_sms {
        for _ in 0..warps_per_sm {
            let (thread_base, slot) = (ids.len() * WARP_LANES, ids.len());
            let sources = (0..WARP_LANES)
                .map(|i| make_source(thread_base + i))
                .collect();
            let warp = client(dev, sources, thread_base, slot);
            ids.push(dev.spawn(sm, Box::new(warp)));
        }
    }
    ids
}

/// Run the device until every warp retires, or return the stall its
/// watchdog diagnosed. The result holds the elapsed cycles, the analysis
/// report and the client warps `clients`, folded in in order: each one's
/// phase breakdown, and what `harvest` takes out of its program. The
/// caller adds its server warps.
pub fn finish<C: 'static>(
    dev: &mut Device,
    clients: &[WarpId],
    mut harvest: impl FnMut(&mut C) -> ClientHarvest,
) -> Result<RunResult, StallInfo> {
    dev.run_to_completion();
    if let Some(stall) = dev.stalled() {
        return Err(stall);
    }
    let mut result = RunResult {
        elapsed_cycles: dev.elapsed_cycles(),
        analysis: dev.finish_analysis(),
        ..Default::default()
    };
    for &id in clients {
        result.client_breakdown.add_warp(dev.warp_stats(id));
        let mut client = dev
            .take_program(id)
            .downcast::<C>()
            .expect("client program type");
        let (stats, metrics, mut records) = harvest(&mut client);
        result.stats.merge(&stats);
        result.metrics.merge(&metrics);
        result.records.append(&mut records);
    }
    Ok(result)
}

//! Multi-server CSMV scalability (the paper's §V future-work direction):
//! update-heavy Bank with partition-confined transfers, sweeping the number
//! of commit-server SMs. The single server saturates under update pressure;
//! extra servers add validation/insert throughput and aggregate ATR
//! capacity (fewer spurious window aborts).
//!
//! Not part of the paper's evaluation — an extension experiment.

use bench::cli::BenchArgs;
use bench::{fmt_tput, print_table, row_from, run_cells, Cell};
use csmv::{CsmvConfig, CsmvVariant, MultiCsmvConfig};
use gpu_sim::GpuConfig;
use workloads::{BankConfig, BankSource};

fn main() {
    let args = BenchArgs::parse("multiserver");
    let scale = args.scale.clone();
    let rot_pct = 1u8; // update-heavy: the server-bound regime
    let servers: &[usize] = &[1, 2, 4];

    let scale = &scale;
    // Reference: the paper's single-server CSMV (unpartitioned workload).
    let mut cells: Vec<Cell> = vec![Box::new(move || {
        let bank = BankConfig {
            accounts: scale.accounts,
            ..BankConfig::paper(rot_pct)
        };
        let mut cfg = CsmvConfig {
            gpu: GpuConfig {
                num_sms: scale.sms,
                ..GpuConfig::default()
            },
            versions_per_box: scale.versions,
            max_rs: 8,
            max_ws: 2,
            record_history: false,
            variant: CsmvVariant::Full,
            analysis: scale.analysis_cfg(),
            recovery: scale.recovery(),
            faults: scale.fault_plan(),
            ..Default::default()
        };
        if let Some(watchdog) = scale.fault_watchdog() {
            cfg.max_idle_cycles = Some(watchdog);
        }
        cfg.fit_atr_capacity();
        eprintln!("[multiserver] baseline single-server");
        let res = csmv::run(
            &cfg,
            |t| BankSource::new(&bank, scale.seed, t, scale.bank_txs),
            bank.accounts,
            |_| bank.initial_balance,
        );
        row_from("CSMV (paper)", 1, &res)
    })];

    for &n in servers {
        cells.push(Box::new(move || {
            eprintln!("[multiserver] {n} server(s)");
            let bank = BankConfig {
                accounts: scale.accounts,
                ..BankConfig::paper(rot_pct)
            }
            .partitioned(n as u64);
            let mut cfg = MultiCsmvConfig {
                gpu: GpuConfig {
                    num_sms: scale.sms,
                    ..GpuConfig::default()
                },
                num_servers: n,
                versions_per_box: scale.versions,
                warps_per_sm: 2,
                server_workers: 7,
                max_rs: 8,
                max_ws: 2,
                atr_capacity: 1024,
                record_history: false,
                analysis: scale.analysis_cfg(),
                recovery: scale.recovery(),
                faults: scale.fault_plan(),
                ..Default::default()
            };
            if let Some(watchdog) = scale.fault_watchdog() {
                // Faulted runs wait out timeouts/backoff; keep the (generous)
                // fault watchdog and arm heartbeat quarantine so a crashed
                // server degrades gracefully instead of stalling the run.
                cfg.max_idle_cycles = Some(watchdog);
                cfg.heartbeat_patience = Some(25_000);
            }
            let res = csmv::run_multi(
                &cfg,
                |t| BankSource::new(&bank, scale.seed, t, scale.bank_txs),
                bank.accounts,
                |_| bank.initial_balance,
            );
            row_from("CSMV-multi", n as u64, &res)
        }));
    }

    let measured = run_cells(args.threads, cells);
    let mut audit = gpu_sim::AnalysisStats::default();
    for row in &measured {
        if let Some(a) = &row.analysis {
            audit.merge(a);
        }
    }
    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|row| {
            vec![
                row.system.clone(),
                row.x.to_string(),
                fmt_tput(row.throughput),
                format!("{:.2}", row.abort_pct),
            ]
        })
        .collect();

    print_table(
        &format!("Multi-server CSMV — Bank at {rot_pct}% ROT (partition-confined transfers)"),
        &["system", "servers", "TXs/s", "abort %"],
        &rows,
    );
    args.emit_json(&measured);
    if audit.events > 0 {
        println!(
            "analysis: {} memory events, {} races, {} invariant violations",
            audit.events, audit.races, audit.violations
        );
    }
    println!(
        "\nNote: multi-server rows trade client SMs for server SMs (same total {}),\n\
         and their workload restricts transfers to one partition (see csmv::multi docs).",
        scale.sms
    );
}

//! Combined Bank sweep: regenerates Fig. 2a, Fig. 2b, Fig. 4, Table I and
//! Table II from a single pass over the %ROT axis (each system runs once
//! per point instead of once per artifact).

use bench::cli::BenchArgs;
use bench::{
    bank_csmv, bank_jvstm_cpu, bank_jvstm_gpu, bank_prstm, breakdown_cells, fmt_ms, fmt_tput,
    print_analysis_summary, print_table, run_cells, Cell, Row,
};
use csmv::CsmvVariant;

fn main() {
    let args = BenchArgs::parse("bank_suite");
    let scale = args.scale.clone();
    let rots: &[u8] = &[1, 10, 25, 50, 75, 90, 99];

    struct Point {
        rot: u8,
        csmv: Row,
        nocv: Row,
        onlycs: Row,
        prstm: Row,
        jv: Row,
        cpu: Row,
    }
    let scale = &scale;
    let mut cells: Vec<Cell> = Vec::new();
    for &rot in rots {
        for variant in [CsmvVariant::Full, CsmvVariant::NoCv, CsmvVariant::OnlyCs] {
            cells.push(Box::new(move || {
                eprintln!("[bank] %ROT = {rot}: {}", variant.name());
                bank_csmv(scale, rot, variant, scale.versions)
            }));
        }
        cells.push(Box::new(move || {
            eprintln!("[bank] %ROT = {rot}: PR-STM");
            bank_prstm(scale, rot)
        }));
        cells.push(Box::new(move || {
            eprintln!("[bank] %ROT = {rot}: JVSTM-GPU");
            bank_jvstm_gpu(scale, rot)
        }));
        cells.push(Box::new(move || {
            eprintln!("[bank] %ROT = {rot}: JVSTM (CPU)");
            bank_jvstm_cpu(scale, rot)
        }));
    }
    let mut it = run_cells(args.threads, cells).into_iter();
    let pts: Vec<Point> = rots
        .iter()
        .map(|&rot| Point {
            rot,
            csmv: it.next().unwrap(),
            nocv: it.next().unwrap(),
            onlycs: it.next().unwrap(),
            prstm: it.next().unwrap(),
            jv: it.next().unwrap(),
            cpu: it.next().unwrap(),
        })
        .collect();

    // ---- Fig. 2a -----------------------------------------------------------
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.rot.to_string(),
                fmt_tput(p.csmv.throughput),
                fmt_tput(p.prstm.throughput),
                fmt_tput(p.jv.throughput),
                fmt_tput(p.cpu.throughput),
            ]
        })
        .collect();
    print_table(
        "Fig. 2a — Bank throughput (TXs/s) vs %ROT",
        &["%ROT", "CSMV", "PR-STM", "JVSTM-GPU", "JVSTM (CPU)"],
        &rows,
    );

    // ---- Fig. 2b -----------------------------------------------------------
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.rot.to_string(),
                format!("{:.2}", p.csmv.abort_pct),
                format!("{:.2}", p.prstm.abort_pct),
                format!("{:.2}", p.jv.abort_pct),
                format!("{:.2}", p.cpu.abort_pct),
            ]
        })
        .collect();
    print_table(
        "Fig. 2b — Bank abort rate (%) vs %ROT",
        &["%ROT", "CSMV", "PR-STM", "JVSTM-GPU", "JVSTM (CPU)"],
        &rows,
    );

    // ---- Fig. 4 -------------------------------------------------------------
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.rot.to_string(),
                fmt_tput(p.csmv.throughput),
                fmt_tput(p.nocv.throughput),
                fmt_tput(p.onlycs.throughput),
                fmt_tput(p.jv.throughput),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — Bank throughput (TXs/s): CSMV ablation variants",
        &["%ROT", "CSMV", "CSMV-NoCV", "CSMV-onlyCS", "JVSTM-GPU"],
        &rows,
    );

    // ---- Table I ------------------------------------------------------------
    let jv_rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            let mut row = vec![p.rot.to_string()];
            row.extend(breakdown_cells(&p.jv, false));
            row
        })
        .collect();
    print_table(
        "Table I (left) — JVSTM-GPU commit-phase breakdown (ms, Bank)",
        &[
            "%ROT",
            "Total",
            "Valid.",
            "Rec. Insert",
            "Write-back",
            "Divergence",
        ],
        &jv_rows,
    );
    let cs_rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            let mut row = vec![p.rot.to_string()];
            row.extend(breakdown_cells(&p.csmv, true));
            row
        })
        .collect();
    print_table(
        "Table I (right) — CSMV commit-phase breakdown (ms, Bank)",
        &[
            "%ROT",
            "Total",
            "Wait server",
            "Pre-Val.",
            "Valid.",
            "Rec. Insert",
            "Write-back",
            "Divergence",
        ],
        &cs_rows,
    );

    // ---- Table II -----------------------------------------------------------
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.rot.to_string(),
                fmt_ms(p.csmv.total_ms_per_tx),
                fmt_ms(p.csmv.wasted_ms_per_tx),
                fmt_ms(p.prstm.total_ms_per_tx),
                fmt_ms(p.prstm.wasted_ms_per_tx),
                fmt_ms(p.jv.total_ms_per_tx),
                fmt_ms(p.jv.wasted_ms_per_tx),
            ]
        })
        .collect();
    print_table(
        "Table II — total/wasted time per transaction (ms, Bank)",
        &[
            "%ROT",
            "CSMV Total",
            "CSMV Wasted",
            "PR-STM Total",
            "PR-STM Wasted",
            "JVSTM-GPU Total",
            "JVSTM-GPU Wasted",
        ],
        &rows,
    );

    let measured: Vec<Row> = pts
        .iter()
        .flat_map(|p| {
            [
                p.csmv.clone(),
                p.nocv.clone(),
                p.onlycs.clone(),
                p.prstm.clone(),
                p.jv.clone(),
                p.cpu.clone(),
            ]
        })
        .collect();
    print_analysis_summary(&measured);
    args.emit_json(&measured);

    // ---- headline ratios ------------------------------------------------------
    let first = &pts[0];
    let last = pts.last().unwrap();
    println!(
        "\nCSMV/PR-STM     at 99% ROT: {:8.1}x   (paper: ~1000x)",
        last.csmv.throughput / last.prstm.throughput.max(1e-12)
    );
    println!(
        "CSMV/JVSTM-GPU  at  1% ROT: {:8.1}x   (paper: ~20x)",
        first.csmv.throughput / first.jv.throughput.max(1e-12)
    );
    println!(
        "CSMV/JVSTM(CPU) at  1% ROT: {:8.1}x   (paper: ~20x)",
        first.csmv.throughput / first.cpu.throughput.max(1e-12)
    );
    println!(
        "CSMV/CSMV-NoCV  at  1% ROT: {:8.2}x   (paper: >1, strongest of the ablations)",
        first.csmv.throughput / first.nocv.throughput.max(1e-12)
    );
    println!(
        "JVSTM-GPU/onlyCS at 1% ROT: {:8.2}x   (paper: >1 — the bare skeleton loses)",
        first.jv.throughput / first.onlycs.throughput.max(1e-12)
    );
}

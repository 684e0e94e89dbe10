//! Combined MemcachedGPU sweep: regenerates Fig. 3, Table III and Table IV
//! from a single pass over the associativity axis.

use bench::cli::BenchArgs;
use bench::{
    fmt_ms, fmt_tput, mc_csmv, mc_jvstm_gpu, mc_prstm, print_analysis_summary, print_table,
    run_cells, Cell, Row,
};
use csmv::CsmvVariant;
use stm_core::Phase;

const CLOCK_GHZ: f64 = 1.58;

fn us(c: u64) -> String {
    let v = c as f64 / (CLOCK_GHZ * 1e3);
    if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn bd_cells(row: &Row, csmv_style: bool) -> Vec<String> {
    let bd = |p: Phase| us(row.client_bd.phase(p) + row.server_bd.phase(p));
    let divergence = us(row.client_bd.commit_divergence() + row.server_bd.commit_divergence());
    let total = us(row.client_bd.commit_total() + row.server_bd.commit_total());
    let mut cells = vec![total];
    if csmv_style {
        cells.push(bd(Phase::WaitServer));
        cells.push(bd(Phase::PreValidation));
    }
    cells.push(bd(Phase::Validation));
    cells.push(bd(Phase::RecordInsert));
    cells.push(bd(Phase::WriteBack));
    cells.push(divergence);
    cells
}

fn main() {
    let args = BenchArgs::parse("mc_suite");
    let scale = args.scale.clone();
    let ways: &[u64] = &[4, 8, 16, 32, 64, 128, 256];

    struct Point {
        w: u64,
        csmv: Row,
        prstm: Row,
        jv: Row,
    }
    let scale = &scale;
    let mut cells: Vec<Cell> = Vec::new();
    for &w in ways {
        cells.push(Box::new(move || {
            eprintln!("[mc] ways = {w}: CSMV");
            mc_csmv(scale, w, CsmvVariant::Full)
        }));
        cells.push(Box::new(move || {
            eprintln!("[mc] ways = {w}: PR-STM");
            mc_prstm(scale, w)
        }));
        cells.push(Box::new(move || {
            eprintln!("[mc] ways = {w}: JVSTM-GPU");
            mc_jvstm_gpu(scale, w)
        }));
    }
    let mut it = run_cells(args.threads, cells).into_iter();
    let pts: Vec<Point> = ways
        .iter()
        .map(|&w| Point {
            w,
            csmv: it.next().unwrap(),
            prstm: it.next().unwrap(),
            jv: it.next().unwrap(),
        })
        .collect();

    let headers = ["ways", "CSMV", "PR-STM", "JVSTM-GPU"];
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.w.to_string(),
                fmt_tput(p.csmv.throughput),
                fmt_tput(p.prstm.throughput),
                fmt_tput(p.jv.throughput),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 — MemcachedGPU throughput (TXs/s) vs associativity",
        &headers,
        &rows,
    );

    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.w.to_string(),
                format!("{:.3}", p.csmv.abort_pct),
                format!("{:.3}", p.prstm.abort_pct),
                format!("{:.3}", p.jv.abort_pct),
            ]
        })
        .collect();
    print_table("Fig. 3 — MemcachedGPU abort rate (%)", &headers, &rows);

    let jv_rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            let mut row = vec![p.w.to_string()];
            row.extend(bd_cells(&p.jv, false));
            row
        })
        .collect();
    print_table(
        "Table III (left) — JVSTM-GPU commit-phase breakdown (µs, Memcached)",
        &[
            "ways",
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
            let mut row = vec![p.w.to_string()];
            row.extend(bd_cells(&p.csmv, true));
            row
        })
        .collect();
    print_table(
        "Table III (right) — CSMV commit-phase breakdown (µs, Memcached)",
        &[
            "ways",
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

    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.w.to_string(),
                fmt_ms(p.jv.total_ms_per_tx),
                fmt_ms(p.jv.wasted_ms_per_tx),
                fmt_ms(p.csmv.total_ms_per_tx),
                fmt_ms(p.csmv.wasted_ms_per_tx),
                fmt_ms(p.prstm.total_ms_per_tx),
                fmt_ms(p.prstm.wasted_ms_per_tx),
            ]
        })
        .collect();
    print_table(
        "Table IV — total/wasted time per transaction (ms, Memcached)",
        &[
            "ways",
            "JVSTM-GPU Total",
            "JVSTM-GPU Wasted",
            "CSMV Total",
            "CSMV Wasted",
            "PR-STM Total",
            "PR-STM Wasted",
        ],
        &rows,
    );

    let measured: Vec<Row> = pts
        .iter()
        .flat_map(|p| [p.csmv.clone(), p.prstm.clone(), p.jv.clone()])
        .collect();
    print_analysis_summary(&measured);
    args.emit_json(&measured);

    let first = &pts[0];
    let last = pts.last().unwrap();
    println!(
        "\nPR-STM/CSMV     at   4 ways: {:6.2}x   (paper: ~1.6x — PR-STM wins short ROTs)",
        first.prstm.throughput / first.csmv.throughput.max(1e-12)
    );
    println!(
        "CSMV/PR-STM     at 256 ways: {:6.2}x   (paper: ~15x)",
        last.csmv.throughput / last.prstm.throughput.max(1e-12)
    );
    println!(
        "CSMV/JVSTM-GPU  at   4 ways: {:6.2}x   (paper: ~50x)",
        first.csmv.throughput / first.jv.throughput.max(1e-12)
    );
    println!(
        "CSMV/JVSTM-GPU  at 256 ways: {:6.2}x   (paper: ~2x)",
        last.csmv.throughput / last.jv.throughput.max(1e-12)
    );
}

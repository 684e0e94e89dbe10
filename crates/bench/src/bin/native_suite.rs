//! Native-backend sweep: CSMV on real OS threads, bank and list
//! workloads, thread count on the x axis. This is the real-throughput
//! artifact (wall-clock txn/sec, commit-latency quantiles) that
//! `bench-gate` gates — counts only — against
//! `results/baselines/native/`.
//!
//! The total transaction count is fixed per scale (see
//! `bench::native_txs`), so the sweep measures scaling, not extra work.

use bench::cli::BenchArgs;
use bench::{bank_native, fmt_tput, list_native, native_txs, print_table, Row};

/// %ROT for the bank lanes: a mixed update/read-only workload.
const ROT_PCT: u8 = 20;

fn main() {
    let mut args = BenchArgs::parse("native_suite");
    // This bench *is* the native path; run natively even without the flag
    // so `native_suite` and `native_suite --backend native` agree.
    args.backend = "native".to_string();
    let scale = &args.scale;
    let sweep: &[(usize, usize)] = &[(1, 1), (2, 1), (4, 2), (8, 2)];

    let mut rows: Vec<Row> = Vec::new();
    for &(clients, servers) in sweep {
        eprintln!(
            "[native] bank: {clients} client(s) x {servers} server(s), {} txs/client",
            native_txs(scale, clients)
        );
        let mut bank = bank_native(scale, ROT_PCT, clients, servers);
        bank.system = "Bank (native)".into();
        bank.x = clients as u64;
        rows.push(bank);
    }
    for &(clients, servers) in sweep {
        eprintln!("[native] list: {clients} client(s) x {servers} server(s)");
        rows.push(list_native(scale, clients, servers));
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                r.x.to_string(),
                fmt_tput(r.txn_per_sec),
                format!("{:.1}", r.latency_p50_us),
                format!("{:.1}", r.latency_p99_us),
                format!("{:.2}", r.abort_pct),
                r.commits.to_string(),
                r.failed.to_string(),
            ]
        })
        .collect();
    print_table(
        "CSMV native backend — wall-clock throughput vs client threads",
        &[
            "workload", "threads", "txn/s", "p50 us", "p99 us", "abort %", "commits", "failed",
        ],
        &cells,
    );

    args.emit_json(&rows);

    // Headline scaling ratio: most-threaded bank lane over single-threaded.
    let t1 = rows
        .iter()
        .find(|r| r.system == "Bank (native)" && r.x == 1)
        .map(|r| r.txn_per_sec)
        .unwrap_or(0.0);
    let tmax = rows
        .iter()
        .filter(|r| r.system == "Bank (native)")
        .max_by_key(|r| r.x)
        .map(|r| (r.x, r.txn_per_sec))
        .unwrap_or((1, 0.0));
    println!(
        "\nBank native speedup, {} threads vs 1: {:.2}x",
        tmax.0,
        tmax.1 / t1.max(1e-12)
    );
}

//! Table V — memory occupied by transactional data items, throughput and
//! abort rate when CSMV retains a varying number of versions per VBox
//! (Bank, 90 % ROT), against single-versioned PR-STM.
//!
//! (The paper's column headers read "2v 3v 4v 7v 8v 10v 10v" while the byte
//! sizes step uniformly by one version; we sweep {2,3,4,5,8,10} — see
//! DESIGN.md.)

use bench::cli::BenchArgs;
use bench::{bank_csmv, bank_prstm, fmt_tput, print_table, run_cells, Cell};

fn main() {
    let args = BenchArgs::parse("table5");
    let scale = args.scale.clone();
    let rot = 90u8;
    let versions: &[u64] = &[2, 3, 4, 5, 8, 10];

    let scale = &scale;
    let mut cells: Vec<Cell> = vec![Box::new(move || {
        eprintln!("[table5] PR-STM");
        bank_prstm(scale, rot)
    })];
    for &v in versions {
        cells.push(Box::new(move || {
            eprintln!("[table5] CSMV {v}v");
            bank_csmv(scale, rot, csmv::CsmvVariant::Full, v)
        }));
    }
    let mut measured = run_cells(args.threads, cells);
    // The swept axis is versions-per-VBox; PR-STM is the 1-version point.
    measured[0].x = 1;
    for (row, &v) in measured[1..].iter_mut().zip(versions) {
        row.x = v;
    }

    let pr = &measured[0];
    let pr_bytes = scale.accounts * 4;
    let mut size_row = vec![
        "Tx. Data Size [KB]".to_string(),
        format!("{:.2}", pr_bytes as f64 / 1024.0),
    ];
    let mut tput_row = vec!["Throughput [TXs/s]".to_string(), fmt_tput(pr.throughput)];
    let mut abort_row = vec!["Abort rate [%]".to_string(), format!("{:.2}", pr.abort_pct)];
    for row in &measured[1..] {
        // Paper formula: 4 + (sizeof(X)+4)·#versions bytes per item.
        let bytes = scale.accounts * (4 + 8 * row.x);
        size_row.push(format!("{:.0}", bytes as f64 / 1024.0));
        tput_row.push(fmt_tput(row.throughput));
        abort_row.push(format!("{:.2}", row.abort_pct));
    }

    let mut headers: Vec<String> = vec!["".into(), "PR-STM".into()];
    headers.extend(versions.iter().map(|v| format!("CSMV {v}v")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Table V — memory vs versions per VBox (Bank, 90% ROT)",
        &headers_ref,
        &[size_row, tput_row, abort_row],
    );
    args.emit_json(&measured);
}

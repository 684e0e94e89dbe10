//! Guard tests for `scripts/bench-bins.sh`: every binary under
//! `crates/bench/src/bin/` must be classified in exactly one manifest
//! group, and every manifest entry must name a real binary. CI and
//! `run_experiments.sh` iterate the manifest instead of hard-coded
//! lists, so an unlisted bin would silently fall out of coverage.
//!
//! `results/baselines/` must mirror the manifest too: directory-mode
//! `bench-gate` demands a candidate for every baseline file, so an orphan
//! baseline fails "candidate missing" — but only in CI. Here it fails in
//! `cargo test -p bench`.

use std::collections::BTreeSet;
use std::path::Path;

/// Bin names are cargo target names: `bench_gate.rs` builds the
/// `bench-gate` target (see `[[bin]]` in Cargo.toml); every other stem
/// is its own target name.
fn bin_name(stem: &str) -> String {
    if stem == "bench_gate" {
        "bench-gate".to_string()
    } else {
        stem.to_string()
    }
}

fn manifest_groups(src: &str) -> Vec<(String, Vec<String>)> {
    src.lines()
        .filter_map(|line| {
            let (name, value) = line.split_once("_BINS=")?;
            let bins = value
                .trim_matches('"')
                .split_whitespace()
                .map(str::to_string)
                .collect();
            Some((format!("{name}_BINS"), bins))
        })
        .collect()
}

fn read_manifest(root: &Path) -> Vec<(String, Vec<String>)> {
    let manifest_path = root.join("../../scripts/bench-bins.sh");
    let manifest = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| panic!("{}: {e}", manifest_path.display()));
    manifest_groups(&manifest)
}

/// The stems of `dir`'s `*.json` files and the names of its sub-directories.
fn baseline_entries(dir: &Path) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut reports = BTreeSet::new();
    let mut dirs = BTreeSet::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            dirs.insert(path.file_name().unwrap().to_str().unwrap().to_string());
        } else if path.extension().is_some_and(|e| e == "json") {
            reports.insert(path.file_stem().unwrap().to_str().unwrap().to_string());
        }
    }
    (reports, dirs)
}

#[test]
fn baselines_mirror_the_manifest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let groups = read_manifest(root);
    let group = |name: &str| -> BTreeSet<String> {
        let (_, bins) = groups
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("manifest must define {name}"));
        bins.iter().cloned().collect()
    };
    let baselines = root.join("../../results/baselines");

    let (reports, dirs) = baseline_entries(&baselines);
    assert_eq!(
        reports,
        group("SIM_BINS"),
        "results/baselines/*.json must be exactly one report per SIM_BINS entry"
    );
    assert_eq!(
        dirs,
        BTreeSet::from(["service".to_string()]),
        "results/baselines/ may hold no sub-directory but service/"
    );

    let service_bins = group("SERVICE_BINS");
    let (reports, _) = baseline_entries(&baselines.join("service"));
    for report in &reports {
        assert!(
            service_bins.iter().any(|bin| report.starts_with(bin)),
            "results/baselines/service/{report}.json is not named after a SERVICE_BINS entry"
        );
    }
}

#[test]
fn every_bench_bin_is_classified_in_the_manifest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let groups = read_manifest(root);
    assert!(
        groups.iter().any(|(n, _)| n == "SIM_BINS")
            && groups.iter().any(|(n, _)| n == "SERVICE_BINS"),
        "manifest must define SIM_BINS and SERVICE_BINS"
    );

    let mut listed: BTreeSet<String> = BTreeSet::new();
    for (group, bins) in &groups {
        for bin in bins {
            assert!(
                listed.insert(bin.clone()),
                "{bin} appears in more than one manifest group (last: {group})"
            );
        }
    }

    let bins_dir = root.join("src/bin");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&bins_dir)
        .expect("src/bin must exist")
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension()? != "rs" {
                return None;
            }
            Some(bin_name(path.file_stem()?.to_str()?))
        })
        .collect();

    let unlisted: Vec<&String> = on_disk.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "bench bins missing from scripts/bench-bins.sh: {unlisted:?} — \
         classify each as SIM, SERVICE or TOOL"
    );
    let phantom: Vec<&String> = listed.difference(&on_disk).collect();
    assert!(
        phantom.is_empty(),
        "manifest lists bins that do not exist: {phantom:?}"
    );
}

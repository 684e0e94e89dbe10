//! Integration tests: the lint pass must flag the seeded fixture and
//! pass the real workspace clean.

use std::path::{Path, PathBuf};

use xtask::lint::{
    check_abort_reason_taxonomy, check_abort_reason_usage, check_no_panic_in_server_path,
    check_ordered_protocol_access,
};
use xtask::lint_workspace;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn fixture_with_plain_seq_access_fails() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/plain_seq_access.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");

    let r1 = check_ordered_protocol_access(&path, &src);
    assert_eq!(
        r1.len(),
        2,
        "expected the plain seq read and the Plain-order GTS write: {r1:?}"
    );
    assert!(r1.iter().all(|f| f.rule == "ordered-protocol-access"));
    assert!(r1.iter().any(|f| f.message.contains("req_seq_addr")));
    assert!(r1.iter().any(|f| f.message.contains("gts_addr")));

    let r2 = check_no_panic_in_server_path(&path, &src);
    assert_eq!(r2.len(), 1, "expected the unwrap in WorkerWarp: {r2:?}");
    assert_eq!(r2[0].rule, "no-panic-in-server-path");
}

#[test]
fn fixture_with_native_server_panic_fails() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/native_server_panic.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");

    let r2 = check_no_panic_in_server_path(&path, &src);
    assert_eq!(r2.len(), 1, "expected the unwrap in Validator: {r2:?}");
    assert_eq!(r2[0].rule, "no-panic-in-server-path");

    // The usage check runs against the real taxonomy from stm-core.
    let metrics = repo_root().join("crates/stm-core/src/metrics.rs");
    let metrics_src = std::fs::read_to_string(&metrics).expect("metrics.rs readable");
    let variants: Vec<String> = stm_core_variant_names(&metrics_src);
    let r3 = check_abort_reason_usage(&path, &src, &variants);
    assert_eq!(r3.len(), 1, "expected the invented reason: {r3:?}");
    assert!(r3[0].message.contains("ChannelHiccup"));
}

/// Variant names recovered the simple way for the test: every
/// `Name = <id>,` line inside the enum body.
fn stm_core_variant_names(metrics_src: &str) -> Vec<String> {
    let body = metrics_src
        .split("enum AbortReason")
        .nth(1)
        .and_then(|s| s.split('{').nth(1))
        .and_then(|s| s.split('}').next())
        .expect("enum AbortReason body");
    body.lines()
        .filter_map(|l| {
            let l = l.trim();
            let name: String = l.chars().take_while(|c| c.is_alphanumeric()).collect();
            (!name.is_empty()
                && l.contains('=')
                && name.chars().next().is_some_and(|c| c.is_uppercase()))
            .then_some(name)
        })
        .collect()
}

#[test]
fn workspace_is_clean() {
    let findings = lint_workspace(&repo_root()).expect("workspace files readable");
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_abort_reason_taxonomy_is_covered() {
    let path = repo_root().join("crates/stm-core/src/metrics.rs");
    let src = std::fs::read_to_string(&path).expect("metrics.rs readable");
    let findings = check_abort_reason_taxonomy(&path, &src);
    assert!(findings.is_empty(), "taxonomy findings: {findings:?}");
}

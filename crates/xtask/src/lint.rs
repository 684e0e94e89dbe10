//! The lint pass implementation. See the crate docs for the rule list.

use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Marker comment that suppresses findings on its line and the two lines
/// below.
const ALLOW_MARKER: &str = "xtask-lint: allow";

/// Accessor families that perform *unordered* simulated-memory accesses.
const PLAIN_ACCESSORS: &[&str] = &[
    "global_read",
    "global_read1",
    "global_read_bulk",
    "global_write",
    "global_write1",
    "global_write_bulk",
    "shared_read",
    "shared_read1",
    "shared_write",
    "shared_write1",
];

/// Accessor families that take an explicit `MemOrder` argument.
const ORD_ACCESSORS: &[&str] = &[
    "global_read_ord",
    "global_read1_ord",
    "global_write_ord",
    "global_write1_ord",
    "shared_read_ord",
    "shared_read1_ord",
    "shared_write_ord",
    "shared_write1_ord",
];

/// Address helpers naming protocol control words: batch sequence words,
/// the GTS, and ATR publication fields. Any access that mentions one of
/// these in its argument list is a protocol-word access.
const PROTOCOL_WORD_TOKENS: &[&str] = &[
    "req_seq_addr",
    "resp_seq_addr",
    "slot_seq_addr",
    "slot_cts_addr",
    "next_cts_addr",
    "next_local_addr",
    "lock_addr",
    "gts_addr",
];

/// Commit-server types whose impl blocks must be panic-free: the
/// simulated warps and the steps both simulated workers share (the batch
/// intake and reply of `WorkerPort`, the conflict test of `BatchTx`), the native backend's worker threads and the validator
/// each of them commits through (the server role, run in place), the
/// engine front door, the network service's per-connection loop (a
/// panicking connection thread silently drops the client and can leak
/// in-flight completions), and what workers run inside: the engine's
/// intake and jobs (a panic in `refill` or in a job's `complete` kills a
/// worker mid-batch and leaks a GTS hole), the service's transaction body
/// (`KvTx`'s `TxLogic` impl runs on a worker, with the same effect), the
/// sink workers settle a connection's tickets into (`Settled`) and the
/// connection's reply half (`Replies`; a panic in either drops the client
/// mid-pipeline).
const SERVER_IMPL_TYPES: &[&str] = &[
    "ReceiverWarp",
    "WorkerWarp",
    "ServerControl",
    "MultiWorker",
    "WorkerPort",
    "BatchTx",
    "Validator",
    "NativeWorker",
    "NativeEngine",
    "Intake",
    "EngineJob",
    "KvTx",
    "Connection",
    "Settled",
    "Replies",
];

// --- lexical infrastructure ---------------------------------------------

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Replace comment bodies and string/char literal contents with spaces,
/// preserving byte offsets and newlines, so later scans cannot be fooled
/// by tokens inside comments or strings. The returned mask has the same
/// length as `src`.
pub fn mask_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                out[i] = b' ';
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        out[i] = b' ';
                        if i + 1 < b.len() && b[i + 1] != b'\n' {
                            out[i + 1] = b' ';
                        }
                        i += 2;
                    } else if b[i] == b'"' {
                        out[i] = b' ';
                        i += 1;
                        break;
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len()
                && (b[i + 1] == b'"' || b[i + 1] == b'#')
                && (i == 0 || !is_ident_char(b[i - 1])) =>
            {
                // Raw string: r"..." or r#"..."# (any hash depth).
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    out[i..=j].fill(b' ');
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == b'"' {
                            let mut h = 0;
                            while j + 1 + h < b.len() && b[j + 1 + h] == b'#' && h < hashes {
                                h += 1;
                            }
                            if h == hashes {
                                out[j..=j + hashes].fill(b' ');
                                j += hashes + 1;
                                break 'raw;
                            }
                        }
                        if b[j] != b'\n' {
                            out[j] = b' ';
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. A literal closes with `'`
                // within a few bytes; a lifetime has no closing quote.
                let close = if i + 2 < b.len() && b[i + 1] == b'\\' {
                    // '\n', '\'', '\\', '\u{...}' — find the closing quote.
                    (i + 2..b.len().min(i + 12)).find(|&k| b[k] == b'\'')
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    Some(i + 2)
                } else {
                    None
                };
                match close {
                    Some(end) => {
                        for k in i..=end {
                            if b[k] != b'\n' {
                                out[k] = b' ';
                            }
                        }
                        i = end + 1;
                    }
                    None => i += 1, // lifetime
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking only replaces ASCII bytes")
}

/// Byte offset of each line start (line numbers are 1-based).
fn line_starts(src: &str) -> Vec<usize> {
    let mut v = vec![0];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            v.push(i + 1);
        }
    }
    v
}

fn line_of(offset: usize, starts: &[usize]) -> usize {
    starts.partition_point(|&s| s <= offset)
}

/// Is `hay[pos..pos + needle.len()]` the identifier `needle` (with
/// word-boundary checks on both sides)?
fn ident_at(hay: &[u8], pos: usize, needle: &str) -> bool {
    let n = needle.len();
    if pos + n > hay.len() || &hay[pos..pos + n] != needle.as_bytes() {
        return false;
    }
    let before_ok = pos == 0 || !is_ident_char(hay[pos - 1]);
    let after_ok = pos + n == hay.len() || !is_ident_char(hay[pos + n]);
    before_ok && after_ok
}

/// All positions where `needle` occurs as a whole identifier.
fn ident_positions(masked: &str, needle: &str) -> Vec<usize> {
    let hay = masked.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = masked[from..].find(needle) {
        let pos = from + rel;
        if ident_at(hay, pos, needle) {
            out.push(pos);
        }
        from = pos + needle.len();
    }
    out
}

/// Given the offset of an opening delimiter, return the offset one past
/// its balanced closing counterpart.
fn balanced_end(masked: &[u8], open_at: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in masked.iter().enumerate().skip(open_at) {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
    }
    None
}

/// Starting at `pos` (just past an identifier), skip whitespace and
/// return the offset of a `(` if that is the next token.
fn call_paren(masked: &[u8], mut pos: usize) -> Option<usize> {
    while pos < masked.len() && masked[pos].is_ascii_whitespace() {
        pos += 1;
    }
    (pos < masked.len() && masked[pos] == b'(').then_some(pos)
}

/// Byte ranges of `#[cfg(test)] mod` bodies (balanced braces).
fn test_mod_ranges(masked: &str) -> Vec<Range<usize>> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = masked[from..].find("#[cfg(test)]") {
        let at = from + rel;
        from = at + 1;
        // Accept only if the next item keyword is `mod`.
        let mut j = at + "#[cfg(test)]".len();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if !ident_at(bytes, j, "mod") {
            continue;
        }
        if let Some(open_rel) = masked[j..].find('{') {
            if let Some(end) = balanced_end(bytes, j + open_rel, b'{', b'}') {
                out.push(at..end);
            }
        }
    }
    out
}

/// Byte ranges of impl-block bodies whose header mentions one of `types`.
fn impl_ranges(masked: &str, types: &[&str]) -> Vec<Range<usize>> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for pos in ident_positions(masked, "impl") {
        let Some(open_rel) = masked[pos..].find('{') else {
            continue;
        };
        let header = &masked[pos..pos + open_rel];
        if !types.iter().any(|t| !ident_positions(header, t).is_empty()) {
            continue;
        }
        if let Some(end) = balanced_end(bytes, pos + open_rel, b'{', b'}') {
            out.push(pos..end);
        }
    }
    out
}

fn in_ranges(pos: usize, ranges: &[Range<usize>]) -> bool {
    ranges.iter().any(|r| r.contains(&pos))
}

/// Is a finding at source lines `[first, last]` suppressed by an allow
/// marker on those lines or up to two lines above `first`?
fn suppressed(raw_lines: &[&str], first: usize, last: usize) -> bool {
    let lo = first.saturating_sub(3); // two lines above, 0-based index
    let hi = last.min(raw_lines.len());
    raw_lines[lo..hi].iter().any(|l| l.contains(ALLOW_MARKER))
}

// --- R1: ordered protocol access ----------------------------------------

/// Check one source file for unordered accesses to protocol control
/// words.
pub fn check_ordered_protocol_access(path: &Path, src: &str) -> Vec<Finding> {
    let masked = mask_comments_and_strings(src);
    let bytes = masked.as_bytes();
    let starts = line_starts(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let tests = test_mod_ranges(&masked);
    let mut findings = Vec::new();

    let mut check_family = |names: &[&str], ord: bool| {
        for &name in names {
            for pos in ident_positions(&masked, name) {
                if in_ranges(pos, &tests) {
                    continue;
                }
                let Some(open) = call_paren(bytes, pos + name.len()) else {
                    continue;
                };
                let Some(end) = balanced_end(bytes, open, b'(', b')') else {
                    continue;
                };
                let args = &masked[open..end];
                let touched: Vec<&str> = PROTOCOL_WORD_TOKENS
                    .iter()
                    .copied()
                    .filter(|t| !ident_positions(args, t).is_empty())
                    .collect();
                if touched.is_empty() {
                    continue;
                }
                let plain_order = ord && !ident_positions(args, "Plain").is_empty();
                if ord && !plain_order {
                    continue;
                }
                let (first, last) = (line_of(pos, &starts), line_of(end - 1, &starts));
                if suppressed(&raw_lines, first, last) {
                    continue;
                }
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: first,
                    rule: "ordered-protocol-access",
                    message: if ord {
                        format!(
                            "`{name}` accesses protocol word(s) {} with MemOrder::Plain; \
                             use Acquire/Release or stronger",
                            touched.join(", ")
                        )
                    } else {
                        format!(
                            "plain `{name}` accesses protocol word(s) {}; use the `_ord` \
                             variant with Acquire/Release or an atomic",
                            touched.join(", ")
                        )
                    },
                });
            }
        }
    };
    check_family(PLAIN_ACCESSORS, false);
    check_family(ORD_ACCESSORS, true);
    findings
}

// --- R2: no panics in server commit paths -------------------------------

/// Check one source file for `.unwrap()` / `.expect(...)` inside
/// commit-server warp impl blocks.
pub fn check_no_panic_in_server_path(path: &Path, src: &str) -> Vec<Finding> {
    let masked = mask_comments_and_strings(src);
    let bytes = masked.as_bytes();
    let starts = line_starts(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let tests = test_mod_ranges(&masked);
    let impls = impl_ranges(&masked, SERVER_IMPL_TYPES);
    let mut findings = Vec::new();
    for method in ["unwrap", "expect"] {
        for pos in ident_positions(&masked, method) {
            if !in_ranges(pos, &impls) || in_ranges(pos, &tests) {
                continue;
            }
            // Must be a method call: preceded by `.`, followed by `(`.
            let mut before = pos;
            while before > 0 && bytes[before - 1].is_ascii_whitespace() {
                before -= 1;
            }
            if before == 0 || bytes[before - 1] != b'.' {
                continue;
            }
            if call_paren(bytes, pos + method.len()).is_none() {
                continue;
            }
            let line = line_of(pos, &starts);
            if suppressed(&raw_lines, line, line) {
                continue;
            }
            findings.push(Finding {
                file: path.to_path_buf(),
                line,
                rule: "no-panic-in-server-path",
                message: format!(
                    "`.{method}(...)` in a commit-server warp: a panicking server warp \
                     silently deadlocks every client; propagate or degrade instead"
                ),
            });
        }
    }
    findings
}

// --- R3: abort-reason taxonomy coverage ---------------------------------

/// Variant names (and declaration lines) of `enum AbortReason` in the
/// masked source, or `None` if the declaration is absent.
fn abort_reason_variants(masked: &str, starts: &[usize]) -> Option<Vec<(String, usize)>> {
    let bytes = masked.as_bytes();
    // The declaration: the occurrence preceded by the `enum` keyword.
    let enum_kw = ident_positions(masked, "AbortReason")
        .into_iter()
        .find(|&p| masked[..p].trim_end().ends_with("enum"))?;
    let open = enum_kw + masked[enum_kw..].find('{')?;
    let end = balanced_end(bytes, open, b'{', b'}')?;
    let body = &masked[open + 1..end - 1];
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    let bb = body.as_bytes();
    while i < bb.len() {
        if bb[i].is_ascii_uppercase() && (i == 0 || !is_ident_char(bb[i - 1])) {
            let mut j = i;
            while j < bb.len() && is_ident_char(bb[j]) {
                j += 1;
            }
            variants.push((body[i..j].to_string(), line_of(open + 1 + i, starts)));
            // Skip to the variant separator (`,`), past any `= id`.
            while j < bb.len() && bb[j] != b',' {
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    Some(variants)
}

/// Check that every `AbortReason` variant is mapped in the metrics
/// taxonomy (`ALL`, `from_id`, `key`).
pub fn check_abort_reason_taxonomy(path: &Path, src: &str) -> Vec<Finding> {
    let masked = mask_comments_and_strings(src);
    let bytes = masked.as_bytes();
    let starts = line_starts(src);
    let mut findings = Vec::new();

    let Some(variants) = abort_reason_variants(&masked, &starts) else {
        findings.push(Finding {
            file: path.to_path_buf(),
            line: 1,
            rule: "abort-reason-taxonomy",
            message: "could not find `enum AbortReason` declaration".into(),
        });
        return findings;
    };

    // The three taxonomy surfaces every variant must appear on. `ALL` is
    // a `const`: take the array literal after its `=` (the `[AbortReason;
    // N]` type annotation would otherwise match first). `from_id`/`key`
    // are fns: take the body of the `fn`-prefixed declaration.
    let surface = |name: &str| -> Option<String> {
        let anchor = if name == "ALL" { "const" } else { "fn" };
        let pos = ident_positions(&masked, name)
            .into_iter()
            .find(|&p| masked[..p].trim_end().ends_with(anchor))?;
        if name == "ALL" {
            let eq = pos + masked[pos..].find('=')?;
            let open = eq + masked[eq..].find('[')?;
            let end = balanced_end(bytes, open, b'[', b']')?;
            Some(masked[open..end].to_string())
        } else {
            let open = pos + masked[pos..].find('{')?;
            let end = balanced_end(bytes, open, b'{', b'}')?;
            Some(masked[open..end].to_string())
        }
    };
    for name in ["ALL", "from_id", "key"] {
        let Some(text) = surface(name) else {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: 1,
                rule: "abort-reason-taxonomy",
                message: format!("could not find `AbortReason::{name}`"),
            });
            continue;
        };
        for (variant, line) in &variants {
            if ident_positions(&text, variant).is_empty() {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: *line,
                    rule: "abort-reason-taxonomy",
                    message: format!(
                        "AbortReason::{variant} is not mapped in `{name}` — every abort \
                         reason must be covered by the metrics taxonomy"
                    ),
                });
            }
        }
    }
    findings
}

/// Check that every `AbortReason::Variant` referenced in `src` names a
/// variant of the declared taxonomy. Extends R3 to crates that *consume*
/// the taxonomy (the native backend's server/worker modules): the lexical
/// pass also covers fixture files and lint-only branches the compiler
/// never sees.
pub fn check_abort_reason_usage(path: &Path, src: &str, variants: &[String]) -> Vec<Finding> {
    let masked = mask_comments_and_strings(src);
    let bytes = masked.as_bytes();
    let starts = line_starts(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    for pos in ident_positions(&masked, "AbortReason") {
        // A use site: `AbortReason :: Variant`.
        let mut j = pos + "AbortReason".len();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j + 1 >= bytes.len() || bytes[j] != b':' || bytes[j + 1] != b':' {
            continue;
        }
        j += 2;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let start = j;
        while j < bytes.len() && is_ident_char(bytes[j]) {
            j += 1;
        }
        let name = &masked[start..j];
        // Associated consts/fns (`ALL`, `from_id`, `key`, ...) are not
        // variants; variants are CamelCase identifiers.
        if name.is_empty()
            || !name.as_bytes()[0].is_ascii_uppercase()
            || name.bytes().all(|b| !b.is_ascii_lowercase())
        {
            continue;
        }
        if variants.iter().any(|v| v == name) {
            continue;
        }
        let line = line_of(pos, &starts);
        if suppressed(&raw_lines, line, line) {
            continue;
        }
        findings.push(Finding {
            file: path.to_path_buf(),
            line,
            rule: "abort-reason-taxonomy",
            message: format!(
                "AbortReason::{name} is not a declared taxonomy variant — abort \
                 reasons used outside stm-core must come from the shared taxonomy"
            ),
        });
    }
    findings
}

// --- driver -------------------------------------------------------------

/// Run every rule over the workspace rooted at `root`. Returns all
/// findings (empty = clean).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    // R1 over every csmv source file (the only crate that touches
    // protocol words); R2 over the commit-server modules; R3 over the
    // metrics taxonomy.
    let csmv_src = root.join("crates/csmv/src");
    let mut csmv_files: Vec<PathBuf> = std::fs::read_dir(&csmv_src)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    csmv_files.sort();
    for path in &csmv_files {
        let src = std::fs::read_to_string(path)?;
        findings.extend(check_ordered_protocol_access(path, &src));
        if path
            .file_name()
            .is_some_and(|f| f == "server.rs" || f == "multi.rs")
        {
            findings.extend(check_no_panic_in_server_path(path, &src));
        }
    }
    let metrics = root.join("crates/stm-core/src/metrics.rs");
    let src = std::fs::read_to_string(&metrics)?;
    findings.extend(check_abort_reason_taxonomy(&metrics, &src));
    // R2 and the R3 usage extension over the native backend's validator
    // and worker modules: the same panic-free discipline applies to real
    // OS threads, and every reason they emit must be a taxonomy variant.
    let variants: Vec<String> = abort_reason_variants(&mask_comments_and_strings(&src), &[])
        .map(|v| v.into_iter().map(|(name, _)| name).collect())
        .unwrap_or_default();
    for file in ["engine.rs", "validator.rs", "worker.rs"] {
        let path = root.join("crates/csmv-native/src").join(file);
        let src = std::fs::read_to_string(&path)?;
        findings.extend(check_no_panic_in_server_path(&path, &src));
        findings.extend(check_abort_reason_usage(&path, &src, &variants));
    }
    // The network service's protocol surface: the per-connection loop
    // must never panic (it would drop the client mid-pipeline), and any
    // abort reason it surfaces to clients must be a taxonomy variant.
    for file in ["conn.rs", "command.rs"] {
        let path = root.join("crates/csmv-service/src").join(file);
        let src = std::fs::read_to_string(&path)?;
        findings.extend(check_no_panic_in_server_path(&path, &src));
        findings.extend(check_abort_reason_usage(&path, &src, &variants));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_hides_strings_and_comments() {
        let src = "let a = \"global_read(gts_addr)\"; // global_write(gts_addr)\nb";
        let m = mask_comments_and_strings(src);
        assert_eq!(m.len(), src.len());
        assert!(!m.contains("global_read"));
        assert!(!m.contains("global_write"));
        assert!(m.contains("let a ="));
        assert!(m.ends_with("\nb"));
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = r##"let s = r#"shared_read(lock_addr)"#; let c = '"'; gts_addr"##;
        let m = mask_comments_and_strings(src);
        assert!(!m.contains("shared_read"));
        assert!(m.contains("gts_addr"));
    }

    #[test]
    fn plain_access_to_seq_word_is_flagged() {
        let src = "fn f(w: &mut W) { let s = w.global_read1(0, proto.req_seq_addr(slot)); }";
        let f = check_ordered_protocol_access(Path::new("x.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordered-protocol-access");
        assert!(f[0].message.contains("req_seq_addr"));
    }

    #[test]
    fn ord_access_with_plain_order_is_flagged() {
        let src = "fn f() { w.global_read1_ord(0, self.gts_addr, MemOrder::Plain); }";
        let f = check_ordered_protocol_access(Path::new("x.rs"), src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("MemOrder::Plain"));
    }

    #[test]
    fn acquire_access_is_clean_and_nonprotocol_plain_is_clean() {
        let src = "fn f() { w.global_read1_ord(0, self.gts_addr, MemOrder::Acquire); \
                   w.global_read1(0, data_addr); }";
        assert!(check_ordered_protocol_access(Path::new("x.rs"), src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f() {\n    // xtask-lint: allow (test of suppression)\n    \
                   w.global_read1(0, proto.req_seq_addr(slot));\n}";
        assert!(check_ordered_protocol_access(Path::new("x.rs"), src).is_empty());
    }

    #[test]
    fn test_mods_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { w.global_read1(0, gts_addr); }\n}";
        assert!(check_ordered_protocol_access(Path::new("x.rs"), src).is_empty());
    }

    #[test]
    fn unwrap_in_server_impl_is_flagged() {
        let src = "impl WorkerWarp {\n    fn f(&self) { self.x.unwrap(); }\n}\n\
                   impl Other {\n    fn g(&self) { self.x.unwrap(); }\n}";
        let f = check_no_panic_in_server_path(Path::new("x.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn the_shared_worker_steps_are_server_paths() {
        // The simulated workers pop, fetch, validate and reply through
        // these; a panic in them wedges a server SM like one in the warp.
        let src = "impl WorkerPort {\n    fn f(&self) { self.x.unwrap(); }\n}\n\
                   impl BatchTx {\n    fn g(&self) { self.y.expect(\"boom\"); }\n}";
        let f = check_no_panic_in_server_path(Path::new("x.rs"), src);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 5]);
    }

    #[test]
    fn service_and_engine_impls_are_server_paths() {
        // The engine front door and the service connection loop carry the
        // same no-panic discipline as the commit-server warps.
        let src = "impl NativeEngine {\n    fn f(&self) { self.x.unwrap(); }\n}\n\
                   impl Connection {\n    fn g(&self) { self.y.expect(\"boom\"); }\n}";
        let f = check_no_panic_in_server_path(Path::new("x.rs"), src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 5);
    }

    #[test]
    fn the_hand_off_types_are_server_paths() {
        // Workers run inside the intake, their jobs and a connection's
        // sink — trait impls included (`complete` is where a worker enters
        // the sink) — and the connection's reply half, generic impls
        // included.
        let src = "impl Intake {\n    fn f(&self) { self.s.lock().unwrap(); }\n}\n\
                   impl Drop for EngineJob {\n    fn drop(&mut self) { self.d.take().unwrap(); }\n}\n\
                   impl CompletionSink for Settled {\n    \
                   fn complete(&self) { self.s.lock().expect(\"poisoned\"); }\n}\n\
                   impl<W: Write> Replies<W> {\n    \
                   fn push(&mut self) { self.cells.pop_front().unwrap(); }\n}\n\
                   impl Settled {\n    \
                   fn lock(&self) { self.s.lock().unwrap_or_else(|e| e.into_inner()); }\n}";
        let f = check_no_panic_in_server_path(Path::new("x.rs"), src);
        let mut lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            [2, 5, 8, 11],
            "the poison recovery on line 14 is clean"
        );
    }

    #[test]
    fn the_service_transaction_body_is_a_server_path() {
        // `KvTx::next` runs on an engine worker, mid-batch.
        let src = "impl TxLogic for KvTx {\n    \
                   fn next(&mut self) { self.r.lock().unwrap(); }\n}\n\
                   impl KvTx {\n    \
                   fn sink(&self) { self.r.lock().unwrap_or_else(|e| e.into_inner()); }\n}";
        let f = check_no_panic_in_server_path(Path::new("x.rs"), src);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2], "the poison recovery on line 5 is clean");
    }

    #[test]
    fn unknown_abort_reason_usage_is_flagged() {
        let variants = vec!["VersionOverflow".to_string(), "ReadValidation".to_string()];
        let src = "fn f() { fail(AbortReason::VersionOverflow); \
                   fail(AbortReason::MadeUpReason); let _ = AbortReason::ALL; }";
        let f = check_abort_reason_usage(Path::new("x.rs"), src, &variants);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("MadeUpReason"));
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let src = "impl WorkerWarp {\n    fn f(&self) -> u64 { self.x.unwrap_or(0) }\n}";
        assert!(check_no_panic_in_server_path(Path::new("x.rs"), src).is_empty());
    }

    #[test]
    fn missing_taxonomy_mapping_is_flagged() {
        let src = "pub enum AbortReason {\n    Alpha = 0,\n    Beta = 1,\n}\n\
                   impl AbortReason {\n    pub const ALL: [AbortReason; 2] = \
                   [AbortReason::Alpha, AbortReason::Beta];\n    \
                   pub const fn from_id(id: u8) -> Option<AbortReason> { match id { \
                   0 => Some(AbortReason::Alpha), 1 => Some(AbortReason::Beta), _ => None } }\n    \
                   pub const fn key(self) -> &'static str { match self { \
                   AbortReason::Alpha => \"alpha\", _ => \"beta\" } }\n}";
        let f = check_abort_reason_taxonomy(Path::new("x.rs"), src);
        // Beta is missing from `key` (hidden behind a `_` arm).
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Beta"));
        assert!(f[0].message.contains("`key`"));
    }
}

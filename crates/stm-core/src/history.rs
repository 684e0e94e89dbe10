//! Value-based history checking: the correctness oracle of the test-suite.
//!
//! Every STM kernel records, for each *committed* transaction, the values it
//! read and wrote plus two timestamps: the `read_point` (the committed state
//! its reads claim to reflect — the snapshot for MV STMs, the validation
//! point for single-versioned STMs) and, for update transactions, the commit
//! timestamp `cts`. The checker replays the writes in `cts` order to rebuild
//! the ground-truth version history and then verifies that every recorded
//! read matches the committed state at the transaction's read point — and,
//! for multi-version STMs, that update transactions were still valid at
//! commit time (reads unchanged between `read_point` and `cts − 1`), which
//! together imply opacity of the committed history.

/// What one committed transaction claims to have done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRecord {
    /// Originating thread (diagnostics only).
    pub thread: usize,
    /// Timestamp of the committed state the reads reflect.
    pub read_point: u64,
    /// Commit timestamp for update transactions, `None` for read-only ones.
    pub cts: Option<u64>,
    /// `(item, value)` pairs in read order.
    pub reads: Vec<(u64, u64)>,
    /// `(item, value)` pairs in write order.
    pub writes: Vec<(u64, u64)>,
}

/// Why a history was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// Two committed update transactions share a commit timestamp.
    DuplicateCts { cts: u64 },
    /// A read-only transaction has writes, or an update record has no cts
    /// despite writes.
    MalformedRecord { thread: usize, detail: String },
    /// A read observed a value that was not the committed value at the
    /// transaction's read point.
    InconsistentRead {
        thread: usize,
        item: u64,
        observed: u64,
        expected: u64,
        at_ts: u64,
    },
    /// An update transaction's read was overwritten between its read point
    /// and its commit (validation should have aborted it).
    StaleAtCommit {
        thread: usize,
        item: u64,
        observed: u64,
        expected: u64,
        cts: u64,
    },
    /// An update transaction's read point is not before its commit point.
    NonMonotoneTimestamps {
        thread: usize,
        read_point: u64,
        cts: u64,
    },
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::DuplicateCts { cts } => write!(f, "duplicate commit timestamp {cts}"),
            HistoryError::MalformedRecord { thread, detail } => {
                write!(f, "malformed record from thread {thread}: {detail}")
            }
            HistoryError::InconsistentRead {
                thread,
                item,
                observed,
                expected,
                at_ts,
            } => write!(
                f,
                "thread {thread} read item {item} = {observed}, but committed state at ts \
                 {at_ts} was {expected}"
            ),
            HistoryError::StaleAtCommit {
                thread,
                item,
                observed,
                expected,
                cts,
            } => write!(
                f,
                "thread {thread} committed at {cts} having read item {item} = {observed}, \
                 but the value just before its commit was {expected}"
            ),
            HistoryError::NonMonotoneTimestamps {
                thread,
                read_point,
                cts,
            } => write!(
                f,
                "thread {thread}: read point {read_point} not before commit ts {cts}"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

/// Reconstructed multi-version state: per item, the committed versions in
/// commit order.
struct VersionHistory {
    /// `(cts, value)` per item, sorted ascending by cts.
    versions: std::collections::HashMap<u64, Vec<(u64, u64)>>,
    initial: std::collections::HashMap<u64, u64>,
}

impl VersionHistory {
    fn value_at(&self, item: u64, ts: u64) -> u64 {
        let init = *self.initial.get(&item).unwrap_or(&0);
        match self.versions.get(&item) {
            None => init,
            Some(vs) => {
                // Versions are sorted; find the newest with cts <= ts.
                match vs.partition_point(|&(cts, _)| cts <= ts) {
                    0 => init,
                    n => vs[n - 1].1,
                }
            }
        }
    }
}

/// Verify a committed history against the repository's one correctness
/// definition (opacity: conditions (1)–(2) of DESIGN.md §7.1, which make
/// the multiversion serialization graph acyclic).
///
/// * `records` — one entry per committed transaction (aborted attempts must
///   not be recorded);
/// * `initial` — initial `(item, value)` state (absent items are 0);
/// * `check_validity_at_commit` — additionally require update transactions'
///   reads to be unchanged at `cts − 1` (true for MV STMs, whose validation
///   guarantees it; single-versioned STMs set `read_point = cts − 1`
///   themselves, making this check redundant but harmless).
///
/// Returns the number of update transactions on success.
pub fn check_history(
    records: &[TxRecord],
    initial: &std::collections::HashMap<u64, u64>,
    check_validity_at_commit: bool,
) -> Result<u64, HistoryError> {
    // -- structural checks and version reconstruction --------------------
    let mut versions: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    let mut seen_cts = std::collections::HashSet::new();
    let mut updates = 0u64;
    for r in records {
        match r.cts {
            Some(cts) => {
                updates += 1;
                if !seen_cts.insert(cts) {
                    return Err(HistoryError::DuplicateCts { cts });
                }
                if r.read_point >= cts {
                    return Err(HistoryError::NonMonotoneTimestamps {
                        thread: r.thread,
                        read_point: r.read_point,
                        cts,
                    });
                }
                for &(item, value) in &r.writes {
                    versions.entry(item).or_default().push((cts, value));
                }
            }
            None => {
                if !r.writes.is_empty() {
                    return Err(HistoryError::MalformedRecord {
                        thread: r.thread,
                        detail: "read-only transaction has writes".into(),
                    });
                }
            }
        }
    }
    for vs in versions.values_mut() {
        vs.sort_unstable_by_key(|&(cts, _)| cts);
    }
    let hist = VersionHistory {
        versions,
        initial: initial.clone(),
    };

    // -- value checks -----------------------------------------------------
    for r in records {
        for &(item, observed) in &r.reads {
            // A transaction sees its own earlier writes; skip read-after-write
            // entries (the recorded value is the pending write, not committed
            // state). STMs record the *first* read of each item, but we stay
            // robust to repeated reads after own-writes.
            if let Some(&(_, wv)) = r.writes.iter().find(|&&(wi, _)| wi == item) {
                if observed == wv {
                    continue;
                }
            }
            let expected = hist.value_at(item, r.read_point);
            if observed != expected {
                return Err(HistoryError::InconsistentRead {
                    thread: r.thread,
                    item,
                    observed,
                    expected,
                    at_ts: r.read_point,
                });
            }
            if check_validity_at_commit {
                if let Some(cts) = r.cts {
                    let at_commit = hist.value_at(item, cts - 1);
                    if observed != at_commit {
                        return Err(HistoryError::StaleAtCommit {
                            thread: r.thread,
                            item,
                            observed,
                            expected: at_commit,
                            cts,
                        });
                    }
                }
            }
        }
    }
    Ok(updates)
}

/// Replay a committed history's writes in `cts` order over the initial
/// state, yielding the final committed value of every item. This is the
/// ground truth the cross-STM and cross-backend equivalence tests compare
/// final store states against.
pub fn replay_committed(
    records: &[TxRecord],
    initial: &std::collections::HashMap<u64, u64>,
) -> std::collections::HashMap<u64, u64> {
    let mut committed: Vec<&TxRecord> = records.iter().filter(|r| r.cts.is_some()).collect();
    committed.sort_unstable_by_key(|r| r.cts);
    let mut state = initial.clone();
    for r in committed {
        for &(item, value) in &r.writes {
            state.insert(item, value);
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn rec(
        thread: usize,
        read_point: u64,
        cts: Option<u64>,
        reads: &[(u64, u64)],
        writes: &[(u64, u64)],
    ) -> TxRecord {
        TxRecord {
            thread,
            read_point,
            cts,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn accepts_serial_history() {
        let records = vec![
            rec(0, 0, Some(1), &[(1, 0)], &[(1, 10)]),
            rec(1, 1, Some(2), &[(1, 10)], &[(1, 20)]),
            rec(2, 2, None, &[(1, 20)], &[]),
        ];
        assert_eq!(check_history(&records, &HashMap::new(), true), Ok(2));
    }

    #[test]
    fn accepts_reads_from_initial_state() {
        let mut init = HashMap::new();
        init.insert(5, 99);
        let records = vec![rec(0, 0, None, &[(5, 99), (6, 0)], &[])];
        assert_eq!(check_history(&records, &init, true), Ok(0));
    }

    #[test]
    fn rejects_inconsistent_snapshot_read() {
        // ROT at snapshot 1 must see item1=10, not 20.
        let records = vec![
            rec(0, 0, Some(1), &[], &[(1, 10)]),
            rec(1, 1, Some(2), &[], &[(1, 20)]),
            rec(2, 1, None, &[(1, 20)], &[]),
        ];
        assert!(matches!(
            check_history(&records, &HashMap::new(), true),
            Err(HistoryError::InconsistentRead {
                item: 1,
                observed: 20,
                expected: 10,
                ..
            })
        ));
    }

    #[test]
    fn rejects_stale_read_at_commit() {
        // T2 read item1=0 at snapshot 0, but T1 committed item1=10 at ts 1,
        // before T2's commit at ts 2 — validation should have killed T2.
        let records = vec![
            rec(0, 0, Some(1), &[], &[(1, 10)]),
            rec(1, 0, Some(2), &[(1, 0)], &[(2, 7)]),
        ];
        assert!(matches!(
            check_history(&records, &HashMap::new(), true),
            Err(HistoryError::StaleAtCommit { item: 1, .. })
        ));
        // A single-versioned checker that set read_point = cts-1 itself would
        // reject via InconsistentRead instead; with checking disabled and an
        // honest read_point this is (snapshot-isolation-style) accepted.
        assert_eq!(check_history(&records, &HashMap::new(), false), Ok(2));
    }

    #[test]
    fn rejects_duplicate_cts() {
        let records = vec![
            rec(0, 0, Some(1), &[], &[(1, 1)]),
            rec(1, 0, Some(1), &[], &[(2, 1)]),
        ];
        assert!(matches!(
            check_history(&records, &HashMap::new(), true),
            Err(HistoryError::DuplicateCts { cts: 1 })
        ));
    }

    #[test]
    fn rejects_rot_with_writes() {
        let records = vec![rec(0, 0, None, &[], &[(1, 1)])];
        assert!(matches!(
            check_history(&records, &HashMap::new(), true),
            Err(HistoryError::MalformedRecord { .. })
        ));
    }

    #[test]
    fn rejects_read_point_after_commit() {
        let records = vec![rec(0, 3, Some(2), &[], &[(1, 1)])];
        assert!(matches!(
            check_history(&records, &HashMap::new(), true),
            Err(HistoryError::NonMonotoneTimestamps { .. })
        ));
    }

    #[test]
    fn own_writes_are_visible_to_later_reads() {
        // Tx writes (1,10) then re-reads 10 (read-after-write); the recorded
        // read must not be flagged even though committed state at snapshot
        // was 0.
        let records = vec![rec(0, 0, Some(1), &[(1, 0), (1, 10)], &[(1, 10)])];
        assert_eq!(check_history(&records, &HashMap::new(), true), Ok(1));
    }

    #[test]
    fn gaps_in_cts_are_tolerated() {
        let records = vec![
            rec(0, 0, Some(2), &[], &[(1, 10)]),
            rec(1, 2, Some(7), &[(1, 10)], &[(1, 20)]),
            rec(2, 7, None, &[(1, 20)], &[]),
        ];
        assert_eq!(check_history(&records, &HashMap::new(), true), Ok(2));
    }

    #[test]
    fn old_snapshot_sees_old_version() {
        let records = vec![
            rec(0, 0, Some(1), &[], &[(1, 10)]),
            rec(1, 1, Some(2), &[], &[(1, 20)]),
            // ROT with the older snapshot still sees version 10.
            rec(2, 1, None, &[(1, 10)], &[]),
            // ROT with the newer snapshot sees 20.
            rec(3, 2, None, &[(1, 20)], &[]),
        ];
        assert_eq!(check_history(&records, &HashMap::new(), true), Ok(2));
    }
}

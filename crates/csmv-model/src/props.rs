//! Checked properties of the model.
//!
//! Safety is checked on every transition and every reached state:
//!
//! - **Opacity** of the committed history (plus the snapshots of live
//!   transactions, included as pseudo read-only records) via
//!   `stm_core::check_history` — the *same* value-based oracle the
//!   simulator tests trust.
//! - **Serialization-graph acyclicity**: the multi-version serialization
//!   graph (rf ∪ ww ∪ rw edges) over committed transactions is acyclic.
//! - **GTS discipline**: bumps happen in reservation order (turn-taking)
//!   and the GTS never regresses.
//! - **Publication discipline**: per server, entries publish in
//!   reservation order (the seqlock tag of slot `i` is written before any
//!   later slot's).
//! - **Write-back discipline**: a client only writes back a version whose
//!   ATR entry is published.
//! - **GC retention**: pruning every key's version list at the watermark
//!   computed from the live snapshots and the GTS (the exact
//!   `csmv::steps::watermark` / `retain_from` pair the native store's
//!   ring-recycle path uses) never changes what any live snapshot — or
//!   the GTS itself — reads.
//!
//! Terminal states additionally require a **gap-free** timestamp line:
//! every reserved cts was published and the GTS caught up
//! (`gts == next_cts - 1`), and every commit's version was written back.

use crate::model::{Action, ClientPhase, CommittedTx, JobPhase, ModelConfig, State};
use std::collections::HashMap;
use stm_core::TxRecord;

/// A property violation, with enough context to print a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `stm_core::check_history` rejected the (partial) history.
    History(String),
    /// The multi-version serialization graph has a cycle.
    MvsgCycle(String),
    /// A client bumped the GTS out of turn.
    GtsOutOfTurn { client: usize, gts: u64, cts: u64 },
    /// The GTS moved backwards.
    GtsRegression { from: u64, to: u64 },
    /// A server published entries out of reservation order.
    PublicationOrder { server: usize, detail: String },
    /// A client wrote back a version whose entry is not published.
    WriteBackUnpublished { client: usize, cts: u64 },
    /// Terminal state with a hole in the timestamp line.
    GtsGap { gts: u64, next_cts: u64 },
    /// Terminal state missing a committed write-back.
    MissingWriteBack { client: usize, cts: u64 },
    /// Pruning a key's versions at the GC watermark changed a live read.
    GcRetention {
        key: u64,
        snapshot: u64,
        full: u64,
        pruned: u64,
    },
    /// Per-version (hole-producing) pruning served a snapshot a stale
    /// value, or lost a registered snapshot's version entirely.
    GcVersionRetention {
        key: u64,
        snapshot: u64,
        full: u64,
        served: Option<u64>,
    },
    /// Non-terminal state with no enabled action.
    Deadlock,
    /// A reachable cycle with no commit or GTS progress.
    Livelock,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::History(e) => write!(f, "opacity violation: {e}"),
            Violation::MvsgCycle(d) => write!(f, "serialization graph cycle: {d}"),
            Violation::GtsOutOfTurn { client, gts, cts } => write!(
                f,
                "client {client} published cts {cts} to the GTS at gts={gts} (turn not reached)"
            ),
            Violation::GtsRegression { from, to } => {
                write!(f, "GTS regressed from {from} to {to}")
            }
            Violation::PublicationOrder { server, detail } => {
                write!(f, "server {server} published out of order: {detail}")
            }
            Violation::WriteBackUnpublished { client, cts } => write!(
                f,
                "client {client} wrote back cts {cts} before its ATR entry was published"
            ),
            Violation::GtsGap { gts, next_cts } => write!(
                f,
                "terminal state leaves a timestamp hole: gts={gts}, next_cts={next_cts}"
            ),
            Violation::MissingWriteBack { client, cts } => write!(
                f,
                "terminal state: client {client}'s commit at cts {cts} was never written back"
            ),
            Violation::GcRetention {
                key,
                snapshot,
                full,
                pruned,
            } => write!(
                f,
                "GC retention: pruning key {key} at the watermark changes the read \
                 at snapshot {snapshot} from {full} to {pruned}"
            ),
            Violation::GcVersionRetention {
                key,
                snapshot,
                full,
                served,
            } => match served {
                Some(v) => write!(
                    f,
                    "GC version retention: per-version pruning of key {key} serves \
                     snapshot {snapshot} the stale value {v} instead of {full}"
                ),
                None => write!(
                    f,
                    "GC version retention: per-version pruning of key {key} lost the \
                     version registered snapshot {snapshot} resolves on (value {full})"
                ),
            },
            Violation::Deadlock => write!(f, "deadlock: no action enabled, clients not done"),
            Violation::Livelock => write!(
                f,
                "livelock: reachable cycle with no commit or GTS progress"
            ),
        }
    }
}

/// Transition-local checks (need the pre-state and the action).
pub fn check_step(pre: &State, a: Action, post: &State, cfg: &ModelConfig) -> Option<Violation> {
    match a {
        Action::GtsBump { client } => {
            let cts = pre.clients[client].cts;
            if !csmv::steps::gts_turn_reached(pre.gts, cts) {
                return Some(Violation::GtsOutOfTurn {
                    client,
                    gts: pre.gts,
                    cts,
                });
            }
            if post.gts < pre.gts {
                return Some(Violation::GtsRegression {
                    from: pre.gts,
                    to: post.gts,
                });
            }
        }
        Action::Step { server, job } => {
            // A publish must be the next unpublished entry in reservation
            // order.
            if let JobPhase::Publish { cts, entry } = pre.servers[server].jobs[job].phase {
                if entry as u64 != pre.servers[server].next_local {
                    return Some(Violation::PublicationOrder {
                        server,
                        detail: format!(
                            "published entry {entry} (cts {cts}) while next_local was {}",
                            pre.servers[server].next_local
                        ),
                    });
                }
            }
        }
        Action::WriteBack { client } => {
            let cl = &pre.clients[client];
            let srv = &pre.servers[cfg.server_of(cl.key)];
            let published = srv.entries.iter().any(|e| e.cts == cl.cts && e.published);
            if !published {
                return Some(Violation::WriteBackUnpublished {
                    client,
                    cts: cl.cts,
                });
            }
        }
        _ => {}
    }
    None
}

/// The model state's history records: committed transactions plus, for
/// every client with a live transaction, a pseudo read-only record
/// claiming its snapshot read. The latter catches doomed reads (opacity
/// covers live transactions, not just committed ones).
pub fn history_records(s: &State) -> Vec<TxRecord> {
    let mut records: Vec<TxRecord> = s
        .committed
        .iter()
        .map(|t| TxRecord {
            thread: t.client,
            read_point: t.snapshot,
            cts: Some(t.cts),
            reads: vec![(t.key, t.read_value)],
            writes: vec![(t.key, t.read_value + 1)],
        })
        .collect();
    for (c, cl) in s.clients.iter().enumerate() {
        if matches!(
            cl.phase,
            ClientPhase::AwaitResp | ClientPhase::WriteBack | ClientPhase::GtsWait
        ) {
            records.push(TxRecord {
                thread: c,
                read_point: cl.snapshot,
                cts: None,
                reads: vec![(cl.key, cl.read_value)],
                writes: vec![],
            });
        }
    }
    records
}

/// State-global safety checks, run on every reached state.
pub fn check_state(s: &State) -> Option<Violation> {
    let records = history_records(s);
    if let Err(e) = stm_core::check_history(&records, &HashMap::new(), true) {
        return Some(Violation::History(e.to_string()));
    }
    if let Some(v) = gc_retention(s) {
        return Some(v);
    }
    if let Some(v) = gc_version_retention(s) {
        return Some(v);
    }
    mvsg_cycle(&s.committed).map(Violation::MvsgCycle)
}

/// Snapshots of clients with a live transaction: the set a version GC must
/// keep readable (the native engine registers exactly these).
fn live_snapshots(s: &State) -> Vec<u64> {
    s.clients
        .iter()
        .filter(|cl| {
            matches!(
                cl.phase,
                ClientPhase::AwaitResp | ClientPhase::WriteBack | ClientPhase::GtsWait
            )
        })
        .map(|cl| cl.snapshot)
        .collect()
}

/// Reading `versions` (sorted by cts, implicit initial value 0) at
/// `snapshot`, after dropping everything below `from`.
fn read_pruned(versions: &[(u64, u64)], from: usize, snapshot: u64) -> u64 {
    versions[from..]
        .iter()
        .rev()
        .find(|&&(cts, _)| cts <= snapshot)
        .map_or(0, |&(_, v)| v)
}

/// The version-GC retention obligation (see the module docs): prune every
/// key's version list at the watermark the live snapshots and the GTS
/// induce, and require every live snapshot — and the GTS — to read the
/// same value from the pruned list as from the full one.
pub fn gc_retention(s: &State) -> Option<Violation> {
    let live = live_snapshots(s);
    let wm = csmv::steps::watermark(live.iter().copied(), s.gts);
    for (key, versions) in s.store.iter().enumerate() {
        let ts: Vec<u64> = versions.iter().map(|&(cts, _)| cts).collect();
        let from = csmv::steps::retain_from(&ts, wm);
        for &snap in live.iter().chain(std::iter::once(&s.gts)) {
            let full = read_pruned(versions, 0, snap);
            let pruned = read_pruned(versions, from, snap);
            if full != pruned {
                return Some(Violation::GcRetention {
                    key: key as u64,
                    snapshot: snap,
                    full,
                    pruned,
                });
            }
        }
    }
    None
}

/// Each retained version with its coverage `[cts, cover_end)`, where
/// `cover_end` is the cts of the next version in the **full** history (not
/// the next retained one) — the exact bound the native store stamps on a
/// spill entry. The newest version is always retained (the native ring
/// always holds it); an older one survives only if some registered
/// snapshot resolves on it ([`csmv::steps::version_needed`]), so holes of
/// reclaimed versions are allowed.
fn retained_with_cover(versions: &[(u64, u64)], readers: &[u64]) -> Vec<(u64, u64, u64)> {
    (0..versions.len())
        .filter_map(|i| {
            let (cts, value) = versions[i];
            let cover_end = versions.get(i + 1).map_or(u64::MAX, |&(c, _)| c);
            (i + 1 == versions.len()
                || csmv::steps::version_needed(cts, cover_end, readers.iter().copied()))
            .then_some((cts, cover_end, value))
        })
        .collect()
}

/// Read over a retained list with the native store's covered-serve
/// semantics: the newest retained version at or below the snapshot answers
/// only when the snapshot falls inside its coverage; otherwise the read
/// misses (`None` — the retriable overflow abort). A naive
/// newest-at-or-below read here would serve hole snapshots stale values.
fn read_covered(retained: &[(u64, u64, u64)], snapshot: u64) -> Option<u64> {
    retained
        .iter()
        .rev()
        .find(|&&(cts, _, _)| cts <= snapshot)
        .and_then(|&(_, cover_end, v)| (snapshot < cover_end).then_some(v))
}

/// The per-version retention obligation behind the native store's spill
/// path (hole-producing, unlike the watermark prefix pruning above):
/// retain each key's versions by `version_needed` over the registered
/// snapshots (live clients plus the GTS), then require, for **every**
/// snapshot the protocol could hold — registered or not —
///
/// - a served covered read to equal the full-history read (no snapshot is
///   ever served a stale value), and
/// - a registered snapshot to never miss (its version must be retained).
///
/// Unregistered snapshots may miss — that is the native store's safe,
/// retriable `VersionOverflow`/`SnapshotTooOld` abort.
pub fn gc_version_retention(s: &State) -> Option<Violation> {
    let mut readers = live_snapshots(s);
    readers.push(s.gts);
    for (key, versions) in s.store.iter().enumerate() {
        // The implicit initial version (value 0 at ts 0) participates in
        // retention like any other version.
        let full: Vec<(u64, u64)> = std::iter::once((0, 0))
            .chain(versions.iter().copied())
            .collect();
        let retained = retained_with_cover(&full, &readers);
        for snap in 0..=s.gts {
            let expect = read_pruned(versions, 0, snap);
            match read_covered(&retained, snap) {
                Some(v) if v != expect => {
                    return Some(Violation::GcVersionRetention {
                        key: key as u64,
                        snapshot: snap,
                        full: expect,
                        served: Some(v),
                    });
                }
                None if readers.contains(&snap) => {
                    return Some(Violation::GcVersionRetention {
                        key: key as u64,
                        snapshot: snap,
                        full: expect,
                        served: None,
                    });
                }
                _ => {}
            }
        }
    }
    None
}

/// Terminal-only checks (every client done).
pub fn check_terminal(s: &State, _cfg: &ModelConfig) -> Option<Violation> {
    if s.gts != s.next_cts - 1 {
        return Some(Violation::GtsGap {
            gts: s.gts,
            next_cts: s.next_cts,
        });
    }
    for t in &s.committed {
        let written = s.store[t.key as usize]
            .iter()
            .any(|&(cts, v)| cts == t.cts && v == t.read_value + 1);
        if !written {
            return Some(Violation::MissingWriteBack {
                client: t.client,
                cts: t.cts,
            });
        }
    }
    None
}

/// Detect a cycle in the multi-version serialization graph of the
/// committed transactions. Nodes are commits; edges:
///
/// - `ww`: consecutive versions of a key, in cts order;
/// - `rf`: the writer of the version a commit read → that commit;
/// - `rw`: a commit that read version `v` of a key → the writer of the
///   version right after `v`.
///
/// Returns a description of a cycle if one exists.
pub fn mvsg_cycle(committed: &[CommittedTx]) -> Option<String> {
    let n = committed.len();
    // Writers per key, sorted by cts.
    let mut writers: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, t) in committed.iter().enumerate() {
        writers.entry(t.key).or_default().push(i);
    }
    for ws in writers.values_mut() {
        ws.sort_by_key(|&i| committed[i].cts);
    }
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for ws in writers.values() {
        for w in ws.windows(2) {
            edges[w[0]].push(w[1]); // ww
        }
    }
    for (i, t) in committed.iter().enumerate() {
        let ws = &writers[&t.key];
        // The version `i` read: the newest writer at or below its
        // snapshot (None = initial version).
        let read_from = ws
            .iter()
            .rev()
            .find(|&&j| committed[j].cts <= t.snapshot)
            .copied();
        if let Some(j) = read_from {
            if j != i {
                edges[j].push(i); // rf
            }
        }
        // The overwriter of the version `i` read.
        let next = ws
            .iter()
            .find(|&&j| committed[j].cts > t.snapshot && j != i)
            .copied();
        if let Some(j) = next {
            edges[i].push(j); // rw
        }
    }
    // DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark = vec![Mark::White; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if mark[root] != Mark::White {
            continue;
        }
        mark[root] = Mark::Grey;
        stack.push((root, 0));
        while let Some(&(node, ei)) = stack.last() {
            if ei < edges[node].len() {
                stack.last_mut().unwrap().1 += 1;
                let next = edges[node][ei];
                match mark[next] {
                    Mark::White => {
                        mark[next] = Mark::Grey;
                        stack.push((next, 0));
                    }
                    Mark::Grey => {
                        let cycle: Vec<String> = stack
                            .iter()
                            .skip_while(|&&(v, _)| v != next)
                            .map(|&(v, _)| {
                                let t = &committed[v];
                                format!("cts {} (client {}, key {})", t.cts, t.client, t.key)
                            })
                            .collect();
                        return Some(cycle.join(" -> "));
                    }
                    Mark::Black => {}
                }
            } else {
                mark[node] = Mark::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(client: usize, snapshot: u64, cts: u64, key: u64, read_value: u64) -> CommittedTx {
        CommittedTx {
            client,
            snapshot,
            cts,
            key,
            read_value,
        }
    }

    #[test]
    fn serial_history_is_acyclic() {
        let committed = vec![tx(0, 0, 1, 0, 0), tx(1, 1, 2, 0, 1), tx(0, 2, 3, 1, 0)];
        assert_eq!(mvsg_cycle(&committed), None);
    }

    #[test]
    fn lost_update_is_a_cycle() {
        // Both read the initial version of key 0, both commit: the second
        // writer read *under* the first's version (rw: T2 -> T1) but
        // serializes after it (ww: T1 -> T2).
        let committed = vec![tx(0, 0, 1, 0, 0), tx(1, 0, 2, 0, 0)];
        assert!(mvsg_cycle(&committed).is_some());
    }

    #[test]
    fn gc_retention_respects_live_readers_and_the_gts() {
        let cfg = ModelConfig::small();
        let mut s = State::initial(&cfg);
        s.store[0] = vec![(1, 1), (2, 2), (3, 3)];
        s.gts = 3;
        // A lagging live reader at snapshot 1 drags the watermark down: no
        // version it needs may be pruned.
        s.clients[0].phase = ClientPhase::AwaitResp;
        s.clients[0].snapshot = 1;
        assert_eq!(gc_retention(&s), None);
        // Reader gone: watermark is the GTS, deep history prunable, and the
        // GTS read still matches.
        s.clients[0].phase = ClientPhase::Idle;
        assert_eq!(gc_retention(&s), None);
    }

    #[test]
    fn pruning_above_a_live_snapshot_changes_its_read() {
        // The check has teeth: a watermark that ignores a reader at
        // snapshot 1 prunes the version that reader resolves to.
        let versions = vec![(1, 1), (2, 2), (3, 3)];
        let ts: Vec<u64> = versions.iter().map(|&(cts, _)| cts).collect();
        let from = csmv::steps::retain_from(&ts, 3);
        assert_ne!(
            read_pruned(&versions, from, 1),
            read_pruned(&versions, 0, 1)
        );
        let violation = Violation::GcRetention {
            key: 0,
            snapshot: 1,
            full: 1,
            pruned: 0,
        };
        assert!(violation.to_string().contains("watermark"));
    }

    #[test]
    fn version_retention_allows_holes_but_keeps_every_live_resolver() {
        let cfg = ModelConfig::small();
        let mut s = State::initial(&cfg);
        s.store[0] = vec![(1, 1), (2, 2), (3, 3)];
        s.gts = 3;
        // A live reader at snapshot 1 keeps cts 1; cts 2 sits in a
        // reclaimable hole (nobody in [2, 3)) — still clean, because the
        // covered read refuses to serve snapshot 2 from cts 1.
        s.clients[0].phase = ClientPhase::AwaitResp;
        s.clients[0].snapshot = 1;
        assert_eq!(gc_version_retention(&s), None);
        let readers = [1u64, 3];
        let full = vec![(0, 0), (1, 1), (2, 2), (3, 3)];
        let retained = retained_with_cover(&full, &readers);
        assert_eq!(retained, vec![(1, 2, 1), (3, u64::MAX, 3)]);
    }

    #[test]
    fn covered_read_misses_hole_snapshots_instead_of_serving_stale() {
        // Teeth for the spill-hole bug: cts 2 was reclaimed between the
        // retained cts 1 (cover ends at 2) and cts 3. A naive
        // newest-at-or-below read serves snapshot 2 the stale value 1;
        // the covered read must miss instead.
        let retained = vec![(1, 2, 1), (3, u64::MAX, 3)];
        assert_eq!(read_covered(&retained, 1), Some(1));
        assert_eq!(read_covered(&retained, 2), None);
        assert_eq!(read_covered(&retained, 3), Some(3));
        assert_eq!(read_covered(&retained, 0), None);
        let violation = Violation::GcVersionRetention {
            key: 0,
            snapshot: 2,
            full: 2,
            served: Some(1),
        };
        assert!(violation.to_string().contains("stale"));
    }

    #[test]
    fn clean_state_passes() {
        let cfg = ModelConfig::small();
        let s = State::initial(&cfg);
        assert_eq!(check_state(&s), None);
        // A (vacuously) terminal empty run has no timestamp hole.
        assert_eq!(check_terminal(&s, &cfg), None);
    }
}

//! A native commit-server thread: the validation/reservation half of the
//! CSMV protocol, one OS thread per server, clients hash-partitioned onto
//! servers.
//!
//! The server loop is a direct transliteration of the simulated
//! receiver/worker warps in `csmv::server`: drain the bounded request
//! channel, suppress duplicate batches ([`csmv::steps::is_duplicate_batch`]),
//! validate every transaction's footprint against the ATR window
//! ([`csmv::steps::footprint_conflicts`] / [`csmv::steps::snapshot_in_window`]),
//! reserve dense commit timestamps with a single CAS
//! ([`csmv::steps::reserve_outcome`] via [`NativeAtr::try_reserve`]), insert
//! the ATR entries, and respond. Write-back is the *client's* job, exactly
//! as in the paper.
//!
//! Nothing in this module may panic: the `xtask` `no-panic-in-server-path`
//! lint covers every `impl NativeServer` block.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csmv::steps::{self, ReserveOutcome};
use stm_core::metrics::{AbortReason, FaultEvent, MetricsReport};

use crate::atr::{EntryRead, NativeAtr};
use crate::fault::NativeFaultPlan;
use crate::msg::{CommitRequest, CommitResponse, Verdict};

/// How long a server blocks on its request channel before re-checking the
/// run deadline.
const RECV_SLICE: Duration = Duration::from_millis(20);

/// Per-client duplicate-suppression state: the last accepted batch seq,
/// its stored response, and how many times it was re-sent.
struct ClientSlot {
    last_seq: u64,
    last_resp: CommitResponse,
    resends: u32,
    /// The client's response channel, kept so a dying server can flush
    /// its final answers (see [`NativeServer::flush_final_responses`]).
    resp: Sender<CommitResponse>,
}

pub(crate) struct NativeServer {
    id: usize,
    atr: Arc<NativeAtr>,
    rx: Receiver<CommitRequest>,
    faults: Option<NativeFaultPlan>,
    deadline: Instant,
    start: Instant,
    clients: HashMap<usize, ClientSlot>,
    batches_handled: u64,
    metrics: MetricsReport,
    /// Committed write-sets this server has already read out of the ATR,
    /// keyed by cts. Commit timestamps are globally unique (a recycled
    /// ring *slot* gets a new, higher cts), so a published entry — and a
    /// recycled verdict (`None`) — stays valid forever; caching across
    /// batches means each entry is read (and its one `Vec` allocated)
    /// once per server instead of once per transaction per validation
    /// round. Pruned lazily to ~2× the ATR window ([`Self::prune_cache`]).
    entry_cache: HashMap<u64, Option<Vec<u64>>>,
}

impl NativeServer {
    pub(crate) fn new(
        id: usize,
        atr: Arc<NativeAtr>,
        rx: Receiver<CommitRequest>,
        faults: Option<NativeFaultPlan>,
        deadline: Instant,
        start: Instant,
    ) -> Self {
        Self {
            id,
            atr,
            rx,
            faults,
            deadline,
            start,
            clients: HashMap::new(),
            batches_handled: 0,
            metrics: MetricsReport::default(),
            entry_cache: HashMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Serve until every client's request sender is dropped, the injected
    /// kill point is reached, or the run deadline passes. Every request
    /// that was dequeued is fully handled (and answered, fault plan
    /// permitting) before the loop re-checks exit conditions, and a kill
    /// flushes the latest stored response to every client on the way out,
    /// so a kill never leaks a granted-but-unanswered reservation.
    pub(crate) fn run(mut self) -> MetricsReport {
        loop {
            let killed = self
                .faults
                .as_ref()
                .is_some_and(|f| f.server_killed(self.id, self.batches_handled));
            if killed {
                self.flush_final_responses();
                break;
            }
            if Instant::now() >= self.deadline {
                break;
            }
            match self.rx.recv_timeout(RECV_SLICE) {
                Ok(req) => self.handle(req),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.metrics
    }

    fn handle(&mut self, req: CommitRequest) {
        self.batches_handled += 1;
        let last_seq = self.clients.get(&req.client).map_or(0, |c| c.last_seq);
        if steps::is_duplicate_batch(req.seq, last_seq) {
            self.resend(&req);
            return;
        }
        let verdicts = self.validate_and_reserve(&req.txs);
        let resp = CommitResponse {
            seq: req.seq,
            verdicts,
        };
        let drop = self
            .faults
            .as_ref()
            .is_some_and(|f| f.drop_response(req.client, req.seq, 0));
        self.clients.insert(
            req.client,
            ClientSlot {
                last_seq: req.seq,
                last_resp: resp.clone(),
                resends: 0,
                resp: req.resp.clone(),
            },
        );
        if !drop {
            // A send error means the worker already exited (deadline);
            // nothing to do — the reservation was inserted and published
            // state stays consistent.
            let _ = req.resp.send(resp);
        }
    }

    /// A dying server's parting duty: deliver the latest stored response
    /// to every client, bypassing injected drops. A response dropped in
    /// flight is normally recovered by the client's resend reaching this
    /// server; death removes that path, so the flush is what keeps the
    /// kill contract ("a kill never leaks a granted-but-unanswered
    /// reservation") honest under combined drop + kill faults. Without it
    /// a granted-but-undelivered timestamp becomes a permanent GTS hole
    /// and every later committer stalls in its write-back turn until the
    /// run deadline. The flush happens strictly before the request
    /// receiver drops, so a client that observes the dead channel is
    /// guaranteed to find any flushed verdicts already queued.
    fn flush_final_responses(&mut self) {
        for slot in self.clients.values() {
            let _ = slot.resp.send(slot.last_resp.clone());
        }
    }

    /// A recovery resend of an already-processed batch: suppress it and
    /// replay the stored response (at-most-once batch processing).
    fn resend(&mut self, req: &CommitRequest) {
        let now = self.now_ns();
        self.metrics
            .record_fault(FaultEvent::DuplicateSuppressed, now);
        if let Some(slot) = self.clients.get_mut(&req.client) {
            slot.resends += 1;
            let drop = self
                .faults
                .as_ref()
                .is_some_and(|f| f.drop_response(req.client, req.seq, slot.resends));
            if !drop {
                let _ = req.resp.send(slot.last_resp.clone());
            }
        }
    }

    /// Validate a batch against the ATR and reserve timestamps for the
    /// survivors. Returns one verdict per transaction, in order.
    fn validate_and_reserve(&mut self, txs: &[crate::msg::TxSubmit]) -> Vec<Verdict> {
        let n = txs.len();
        let mut verdicts: Vec<Option<Verdict>> = vec![None; n];
        // Next cts each transaction still has to validate against.
        let mut validated_to: Vec<u64> = txs.iter().map(|t| t.snapshot + 1).collect();
        loop {
            let expected = self.atr.next_cts();
            for i in 0..n {
                if verdicts[i].is_none()
                    && !steps::snapshot_in_window(txs[i].snapshot, expected, self.atr.capacity())
                {
                    verdicts[i] = Some(Verdict::Rejected {
                        reason: AbortReason::AtrWindowOverflow,
                    });
                }
            }
            // Pull every entry a still-undecided transaction will scan
            // into the persistent cache first, so the per-transaction
            // scans below borrow the cached write-sets instead of
            // cloning one `Vec` per transaction per entry.
            let fetch_from = (0..n)
                .filter(|&i| verdicts[i].is_none())
                .map(|i| validated_to[i])
                .min()
                .unwrap_or(expected);
            for c in fetch_from..expected {
                if !self.entry_cache.contains_key(&c) {
                    let e = self.read_entry_blocking(c);
                    self.entry_cache.insert(c, e);
                }
            }
            for i in 0..n {
                if verdicts[i].is_some() {
                    continue;
                }
                let t = &txs[i];
                while validated_to[i] < expected {
                    let c = validated_to[i];
                    match self.entry_cache.get(&c).and_then(|e| e.as_deref()) {
                        Some(items) => {
                            if steps::footprint_hits_entry(
                                t.rs.iter().chain(t.ws.iter()).copied(),
                                items,
                            ) {
                                verdicts[i] = Some(Verdict::Rejected {
                                    reason: AbortReason::ReadValidation,
                                });
                                break;
                            }
                        }
                        None => {
                            // Recycled mid-validation (or deadline hit):
                            // the window closed on this snapshot.
                            verdicts[i] = Some(Verdict::Rejected {
                                reason: AbortReason::AtrWindowOverflow,
                            });
                            break;
                        }
                    }
                    validated_to[i] += 1;
                }
            }
            let live: Vec<usize> = (0..n).filter(|&i| verdicts[i].is_none()).collect();
            if live.is_empty() {
                break;
            }
            match self.atr.try_reserve(expected, live.len() as u64) {
                ReserveOutcome::Won { base } => {
                    for (k, &i) in live.iter().enumerate() {
                        let cts = base + k as u64;
                        self.atr.insert(cts, &txs[i].ws);
                        verdicts[i] = Some(Verdict::Granted { cts });
                    }
                    self.metrics.batch_sizes.record(n as u64);
                    let now = self.now_ns();
                    self.metrics.atr_occupancy.push(now, self.atr.occupancy());
                    break;
                }
                // Entries [expected, target) appeared concurrently; loop
                // around and validate the delta before retrying the CAS.
                ReserveOutcome::Lost { .. } => continue,
            }
        }
        self.prune_cache();
        verdicts
            .into_iter()
            .map(|v| match v {
                Some(v) => v,
                // Unreachable by construction (the loop only exits with
                // every verdict filled); fail safe rather than panic.
                None => Verdict::Rejected {
                    reason: AbortReason::AtrWindowOverflow,
                },
            })
            .collect()
    }

    /// Bound the entry cache: once it outgrows twice the ATR window, drop
    /// every cts no in-window snapshot can still need
    /// ([`csmv::steps::snapshot_in_window`] bounds scans to the last
    /// `capacity` entries below `next_cts`). The 2× trigger makes the
    /// O(len) sweep amortized O(1) per cached entry.
    fn prune_cache(&mut self) {
        let cap = self.atr.capacity();
        if self.entry_cache.len() as u64 > 2 * cap {
            let floor = self.atr.next_cts().saturating_sub(cap + 1);
            self.entry_cache.retain(|&c, _| c >= floor);
        }
    }

    /// Read one ATR entry, polling while its inserter is in flight. `None`
    /// means recycled (or the run deadline passed while polling).
    ///
    /// The wait is a ladder — brief spin, then yield, then sleeps that
    /// *graduate* from 1µs up to a 50µs cap
    /// instead of jumping straight to the full nap when the inserter is
    /// one store away. Any stall actually waited out is recorded into the
    /// `server_stall` series, so server-side waits are visible alongside
    /// the clients' `gts_stall`.
    fn read_entry_blocking(&mut self, cts: u64) -> Option<Vec<u64>> {
        let mut spins: u32 = 0;
        let mut nap = Duration::from_micros(1);
        let mut wait_start: Option<Instant> = None;
        loop {
            match self.atr.read_entry(cts) {
                EntryRead::Published(items) => {
                    if let Some(began) = wait_start {
                        let waited = began.elapsed().as_nanos() as u64;
                        self.metrics.server_stall.push(self.now_ns(), waited);
                    }
                    return Some(items);
                }
                EntryRead::Recycled => return None,
                EntryRead::InFlight => {
                    // The inserter is between its CAS and its publish —
                    // a few instructions, unless it was descheduled. Wait
                    // adaptively so an oversubscribed host gets the
                    // inserter scheduled instead of burning its quantum.
                    if wait_start.is_none() {
                        wait_start = Some(Instant::now());
                    }
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 1024 {
                        std::thread::yield_now();
                    } else {
                        if Instant::now() >= self.deadline {
                            return None;
                        }
                        std::thread::sleep(nap);
                        nap = (nap * 2).min(Duration::from_micros(50));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{KillServer, NativeFaultSpec};
    use crate::msg::TxSubmit;
    use std::sync::mpsc;

    /// Combined drop + kill faults must not leak a granted reservation:
    /// with a 100% response-drop rate the direct answer vanishes, so the
    /// only way the client can learn its granted timestamp is the dying
    /// server's final flush. Before the flush existed this scenario left
    /// a permanent GTS hole that stalled every later committer until the
    /// run deadline (observed as a rare full-service hang under the CI
    /// chaos geometry).
    #[test]
    fn killed_server_flushes_dropped_grant_responses() {
        let atr = Arc::new(NativeAtr::new(64, 4));
        let spec = NativeFaultSpec {
            drop_resp_pct: 100,
            kill_server: Some(KillServer {
                server: 0,
                after_batches: 1,
            }),
            ..Default::default()
        };
        let plan = NativeFaultPlan::new(1, spec);
        let (req_tx, req_rx) = mpsc::sync_channel(8);
        let (resp_tx, resp_rx) = mpsc::channel();
        let server = NativeServer::new(
            0,
            atr,
            req_rx,
            Some(plan),
            Instant::now() + Duration::from_secs(10),
            Instant::now(),
        );
        req_tx
            .send(CommitRequest {
                client: 0,
                seq: 1,
                txs: vec![TxSubmit {
                    snapshot: 0,
                    rs: vec![1],
                    ws: vec![1],
                }]
                .into(),
                resp: resp_tx.clone(),
            })
            .expect("server is listening");
        drop(req_tx);
        let _ = server.run();
        // run() returning proves the kill fired; the flush must already
        // be queued (it happens before the request receiver drops).
        let resp = resp_rx
            .try_recv()
            .expect("dying server must flush the dropped grant response");
        assert_eq!(resp.seq, 1);
        assert!(
            matches!(resp.verdicts[..], [Verdict::Granted { .. }]),
            "the flushed response must carry the grant: {:?}",
            resp.verdicts
        );
    }
}

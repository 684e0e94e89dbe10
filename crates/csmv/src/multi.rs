//! Multi-server CSMV — a prototype of the paper's first future-work
//! direction (§V): *"a commit scheme that relies on multiple servers, each
//! active on a different SM"*, attacking the single server's scalability
//! ceiling and its under-use of the device's aggregate scratchpad.
//!
//! Design (documented restrictions included):
//!
//! * Transactional items are **hash-partitioned** across `num_servers`
//!   commit servers (`partition = item % num_servers`); each server SM owns
//!   a [`PartitionedAtr`] in its *own* shared memory, so the aggregate ATR
//!   capacity scales with the server count — directly addressing the
//!   spurious-abort problem of the bounded single ring.
//! * **Update transactions must be partition-confined**: every item they
//!   read or write lives in one partition (asserted at submission). This is
//!   the simplification that makes per-partition validation sound —
//!   conflicting transactions always meet at the same server. Cross-
//!   partition update transactions would need a distributed commit, which
//!   the paper leaves open and so do we. **Read-only transactions are
//!   unrestricted**: as in all MV-STMs they validate nothing.
//! * Commit timestamps come from a **global counter in device memory**,
//!   reserved with one `fetch-add` per *batch* — the single point of
//!   coordination, amortized exactly like the batched ATR insert. A
//!   server-local reservation lock keeps each partition's local insertion
//!   order aligned with global cts order, so validators can walk the local
//!   ring backwards and stop at the first entry at-or-before their
//!   snapshot.
//! * Because one warp's batch may now split across servers, its commit
//!   timestamps are no longer consecutive; clients publish **progressively**
//!   (each committed transaction bumps the GTS when its turn arrives,
//!   runs of consecutive timestamps bump in one write).
//!
//! Everything else is the single-server code: a [`MultiWorker`] takes its
//! batch in and replies through the same `server::WorkerPort` as a
//! [`crate::WorkerWarp`], and a [`MultiClient`] executes, pre-validates,
//! talks to each mailbox and writes back through the same
//! `client::ClientRound` and `client::Mailbox` as a [`crate::CsmvClient`]. This module keeps what the multi-server design
//! decides differently: the partitioned ATR, the backward walk under the
//! reservation lock with the global fetch-add, k-server send/await,
//! progressive GTS publication, and heartbeat/quarantine.

use gpu_sim::fault::FaultPlan;
use gpu_sim::{
    full_mask, AnalysisConfig, Device, GpuConfig, Mask, MemOrder, StepOutcome, WarpCtx,
    WarpProgram, WARP_LANES,
};
use stm_core::mv_exec::{MvExec, MvExecConfig};
use stm_core::{
    launch, AbortReason, FaultEvent, MetricsReport, Phase, RetryPolicy, RunResult, TxSource,
    VBoxHeap,
};

use crate::client::{fail_lanes, ClientRound, Mailbox, Settled};
use crate::protocol::CommitProtocol;
use crate::server::{
    low_lanes, BatchTx, PortNext, PortStep, ReceiverWarp, ServerControl, WorkerPort,
};
use crate::steps::{self, TagState};
use crate::{finish, validate_launch, CsmvConfigError, Launch, RunError};

/// Configuration of a multi-server CSMV launch.
#[derive(Debug, Clone)]
pub struct MultiCsmvConfig {
    /// Device geometry; the last `num_servers` SMs run commit servers.
    pub gpu: GpuConfig,
    /// Number of commit-server SMs.
    pub num_servers: usize,
    /// Versions per VBox.
    pub versions_per_box: u64,
    /// Client warps per client SM.
    pub warps_per_sm: usize,
    /// Worker warps per server SM (plus one receiver each).
    pub server_workers: usize,
    /// Read-set capacity per thread.
    pub max_rs: usize,
    /// Write-set capacity per thread.
    pub max_ws: usize,
    /// ATR ring capacity per server, in entries.
    pub atr_capacity: u64,
    /// Record per-transaction histories.
    pub record_history: bool,
    /// Analysis layer. With `invariants` on, a
    /// [`crate::check::MultiCsmvInvariantChecker`] re-derives the relaxed
    /// multi-server obligations (progressive GTS publication, per-partition
    /// seq lines aligned with global cts order) alongside the race
    /// detector.
    pub analysis: AnalysisConfig,
    /// Client-side failure recovery (response timeouts, backoff, retry
    /// budget). The default policy is inert.
    pub recovery: RetryPolicy,
    /// Deterministic fault plan installed on the device before launch.
    pub faults: Option<FaultPlan>,
    /// Watchdog: abort the run with [`RunError::Stalled`] when no warp makes
    /// non-polling progress for this many cycles.
    pub max_idle_cycles: Option<u64>,
    /// Liveness patience: a partition whose receiver heartbeat is older than
    /// this many cycles is quarantined (its in-flight transactions fail with
    /// [`AbortReason::ServerUnavailable`]; surviving partitions keep
    /// committing). `None` disables heartbeat checking.
    pub heartbeat_patience: Option<u64>,
}

impl Default for MultiCsmvConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::default(),
            num_servers: 2,
            versions_per_box: 4,
            warps_per_sm: 2,
            server_workers: 3,
            max_rs: 64,
            max_ws: 8,
            atr_capacity: 384,
            record_history: true,
            analysis: AnalysisConfig::default(),
            recovery: RetryPolicy::default(),
            faults: None,
            max_idle_cycles: Some(1_000_000),
            heartbeat_patience: None,
        }
    }
}

impl MultiCsmvConfig {
    /// Client warps (every SM not running a server).
    pub fn num_client_warps(&self) -> usize {
        (self.gpu.num_sms - self.num_servers) * self.warps_per_sm
    }

    /// Total client threads.
    pub fn num_threads(&self) -> usize {
        self.num_client_warps() * WARP_LANES
    }

    /// The partition an item belongs to.
    pub fn partition_of(&self, item: u64) -> usize {
        steps::partition_of(item, self.num_servers)
    }

    /// Check that this configuration can launch, without allocating any
    /// device state. [`run_multi_checked`] calls this first; launching an
    /// invalid config through [`run_multi`] panics with the same diagnosis.
    pub fn validate(&self) -> Result<(), CsmvConfigError> {
        // Each server SM holds its partition's ATR
        // (2 + capacity·(3 + max_ws) words) and a control block (3 words +
        // a dispatch queue with one entry per client warp).
        validate_launch(
            &self.gpu,
            self.num_servers,
            self.warps_per_sm,
            self.server_workers,
            || 2 + self.atr_capacity as usize * (3 + self.max_ws) + 3 + self.num_client_warps(),
        )
    }
}

// ---------------------------------------------------------------------------
// Partitioned ATR: local ring, global commit timestamps
// ---------------------------------------------------------------------------

/// One server's ATR: ring slots tagged with a *local* sequence number,
/// each carrying the entry's *global* commit timestamp.
///
/// ```text
/// word 0                    : reservation lock (0 free / 1 held)
/// word 1                    : next_local — local sequence of the next entry
/// word 2 + s·(3 + max_ws)   : slot s = [seq][cts][ws_len][items × max_ws]
/// ```
///
/// Local sequence order equals global cts order (reservations happen under
/// the lock), so a validator walks backwards from `next_local − 1` and can
/// stop at the first entry whose cts ≤ its snapshot.
#[derive(Debug, Clone)]
pub struct PartitionedAtr {
    base: u64,
    capacity: u64,
    max_ws: usize,
}

impl PartitionedAtr {
    /// Allocate in `sm`'s shared memory.
    pub fn alloc(dev: &mut Device, sm: usize, capacity: u64, max_ws: usize) -> Self {
        let words = 2 + capacity as usize * (3 + max_ws);
        let base = dev.alloc_shared(sm, words);
        Self {
            base,
            capacity,
            max_ws,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Address of the reservation lock.
    pub fn lock_addr(&self) -> u64 {
        self.base
    }

    /// Address of the `next_local` word.
    pub fn next_local_addr(&self) -> u64 {
        self.base + 1
    }

    /// Ring slot of local sequence `seq` (0-based).
    pub fn slot_of(&self, seq: u64) -> u64 {
        seq % self.capacity
    }

    /// Address of slot `s`'s local-sequence tag (published last; the tag for
    /// sequence `seq` is `seq + 1`, so 0 means "never written").
    pub fn slot_seq_addr(&self, s: u64) -> u64 {
        self.base + 2 + s * (3 + self.max_ws as u64)
    }

    /// Address of slot `s`'s global-cts word.
    pub fn slot_cts_addr(&self, s: u64) -> u64 {
        self.slot_seq_addr(s) + 1
    }

    /// Address of slot `s`'s `ws_len` word.
    pub fn slot_len_addr(&self, s: u64) -> u64 {
        self.slot_seq_addr(s) + 2
    }

    /// Address of slot `s`'s `k`-th item word.
    pub fn slot_item_addr(&self, s: u64, k: u64) -> u64 {
        debug_assert!((k as usize) < self.max_ws);
        self.slot_seq_addr(s) + 3 + k
    }
}

// ---------------------------------------------------------------------------
// Multi-server worker
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum MState {
    /// Taking a batch in, or answering it.
    Port(PortStep),
    /// Read `next_local` → the backward-walk start.
    ReadTail,
    /// Validate tx `txi` walking down from local sequence `hi` (exclusive);
    /// `tail` is the batch's validation target, `walked` counts visited
    /// entries (ring-capacity guard).
    WalkBack {
        txi: usize,
        hi: u64,
        walked: u64,
        tail: u64,
    },
    /// Take the reservation lock.
    Lock {
        tail: u64,
    },
    /// Lock held: re-read `next_local` (revalidate the delta if it moved).
    Recheck {
        tail: u64,
    },
    /// Reserve global timestamps for the survivors (one fetch-add).
    ReserveGlobal {
        tail: u64,
    },
    /// Write the entries' item words.
    InsertItems {
        tail: u64,
        widx: usize,
    },
    /// Write cts + len words.
    InsertMeta {
        tail: u64,
    },
    /// Bump `next_local`, publish seq tags, release the lock.
    Publish {
        tail: u64,
        sub: u8,
    },
    Finished,
}

/// A commit-server worker for one partition.
pub struct MultiWorker {
    port: WorkerPort,
    atr: PartitionedAtr,
    /// Global-memory address of the shared cts counter (next cts to assign).
    global_cts_addr: u64,
    st: MState,
    /// Server-side observability (public for result harvesting).
    pub metrics: MetricsReport,
}

impl MultiWorker {
    /// Build a worker for partition `partition`, whose control block and
    /// mailboxes are `ctl`/`proto`; `payload` addresses the shared
    /// read/write-set region, which it always fetches with broadcast reads.
    pub fn new(
        proto: CommitProtocol,
        payload: CommitProtocol,
        ctl: ServerControl,
        atr: PartitionedAtr,
        global_cts_addr: u64,
        partition: usize,
    ) -> Self {
        Self {
            port: WorkerPort::new(proto, payload, ctl, true, partition as u64),
            atr,
            global_cts_addr,
            st: MState::Port(PortStep::Pop),
            metrics: MetricsReport::default(),
        }
    }

    /// Validate the first valid tx at or after `from` walking down from
    /// local tail `tail` (or, with none left, take the lock).
    fn walk_from(&self, from: usize, tail: u64) -> MState {
        match self.port.next_valid(from) {
            Some(txi) => MState::WalkBack {
                txi,
                hi: tail,
                walked: 0,
                tail,
            },
            None => MState::Lock { tail },
        }
    }

    /// One chunk of tx `txi`'s backward walk: up to 32 entries below `hi`.
    fn walk_back(
        &mut self,
        w: &mut WarpCtx,
        txi: usize,
        hi: u64,
        walked: u64,
        tail: u64,
    ) -> MState {
        let budget = self.atr.capacity().saturating_sub(walked);
        let n = hi.min(WARP_LANES as u64).min(budget);
        if hi == 0 || n == 0 {
            // Reached the start of the partition's history, or exhausted
            // the ring without finding an entry at or before the snapshot
            // (window abort).
            if n == 0 && hi > 0 {
                self.port.txs[txi].refuse(AbortReason::AtrWindowOverflow);
            }
            return self.walk_from(txi + 1, tail);
        }
        let lo = hi - n;
        let mask = low_lanes(n as usize);
        let atr = self.atr.clone();
        // Acquire: seq tags are the seqlock publish word; a mismatch below
        // means recycled or in-flight, both handled.
        let seqs = w.shared_read_ord(
            mask,
            |j| atr.slot_seq_addr(atr.slot_of(lo + j as u64)),
            MemOrder::Acquire,
        );
        // seq tag for sequence q is q+1; anything else means the slot was
        // recycled (newer) or is still being written (older/0).
        let mut recycled = false;
        let mut in_flight = false;
        for (j, &seq) in seqs.iter().enumerate().take(n as usize) {
            match steps::classify_tag(seq, lo + j as u64 + 1) {
                TagState::Recycled => recycled = true,
                TagState::InFlight => in_flight = true,
                TagState::Published => {}
            }
        }
        if in_flight {
            w.poll_wait();
            return MState::WalkBack {
                txi,
                hi,
                walked,
                tail,
            };
        }
        if recycled {
            // Needed history fell out of the ring.
            self.port.txs[txi].refuse(AbortReason::AtrWindowOverflow);
            return self.walk_from(txi + 1, tail);
        }
        // Acquire: slots may be recycled by a concurrent inserter; the
        // seq-tag check above makes that an intended race.
        let ctss = w.shared_read_ord(
            mask,
            |j| atr.slot_cts_addr(atr.slot_of(lo + j as u64)),
            MemOrder::Acquire,
        );
        let lens = w.shared_read_ord(
            mask,
            |j| atr.slot_len_addr(atr.slot_of(lo + j as u64)),
            MemOrder::Acquire,
        );
        let snapshot = self.port.txs[txi].snapshot;
        // Which entries in this chunk are newer than the snapshot?
        let relevant: Vec<usize> = (0..n as usize).filter(|&j| ctss[j] > snapshot).collect();
        let mut conflict = false;
        if !relevant.is_empty() {
            let max_len = relevant.iter().map(|&j| lens[j]).max().unwrap_or(0);
            let mut items: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
            for k in 0..max_len {
                let mut kmask: Mask = 0;
                for &j in &relevant {
                    if k < lens[j] {
                        kmask |= 1 << j;
                    }
                }
                let row = w.shared_read_ord(
                    kmask,
                    |j| atr.slot_item_addr(atr.slot_of(lo + j as u64), k),
                    MemOrder::Acquire,
                );
                for &j in &relevant {
                    if k < lens[j] {
                        items[j].push(row[j]);
                    }
                }
            }
            let entries: Vec<(u64, Vec<u64>)> = relevant
                .iter()
                .map(|&j| (lens[j], std::mem::take(&mut items[j])))
                .collect();
            conflict = self.port.txs[txi].conflicts_with(w, &entries);
        }
        if conflict {
            self.port.txs[txi].refuse(AbortReason::ReadValidation);
        }
        if conflict || relevant.len() < n as usize {
            // A conflict, or an entry at or before the snapshot: done.
            self.walk_from(txi + 1, tail)
        } else {
            MState::WalkBack {
                txi,
                hi: lo,
                walked: walked + n,
                tail,
            }
        }
    }
}

impl WarpProgram for MultiWorker {
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
        match std::mem::replace(&mut self.st, MState::Port(PortStep::Pop)) {
            MState::Port(st) => match self.port.step(w, st, &mut self.metrics) {
                PortNext::Step(st) => self.st = MState::Port(st),
                PortNext::Fetched => self.st = MState::ReadTail,
                PortNext::Shutdown => {
                    self.st = MState::Finished;
                    return StepOutcome::Done;
                }
            },
            MState::ReadTail => {
                w.set_phase(Phase::Validation.id());
                // Acquire: pairs with the inserter's next_local release.
                let tail = w.shared_read1_ord(0, self.atr.next_local_addr(), MemOrder::Acquire);
                self.metrics
                    .atr_occupancy
                    .push(tail.min(self.atr.capacity()));
                self.st = self.walk_from(0, tail);
            }
            MState::WalkBack {
                txi,
                hi,
                walked,
                tail,
            } => {
                w.set_phase(Phase::Validation.id());
                self.st = self.walk_back(w, txi, hi, walked, tail);
            }
            MState::Lock { tail } => {
                w.set_phase(Phase::RecordInsert.id());
                if self.port.n_valid() == 0 {
                    self.st = MState::Port(PortStep::WriteOutcomes);
                    return StepOutcome::Running;
                }
                let old = w.shared_cas1(0, self.atr.lock_addr(), 0, 1);
                self.st = if old == 0 {
                    MState::Recheck { tail }
                } else {
                    MState::Lock { tail }
                };
            }
            MState::Recheck { tail } => {
                w.set_phase(Phase::RecordInsert.id());
                // Acquire: ordered after the lock CAS; sees the latest
                // published tail.
                let cur = w.shared_read1_ord(0, self.atr.next_local_addr(), MemOrder::Acquire);
                self.st = if cur != tail {
                    // New entries since validation: drop the lock and
                    // revalidate the delta ([tail, cur) walking back is just
                    // the full walk again — entries below tail are already
                    // proven clean, and the walk stops at cts ≤ snapshot).
                    w.shared_write1_ord(0, self.atr.lock_addr(), 0, MemOrder::Release);
                    self.walk_from(0, cur)
                } else {
                    MState::ReserveGlobal { tail }
                };
            }
            MState::ReserveGlobal { tail } => {
                w.set_phase(Phase::RecordInsert.id());
                // The single global synchronization: one fetch-add per batch
                // on the device-memory cts counter.
                let base = w.global_atomic_add(0, self.global_cts_addr, self.port.n_valid());
                self.port.assign_cts(base);
                self.st = MState::InsertItems { tail, widx: 0 };
            }
            MState::InsertItems { tail, widx } => {
                w.set_phase(Phase::RecordInsert.id());
                let valid: Vec<&BatchTx> = self.port.txs.iter().filter(|t| t.valid).collect();
                let max_ws = valid.iter().map(|t| t.ws_len).max().unwrap_or(0);
                if widx >= max_ws {
                    self.st = MState::InsertMeta { tail };
                    return StepOutcome::Running;
                }
                let mut mask: Mask = 0;
                for (k, tx) in valid.iter().enumerate() {
                    if widx < tx.ws_len {
                        mask |= 1 << k;
                    }
                }
                let atr = self.atr.clone();
                let writes: Vec<(u64, u64)> = valid
                    .iter()
                    .enumerate()
                    .map(|(k, t)| {
                        (
                            atr.slot_item_addr(atr.slot_of(tail + k as u64), widx as u64),
                            t.ws_pairs.get(widx).map(|&(i, _)| i).unwrap_or(0),
                        )
                    })
                    .collect();
                // Release: recycles ring slots a validator may still probe;
                // the seq-tag re-check makes that an intended race.
                w.shared_write_ord(mask, |k| writes[k].0, |k| writes[k].1, MemOrder::Release);
                self.st = MState::InsertItems {
                    tail,
                    widx: widx + 1,
                };
            }
            MState::InsertMeta { tail } => {
                w.set_phase(Phase::RecordInsert.id());
                let valid: Vec<(u64, u64)> = self
                    .port
                    .txs
                    .iter()
                    .filter(|t| t.valid)
                    .map(|t| (t.cts, t.ws_len as u64))
                    .collect();
                let mask = low_lanes(valid.len());
                let atr = self.atr.clone();
                w.shared_write_ord(
                    mask,
                    |k| atr.slot_cts_addr(atr.slot_of(tail + k as u64)),
                    |k| valid[k].0,
                    MemOrder::Release,
                );
                w.shared_write_ord(
                    mask,
                    |k| atr.slot_len_addr(atr.slot_of(tail + k as u64)),
                    |k| valid[k].1,
                    MemOrder::Release,
                );
                self.st = MState::Publish { tail, sub: 0 };
            }
            MState::Publish { tail, sub } => {
                w.set_phase(Phase::RecordInsert.id());
                let n = self.port.n_valid();
                self.st = match sub {
                    0 => {
                        // Publish the seq tags (entries become visible).
                        let atr = self.atr.clone();
                        // Release: validators acquire these seq tags.
                        w.shared_write_ord(
                            low_lanes(n as usize),
                            |k| atr.slot_seq_addr(atr.slot_of(tail + k as u64)),
                            |k| tail + k as u64 + 1,
                            MemOrder::Release,
                        );
                        MState::Publish { tail, sub: 1 }
                    }
                    1 => {
                        // Release: publishes the new tail to ReadTail readers.
                        w.shared_write1_ord(
                            0,
                            self.atr.next_local_addr(),
                            tail + n,
                            MemOrder::Release,
                        );
                        MState::Publish { tail, sub: 2 }
                    }
                    _ => {
                        // Release: unlock; the next lock CAS acquires it.
                        w.shared_write1_ord(0, self.atr.lock_addr(), 0, MemOrder::Release);
                        MState::Port(PortStep::WriteOutcomes)
                    }
                };
            }
            MState::Finished => return StepOutcome::Done,
        }
        StepOutcome::Running
    }
}

// ---------------------------------------------------------------------------
// Multi-server client
// ---------------------------------------------------------------------------

/// Client warp phase (multi-server variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum McPhase {
    Begin,
    Bodies,
    Settle,
    PreVal {
        lane: usize,
    },
    /// Submit to the `k`-th *involved* server: sub-step 0 = hdr A,
    /// 1 = hdr B, 2 = batch seq, 3 = flag (fault-aware).
    Send {
        k: usize,
        sub: u8,
    },
    /// Deterministic wait before (re-)posting to the `k`-th involved server:
    /// an injected request delay (`resend == false`, returns to the flag
    /// sub-step) or timeout backoff (`resend == true`, goes to `Resend`).
    Backoff {
        k: usize,
        resume_at: u64,
        resend: bool,
    },
    /// Re-post the request flag to the `k`-th involved server after a
    /// response timeout (the seq word is unchanged, so the receiver treats
    /// a successfully delivered duplicate idempotently).
    Resend {
        k: usize,
    },
    /// Poll the `k`-th involved server for its response.
    Wait {
        k: usize,
    },
    /// Read the `k`-th involved server's outcomes, then clear its flag.
    Outcomes {
        k: usize,
        cleared: bool,
    },
    WriteBack {
        widx: usize,
        sub: u8,
    },
    /// Progressive GTS publication (timestamps may be non-consecutive).
    GtsPublish,
    FinishRound,
    SignalDone,
    Finished,
}

/// One multi-server CSMV client warp.
pub struct MultiClient<S: TxSource> {
    /// The shared execution engine.
    pub exec: MvExec<S>,
    round: ClientRound,
    /// This warp's mailbox on each server (fault channel = partition).
    mailboxes: Vec<Mailbox>,
    slot: usize,
    num_servers: usize,
    gts_addr: u64,
    phase: McPhase,
    /// Servers involved in the current batch.
    involved: Vec<usize>,
    lane_published: [bool; WARP_LANES],
    /// Cycle at which the current GTS-publication episode began.
    gts_wait_start: Option<u64>,
    /// Failure-recovery policy (inert by default).
    recovery: RetryPolicy,
    /// Base of the per-partition heartbeat words (`None` = no liveness
    /// checking; word `base + srv` is stamped by partition `srv`'s receiver).
    hb_base: Option<u64>,
    /// Heartbeat staleness threshold before a partition is quarantined.
    hb_patience: Option<u64>,
    /// Partitions declared dead (stale heartbeat). Requests are no longer
    /// sent to them; their lanes fail with `ServerUnavailable`.
    quarantined: Vec<bool>,
    /// Next batch seq (device-unique per mailbox slot is enough; 0 = never).
    next_seq: u64,
    /// In-flight batch seq per server.
    srv_seq: Vec<u64>,
    /// Send attempts for the in-flight batch per server.
    srv_attempt: Vec<u32>,
    /// Cycle the in-flight request was last posted, per server.
    srv_sent: Vec<u64>,
    /// An injected request delay has already been served for the current
    /// flag sub-step (so re-entering it does not re-roll the delay).
    delay_served: bool,
    /// `(gts value, cycle first observed)` — how long publication has been
    /// parked on one GTS value, for the crash-hole fallback.
    gts_stuck: Option<(u64, u64)>,
}

impl<S: TxSource> MultiClient<S> {
    /// Build a client warp bound to mailbox `slot` on every server. The
    /// shared payload region `payload` holds its read/write-sets, built
    /// there once during execution and read by whichever server the batch
    /// routes to.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sources: Vec<S>,
        thread_base: usize,
        exec_cfg: MvExecConfig,
        heap: VBoxHeap,
        hdr_protos: Vec<CommitProtocol>,
        payload: &CommitProtocol,
        slot: usize,
        gts_addr: u64,
        done_addr: u64,
    ) -> Self {
        let num_servers = hdr_protos.len();
        Self {
            exec: MvExec::new(sources, thread_base, exec_cfg),
            round: ClientRound::new(heap, payload.set_area(slot), gts_addr, done_addr),
            mailboxes: (hdr_protos.into_iter().enumerate())
                .map(|(srv, proto)| Mailbox::new(proto, slot, srv as u64))
                .collect(),
            slot,
            num_servers,
            gts_addr,
            phase: McPhase::Begin,
            involved: Vec::new(),
            lane_published: [false; WARP_LANES],
            gts_wait_start: None,
            recovery: RetryPolicy::default(),
            hb_base: None,
            hb_patience: None,
            quarantined: vec![false; num_servers],
            next_seq: 1,
            srv_seq: vec![0; num_servers],
            srv_attempt: vec![0; num_servers],
            srv_sent: vec![0; num_servers],
            delay_served: false,
            gts_stuck: None,
        }
    }

    /// Install a failure-recovery policy (timeouts, backoff, retry budget).
    pub fn set_recovery(&mut self, policy: RetryPolicy) {
        self.recovery = policy;
    }

    /// Enable partition liveness checking: heartbeat words live at
    /// `base + srv`, and a value older than `patience` cycles quarantines
    /// the partition.
    pub fn set_liveness(&mut self, base: u64, patience: u64) {
        self.hb_base = Some(base);
        self.hb_patience = Some(patience);
    }

    /// Partition of a lane's update transaction — asserts the footprint is
    /// partition-confined (the documented restriction of this prototype).
    fn lane_partition(&self, lane: usize) -> usize {
        let l = &self.exec.lanes[lane];
        // Update txs always have writes; an empty set degrades to partition 0
        // rather than panicking in the commit path.
        let owner = |item| steps::partition_of(item, self.num_servers);
        let part = owner(l.ws.first().map_or(0, |&(item, _)| item));
        let footprint =
            l.ws.iter()
                .map(|&(item, _)| item)
                .chain(l.rs.iter().copied());
        for item in footprint {
            assert_eq!(
                owner(item),
                part,
                "multi-server CSMV requires partition-confined update transactions"
            );
        }
        part
    }

    /// Committing lanes belonging to server `srv`.
    fn server_mask(&self, srv: usize) -> u32 {
        let mut m = 0;
        for lane in 0..WARP_LANES {
            if self.exec.committing_update_mask() & (1 << lane) != 0
                && self.lane_partition(lane) == srv
            {
                m |= 1 << lane;
            }
        }
        m
    }

    /// The phase after execution or a pre-validation step.
    fn after(&mut self, from: usize, now: u64) -> McPhase {
        match ClientRound::settled(&self.exec, from, true) {
            Settled::Idle => McPhase::Begin,
            Settled::PreVal(lane) => McPhase::PreVal { lane },
            Settled::Submit => self.arm_send(now),
        }
    }

    fn arm_send(&mut self, now: u64) -> McPhase {
        // Lanes routed to a dead partition fail up front: nobody will ever
        // answer, so don't even post the request.
        for srv in 0..self.num_servers {
            if self.quarantined[srv] {
                let mask = self.server_mask(srv);
                fail_lanes(&mut self.exec, mask, now, AbortReason::ServerUnavailable);
            }
        }
        self.involved = (0..self.num_servers)
            .filter(|&srv| self.server_mask(srv) != 0)
            .collect();
        if self.involved.is_empty() {
            McPhase::Begin
        } else {
            McPhase::Send { k: 0, sub: 0 }
        }
    }

    /// Declare partition `srv` dead: fail its in-flight lanes and stop
    /// sending to it for the rest of the run.
    fn quarantine(&mut self, srv: usize, now: u64) {
        self.quarantined[srv] = true;
        self.exec.metrics.record_fault(FaultEvent::Quarantine);
        let mask = self.server_mask(srv);
        fail_lanes(&mut self.exec, mask, now, AbortReason::ServerUnavailable);
    }

    /// Mark the lanes whose commit timestamp is at most `gts` published.
    fn mark_published(&mut self, gts: u64) {
        for (l, &cts) in self.round.lane_cts.iter().enumerate() {
            if cts != 0 && cts <= gts {
                self.lane_published[l] = true;
            }
        }
    }

    /// Next phase once the `k`-th involved server's batch has been resolved
    /// (outcome consumed, or its lanes terminally failed).
    fn after_wait(&mut self, k: usize) -> McPhase {
        if k + 1 < self.involved.len() {
            McPhase::Wait { k: k + 1 }
        } else if self.round.committed_mask() == 0 {
            McPhase::FinishRound
        } else {
            McPhase::WriteBack { widx: 0, sub: 0 }
        }
    }
}

impl<S: TxSource + 'static> WarpProgram for MultiClient<S> {
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
        match self.phase {
            McPhase::Begin => {
                self.lane_published = [false; WARP_LANES];
                self.phase = if self.round.begin(w, &mut self.exec) {
                    McPhase::Bodies
                } else {
                    McPhase::SignalDone
                };
                StepOutcome::Running
            }
            McPhase::Bodies => {
                if self.round.bodies(w, &mut self.exec) {
                    self.phase = McPhase::Settle;
                }
                StepOutcome::Running
            }
            McPhase::Settle => {
                let now = self.round.settle(w, &mut self.exec);
                self.phase = self.after(0, now);
                StepOutcome::Running
            }
            McPhase::PreVal { lane } => {
                let now = ClientRound::preval(w, &mut self.exec, lane, |ws_len, _| ws_len.max(1));
                self.phase = self.after(lane + 1, now);
                StepOutcome::Running
            }
            McPhase::Send { k, sub } => {
                w.set_phase(Phase::WaitServer.id());
                let srv = self.involved[k];
                let mailbox = &self.mailboxes[srv];
                match sub {
                    0 => {
                        mailbox.send_hdr_a(w, &self.exec, self.server_mask(srv));
                        self.phase = McPhase::Send { k, sub: 1 };
                    }
                    1 => {
                        mailbox.send_hdr_b(w, &self.exec);
                        self.phase = McPhase::Send { k, sub: 2 };
                    }
                    2 => {
                        // Fresh batch seq for this server's slot.
                        self.srv_seq[srv] = self.next_seq;
                        self.next_seq += 1;
                        self.srv_attempt[srv] = 0;
                        self.delay_served = false;
                        mailbox.send_seq(w, self.srv_seq[srv]);
                        self.phase = McPhase::Send { k, sub: 3 };
                    }
                    _ => {
                        let seq = self.srv_seq[srv];
                        let (delay, dropped) =
                            mailbox.send_faults(w, seq, self.srv_attempt[srv], !self.delay_served);
                        if delay > 0 {
                            self.delay_served = true;
                            self.exec.metrics.record_fault(FaultEvent::DelayInjected);
                            self.phase = McPhase::Backoff {
                                k,
                                resume_at: w.now() + delay,
                                resend: false,
                            };
                            return StepOutcome::Running;
                        }
                        self.delay_served = false;
                        self.srv_sent[srv] = w.now();
                        mailbox.post(w, seq, dropped);
                        self.phase = if k + 1 < self.involved.len() {
                            McPhase::Send { k: k + 1, sub: 0 }
                        } else {
                            McPhase::Wait { k: 0 }
                        };
                    }
                }
                StepOutcome::Running
            }
            McPhase::Backoff {
                k,
                resume_at,
                resend,
            } => {
                w.set_phase(Phase::WaitServer.id());
                if w.now() >= resume_at {
                    self.phase = if resend {
                        McPhase::Resend { k }
                    } else {
                        McPhase::Send { k, sub: 3 }
                    };
                } else {
                    w.poll_wait();
                }
                StepOutcome::Running
            }
            McPhase::Resend { k } => {
                w.set_phase(Phase::WaitServer.id());
                let srv = self.involved[k];
                let seq = self.srv_seq[srv];
                self.exec.metrics.record_fault(FaultEvent::Resend);
                let mailbox = &self.mailboxes[srv];
                let (_, dropped) = mailbox.send_faults(w, seq, self.srv_attempt[srv], false);
                self.srv_sent[srv] = w.now();
                // The seq word is unchanged, so a successfully delivered
                // duplicate is suppressed by the receiver (the response is
                // re-armed, not reprocessed).
                mailbox.post(w, seq, dropped);
                self.phase = McPhase::Wait { k };
                StepOutcome::Running
            }
            McPhase::Wait { k } => {
                w.set_phase(Phase::WaitServer.id());
                let srv = self.involved[k];
                if self.mailboxes[srv].response_ready(w, self.srv_seq[srv]) {
                    self.phase = McPhase::Outcomes { k, cleared: false };
                    return StepOutcome::Running;
                }
                let now = w.now();
                // Liveness: a stale heartbeat means the partition's server SM
                // died. Quarantine it — its lanes fail, the others carry on.
                if let (Some(base), Some(patience)) = (self.hb_base, self.hb_patience) {
                    let hb = w.global_read1_ord(0, base + srv as u64, MemOrder::Acquire);
                    if steps::heartbeat_stale(now, hb, patience) {
                        self.quarantine(srv, now);
                        self.phase = self.after_wait(k);
                        return StepOutcome::Running;
                    }
                }
                let timed_out = self
                    .recovery
                    .resp_timeout
                    .is_some_and(|t| now.saturating_sub(self.srv_sent[srv]) > t);
                if !timed_out {
                    w.poll_wait();
                    return StepOutcome::Running;
                }
                self.exec.metrics.record_fault(FaultEvent::Timeout);
                self.srv_attempt[srv] += 1;
                if self.srv_attempt[srv] >= self.recovery.max_send_attempts {
                    // Terminal: this partition is unreachable for the batch.
                    let mask = self.server_mask(srv);
                    fail_lanes(&mut self.exec, mask, now, AbortReason::ServerTimeout);
                    self.phase = self.after_wait(k);
                } else {
                    let actor = (self.slot * self.num_servers + srv) as u64;
                    let delay = self.recovery.backoff_cycles(
                        actor,
                        self.srv_seq[srv],
                        self.srv_attempt[srv],
                    );
                    self.phase = McPhase::Backoff {
                        k,
                        resume_at: now + delay,
                        resend: true,
                    };
                }
                StepOutcome::Running
            }
            McPhase::Outcomes { k, cleared } => {
                w.set_phase(Phase::WaitServer.id());
                let srv = self.involved[k];
                let mailbox = &self.mailboxes[srv];
                if !cleared {
                    mailbox.read_outcomes(w, &mut self.exec, &mut self.round.lane_cts);
                    self.phase = McPhase::Outcomes { k, cleared: true };
                } else {
                    mailbox.release(w, &mut self.exec, self.srv_seq[srv]);
                    self.phase = self.after_wait(k);
                }
                StepOutcome::Running
            }
            McPhase::WriteBack { widx, sub } => {
                self.phase = match self.round.write_back(w, &self.exec, widx, sub) {
                    Some((widx, sub)) => McPhase::WriteBack { widx, sub },
                    None => {
                        w.alu(full_mask(), 1);
                        McPhase::GtsPublish
                    }
                };
                StepOutcome::Running
            }
            McPhase::GtsPublish => {
                w.set_phase(Phase::WaitGts.id());
                if self.gts_wait_start.is_none() {
                    self.gts_wait_start = Some(w.now());
                }
                // Progressive publication: timestamps may be non-consecutive
                // across servers, so publish each run of consecutive cts as
                // its turn comes.
                // Acquire: pairs with other warps' GTS publications.
                let gts = w.global_read1_ord(0, self.gts_addr, MemOrder::Acquire);
                // A crash-hole skip (below) may have advanced the GTS past
                // one of our timestamps; the write-back is already complete
                // (WriteBack precedes GtsPublish), so the version is visible
                // and the turn is simply done.
                self.mark_published(gts);
                let cts = self.round.lane_cts;
                let pending: Vec<u64> = (0..WARP_LANES)
                    .filter(|&l| !self.lane_published[l] && cts[l] != 0)
                    .map(|l| cts[l])
                    .collect();
                let new_gts = steps::gts_run(gts, &pending);
                self.mark_published(new_gts);
                if new_gts > gts {
                    // Release: snapshot readers must see our write-back.
                    w.global_write1_ord(0, self.gts_addr, new_gts, MemOrder::Release);
                }
                let pending = (0..WARP_LANES).any(|l| cts[l] != 0 && !self.lane_published[l]);
                if pending {
                    // Crash fallback: a cts reserved by a server that died
                    // mid-commit is never delivered to any client, leaving a
                    // permanent hole in the GTS turn order. Once a partition
                    // is known dead and the GTS has been parked long enough
                    // for any live owner to take its turn, publish *through*
                    // the hole — the lost cts has no write-back to expose, so
                    // skipping it is invisible to snapshot readers. The CAS
                    // makes a late owner win over a concurrent skipper.
                    let now = w.now();
                    let stuck_for = match self.gts_stuck {
                        Some((g, since)) if g == new_gts => now.saturating_sub(since),
                        _ => {
                            self.gts_stuck = Some((new_gts, now));
                            0
                        }
                    };
                    // A parked client may never have talked to the dead
                    // partition (its footprint lives elsewhere), so consult
                    // every heartbeat — the hole's owner was on a partition
                    // this client need not be a customer of. Flag-only: the
                    // client's own outcomes are already settled here.
                    if let (Some(base), Some(patience)) = (self.hb_base, self.hb_patience) {
                        if stuck_for > patience {
                            let mut hb_mask: Mask = 0;
                            for srv in 0..self.num_servers {
                                hb_mask |= 1 << srv;
                            }
                            let hbs =
                                w.global_read_ord(hb_mask, |l| base + l as u64, MemOrder::Acquire);
                            for (srv, &hb) in hbs.iter().enumerate().take(self.num_servers) {
                                if !self.quarantined[srv]
                                    && steps::heartbeat_stale(now, hb, patience)
                                {
                                    self.quarantined[srv] = true;
                                    self.exec.metrics.record_fault(FaultEvent::Quarantine);
                                }
                            }
                        }
                    }
                    let skip_after = self.hb_patience.map(|p| p.saturating_mul(4));
                    if self.quarantined.iter().any(|&q| q)
                        && skip_after.is_some_and(|s| stuck_for > s)
                    {
                        self.gts_stuck = None;
                        w.global_cas1(0, self.gts_addr, new_gts, new_gts + 1);
                    } else {
                        w.poll_wait();
                    }
                } else {
                    self.gts_stuck = None;
                    let now = w.now();
                    let started = self.gts_wait_start.take().unwrap_or(now);
                    self.exec
                        .metrics
                        .gts_stall
                        .push(now.saturating_sub(started));
                    self.phase = McPhase::FinishRound;
                }
                StepOutcome::Running
            }
            McPhase::FinishRound => {
                self.round.finish_round(w, &mut self.exec);
                self.phase = McPhase::Begin;
                StepOutcome::Running
            }
            McPhase::SignalDone => {
                self.round.signal_done(w);
                self.phase = McPhase::Finished;
                StepOutcome::Running
            }
            McPhase::Finished => StepOutcome::Done,
        }
    }
}

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

/// Run a workload on multi-server CSMV. Same contract as [`crate::run`];
/// update transactions must be partition-confined (see the module docs).
/// Panics on a refused config or a watchdog stall; use
/// [`run_multi_checked`] to get the error.
pub fn run_multi<S, F>(
    cfg: &MultiCsmvConfig,
    make_source: F,
    num_items: u64,
    initial: impl FnMut(u64) -> u64,
) -> RunResult
where
    S: TxSource + 'static,
    F: FnMut(usize) -> S,
{
    run_multi_checked(cfg, make_source, num_items, initial).unwrap_or_else(|e| panic!("{e}"))
}

/// Run a workload on multi-server CSMV, with launch-time configuration
/// errors and watchdog-diagnosed stalls reported as values instead of
/// panics.
pub fn run_multi_checked<S, F>(
    cfg: &MultiCsmvConfig,
    make_source: F,
    num_items: u64,
    initial: impl FnMut(u64) -> u64,
) -> Result<RunResult, RunError>
where
    S: TxSource + 'static,
    F: FnMut(usize) -> S,
{
    cfg.validate().map_err(RunError::Config)?;
    let num_clients = cfg.num_client_warps();
    let first_server_sm = cfg.gpu.num_sms - cfg.num_servers;
    // Host words: the global cts counter, then one liveness heartbeat per
    // partition (word srv is stamped by partition srv's receiver on every
    // poll sweep).
    let Launch {
        mut dev,
        gts_addr,
        done_addr,
        extra_addr: global_cts_addr,
        heap,
        payload,
    } = Launch::new(
        &cfg.gpu,
        1 + cfg.num_servers,
        (num_items, cfg.versions_per_box, initial),
        (num_clients, cfg.max_rs, cfg.max_ws),
    );
    let hb_base = global_cts_addr + 1;
    dev.global_mut().write(global_cts_addr, 1); // cts are 1-based
    launch::arm(&mut dev, &cfg.faults, cfg.max_idle_cycles, cfg.analysis);
    // Per-server header/outcome mailboxes beside the shared payload region.
    let hdr_protos: Vec<CommitProtocol> = (0..cfg.num_servers)
        .map(|_| CommitProtocol::alloc(dev.global_mut(), num_clients, 1, 1))
        .collect();

    let mut servers = Vec::new();
    let mut atrs = Vec::new();
    for (srv, hdr_proto) in hdr_protos.iter().enumerate() {
        let sm = first_server_sm + srv;
        let atr = PartitionedAtr::alloc(&mut dev, sm, cfg.atr_capacity, cfg.max_ws);
        atrs.push(atr.clone());
        let ctl = ServerControl::alloc(&mut dev, sm, num_clients);
        let mut receiver =
            ReceiverWarp::new(hdr_proto.clone(), ctl.clone(), num_clients, done_addr);
        receiver.set_fault_channel(srv as u64);
        if cfg.heartbeat_patience.is_some() {
            receiver.set_heartbeat(hb_base + srv as u64);
        }
        servers.push(dev.spawn(sm, Box::new(receiver)));
        for _ in 0..cfg.server_workers {
            let worker = MultiWorker::new(
                hdr_proto.clone(),
                payload.clone(),
                ctl.clone(),
                atr.clone(),
                global_cts_addr,
                srv,
            );
            servers.push(dev.spawn(sm, Box::new(worker)));
        }
    }
    if cfg.analysis.invariants {
        // Kill/crash plans leave reserved timestamps unpublished and
        // quarantine holes, so the completeness checks only apply to
        // plans that let every warp finish.
        let expect_complete = cfg
            .faults
            .as_ref()
            .is_none_or(|p| p.spec().kills.is_empty() && p.spec().crash_sms.is_empty());
        dev.add_invariant_checker(Box::new(crate::check::MultiCsmvInvariantChecker::new(
            atrs,
            heap.clone(),
            gts_addr,
            global_cts_addr,
            first_server_sm,
            expect_complete,
        )));
    }

    let exec_cfg = MvExecConfig::new(cfg.record_history, &cfg.recovery);
    let clients = launch::spawn_clients(
        &mut dev,
        first_server_sm,
        cfg.warps_per_sm,
        make_source,
        |_, sources, thread_base, slot| {
            let mut client = MultiClient::new(
                sources,
                thread_base,
                exec_cfg.clone(),
                heap.clone(),
                hdr_protos.clone(),
                &payload,
                slot,
                gts_addr,
                done_addr,
            );
            client.set_recovery(cfg.recovery.clone());
            if let Some(patience) = cfg.heartbeat_patience {
                client.set_liveness(hb_base, patience);
            }
            client
        },
    );
    finish(
        dev,
        &servers,
        &clients,
        |w: &MultiWorker| &w.metrics,
        |c: &mut MultiClient<S>| c.exec.harvest(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use stm_core::{check_history, TxLogic, TxOp};

    /// A partition-confined transfer: both accounts in the same partition.
    #[derive(Clone)]
    struct PTransfer {
        from: u64,
        to: u64,
        step: u8,
        a: u64,
        b: u64,
    }
    impl TxLogic for PTransfer {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.step = 0;
        }
        fn next(&mut self, last: Option<u64>) -> TxOp {
            match self.step {
                0 => {
                    self.step = 1;
                    TxOp::Read { item: self.from }
                }
                1 => {
                    self.a = last.unwrap();
                    self.step = 2;
                    TxOp::Read { item: self.to }
                }
                2 => {
                    self.b = last.unwrap();
                    self.step = 3;
                    let amt = 5.min(self.a);
                    TxOp::Write {
                        item: self.from,
                        value: self.a - amt,
                    }
                }
                3 => {
                    self.step = 4;
                    let amt = 5.min(self.a);
                    TxOp::Write {
                        item: self.to,
                        value: self.b + amt,
                    }
                }
                _ => TxOp::Finish,
            }
        }
    }

    /// A full scan (unrestricted ROT).
    #[derive(Clone)]
    struct Scan {
        items: u64,
        next: u64,
    }
    impl TxLogic for Scan {
        fn is_read_only(&self) -> bool {
            true
        }
        fn reset(&mut self) {
            self.next = 0;
        }
        fn next(&mut self, _last: Option<u64>) -> TxOp {
            if self.next < self.items {
                let item = self.next;
                self.next += 1;
                TxOp::Read { item }
            } else {
                TxOp::Finish
            }
        }
    }

    enum Mixed {
        T(PTransfer),
        S(Scan),
    }
    impl TxLogic for Mixed {
        fn is_read_only(&self) -> bool {
            matches!(self, Mixed::S(_))
        }
        fn reset(&mut self) {
            match self {
                Mixed::T(t) => t.reset(),
                Mixed::S(s) => s.reset(),
            }
        }
        fn next(&mut self, last: Option<u64>) -> TxOp {
            match self {
                Mixed::T(t) => t.next(last),
                Mixed::S(s) => s.next(last),
            }
        }
    }

    struct Src {
        txs: Vec<Mixed>,
    }
    impl TxSource for Src {
        type Tx = Mixed;
        fn next_tx(&mut self) -> Option<Mixed> {
            self.txs.pop()
        }
    }

    const ITEMS: u64 = 64;

    fn make_src(cfg: &MultiCsmvConfig, thread: usize, txs: usize) -> Src {
        let servers = cfg.num_servers as u64;
        let mut v = Vec::new();
        for i in 0..txs {
            if (thread + i).is_multiple_of(3) {
                v.push(Mixed::S(Scan {
                    items: ITEMS,
                    next: 0,
                }));
            } else {
                // Same partition: from ≡ to (mod num_servers).
                let from = ((thread as u64) * 7 + i as u64 * servers) % ITEMS;
                let to = (from + servers * 3) % ITEMS;
                let (from, to) = if from == to {
                    (from, (to + servers) % ITEMS)
                } else {
                    (from, to)
                };
                v.push(Mixed::T(PTransfer {
                    from,
                    to,
                    step: 0,
                    a: 0,
                    b: 0,
                }));
            }
        }
        Src { txs: v }
    }

    fn run_small(num_servers: usize, seed_shift: usize) -> (MultiCsmvConfig, RunResult) {
        let gpu = GpuConfig {
            num_sms: 4 + num_servers,
            ..Default::default()
        };
        let cfg = MultiCsmvConfig {
            gpu,
            num_servers,
            versions_per_box: 8,
            server_workers: 2,
            ..Default::default()
        };
        let txs = 3;
        let res = run_multi(
            &cfg,
            |t| make_src(&cfg, t + seed_shift, txs),
            ITEMS,
            |_| 100,
        );
        (cfg, res)
    }

    #[test]
    fn multi_server_runs_race_free_and_invariant_clean() {
        let gpu = GpuConfig {
            num_sms: 6,
            ..Default::default()
        };
        let cfg = MultiCsmvConfig {
            gpu,
            num_servers: 2,
            versions_per_box: 8,
            server_workers: 2,
            analysis: AnalysisConfig {
                races: true,
                invariants: true,
            },
            ..Default::default()
        };
        let res = run_multi(&cfg, |t| make_src(&cfg, t, 3), ITEMS, |_| 100);
        let report = res.analysis.expect("analysis was enabled");
        assert!(report.events > 0);
        assert_eq!(report.race_count, 0, "races: {:?}", report.races);
        assert_eq!(
            report.violation_count(),
            0,
            "violations: {:?}",
            report.violations
        );
    }

    /// Message faults force resends and duplicate filtering, but the commit
    /// protocol's invariants (and the end-of-run completeness checks — no
    /// warp dies, so the run is complete) must still hold.
    #[test]
    fn multi_server_invariant_clean_under_message_faults() {
        use gpu_sim::{FaultPlan, FaultSpec};
        use stm_core::RetryPolicy;
        let gpu = GpuConfig {
            num_sms: 6,
            ..Default::default()
        };
        let cfg = MultiCsmvConfig {
            gpu,
            num_servers: 2,
            versions_per_box: 8,
            server_workers: 2,
            analysis: AnalysisConfig {
                races: false,
                invariants: true,
            },
            faults: Some(FaultPlan::new(
                0xFA117,
                FaultSpec {
                    drop_req: 0.2,
                    drop_resp: 0.2,
                    dup_req: 0.1,
                    ..FaultSpec::default()
                },
            )),
            recovery: RetryPolicy {
                resp_timeout: Some(10_000),
                max_send_attempts: 16,
                backoff_base: 64,
                backoff_cap: 4096,
                jitter_seed: 0x5EED,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = run_multi(&cfg, |t| make_src(&cfg, t, 3), ITEMS, |_| 100);
        let report = res.analysis.expect("analysis was enabled");
        assert!(report.events > 0);
        assert_eq!(
            report.violation_count(),
            0,
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn multi_server_history_is_opaque() {
        for servers in [1, 2, 4] {
            let (cfg, res) = run_small(servers, 0);
            assert_eq!(
                res.stats.commits(),
                (cfg.num_threads() * 3) as u64,
                "{servers} servers"
            );
            let initial: HashMap<u64, u64> = (0..ITEMS).map(|i| (i, 100)).collect();
            check_history(&res.records, &initial, true)
                .unwrap_or_else(|e| panic!("{servers} servers: {e}"));
            // Money conserved.
            let mut heap = initial;
            let mut updates: Vec<_> = res.records.iter().filter(|r| r.cts.is_some()).collect();
            updates.sort_by_key(|r| r.cts.unwrap());
            for (i, r) in updates.iter().enumerate() {
                assert_eq!(r.cts.unwrap(), i as u64 + 1, "global cts must be dense");
            }
            for r in updates {
                for &(item, value) in &r.writes {
                    heap.insert(item, value);
                }
            }
            assert_eq!(heap.values().sum::<u64>(), ITEMS * 100);
        }
    }

    #[test]
    fn multi_server_is_deterministic() {
        let a = run_small(2, 1).1;
        let b = run_small(2, 1).1;
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn multi_server_message_faults_preserve_correctness() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let spec: FaultSpec = "drop_req=0.2,drop_resp=0.2,dup_req=0.1,delay_req=0.3x200"
            .parse()
            .unwrap();
        let cfg = MultiCsmvConfig {
            gpu: GpuConfig {
                num_sms: 6,
                ..Default::default()
            },
            num_servers: 2,
            versions_per_box: 8,
            server_workers: 2,
            faults: Some(FaultPlan::new(0xFA02, spec)),
            recovery: RetryPolicy {
                resp_timeout: Some(20_000),
                max_send_attempts: 16,
                backoff_base: 64,
                backoff_cap: 4096,
                jitter_seed: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        let txs = 3;
        let res = run_multi_checked(&cfg, |t| make_src(&cfg, t, txs), ITEMS, |_| 100)
            .expect("recovery must keep the run live");
        let total = (cfg.num_threads() * txs) as u64;
        assert_eq!(
            res.stats.commits() + res.stats.failed,
            total,
            "every transaction must commit or fail terminally"
        );
        assert!(
            res.metrics.faults.total() > 0,
            "the plan must actually inject faults: {:?}",
            res.metrics.faults
        );
        let initial: HashMap<u64, u64> = (0..ITEMS).map(|i| (i, 100)).collect();
        check_history(&res.records, &initial, true).expect("opaque history");
    }

    #[test]
    fn crashed_server_leaves_surviving_partitions_committing() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let mk_cfg = |faults: Option<FaultPlan>| MultiCsmvConfig {
            gpu: GpuConfig {
                num_sms: 6,
                ..Default::default()
            },
            num_servers: 2,
            versions_per_box: 8,
            server_workers: 2,
            // Generous timeout/attempts: terminal give-up on a *live* server
            // would abandon a batch the server may still process (see
            // DESIGN.md §11); the dead partition is handled by the heartbeat
            // quarantine, which fires long before the retry budget runs out.
            recovery: RetryPolicy {
                resp_timeout: Some(20_000),
                max_send_attempts: 16,
                backoff_base: 64,
                backoff_cap: 2048,
                jitter_seed: 3,
                ..Default::default()
            },
            heartbeat_patience: Some(25_000),
            max_idle_cycles: Some(400_000),
            faults,
            ..Default::default()
        };
        // Probe the healthy run length, then kill partition 1's server SM a
        // third of the way in (SM 5 = last of 6; servers run on SMs 4 and 5).
        let txs = 6;
        let healthy_cfg = mk_cfg(None);
        let healthy = run_multi_checked(
            &healthy_cfg,
            |t| make_src(&healthy_cfg, t, txs),
            ITEMS,
            |_| 100,
        )
        .expect("healthy run");
        let crash_at = (healthy.elapsed_cycles / 3).max(1);
        let spec: FaultSpec = format!("crash_sm=5@{crash_at}").parse().unwrap();
        let cfg = mk_cfg(Some(FaultPlan::new(0xC0A5, spec)));
        let res = run_multi_checked(&cfg, |t| make_src(&cfg, t, txs), ITEMS, |_| 100)
            .expect("survivors must drain the run, not hang");
        let total = (cfg.num_threads() * txs) as u64;
        assert_eq!(
            res.stats.commits() + res.stats.failed,
            total,
            "every transaction must commit or fail terminally"
        );
        assert!(
            res.stats.commits() > 0,
            "surviving partitions must keep committing"
        );
        assert!(
            res.stats.failed > 0,
            "the dead partition's transactions must fail"
        );
        assert!(
            res.metrics.faults.count(FaultEvent::Quarantine) > 0,
            "clients must quarantine the dead partition: {:?}",
            res.metrics.faults
        );
        assert!(
            res.metrics.aborts.count(AbortReason::ServerUnavailable) > 0,
            "failed transactions must be attributed to the dead server"
        );
        // Committed transactions stay opaque even with the crash mid-run.
        let initial: HashMap<u64, u64> = (0..ITEMS).map(|i| (i, 100)).collect();
        check_history(&res.records, &initial, true).expect("opaque history for survivors");
    }

    /// `run_multi_checked` refuses `cfg` before allocating anything, with
    /// the error `validate` gives.
    fn refused(cfg: MultiCsmvConfig) -> CsmvConfigError {
        let err = cfg.validate().expect_err("the config must be refused");
        let ran = run_multi_checked(&cfg, |t| make_src(&cfg, t, 1), ITEMS, |_| 100);
        assert_eq!(ran.err(), Some(RunError::Config(err.clone())));
        err
    }

    fn valid() -> MultiCsmvConfig {
        MultiCsmvConfig {
            gpu: GpuConfig {
                num_sms: 4,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn zero_servers_are_refused() {
        assert_eq!(valid().validate(), Ok(()));
        let cfg = MultiCsmvConfig {
            num_servers: 0,
            ..valid()
        };
        assert_eq!(refused(cfg), CsmvConfigError::NoServers);
    }

    #[test]
    fn a_device_of_only_server_sms_is_refused() {
        let mut cfg = valid();
        cfg.num_servers = cfg.gpu.num_sms;
        assert_eq!(refused(cfg), CsmvConfigError::NotEnoughSms { num_sms: 4 });
    }

    #[test]
    fn an_atr_beyond_a_server_sms_shared_memory_is_refused() {
        let cfg = MultiCsmvConfig {
            atr_capacity: 1 << 20,
            ..valid()
        };
        let err = refused(cfg);
        assert!(matches!(err, CsmvConfigError::SharedMemoryExhausted { .. }));
        assert!(err.to_string().contains("shared memory exhausted"));
    }

    #[test]
    fn zero_server_workers_are_refused() {
        let cfg = MultiCsmvConfig {
            server_workers: 0,
            ..valid()
        };
        assert_eq!(refused(cfg), CsmvConfigError::NoServerWorkers);
    }

    #[test]
    fn zero_client_warps_are_refused() {
        let cfg = MultiCsmvConfig {
            warps_per_sm: 0,
            ..valid()
        };
        assert_eq!(refused(cfg), CsmvConfigError::NoClientWarps);
    }

    #[test]
    #[should_panic(expected = "partition-confined")]
    fn cross_partition_updates_are_rejected() {
        let gpu = GpuConfig {
            num_sms: 3,
            ..Default::default()
        };
        let cfg = MultiCsmvConfig {
            gpu,
            num_servers: 2,
            ..Default::default()
        };
        // from and to in different partitions (64 is even, offset 1).
        let _ = run_multi(
            &cfg,
            |_| Src {
                txs: vec![Mixed::T(PTransfer {
                    from: 0,
                    to: 1,
                    step: 0,
                    a: 0,
                    b: 0,
                })],
            },
            ITEMS,
            |_| 100,
        );
    }
}

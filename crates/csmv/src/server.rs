//! The commit server: a dedicated SM running one **receiver warp** (polls
//! client mailboxes, dispatches batches) and several **worker warps**
//! (validate batches against the shared-memory ATR, reserve commit
//! timestamps with a single atomic per batch, insert the entries, reply).
//!
//! Everything latency-critical — the ATR, the dispatch queue, `next_cts` —
//! lives in the server SM's shared memory; only the request/response
//! payloads and (for the OnlyCs ablation) the write-back touch global
//! memory. This is the half of CSMV's design that turns the commit
//! bottleneck of JVSTM-GPU's global-memory ATR into on-chip traffic.

use gpu_sim::channel::{STATUS_CLAIMED, STATUS_REQUEST, STATUS_RESPONSE};
use gpu_sim::{
    full_mask, single_lane, Mask, MemOrder, StepOutcome, WarpCtx, WarpProgram, WARP_LANES,
};
use stm_core::mv_exec::unpack_ws_entry;
use stm_core::{AbortReason, FaultEvent, MetricsReport, Phase, VBoxHeap};

use crate::atr::SharedAtr;
use crate::protocol::{pack_abort, pack_commit, CommitProtocol, OUTCOME_NONE};
use crate::steps::{self, ReserveOutcome, TagState};
use crate::variant::CsmvVariant;

/// Shared-memory control block of the server SM: the dispatch queue plus the
/// shutdown flag.
#[derive(Debug, Clone)]
pub struct ServerControl {
    q_head: u64,
    q_tail: u64,
    q_base: u64,
    q_cap: u64,
    shutdown: u64,
}

impl ServerControl {
    /// Allocate the control block in `sm`'s shared memory. The queue is
    /// sized to the client count (each client has at most one outstanding
    /// request, so it can never overflow).
    pub fn alloc(dev: &mut gpu_sim::Device, sm: usize, num_clients: usize) -> Self {
        Self::alloc_with_queue(dev, sm, num_clients.max(1))
    }

    /// Allocate the control block with an explicit dispatch-queue capacity.
    /// A capacity below the client count makes queue-full rejections
    /// reachable (the receiver then refuses overflowing batches with
    /// [`stm_core::AbortReason::ServerQueueFull`]).
    pub fn alloc_with_queue(dev: &mut gpu_sim::Device, sm: usize, q_cap: usize) -> Self {
        assert!(q_cap >= 1);
        let q_head = dev.alloc_shared(sm, 1);
        let q_tail = dev.alloc_shared(sm, 1);
        let shutdown = dev.alloc_shared(sm, 1);
        let q_cap = q_cap as u64;
        let q_base = dev.alloc_shared(sm, q_cap as usize);
        Self {
            q_head,
            q_tail,
            q_base,
            q_cap,
            shutdown,
        }
    }

    /// Dispatch-queue capacity in entries.
    pub(crate) fn q_capacity(&self) -> u64 {
        self.q_cap
    }

    /// Address of the queue-head word.
    pub(crate) fn q_head_addr(&self) -> u64 {
        self.q_head
    }

    /// Address of the queue-tail word.
    pub(crate) fn q_tail_addr(&self) -> u64 {
        self.q_tail
    }

    /// Address of the shutdown flag.
    pub(crate) fn shutdown_addr(&self) -> u64 {
        self.shutdown
    }

    /// Address of queue entry `idx`.
    pub(crate) fn q_entry_addr(&self, idx: u64) -> u64 {
        self.q_base + idx % self.q_cap
    }
}

// ---------------------------------------------------------------------------
// Receiver warp
// ---------------------------------------------------------------------------

/// The receiver warp: one coalesced status read covers 32 mailboxes; found
/// requests are claimed and pushed onto the shared-memory dispatch queue.
pub struct ReceiverWarp {
    proto: CommitProtocol,
    ctl: ServerControl,
    num_clients: usize,
    done_addr: u64,
    /// Next chunk of 32 mailboxes to poll.
    chunk: usize,
    /// Requests found since the last full sweep.
    found_in_sweep: bool,
    /// Local tail copy (the receiver is the only producer).
    tail: u64,
    /// Last batch seq received per slot (0 = none yet). A re-polled REQUEST
    /// carrying the same seq is a duplicate: the receiver re-arms the
    /// already-written response instead of dispatching it again, giving the
    /// protocol at-most-once batch processing (see `gpu_sim::channel`).
    last_seq: Vec<u64>,
    /// Response re-send count per slot for the current seq, folded into the
    /// fault plan's drop decision so retried re-arms re-roll.
    resend_idx: Vec<u32>,
    /// Fault-domain channel id (partition index in multi-server setups).
    fault_channel: u64,
    /// Optional liveness word: the receiver stamps the current cycle here on
    /// every poll sweep so clients can detect a crashed partition.
    heartbeat: Option<u64>,
    /// Seeded bug (see [`ReceiverWarp::inject_plain_seq_read`]).
    #[cfg(feature = "seeded-bugs")]
    bug_plain_seq_read: bool,
    /// Receiver-side observability: duplicate suppressions.
    pub metrics: MetricsReport,
    st: RState,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum RState {
    Poll,
    /// Read the batch seq words of freshly seen REQUEST slots to separate
    /// new batches from duplicate re-posts.
    ReadSeq(Vec<usize>),
    /// Read the response seq echoes of suspected duplicates: echo == seq
    /// means the response is complete and can simply be re-armed.
    ReadEcho {
        fresh: Vec<usize>,
        dups: Vec<(usize, u64)>,
    },
    /// Re-arm the RESPONSE flag of fully-processed duplicate slots.
    Rearm {
        fresh: Vec<usize>,
        rearm: Vec<usize>,
    },
    Claim(Vec<usize>),
    /// Read the queue head to learn how much space is left.
    ReadHead(Vec<usize>),
    /// Queue full: read the overflowing slot's headers to learn which lanes
    /// were committing (they get the queue-full abort, the rest get NONE).
    RejectHdr {
        fits: Vec<usize>,
        rejected: Vec<usize>,
    },
    /// Write the queue-full abort outcomes for the first rejected slot.
    RejectOutcomes {
        fits: Vec<usize>,
        rejected: Vec<usize>,
        committing: Mask,
    },
    /// Write the rejected slot's response seq echo (the client only accepts
    /// a RESPONSE whose echo matches its in-flight seq).
    RejectEcho {
        fits: Vec<usize>,
        rejected: Vec<usize>,
    },
    /// Flip the rejected slot's status to RESPONSE and move on.
    RejectStatus {
        fits: Vec<usize>,
        rejected: Vec<usize>,
    },
    Push(Vec<usize>),
    PushTail(u64),
    CheckDone,
    Shutdown,
    Finished,
}

impl ReceiverWarp {
    /// Build the receiver.
    pub fn new(
        proto: CommitProtocol,
        ctl: ServerControl,
        num_clients: usize,
        done_addr: u64,
    ) -> Self {
        Self {
            proto,
            ctl,
            num_clients,
            done_addr,
            chunk: 0,
            found_in_sweep: false,
            tail: 0,
            last_seq: vec![0; num_clients],
            resend_idx: vec![1; num_clients],
            fault_channel: 0,
            heartbeat: None,
            #[cfg(feature = "seeded-bugs")]
            bug_plain_seq_read: false,
            metrics: MetricsReport::default(),
            st: RState::Poll,
        }
    }

    /// Seed the PR 4 protocol bug for checker-validation tests: the sweep
    /// reads the batch seq words with a *plain* (unordered) access, racing
    /// a timed-out client's recovery resend. The race detector must flag
    /// the first such read under a fault plan that forces a resend.
    #[cfg(feature = "seeded-bugs")]
    pub fn inject_plain_seq_read(&mut self) {
        self.bug_plain_seq_read = true;
    }

    fn plain_seq_read(&self) -> bool {
        #[cfg(feature = "seeded-bugs")]
        {
            self.bug_plain_seq_read
        }
        #[cfg(not(feature = "seeded-bugs"))]
        {
            false
        }
    }

    /// Set the fault-domain channel id (multi-server partition index).
    pub fn set_fault_channel(&mut self, channel: u64) {
        self.fault_channel = channel;
    }

    /// Enable the liveness heartbeat: the receiver writes the current cycle
    /// to `addr` on every poll sweep. Clients treat a stale value as a dead
    /// partition (see `multi::MultiClient`).
    pub fn set_heartbeat(&mut self, addr: u64) {
        self.heartbeat = Some(addr);
    }

    fn num_chunks(&self) -> usize {
        self.num_clients.div_ceil(WARP_LANES)
    }

    /// Current state, for diagnostics.
    pub fn debug_state(&self) -> String {
        format!("{:?} chunk={} tail={}", self.st, self.chunk, self.tail)
    }
}

impl WarpProgram for ReceiverWarp {
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
        w.set_phase(Phase::Receive.id());
        match std::mem::replace(&mut self.st, RState::Poll) {
            RState::Poll => {
                if let Some(hb) = self.heartbeat {
                    // Release so a client reading a fresh heartbeat also sees
                    // every response this receiver re-armed before it.
                    w.global_write1_ord(0, hb, w.now(), MemOrder::Release);
                }
                let lo = self.chunk * WARP_LANES;
                let n = (self.num_clients - lo).min(WARP_LANES);
                let mut mask: Mask = 0;
                for l in 0..n {
                    mask |= 1 << l;
                }
                let proto = &self.proto;
                // Acquire: seeing REQUEST makes the client's headers/payload
                // visible to the worker that will process the batch.
                let statuses = w.global_read_ord(
                    mask,
                    |l| proto.mailboxes().status_addr(lo + l),
                    MemOrder::Acquire,
                );
                let found: Vec<usize> = (0..n)
                    .filter(|&l| statuses[l] == STATUS_REQUEST)
                    .map(|l| lo + l)
                    .collect();
                self.chunk += 1;
                let wrapped = self.chunk >= self.num_chunks();
                if wrapped {
                    self.chunk = 0;
                }
                if !found.is_empty() {
                    self.found_in_sweep = true;
                    self.st = RState::ReadSeq(found);
                } else {
                    // An empty chunk is pure polling: rewind the progress
                    // accounting so an idle receiver cannot keep the
                    // stall watchdog from firing.
                    w.poll_wait();
                    if wrapped {
                        let had_any = std::mem::take(&mut self.found_in_sweep);
                        if !had_any {
                            self.st = RState::CheckDone;
                        } else {
                            self.st = RState::Poll;
                        }
                    } else {
                        self.st = RState::Poll;
                    }
                }
                StepOutcome::Running
            }
            RState::ReadSeq(slots) => {
                let mut mask: Mask = 0;
                for l in 0..slots.len() {
                    mask |= 1 << l;
                }
                let proto = &self.proto;
                // Acquire: seq words are control plane — a timed-out client
                // may rewrite one concurrently with this sweep (recovery
                // resend), so reads are ordered like the status word's.
                let seqs = if self.plain_seq_read() {
                    // Seeded bug: the unordered read races recovery resends.
                    // xtask-lint: allow (seeded-bugs mutation under test)
                    w.global_read(mask, |l| proto.req_seq_addr(slots[l]))
                } else {
                    w.global_read_ord(mask, |l| proto.req_seq_addr(slots[l]), MemOrder::Acquire)
                };
                let mut fresh = Vec::new();
                let mut dups = Vec::new();
                for (l, &slot) in slots.iter().enumerate() {
                    let seq = seqs[l];
                    if steps::is_duplicate_batch(seq, self.last_seq[slot]) {
                        // Same seq as last time: a timed-out client re-post.
                        dups.push((slot, seq));
                    } else {
                        self.last_seq[slot] = seq;
                        self.resend_idx[slot] = 1;
                        fresh.push(slot);
                    }
                }
                self.st = if !dups.is_empty() {
                    RState::ReadEcho { fresh, dups }
                } else if !fresh.is_empty() {
                    RState::Claim(fresh)
                } else {
                    RState::Poll
                };
                StepOutcome::Running
            }
            RState::ReadEcho { fresh, dups } => {
                let mut mask: Mask = 0;
                for l in 0..dups.len() {
                    mask |= 1 << l;
                }
                let proto = &self.proto;
                // Acquire: an echo equal to the seq certifies the worker's
                // response payload for that batch is complete.
                let echoes =
                    w.global_read_ord(mask, |l| proto.resp_seq_addr(dups[l].0), MemOrder::Acquire);
                let mut rearm = Vec::new();
                for (l, &(slot, seq)) in dups.iter().enumerate() {
                    if steps::response_certified(echoes[l], seq) {
                        // Already processed: suppress the duplicate and just
                        // re-deliver the response.
                        self.metrics.record_fault(FaultEvent::DuplicateSuppressed);
                        rearm.push(slot);
                    }
                    // echo != seq: a worker still owns the batch — leave the
                    // slot alone; the worker's RESPONSE flip will land later.
                }
                self.st = if !rearm.is_empty() {
                    RState::Rearm { fresh, rearm }
                } else if !fresh.is_empty() {
                    RState::Claim(fresh)
                } else {
                    RState::Poll
                };
                StepOutcome::Running
            }
            RState::Rearm { fresh, mut rearm } => {
                let slot = rearm.remove(0);
                let seq = self.last_seq[slot];
                let send_idx = self.resend_idx[slot];
                self.resend_idx[slot] = send_idx.saturating_add(1);
                let dropped = w.fault_plan().is_some_and(|p| {
                    p.drop_response(self.fault_channel, slot as u64, seq, send_idx)
                });
                if dropped {
                    // The re-delivery is lost in transit: pay the write cost
                    // without flipping the flag (idempotent echo rewrite).
                    w.global_write1_ord(0, self.proto.resp_seq_addr(slot), seq, MemOrder::Release);
                } else {
                    // Release: re-publishes the completed response.
                    w.global_write1_ord(
                        0,
                        self.proto.mailboxes().status_addr(slot),
                        STATUS_RESPONSE,
                        MemOrder::Release,
                    );
                }
                self.st = if !rearm.is_empty() {
                    RState::Rearm { fresh, rearm }
                } else if !fresh.is_empty() {
                    RState::Claim(fresh)
                } else {
                    RState::Poll
                };
                StepOutcome::Running
            }
            RState::Claim(slots) => {
                let mut mask: Mask = 0;
                for l in 0..slots.len() {
                    mask |= 1 << l;
                }
                let proto = &self.proto;
                // Release: marks the slots as owned by the server side.
                w.global_write_ord(
                    mask,
                    |l| proto.mailboxes().status_addr(slots[l]),
                    |_| STATUS_CLAIMED,
                    MemOrder::Release,
                );
                self.st = RState::ReadHead(slots);
                StepOutcome::Running
            }
            RState::ReadHead(slots) => {
                // Acquire: pairs with the workers' head-CAS releases; the
                // receiver is the only producer, so `tail` is its own copy.
                let head = w.shared_read1_ord(0, self.ctl.q_head_addr(), MemOrder::Acquire);
                let used = self.tail - head;
                let free = (self.ctl.q_capacity() - used) as usize;
                if slots.len() <= free {
                    self.st = RState::Push(slots);
                } else {
                    let mut fits = slots;
                    let rejected = fits.split_off(free);
                    self.st = RState::RejectHdr { fits, rejected };
                }
                StepOutcome::Running
            }
            RState::RejectHdr { fits, rejected } => {
                let slot = rejected[0];
                let proto = &self.proto;
                let hdrs = w.global_read(full_mask(), |l| proto.hdr_a_addr(slot, l));
                let mut committing: Mask = 0;
                for (l, &h) in hdrs.iter().enumerate() {
                    if CommitProtocol::unpack_hdr_a(h).0 {
                        committing |= 1 << l;
                    }
                }
                self.st = RState::RejectOutcomes {
                    fits,
                    rejected,
                    committing,
                };
                StepOutcome::Running
            }
            RState::RejectOutcomes {
                fits,
                rejected,
                committing,
            } => {
                let slot = rejected[0];
                let proto = &self.proto;
                let word = pack_abort(AbortReason::ServerQueueFull);
                w.global_write(
                    full_mask(),
                    |l| proto.outcome_addr(slot, l),
                    |l| {
                        if committing & (1 << l) != 0 {
                            word
                        } else {
                            OUTCOME_NONE
                        }
                    },
                );
                self.st = RState::RejectEcho { fits, rejected };
                StepOutcome::Running
            }
            RState::RejectEcho { fits, rejected } => {
                let slot = rejected[0];
                // The queue-full response is complete once its echo matches;
                // Release pairs with the client's echo-check acquire.
                w.global_write1_ord(
                    0,
                    self.proto.resp_seq_addr(slot),
                    self.last_seq[slot],
                    MemOrder::Release,
                );
                self.st = RState::RejectStatus { fits, rejected };
                StepOutcome::Running
            }
            RState::RejectStatus { fits, mut rejected } => {
                let slot = rejected.remove(0);
                // Release: publishes the queue-full outcomes to the client.
                w.global_write1_ord(
                    0,
                    self.proto.mailboxes().status_addr(slot),
                    STATUS_RESPONSE,
                    MemOrder::Release,
                );
                self.st = if !rejected.is_empty() {
                    RState::RejectHdr { fits, rejected }
                } else if !fits.is_empty() {
                    RState::Push(fits)
                } else {
                    RState::Poll
                };
                StepOutcome::Running
            }
            RState::Push(slots) => {
                let mut mask: Mask = 0;
                for l in 0..slots.len() {
                    mask |= 1 << l;
                }
                let ctl = &self.ctl;
                let tail = self.tail;
                // Release: queue entries are handed to workers, which acquire
                // them via the tail/entry reads; slot reuse after wrap-around
                // is ordered by the consumed entry itself.
                w.shared_write_ord(
                    mask,
                    |l| ctl.q_entry_addr(tail + l as u64),
                    |l| slots[l] as u64,
                    MemOrder::Release,
                );
                self.st = RState::PushTail(slots.len() as u64);
                StepOutcome::Running
            }
            RState::PushTail(k) => {
                self.tail += k;
                // Release: publishes the entries written above to the workers.
                w.shared_write1_ord(0, self.ctl.q_tail_addr(), self.tail, MemOrder::Release);
                self.st = RState::Poll;
                StepOutcome::Running
            }
            RState::CheckDone => {
                // Acquire: pairs with the clients' done-counter increments.
                let done = w.global_read1_ord(0, self.done_addr, MemOrder::Acquire);
                if done as usize >= self.num_clients {
                    self.st = RState::Shutdown;
                } else {
                    w.poll_wait();
                    self.st = RState::Poll;
                }
                StepOutcome::Running
            }
            RState::Shutdown => {
                // Release: workers acquire the flag in their Pop read.
                w.shared_write1_ord(0, self.ctl.shutdown_addr(), 1, MemOrder::Release);
                self.st = RState::Finished;
                StepOutcome::Running
            }
            RState::Finished => StepOutcome::Done,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker warp
// ---------------------------------------------------------------------------

/// One transaction of a batch under commit.
#[derive(Debug, Clone)]
pub(crate) struct BatchTx {
    /// Client-warp lane the transaction came from.
    pub(crate) lane: usize,
    pub(crate) snapshot: u64,
    pub(crate) rs_len: usize,
    pub(crate) ws_len: usize,
    /// Cached read-set items (fetched from the request payload).
    pub(crate) rs_items: Vec<u64>,
    /// Cached write-set `(item, value)` pairs.
    pub(crate) ws_pairs: Vec<(u64, u64)>,
    /// Still passing validation.
    pub(crate) valid: bool,
    /// Why validation refused the transaction (meaningful when `!valid`).
    pub(crate) reason: AbortReason,
    /// Commit timestamps `(snapshot, validated_to]` have been checked
    /// (the single server's forward walk; the multi-server backward walk
    /// does not use it).
    pub(crate) validated_to: u64,
    /// Assigned commit timestamp (0 until reserved).
    pub(crate) cts: u64,
}

impl BatchTx {
    fn items_to_check(&self) -> impl Iterator<Item = u64> + '_ {
        self.rs_items
            .iter()
            .copied()
            .chain(self.ws_pairs.iter().map(|&(i, _)| i))
    }

    /// Refuse the transaction for `reason`.
    pub(crate) fn refuse(&mut self, reason: AbortReason) {
        self.valid = false;
        self.reason = reason;
    }

    /// Conflict test against a decoded chunk of committed entries; charges
    /// the comparison ALU work spread over the warp's lanes.
    pub(crate) fn conflicts_with(&self, w: &mut WarpCtx, chunk: &[(u64, Vec<u64>)]) -> bool {
        let total_items: u64 = chunk.iter().map(|(l, _)| *l).sum();
        let compares = (self.rs_len + self.ws_len) as u64 * total_items.max(1);
        w.alu(full_mask(), (compares / WARP_LANES as u64).max(1));
        steps::footprint_conflicts(self.items_to_check(), chunk)
    }
}

/// A commit-server worker's steps of taking a batch in and answering it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PortStep {
    /// Read queue head/tail and the shutdown flag.
    Pop,
    /// Try to claim queue entry `head`.
    PopCas { head: u64 },
    /// Read the claimed queue entry.
    ReadEntry { head: u64 },
    /// Read the batch's sequence number (echoed into the response).
    ReadBatchSeq,
    /// Read the batch's A headers.
    ReadHdrA,
    /// Read the batch's B headers.
    ReadHdrB,
    /// Fetch the transactions' read/write-sets from the request payload.
    Fetch,
    /// Write the 32 outcome words back to the client.
    WriteOutcomes,
    /// Write the response seq echo (last payload write before the flip).
    WriteEcho,
    /// Flip the mailbox status to RESPONSE.
    SetResponse,
}

/// Where a [`PortStep`] leads.
pub(crate) enum PortNext {
    /// Another step of the port.
    Step(PortStep),
    /// The batch is in [`WorkerPort::txs`], read/write-sets fetched: the
    /// worker decides it, then replies from [`PortStep::WriteOutcomes`].
    Fetched,
    /// The queue is empty and the receiver has shut the server down.
    Shutdown,
}

/// The part of a commit-server worker every CSMV server shares: pop a
/// request off the SM's dispatch queue, read its seq word, headers and
/// read/write-sets into [`BatchTx`]s, and — once the worker has decided
/// them — write the outcomes, the seq echo and the RESPONSE flag back.
pub(crate) struct WorkerPort {
    /// Mailbox block: status, headers, outcomes and seq words.
    proto: CommitProtocol,
    /// Region holding the requests' read/write-sets.
    payload: CommitProtocol,
    ctl: ServerControl,
    /// Fetch the payload with broadcast reads (collaborative validation)
    /// instead of one transaction per lane.
    broadcast: bool,
    /// Fault-domain channel id (partition index in multi-server setups).
    fault_channel: u64,
    slot: usize,
    /// Batch seq of the request being processed (echoed in the response).
    seq: u64,
    /// The batch's committing transactions.
    pub(crate) txs: Vec<BatchTx>,
}

impl WorkerPort {
    /// A port on mailboxes `proto` whose read/write-sets live in `payload`.
    pub(crate) fn new(
        proto: CommitProtocol,
        payload: CommitProtocol,
        ctl: ServerControl,
        broadcast: bool,
        fault_channel: u64,
    ) -> Self {
        Self {
            proto,
            payload,
            ctl,
            broadcast,
            fault_channel,
            slot: 0,
            seq: 0,
            txs: Vec::new(),
        }
    }

    /// Count of transactions that passed validation.
    pub(crate) fn n_valid(&self) -> u64 {
        self.txs.iter().filter(|t| t.valid).count() as u64
    }

    /// Next still-valid transaction index at or after `from`.
    pub(crate) fn next_valid(&self, from: usize) -> Option<usize> {
        (from..self.txs.len()).find(|&i| self.txs[i].valid)
    }

    /// Hand the valid transactions consecutive timestamps from `base`.
    pub(crate) fn assign_cts(&mut self, base: u64) {
        for (cts, tx) in (base..).zip(self.txs.iter_mut().filter(|t| t.valid)) {
            tx.cts = cts;
        }
    }

    /// Run one step; `metrics` records the batch size.
    pub(crate) fn step(
        &mut self,
        w: &mut WarpCtx,
        st: PortStep,
        metrics: &mut MetricsReport,
    ) -> PortNext {
        let next = match st {
            PortStep::Pop => {
                w.set_phase(Phase::ServerIdle.id());
                let ctl = &self.ctl;
                // Acquire: pairs with the receiver's tail/shutdown releases.
                let words = w.shared_read_ord(
                    0b111,
                    |l| match l {
                        0 => ctl.q_head_addr(),
                        1 => ctl.q_tail_addr(),
                        _ => ctl.shutdown_addr(),
                    },
                    MemOrder::Acquire,
                );
                let (head, tail, shutdown) = (words[0], words[1], words[2]);
                if head != tail {
                    PortStep::PopCas { head }
                } else if shutdown != 0 {
                    return PortNext::Shutdown;
                } else {
                    w.poll_wait();
                    PortStep::Pop
                }
            }
            PortStep::PopCas { head } => {
                w.set_phase(Phase::ServerIdle.id());
                let old = w.shared_cas1(0, self.ctl.q_head_addr(), head, head + 1);
                if old == head {
                    PortStep::ReadEntry { head }
                } else {
                    PortStep::Pop
                }
            }
            PortStep::ReadEntry { head } => {
                w.set_phase(Phase::ServerIdle.id());
                // Acquire: pairs with the receiver's entry-release write.
                self.slot =
                    w.shared_read1_ord(0, self.ctl.q_entry_addr(head), MemOrder::Acquire) as usize;
                PortStep::ReadBatchSeq
            }
            PortStep::ReadBatchSeq => {
                w.set_phase(Phase::Validation.id());
                // Acquire: control-plane word, ordered against recovery
                // resends (see the receiver's seq sweep).
                self.seq =
                    w.global_read1_ord(0, self.proto.req_seq_addr(self.slot), MemOrder::Acquire);
                PortStep::ReadHdrA
            }
            PortStep::ReadHdrA => {
                w.set_phase(Phase::Validation.id());
                let proto = &self.proto;
                let slot = self.slot;
                let hdrs = w.global_read(full_mask(), |l| proto.hdr_a_addr(slot, l));
                self.txs.clear();
                for (lane, &h) in hdrs.iter().enumerate() {
                    let (committing, snapshot) = CommitProtocol::unpack_hdr_a(h);
                    if committing {
                        self.txs.push(BatchTx {
                            lane,
                            snapshot,
                            rs_len: 0,
                            ws_len: 0,
                            rs_items: Vec::new(),
                            ws_pairs: Vec::new(),
                            valid: true,
                            reason: AbortReason::ReadValidation,
                            validated_to: snapshot,
                            cts: 0,
                        });
                    }
                }
                metrics.batch_sizes.record(self.txs.len() as u64);
                PortStep::ReadHdrB
            }
            PortStep::ReadHdrB => {
                w.set_phase(Phase::Validation.id());
                let proto = &self.proto;
                let slot = self.slot;
                let hdrs = w.global_read(full_mask(), |l| proto.hdr_b_addr(slot, l));
                for tx in self.txs.iter_mut() {
                    let (rs_len, ws_len) = CommitProtocol::unpack_hdr_b(hdrs[tx.lane]);
                    tx.rs_len = rs_len;
                    tx.ws_len = ws_len;
                }
                PortStep::Fetch
            }
            PortStep::Fetch => {
                w.set_phase(Phase::Validation.id());
                self.fetch(w);
                return PortNext::Fetched;
            }
            PortStep::WriteOutcomes => {
                w.set_phase(Phase::RecordInsert.id());
                let mut outcomes = [OUTCOME_NONE; WARP_LANES];
                for tx in &self.txs {
                    outcomes[tx.lane] = if tx.valid {
                        pack_commit(tx.cts)
                    } else {
                        pack_abort(tx.reason)
                    };
                }
                let proto = &self.proto;
                let slot = self.slot;
                w.global_write(
                    full_mask(),
                    |l| proto.outcome_addr(slot, l),
                    |l| outcomes[l],
                );
                PortStep::WriteEcho
            }
            PortStep::WriteEcho => {
                w.set_phase(Phase::RecordInsert.id());
                // The echo must land after the outcome words and before the
                // RESPONSE flip: echo == seq certifies the payload is
                // complete (see `gpu_sim::channel`). Release pairs with the
                // receiver's/client's echo-check acquires.
                w.global_write1_ord(
                    0,
                    self.proto.resp_seq_addr(self.slot),
                    self.seq,
                    MemOrder::Release,
                );
                PortStep::SetResponse
            }
            PortStep::SetResponse => {
                w.set_phase(Phase::RecordInsert.id());
                let dropped = w.fault_plan().is_some_and(|p| {
                    p.drop_response(self.fault_channel, self.slot as u64, self.seq, 0)
                });
                if dropped {
                    // Response delivery lost in transit: the payload and echo
                    // are in place, only the flag flip vanishes. The client's
                    // timed-out re-post lets the receiver re-arm the slot
                    // without reprocessing the batch.
                    w.global_write1_ord(
                        0,
                        self.proto.resp_seq_addr(self.slot),
                        self.seq,
                        MemOrder::Release,
                    );
                } else {
                    // Release: publishes the outcome words to the client.
                    w.global_write1_ord(
                        0,
                        self.proto.mailboxes().status_addr(self.slot),
                        STATUS_RESPONSE,
                        MemOrder::Release,
                    );
                }
                PortStep::Pop
            }
        };
        PortNext::Step(next)
    }

    /// Fetch the batch's read/write-sets from the payload region.
    fn fetch(&mut self, w: &mut WarpCtx) {
        let proto = &self.payload;
        let slot = self.slot;
        if self.broadcast {
            // Broadcast reads: every lane targets the same payload word
            // (one 128-byte segment per access) — the coalescing pattern
            // of collaborative validation.
            let mut sched: Vec<(usize, bool, usize)> = Vec::new();
            for (ti, tx) in self.txs.iter().enumerate() {
                for e in 0..tx.rs_len {
                    sched.push((ti, false, e));
                }
                for e in 0..tx.ws_len {
                    sched.push((ti, true, e));
                }
            }
            if !sched.is_empty() {
                let txs = &self.txs;
                let words = w.global_read_bulk(full_mask(), sched.len(), |_, i| {
                    let (ti, is_ws, e) = sched[i];
                    let lane = txs[ti].lane;
                    if is_ws {
                        proto.ws_addr(slot, lane, e)
                    } else {
                        proto.rs_addr(slot, lane, e)
                    }
                });
                for (i, &(ti, is_ws, _)) in sched.iter().enumerate() {
                    let word = words[i][0];
                    if is_ws {
                        self.txs[ti].ws_pairs.push(unpack_ws_entry(word));
                    } else {
                        self.txs[ti].rs_items.push(word);
                    }
                }
            }
        } else {
            // Independent fetches: lane j reads its own tx's entries —
            // scattered, one segment per lane.
            let rounds = self
                .txs
                .iter()
                .map(|t| t.rs_len + t.ws_len)
                .max()
                .unwrap_or(0);
            if rounds > 0 {
                let txs = &self.txs;
                let words = w.global_read_bulk(full_mask(), rounds, |l, i| {
                    // Lane l handles tx l when it exists.
                    if l < txs.len() && i < txs[l].rs_len + txs[l].ws_len {
                        let tx = &txs[l];
                        if i < tx.rs_len {
                            proto.rs_addr(slot, tx.lane, i)
                        } else {
                            proto.ws_addr(slot, tx.lane, i - tx.rs_len)
                        }
                    } else {
                        // Inactive lanes re-read word 0 of the payload
                        // (harmless, keeps masks simple).
                        proto.hdr_a_addr(slot, 0)
                    }
                });
                for (l, tx) in self.txs.iter_mut().enumerate() {
                    for (i, row) in words.iter().enumerate().take(tx.rs_len + tx.ws_len) {
                        let word = row[l];
                        if i < tx.rs_len {
                            tx.rs_items.push(word);
                        } else {
                            tx.ws_pairs.push(unpack_ws_entry(word));
                        }
                    }
                }
            }
        }
    }
}

/// Outcome of reading one ATR chunk.
enum ChunkRead {
    /// All entries published: per-entry `(ws_len, items)`.
    Ready(Vec<(u64, Vec<u64>)>),
    /// Some entry is still being written; poll.
    InFlight,
    /// Some needed entry was recycled; the validating snapshot is too old.
    Recycled,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum WState {
    /// Taking a batch in, or answering it.
    Port(PortStep),
    /// Read `next_cts` to fix the validation target.
    ReadTarget,
    /// Collaborative validation: tx `txi`, ATR chunk starting at cts `lo`.
    CvChunk {
        txi: usize,
        lo: u64,
        target: u64,
    },
    /// Independent (NoCv) validation: every lane walks its own
    /// transaction's window at its own cursor.
    NcWalk {
        target: u64,
    },
    /// Reserve `n_valid` commit timestamps with one CAS.
    Reserve {
        target: u64,
    },
    /// Write the reserved entries' item words (word index `widx`).
    InsertItems {
        base: u64,
        widx: usize,
    },
    /// Write the entries' `ws_len` words.
    InsertLens {
        base: u64,
    },
    /// Publish the entries by writing their cts tags.
    InsertCts {
        base: u64,
    },
    /// OnlyCs: serial per-transaction processing, tx `txi`.
    ScValidate {
        txi: usize,
        lo: u64,
        target: u64,
    },
    ScReserve {
        txi: usize,
        target: u64,
    },
    ScInsert {
        txi: usize,
        sub: u8,
    },
    ScWriteBack {
        txi: usize,
        widx: usize,
        sub: u8,
        head: u64,
    },
    ScGts {
        txi: usize,
    },
    /// Retired.
    Finished,
}

/// The worker's reply: write the outcomes back to the client.
const REPLY: WState = WState::Port(PortStep::WriteOutcomes);

/// One worker warp of the commit server.
pub struct WorkerWarp {
    port: WorkerPort,
    atr: SharedAtr,
    heap: VBoxHeap,
    gts_addr: u64,
    variant: CsmvVariant,
    st: WState,
    /// Seeded bug (see [`WorkerWarp::inject_publish_tag_first`]).
    #[cfg(feature = "seeded-bugs")]
    bug_publish_tag_first: bool,
    /// Server-side observability: batch sizes and ATR occupancy.
    pub metrics: MetricsReport,
}

impl WorkerWarp {
    /// Build a worker.
    pub fn new(
        proto: CommitProtocol,
        ctl: ServerControl,
        atr: SharedAtr,
        heap: VBoxHeap,
        gts_addr: u64,
        variant: CsmvVariant,
    ) -> Self {
        let broadcast = variant.collaborative_validation();
        Self {
            port: WorkerPort::new(proto.clone(), proto, ctl, broadcast, 0),
            atr,
            heap,
            gts_addr,
            variant,
            st: WState::Port(PortStep::Pop),
            #[cfg(feature = "seeded-bugs")]
            bug_publish_tag_first: false,
            metrics: MetricsReport::default(),
        }
    }

    /// Seed a protocol bug for checker-validation tests: the insert writes
    /// the publishing cts tag *before* the entry's items and length,
    /// breaking the seqlock discipline — a concurrent validator can read a
    /// published-looking entry with an empty write-set and miss a conflict.
    #[cfg(feature = "seeded-bugs")]
    pub fn inject_publish_tag_first(&mut self) {
        self.bug_publish_tag_first = true;
    }

    fn publish_tag_first(&self) -> bool {
        #[cfg(feature = "seeded-bugs")]
        {
            self.bug_publish_tag_first
        }
        #[cfg(not(feature = "seeded-bugs"))]
        {
            false
        }
    }

    /// Insert-sequence entry point after a won reservation. The healthy
    /// order is items → lens → cts tag (the tag publishes the entry); the
    /// seeded mutation flips the tag to the front.
    fn after_reserve(&self, base: u64) -> WState {
        if self.publish_tag_first() {
            WState::InsertCts { base }
        } else {
            WState::InsertItems { base, widx: 0 }
        }
    }

    /// Read one ATR chunk (≤ 32 entries at cts `lo..lo+32`, bounded by
    /// `target`): lane `j` reads entry `lo + j`. Returns `None` if some
    /// entry is still being written (caller polls), else the per-entry
    /// `(ws_len, items)` list.
    fn read_chunk(&self, w: &mut WarpCtx, lo: u64, target: u64) -> ChunkRead {
        let n = ((target - lo) as usize).min(WARP_LANES);
        let mut mask: Mask = 0;
        for j in 0..n {
            mask |= 1 << j;
        }
        let atr = &self.atr;
        // Acquire: a published tag releases its entry's len/items (seqlock
        // pattern — tag mismatch means retry or spurious abort).
        let tags = w.shared_read_ord(
            mask,
            |j| atr.slot_cts_addr(atr.slot_of(lo + j as u64)),
            MemOrder::Acquire,
        );
        for (j, &tag) in tags.iter().enumerate().take(n) {
            match steps::classify_tag(tag, lo + j as u64) {
                // The ring recycled an entry we still needed: the snapshot
                // fell out of the validation window mid-flight.
                TagState::Recycled => return ChunkRead::Recycled,
                TagState::InFlight => return ChunkRead::InFlight, // poll
                TagState::Published => {}
            }
        }
        // Acquire: slots may be recycled by a later inserter; the tag
        // re-check above makes the race benign.
        let lens = w.shared_read_ord(
            mask,
            |j| atr.slot_len_addr(atr.slot_of(lo + j as u64)),
            MemOrder::Acquire,
        );
        let max_len = (0..n).map(|j| lens[j]).max().unwrap_or(0);
        let mut items: Vec<Vec<u64>> = (0..n)
            .map(|j| Vec::with_capacity(lens[j] as usize))
            .collect();
        for k in 0..max_len {
            let mut kmask: Mask = 0;
            for (j, &len) in lens.iter().enumerate().take(n) {
                if k < len {
                    kmask |= 1 << j;
                }
            }
            let row = w.shared_read_ord(
                kmask,
                |j| atr.slot_item_addr(atr.slot_of(lo + j as u64), k),
                MemOrder::Acquire,
            );
            for j in 0..n {
                if k < lens[j] {
                    items[j].push(row[j]);
                }
            }
        }
        ChunkRead::Ready(
            (0..n)
                .map(|j| (lens[j], std::mem::take(&mut items[j])))
                .collect(),
        )
    }

    /// After target moved (CAS lost): arm revalidation of the delta window.
    fn start_validation(&mut self, target: u64) -> WState {
        // Window check: a snapshot too far behind the ring can't validate.
        for tx in self.port.txs.iter_mut() {
            if tx.valid && !self.atr.snapshot_in_window(tx.snapshot, target) {
                tx.refuse(AbortReason::AtrWindowOverflow); // spurious (capacity) abort
            }
        }
        match self.variant {
            CsmvVariant::Full => self.cv_next(0, target),
            CsmvVariant::NoCv => {
                if self
                    .port
                    .txs
                    .iter()
                    .any(|t| t.valid && t.validated_to + 1 < target)
                {
                    WState::NcWalk { target }
                } else {
                    WState::Reserve { target }
                }
            }
            CsmvVariant::OnlyCs => unreachable!("OnlyCs uses the serial path"),
        }
    }

    /// Collaborative validation of the first valid tx at or after `from`
    /// with entries below `target` left to check (or on to Reserve).
    fn cv_next(&mut self, from: usize, target: u64) -> WState {
        let mut from = from;
        while let Some(txi) = self.port.next_valid(from) {
            let lo = self.port.txs[txi].validated_to + 1;
            if lo < target {
                return WState::CvChunk { txi, lo, target };
            }
            from = txi + 1;
        }
        WState::Reserve { target }
    }
}

impl WarpProgram for WorkerWarp {
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
        match std::mem::replace(&mut self.st, WState::Port(PortStep::Pop)) {
            WState::Port(st) => match self.port.step(w, st, &mut self.metrics) {
                PortNext::Step(st) => self.st = WState::Port(st),
                PortNext::Fetched => self.st = WState::ReadTarget,
                PortNext::Shutdown => {
                    self.st = WState::Finished;
                    return StepOutcome::Done;
                }
            },
            WState::ReadTarget => {
                w.set_phase(Phase::Validation.id());
                // Acquire: the reservation CAS on next_cts orders access to
                // the ATR entries below the target.
                let target = w.shared_read1_ord(0, self.atr.next_cts_addr(), MemOrder::Acquire);
                self.metrics.atr_occupancy.push(self.atr.occupancy(target));
                self.st = if self.variant == CsmvVariant::OnlyCs {
                    self.sc_next(0, target)
                } else {
                    self.start_validation(target)
                };
            }
            WState::CvChunk { txi, lo, target } => {
                w.set_phase(Phase::Validation.id());
                self.st = match self.read_chunk(w, lo, target) {
                    ChunkRead::InFlight => {
                        w.poll_wait();
                        WState::CvChunk { txi, lo, target }
                    }
                    ChunkRead::Recycled => {
                        // Spurious (capacity) abort, as §V's discussion of the
                        // bounded shared-memory ATR anticipates.
                        self.port.txs[txi].refuse(AbortReason::AtrWindowOverflow);
                        self.cv_next(txi + 1, target)
                    }
                    ChunkRead::Ready(chunk) => {
                        let tx = &mut self.port.txs[txi];
                        if tx.conflicts_with(w, &chunk) {
                            tx.refuse(AbortReason::ReadValidation);
                            self.cv_next(txi + 1, target)
                        } else {
                            tx.validated_to = lo + chunk.len() as u64 - 1;
                            self.cv_next(txi, target)
                        }
                    }
                };
            }
            WState::NcWalk { target } => {
                w.set_phase(Phase::Validation.id());
                self.st = self.nc_walk(w, target);
            }
            WState::Reserve { target } => {
                w.set_phase(Phase::RecordInsert.id());
                let n = self.port.n_valid();
                if n == 0 {
                    self.st = REPLY;
                    return StepOutcome::Running;
                }
                // Batched insert: a single CAS reserves the whole batch.
                let old = w.shared_cas1(0, self.atr.next_cts_addr(), target, target + n);
                self.st = match steps::reserve_outcome(old, target) {
                    ReserveOutcome::Won { base } => {
                        self.port.assign_cts(base);
                        self.after_reserve(base)
                    }
                    // Entries [expected, target) appeared: revalidate the
                    // delta.
                    ReserveOutcome::Lost { target } => self.start_validation(target),
                };
            }
            WState::InsertItems { base, widx } => {
                w.set_phase(Phase::RecordInsert.id());
                let valid: Vec<&BatchTx> = self.port.txs.iter().filter(|t| t.valid).collect();
                let max_ws = valid.iter().map(|t| t.ws_len).max().unwrap_or(0);
                if widx >= max_ws {
                    self.st = WState::InsertLens { base };
                    return StepOutcome::Running;
                }
                let mut mask: Mask = 0;
                for (k, tx) in valid.iter().enumerate() {
                    if widx < tx.ws_len {
                        mask |= 1 << k;
                    }
                }
                let atr = self.atr.clone();
                let items: Vec<(u64, u64)> = valid
                    .iter()
                    .map(|t| (t.cts, t.ws_pairs.get(widx).map(|&(i, _)| i).unwrap_or(0)))
                    .collect();
                // Release: recycles a ring slot a validator may still probe;
                // the cts-tag re-check makes that an intended race.
                w.shared_write_ord(
                    mask,
                    |k| atr.slot_item_addr(atr.slot_of(items[k].0), widx as u64),
                    |k| items[k].1,
                    MemOrder::Release,
                );
                self.st = WState::InsertItems {
                    base,
                    widx: widx + 1,
                };
            }
            WState::InsertLens { base } => {
                w.set_phase(Phase::RecordInsert.id());
                let valid: Vec<(u64, u64)> = self
                    .port
                    .txs
                    .iter()
                    .filter(|t| t.valid)
                    .map(|t| (t.cts, t.ws_len as u64))
                    .collect();
                let atr = self.atr.clone();
                w.shared_write_ord(
                    low_lanes(valid.len()),
                    |k| atr.slot_len_addr(atr.slot_of(valid[k].0)),
                    |k| valid[k].1,
                    MemOrder::Release,
                );
                self.st = if self.publish_tag_first() {
                    // Seeded bug: the tag already went out first.
                    REPLY
                } else {
                    WState::InsertCts { base }
                };
            }
            WState::InsertCts { base } => {
                w.set_phase(Phase::RecordInsert.id());
                let valid: Vec<u64> = self
                    .port
                    .txs
                    .iter()
                    .filter(|t| t.valid)
                    .map(|t| t.cts)
                    .collect();
                let atr = self.atr.clone();
                // Publishing write: validators polling these tags may now
                // read the entries. Release pairs with their tag acquires.
                w.shared_write_ord(
                    low_lanes(valid.len()),
                    |k| atr.slot_cts_addr(atr.slot_of(valid[k])),
                    |k| valid[k],
                    MemOrder::Release,
                );
                self.st = if self.publish_tag_first() {
                    // Seeded bug: items and lens follow the published tag.
                    WState::InsertItems { base, widx: 0 }
                } else {
                    REPLY
                };
            }
            // --------------------------------------------------------------
            // OnlyCs: strictly serial per-transaction commit, server-side
            // write-back and GTS publication.
            // --------------------------------------------------------------
            WState::ScValidate { txi, lo, target } => {
                w.set_phase(Phase::Validation.id());
                self.st = self.sc_validate(w, txi, lo, target);
            }
            WState::ScReserve { txi, target } => {
                w.set_phase(Phase::RecordInsert.id());
                let old = w.shared_cas1(0, self.atr.next_cts_addr(), target, target + 1);
                let tx = &mut self.port.txs[txi];
                self.st = if old == target {
                    tx.cts = target;
                    WState::ScInsert { txi, sub: 0 }
                } else {
                    WState::ScValidate {
                        txi,
                        lo: tx.validated_to + 1,
                        target: old,
                    }
                };
            }
            WState::ScInsert { txi, sub } => {
                w.set_phase(Phase::RecordInsert.id());
                let tx = &self.port.txs[txi];
                let s = self.atr.slot_of(tx.cts);
                match sub {
                    0 => {
                        for (k, &(item, _)) in tx.ws_pairs.iter().enumerate() {
                            w.shared_write1_ord(
                                0,
                                self.atr.slot_item_addr(s, k as u64),
                                item,
                                MemOrder::Release,
                            );
                        }
                        if tx.ws_pairs.is_empty() {
                            w.alu(single_lane(0), 1);
                        }
                        self.st = WState::ScInsert { txi, sub: 1 };
                    }
                    1 => {
                        w.shared_write1_ord(
                            0,
                            self.atr.slot_len_addr(s),
                            tx.ws_len as u64,
                            MemOrder::Release,
                        );
                        self.st = WState::ScInsert { txi, sub: 2 };
                    }
                    _ => {
                        // Publishing write (seqlock tag).
                        w.shared_write1_ord(
                            0,
                            self.atr.slot_cts_addr(s),
                            tx.cts,
                            MemOrder::Release,
                        );
                        self.st = WState::ScWriteBack {
                            txi,
                            widx: 0,
                            sub: 0,
                            head: 0,
                        };
                    }
                }
            }
            WState::ScWriteBack {
                txi,
                widx,
                sub,
                head,
            } => {
                w.set_phase(Phase::WriteBack.id());
                let tx = &self.port.txs[txi];
                if widx >= tx.ws_pairs.len() {
                    self.st = WState::ScGts { txi };
                    return StepOutcome::Running;
                }
                let (item, value) = tx.ws_pairs[widx];
                self.st = match sub {
                    0 => {
                        // Acquire/Release on head/version words: same
                        // version-ring discipline as the client write-back.
                        let head =
                            w.global_read1_ord(0, self.heap.head_addr(item), MemOrder::Acquire);
                        WState::ScWriteBack {
                            txi,
                            widx,
                            sub: 1,
                            head,
                        }
                    }
                    1 => {
                        let slot = self.heap.next_slot(head);
                        w.global_write1_ord(
                            0,
                            self.heap.version_addr(item, slot),
                            stm_core::vbox::pack_version(tx.cts, value),
                            MemOrder::Release,
                        );
                        WState::ScWriteBack {
                            txi,
                            widx,
                            sub: 2,
                            head,
                        }
                    }
                    _ => {
                        let slot = self.heap.next_slot(head);
                        w.global_write1_ord(0, self.heap.head_addr(item), slot, MemOrder::Release);
                        WState::ScWriteBack {
                            txi,
                            widx: widx + 1,
                            sub: 0,
                            head: 0,
                        }
                    }
                };
            }
            WState::ScGts { txi } => {
                w.set_phase(Phase::WriteBack.id());
                let cts = self.port.txs[txi].cts;
                // Acquire/Release GTS turn-taking, as in the client.
                let gts = w.global_read1_ord(0, self.gts_addr, MemOrder::Acquire);
                if steps::gts_turn_reached(gts, cts) {
                    w.global_write1_ord(0, self.gts_addr, cts, MemOrder::Release);
                    self.st = self.sc_next(txi + 1, cts + 1);
                } else {
                    w.poll_wait();
                    self.st = WState::ScGts { txi };
                }
            }
            WState::Finished => return StepOutcome::Done,
        }
        StepOutcome::Running
    }
}

impl WorkerWarp {
    /// Current state, for diagnostics.
    pub fn debug_state(&self) -> String {
        format!(
            "{:?} slot={} txs={}",
            self.st,
            self.port.slot,
            self.port.txs.len()
        )
    }

    /// NoCv: lane j walks its own tx's window at its own pace: the next
    /// entry is cts = validated_to + 1. Different slots per lane ⇒ bank
    /// conflicts and divergence, the price of non-collaboration.
    fn nc_walk(&mut self, w: &mut WarpCtx, target: u64) -> WState {
        let txs = &mut self.port.txs;
        let mut mask: Mask = 0;
        let mut ctss = [0u64; WARP_LANES];
        for (j, tx) in txs.iter().enumerate() {
            let cts = tx.validated_to + 1;
            if tx.valid && cts < target {
                mask |= 1 << j;
                ctss[j] = cts;
            }
        }
        if mask == 0 {
            return WState::Reserve { target };
        }
        let atr = self.atr.clone();
        // Acquire: same seqlock-tag pattern as `read_chunk`.
        let tags = w.shared_read_ord(
            mask,
            |j| atr.slot_cts_addr(atr.slot_of(ctss[j])),
            MemOrder::Acquire,
        );
        let mut in_flight = false;
        for j in 0..WARP_LANES {
            if mask & (1 << j) == 0 {
                continue;
            }
            match steps::classify_tag(tags[j], ctss[j]) {
                TagState::Recycled => {
                    // Entry recycled: spurious abort for this lane's tx.
                    txs[j].refuse(AbortReason::AtrWindowOverflow);
                    mask &= !(1 << j);
                }
                TagState::InFlight => in_flight = true,
                TagState::Published => {}
            }
        }
        if in_flight {
            w.poll_wait();
            return WState::NcWalk { target };
        }
        if mask == 0 {
            return WState::NcWalk { target };
        }
        let lens = w.shared_read_ord(
            mask,
            |j| atr.slot_len_addr(atr.slot_of(ctss[j])),
            MemOrder::Acquire,
        );
        let max_len = (0..WARP_LANES)
            .filter(|&j| mask & (1 << j) != 0)
            .map(|j| lens[j])
            .max()
            .unwrap_or(0);
        let mut conflict = [false; WARP_LANES];
        let mut compares = 0u64;
        for kk in 0..max_len {
            let mut kmask: Mask = 0;
            for (j, &len) in lens.iter().enumerate() {
                if mask & (1 << j) != 0 && kk < len {
                    kmask |= 1 << j;
                }
            }
            let row = w.shared_read_ord(
                kmask,
                |j| atr.slot_item_addr(atr.slot_of(ctss[j]), kk),
                MemOrder::Acquire,
            );
            for (j, tx) in txs.iter().enumerate() {
                if kmask & (1 << j) != 0 {
                    compares = compares.max((tx.rs_len + tx.ws_len) as u64);
                    if tx.items_to_check().any(|e| e == row[j]) {
                        conflict[j] = true;
                    }
                }
            }
        }
        // Independent (per-lane, serial) compares: no /32 sharing.
        w.alu(mask, compares.max(1) * max_len.max(1));
        for (j, tx) in txs.iter_mut().enumerate() {
            if mask & (1 << j) != 0 {
                if conflict[j] {
                    tx.refuse(AbortReason::ReadValidation);
                } else {
                    tx.validated_to = ctss[j];
                }
            }
        }
        WState::NcWalk { target }
    }

    /// OnlyCs: validate tx `txi` against the entry at cts `lo`, one entry
    /// per step on a single lane.
    fn sc_validate(&mut self, w: &mut WarpCtx, txi: usize, lo: u64, target: u64) -> WState {
        if !self
            .atr
            .snapshot_in_window(self.port.txs[txi].snapshot, target)
        {
            self.port.txs[txi].refuse(AbortReason::AtrWindowOverflow);
            return self.sc_next(txi + 1, target);
        }
        if lo >= target {
            return WState::ScReserve { txi, target };
        }
        let atr = self.atr.clone();
        let s = atr.slot_of(lo);
        // Acquire: seqlock tag, as in the parallel paths.
        let tag = w.shared_read1_ord(0, atr.slot_cts_addr(s), MemOrder::Acquire);
        match steps::classify_tag(tag, lo) {
            TagState::Recycled => {
                // Entry recycled mid-validation: spurious abort.
                self.port.txs[txi].refuse(AbortReason::AtrWindowOverflow);
                return self.sc_next(txi + 1, target);
            }
            TagState::InFlight => {
                w.poll_wait();
                return WState::ScValidate { txi, lo, target };
            }
            TagState::Published => {}
        }
        let len = w.shared_read1_ord(0, atr.slot_len_addr(s), MemOrder::Acquire);
        let tx = &mut self.port.txs[txi];
        let mut conflict = false;
        for k in 0..len {
            let item = w.shared_read1_ord(0, atr.slot_item_addr(s, k), MemOrder::Acquire);
            if tx.items_to_check().any(|e| e == item) {
                conflict = true;
            }
        }
        w.alu(
            single_lane(0),
            ((tx.rs_len + tx.ws_len) as u64 * len.max(1)).max(1),
        );
        if conflict {
            tx.refuse(AbortReason::ReadValidation);
            self.sc_next(txi + 1, target)
        } else {
            tx.validated_to = lo;
            WState::ScValidate {
                txi,
                lo: lo + 1,
                target,
            }
        }
    }

    /// OnlyCs: on to the first valid tx at or after `from` with no cts yet
    /// (serial), or to the reply.
    fn sc_next(&mut self, from: usize, target: u64) -> WState {
        let txs = &self.port.txs;
        match (from..txs.len()).find(|&i| txs[i].valid && txs[i].cts == 0) {
            Some(txi) => WState::ScValidate {
                txi,
                lo: txs[txi].validated_to + 1,
                target,
            },
            None => REPLY,
        }
    }
}

/// The mask of lanes `0..n`.
pub(crate) fn low_lanes(n: usize) -> Mask {
    let mut mask: Mask = 0;
    for k in 0..n {
        mask |= 1 << k;
    }
    mask
}

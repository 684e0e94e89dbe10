//! The CSMV client warp: executes transaction bodies (building the commit
//! request in place), pre-validates intra-warp conflicts with shuffle
//! exchanges, ships the batch to the commit server, and — on a commit
//! response — performs the write-back itself, publishing the whole batch
//! with a single GTS bump once its turn arrives (§III-B).

use gpu_sim::channel::{STATUS_EMPTY, STATUS_REQUEST, STATUS_RESPONSE};
use gpu_sim::{full_mask, MemOrder, StepOutcome, WarpCtx, WarpProgram, WARP_LANES};
use stm_core::mv_exec::{MvExec, MvExecConfig};
use stm_core::{AbortReason, FaultEvent, Phase, RetryPolicy, TxSource, VBoxHeap};

use crate::protocol::{unpack_outcome, CommitProtocol, Outcome, RequestSetArea};
use crate::steps;
use crate::variant::CsmvVariant;

/// What every CSMV client warp does the same way around its commit
/// request: run a round's bodies, settle read-only and overflowed lanes,
/// pre-validate, write the granted versions back, and book the round.
/// The warp's [`MvExec`] stays with the warp and is passed in.
pub(crate) struct ClientRound {
    heap: VBoxHeap,
    area: RequestSetArea,
    gts_addr: u64,
    done_addr: u64,
    /// Commit timestamps handed back by the server (0 = none).
    pub(crate) lane_cts: [u64; WARP_LANES],
    /// Per-lane write-back head registers.
    lane_head: [u64; WARP_LANES],
}

/// Where a client goes once its lanes have executed or pre-validated.
pub(crate) enum Settled {
    /// No update transaction is left to commit: start the next round.
    Idle,
    /// The given lane broadcasts its write-set next.
    PreVal(usize),
    /// Send the surviving batch to the server.
    Submit,
}

impl ClientRound {
    /// The round state of a warp whose request payload is `area`.
    pub(crate) fn new(heap: VBoxHeap, area: RequestSetArea, gts_addr: u64, done_addr: u64) -> Self {
        Self {
            heap,
            area,
            gts_addr,
            done_addr,
            lane_cts: [0; WARP_LANES],
            lane_head: [0; WARP_LANES],
        }
    }

    /// Fetch the next transactions and read the GTS; false once every
    /// source is drained.
    pub(crate) fn begin<S: TxSource>(&mut self, w: &mut WarpCtx, exec: &mut MvExec<S>) -> bool {
        self.lane_cts = [0; WARP_LANES];
        exec.begin_round(w, self.gts_addr)
    }

    /// Execute bodies (the request payload fills in as a side effect);
    /// true once every lane's body is done.
    pub(crate) fn bodies<S: TxSource>(&self, w: &mut WarpCtx, exec: &mut MvExec<S>) -> bool {
        exec.step_bodies(w, &self.heap, &self.area)
    }

    /// Commit read-only lanes and abort version-overflow lanes (no memory
    /// traffic); returns the settle time.
    pub(crate) fn settle<S: TxSource>(&self, w: &mut WarpCtx, exec: &mut MvExec<S>) -> u64 {
        w.set_phase(Phase::Execution.id());
        let now = w.now();
        let mut settled = 0u64;
        for lane in 0..WARP_LANES {
            let l = &exec.lanes[lane];
            if l.logic.is_none() {
                continue;
            }
            if l.overflowed() {
                exec.abort_lane(lane, now, AbortReason::VersionOverflow);
                settled += 1;
            } else if l.body_done() && l.is_rot() {
                let snapshot = l.snapshot;
                exec.commit_lane(lane, now, None, snapshot);
                settled += 1;
            }
        }
        w.alu(full_mask(), settled.max(1));
        now
    }

    /// Where to go with the lanes still committing: the first broadcaster
    /// at or after lane `from` when the warp pre-validates, else submit
    /// (or start over when nothing is left).
    pub(crate) fn settled<S: TxSource>(
        exec: &MvExec<S>,
        from: usize,
        prevalidate: bool,
    ) -> Settled {
        let committing = exec.committing_update_mask();
        match (from..WARP_LANES).find(|&l| committing & (1 << l) != 0) {
            Some(lane) if prevalidate => Settled::PreVal(lane),
            _ if committing == 0 => Settled::Idle,
            _ => Settled::Submit,
        }
    }

    /// One pre-validation step: lane `lane` broadcasts its write-set via
    /// shuffles; every later committing lane checks it against its own
    /// read/write-set and aborts on intersection (the survivor set is
    /// conflict-free, so the server can batch it). The loser decision is
    /// the pure `steps::preval_losers`; `compares(ws_len, committing)` is
    /// the ALU charge of the comparisons. Returns the step's end time.
    pub(crate) fn preval<S: TxSource>(
        w: &mut WarpCtx,
        exec: &mut MvExec<S>,
        lane: usize,
        compares: impl FnOnce(u64, u32) -> u64,
    ) -> u64 {
        w.set_phase(Phase::PreValidation.id());
        let committing = exec.committing_update_mask();
        let ws_items: Vec<u64> = exec.lanes[lane].ws.iter().map(|&(item, _)| item).collect();
        // One shuffle per broadcast word, plus the compare ALU work.
        let mut regs = [0u64; WARP_LANES];
        for &item in &ws_items {
            regs[lane] = item;
            let _ = w.shfl(committing, &regs, |_| lane);
        }
        let lanes = &exec.lanes;
        let losers = steps::preval_losers(lane, &ws_items, committing, |j, e| {
            let lj = &lanes[j];
            lj.rs.contains(&e) || lj.ws.iter().any(|&(it, _)| it == e)
        });
        w.alu(committing, compares(ws_items.len() as u64, committing));
        let now = w.now();
        for j in 0..WARP_LANES {
            if losers & (1 << j) != 0 {
                exec.abort_lane(j, now, AbortReason::PreValidationKill);
            }
        }
        now
    }

    /// Lanes holding a server-granted commit timestamp.
    pub(crate) fn committed_mask(&self) -> u32 {
        let mut m = 0;
        for (i, &cts) in self.lane_cts.iter().enumerate() {
            if cts != 0 {
                m |= 1 << i;
            }
        }
        m
    }

    /// Client-side write-back of version `widx`, sub-step `sub` (read the
    /// head, write the version, publish the head). Returns the next
    /// `(widx, sub)`, or `None` — charging nothing — once no committed
    /// lane has a version left to apply.
    pub(crate) fn write_back<S: TxSource>(
        &mut self,
        w: &mut WarpCtx,
        exec: &MvExec<S>,
        widx: usize,
        sub: u8,
    ) -> Option<(usize, u8)> {
        w.set_phase(Phase::WriteBack.id());
        let committed = self.committed_mask();
        // Lanes that still have a version to apply at this index.
        let mut mask = 0u32;
        for l in 0..WARP_LANES {
            if committed & (1 << l) != 0 && widx < exec.lanes[l].ws.len() {
                mask |= 1 << l;
            }
        }
        if mask == 0 {
            return None;
        }
        let heap = &self.heap;
        let lanes = &exec.lanes;
        Some(match sub {
            0 => {
                // Acquire: pairs with other committers' head updates.
                let heads = w.global_read_ord(
                    mask,
                    |l| heap.head_addr(lanes[l].ws[widx].0),
                    MemOrder::Acquire,
                );
                for (l, &head) in heads.iter().enumerate() {
                    if mask & (1 << l) != 0 {
                        self.lane_head[l] = head;
                    }
                }
                (widx, 1)
            }
            1 => {
                let lane_head = self.lane_head;
                let lane_cts = self.lane_cts;
                // Release: a reader that probes this ring slot re-checks
                // the packed timestamp, so the overwrite of the oldest
                // version is an intended race.
                w.global_write_ord(
                    mask,
                    |l| {
                        let (item, _) = lanes[l].ws[widx];
                        heap.version_addr(item, heap.next_slot(lane_head[l]))
                    },
                    |l| {
                        let (_, value) = lanes[l].ws[widx];
                        stm_core::vbox::pack_version(lane_cts[l], value)
                    },
                    MemOrder::Release,
                );
                (widx, 2)
            }
            _ => {
                let lane_head = self.lane_head;
                // Release: publishes the version written in sub-step 1 to
                // readers that acquire the head.
                w.global_write_ord(
                    mask,
                    |l| heap.head_addr(lanes[l].ws[widx].0),
                    |l| heap.next_slot(lane_head[l]),
                    MemOrder::Release,
                );
                (widx + 1, 0)
            }
        })
    }

    /// Book the round's commits.
    pub(crate) fn finish_round<S: TxSource>(&mut self, w: &mut WarpCtx, exec: &mut MvExec<S>) {
        w.set_phase(Phase::Execution.id());
        let now = w.now();
        let committed = self.committed_mask();
        for lane in 0..WARP_LANES {
            if committed & (1 << lane) != 0 {
                let snapshot = exec.lanes[lane].snapshot;
                let cts = self.lane_cts[lane];
                exec.commit_lane(lane, now, Some(cts), snapshot);
                self.lane_cts[lane] = 0;
            }
        }
        w.alu(full_mask(), 1);
    }

    /// Tell the server(s) this warp is finished.
    pub(crate) fn signal_done(&self, w: &mut WarpCtx) {
        w.set_phase(Phase::Idle.id());
        w.global_atomic_add(0, self.done_addr, 1);
    }
}

/// Fail the lanes of `mask` terminally for `reason`.
pub(crate) fn fail_lanes<S: TxSource>(
    exec: &mut MvExec<S>,
    mask: u32,
    now: u64,
    reason: AbortReason,
) {
    for lane in 0..WARP_LANES {
        if mask & (1 << lane) != 0 {
            exec.fail_lane(lane, now, reason);
        }
    }
}

/// A client warp's end of one server's mailbox: its slot in the
/// server's mailbox block and the fault-domain channel the block belongs
/// to. Every step a client takes on a mailbox is written here once.
pub(crate) struct Mailbox {
    proto: CommitProtocol,
    pub(crate) slot: usize,
    channel: u64,
}

impl Mailbox {
    /// Slot `slot` of mailbox block `proto`, on fault channel `channel`.
    pub(crate) fn new(proto: CommitProtocol, slot: usize, channel: u64) -> Self {
        Self {
            proto,
            slot,
            channel,
        }
    }

    /// Write the A headers: lanes in `committing` submit at their snapshots.
    pub(crate) fn send_hdr_a<S: TxSource>(
        &self,
        w: &mut WarpCtx,
        exec: &MvExec<S>,
        committing: u32,
    ) {
        let (proto, slot, lanes) = (&self.proto, self.slot, &exec.lanes);
        w.global_write(
            full_mask(),
            |l| proto.hdr_a_addr(slot, l),
            |l| CommitProtocol::pack_hdr_a(committing & (1 << l) != 0, lanes[l].snapshot),
        );
    }

    /// Write the B headers: every lane's read/write-set lengths.
    pub(crate) fn send_hdr_b<S: TxSource>(&self, w: &mut WarpCtx, exec: &MvExec<S>) {
        let (proto, slot, lanes) = (&self.proto, self.slot, &exec.lanes);
        w.global_write(
            full_mask(),
            |l| proto.hdr_b_addr(slot, l),
            |l| CommitProtocol::pack_hdr_b(lanes[l].rs.len(), lanes[l].ws.len()),
        );
    }

    /// Write the batch sequence word. Seq words are mailbox control plane,
    /// like the status word: recovery resends rewrite them while the server
    /// side may still be sweeping, so every access is ordered.
    pub(crate) fn send_seq(&self, w: &mut WarpCtx, seq: u64) {
        w.global_write1_ord(
            0,
            self.proto.req_seq_addr(self.slot),
            seq,
            MemOrder::Release,
        );
    }

    /// The fault plan's verdict on send attempt `attempt` of batch `seq`:
    /// the injected delay (rolled only when `roll_delay`) and whether the
    /// flag flip is dropped.
    pub(crate) fn send_faults(
        &self,
        w: &WarpCtx,
        seq: u64,
        attempt: u32,
        roll_delay: bool,
    ) -> (u64, bool) {
        let slot = self.slot as u64;
        w.fault_plan().map_or((0, false), |plan| {
            let delay = if roll_delay {
                plan.request_delay(self.channel, slot, seq, attempt)
            } else {
                0
            };
            (delay, plan.drop_request(self.channel, slot, seq, attempt))
        })
    }

    /// Post the REQUEST flag of batch `seq`. A `dropped` post is lost in
    /// transit: it pays the memory cost but leaves the mailbox status
    /// untouched (the seq rewrite is idempotent).
    pub(crate) fn post(&self, w: &mut WarpCtx, seq: u64, dropped: bool) {
        if dropped {
            self.send_seq(w, seq);
        } else {
            // Release: publishes the headers/payload written before it to
            // the server, which acquires this flag when it polls.
            self.set_status(w, STATUS_REQUEST);
        }
    }

    fn set_status(&self, w: &mut WarpCtx, status: u64) {
        let addr = self.proto.mailboxes().status_addr(self.slot);
        w.global_write1_ord(0, addr, status, MemOrder::Release);
    }

    /// Does the mailbox hold the response to batch `seq`? A RESPONSE left
    /// over from an earlier batch, whose duplicate the receiver has not yet
    /// re-armed, carries a stale echo: only a certified echo counts, and a
    /// stale one leaves the client to its timeout logic so a re-posted
    /// REQUEST can reclaim the slot.
    pub(crate) fn response_ready(&self, w: &mut WarpCtx, seq: u64) -> bool {
        // Acquire: seeing RESPONSE makes the server's outcome words visible.
        let status_addr = self.proto.mailboxes().status_addr(self.slot);
        if w.global_read1_ord(0, status_addr, MemOrder::Acquire) != STATUS_RESPONSE {
            return false;
        }
        let echo = w.global_read1_ord(0, self.proto.resp_seq_addr(self.slot), MemOrder::Acquire);
        steps::response_certified(echo, seq)
    }

    /// Read the 32 outcome words: aborted lanes abort, committed lanes get
    /// their timestamp in `lane_cts`.
    pub(crate) fn read_outcomes<S: TxSource>(
        &self,
        w: &mut WarpCtx,
        exec: &mut MvExec<S>,
        lane_cts: &mut [u64; WARP_LANES],
    ) {
        let (proto, slot) = (&self.proto, self.slot);
        let outcomes = w.global_read(full_mask(), |l| proto.outcome_addr(slot, l));
        let now = w.now();
        for (lane, &outcome) in outcomes.iter().enumerate() {
            match unpack_outcome(outcome) {
                Outcome::None => {}
                Outcome::Abort(reason) => exec.abort_lane(lane, now, reason),
                Outcome::Commit(cts) => lane_cts[lane] = cts,
            }
        }
    }

    /// Hand the mailbox (and its outcome words) back to the protocol for
    /// the next round — unless the fault plan injects a duplicate delivery
    /// of batch `seq`: then the served request is re-posted instead. The
    /// receiver recognises the stale seq, suppresses it and re-arms the
    /// response, which the seq-echo check ignores.
    pub(crate) fn release<S: TxSource>(&self, w: &mut WarpCtx, exec: &mut MvExec<S>, seq: u64) {
        let slot = self.slot as u64;
        if w.fault_plan()
            .is_some_and(|p| p.duplicate_request(self.channel, slot, seq))
        {
            exec.metrics.record_fault(FaultEvent::DuplicateInjected);
            self.set_status(w, STATUS_REQUEST);
        } else {
            self.set_status(w, STATUS_EMPTY);
        }
    }
}

/// Warp-level phase of the client kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase_ {
    /// Fetch transactions and read the GTS.
    Begin,
    /// Execute bodies (the request payload fills in as a side effect).
    Bodies,
    /// Commit ROTs / abort version-overflow lanes (no memory traffic).
    Settle,
    /// Intra-warp pre-validation: `lane` is the next broadcaster.
    PreVal { lane: usize },
    /// Write the per-lane A headers.
    SendHdrA,
    /// Write the per-lane B headers.
    SendHdrB,
    /// Write the batch sequence word (idempotence key for retries).
    SendSeq,
    /// Flip the mailbox flag to REQUEST.
    SendFlag,
    /// Costed wait until `resume_at`, then (re-)post the request flag —
    /// used for injected send delays and timeout backoff.
    Backoff { resume_at: u64 },
    /// Poll for the server's response.
    WaitResp,
    /// Read the 32 outcome words.
    ReadOutcomes,
    /// Return the mailbox to EMPTY.
    ClearFlag,
    /// Client-side write-back: version `widx`, sub-step 0/1/2.
    WriteBack { widx: usize, sub: u8 },
    /// Wait until GTS reaches `base − 1`.
    GtsWait { base: u64, n: u64 },
    /// Publish the batch: GTS ← base + n − 1.
    GtsBump { base: u64, n: u64 },
    /// Book-keep commits, then loop.
    FinishRound,
    /// Tell the server this warp is finished.
    SignalDone,
    /// Retired.
    Finished,
}

/// One CSMV client warp.
pub struct CsmvClient<S: TxSource> {
    /// The shared execution engine (public for result harvesting).
    pub exec: MvExec<S>,
    round: ClientRound,
    /// This warp's mailbox on the server (fault channel 0).
    mailbox: Mailbox,
    gts_addr: u64,
    variant: CsmvVariant,
    phase: Phase_,
    /// Seeded bug (see [`CsmvClient::inject_skip_gts_wait`]).
    skip_gts_wait: bool,
    /// Cycle at which the current GTS-wait episode began.
    gts_wait_start: Option<u64>,
    /// Failure-recovery policy (response timeout, backoff, retry budget);
    /// inert by default so healthy runs are unchanged.
    recovery: RetryPolicy,
    /// Next batch sequence number (1-based; the receiver treats 0 as
    /// "nothing received yet").
    next_seq: u64,
    /// Seq of the in-flight batch; retries re-post the same value.
    cur_seq: u64,
    /// Send attempts of the in-flight batch (0 while the first send is
    /// pending).
    send_attempt: u32,
    /// Cycle at which the current send's response wait began.
    send_started: u64,
    /// An injected send delay has already been served for this attempt.
    delay_served: bool,
}

impl<S: TxSource> CsmvClient<S> {
    /// Build a client warp bound to mailbox `slot`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sources: Vec<S>,
        thread_base: usize,
        exec_cfg: MvExecConfig,
        heap: VBoxHeap,
        proto: CommitProtocol,
        slot: usize,
        gts_addr: u64,
        done_addr: u64,
        variant: CsmvVariant,
    ) -> Self {
        let area = proto.set_area(slot);
        Self {
            exec: MvExec::new(sources, thread_base, exec_cfg),
            round: ClientRound::new(heap, area, gts_addr, done_addr),
            mailbox: Mailbox::new(proto, slot, 0),
            gts_addr,
            variant,
            phase: Phase_::Begin,
            skip_gts_wait: false,
            gts_wait_start: None,
            recovery: RetryPolicy::default(),
            next_seq: 1,
            cur_seq: 0,
            send_attempt: 0,
            send_started: 0,
            delay_served: false,
        }
    }

    /// Install a failure-recovery policy (timeouts, backoff, retry budget).
    pub fn set_recovery(&mut self, policy: RetryPolicy) {
        self.recovery = policy;
    }

    /// Seed a protocol bug for analysis-layer tests: this warp publishes its
    /// batches without waiting for its GTS turn, breaking the turn-taking
    /// order of §III-B. The invariant checker must flag the first such bump.
    pub fn inject_skip_gts_wait(&mut self) {
        self.skip_gts_wait = true;
    }

    /// Lanes whose update transaction survived so far and awaits submission.
    fn committing_mask(&self) -> u32 {
        self.exec.committing_update_mask()
    }

    /// The phase after execution or a pre-validation step.
    fn after(&self, from: usize) -> Phase_ {
        match ClientRound::settled(&self.exec, from, self.variant.pre_validation()) {
            Settled::Idle => Phase_::Begin,
            Settled::PreVal(lane) => Phase_::PreVal { lane },
            Settled::Submit => Phase_::SendHdrA,
        }
    }

    /// Current warp phase, for diagnostics.
    pub fn debug_phase(&self) -> String {
        format!(
            "{:?} committing={:032b}",
            self.phase,
            self.committing_mask()
        )
    }
}

impl<S: TxSource + 'static> WarpProgram for CsmvClient<S> {
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
        match self.phase {
            Phase_::Begin => {
                self.phase = if self.round.begin(w, &mut self.exec) {
                    Phase_::Bodies
                } else {
                    Phase_::SignalDone
                };
                StepOutcome::Running
            }
            Phase_::Bodies => {
                if self.round.bodies(w, &mut self.exec) {
                    self.phase = Phase_::Settle;
                }
                StepOutcome::Running
            }
            Phase_::Settle => {
                self.round.settle(w, &mut self.exec);
                self.phase = self.after(0);
                StepOutcome::Running
            }
            Phase_::PreVal { lane } => {
                ClientRound::preval(w, &mut self.exec, lane, |ws_len, committing| {
                    (ws_len * committing.count_ones() as u64).max(1)
                });
                self.phase = self.after(lane + 1);
                StepOutcome::Running
            }
            Phase_::SendHdrA => {
                w.set_phase(Phase::WaitServer.id());
                let committing = self.committing_mask();
                self.mailbox.send_hdr_a(w, &self.exec, committing);
                self.phase = Phase_::SendHdrB;
                StepOutcome::Running
            }
            Phase_::SendHdrB => {
                w.set_phase(Phase::WaitServer.id());
                self.mailbox.send_hdr_b(w, &self.exec);
                self.phase = Phase_::SendSeq;
                StepOutcome::Running
            }
            Phase_::SendSeq => {
                w.set_phase(Phase::WaitServer.id());
                self.cur_seq = self.next_seq;
                self.next_seq += 1;
                self.send_attempt = 0;
                self.delay_served = false;
                self.mailbox.send_seq(w, self.cur_seq);
                self.phase = Phase_::SendFlag;
                StepOutcome::Running
            }
            Phase_::SendFlag => {
                w.set_phase(Phase::WaitServer.id());
                let (seq, attempt) = (self.cur_seq, self.send_attempt);
                let (delay, dropped) =
                    self.mailbox
                        .send_faults(w, seq, attempt, !self.delay_served);
                if delay > 0 {
                    self.delay_served = true;
                    self.exec.metrics.record_fault(FaultEvent::DelayInjected);
                    self.phase = Phase_::Backoff {
                        resume_at: w.now() + delay,
                    };
                    return StepOutcome::Running;
                }
                if attempt > 0 {
                    self.exec.metrics.record_fault(FaultEvent::Resend);
                }
                self.mailbox.post(w, seq, dropped);
                self.delay_served = false;
                self.send_started = w.now();
                self.phase = Phase_::WaitResp;
                StepOutcome::Running
            }
            Phase_::Backoff { resume_at } => {
                w.set_phase(Phase::WaitServer.id());
                if w.now() >= resume_at {
                    self.phase = Phase_::SendFlag;
                } else {
                    w.poll_wait();
                }
                StepOutcome::Running
            }
            Phase_::WaitResp => {
                w.set_phase(Phase::WaitServer.id());
                if self.mailbox.response_ready(w, self.cur_seq) {
                    self.phase = Phase_::ReadOutcomes;
                    return StepOutcome::Running;
                }
                let timed_out = self
                    .recovery
                    .resp_timeout
                    .is_some_and(|t| w.now().saturating_sub(self.send_started) > t);
                if !timed_out {
                    w.poll_wait();
                    return StepOutcome::Running;
                }
                let now = w.now();
                self.exec.metrics.record_fault(FaultEvent::Timeout);
                self.send_attempt += 1;
                if self.send_attempt >= self.recovery.max_send_attempts {
                    // Terminal: the server is unreachable for this batch.
                    let committing = self.committing_mask();
                    fail_lanes(&mut self.exec, committing, now, AbortReason::ServerTimeout);
                    self.phase = Phase_::FinishRound;
                } else {
                    let delay = self.recovery.backoff_cycles(
                        self.mailbox.slot as u64,
                        self.cur_seq,
                        self.send_attempt,
                    );
                    self.phase = Phase_::Backoff {
                        resume_at: now + delay,
                    };
                }
                StepOutcome::Running
            }
            Phase_::ReadOutcomes => {
                w.set_phase(Phase::WaitServer.id());
                self.mailbox
                    .read_outcomes(w, &mut self.exec, &mut self.round.lane_cts);
                self.phase = Phase_::ClearFlag;
                StepOutcome::Running
            }
            Phase_::ClearFlag => {
                w.set_phase(Phase::WaitServer.id());
                self.mailbox.release(w, &mut self.exec, self.cur_seq);
                self.phase = if self.round.committed_mask() == 0 {
                    // Whole batch aborted (or OnlyCs with no survivors).
                    Phase_::FinishRound
                } else if self.variant.client_write_back() {
                    Phase_::WriteBack { widx: 0, sub: 0 }
                } else {
                    // OnlyCs: the server already wrote back and bumped GTS.
                    Phase_::FinishRound
                };
                StepOutcome::Running
            }
            Phase_::WriteBack { widx, sub } => {
                self.phase = match self.round.write_back(w, &self.exec, widx, sub) {
                    Some((widx, sub)) => Phase_::WriteBack { widx, sub },
                    None => {
                        // Write-back complete: compute the batch window.
                        let committed = self.round.committed_mask();
                        let ctss: Vec<u64> = (0..WARP_LANES)
                            .filter(|&l| committed & (1 << l) != 0)
                            .map(|l| self.round.lane_cts[l])
                            .collect();
                        let (base, n) = steps::batch_window(&ctss);
                        debug_assert!(
                            steps::window_is_dense(&ctss),
                            "server must assign consecutive cts within a batch"
                        );
                        w.alu(full_mask(), 2);
                        Phase_::GtsWait { base, n }
                    }
                };
                StepOutcome::Running
            }
            Phase_::GtsWait { base, n } => {
                w.set_phase(Phase::WaitGts.id());
                if self.gts_wait_start.is_none() {
                    self.gts_wait_start = Some(w.now());
                }
                if self.skip_gts_wait {
                    // Seeded bug: publish without taking our turn.
                    self.gts_wait_start = None;
                    self.phase = Phase_::GtsBump { base, n };
                    return StepOutcome::Running;
                }
                // Acquire: pairs with the previous batch's GTS bump, making
                // its write-back visible before ours is published.
                let gts = w.global_read1_ord(0, self.gts_addr, MemOrder::Acquire);
                if steps::gts_turn_reached(gts, base) {
                    let now = w.now();
                    let started = self.gts_wait_start.take().unwrap_or(now);
                    self.exec
                        .metrics
                        .gts_stall
                        .push(now.saturating_sub(started));
                    self.phase = Phase_::GtsBump { base, n };
                } else {
                    debug_assert!(gts < base, "GTS overtook this batch");
                    w.poll_wait();
                }
                StepOutcome::Running
            }
            Phase_::GtsBump { base, n } => {
                w.set_phase(Phase::WriteBack.id());
                // One increment by n publishes the whole batch at once.
                // Release: snapshot readers acquire the GTS and must see
                // every version this warp wrote back.
                w.global_write1_ord(
                    0,
                    self.gts_addr,
                    steps::gts_publish_value(base, n),
                    MemOrder::Release,
                );
                self.phase = Phase_::FinishRound;
                StepOutcome::Running
            }
            Phase_::FinishRound => {
                self.round.finish_round(w, &mut self.exec);
                self.phase = Phase_::Begin;
                StepOutcome::Running
            }
            Phase_::SignalDone => {
                self.round.signal_done(w);
                self.phase = Phase_::Finished;
                StepOutcome::Running
            }
            Phase_::Finished => StepOutcome::Done,
        }
    }
}

//! The warp-level execution engine shared by the multi-version GPU STMs
//! (CSMV and JVSTM-GPU): drives one [`TxLogic`] per lane against a
//! [`VBoxHeap`], one warp-wide memory operation per simulator step.
//!
//! Responsibilities:
//!
//! * snapshot acquisition (a warp-wide read of the GTS at round start);
//! * the versioned read protocol (head read, backwards ring probe), with
//!   lanes at different probe depths executing under shrinking masks so
//!   divergence is accounted realistically;
//! * read-your-own-writes via the lane-local write buffer;
//! * read-set / write-set tracking for update transactions, with each
//!   append *written to a global-memory set area* (JVSTM keeps the sets in
//!   thread-local = off-chip memory; CSMV builds the commit-request payload
//!   in place during execution);
//! * version-ring overflow ("snapshot too old") detection;
//! * commit/abort bookkeeping: wasted vs useful cycles and the
//!   [`TxRecord`]s consumed by the history checker.
//!
//! What it deliberately does **not** do is commit anything: the two STMs
//! plug their very different commit protocols in around it.

use gpu_sim::{Mask, MemOrder, WarpCtx, WARP_LANES};

use crate::history::TxRecord;
use crate::launch::ClientHarvest;
use crate::logic::{TxLogic, TxOp, TxSource};
use crate::metrics::{AbortReason, MetricsReport};
use crate::phase::Phase;
use crate::recovery::RetryPolicy;
use crate::stats::CommitStats;
use crate::vbox::{unpack_version, VBoxHeap, EMPTY_TS};

/// Where a lane's read-set / write-set entries live in global memory.
///
/// Layouts are item-major (`idx` varies slowest) so that lanes appending
/// their `idx`-th entry together produce a coalesced access.
pub trait SetArea {
    /// Address of read-set entry `idx` of lane-slot `lane`.
    fn rs_addr(&self, lane: usize, idx: usize) -> u64;
    /// Address of write-set entry `idx` of lane-slot `lane`.
    fn ws_addr(&self, lane: usize, idx: usize) -> u64;
    /// Read-set capacity per lane.
    fn max_rs(&self) -> usize;
    /// Write-set capacity per lane.
    fn max_ws(&self) -> usize;
}

/// A simple item-major set area for STMs that only need thread-local sets.
#[derive(Debug, Clone)]
pub struct PlainSetArea {
    rs_base: u64,
    ws_base: u64,
    max_rs: usize,
    max_ws: usize,
}

impl PlainSetArea {
    /// Allocate an area for one warp (32 lanes).
    pub fn alloc(global: &mut gpu_sim::mem::GlobalMemory, max_rs: usize, max_ws: usize) -> Self {
        let rs_base = global.alloc(max_rs * WARP_LANES);
        let ws_base = global.alloc(max_ws * WARP_LANES);
        Self {
            rs_base,
            ws_base,
            max_rs,
            max_ws,
        }
    }
}

impl SetArea for PlainSetArea {
    fn rs_addr(&self, lane: usize, idx: usize) -> u64 {
        debug_assert!(idx < self.max_rs);
        self.rs_base + (idx * WARP_LANES + lane) as u64
    }
    fn ws_addr(&self, lane: usize, idx: usize) -> u64 {
        debug_assert!(idx < self.max_ws);
        self.ws_base + (idx * WARP_LANES + lane) as u64
    }
    fn max_rs(&self) -> usize {
        self.max_rs
    }
    fn max_ws(&self) -> usize {
        self.max_ws
    }
}

/// Pack a write-set entry `(item, value)` into one word (both 32-bit).
#[inline]
pub fn pack_ws_entry(item: u64, value: u64) -> u64 {
    debug_assert!(item <= u32::MAX as u64 && value <= u32::MAX as u64);
    (item << 32) | value
}

/// Unpack a write-set entry word.
#[inline]
pub fn unpack_ws_entry(word: u64) -> (u64, u64) {
    (word >> 32, word & 0xFFFF_FFFF)
}

/// Micro-state of one lane's body execution.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Micro {
    /// No transaction (source exhausted, or not yet begun).
    Idle,
    /// Ready to ask the logic for its next operation.
    NeedNext(Option<u64>),
    /// Waiting to read the head word of `item`.
    WantHead { item: u64 },
    /// Probing the version ring of `item`, `back` slots behind `head`.
    Probe { item: u64, head: u64, back: u64 },
    /// A read was accepted; the read-set append for `item` is pending.
    AppendRs { item: u64, value: u64 },
    /// A write was buffered; the write-set area store is pending.
    AppendWs {
        ws_idx: usize,
        item: u64,
        value: u64,
    },
    /// Body finished; ready for the STM's commit protocol.
    BodyDone,
    /// The version ring held no old-enough version: forced abort.
    Overflow,
}

/// One lane: its transaction stream plus per-attempt state.
pub struct Lane<S: TxSource> {
    /// The lane's transaction source.
    pub source: S,
    /// Global thread id (for records/diagnostics).
    pub thread_id: usize,
    /// The in-flight transaction body, if any.
    pub logic: Option<S::Tx>,
    micro: Micro,
    /// Snapshot timestamp of the current attempt.
    pub snapshot: u64,
    /// Read-set items of the current attempt (update transactions only).
    pub rs: Vec<u64>,
    /// Write-set `(item, value)` of the current attempt.
    pub ws: Vec<(u64, u64)>,
    /// Every read `(item, value)` of the current attempt (history oracle).
    pub reads_log: Vec<(u64, u64)>,
    /// Cycle at which the current attempt started.
    pub attempt_start: u64,
    /// Outcome counters.
    pub stats: CommitStats,
    /// Committed-transaction records for the history checker.
    pub records: Vec<TxRecord>,
    /// True while an aborted transaction awaits re-execution.
    pub retry_pending: bool,
    /// Aborted attempts of the current transaction (0 on a fresh one);
    /// checked against the retry budget before re-arming a retry.
    pub attempts: u32,
}

impl<S: TxSource> Lane<S> {
    fn new(source: S, thread_id: usize) -> Self {
        Self {
            source,
            thread_id,
            logic: None,
            micro: Micro::Idle,
            snapshot: 0,
            rs: Vec::new(),
            ws: Vec::new(),
            reads_log: Vec::new(),
            attempt_start: 0,
            stats: CommitStats::default(),
            records: Vec::new(),
            retry_pending: false,
            attempts: 0,
        }
    }

    /// True once the source is exhausted and nothing is in flight.
    pub fn finished(&self) -> bool {
        self.logic.is_none() && !self.retry_pending
    }

    /// Whether the in-flight transaction is read-only.
    pub fn is_rot(&self) -> bool {
        self.logic
            .as_ref()
            .map(|l| l.is_read_only())
            .unwrap_or(false)
    }

    /// Whether the body completed (and how).
    pub fn body_done(&self) -> bool {
        self.micro == Micro::BodyDone
    }

    /// Whether the lane aborted on version-ring overflow.
    pub fn overflowed(&self) -> bool {
        self.micro == Micro::Overflow
    }

    /// Whether the lane is running a body right now.
    pub fn executing(&self) -> bool {
        !matches!(self.micro, Micro::Idle | Micro::BodyDone | Micro::Overflow)
    }
}

/// Configuration of the execution engine.
#[derive(Debug, Clone)]
pub struct MvExecConfig {
    /// Record per-transaction reads/writes for the history checker.
    /// Disable for large benchmark runs.
    pub record_history: bool,
    /// Upper bound on pure-logic operations folded into one step.
    pub max_logic_ops_per_step: usize,
    /// Failure-recovery policy; the retry budget is enforced here (a lane
    /// whose transaction exceeds it is failed terminally at round start),
    /// timeouts/backoff are enforced by the owning kernel.
    pub retry: RetryPolicy,
}

impl Default for MvExecConfig {
    fn default() -> Self {
        Self {
            record_history: true,
            max_logic_ops_per_step: 8,
            retry: RetryPolicy::default(),
        }
    }
}

impl MvExecConfig {
    /// The default engine, recording histories iff `record_history` and
    /// retrying by `retry`.
    pub fn new(record_history: bool, retry: &RetryPolicy) -> Self {
        Self {
            record_history,
            retry: retry.clone(),
            ..Self::default()
        }
    }
}

/// The warp execution engine: 32 lanes plus round bookkeeping.
pub struct MvExec<S: TxSource> {
    /// The lanes (fixed 32; lanes beyond the spawned thread count are Idle
    /// with empty sources).
    pub lanes: Vec<Lane<S>>,
    /// Per-warp observability: abort reasons and commit/abort latencies are
    /// recorded here; the owning kernel adds its protocol series on top.
    pub metrics: MetricsReport,
    cfg: MvExecConfig,
}

impl<S: TxSource> MvExec<S> {
    /// Build an engine from per-lane sources. `sources.len()` must be ≤ 32;
    /// `thread_base` is the global id of lane 0.
    pub fn new(sources: Vec<S>, thread_base: usize, cfg: MvExecConfig) -> Self {
        assert!(sources.len() <= WARP_LANES);
        let lanes = sources
            .into_iter()
            .enumerate()
            .map(|(i, s)| Lane::new(s, thread_base + i))
            .collect();
        Self {
            lanes,
            metrics: MetricsReport::default(),
            cfg,
        }
    }

    /// The armed failure-recovery policy (owning kernels consult it for the
    /// backoff delays that the engine itself does not schedule).
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.cfg.retry
    }

    /// Mask of lanes currently holding a transaction in any state.
    pub fn active_mask(&self) -> Mask {
        let mut m = 0;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.logic.is_some() {
                m |= 1 << i;
            }
        }
        m
    }

    /// Mask of lanes whose body completed and which are update transactions.
    pub fn committing_update_mask(&self) -> Mask {
        let mut m = 0;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.body_done() && !lane.is_rot() {
                m |= 1 << i;
            }
        }
        m
    }

    /// Begin a round: lanes without an in-flight transaction fetch the next
    /// one (or re-arm a retry); every lane with a transaction then reads the
    /// GTS to establish its snapshot (one coalesced warp access). Returns
    /// `false` when every lane is permanently finished.
    pub fn begin_round(&mut self, w: &mut WarpCtx, gts_addr: u64) -> bool {
        w.set_phase(Phase::Execution.id());
        // Enforce the per-transaction retry budget: a lane whose transaction
        // already burned its budget is failed terminally instead of retried.
        let now0 = w.now();
        for i in 0..self.lanes.len() {
            let give_up = {
                let l = &self.lanes[i];
                l.retry_pending && self.cfg.retry.budget_exhausted(l.attempts)
            };
            if give_up {
                self.fail_lane(i, now0, AbortReason::RetryBudgetExhausted);
            }
        }
        let mut any = false;
        for lane in self.lanes.iter_mut() {
            if lane.logic.is_none() && !lane.retry_pending {
                if let Some(tx) = lane.source.next_tx() {
                    lane.logic = Some(tx);
                    lane.attempts = 0;
                }
            }
            if lane.retry_pending {
                lane.retry_pending = false;
                if let Some(l) = lane.logic.as_mut() {
                    l.reset();
                }
            }
            if lane.logic.is_some() {
                any = true;
                lane.rs.clear();
                lane.ws.clear();
                lane.reads_log.clear();
                lane.micro = Micro::NeedNext(None);
            } else {
                lane.micro = Micro::Idle;
            }
        }
        if !any {
            return false;
        }
        let mask = self.active_mask();
        // Acquire: the snapshot read synchronizes with the committer's GTS
        // publication, making all version writes at or below it visible.
        let gts = w.global_read_ord(mask, |_| gts_addr, MemOrder::Acquire);
        let now = w.now();
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if lane.logic.is_some() {
                lane.snapshot = gts[i];
                lane.attempt_start = now;
            }
        }
        true
    }

    /// Execute one step of the bodies. Returns `true` once every active lane
    /// reached `BodyDone` or `Overflow`.
    pub fn step_bodies(&mut self, w: &mut WarpCtx, heap: &VBoxHeap, area: &dyn SetArea) -> bool {
        w.set_phase(Phase::Execution.id());

        // -- 1. pure-logic advance: consume ops that need no memory ---------
        let mut alu_ops = 0u64;
        let mut alu_mask: Mask = 0;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let mut iters = 0;
            while let Micro::NeedNext(last) = lane.micro.clone() {
                if iters >= self.cfg.max_logic_ops_per_step {
                    break;
                }
                iters += 1;
                alu_ops += 1;
                alu_mask |= 1 << i;
                let logic = lane.logic.as_mut().expect("NeedNext without logic");
                match logic.next(last) {
                    TxOp::Read { item } => {
                        // Read-your-own-writes from the lane-local buffer.
                        // Such reads are not recorded in the history log:
                        // they observe the transaction's private state, not
                        // committed state, so the oracle has nothing to
                        // check them against (a body may overwrite the same
                        // item repeatedly).
                        if let Some(&(_, v)) = lane.ws.iter().find(|&&(it, _)| it == item) {
                            lane.micro = Micro::NeedNext(Some(v));
                        } else {
                            lane.micro = Micro::WantHead { item };
                        }
                    }
                    TxOp::Write { item, value } => {
                        assert!(
                            !logic.is_read_only(),
                            "read-only transaction attempted a write"
                        );
                        // Upsert the local buffer; the area store lands at the
                        // entry's (possibly existing) index.
                        let idx = match lane.ws.iter().position(|&(it, _)| it == item) {
                            Some(idx) => {
                                lane.ws[idx] = (item, value);
                                idx
                            }
                            None => {
                                lane.ws.push((item, value));
                                lane.ws.len() - 1
                            }
                        };
                        assert!(
                            idx < area.max_ws(),
                            "write-set overflow: lane {} exceeded {} entries",
                            i,
                            area.max_ws()
                        );
                        lane.micro = Micro::AppendWs {
                            ws_idx: idx,
                            item,
                            value,
                        };
                    }
                    TxOp::Finish => {
                        lane.micro = Micro::BodyDone;
                    }
                }
            }
        }
        if alu_ops > 0 {
            w.alu(alu_mask, alu_ops);
        }

        // -- 2. one warp-wide memory operation, picked by priority ----------
        let ws_mask = self.mask_of(|m| matches!(m, Micro::AppendWs { .. }));
        if ws_mask != 0 {
            let lanes = &self.lanes;
            w.global_write(
                ws_mask,
                |l| match &lanes[l].micro {
                    Micro::AppendWs { ws_idx, .. } => area.ws_addr(l, *ws_idx),
                    _ => unreachable!(),
                },
                |l| match &lanes[l].micro {
                    Micro::AppendWs { item, value, .. } => pack_ws_entry(*item, *value),
                    _ => unreachable!(),
                },
            );
            for lane in self.lanes.iter_mut() {
                if matches!(lane.micro, Micro::AppendWs { .. }) {
                    lane.micro = Micro::NeedNext(None);
                }
            }
            return false;
        }

        let head_mask = self.mask_of(|m| matches!(m, Micro::WantHead { .. }));
        if head_mask != 0 {
            let lanes = &self.lanes;
            // Acquire: head words are published by committers' release
            // writes; version probes ride the same edge.
            let heads = w.global_read_ord(
                head_mask,
                |l| match &lanes[l].micro {
                    Micro::WantHead { item } => heap.head_addr(*item),
                    _ => unreachable!(),
                },
                MemOrder::Acquire,
            );
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if let Micro::WantHead { item } = lane.micro {
                    lane.micro = Micro::Probe {
                        item,
                        head: heads[i],
                        back: 0,
                    };
                }
            }
            return false;
        }

        let probe_mask = self.mask_of(|m| matches!(m, Micro::Probe { .. }));
        if probe_mask != 0 {
            let nv = heap.versions_per_box();
            let lanes = &self.lanes;
            // Acquire: a probe may race a committer recycling the oldest
            // ring slot; the timestamp-check-and-retry makes that benign,
            // and the annotation declares the pair intentional.
            let words = w.global_read_ord(
                probe_mask,
                |l| match &lanes[l].micro {
                    Micro::Probe { item, head, back } => {
                        heap.version_addr(*item, (head + nv - back) % nv)
                    }
                    _ => unreachable!(),
                },
                MemOrder::Acquire,
            );
            let record = self.cfg.record_history;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if let Micro::Probe { item, head, back } = lane.micro {
                    let (ts, value) = unpack_version(words[i]);
                    if ts != EMPTY_TS && ts <= lane.snapshot {
                        // Accepted.
                        if record {
                            lane.reads_log.push((item, value));
                        }
                        let track = !lane.is_rot();
                        if track && !lane.rs.contains(&item) {
                            lane.rs.push(item);
                            assert!(
                                lane.rs.len() <= area.max_rs(),
                                "read-set overflow: lane {i} exceeded {} entries",
                                area.max_rs()
                            );
                            lane.micro = Micro::AppendRs { item, value };
                        } else {
                            lane.micro = Micro::NeedNext(Some(value));
                        }
                    } else if back + 1 >= nv {
                        lane.micro = Micro::Overflow;
                    } else {
                        lane.micro = Micro::Probe {
                            item,
                            head,
                            back: back + 1,
                        };
                    }
                }
            }
            return false;
        }

        let rs_mask = self.mask_of(|m| matches!(m, Micro::AppendRs { .. }));
        if rs_mask != 0 {
            let lanes = &self.lanes;
            w.global_write(
                rs_mask,
                |l| area.rs_addr(l, lanes[l].rs.len() - 1),
                |l| match &lanes[l].micro {
                    Micro::AppendRs { item, .. } => *item,
                    _ => unreachable!(),
                },
            );
            for lane in self.lanes.iter_mut() {
                if let Micro::AppendRs { value, .. } = lane.micro {
                    lane.micro = Micro::NeedNext(Some(value));
                }
            }
            return false;
        }

        // Nothing but pure logic left: done when no lane still needs steps.
        self.lanes
            .iter()
            .all(|l| matches!(l.micro, Micro::Idle | Micro::BodyDone | Micro::Overflow))
    }

    fn mask_of(&self, f: impl Fn(&Micro) -> bool) -> Mask {
        let mut m = 0;
        for (i, lane) in self.lanes.iter().enumerate() {
            if f(&lane.micro) {
                m |= 1 << i;
            }
        }
        m
    }

    /// Record an abort of lane `lane` (attributed to `reason`) and arm it
    /// for retry.
    pub fn abort_lane(&mut self, lane: usize, now: u64, reason: AbortReason) {
        let l = &mut self.lanes[lane];
        let wasted = now.saturating_sub(l.attempt_start);
        l.stats.wasted_cycles += wasted;
        if l.is_rot() {
            l.stats.rot_aborts += 1;
        } else {
            l.stats.update_aborts += 1;
        }
        l.retry_pending = true;
        l.attempts += 1;
        l.micro = Micro::Idle;
        self.metrics.record_abort(reason, wasted);
    }

    /// Terminally fail lane `lane`'s transaction: account an abort with the
    /// (terminal) `reason` and drop the transaction instead of retrying it.
    /// Used by the recovery layer when a server is unreachable or a retry
    /// budget is exhausted.
    pub fn fail_lane(&mut self, lane: usize, now: u64, reason: AbortReason) {
        debug_assert!(reason.is_terminal(), "fail_lane with retriable reason");
        let l = &mut self.lanes[lane];
        let wasted = now.saturating_sub(l.attempt_start);
        l.stats.wasted_cycles += wasted;
        if l.is_rot() {
            l.stats.rot_aborts += 1;
        } else {
            l.stats.update_aborts += 1;
        }
        l.stats.failed += 1;
        l.logic = None;
        l.retry_pending = false;
        l.attempts = 0;
        l.micro = Micro::Idle;
        self.metrics.record_abort(reason, wasted);
    }

    /// Record a commit of lane `lane`. `cts` is `Some` for update
    /// transactions; `read_point` is the snapshot the reads reflect.
    pub fn commit_lane(&mut self, lane: usize, now: u64, cts: Option<u64>, read_point: u64) {
        let record = self.cfg.record_history;
        let l = &mut self.lanes[lane];
        let useful = now.saturating_sub(l.attempt_start);
        l.stats.useful_cycles += useful;
        if l.is_rot() {
            l.stats.rot_commits += 1;
        } else {
            l.stats.update_commits += 1;
        }
        if record {
            l.records.push(TxRecord {
                thread: l.thread_id,
                read_point,
                cts,
                reads: std::mem::take(&mut l.reads_log),
                writes: l.ws.clone(),
            });
        }
        l.logic = None;
        l.retry_pending = false;
        l.attempts = 0;
        l.micro = Micro::Idle;
        self.metrics.record_commit(useful);
    }

    /// Drain the warp for the launcher ([`crate::launch::finish`]):
    /// the outcome counters over all lanes, the metrics report and every
    /// committed-transaction record.
    pub fn harvest(&mut self) -> ClientHarvest {
        let mut stats = CommitStats::default();
        let mut records = Vec::new();
        for lane in self.lanes.iter_mut() {
            stats.merge(&lane.stats);
            records.append(&mut lane.records);
        }
        (stats, std::mem::take(&mut self.metrics), records)
    }

    /// True when every lane's source is exhausted and nothing is in flight.
    pub fn all_finished(&self) -> bool {
        self.lanes.iter().all(|l| l.finished())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, GpuConfig, StepOutcome, WarpProgram};

    /// A source yielding a fixed list of transactions.
    struct ListSource<T: TxLogic>(Vec<T>);
    impl<T: TxLogic + 'static> TxSource for ListSource<T> {
        type Tx = T;
        fn next_tx(&mut self) -> Option<T> {
            self.0.pop()
        }
    }

    /// Body: read item, write item+1 with value read+delta, finish.
    #[derive(Clone)]
    struct CopyTx {
        item: u64,
        delta: u64,
        step: u8,
        seen: u64,
        rot: bool,
    }
    impl TxLogic for CopyTx {
        fn is_read_only(&self) -> bool {
            self.rot
        }
        fn reset(&mut self) {
            self.step = 0;
            self.seen = 0;
        }
        fn next(&mut self, last: Option<u64>) -> TxOp {
            match self.step {
                0 => {
                    self.step = 1;
                    TxOp::Read { item: self.item }
                }
                1 => {
                    self.seen = last.unwrap();
                    self.step = 2;
                    if self.rot {
                        TxOp::Finish
                    } else {
                        TxOp::Write {
                            item: self.item + 1,
                            value: self.seen + self.delta,
                        }
                    }
                }
                _ => TxOp::Finish,
            }
        }
    }

    /// Harness program: begin one round, run bodies to completion, stop.
    struct OneRound {
        exec: MvExec<ListSource<CopyTx>>,
        heap: VBoxHeap,
        area: PlainSetArea,
        gts_addr: u64,
        begun: bool,
        pub done: bool,
    }
    impl WarpProgram for OneRound {
        fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
            if self.done {
                return StepOutcome::Done;
            }
            if !self.begun {
                self.begun = true;
                if !self.exec.begin_round(w, self.gts_addr) {
                    self.done = true;
                }
                return StepOutcome::Running;
            }
            if self.exec.step_bodies(w, &self.heap, &self.area) {
                self.done = true;
            }
            StepOutcome::Running
        }
    }

    fn setup(txs: Vec<CopyTx>, gts: u64, nv: u64) -> (Device, VBoxHeap, PlainSetArea, u64) {
        let mut dev = Device::new(GpuConfig::default());
        let gts_addr = dev.alloc_global(1);
        dev.global_mut().write(gts_addr, gts);
        let heap = VBoxHeap::init(dev.global_mut(), 64, nv, |i| i * 10);
        let area = PlainSetArea::alloc(dev.global_mut(), 8, 8);
        let _ = txs;
        (dev, heap, area, gts_addr)
    }

    fn run_round(txs: Vec<CopyTx>, gts: u64, nv: u64) -> (Device, OneRound) {
        let (mut dev, heap, area, gts_addr) = setup(txs.clone(), gts, nv);
        let exec = MvExec::new(vec![ListSource(txs)], 0, MvExecConfig::default());
        let id = dev.spawn(
            0,
            Box::new(OneRound {
                exec,
                heap,
                area,
                gts_addr,
                begun: false,
                done: false,
            }),
        );
        dev.run_to_completion();
        let prog = dev.take_program(id).downcast::<OneRound>().unwrap();
        (dev, *prog)
    }

    #[test]
    fn body_reads_initial_version_and_buffers_write() {
        let tx = CopyTx {
            item: 3,
            delta: 5,
            step: 0,
            seen: 0,
            rot: false,
        };
        let (_, prog) = run_round(vec![tx], 0, 2);
        let lane = &prog.exec.lanes[0];
        assert!(lane.body_done());
        assert_eq!(lane.reads_log, vec![(3, 30)]);
        assert_eq!(lane.rs, vec![3]);
        assert_eq!(lane.ws, vec![(4, 35)]);
    }

    #[test]
    fn rot_tracks_no_sets() {
        let tx = CopyTx {
            item: 2,
            delta: 0,
            step: 0,
            seen: 0,
            rot: true,
        };
        let (_, prog) = run_round(vec![tx], 0, 2);
        let lane = &prog.exec.lanes[0];
        assert!(lane.body_done());
        assert!(lane.rs.is_empty() && lane.ws.is_empty());
        assert_eq!(lane.reads_log, vec![(2, 20)]);
    }

    #[test]
    fn set_area_receives_appends() {
        let tx = CopyTx {
            item: 1,
            delta: 2,
            step: 0,
            seen: 0,
            rot: false,
        };
        let (dev, prog) = run_round(vec![tx], 0, 2);
        let area = &prog.area;
        assert_eq!(dev.global()[area.rs_addr(0, 0) as usize], 1);
        let (item, value) = unpack_ws_entry(dev.global()[area.ws_addr(0, 0) as usize]);
        assert_eq!((item, value), (2, 12));
    }

    #[test]
    fn snapshot_too_old_overflows() {
        // GTS = 5 but the only version has ts 0 — fine. Now set GTS below the
        // newest version: make a heap where item 0's single version has ts 9.
        let mut dev = Device::new(GpuConfig::default());
        let gts_addr = dev.alloc_global(1);
        dev.global_mut().write(gts_addr, 3);
        let heap = VBoxHeap::init(dev.global_mut(), 8, 1, |i| i);
        // Overwrite item 0's version with ts=9 (newer than snapshot 3).
        let w0 = heap.version_addr(0, 0);
        dev.global_mut().write(w0, crate::vbox::pack_version(9, 99));
        let area = PlainSetArea::alloc(dev.global_mut(), 4, 4);
        let exec = MvExec::new(
            vec![ListSource(vec![CopyTx {
                item: 0,
                delta: 1,
                step: 0,
                seen: 0,
                rot: false,
            }])],
            0,
            MvExecConfig::default(),
        );
        let id = dev.spawn(
            0,
            Box::new(OneRound {
                exec,
                heap,
                area,
                gts_addr,
                begun: false,
                done: false,
            }),
        );
        dev.run_to_completion();
        let prog = dev.take_program(id).downcast::<OneRound>().unwrap();
        assert!(prog.exec.lanes[0].overflowed());
    }

    #[test]
    fn read_your_own_write() {
        // Two-op tx via CopyTx chained: write then read back. Use a custom
        // body instead.
        #[derive(Clone)]
        struct Waw {
            step: u8,
            pub reread: u64,
        }
        impl TxLogic for Waw {
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
                        TxOp::Write { item: 5, value: 77 }
                    }
                    1 => {
                        self.step = 2;
                        TxOp::Read { item: 5 }
                    }
                    _ => {
                        if let Some(v) = last {
                            self.reread = v;
                        }
                        TxOp::Finish
                    }
                }
            }
        }
        struct WawRound {
            exec: MvExec<ListSource<Waw>>,
            heap: VBoxHeap,
            area: PlainSetArea,
            gts_addr: u64,
            begun: bool,
            done: bool,
        }
        impl WarpProgram for WawRound {
            fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
                if self.done {
                    return StepOutcome::Done;
                }
                if !self.begun {
                    self.begun = true;
                    self.exec.begin_round(w, self.gts_addr);
                    return StepOutcome::Running;
                }
                if self.exec.step_bodies(w, &self.heap, &self.area) {
                    self.done = true;
                }
                StepOutcome::Running
            }
        }
        let mut dev = Device::new(GpuConfig::default());
        let gts_addr = dev.alloc_global(1);
        let heap = VBoxHeap::init(dev.global_mut(), 8, 2, |i| i);
        let area = PlainSetArea::alloc(dev.global_mut(), 4, 4);
        let exec = MvExec::new(
            vec![ListSource(vec![Waw { step: 0, reread: 0 }])],
            0,
            MvExecConfig::default(),
        );
        let id = dev.spawn(
            0,
            Box::new(WawRound {
                exec,
                heap,
                area,
                gts_addr,
                begun: false,
                done: false,
            }),
        );
        dev.run_to_completion();
        let prog = dev.take_program(id).downcast::<WawRound>().unwrap();
        let lane = &prog.exec.lanes[0];
        assert!(lane.body_done());
        // The reread observed the pending write (private state), so it is
        // excluded from the recorded history and the read-set.
        assert!(lane.reads_log.is_empty());
        assert_eq!(lane.ws, vec![(5, 77)]);
        assert!(lane.rs.is_empty());
        // The body itself did see the value 77 (reread field).
        let logic = lane.logic.as_ref().unwrap();
        assert_eq!(logic.reread, 77);
    }

    #[test]
    fn commit_and_abort_bookkeeping() {
        let tx = CopyTx {
            item: 0,
            delta: 1,
            step: 0,
            seen: 0,
            rot: false,
        };
        let (_, mut prog) = run_round(vec![tx], 0, 2);
        prog.exec.abort_lane(0, 1000, AbortReason::ReadValidation);
        assert_eq!(prog.exec.lanes[0].stats.update_aborts, 1);
        assert!(prog.exec.lanes[0].retry_pending);
        assert!(!prog.exec.all_finished());
        // Pretend a retry ran and commit it.
        prog.exec.lanes[0].reads_log = vec![(0, 0)];
        prog.exec.commit_lane(0, 2000, Some(1), 0);
        let (stats, metrics, records) = prog.exec.harvest();
        assert_eq!(stats.update_commits, 1);
        assert_eq!(stats.update_aborts, 1);
        assert!(stats.wasted_cycles > 0);
        // Metrics mirror the outcome counters with latencies attached.
        assert_eq!(metrics.aborts.count(AbortReason::ReadValidation), 1);
        assert_eq!(metrics.abort_latency.count(), 1);
        assert_eq!(metrics.commit_latency.count(), 1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cts, Some(1));
        assert!(prog.exec.all_finished());
    }

    #[test]
    fn fail_lane_drops_the_transaction_terminally() {
        let tx = CopyTx {
            item: 0,
            delta: 1,
            step: 0,
            seen: 0,
            rot: false,
        };
        let (_, mut prog) = run_round(vec![tx], 0, 2);
        prog.exec.abort_lane(0, 500, AbortReason::ReadValidation);
        assert!(prog.exec.lanes[0].retry_pending);
        assert_eq!(prog.exec.lanes[0].attempts, 1);
        prog.exec.fail_lane(0, 900, AbortReason::ServerTimeout);
        let l = &prog.exec.lanes[0];
        assert!(l.finished());
        assert_eq!(l.stats.failed, 1);
        assert_eq!(l.stats.update_aborts, 2);
        assert!(prog.exec.all_finished());
        assert_eq!(
            prog.exec.metrics.aborts.count(AbortReason::ServerTimeout),
            1
        );
        // The metrics/stats consistency the STM tests rely on still holds.
        let (stats, metrics, _) = prog.exec.harvest();
        assert_eq!(metrics.aborts.total(), stats.aborts());
    }

    #[test]
    fn retry_budget_converts_endless_retry_into_terminal_failure() {
        struct Churn {
            exec: MvExec<ListSource<CopyTx>>,
            heap: VBoxHeap,
            area: PlainSetArea,
            gts_addr: u64,
            in_round: bool,
        }
        impl WarpProgram for Churn {
            fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
                if !self.in_round {
                    if !self.exec.begin_round(w, self.gts_addr) {
                        return StepOutcome::Done;
                    }
                    self.in_round = true;
                    return StepOutcome::Running;
                }
                if self.exec.step_bodies(w, &self.heap, &self.area) {
                    // Refuse every body, as a hopeless conflict would.
                    let now = w.now();
                    for i in 0..self.exec.lanes.len() {
                        if self.exec.lanes[i].logic.is_some() {
                            self.exec.abort_lane(i, now, AbortReason::ReadValidation);
                        }
                    }
                    self.in_round = false;
                }
                StepOutcome::Running
            }
        }
        let mut dev = Device::new(GpuConfig::default());
        let gts_addr = dev.alloc_global(1);
        let heap = VBoxHeap::init(dev.global_mut(), 8, 2, |i| i);
        let area = PlainSetArea::alloc(dev.global_mut(), 4, 4);
        let cfg = MvExecConfig {
            retry: crate::recovery::RetryPolicy {
                retry_budget: Some(2),
                ..Default::default()
            },
            ..MvExecConfig::default()
        };
        let exec = MvExec::new(
            vec![ListSource(vec![CopyTx {
                item: 0,
                delta: 1,
                step: 0,
                seen: 0,
                rot: false,
            }])],
            0,
            cfg,
        );
        let id = dev.spawn(
            0,
            Box::new(Churn {
                exec,
                heap,
                area,
                gts_addr,
                in_round: false,
            }),
        );
        dev.run_to_completion();
        let mut prog = dev.take_program(id).downcast::<Churn>().unwrap();
        let (stats, metrics, _) = prog.exec.harvest();
        assert_eq!(stats.commits(), 0);
        assert_eq!(stats.failed, 1);
        // Two budgeted aborts plus the terminal RetryBudgetExhausted one.
        assert_eq!(stats.update_aborts, 3);
        assert_eq!(metrics.aborts.count(AbortReason::RetryBudgetExhausted), 1);
    }

    #[test]
    fn multi_lane_round_runs_all_lanes() {
        let mut dev = Device::new(GpuConfig::default());
        let gts_addr = dev.alloc_global(1);
        let heap = VBoxHeap::init(dev.global_mut(), 64, 2, |i| i * 10);
        let area = PlainSetArea::alloc(dev.global_mut(), 8, 8);
        let sources = (0..8)
            .map(|i| {
                ListSource(vec![CopyTx {
                    item: i as u64 * 2,
                    delta: 1,
                    step: 0,
                    seen: 0,
                    rot: i % 2 == 0,
                }])
            })
            .collect();
        let exec = MvExec::new(sources, 0, MvExecConfig::default());
        let id = dev.spawn(
            0,
            Box::new(OneRound {
                exec,
                heap,
                area,
                gts_addr,
                begun: false,
                done: false,
            }),
        );
        dev.run_to_completion();
        let prog = dev.take_program(id).downcast::<OneRound>().unwrap();
        for (i, lane) in prog.exec.lanes.iter().enumerate() {
            assert!(lane.body_done(), "lane {i} not done");
            assert_eq!(lane.reads_log, vec![(i as u64 * 2, i as u64 * 20)]);
        }
        // Divergence: ROT lanes finish earlier than update lanes (which do
        // the extra write/append steps) — some idle-lane time must accrue.
        assert!(dev.warp_stats(id).divergence_cycles > 0);
    }
}

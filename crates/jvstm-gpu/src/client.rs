//! The JVSTM-GPU client warp: body execution via the shared MV engine, then
//! the §III-A commit protocol executed *per lane* — serialized, divergent,
//! and bottlenecked on the global-memory ATR lock, exactly the pathology the
//! paper's Table I quantifies.

use gpu_sim::{single_lane, MemOrder, StepOutcome, WarpCtx, WarpProgram, WARP_LANES};
use stm_core::mv_exec::{MvExec, MvExecConfig, PlainSetArea};
use stm_core::{AbortReason, Phase, TxSource, VBoxHeap};

use crate::atr::GlobalAtr;

/// Lock word values.
const UNLOCKED: u64 = 0;
const LOCKED: u64 = 1;

/// Per-lane commit micro-state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneCommit {
    /// Read `atr.next` to learn how far to validate.
    ReadNext { validated_to: u64 },
    /// Validate ATR entries `[idx, target)` against the lane's read-set.
    Validate { idx: u64, target: u64, locked: bool },
    /// Try to take the commit lock.
    TryLock { validated_to: u64 },
    /// Lock held: re-read `next` (entries may have committed meanwhile).
    PostLockReadNext { validated_to: u64 },
    /// Lock held & fully validated at entry index `cur`: write entry items.
    InsertItems { cur: u64 },
    /// Write the entry's `ws_len` word (publishes the entry content).
    InsertLen { cur: u64 },
    /// Write-back version `widx`; `sub` = 0 read head / 1 write version /
    /// 2 write head.
    WriteBack {
        cur: u64,
        widx: usize,
        sub: u8,
        head: u64,
    },
    /// Make the commit visible to new transactions.
    PublishGts { cur: u64 },
    /// Advance `next`.
    BumpNext { cur: u64 },
    /// Release the commit lock; the transaction is committed.
    Unlock { cur: u64 },
}

/// Warp-level phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CPhase {
    /// Fetch transactions and read the GTS.
    Begin,
    /// Recovery-policy backoff: retrying lanes sit out until `resume_at`
    /// (bounded exponential delay with seeded jitter).
    Backoff { resume_at: u64 },
    /// Execute transaction bodies.
    Bodies,
    /// Commit ROTs / abort overflows (no memory traffic).
    Settle,
    /// Serialized per-lane update-transaction commits.
    Commit { lane: usize, st: LaneCommit },
    /// All sources exhausted.
    Finished,
}

/// One client warp of the JVSTM-GPU baseline.
pub struct JvstmGpuClient<S: TxSource> {
    /// The shared execution engine (public so the launcher can harvest
    /// statistics and history records).
    pub exec: MvExec<S>,
    heap: VBoxHeap,
    atr: GlobalAtr,
    area: PlainSetArea,
    gts_addr: u64,
    validate_batch: usize,
    phase: CPhase,
    /// True once the pre-round backoff delay has been served (reset when
    /// the round actually begins, so each retry round backs off at most
    /// once).
    backoff_served: bool,
}

impl<S: TxSource> JvstmGpuClient<S> {
    /// Build a client warp.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sources: Vec<S>,
        thread_base: usize,
        exec_cfg: MvExecConfig,
        heap: VBoxHeap,
        atr: GlobalAtr,
        area: PlainSetArea,
        gts_addr: u64,
        validate_batch: usize,
    ) -> Self {
        Self {
            exec: MvExec::new(sources, thread_base, exec_cfg),
            heap,
            atr,
            area,
            gts_addr,
            validate_batch: validate_batch.max(1),
            phase: CPhase::Begin,
            backoff_served: false,
        }
    }

    /// Cycle until which retrying lanes must wait before the next round, or
    /// `None` when no backoff is due. The warp-wide delay is the max over
    /// its retrying lanes (lockstep: the warp cannot restart piecemeal).
    fn backoff_target(&self, w: &WarpCtx) -> Option<u64> {
        let policy = self.exec.retry_policy();
        if policy.backoff_base == 0 {
            return None;
        }
        let mut delay = 0u64;
        for l in &self.exec.lanes {
            if l.retry_pending && l.attempts > 0 && !policy.budget_exhausted(l.attempts) {
                delay =
                    delay.max(policy.backoff_cycles(l.thread_id as u64, l.snapshot, l.attempts));
            }
        }
        (delay > 0).then(|| w.now() + delay)
    }

    /// Advance to the next lane that has an update transaction to commit,
    /// starting at `lane`.
    fn next_commit_lane(&self, mut lane: usize) -> Option<usize> {
        while lane < WARP_LANES {
            let l = &self.exec.lanes[lane];
            if l.body_done() && !l.is_rot() {
                return Some(lane);
            }
            lane += 1;
        }
        None
    }

    fn enter_commit(&mut self, lane: usize) -> CPhase {
        let snapshot = self.exec.lanes[lane].snapshot;
        CPhase::Commit {
            lane,
            st: LaneCommit::ReadNext {
                validated_to: snapshot,
            },
        }
    }

    /// One step of a lane's commit; returns the next warp phase.
    fn step_commit(&mut self, w: &mut WarpCtx, lane: usize, st: LaneCommit) -> CPhase {
        let mask = single_lane(lane);
        match st {
            LaneCommit::ReadNext { validated_to } => {
                w.set_phase(Phase::Validation.id());
                // Acquire: pairs with committers' BumpNext releases, making
                // the entries below `cur` visible.
                let cur = w.global_read1_ord(lane, self.atr.next_addr(), MemOrder::Acquire);
                if cur > validated_to {
                    CPhase::Commit {
                        lane,
                        st: LaneCommit::Validate {
                            idx: validated_to,
                            target: cur,
                            locked: false,
                        },
                    }
                } else {
                    CPhase::Commit {
                        lane,
                        st: LaneCommit::TryLock { validated_to },
                    }
                }
            }
            LaneCommit::Validate {
                idx,
                target,
                locked,
            } => {
                w.set_phase(Phase::Validation.id());
                let batch = ((target - idx) as usize).min(self.validate_batch);
                // Read the ws_len words of the batch (single-lane, divergent).
                let atr = self.atr.clone();
                let lens =
                    w.global_read_bulk(mask, batch, |_, i| atr.entry_len_addr(idx + i as u64));
                let lens: Vec<u64> = (0..batch).map(|i| lens[i][lane]).collect();
                // Read every entry's items.
                let mut flat: Vec<(u64, u64)> = Vec::new();
                for (i, &len) in lens.iter().enumerate() {
                    for k in 0..len {
                        flat.push((idx + i as u64, k));
                    }
                }
                let conflict = if flat.is_empty() {
                    false
                } else {
                    let atr = self.atr.clone();
                    let items = w.global_read_bulk(mask, flat.len(), |_, j| {
                        let (e, k) = flat[j];
                        atr.entry_item_addr(e, k)
                    });
                    let rs = &self.exec.lanes[lane].rs;
                    w.alu(mask, (rs.len().max(1) * flat.len()) as u64);
                    items
                        .iter()
                        .take(flat.len())
                        .any(|row| rs.contains(&row[lane]))
                };
                if conflict {
                    if locked {
                        // Release before aborting.
                        w.set_phase(Phase::RecordInsert.id());
                        w.global_write1_ord(
                            lane,
                            self.atr.lock_addr(),
                            UNLOCKED,
                            MemOrder::Release,
                        );
                    }
                    self.exec
                        .abort_lane(lane, w.now(), AbortReason::ReadValidation);
                    return self.after_lane(lane);
                }
                let new_idx = idx + batch as u64;
                let st = if new_idx < target {
                    LaneCommit::Validate {
                        idx: new_idx,
                        target,
                        locked,
                    }
                } else if locked {
                    LaneCommit::InsertItems { cur: target }
                } else {
                    LaneCommit::TryLock {
                        validated_to: target,
                    }
                };
                CPhase::Commit { lane, st }
            }
            LaneCommit::TryLock { validated_to } => {
                w.set_phase(Phase::RecordInsert.id());
                let old = w.global_cas1(lane, self.atr.lock_addr(), UNLOCKED, LOCKED);
                if old == UNLOCKED {
                    CPhase::Commit {
                        lane,
                        st: LaneCommit::PostLockReadNext { validated_to },
                    }
                } else {
                    // Another transaction is inside its commit critical
                    // section; wait and revalidate whatever it publishes.
                    w.poll_wait();
                    CPhase::Commit {
                        lane,
                        st: LaneCommit::ReadNext { validated_to },
                    }
                }
            }
            LaneCommit::PostLockReadNext { validated_to } => {
                w.set_phase(Phase::Validation.id());
                let cur = w.global_read1_ord(lane, self.atr.next_addr(), MemOrder::Acquire);
                if cur > validated_to {
                    CPhase::Commit {
                        lane,
                        st: LaneCommit::Validate {
                            idx: validated_to,
                            target: cur,
                            locked: true,
                        },
                    }
                } else {
                    CPhase::Commit {
                        lane,
                        st: LaneCommit::InsertItems { cur },
                    }
                }
            }
            LaneCommit::InsertItems { cur } => {
                w.set_phase(Phase::RecordInsert.id());
                assert!(
                    (cur as usize) < self.atr.capacity(),
                    "ATR capacity exceeded; size atr_capacity above the total update commits"
                );
                let ws: Vec<u64> = self.exec.lanes[lane]
                    .ws
                    .iter()
                    .map(|&(item, _)| item)
                    .collect();
                let atr = self.atr.clone();
                w.global_write_bulk(mask, ws.len().max(1), |_, k| {
                    if k < ws.len() {
                        Some((atr.entry_item_addr(cur, k as u64), ws[k]))
                    } else {
                        None
                    }
                });
                CPhase::Commit {
                    lane,
                    st: LaneCommit::InsertLen { cur },
                }
            }
            LaneCommit::InsertLen { cur } => {
                w.set_phase(Phase::RecordInsert.id());
                let len = self.exec.lanes[lane].ws.len() as u64;
                // Release: publishes the entry's items to validators (they
                // acquire `next` before reading entries below it).
                w.global_write1_ord(lane, self.atr.entry_len_addr(cur), len, MemOrder::Release);
                CPhase::Commit {
                    lane,
                    st: LaneCommit::WriteBack {
                        cur,
                        widx: 0,
                        sub: 0,
                        head: 0,
                    },
                }
            }
            LaneCommit::WriteBack {
                cur,
                widx,
                sub,
                head,
            } => {
                w.set_phase(Phase::WriteBack.id());
                let ws = &self.exec.lanes[lane].ws;
                if widx >= ws.len() {
                    return CPhase::Commit {
                        lane,
                        st: LaneCommit::PublishGts { cur },
                    };
                }
                let (item, value) = ws[widx];
                let cts = cur + 1;
                match sub {
                    0 => {
                        // Acquire/Release head/version discipline, as in the
                        // CSMV write-back.
                        let h =
                            w.global_read1_ord(lane, self.heap.head_addr(item), MemOrder::Acquire);
                        CPhase::Commit {
                            lane,
                            st: LaneCommit::WriteBack {
                                cur,
                                widx,
                                sub: 1,
                                head: h,
                            },
                        }
                    }
                    1 => {
                        let slot = self.heap.next_slot(head);
                        w.global_write1_ord(
                            lane,
                            self.heap.version_addr(item, slot),
                            stm_core::vbox::pack_version(cts, value),
                            MemOrder::Release,
                        );
                        CPhase::Commit {
                            lane,
                            st: LaneCommit::WriteBack {
                                cur,
                                widx,
                                sub: 2,
                                head,
                            },
                        }
                    }
                    _ => {
                        let slot = self.heap.next_slot(head);
                        w.global_write1_ord(
                            lane,
                            self.heap.head_addr(item),
                            slot,
                            MemOrder::Release,
                        );
                        CPhase::Commit {
                            lane,
                            st: LaneCommit::WriteBack {
                                cur,
                                widx: widx + 1,
                                sub: 0,
                                head: 0,
                            },
                        }
                    }
                }
            }
            LaneCommit::PublishGts { cur } => {
                w.set_phase(Phase::WriteBack.id());
                // Release: snapshot readers acquire the GTS.
                w.global_write1_ord(lane, self.gts_addr, cur + 1, MemOrder::Release);
                CPhase::Commit {
                    lane,
                    st: LaneCommit::BumpNext { cur },
                }
            }
            LaneCommit::BumpNext { cur } => {
                w.set_phase(Phase::RecordInsert.id());
                // Release: publishes the inserted entry to validators.
                w.global_write1_ord(lane, self.atr.next_addr(), cur + 1, MemOrder::Release);
                // The global ATR is append-only: `next` IS its occupancy.
                self.exec.metrics.atr_occupancy.push(cur + 1);
                CPhase::Commit {
                    lane,
                    st: LaneCommit::Unlock { cur },
                }
            }
            LaneCommit::Unlock { cur } => {
                w.set_phase(Phase::RecordInsert.id());
                // Release: the next lock CAS acquires the critical section.
                w.global_write1_ord(lane, self.atr.lock_addr(), UNLOCKED, MemOrder::Release);
                let snapshot = self.exec.lanes[lane].snapshot;
                self.exec
                    .commit_lane(lane, w.now(), Some(cur + 1), snapshot);
                self.after_lane(lane)
            }
        }
    }

    fn after_lane(&mut self, lane: usize) -> CPhase {
        match self.next_commit_lane(lane + 1) {
            Some(next) => self.enter_commit(next),
            None => CPhase::Begin,
        }
    }
}

impl<S: TxSource + 'static> WarpProgram for JvstmGpuClient<S> {
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
        match self.phase {
            CPhase::Begin => {
                if !self.backoff_served {
                    if let Some(resume_at) = self.backoff_target(w) {
                        self.backoff_served = true;
                        self.phase = CPhase::Backoff { resume_at };
                        return StepOutcome::Running;
                    }
                }
                self.backoff_served = false;
                if self.exec.begin_round(w, self.gts_addr) {
                    self.phase = CPhase::Bodies;
                } else {
                    self.phase = CPhase::Finished;
                    return StepOutcome::Done;
                }
                StepOutcome::Running
            }
            CPhase::Backoff { resume_at } => {
                if w.now() < resume_at {
                    w.poll_wait();
                } else {
                    self.phase = CPhase::Begin;
                }
                StepOutcome::Running
            }
            CPhase::Bodies => {
                if self.exec.step_bodies(w, &self.heap, &self.area) {
                    self.phase = CPhase::Settle;
                }
                StepOutcome::Running
            }
            CPhase::Settle => {
                w.set_phase(Phase::Execution.id());
                let now = w.now();
                let mut settled = 0u64;
                for lane in 0..WARP_LANES {
                    let l = &self.exec.lanes[lane];
                    if l.logic.is_none() {
                        continue;
                    }
                    if l.overflowed() {
                        self.exec
                            .abort_lane(lane, now, AbortReason::VersionOverflow);
                        settled += 1;
                    } else if l.body_done() && l.is_rot() {
                        let snapshot = l.snapshot;
                        self.exec.commit_lane(lane, now, None, snapshot);
                        settled += 1;
                    }
                }
                w.alu(gpu_sim::full_mask(), settled.max(1));
                self.phase = match self.next_commit_lane(0) {
                    Some(lane) => self.enter_commit(lane),
                    None => CPhase::Begin,
                };
                StepOutcome::Running
            }
            CPhase::Commit { lane, st } => {
                self.phase = self.step_commit(w, lane, st);
                StepOutcome::Running
            }
            CPhase::Finished => StepOutcome::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, JvstmGpuConfig};
    use gpu_sim::GpuConfig;
    use stm_core::{check_history, TxLogic, TxOp};

    /// Increment item 0 once.
    #[derive(Clone)]
    struct Incr {
        step: u8,
        seen: u64,
    }
    impl TxLogic for Incr {
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
                    TxOp::Read { item: 0 }
                }
                1 => {
                    self.seen = last.unwrap();
                    self.step = 2;
                    TxOp::Write {
                        item: 0,
                        value: self.seen + 1,
                    }
                }
                _ => TxOp::Finish,
            }
        }
    }
    struct Once(Option<Incr>);
    impl TxSource for Once {
        type Tx = Incr;
        fn next_tx(&mut self) -> Option<Incr> {
            self.0.take()
        }
    }

    /// The classic STM counter test: N threads increment one counter; the
    /// final value must equal the number of committed increments (= N, since
    /// every transaction retries until it commits).
    #[test]
    fn contended_counter_is_exact() {
        let gpu = GpuConfig {
            num_sms: 4,
            ..Default::default()
        };
        let cfg = JvstmGpuConfig {
            gpu,
            atr_capacity: 2048,
            versions_per_box: 8,
            ..Default::default()
        };
        let res = run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
        let n = cfg.num_threads() as u64;
        assert_eq!(res.stats.update_commits, n);
        check_history(&res.records, &std::collections::HashMap::new(), true)
            .expect("opaque history");
        // Final committed value = number of increments.
        let max_write = res
            .records
            .iter()
            .filter_map(|r| r.cts.map(|c| (c, r.writes[0].1)))
            .max()
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(max_write, n);
        // Conflicts on item 0 are discovered by per-lane ATR validation.
        assert_eq!(res.metrics.aborts.total(), res.stats.aborts());
        assert!(
            res.metrics.aborts.count(AbortReason::ReadValidation) > 0,
            "contended increments must abort on validation: {:?}",
            res.metrics.aborts
        );
        // The append-only ATR's occupancy was observed at each publication.
        assert_eq!(res.metrics.atr_occupancy.len(), n);
        assert_eq!(res.metrics.atr_occupancy.max(), n);
    }

    /// With a single version per box, concurrent committers overwrite the
    /// only version and laggards abort on snapshot-too-old, yet the history
    /// stays opaque and every transaction eventually commits.
    #[test]
    fn single_version_boxes_cause_overflow_aborts_but_stay_correct() {
        let gpu = GpuConfig {
            num_sms: 2,
            ..Default::default()
        };
        let cfg = JvstmGpuConfig {
            gpu,
            atr_capacity: 2048,
            versions_per_box: 1,
            ..Default::default()
        };
        let res = run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
        let n = cfg.num_threads() as u64;
        assert_eq!(res.stats.update_commits, n);
        check_history(&res.records, &std::collections::HashMap::new(), true)
            .expect("opaque history");
        assert!(
            res.metrics.aborts.count(AbortReason::VersionOverflow) > 0,
            "snapshot-too-old aborts must be classified: {:?}",
            res.metrics.aborts
        );
    }

    /// With a one-retry budget under full contention, losing lanes are
    /// failed terminally (no endless retry), the committed history stays
    /// opaque, and the seeded backoff keeps runs bit-deterministic.
    #[test]
    fn retry_budget_and_backoff_fail_losers_terminally() {
        let gpu = GpuConfig {
            num_sms: 4,
            ..Default::default()
        };
        let cfg = JvstmGpuConfig {
            gpu,
            atr_capacity: 2048,
            versions_per_box: 8,
            recovery: stm_core::RetryPolicy {
                retry_budget: Some(1),
                backoff_base: 32,
                backoff_cap: 256,
                jitter_seed: 9,
                ..stm_core::RetryPolicy::default()
            },
            ..Default::default()
        };
        let run_once = || run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
        let res = run_once();
        let n = cfg.num_threads() as u64;
        assert_eq!(
            res.stats.commits() + res.stats.failed,
            n,
            "every transaction must either commit or fail terminally"
        );
        assert!(
            res.stats.failed > 0,
            "full contention with budget 1 must exhaust some budgets"
        );
        assert!(res.metrics.aborts.count(AbortReason::RetryBudgetExhausted) > 0);
        check_history(&res.records, &std::collections::HashMap::new(), true)
            .expect("opaque history");
        let again = run_once();
        assert_eq!(res.elapsed_cycles, again.elapsed_cycles);
        assert_eq!(res.stats, again.stats);
    }
}

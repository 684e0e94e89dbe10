//! The PR-STM client warp: single-versioned execution with invisible reads,
//! per-read incremental validation, encounter-time write locking with the
//! priority-rule contention manager, and a seal–validate–write–unlock
//! commit.
//!
//! Unlike the multi-version STMs, *read-only transactions get no free
//! lunch*: every read appends to the read-set and re-validates everything
//! read so far (there is no global clock to shortcut with), which is the
//! quadratic overhead the paper's Fig. 2/Table II attribute PR-STM's
//! collapse on long ROTs to.

use gpu_sim::{
    full_mask, lane_count, Mask, MemOrder, StepOutcome, WarpCtx, WarpProgram, WARP_LANES,
};
use stm_core::history::TxRecord;
use stm_core::launch::ClientHarvest;
use stm_core::mv_exec::{pack_ws_entry, PlainSetArea, SetArea};
use stm_core::stats::CommitStats;
use stm_core::{AbortReason, MetricsReport, Phase, RetryPolicy, TxLogic, TxOp, TxSource};

use crate::lock::{self, LockTable};
use crate::log::LockLog;

/// Seal bit: set while the owner is inside its commit critical path; sealed
/// locks cannot be stolen, which keeps write-back atomic.
pub const SEAL_BIT: u64 = 1 << 30;

/// Per-lane execution micro-state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Micro {
    Idle,
    NeedNext(Option<u64>),
    /// Read `item`'s lock word (pre-read check).
    ReadLock {
        item: u64,
    },
    /// Lock word was clean at `version`; read the value.
    ReadValue {
        item: u64,
        version: u64,
    },
    /// Append the read to the read-set area, then revalidate.
    AppendRs {
        item: u64,
        version: u64,
        value: u64,
    },
    /// Incremental revalidation of the whole read-set; on success the read
    /// value is fed to the body.
    Reval {
        value: u64,
    },
    /// Examine `item`'s lock word before writing.
    WLock {
        item: u64,
        value: u64,
    },
    /// Try to acquire (or steal) the lock.
    WLockCas {
        item: u64,
        value: u64,
        expect: u64,
    },
    /// Store the write-set entry.
    AppendWs {
        ws_idx: usize,
        item: u64,
        value: u64,
    },
    /// Body complete; awaiting the warp commit phases.
    BodyDone,
    /// Lock acquisition or validation failed: release held locks.
    Releasing {
        idx: usize,
    },
    /// Fully aborted; bookkeeping happens at round settle.
    Aborted,
}

/// A lock this lane holds: item, pre-lock version, and the exact word we
/// installed (the expected value for release/seal CASes).
#[derive(Debug, Clone, Copy)]
struct Held {
    item: u64,
    version: u64,
    word: u64,
}

/// Commit-phase progress of one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneCommit {
    /// Not participating (ROT, or already decided).
    None,
    /// Sealing write locks (index into held list).
    Sealing,
    /// Passed validation, timestamps assigned; writing values.
    Writing,
    /// Unlocking with bumped versions.
    Unlocking,
    /// Done (committed).
    Committed,
}

/// One PR-STM lane.
struct Lane<S: TxSource> {
    source: S,
    thread_id: usize,
    logic: Option<S::Tx>,
    micro: Micro,
    /// `(item, version, value)` in read order.
    rs: Vec<(u64, u64, u64)>,
    /// Fast membership for log-based revalidation.
    rs_set: std::collections::HashSet<u64>,
    /// `(item, value)`; the lock is held for every entry.
    ws: Vec<(u64, u64)>,
    held: Vec<Held>,
    /// Log cursor of the last successful revalidation.
    log_cursor: usize,
    /// Abort count — the contention-manager strength.
    strength: u64,
    /// Rounds this lane still sits out before retrying (contention-manager
    /// backoff; see `finish_abort`).
    backoff: u32,
    /// Aborted attempts of the current transaction (0 on a fresh one);
    /// checked against the retry budget before re-arming a retry.
    attempts: u32,
    /// Earliest cycle at which a retry may start (recovery-policy backoff
    /// with seeded jitter; 0 when the policy is inert).
    retry_at: u64,
    /// Transactions fetched so far (jitter sequence number).
    tx_seq: u64,
    attempt_start: u64,
    commit: LaneCommit,
    cts: u64,
    stats: CommitStats,
    records: Vec<TxRecord>,
    retry_pending: bool,
    /// Why the in-flight abort was started (consumed at `finish_abort`).
    pending_reason: AbortReason,
}

impl<S: TxSource> Lane<S> {
    fn is_rot(&self) -> bool {
        self.logic
            .as_ref()
            .map(|l| l.is_read_only())
            .unwrap_or(false)
    }

    /// The word this lane installs when locking at `version`.
    fn my_lock_word(&self, version: u64) -> u64 {
        lock::locked(version, self.thread_id, self.strength)
    }

    /// Re-check one lock word against the read-set baseline.
    fn recheck(&self, item: u64, current: u64) -> bool {
        let Some(&(_, version, _)) = self.rs.iter().find(|&&(i, _, _)| i == item) else {
            return true;
        };
        if lock::version_of(current) != version {
            return false;
        }
        !lock::is_locked(current) || lock::owner_of(current) == self.thread_id
    }
}

/// Warp-level phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WPhase {
    Begin,
    Bodies,
    /// Seal write locks, one per step (CAS each).
    CommitSeal {
        widx: usize,
    },
    /// Final read-set validation + timestamping.
    CommitValidate,
    /// Write back values, one write-set index per step.
    CommitWrite {
        widx: usize,
    },
    /// Release with version bump.
    CommitUnlock {
        widx: usize,
    },
    /// Release locks of aborting lanes.
    ReleaseAborts {
        idx: usize,
    },
    /// Bookkeeping, then next round.
    Settle,
    Finished,
}

/// One PR-STM client warp.
pub struct PrstmClient<S: TxSource> {
    lanes: Vec<Lane<S>>,
    table: LockTable,
    area: PlainSetArea,
    log: LockLog,
    record_history: bool,
    phase: WPhase,
    warp_index: u64,
    /// Failure-recovery policy: per-transaction retry budget and seeded
    /// backoff on top of the contention manager's round-based delay.
    retry: RetryPolicy,
    /// Warp-level observability (public for result harvesting).
    pub metrics: MetricsReport,
}

impl<S: TxSource> PrstmClient<S> {
    /// Build a client warp. `warp_index` must be unique per warp (it breaks
    /// commit-timestamp ties).
    pub fn new(
        sources: Vec<S>,
        thread_base: usize,
        table: LockTable,
        area: PlainSetArea,
        log: LockLog,
        record_history: bool,
        warp_index: u64,
    ) -> Self {
        assert!(sources.len() <= WARP_LANES);
        let lanes = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| Lane {
                source,
                thread_id: thread_base + i,
                logic: None,
                micro: Micro::Idle,
                rs: Vec::new(),
                rs_set: std::collections::HashSet::new(),
                ws: Vec::new(),
                held: Vec::new(),
                log_cursor: 0,
                strength: 0,
                backoff: 0,
                attempts: 0,
                retry_at: 0,
                tx_seq: 0,
                attempt_start: 0,
                commit: LaneCommit::None,
                cts: 0,
                stats: CommitStats::default(),
                records: Vec::new(),
                retry_pending: false,
                pending_reason: AbortReason::ReadValidation,
            })
            .collect();
        Self {
            lanes,
            table,
            area,
            log,
            record_history,
            phase: WPhase::Begin,
            warp_index,
            retry: RetryPolicy::default(),
            metrics: MetricsReport::default(),
        }
    }

    /// Arm the failure-recovery policy (retry budget + seeded backoff).
    pub fn set_recovery(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The warp's counters, report and committed-transaction records, for
    /// the launcher ([`stm_core::launch::finish`]).
    pub fn harvest(&mut self) -> ClientHarvest {
        let mut stats = CommitStats::default();
        let mut records = Vec::new();
        for l in self.lanes.iter_mut() {
            stats.merge(&l.stats);
            records.append(&mut l.records);
        }
        (stats, std::mem::take(&mut self.metrics), records)
    }

    fn mask_of(&self, f: impl Fn(&Micro) -> bool) -> Mask {
        let mut m = 0;
        for (i, l) in self.lanes.iter().enumerate() {
            if f(&l.micro) {
                m |= 1 << i;
            }
        }
        m
    }

    /// A unique, time-ordered commit stamp for `lane` at `now`.
    fn stamp(&self, now: u64, lane: usize) -> u64 {
        (now << 11) | (self.warp_index << 5) | lane as u64
    }

    /// Log-accelerated revalidation of `lane`'s read-set; charges the cost
    /// of re-reading every read-set lock word. Returns true if still valid.
    fn revalidate(&mut self, w: &mut WarpCtx, lane: usize, active: Mask) -> bool {
        let l = &self.lanes[lane];
        let mut ok = true;
        let mut to_check: Vec<u64> = Vec::new();
        self.log.scan_since(l.log_cursor, |item| {
            if l.rs_set.contains(&item) && !to_check.contains(&item) {
                to_check.push(item);
            }
        });
        for item in to_check {
            let current = w.global_peek(self.table.lock_addr(item));
            if !self.lanes[lane].recheck(item, current) {
                ok = false;
            }
        }
        let l = &mut self.lanes[lane];
        l.log_cursor = self.log.len();
        let _ = active;
        ok
    }

    /// Transition a lane into the abort/release path, noting why.
    fn start_abort(&mut self, lane: usize, reason: AbortReason) {
        let l = &mut self.lanes[lane];
        l.pending_reason = reason;
        l.micro = if l.held.is_empty() {
            Micro::Aborted
        } else {
            Micro::Releasing { idx: 0 }
        };
    }

    /// One execution step of the bodies. Returns true when every lane is
    /// BodyDone / Aborted / Idle.
    fn step_bodies(&mut self, w: &mut WarpCtx) -> bool {
        w.set_phase(Phase::Execution.id());

        // -- pure logic ------------------------------------------------------
        let mut alu_ops = 0u64;
        let mut alu_mask: Mask = 0;
        for i in 0..self.lanes.len() {
            let mut iters = 0;
            while let Micro::NeedNext(last) = self.lanes[i].micro.clone() {
                if iters >= 8 {
                    break;
                }
                iters += 1;
                alu_ops += 1;
                alu_mask |= 1 << i;
                let l = &mut self.lanes[i];
                let logic = l.logic.as_mut().expect("NeedNext without logic");
                match logic.next(last) {
                    TxOp::Read { item } => {
                        if let Some(&(_, v)) = l.ws.iter().find(|&&(it, _)| it == item) {
                            l.micro = Micro::NeedNext(Some(v));
                        } else {
                            l.micro = Micro::ReadLock { item };
                        }
                    }
                    TxOp::Write { item, value } => {
                        assert!(!logic.is_read_only(), "ROT attempted a write");
                        if let Some(idx) = l.ws.iter().position(|&(it, _)| it == item) {
                            l.ws[idx] = (item, value);
                            l.micro = Micro::AppendWs {
                                ws_idx: idx,
                                item,
                                value,
                            };
                        } else {
                            l.micro = Micro::WLock { item, value };
                        }
                    }
                    TxOp::Finish => l.micro = Micro::BodyDone,
                }
            }
        }
        if alu_ops > 0 {
            w.alu(alu_mask, alu_ops);
        }

        // -- one memory-class step, by priority ------------------------------
        let m = self.mask_of(|mi| matches!(mi, Micro::ReadLock { .. }));
        if m != 0 {
            let table = self.table.clone();
            let lanes = &self.lanes;
            // Acquire: an unlocked lock word releases the committed value.
            let words = w.global_read_ord(
                m,
                |l| match &lanes[l].micro {
                    Micro::ReadLock { item } => table.lock_addr(*item),
                    _ => unreachable!(),
                },
                MemOrder::Acquire,
            );
            for (i, &word) in words.iter().enumerate().take(self.lanes.len()) {
                if m & (1 << i) == 0 {
                    continue;
                }
                let Micro::ReadLock { item } = self.lanes[i].micro else {
                    unreachable!()
                };
                if !lock::is_locked(word) {
                    self.lanes[i].micro = Micro::ReadValue {
                        item,
                        version: lock::version_of(word),
                    };
                } else if word & SEAL_BIT != 0 {
                    // The owner is inside its (wait-free) commit: spinning is
                    // safe and short.
                    self.lanes[i].micro = Micro::ReadLock { item };
                } else {
                    // Locked pre-commit. Readers never spin on unsealed
                    // locks — under SIMT lockstep a same/cross-warp wait
                    // cycle would deadlock the warps — they abort and rely
                    // on strength aging for progress.
                    self.start_abort(i, AbortReason::WriteWrite);
                }
            }
            return false;
        }

        let m = self.mask_of(|mi| matches!(mi, Micro::ReadValue { .. }));
        if m != 0 {
            let table = self.table.clone();
            let lanes = &self.lanes;
            // Acquire: a concurrent committer may overwrite the value; the
            // version re-check at (re)validation makes that race benign.
            let vals = w.global_read_ord(
                m,
                |l| match &lanes[l].micro {
                    Micro::ReadValue { item, .. } => table.value_addr(*item),
                    _ => unreachable!(),
                },
                MemOrder::Acquire,
            );
            for (i, &value) in vals.iter().enumerate().take(self.lanes.len()) {
                if m & (1 << i) == 0 {
                    continue;
                }
                let Micro::ReadValue { item, version } = self.lanes[i].micro else {
                    unreachable!()
                };
                self.lanes[i].micro = Micro::AppendRs {
                    item,
                    version,
                    value,
                };
            }
            return false;
        }

        let m = self.mask_of(|mi| matches!(mi, Micro::AppendRs { .. }));
        if m != 0 {
            for i in 0..self.lanes.len() {
                if m & (1 << i) != 0 {
                    assert!(
                        self.lanes[i].rs.len() < self.area.max_rs(),
                        "PR-STM read-set overflow on lane {i}: size max_rs for the workload"
                    );
                }
            }
            let area = self.area.clone();
            let lanes = &self.lanes;
            w.global_write(
                m,
                |l| area.rs_addr(l, lanes[l].rs.len()),
                |l| match &lanes[l].micro {
                    Micro::AppendRs { item, version, .. } => (*version << 32) | *item,
                    _ => unreachable!(),
                },
            );
            for i in 0..self.lanes.len() {
                if m & (1 << i) == 0 {
                    continue;
                }
                let Micro::AppendRs {
                    item,
                    version,
                    value,
                } = self.lanes[i].micro
                else {
                    unreachable!()
                };
                assert!(
                    self.lanes[i].rs.len() < self.area.max_rs(),
                    "PR-STM read-set overflow on lane {i}"
                );
                self.lanes[i].rs.push((item, version, value));
                self.lanes[i].rs_set.insert(item);
                self.lanes[i].micro = Micro::Reval { value };
            }
            return false;
        }

        let m = self.mask_of(|mi| matches!(mi, Micro::Reval { .. }));
        if m != 0 {
            // Incremental validation: the real protocol re-reads every
            // read-set lock word (scattered: each lane its own region).
            let accesses = (0..self.lanes.len())
                .filter(|&i| m & (1 << i) != 0)
                .map(|i| self.lanes[i].rs.len() as u64)
                .max()
                .unwrap_or(0);
            w.charge_global_accesses(m, accesses.max(1), lane_count(m) as u64);
            for i in 0..self.lanes.len() {
                if m & (1 << i) == 0 {
                    continue;
                }
                let Micro::Reval { value } = self.lanes[i].micro else {
                    unreachable!()
                };
                if self.revalidate(w, i, m) {
                    self.lanes[i].micro = Micro::NeedNext(Some(value));
                } else {
                    self.start_abort(i, AbortReason::ReadValidation);
                }
            }
            return false;
        }

        let m = self.mask_of(|mi| matches!(mi, Micro::WLock { .. }));
        if m != 0 {
            let table = self.table.clone();
            let lanes = &self.lanes;
            // Acquire: examines lock words other warps CAS/release.
            let words = w.global_read_ord(
                m,
                |l| match &lanes[l].micro {
                    Micro::WLock { item, .. } => table.lock_addr(*item),
                    _ => unreachable!(),
                },
                MemOrder::Acquire,
            );
            for (i, &word) in words.iter().enumerate().take(self.lanes.len()) {
                if m & (1 << i) == 0 {
                    continue;
                }
                let Micro::WLock { item, value } = self.lanes[i].micro else {
                    unreachable!()
                };
                let me = self.lanes[i].thread_id;
                if !lock::is_locked(word)
                    || (lock::owner_of(word) != me
                        && word & SEAL_BIT == 0
                        && lock::beats(self.lanes[i].strength, me, word))
                {
                    // Free, or held by someone weaker and unsealed: try to
                    // take it (stealing preserves the version field).
                    self.lanes[i].micro = Micro::WLockCas {
                        item,
                        value,
                        expect: word,
                    };
                } else if lock::owner_of(word) == me {
                    unreachable!("write to an item already in ws is upserted locally");
                } else if word & SEAL_BIT != 0 {
                    // Sealed: the owner is committing; wait it out.
                    self.lanes[i].micro = Micro::WLock { item, value };
                } else {
                    self.start_abort(i, AbortReason::WriteWrite);
                }
            }
            return false;
        }

        let m = self.mask_of(|mi| matches!(mi, Micro::WLockCas { .. }));
        if m != 0 {
            for i in 0..self.lanes.len() {
                if m & (1 << i) == 0 {
                    continue;
                }
                let Micro::WLockCas {
                    item,
                    value,
                    expect,
                } = self.lanes[i].micro
                else {
                    unreachable!()
                };
                let version = lock::version_of(expect);
                let new_word = self.lanes[i].my_lock_word(version);
                let old = w.global_cas1(i, self.table.lock_addr(item), expect, new_word);
                if old == expect {
                    self.log.push(item);
                    let l = &mut self.lanes[i];
                    l.held.push(Held {
                        item,
                        version,
                        word: new_word,
                    });
                    let idx = l.ws.len();
                    l.ws.push((item, value));
                    l.micro = Micro::AppendWs {
                        ws_idx: idx,
                        item,
                        value,
                    };
                } else {
                    self.lanes[i].micro = Micro::WLock { item, value };
                }
            }
            return false;
        }

        let m = self.mask_of(|mi| matches!(mi, Micro::AppendWs { .. }));
        if m != 0 {
            let area = self.area.clone();
            let lanes = &self.lanes;
            w.global_write(
                m,
                |l| match &lanes[l].micro {
                    Micro::AppendWs { ws_idx, .. } => area.ws_addr(l, *ws_idx),
                    _ => unreachable!(),
                },
                |l| match &lanes[l].micro {
                    Micro::AppendWs { item, value, .. } => pack_ws_entry(*item, *value),
                    _ => unreachable!(),
                },
            );
            for i in 0..self.lanes.len() {
                if m & (1 << i) != 0 {
                    assert!(
                        self.lanes[i].ws.len() <= self.area.max_ws(),
                        "PR-STM write-set overflow on lane {i}"
                    );
                    self.lanes[i].micro = Micro::NeedNext(None);
                }
            }
            return false;
        }

        let m = self.mask_of(|mi| matches!(mi, Micro::Releasing { .. }));
        if m != 0 {
            for i in 0..self.lanes.len() {
                if m & (1 << i) == 0 {
                    continue;
                }
                let Micro::Releasing { idx } = self.lanes[i].micro else {
                    unreachable!()
                };
                let h = self.lanes[i].held[idx];
                // Release only if still ours (a thief may have taken it).
                let old = w.global_cas1(
                    i,
                    self.table.lock_addr(h.item),
                    h.word,
                    lock::unlocked(h.version),
                );
                if old == h.word {
                    self.log.push(h.item);
                }
                self.lanes[i].micro = if idx + 1 < self.lanes[i].held.len() {
                    Micro::Releasing { idx: idx + 1 }
                } else {
                    Micro::Aborted
                };
            }
            return false;
        }

        self.lanes
            .iter()
            .all(|l| matches!(l.micro, Micro::Idle | Micro::BodyDone | Micro::Aborted))
    }

    /// Round begin: fetch transactions, reset attempt state. Aborted lanes
    /// sit out `backoff` rounds before retrying — the asymmetric restart
    /// delay that breaks deterministic mutual-abort cycles between lockstep
    /// lanes (without it, two lanes that each lock an item and then read
    /// the other's can abort each other identically forever).
    fn begin_round(&mut self, w: &mut WarpCtx) -> bool {
        w.set_phase(Phase::Execution.id());
        let now = w.now();
        // Enforce the per-transaction retry budget: a lane whose transaction
        // already burned its budget is failed terminally instead of retried.
        for i in 0..self.lanes.len() {
            let give_up = {
                let l = &self.lanes[i];
                l.retry_pending && self.retry.budget_exhausted(l.attempts)
            };
            if give_up {
                self.fail_lane(i, now, AbortReason::RetryBudgetExhausted);
            }
        }
        // If every pending lane is backing off, force the round-based delays
        // through — an all-idle round must not be possible. (Cycle-based
        // `retry_at` delays need no forcing: idle rounds still charge ALU
        // cycles below, so the clock always reaches them.)
        let someone_ready = self.lanes.iter().any(|l| {
            (l.logic.is_none() && !l.retry_pending)
                || (l.retry_pending && l.backoff == 0 && now >= l.retry_at)
        });
        if !someone_ready {
            for l in self.lanes.iter_mut() {
                l.backoff = 0;
            }
        }
        let mut any = false;
        for l in self.lanes.iter_mut() {
            if l.logic.is_none() && !l.retry_pending {
                l.logic = l.source.next_tx();
                if l.logic.is_some() {
                    l.tx_seq += 1;
                    l.attempts = 0;
                }
            }
            if l.retry_pending {
                if l.backoff > 0 || now < l.retry_at {
                    // Sit this round out.
                    l.backoff = l.backoff.saturating_sub(1);
                    l.micro = Micro::Idle;
                    continue;
                }
                l.retry_pending = false;
                if let Some(t) = l.logic.as_mut() {
                    t.reset();
                }
            }
            if l.logic.is_some() {
                any = true;
                l.rs.clear();
                l.rs_set.clear();
                l.ws.clear();
                l.held.clear();
                l.log_cursor = 0;
                l.cts = 0;
                l.commit = LaneCommit::None;
                l.attempt_start = now;
                l.micro = Micro::NeedNext(None);
            } else {
                l.micro = Micro::Idle;
            }
        }
        let pending_backoff = self.lanes.iter().any(|l| l.retry_pending);
        if any || pending_backoff {
            w.alu(full_mask(), 2);
        }
        any || pending_backoff
    }

    /// Abort bookkeeping for a lane (strength aging + retry arming).
    fn finish_abort(&mut self, lane: usize, now: u64, reason: AbortReason) {
        let l = &mut self.lanes[lane];
        let wasted = now.saturating_sub(l.attempt_start);
        l.stats.wasted_cycles += wasted;
        if l.is_rot() {
            l.stats.rot_aborts += 1;
        } else {
            l.stats.update_aborts += 1;
        }
        self.metrics.record_abort(reason, wasted);
        let retry = self.retry.clone();
        let l = &mut self.lanes[lane];
        l.strength += 1;
        l.attempts += 1;
        // Asymmetric restart delay: distinct thread ids give distinct
        // delays, so symmetric conflict patterns cannot replay identically.
        l.backoff = (l.thread_id as u32) % ((l.strength as u32).min(4) + 2);
        // Recovery-policy backoff (bounded exponential + seeded jitter) on
        // top: the lane may not restart before `retry_at`.
        l.retry_at = now + retry.backoff_cycles(l.thread_id as u64, l.tx_seq, l.attempts);
        l.retry_pending = true;
        l.micro = Micro::Idle;
        l.commit = LaneCommit::None;
    }

    /// Terminally fail a lane's transaction (retry budget exhausted): the
    /// abort is recorded under the terminal `reason` and the transaction is
    /// dropped instead of re-armed.
    fn fail_lane(&mut self, lane: usize, now: u64, reason: AbortReason) {
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
        l.strength = 0;
        l.attempts = 0;
        l.backoff = 0;
        l.retry_at = 0;
        l.logic = None;
        l.retry_pending = false;
        l.micro = Micro::Idle;
        l.commit = LaneCommit::None;
        self.metrics.record_abort(reason, wasted);
    }

    /// Commit bookkeeping.
    fn finish_commit(&mut self, lane: usize, now: u64, cts: Option<u64>, read_point: u64) {
        let record = self.record_history;
        let l = &mut self.lanes[lane];
        let useful = now.saturating_sub(l.attempt_start);
        l.stats.useful_cycles += useful;
        self.metrics.record_commit(useful);
        let l = &mut self.lanes[lane];
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
                reads: l.rs.iter().map(|&(i, _, v)| (i, v)).collect(),
                writes: l.ws.clone(),
            });
        }
        l.strength = 0;
        l.attempts = 0;
        l.retry_at = 0;
        l.logic = None;
        l.retry_pending = false;
        l.micro = Micro::Idle;
        l.commit = LaneCommit::None;
    }
}

impl<S: TxSource + 'static> WarpProgram for PrstmClient<S> {
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
        match self.phase {
            WPhase::Begin => {
                if self.begin_round(w) {
                    self.phase = WPhase::Bodies;
                    StepOutcome::Running
                } else {
                    self.phase = WPhase::Finished;
                    StepOutcome::Done
                }
            }
            WPhase::Bodies => {
                if self.step_bodies(w) {
                    for l in self.lanes.iter_mut() {
                        l.commit = if matches!(l.micro, Micro::BodyDone) && !l.is_rot() {
                            LaneCommit::Sealing
                        } else {
                            LaneCommit::None
                        };
                    }
                    self.phase = WPhase::CommitSeal { widx: 0 };
                }
                StepOutcome::Running
            }
            WPhase::CommitSeal { widx } => {
                w.set_phase(Phase::Validation.id());
                let mut any = false;
                for i in 0..self.lanes.len() {
                    if self.lanes[i].commit != LaneCommit::Sealing
                        || widx >= self.lanes[i].held.len()
                    {
                        continue;
                    }
                    any = true;
                    let h = self.lanes[i].held[widx];
                    let sealed = h.word | SEAL_BIT;
                    let old = w.global_cas1(i, self.table.lock_addr(h.item), h.word, sealed);
                    if old == h.word {
                        self.lanes[i].held[widx].word = sealed;
                    } else {
                        // Stolen before we could seal: abort.
                        self.lanes[i].commit = LaneCommit::None;
                        self.start_abort(i, AbortReason::WriteWrite);
                    }
                }
                if any {
                    self.phase = WPhase::CommitSeal { widx: widx + 1 };
                } else {
                    self.phase = WPhase::CommitValidate;
                }
                StepOutcome::Running
            }
            WPhase::CommitValidate => {
                w.set_phase(Phase::Validation.id());
                // Commit stamps must reflect the instant the lock words are
                // *observed* — the step-start clock. The validation charge
                // below advances the clock past other warps' in-flight
                // commits, and stamping after it would claim reads are valid
                // at a time when they no longer were.
                let now = w.now();
                // Final full read-set validation for updates AND ROTs.
                let mut m: Mask = 0;
                for (i, l) in self.lanes.iter().enumerate() {
                    let participating = l.commit == LaneCommit::Sealing
                        || (matches!(l.micro, Micro::BodyDone) && l.is_rot());
                    if participating {
                        m |= 1 << i;
                    }
                }
                if m != 0 {
                    let accesses = (0..self.lanes.len())
                        .filter(|&i| m & (1 << i) != 0)
                        .map(|i| self.lanes[i].rs.len() as u64)
                        .max()
                        .unwrap_or(0);
                    w.charge_global_accesses(m, accesses.max(1), lane_count(m) as u64);
                }
                for i in 0..self.lanes.len() {
                    if m & (1 << i) == 0 {
                        continue;
                    }
                    let ok = self.revalidate(w, i, m);
                    let stamp = self.stamp(now, i);
                    if self.lanes[i].is_rot() {
                        if ok {
                            self.finish_commit(i, now, None, stamp);
                        } else {
                            self.finish_abort(i, now, AbortReason::ReadValidation);
                        }
                    } else if ok {
                        self.lanes[i].cts = stamp;
                        self.lanes[i].commit = LaneCommit::Writing;
                    } else {
                        self.lanes[i].commit = LaneCommit::None;
                        self.start_abort(i, AbortReason::ReadValidation);
                    }
                }
                self.phase = WPhase::CommitWrite { widx: 0 };
                StepOutcome::Running
            }
            WPhase::CommitWrite { widx } => {
                w.set_phase(Phase::WriteBack.id());
                let mut m: Mask = 0;
                for (i, l) in self.lanes.iter().enumerate() {
                    if l.commit == LaneCommit::Writing && widx < l.ws.len() {
                        m |= 1 << i;
                    }
                }
                if m == 0 {
                    self.phase = WPhase::CommitUnlock { widx: 0 };
                    return StepOutcome::Running;
                }
                let table = self.table.clone();
                let lanes = &self.lanes;
                // Release: values are published to readers by the unlock
                // below; invisible readers may still race this (benign —
                // their version re-check rejects the torn read).
                w.global_write_ord(
                    m,
                    |l| table.value_addr(lanes[l].ws[widx].0),
                    |l| lanes[l].ws[widx].1,
                    MemOrder::Release,
                );
                self.phase = WPhase::CommitWrite { widx: widx + 1 };
                StepOutcome::Running
            }
            WPhase::CommitUnlock { widx } => {
                w.set_phase(Phase::WriteBack.id());
                let mut m: Mask = 0;
                for (i, l) in self.lanes.iter().enumerate() {
                    let st = if l.commit == LaneCommit::Writing {
                        LaneCommit::Unlocking
                    } else {
                        l.commit
                    };
                    if st == LaneCommit::Unlocking && widx < l.held.len() {
                        m |= 1 << i;
                    }
                }
                for l in self.lanes.iter_mut() {
                    if l.commit == LaneCommit::Writing {
                        l.commit = LaneCommit::Unlocking;
                    }
                }
                if m == 0 {
                    for l in self.lanes.iter_mut() {
                        if l.commit == LaneCommit::Unlocking {
                            l.commit = LaneCommit::Committed;
                        }
                    }
                    self.phase = WPhase::ReleaseAborts { idx: 0 };
                    return StepOutcome::Running;
                }
                let table = self.table.clone();
                let lanes = &self.lanes;
                // Release: the version-bumping unlock publishes the values
                // written above.
                w.global_write_ord(
                    m,
                    |l| table.lock_addr(lanes[l].held[widx].item),
                    |l| lock::unlocked(lanes[l].held[widx].version + 1),
                    MemOrder::Release,
                );
                for (i, l) in self.lanes.iter().enumerate() {
                    if m & (1 << i) != 0 {
                        self.log.push(l.held[widx].item);
                    }
                }
                self.phase = WPhase::CommitUnlock { widx: widx + 1 };
                StepOutcome::Running
            }
            WPhase::ReleaseAborts { idx } => {
                // Lanes that fell into the release path during commit.
                w.set_phase(Phase::Execution.id());
                let m = self.mask_of(|mi| matches!(mi, Micro::Releasing { .. }));
                if m == 0 {
                    self.phase = WPhase::Settle;
                    w.alu(full_mask(), 1);
                    return StepOutcome::Running;
                }
                let _ = idx;
                self.step_bodies(w); // drives the Releasing micro-steps
                self.phase = WPhase::ReleaseAborts { idx: idx + 1 };
                StepOutcome::Running
            }
            WPhase::Settle => {
                w.set_phase(Phase::Execution.id());
                let now = w.now();
                for i in 0..self.lanes.len() {
                    match self.lanes[i].commit {
                        LaneCommit::Committed => {
                            let cts = self.lanes[i].cts;
                            self.finish_commit(i, now, Some(cts), cts - 1);
                        }
                        _ => {
                            if matches!(self.lanes[i].micro, Micro::Aborted) {
                                let reason = self.lanes[i].pending_reason;
                                self.finish_abort(i, now, reason);
                            }
                        }
                    }
                }
                w.alu(full_mask(), 2);
                self.phase = WPhase::Begin;
                StepOutcome::Running
            }
            WPhase::Finished => StepOutcome::Done,
        }
    }
}

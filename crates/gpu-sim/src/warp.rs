//! The warp execution context: every operation a kernel can perform, with
//! cycle charging, divergence accounting and atomic-contention modelling.

use std::collections::HashMap;

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::invariant::{AccessKind, MemEvent, Space};
use crate::mem::{bank_conflict_groups, coalesced_segments, GlobalMemory, SharedMemory, Word};
use crate::race::{AnalysisState, MemOrder};
use crate::stats::{PhaseId, WarpStats};
use crate::WARP_LANES;

/// An active-lane mask; bit `l` set means lane `l` participates in the
/// operation. Operations executed with fewer active lanes than the warp's
/// participating width accumulate divergence time.
pub type Mask = u32;

/// All 32 lanes active.
#[inline]
pub const fn full_mask() -> Mask {
    u32::MAX
}

/// A mask with exactly one lane active.
#[inline]
pub const fn single_lane(lane: usize) -> Mask {
    1 << lane
}

/// Number of active lanes in a mask.
#[inline]
pub const fn lane_count(mask: Mask) -> u32 {
    mask.count_ones()
}

/// True if `lane` is active in `mask`.
#[inline]
pub const fn lane_active(mask: Mask, lane: usize) -> bool {
    mask & (1 << lane) != 0
}

/// Per-step view of the device handed to [`crate::WarpProgram::step`].
///
/// Every method charges simulated cycles to the warp's clock and to the
/// current phase; memory effects are applied immediately (the scheduler
/// guarantees this warp holds the minimum clock, so effects are ordered by
/// simulated time).
pub struct WarpCtx<'a> {
    pub(crate) warp_id: usize,
    pub(crate) sm_id: usize,
    pub(crate) clock: u64,
    pub(crate) phase: PhaseId,
    pub(crate) participating: u32,
    pub(crate) stats: &'a mut WarpStats,
    pub(crate) global: &'a mut GlobalMemory,
    pub(crate) shared: &'a mut SharedMemory,
    pub(crate) cost: &'a CostModel,
    /// Per-address "next free time" of global atomics (contention timing).
    pub(crate) atomic_global: &'a mut HashMap<u64, u64>,
    pub(crate) atomic_shared: &'a mut HashMap<u64, u64>,
    pub(crate) analysis: Option<&'a mut AnalysisState>,
    /// Completion time of the warp's last non-polling instruction; the
    /// scheduler's stall watchdog reads it back after every step.
    pub(crate) nonpoll_clock: u64,
    /// `nonpoll_clock` as of step entry. A step that ends in
    /// [`WarpCtx::poll_wait`] rewinds to this value, so the flag-check
    /// reads of a poll loop do not count as watchdog progress.
    pub(crate) entry_nonpoll: u64,
    /// Installed fault plan, if any (kernels consult it for message faults
    /// and seeded backoff jitter).
    pub(crate) fault: Option<&'a FaultPlan>,
}

impl<'a> WarpCtx<'a> {
    /// This warp's device-wide id.
    pub fn warp_id(&self) -> usize {
        self.warp_id
    }

    /// The SM this warp is resident on.
    pub fn sm_id(&self) -> usize {
        self.sm_id
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Set the phase to which subsequently charged cycles are attributed.
    pub fn set_phase(&mut self, phase: PhaseId) {
        self.phase = phase;
    }

    /// Currently attributed phase.
    pub fn phase(&self) -> PhaseId {
        self.phase
    }

    /// Declare how many lanes this kernel logically runs (default 32). Warps
    /// that deliberately run narrow (e.g. a single receiver lane) can lower
    /// this so that narrow execution is not billed as divergence.
    pub fn set_participating(&mut self, lanes: u32) {
        assert!(lanes >= 1 && lanes <= WARP_LANES as u32);
        self.participating = lanes;
    }

    /// Charge `cycles` executed with `active` lanes; updates the clock, phase
    /// accounting and the divergence counter.
    fn charge(&mut self, cycles: u64, active: u32) {
        self.clock += cycles;
        self.nonpoll_clock = self.clock;
        self.stats.total_cycles += cycles;
        self.stats.cycles_by_phase[self.phase as usize] += cycles;
        self.stats.instructions += 1;
        let p = self.participating.max(1) as u64;
        let a = (active.min(self.participating)) as u64;
        let d = cycles * (p - a) / p;
        self.stats.divergence_cycles += d;
        self.stats.divergence_by_phase[self.phase as usize] += d;
    }

    /// Charge `n` simple arithmetic instructions executed by `mask`.
    pub fn alu(&mut self, mask: Mask, n: u64) {
        self.charge(self.cost.alu * n.max(1), lane_count(mask));
    }

    /// Busy-wait one polling interval (flag not yet set). Polling does not
    /// count as progress for the stall watchdog ([`crate::Device::set_watchdog`]).
    pub fn poll_wait(&mut self) {
        self.stats.poll_stall_cycles += self.cost.poll_interval;
        self.charge(self.cost.poll_interval, self.participating);
        // The whole step was a poll iteration: the reads that checked the
        // flag are not progress either.
        self.nonpoll_clock = self.entry_nonpoll;
    }

    /// The installed [`FaultPlan`], if the harness configured fault
    /// injection on this device. Kernels consult it at message send/respond
    /// points and for seeded retry jitter.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault
    }

    // ------------------------------------------------------------------
    // Analysis instrumentation and checked access
    // ------------------------------------------------------------------

    /// Report one access to the analysis layer (no-op when disabled).
    fn note(&mut self, space: Space, addr: u64, kind: AccessKind, value: Word, order: MemOrder) {
        if let Some(a) = self.analysis.as_deref_mut() {
            a.record(&MemEvent {
                warp: self.warp_id,
                sm: self.sm_id,
                clock: self.clock,
                space,
                addr,
                kind,
                value,
                order,
            });
        }
    }

    /// Die with full context on an access outside allocated memory.
    #[cold]
    fn oob(&self, what: &str, space: Space, addr: u64) -> ! {
        let allocated = match space {
            Space::Global => self.global.len(),
            Space::Shared => self.shared.capacity(),
        };
        panic!(
            "warp {} (sm {}) @ cycle {}: {what} of unallocated {space} address {addr} \
             ({allocated} words allocated)",
            self.warp_id, self.sm_id, self.clock
        );
    }

    /// Checked + instrumented global load — every device global read funnels
    /// through here.
    fn load_global(&mut self, addr: u64, order: MemOrder) -> Word {
        let Some(v) = self.global.get(addr) else {
            self.oob("read", Space::Global, addr);
        };
        self.note(Space::Global, addr, AccessKind::Read, v, order);
        v
    }

    /// Checked + instrumented global store.
    fn store_global(&mut self, addr: u64, value: Word, order: MemOrder) {
        if !self.global.set(addr, value) {
            self.oob("write", Space::Global, addr);
        }
        self.note(Space::Global, addr, AccessKind::Write, value, order);
    }

    /// Checked + instrumented shared load.
    fn load_shared(&mut self, addr: u64, order: MemOrder) -> Word {
        let Some(v) = self.shared.get(addr) else {
            self.oob("read", Space::Shared, addr);
        };
        self.note(Space::Shared, addr, AccessKind::Read, v, order);
        v
    }

    /// Checked + instrumented shared store.
    fn store_shared(&mut self, addr: u64, value: Word, order: MemOrder) {
        if !self.shared.set(addr, value) {
            self.oob("write", Space::Shared, addr);
        }
        self.note(Space::Shared, addr, AccessKind::Write, value, order);
    }

    // ------------------------------------------------------------------
    // Global (off-chip) memory
    // ------------------------------------------------------------------

    /// Warp-wide global read: each active lane reads `addr_of(lane)`.
    /// Cost follows the coalescing rule. Inactive lanes yield 0.
    pub fn global_read(
        &mut self,
        mask: Mask,
        addr_of: impl FnMut(usize) -> u64,
    ) -> [Word; WARP_LANES] {
        self.global_read_ord(mask, addr_of, MemOrder::Plain)
    }

    /// [`WarpCtx::global_read`] with an explicit memory-order annotation for
    /// the race detector.
    pub fn global_read_ord(
        &mut self,
        mask: Mask,
        mut addr_of: impl FnMut(usize) -> u64,
        order: MemOrder,
    ) -> [Word; WARP_LANES] {
        let mut out = [0; WARP_LANES];
        let mut addrs = [0u64; WARP_LANES];
        let mut n = 0;
        for (lane, slot) in out.iter_mut().enumerate() {
            if lane_active(mask, lane) {
                let a = addr_of(lane);
                addrs[n] = a;
                n += 1;
                *slot = self.load_global(a, order);
            }
        }
        self.charge_global_access(&addrs[..n], lane_count(mask));
        out
    }

    /// Warp-wide global write: each active lane writes `value_of(lane)` to
    /// `addr_of(lane)`. Lanes writing the same address apply in lane order
    /// (last lane wins), as on real hardware where the result is one of the
    /// written values.
    pub fn global_write(
        &mut self,
        mask: Mask,
        addr_of: impl FnMut(usize) -> u64,
        value_of: impl FnMut(usize) -> Word,
    ) {
        self.global_write_ord(mask, addr_of, value_of, MemOrder::Plain)
    }

    /// [`WarpCtx::global_write`] with an explicit memory-order annotation.
    pub fn global_write_ord(
        &mut self,
        mask: Mask,
        mut addr_of: impl FnMut(usize) -> u64,
        mut value_of: impl FnMut(usize) -> Word,
        order: MemOrder,
    ) {
        let mut addrs = [0u64; WARP_LANES];
        let mut n = 0;
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) {
                let a = addr_of(lane);
                addrs[n] = a;
                n += 1;
                self.store_global(a, value_of(lane), order);
            }
        }
        self.charge_global_access(&addrs[..n], lane_count(mask));
    }

    /// Single-lane global read (divergent).
    pub fn global_read1(&mut self, lane: usize, addr: u64) -> Word {
        self.global_read1_ord(lane, addr, MemOrder::Plain)
    }

    /// [`WarpCtx::global_read1`] with an explicit memory-order annotation.
    pub fn global_read1_ord(&mut self, lane: usize, addr: u64, order: MemOrder) -> Word {
        let v = self.load_global(addr, order);
        self.charge_global_access(&[addr], 1);
        let _ = lane;
        v
    }

    /// Single-lane global write (divergent).
    pub fn global_write1(&mut self, lane: usize, addr: u64, value: Word) {
        self.global_write1_ord(lane, addr, value, MemOrder::Plain)
    }

    /// [`WarpCtx::global_write1`] with an explicit memory-order annotation.
    pub fn global_write1_ord(&mut self, lane: usize, addr: u64, value: Word, order: MemOrder) {
        self.store_global(addr, value, order);
        self.charge_global_access(&[addr], 1);
        let _ = lane;
    }

    fn charge_global_access(&mut self, addrs: &[u64], active: u32) {
        let segs = coalesced_segments(addrs);
        let cycles = if segs == 0 {
            self.cost.alu
        } else {
            self.cost.lat_global + (segs - 1) * self.cost.seg_throughput
        };
        self.charge(cycles, active);
    }

    /// Bulk warp-wide global read: `count` back-to-back warp accesses issued
    /// as one simulator step. Lane `l`'s `i`-th address is `addr_of(l, i)`;
    /// the returned vector holds one 32-lane result array per access.
    ///
    /// Use for long straight-line loops (e.g. re-validating a read-set) where
    /// per-access interleaving fidelity is not needed: the cost is identical
    /// to issuing the accesses one step at a time, but all values are read at
    /// the current instant.
    pub fn global_read_bulk(
        &mut self,
        mask: Mask,
        count: usize,
        mut addr_of: impl FnMut(usize, usize) -> u64,
    ) -> Vec<[Word; WARP_LANES]> {
        let mut results = Vec::with_capacity(count);
        let mut cycles = 0u64;
        for i in 0..count {
            let mut out = [0; WARP_LANES];
            let mut addrs = [0u64; WARP_LANES];
            let mut n = 0;
            for (lane, slot) in out.iter_mut().enumerate() {
                if lane_active(mask, lane) {
                    let a = addr_of(lane, i);
                    addrs[n] = a;
                    n += 1;
                    *slot = self.load_global(a, MemOrder::Plain);
                }
            }
            let segs = coalesced_segments(&addrs[..n]);
            cycles += if segs == 0 {
                self.cost.alu
            } else {
                self.cost.lat_global + (segs - 1) * self.cost.seg_throughput
            };
            results.push(out);
        }
        self.charge(cycles.max(self.cost.alu), lane_count(mask));
        results
    }

    /// Bulk warp-wide global write counterpart of
    /// [`WarpCtx::global_read_bulk`]. Lane `l`'s `i`-th write is
    /// `(addr, value) = write_of(l, i)`; a `None` skips that lane for that
    /// access.
    pub fn global_write_bulk(
        &mut self,
        mask: Mask,
        count: usize,
        mut write_of: impl FnMut(usize, usize) -> Option<(u64, Word)>,
    ) {
        let mut cycles = 0u64;
        for i in 0..count {
            let mut addrs = [0u64; WARP_LANES];
            let mut n = 0;
            for lane in 0..WARP_LANES {
                if lane_active(mask, lane) {
                    if let Some((a, v)) = write_of(lane, i) {
                        addrs[n] = a;
                        n += 1;
                        self.store_global(a, v, MemOrder::Plain);
                    }
                }
            }
            let segs = coalesced_segments(&addrs[..n]);
            cycles += if segs == 0 {
                self.cost.alu
            } else {
                self.cost.lat_global + (segs - 1) * self.cost.seg_throughput
            };
        }
        self.charge(cycles.max(self.cost.alu), lane_count(mask));
    }

    // ------------------------------------------------------------------
    // Shared (on-chip scratchpad) memory — local to this warp's SM
    // ------------------------------------------------------------------

    /// Warp-wide shared-memory read with bank-conflict pricing.
    pub fn shared_read(
        &mut self,
        mask: Mask,
        addr_of: impl FnMut(usize) -> u64,
    ) -> [Word; WARP_LANES] {
        self.shared_read_ord(mask, addr_of, MemOrder::Plain)
    }

    /// [`WarpCtx::shared_read`] with an explicit memory-order annotation.
    pub fn shared_read_ord(
        &mut self,
        mask: Mask,
        mut addr_of: impl FnMut(usize) -> u64,
        order: MemOrder,
    ) -> [Word; WARP_LANES] {
        let mut out = [0; WARP_LANES];
        let mut addrs = [0u64; WARP_LANES];
        let mut n = 0;
        for (lane, slot) in out.iter_mut().enumerate() {
            if lane_active(mask, lane) {
                let a = addr_of(lane);
                addrs[n] = a;
                n += 1;
                *slot = self.load_shared(a, order);
            }
        }
        self.charge_shared_access(&addrs[..n], lane_count(mask));
        out
    }

    /// Warp-wide shared-memory write with bank-conflict pricing.
    pub fn shared_write(
        &mut self,
        mask: Mask,
        addr_of: impl FnMut(usize) -> u64,
        value_of: impl FnMut(usize) -> Word,
    ) {
        self.shared_write_ord(mask, addr_of, value_of, MemOrder::Plain)
    }

    /// [`WarpCtx::shared_write`] with an explicit memory-order annotation.
    pub fn shared_write_ord(
        &mut self,
        mask: Mask,
        mut addr_of: impl FnMut(usize) -> u64,
        mut value_of: impl FnMut(usize) -> Word,
        order: MemOrder,
    ) {
        let mut addrs = [0u64; WARP_LANES];
        let mut n = 0;
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) {
                let a = addr_of(lane);
                addrs[n] = a;
                n += 1;
                self.store_shared(a, value_of(lane), order);
            }
        }
        self.charge_shared_access(&addrs[..n], lane_count(mask));
    }

    /// Single-lane shared read (divergent).
    pub fn shared_read1(&mut self, lane: usize, addr: u64) -> Word {
        self.shared_read1_ord(lane, addr, MemOrder::Plain)
    }

    /// [`WarpCtx::shared_read1`] with an explicit memory-order annotation.
    pub fn shared_read1_ord(&mut self, lane: usize, addr: u64, order: MemOrder) -> Word {
        let v = self.load_shared(addr, order);
        self.charge_shared_access(&[addr], 1);
        let _ = lane;
        v
    }

    /// Single-lane shared write (divergent).
    pub fn shared_write1(&mut self, lane: usize, addr: u64, value: Word) {
        self.shared_write1_ord(lane, addr, value, MemOrder::Plain)
    }

    /// [`WarpCtx::shared_write1`] with an explicit memory-order annotation.
    pub fn shared_write1_ord(&mut self, lane: usize, addr: u64, value: Word, order: MemOrder) {
        self.store_shared(addr, value, order);
        self.charge_shared_access(&[addr], 1);
        let _ = lane;
    }

    fn charge_shared_access(&mut self, addrs: &[u64], active: u32) {
        let groups = bank_conflict_groups(addrs);
        let cycles = if groups == 0 {
            self.cost.alu
        } else {
            self.cost.lat_shared + (groups - 1) * self.cost.bank_conflict
        };
        self.charge(cycles, active);
    }

    /// Charge the cost of `accesses` warp-wide global accesses, each
    /// touching `segments_per_access` 128-byte segments, without performing
    /// them. For simulator-level optimizations (e.g. log-accelerated
    /// read-set revalidation) that reproduce the *effect* of a long
    /// straight-line access sequence exactly but cannot afford to enumerate
    /// every address; pair with [`WarpCtx::global_peek`].
    pub fn charge_global_accesses(&mut self, mask: Mask, accesses: u64, segments_per_access: u64) {
        let per = if segments_per_access == 0 {
            self.cost.alu
        } else {
            self.cost.lat_global + (segments_per_access - 1) * self.cost.seg_throughput
        };
        self.charge((accesses * per).max(self.cost.alu), lane_count(mask));
    }

    /// Uncosted raw read of global memory. ONLY for simulator-level
    /// optimizations that charge an equivalent cost via
    /// [`WarpCtx::charge_global_accesses`]; never use this to dodge the cost
    /// model. Peeks are invisible to the analysis layer (the accesses they
    /// stand in for are accounted by their `charge_global_accesses` pairing).
    pub fn global_peek(&self, addr: u64) -> Word {
        let Some(v) = self.global.get(addr) else {
            self.oob("peek", Space::Global, addr);
        };
        v
    }

    // ------------------------------------------------------------------
    // Atomics — serialized per address via a "next free time" reservation
    // ------------------------------------------------------------------

    fn atomic_timing(
        clock: u64,
        next_free: &mut u64,
        lat: u64,
        ser: u64,
    ) -> (u64 /* stall */, u64 /* completion delta */) {
        let start = clock.max(*next_free);
        let stall = start - clock;
        *next_free = start + ser;
        (stall, stall + lat)
    }

    /// Single-lane global compare-and-swap; returns the previous value (the
    /// CAS succeeded iff the return equals `expected`).
    pub fn global_cas1(&mut self, lane: usize, addr: u64, expected: Word, new: Word) -> Word {
        let entry = self.atomic_global.entry(addr).or_insert(0);
        let (stall, delta) = Self::atomic_timing(
            self.clock,
            entry,
            self.cost.lat_atomic_global,
            self.cost.ser_atomic_global,
        );
        self.stats.atomic_stall_cycles += stall;
        self.charge(delta, 1);
        let _ = lane;
        let Some(old) = self.global.get(addr) else {
            self.oob("atomic CAS", Space::Global, addr);
        };
        let success = old == expected;
        if success {
            let _ = self.global.set(addr, new);
        }
        self.note(
            Space::Global,
            addr,
            AccessKind::Cas {
                expected,
                new,
                success,
            },
            old,
            MemOrder::AcqRel,
        );
        old
    }

    /// Single-lane global fetch-and-add; returns the previous value.
    pub fn global_atomic_add(&mut self, lane: usize, addr: u64, delta_v: Word) -> Word {
        let entry = self.atomic_global.entry(addr).or_insert(0);
        let (stall, delta) = Self::atomic_timing(
            self.clock,
            entry,
            self.cost.lat_atomic_global,
            self.cost.ser_atomic_global,
        );
        self.stats.atomic_stall_cycles += stall;
        self.charge(delta, 1);
        let _ = lane;
        let Some(old) = self.global.get(addr) else {
            self.oob("atomic add", Space::Global, addr);
        };
        let _ = self.global.set(addr, old.wrapping_add(delta_v));
        self.note(
            Space::Global,
            addr,
            AccessKind::Add { operand: delta_v },
            old,
            MemOrder::AcqRel,
        );
        old
    }

    /// Single-lane shared-memory compare-and-swap; returns the previous value.
    pub fn shared_cas1(&mut self, lane: usize, addr: u64, expected: Word, new: Word) -> Word {
        let entry = self.atomic_shared.entry(addr).or_insert(0);
        let (stall, delta) = Self::atomic_timing(
            self.clock,
            entry,
            self.cost.lat_atomic_shared,
            self.cost.ser_atomic_shared,
        );
        self.stats.atomic_stall_cycles += stall;
        self.charge(delta, 1);
        let _ = lane;
        let Some(old) = self.shared.get(addr) else {
            self.oob("atomic CAS", Space::Shared, addr);
        };
        let success = old == expected;
        if success {
            let _ = self.shared.set(addr, new);
        }
        self.note(
            Space::Shared,
            addr,
            AccessKind::Cas {
                expected,
                new,
                success,
            },
            old,
            MemOrder::AcqRel,
        );
        old
    }

    /// Single-lane shared-memory fetch-and-add; returns the previous value.
    pub fn shared_atomic_add(&mut self, lane: usize, addr: u64, delta_v: Word) -> Word {
        let entry = self.atomic_shared.entry(addr).or_insert(0);
        let (stall, delta) = Self::atomic_timing(
            self.clock,
            entry,
            self.cost.lat_atomic_shared,
            self.cost.ser_atomic_shared,
        );
        self.stats.atomic_stall_cycles += stall;
        self.charge(delta, 1);
        let _ = lane;
        let Some(old) = self.shared.get(addr) else {
            self.oob("atomic add", Space::Shared, addr);
        };
        let _ = self.shared.set(addr, old.wrapping_add(delta_v));
        self.note(
            Space::Shared,
            addr,
            AccessKind::Add { operand: delta_v },
            old,
            MemOrder::AcqRel,
        );
        old
    }

    // ------------------------------------------------------------------
    // Warp intrinsics — register-to-register, nearly free
    // ------------------------------------------------------------------

    /// `__shfl_sync`: every active lane receives the register value of
    /// `src_of(lane)` from the input vector. Inactive lanes receive 0.
    pub fn shfl(
        &mut self,
        mask: Mask,
        values: &[Word; WARP_LANES],
        mut src_of: impl FnMut(usize) -> usize,
    ) -> [Word; WARP_LANES] {
        let mut out = [0; WARP_LANES];
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) {
                out[lane] = values[src_of(lane) % WARP_LANES];
            }
        }
        self.charge(self.cost.lat_shuffle, lane_count(mask));
        out
    }

    /// `__ballot_sync`: returns a bitmask of active lanes whose predicate is
    /// true.
    pub fn ballot(&mut self, mask: Mask, mut pred: impl FnMut(usize) -> bool) -> u32 {
        let mut out = 0u32;
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) && pred(lane) {
                out |= 1 << lane;
            }
        }
        self.charge(self.cost.lat_shuffle, lane_count(mask));
        out
    }

    /// `__shfl_up_sync`: lane `l` receives lane `l − delta`'s value (lanes
    /// below `delta` keep their own) — the building block of warp prefix
    /// scans.
    pub fn shfl_up(
        &mut self,
        mask: Mask,
        values: &[Word; WARP_LANES],
        delta: usize,
    ) -> [Word; WARP_LANES] {
        let mut out = [0; WARP_LANES];
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) {
                out[lane] = if lane >= delta {
                    values[lane - delta]
                } else {
                    values[lane]
                };
            }
        }
        self.charge(self.cost.lat_shuffle, lane_count(mask));
        out
    }

    /// `__shfl_down_sync`: lane `l` receives lane `l + delta`'s value (top
    /// lanes keep their own) — the building block of warp reductions.
    pub fn shfl_down(
        &mut self,
        mask: Mask,
        values: &[Word; WARP_LANES],
        delta: usize,
    ) -> [Word; WARP_LANES] {
        let mut out = [0; WARP_LANES];
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) {
                out[lane] = if lane + delta < WARP_LANES {
                    values[lane + delta]
                } else {
                    values[lane]
                };
            }
        }
        self.charge(self.cost.lat_shuffle, lane_count(mask));
        out
    }

    /// `__all_sync`: true iff the predicate holds on every active lane.
    pub fn vote_all(&mut self, mask: Mask, mut pred: impl FnMut(usize) -> bool) -> bool {
        let mut all = true;
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) && !pred(lane) {
                all = false;
            }
        }
        self.charge(self.cost.lat_shuffle, lane_count(mask));
        all
    }

    /// `__any_sync`: true iff the predicate holds on at least one active lane.
    pub fn vote_any(&mut self, mask: Mask, mut pred: impl FnMut(usize) -> bool) -> bool {
        let mut any = false;
        for lane in 0..WARP_LANES {
            if lane_active(mask, lane) && pred(lane) {
                any = true;
            }
        }
        self.charge(self.cost.lat_shuffle, lane_count(mask));
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::GpuConfig;
    use crate::sched::{Device, StepOutcome, WarpProgram};

    /// Drives a closure once through the scheduler so WarpCtx construction is
    /// exercised exactly as in production.
    struct Once<F: FnMut(&mut WarpCtx) + 'static>(Option<F>);
    impl<F: FnMut(&mut WarpCtx) + 'static> WarpProgram for Once<F> {
        fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
            if let Some(mut f) = self.0.take() {
                f(w);
                StepOutcome::Running
            } else {
                StepOutcome::Done
            }
        }
    }

    fn run_once(setup_words: usize, f: impl FnMut(&mut WarpCtx) + 'static) -> Device {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(setup_words);
        dev.alloc_shared(0, 64);
        dev.spawn(0, Box::new(Once(Some(f))));
        dev.run_to_completion();
        dev
    }

    #[test]
    fn coalesced_read_is_cheaper_than_scattered() {
        let dev1 = run_once(4096, |w| {
            w.global_read(full_mask(), |l| l as u64);
        });
        let dev2 = run_once(4096, |w| {
            w.global_read(full_mask(), |l| (l as u64) * 100);
        });
        assert!(dev1.elapsed_cycles() < dev2.elapsed_cycles());
    }

    #[test]
    fn shared_is_cheaper_than_global() {
        let dg = run_once(64, |w| {
            w.global_read(full_mask(), |l| l as u64);
        });
        let ds = run_once(64, |w| {
            w.shared_read(full_mask(), |l| l as u64);
        });
        assert!(ds.elapsed_cycles() < dg.elapsed_cycles());
    }

    #[test]
    fn partial_mask_accrues_divergence() {
        let dev = run_once(64, |w| {
            w.global_read(0x1, |l| l as u64); // one of 32 lanes
        });
        let st = dev.warp_stats(0);
        assert!(st.divergence_cycles > 0);
        // 31/32 of the access time should be divergence.
        assert_eq!(st.divergence_cycles, st.total_cycles * 31 / 32);
    }

    #[test]
    fn full_mask_has_no_divergence() {
        let dev = run_once(64, |w| {
            w.global_read(full_mask(), |l| l as u64);
            w.alu(full_mask(), 10);
        });
        assert_eq!(dev.warp_stats(0).divergence_cycles, 0);
    }

    #[test]
    fn cas_success_and_failure_semantics() {
        let dev = run_once(8, |w| {
            let old = w.global_cas1(0, 3, 0, 42);
            assert_eq!(old, 0); // succeeded
            let old = w.global_cas1(0, 3, 0, 99);
            assert_eq!(old, 42); // failed, value unchanged
        });
        assert_eq!(dev.global()[3], 42);
    }

    #[test]
    fn atomic_add_returns_old_value() {
        let dev = run_once(4, |w| {
            assert_eq!(w.global_atomic_add(0, 1, 5), 0);
            assert_eq!(w.global_atomic_add(0, 1, 7), 5);
        });
        assert_eq!(dev.global()[1], 12);
    }

    #[test]
    fn concurrent_atomics_on_one_address_stall() {
        // Two warps start at clock 0 and immediately hit the same address:
        // the second one must wait out the contention window.
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(4);
        dev.spawn(
            0,
            Box::new(Once(Some(|w: &mut WarpCtx| {
                w.global_atomic_add(0, 0, 1);
            }))),
        );
        dev.spawn(
            1,
            Box::new(Once(Some(|w: &mut WarpCtx| {
                w.global_atomic_add(0, 0, 1);
            }))),
        );
        dev.run_to_completion();
        let stalls = dev.warp_stats(0).atomic_stall_cycles + dev.warp_stats(1).atomic_stall_cycles;
        assert!(stalls > 0, "second atomic should stall behind the first");
        assert_eq!(dev.global()[0], 2);
    }

    #[test]
    fn concurrent_atomics_on_distinct_addresses_do_not_stall() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(4);
        dev.spawn(
            0,
            Box::new(Once(Some(|w: &mut WarpCtx| {
                w.global_atomic_add(0, 0, 1);
            }))),
        );
        dev.spawn(
            1,
            Box::new(Once(Some(|w: &mut WarpCtx| {
                w.global_atomic_add(0, 1, 1);
            }))),
        );
        dev.run_to_completion();
        assert_eq!(dev.warp_stats(0).atomic_stall_cycles, 0);
        assert_eq!(dev.warp_stats(1).atomic_stall_cycles, 0);
    }

    #[test]
    fn shfl_broadcasts_registers() {
        run_once(4, |w| {
            let mut vals = [0u64; WARP_LANES];
            for (l, v) in vals.iter_mut().enumerate() {
                *v = (l * 10) as u64;
            }
            let got = w.shfl(full_mask(), &vals, |_| 7);
            assert!(got.iter().all(|&v| v == 70));
            let rot = w.shfl(full_mask(), &vals, |l| (l + 1) % 32);
            assert_eq!(rot[0], 10);
            assert_eq!(rot[31], 0);
        });
    }

    #[test]
    fn ballot_collects_predicates() {
        run_once(4, |w| {
            let b = w.ballot(full_mask(), |l| l % 2 == 0);
            assert_eq!(b, 0x5555_5555);
            let b = w.ballot(0xF, |l| l >= 2);
            assert_eq!(b, 0xC);
        });
    }

    #[test]
    fn shfl_up_down_shift_lanes() {
        run_once(4, |w| {
            let mut vals = [0u64; WARP_LANES];
            for (l, v) in vals.iter_mut().enumerate() {
                *v = l as u64;
            }
            let up = w.shfl_up(full_mask(), &vals, 1);
            assert_eq!(up[0], 0); // keeps own
            assert_eq!(up[5], 4);
            assert_eq!(up[31], 30);
            let down = w.shfl_down(full_mask(), &vals, 2);
            assert_eq!(down[0], 2);
            assert_eq!(down[30], 30); // keeps own
            assert_eq!(down[31], 31);
        });
    }

    #[test]
    fn warp_prefix_sum_via_shfl_up() {
        // The canonical Hillis–Steele inclusive scan over a warp.
        run_once(4, |w| {
            let mut vals = [1u64; WARP_LANES];
            let mut d = 1;
            while d < WARP_LANES {
                let shifted = w.shfl_up(full_mask(), &vals, d);
                for l in 0..WARP_LANES {
                    if l >= d {
                        vals[l] += shifted[l];
                    }
                }
                d *= 2;
            }
            for (l, v) in vals.iter().enumerate() {
                assert_eq!(*v, l as u64 + 1);
            }
        });
    }

    #[test]
    fn votes_aggregate_predicates() {
        run_once(4, |w| {
            assert!(w.vote_all(full_mask(), |_| true));
            assert!(!w.vote_all(full_mask(), |l| l != 7));
            assert!(w.vote_any(full_mask(), |l| l == 7));
            assert!(!w.vote_any(full_mask(), |_| false));
            // Inactive lanes don't participate.
            assert!(w.vote_all(0x3, |l| l < 2));
        });
    }

    #[test]
    fn phase_attribution_splits_cycles() {
        let dev = run_once(64, |w| {
            w.set_phase(1);
            w.global_read(full_mask(), |l| l as u64);
            w.set_phase(2);
            w.alu(full_mask(), 5);
        });
        let st = dev.warp_stats(0);
        assert!(st.phase(1) > 0);
        assert!(st.phase(2) > 0);
        assert_eq!(st.phase(0), 0);
        assert_eq!(st.total_cycles, st.phase(1) + st.phase(2));
    }

    #[test]
    fn narrow_participation_suppresses_divergence() {
        let dev = run_once(64, |w| {
            w.set_participating(1);
            w.global_read1(0, 0);
            w.global_read1(0, 1);
        });
        assert_eq!(dev.warp_stats(0).divergence_cycles, 0);
    }

    #[test]
    fn bulk_read_costs_like_individual_reads() {
        let dev_bulk = run_once(4096, |w| {
            w.global_read_bulk(full_mask(), 8, |l, i| (i * 32 + l) as u64);
        });
        let dev_steps = run_once(4096, |w| {
            for i in 0..8usize {
                w.global_read(full_mask(), |l| (i * 32 + l) as u64);
            }
        });
        assert_eq!(dev_bulk.elapsed_cycles(), dev_steps.elapsed_cycles());
    }

    #[test]
    fn bulk_read_returns_per_access_values() {
        let dev = run_once(256, |w| {
            w.global_write(full_mask(), |l| l as u64, |l| (l * 2) as u64);
            let r = w.global_read_bulk(full_mask(), 2, |l, i| (l + i) as u64);
            assert_eq!(r[0][5], 10); // addr 5 holds 10
            assert_eq!(r[1][5], 12); // addr 6 holds 12
        });
        assert_eq!(dev.global()[3], 6);
    }

    #[test]
    fn bulk_write_applies_all_values() {
        let dev = run_once(256, |w| {
            w.global_write_bulk(full_mask(), 3, |l, i| {
                if l < 2 {
                    Some(((l * 3 + i) as u64, (100 + l * 3 + i) as u64))
                } else {
                    None
                }
            });
        });
        for a in 0..6 {
            assert_eq!(dev.global()[a], 100 + a as u64);
        }
        assert_eq!(dev.global()[6], 0);
    }

    #[test]
    #[should_panic(
        expected = "warp 0 (sm 0) @ cycle 0: read of unallocated global address 1000000"
    )]
    fn out_of_bounds_global_read_names_warp_and_address() {
        run_once(4, |w| {
            w.global_read1(0, 1_000_000);
        });
    }

    #[test]
    #[should_panic(expected = "write of unallocated shared address 9999")]
    fn out_of_bounds_shared_write_names_warp_and_address() {
        run_once(4, |w| {
            w.shared_write1(0, 9_999, 1);
        });
    }

    #[test]
    fn write_last_lane_wins_on_same_address() {
        let dev = run_once(8, |w| {
            w.global_write(full_mask(), |_| 2, |l| l as u64);
        });
        assert_eq!(dev.global()[2], 31);
    }
}

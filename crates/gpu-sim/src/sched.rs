//! The discrete-event scheduler: warps advance one instruction at a time in
//! global simulated-time order, so cross-warp races are resolved exactly as
//! they would be by the hardware's memory system (at instruction
//! granularity), and the final clock of the slowest warp is the kernel's
//! simulated duration.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::cost::GpuConfig;
use crate::fault::{Fate, FaultPlan};
use crate::invariant::InvariantChecker;
use crate::mem::{GlobalMemory, SharedMemory, Word};
use crate::race::{AnalysisConfig, AnalysisReport, AnalysisState};
use crate::stats::WarpStats;
use crate::warp::WarpCtx;
use crate::WARP_LANES;

/// Device-wide warp identifier, returned by [`Device::spawn`].
pub type WarpId = usize;

/// Width, in simulated cycles, of the quantum at whose aligned boundaries
/// the stall watchdog evaluates.
const WATCHDOG_QUANTUM: u64 = 4096;

/// What a program's step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More instructions to execute; reschedule at the new clock.
    Running,
    /// The kernel has exited; the warp retires.
    Done,
}

/// A hand-written SIMT kernel for one warp.
///
/// `step` must perform a bounded amount of work — ideally one warp-wide
/// instruction — through the [`WarpCtx`]; the scheduler interleaves warps
/// between steps in simulated-time order. Programs are `Any` so the harness
/// can downcast them after the run to collect results.
pub trait WarpProgram: Any {
    /// Execute the next instruction(s).
    fn step(&mut self, w: &mut WarpCtx) -> StepOutcome;
}

struct WarpSlot {
    sm_id: usize,
    clock: u64,
    stats: WarpStats,
    program: Option<Box<dyn WarpProgram>>,
    done: bool,
    /// Phase currently attributed (persists across steps).
    phase: u8,
    /// Lanes this kernel logically runs (persists across steps).
    participating: u32,
    /// Completion time of the warp's last non-polling instruction (stall
    /// watchdog input).
    nonpoll_clock: u64,
    /// A one-shot injected stall has already been applied to this warp.
    fault_stalled: bool,
}

/// Diagnosis of a run the stall watchdog interrupted: every live warp had
/// been doing nothing but polling for longer than the configured
/// `max_idle_cycles` — the protocol can no longer make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInfo {
    /// Simulated cycle (quantum-aligned) at which the stall was diagnosed.
    pub cycle: u64,
    /// Warps that had not retired when the run was interrupted.
    pub live_warps: usize,
}

/// The simulated GPU: owns memories, warps and the event loop.
pub struct Device {
    cfg: GpuConfig,
    global: GlobalMemory,
    shared: Vec<SharedMemory>,
    atomic_global: HashMap<u64, u64>,
    atomic_shared: Vec<HashMap<u64, u64>>,
    warps: Vec<WarpSlot>,
    queue: BinaryHeap<Reverse<(u64, WarpId)>>,
    live: usize,
    instructions_executed: u64,
    /// Race/invariant analysis; `None` (the default) records nothing and
    /// costs one pointer check per access.
    analysis: Option<Box<AnalysisState>>,
    /// Installed fault plan (None = no faults injected).
    fault: Option<FaultPlan>,
    /// Stall watchdog: max cycles every live warp may spend purely polling
    /// before the run is interrupted with a [`StallInfo`] diagnosis.
    watchdog: Option<u64>,
    /// Next quantum-aligned cycle at which the watchdog evaluates.
    wd_mark: u64,
    /// Set when the watchdog diagnosed a stall; run loops stop stepping.
    stall_info: Option<StallInfo>,
}

impl Device {
    /// Build a device with the given geometry and cost model.
    pub fn new(cfg: GpuConfig) -> Self {
        let shared = (0..cfg.num_sms)
            .map(|_| SharedMemory::new(cfg.shared_words_per_sm))
            .collect();
        let atomic_shared = (0..cfg.num_sms).map(|_| HashMap::new()).collect();
        Self {
            cfg,
            global: GlobalMemory::new(),
            shared,
            atomic_shared,
            atomic_global: HashMap::new(),
            warps: Vec::new(),
            queue: BinaryHeap::new(),
            live: 0,
            instructions_executed: 0,
            analysis: None,
            fault: None,
            watchdog: None,
            wd_mark: WATCHDOG_QUANTUM,
            stall_info: None,
        }
    }

    /// Install a seeded fault plan. Call before running; the scheduler
    /// consults it for warp kills/stalls/SM crashes, and kernels reach it
    /// via [`crate::WarpCtx::fault_plan`] for message faults and jitter.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn installed_fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Arm the stall watchdog: if every live warp spends more than
    /// `max_idle_cycles` doing nothing but polling, the run stops and
    /// [`Device::stalled`] reports the diagnosis. Evaluated at
    /// 4096-cycle-aligned boundaries of simulated time.
    pub fn set_watchdog(&mut self, max_idle_cycles: u64) {
        self.watchdog = Some(max_idle_cycles.max(1));
    }

    /// The stall diagnosis, if the watchdog interrupted the run.
    pub fn stalled(&self) -> Option<StallInfo> {
        self.stall_info
    }

    /// Evaluate the watchdog at quantum boundary `mark`: stalled iff every
    /// live warp's last useful (non-polling) instruction completed more
    /// than `max_idle` cycles before `mark`.
    fn watchdog_fire(&mut self, mark: u64, max_idle: u64) -> bool {
        let mut live = 0usize;
        for w in &self.warps {
            if w.done {
                continue;
            }
            live += 1;
            if mark.saturating_sub(w.nonpoll_clock) <= max_idle {
                return false;
            }
        }
        if live == 0 {
            return false;
        }
        self.stall_info = Some(StallInfo {
            cycle: mark,
            live_warps: live,
        });
        true
    }

    /// Turn on the analysis layer for this device. Call before spawning
    /// warps; a config with everything off leaves analysis disabled.
    pub fn enable_analysis(&mut self, cfg: AnalysisConfig) {
        self.analysis = cfg.enabled().then(|| Box::new(AnalysisState::new(cfg)));
    }

    /// Register a protocol-invariant checker. Requires a prior
    /// [`Device::enable_analysis`] with `invariants: true`.
    pub fn add_invariant_checker(&mut self, checker: Box<dyn InvariantChecker>) {
        self.analysis
            .as_deref_mut()
            .expect("enable_analysis before registering invariant checkers")
            .add_checker(checker);
    }

    /// Live analysis state, if enabled (races/violations found so far).
    pub fn analysis(&self) -> Option<&AnalysisState> {
        self.analysis.as_deref()
    }

    /// Run the checkers' end-of-run passes and return the detached report
    /// (`None` when analysis was never enabled). Idempotent only in the
    /// sense that further device activity keeps being recorded; call after
    /// the run completes.
    pub fn finish_analysis(&mut self) -> Option<AnalysisReport> {
        self.analysis.as_deref_mut().map(|a| {
            a.finish();
            a.report()
        })
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Allocate `n` words of global memory; returns the base address.
    pub fn alloc_global(&mut self, n: usize) -> u64 {
        self.global.alloc(n)
    }

    /// Allocate `n` words of SM-local shared memory; returns the base address
    /// (valid only for warps on that SM).
    pub fn alloc_shared(&mut self, sm: usize, n: usize) -> u64 {
        self.shared[sm].alloc(n)
    }

    /// Read-only view of global memory (for setup/inspection by the host).
    pub fn global(&self) -> &[Word] {
        self.global.as_slice()
    }

    /// Host-side mutable access to global memory (kernel-launch setup).
    pub fn global_mut(&mut self) -> &mut GlobalMemory {
        &mut self.global
    }

    /// Host-side (uncosted) write to an SM's shared memory — launch setup.
    pub fn shared_write_host(&mut self, sm: usize, addr: u64, value: Word) {
        self.shared[sm].write(addr, value);
    }

    /// Host-side (uncosted) read of an SM's shared memory — inspection.
    pub fn shared_read_host(&self, sm: usize, addr: u64) -> Word {
        self.shared[sm].read(addr)
    }

    /// Place a program on SM `sm` as a new warp; it starts at clock 0.
    pub fn spawn(&mut self, sm: usize, program: Box<dyn WarpProgram>) -> WarpId {
        assert!(sm < self.cfg.num_sms, "SM index out of range");
        let id = self.warps.len();
        self.warps.push(WarpSlot {
            sm_id: sm,
            clock: 0,
            stats: WarpStats::default(),
            program: Some(program),
            done: false,
            phase: 0,
            participating: WARP_LANES as u32,
            nonpoll_clock: 0,
            fault_stalled: false,
        });
        self.queue.push(Reverse((0, id)));
        self.live += 1;
        id
    }

    /// Number of warps that have not yet retired.
    pub fn live_warps(&self) -> usize {
        self.live
    }

    /// Run until every warp retires. Panics if `max_instructions` device-wide
    /// instructions elapse first — a guard against protocol deadlocks that
    /// would otherwise poll forever.
    pub fn run_with_limit(&mut self, max_instructions: u64) {
        while self.live > 0 && self.stall_info.is_none() {
            assert!(
                self.instructions_executed < max_instructions,
                "simulation exceeded {max_instructions} instructions; \
                 a warp is likely polling on a condition that never arrives"
            );
            self.step_once();
        }
    }

    /// Run until every warp retires (with a very large safety limit).
    pub fn run_to_completion(&mut self) {
        self.run_with_limit(u64::MAX);
    }

    /// Advance exactly one warp by one step. No-op when all warps retired
    /// or the stall watchdog has already fired.
    pub fn step_once(&mut self) {
        if self.stall_info.is_some() {
            return;
        }
        let Some(Reverse((clock, id))) = self.queue.pop() else {
            return;
        };
        if let Some(max_idle) = self.watchdog {
            if clock >= self.wd_mark {
                let mark = self.wd_mark;
                self.wd_mark = (clock / WATCHDOG_QUANTUM) * WATCHDOG_QUANTUM + WATCHDOG_QUANTUM;
                if self.watchdog_fire(mark, max_idle) {
                    self.queue.push(Reverse((clock, id)));
                    return;
                }
            }
        }
        if let Some(plan) = &self.fault {
            let slot = &self.warps[id];
            match plan.scheduled_fate(id, slot.sm_id, clock, slot.fault_stalled) {
                Fate::Kill => {
                    self.warps[id].done = true;
                    self.live -= 1;
                    return;
                }
                Fate::Stall(n) => {
                    let slot = &mut self.warps[id];
                    slot.fault_stalled = true;
                    slot.clock = clock + n;
                    self.queue.push(Reverse((clock + n, id)));
                    return;
                }
                Fate::Run => {}
            }
        }
        let slot = &mut self.warps[id];
        debug_assert_eq!(slot.clock, clock);
        let mut program = slot.program.take().expect("scheduled warp has no program");
        let sm = slot.sm_id;
        let mut ctx = WarpCtx {
            warp_id: id,
            sm_id: sm,
            clock,
            phase: slot.stats_phase(),
            participating: slot.stats_participating(),
            stats: &mut slot.stats,
            global: &mut self.global,
            atomic_global: &mut self.atomic_global,
            shared: &mut self.shared[sm],
            cost: &self.cfg.cost,
            atomic_shared: &mut self.atomic_shared[sm],
            analysis: self.analysis.as_deref_mut(),
            nonpoll_clock: slot.nonpoll_clock,
            entry_nonpoll: slot.nonpoll_clock,
            fault: self.fault.as_ref(),
        };
        let outcome = program.step(&mut ctx);
        let new_clock = ctx.clock;
        let new_phase = ctx.phase;
        let new_part = ctx.participating;
        let new_nonpoll = ctx.nonpoll_clock;
        let slot = &mut self.warps[id];
        slot.clock = new_clock;
        slot.nonpoll_clock = new_nonpoll;
        slot.set_phase_participating(new_phase, new_part);
        slot.program = Some(program);
        self.instructions_executed += 1;
        match outcome {
            StepOutcome::Running => self.queue.push(Reverse((new_clock, id))),
            StepOutcome::Done => {
                slot.done = true;
                self.live -= 1;
            }
        }
    }

    /// Largest warp clock — the simulated duration of the whole launch.
    pub fn elapsed_cycles(&self) -> u64 {
        self.warps.iter().map(|w| w.clock).max().unwrap_or(0)
    }

    /// Cycle counters of one warp.
    pub fn warp_stats(&self, id: WarpId) -> &WarpStats {
        &self.warps[id].stats
    }

    /// Device-wide cycle counters: every warp's stats merged into one
    /// (observability harvests read protocol-stall totals from here).
    pub fn aggregate_stats(&self) -> WarpStats {
        let mut agg = WarpStats::default();
        for w in &self.warps {
            agg.merge(&w.stats);
        }
        agg
    }

    /// Whether a warp has retired.
    pub fn warp_done(&self, id: WarpId) -> bool {
        self.warps[id].done
    }

    /// Remove and return a warp's program (post-run result collection); the
    /// caller downcasts it to the concrete kernel type.
    pub fn take_program(&mut self, id: WarpId) -> Box<dyn Any> {
        let b: Box<dyn WarpProgram> = self.warps[id]
            .program
            .take()
            .expect("program already taken");
        b
    }

    /// Borrow a warp's program for inspection; downcast with `Any`.
    pub fn program(&self, id: WarpId) -> &dyn Any {
        self.warps[id].program.as_deref().expect("program taken") as &dyn Any
    }

    /// Total instructions executed across all warps.
    pub fn instructions_executed(&self) -> u64 {
        self.instructions_executed
    }
}

impl WarpSlot {
    fn stats_phase(&self) -> u8 {
        self.phase
    }
    fn stats_participating(&self) -> u32 {
        self.participating
    }
    fn set_phase_participating(&mut self, phase: u8, participating: u32) {
        self.phase = phase;
        self.participating = participating;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::full_mask;

    /// Increments a global counter `n` times, one step per increment.
    struct Counter {
        remaining: u32,
        addr: u64,
    }
    impl WarpProgram for Counter {
        fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
            if self.remaining == 0 {
                return StepOutcome::Done;
            }
            self.remaining -= 1;
            w.global_atomic_add(0, self.addr, 1);
            StepOutcome::Running
        }
    }

    #[test]
    fn warps_interleave_in_time_order() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(1);
        dev.spawn(
            0,
            Box::new(Counter {
                remaining: 10,
                addr: 0,
            }),
        );
        dev.spawn(
            1,
            Box::new(Counter {
                remaining: 10,
                addr: 0,
            }),
        );
        dev.run_to_completion();
        assert_eq!(dev.global()[0], 20);
        assert_eq!(dev.live_warps(), 0);
        assert!(dev.warp_done(0) && dev.warp_done(1));
    }

    #[test]
    fn elapsed_is_max_over_warps() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(2);
        dev.spawn(
            0,
            Box::new(Counter {
                remaining: 1,
                addr: 0,
            }),
        );
        dev.spawn(
            1,
            Box::new(Counter {
                remaining: 50,
                addr: 1,
            }),
        );
        dev.run_to_completion();
        let c0 = dev.warp_stats(0).total_cycles;
        let c1 = dev.warp_stats(1).total_cycles;
        assert!(c1 > c0);
        assert_eq!(dev.elapsed_cycles(), c1.max(c0));
    }

    #[test]
    fn determinism_same_seed_same_interleaving() {
        let run = || {
            let mut dev = Device::new(GpuConfig::default());
            dev.alloc_global(1);
            for sm in 0..4 {
                dev.spawn(
                    sm,
                    Box::new(Counter {
                        remaining: 25,
                        addr: 0,
                    }),
                );
            }
            dev.run_to_completion();
            (
                dev.elapsed_cycles(),
                dev.global()[0],
                dev.instructions_executed(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A program that waits for a flag another warp sets.
    struct Setter {
        step: u8,
    }
    impl WarpProgram for Setter {
        fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
            match self.step {
                0 => {
                    // Burn some time first — in its own step, so the waiter
                    // observes the unset flag and really has to poll.
                    w.alu(full_mask(), 5000);
                    self.step = 1;
                    StepOutcome::Running
                }
                1 => {
                    w.global_write1(0, 0, 1);
                    self.step = 2;
                    StepOutcome::Running
                }
                _ => StepOutcome::Done,
            }
        }
    }
    struct Waiter {
        seen: bool,
    }
    impl WarpProgram for Waiter {
        fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
            if self.seen {
                return StepOutcome::Done;
            }
            if w.global_read1(0, 0) == 1 {
                self.seen = true;
            } else {
                w.poll_wait();
            }
            StepOutcome::Running
        }
    }

    #[test]
    fn polling_synchronization_works() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(1);
        dev.spawn(0, Box::new(Setter { step: 0 }));
        dev.spawn(1, Box::new(Waiter { seen: false }));
        dev.run_to_completion();
        assert_eq!(dev.global()[0], 1);
        // The waiter's busy-wait time is visible as poll-stall, both on the
        // warp itself and in the device-wide aggregate.
        assert!(dev.warp_stats(1).poll_stall_cycles > 0);
        assert_eq!(dev.warp_stats(0).poll_stall_cycles, 0);
        let agg = dev.aggregate_stats();
        assert_eq!(agg.poll_stall_cycles, dev.warp_stats(1).poll_stall_cycles);
        assert_eq!(
            agg.total_cycles,
            dev.warp_stats(0).total_cycles + dev.warp_stats(1).total_cycles
        );
    }

    #[test]
    #[should_panic(expected = "polling on a condition that never arrives")]
    fn run_with_limit_catches_livelock() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(1);
        dev.spawn(0, Box::new(Waiter { seen: false })); // nobody sets the flag
        dev.run_with_limit(10_000);
    }

    #[test]
    fn watchdog_converts_livelock_into_stall_info() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(1);
        dev.spawn(0, Box::new(Waiter { seen: false })); // nobody sets the flag
        dev.set_watchdog(10_000);
        dev.run_to_completion(); // returns instead of panicking
        let info = dev.stalled().expect("watchdog must fire");
        assert_eq!(info.live_warps, 1);
        assert!(info.cycle >= 10_000);
        assert_eq!(dev.live_warps(), 1, "the stalled warp did not retire");
    }

    #[test]
    fn watchdog_stays_silent_on_healthy_runs() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(1);
        dev.spawn(0, Box::new(Setter { step: 0 }));
        dev.spawn(1, Box::new(Waiter { seen: false }));
        dev.set_watchdog(50_000);
        dev.run_to_completion();
        assert!(dev.stalled().is_none());
        assert_eq!(dev.global()[0], 1);
    }

    #[test]
    fn fault_kill_retires_a_warp_without_stepping_it() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(2);
        dev.spawn(
            0,
            Box::new(Counter {
                remaining: 1000,
                addr: 0,
            }),
        );
        dev.spawn(
            1,
            Box::new(Counter {
                remaining: 5,
                addr: 1,
            }),
        );
        dev.set_fault_plan(FaultPlan::new(0, "kill=0@1".parse::<FaultSpec>().unwrap()));
        dev.run_to_completion();
        assert!(dev.warp_done(0) && dev.warp_done(1));
        assert!(
            dev.global()[0] < 1000,
            "killed warp must not finish its work"
        );
        assert_eq!(dev.global()[1], 5);
    }

    #[test]
    fn fault_stall_delays_exactly_once() {
        use crate::fault::{FaultPlan, FaultSpec};
        let run = |spec: &str| {
            let mut dev = Device::new(GpuConfig::default());
            dev.alloc_global(1);
            dev.spawn(
                0,
                Box::new(Counter {
                    remaining: 10,
                    addr: 0,
                }),
            );
            if !spec.is_empty() {
                dev.set_fault_plan(FaultPlan::new(0, spec.parse::<FaultSpec>().unwrap()));
            }
            dev.run_to_completion();
            (dev.global()[0], dev.elapsed_cycles())
        };
        let (healthy_val, healthy_cycles) = run("");
        let (stalled_val, stalled_cycles) = run("stall=0@1x7000");
        assert_eq!(healthy_val, stalled_val, "a stall loses no work");
        assert_eq!(
            stalled_cycles,
            healthy_cycles + 7000,
            "the stall is applied exactly once"
        );
    }

    #[test]
    fn take_program_downcasts() {
        let mut dev = Device::new(GpuConfig::default());
        dev.alloc_global(1);
        let id = dev.spawn(
            0,
            Box::new(Counter {
                remaining: 3,
                addr: 0,
            }),
        );
        dev.run_to_completion();
        let prog = dev.take_program(id);
        let counter = prog.downcast::<Counter>().expect("wrong type");
        assert_eq!(counter.remaining, 0);
    }
}

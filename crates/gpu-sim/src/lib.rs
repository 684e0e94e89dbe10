//! # gpu-sim — a deterministic SIMT GPU simulator
//!
//! This crate is the hardware substrate for the CSMV reproduction. Rust has no
//! mature GPU-kernel story, so instead of CUDA we execute "kernels" against a
//! deterministic, discrete-event model of a throughput-oriented GPU:
//!
//! * **Warps are the unit of execution.** A [`WarpProgram`] is a hand-written
//!   state machine whose [`WarpProgram::step`] performs (at most) one
//!   warp-wide *instruction* — a memory access, an atomic, a warp intrinsic or
//!   a batch of pure ALU work — through the [`WarpCtx`] API. The scheduler
//!   ([`Device`]) always advances the warp with the smallest cycle clock, so
//!   shared-memory effects are totally ordered by simulated time and races
//!   between warps are *real* (in simulated time).
//! * **Two-level memory.** Off-chip [`mem::GlobalMemory`] is shared by every
//!   warp; warp-wide accesses are charged using the CUDA coalescing rule
//!   (cost grows with the number of 128-byte segments touched). On-chip
//!   [`mem::SharedMemory`] is per-SM, much faster, and charged with a 32-bank
//!   conflict model. This asymmetry is precisely what CSMV's client–server
//!   design exploits.
//! * **Atomics contend.** Every atomic keeps a per-address "next free time";
//!   concurrent atomics on one address serialize in simulated time,
//!   reproducing the CAS convoys that motivate the paper.
//! * **Divergence is accounted automatically.** Whenever an instruction
//!   executes with only a subset of the warp's lanes active, the idle-lane
//!   time is accumulated as *divergence* — the quantity reported in the
//!   paper's Tables I and III.
//! * **Message passing.** [`channel`] implements the client→server mailbox
//!   protocol (after Wang et al., ASPLOS'19) on top of simulated global
//!   memory, used by CSMV to ship read/write-sets to the commit server.
//!
//! Everything is seeded and deterministic: a given program + seed always
//! produces the identical interleaving, which the test-suite relies on.
//! One device runs on one host thread; host parallelism lives a level up,
//! where independent simulations (bench cells) run on separate threads.
//!
//! ```
//! use gpu_sim::{Device, GpuConfig, StepOutcome, WarpCtx, WarpProgram};
//!
//! /// Each lane atomically adds its lane id to a global accumulator.
//! struct AddLaneIds { done: bool }
//! impl WarpProgram for AddLaneIds {
//!     fn step(&mut self, w: &mut WarpCtx) -> StepOutcome {
//!         if self.done { return StepOutcome::Done; }
//!         for lane in 0..32 {
//!             w.global_atomic_add(lane, 0, lane as u64);
//!         }
//!         self.done = true;
//!         StepOutcome::Running
//!     }
//! }
//!
//! let mut dev = Device::new(GpuConfig::default());
//! dev.alloc_global(1);
//! let sm = 0;
//! dev.spawn(sm, Box::new(AddLaneIds { done: false }));
//! dev.run_to_completion();
//! assert_eq!(dev.global()[0], (0..32).sum::<u64>());
//! assert!(dev.elapsed_cycles() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod channel;
pub mod cost;
pub mod fault;
pub mod invariant;
pub mod mem;
pub mod race;
pub mod sched;
pub mod stats;
pub mod warp;

pub use cost::{CostModel, GpuConfig};
pub use fault::{seeded_jitter, Fate, FaultPlan, FaultSpec, FaultSpecError};
pub use invariant::{AccessKind, InvariantChecker, MemEvent, Space, Violation};
pub use mem::{GlobalMemory, SharedMemory, Word};
pub use race::{AnalysisConfig, AnalysisReport, AnalysisState, MemOrder, RaceReport};
pub use sched::{Device, StallInfo, StepOutcome, WarpId, WarpProgram};
pub use stats::{AnalysisStats, PhaseId, WarpStats, MAX_PHASES};
pub use warp::{full_mask, lane_count, single_lane, Mask, WarpCtx};

/// Number of lanes in a warp (fixed at the CUDA value).
pub const WARP_LANES: usize = 32;

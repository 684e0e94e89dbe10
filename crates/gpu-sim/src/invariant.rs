//! Pluggable protocol-invariant checking over the simulated-memory event
//! stream.
//!
//! Every memory operation a kernel performs through [`crate::WarpCtx`] is
//! (when analysis is enabled) reported as a [`MemEvent`] to every registered
//! [`InvariantChecker`]. Checkers are protocol-specific — the CSMV crate
//! registers one that knows the ATR/GTS layout (one type, in a
//! single-server and a multi-server form), PR-STM one that knows the
//! lock-word encoding — while this module only defines the protocol-agnostic
//! event vocabulary and the reporting types.
//!
//! Checkers observe *device* accesses only: host-side setup writes
//! ([`crate::Device::global_mut`], [`crate::Device::shared_write_host`]) are
//! not events, so a checker must be configured with the initial values it
//! cares about (e.g. "the GTS starts at 0").

use std::fmt;

use crate::mem::Word;
use crate::race::MemOrder;

/// Which memory an event touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Off-chip global memory (device-wide addresses).
    Global,
    /// On-chip shared memory (addresses local to the event's SM).
    Shared,
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Space::Global => write!(f, "global"),
            Space::Shared => write!(f, "shared"),
        }
    }
}

/// What kind of access an event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// An ordinary load; the event's `value` is the value observed.
    Read,
    /// An ordinary store; the event's `value` is the value written.
    Write,
    /// An atomic compare-and-swap; the event's `value` is the value found
    /// (the swap installed `new` iff `success`).
    Cas {
        expected: Word,
        new: Word,
        success: bool,
    },
    /// An atomic fetch-and-add of `operand`; the event's `value` is the value
    /// found before the addition.
    Add { operand: Word },
}

impl AccessKind {
    /// Whether the access (possibly) mutated memory.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            AccessKind::Write | AccessKind::Add { .. } | AccessKind::Cas { success: true, .. }
        )
    }
}

/// One device memory access, as observed by the analysis layer.
#[derive(Debug, Clone, Copy)]
pub struct MemEvent {
    /// Device-wide id of the warp performing the access.
    pub warp: usize,
    /// SM the warp is resident on (scopes `addr` when `space` is shared).
    pub sm: usize,
    /// Simulated cycle clock of the warp at the access.
    pub clock: u64,
    /// Which memory was touched.
    pub space: Space,
    /// Word address within `space`.
    pub addr: u64,
    /// Access kind (read / write / atomic).
    pub kind: AccessKind,
    /// Value observed (reads, atomics) or written (stores).
    pub value: Word,
    /// The memory-order annotation the kernel declared for the access
    /// (atomics always report [`MemOrder::AcqRel`]).
    pub order: MemOrder,
}

/// A protocol-invariant violation found by a checker.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the checker that reported it.
    pub checker: &'static str,
    /// Warp whose access exposed the violation.
    pub warp: usize,
    /// Simulated cycle clock of the offending access.
    pub clock: u64,
    /// Address the offending access touched (`u64::MAX` for end-of-run
    /// violations not tied to one access).
    pub addr: u64,
    /// Human-readable description of the broken invariant.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] warp {} @ cycle {}, addr {}: {}",
            self.checker, self.warp, self.clock, self.addr, self.message
        )
    }
}

/// A pluggable protocol-invariant checker.
///
/// Implementations live next to the protocol they check and are registered
/// with [`crate::Device::add_invariant_checker`]. Two ship:
/// `csmv::CsmvInvariantChecker` (built by `single` for one commit server,
/// by `multi` for several) and `prstm::PrstmInvariantChecker`.
pub trait InvariantChecker {
    /// Short name used in violation reports.
    fn name(&self) -> &'static str;

    /// Observe one memory event; push a [`Violation`] for every invariant it
    /// breaks. Called for *every* device access, in simulated-time order —
    /// implementations should filter by address range cheaply.
    fn on_event(&mut self, ev: &MemEvent, out: &mut Vec<Violation>);

    /// Called once after the run completes, for end-of-run invariants
    /// (e.g. "the set of published commit timestamps is gap-free").
    fn finish(&mut self, out: &mut Vec<Violation>) {
        let _ = out;
    }
}

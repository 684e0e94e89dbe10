//! # stm-core — shared STM abstractions
//!
//! Everything the four STM implementations (CSMV, JVSTM-GPU, PR-STM,
//! JVSTM-CPU) and the workload generators have in common:
//!
//! * [`phase::Phase`] — the named commit-phase identifiers whose cycle
//!   accounting produces the paper's Tables I and III;
//! * [`logic::TxLogic`] / [`logic::TxSource`] — the resumable transaction
//!   "bytecode" through which STM-agnostic workloads (Bank, MemcachedGPU)
//!   drive any STM one operation at a time;
//! * [`stats::CommitStats`] and [`stats::TimeBreakdown`] — commit/abort and
//!   wasted-time bookkeeping behind Figures 2–4 and Tables II/IV;
//! * [`history`] — a value-based history checker that verifies *opacity*:
//!   every committed transaction observed exactly the committed state at its
//!   read point, and update transactions were still valid at their commit
//!   point. The entire test-suite funnels through this oracle;
//! * [`launch`] — the launcher every simulated STM shares: arm the device,
//!   spawn the client warps in slot order, run, harvest.

#![forbid(unsafe_code)]

pub mod gc;
pub mod history;
pub mod launch;
pub mod logic;
pub mod metrics;
pub mod mv_exec;
pub mod phase;
pub mod recovery;
pub mod result;
pub mod stats;
pub mod vbox;

pub use gc::SnapshotRegistry;
pub use history::{check_history, replay_committed, HistoryError, TxRecord};
pub use logic::{TxLogic, TxOp, TxSource};
pub use metrics::{
    AbortCounts, AbortReason, FaultCounts, FaultEvent, GcStats, Histogram, MetricsReport, Series,
};
pub use mv_exec::{MvExec, MvExecConfig, PlainSetArea, SetArea};
pub use phase::Phase;
pub use recovery::RetryPolicy;
pub use result::RunResult;
pub use stats::{CommitStats, TimeBreakdown};
pub use vbox::VBoxHeap;

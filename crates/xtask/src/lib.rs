//! Protocol-discipline lints for the CSMV workspace.
//!
//! The vendored dependency set has no `syn`, so the lints are a
//! hand-rolled lexical pass: comments and string literals are masked out,
//! then calls, impl blocks, and `#[cfg(test)]` modules are recovered by
//! identifier scanning and balanced-delimiter tracking. That is exact
//! enough for the three rules enforced here, all of which are phrased
//! over call sites and item headers:
//!
//! - **R1 `ordered-protocol-access`** — protocol sequence words and
//!   GTS/ATR control fields (`*_seq_addr`, `gts_addr`, `slot_cts_addr`,
//!   `next_cts_addr`, `next_local_addr`, `lock_addr`) may only be
//!   accessed through `_ord` accessor variants with `Acquire`/`Release`
//!   (or stronger) ordering, or through atomics (`cas`/`atomic_add`). A
//!   plain `global_read`/`shared_write`/... touching such an address, or
//!   an `_ord` access passing `Plain`, is a finding.
//! - **R2 `no-panic-in-server-path`** — no `.unwrap()` / `.expect(...)`
//!   inside the commit-server impls, simulated (`ReceiverWarp`,
//!   `WorkerWarp`, `ServerControl`, `MultiWorker`, and the batch intake,
//!   reply and validation steps both workers share: `WorkerPort`,
//!   `BatchTx`) or native
//!   (`Validator`, `NativeWorker`): a panicking server warp deadlocks
//!   every client in the simulator the same way a crashed SM does on a
//!   GPU, except unreported — and a native worker that panics between
//!   its reservation and its write-back does it on real hardware.
//! - **R3 `abort-reason-taxonomy`** — every `AbortReason` variant must be
//!   mapped in the metrics taxonomy: present in `ALL`, decodable by
//!   `from_id`, and given a stable key in `key()`. Consumer side, every
//!   `AbortReason::X` referenced in the native backend's validator and
//!   worker modules must name a declared variant.
//!
//! A finding on line `N` can be suppressed by a `// xtask-lint: allow
//! (reason)` comment on the same line or up to two lines above — used by
//! the deliberately-buggy `seeded-bugs` injection branches.

pub mod lint;

pub use lint::{lint_workspace, Finding};

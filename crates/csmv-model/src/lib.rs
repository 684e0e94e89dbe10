//! # csmv-model — small-scope model checking for the CSMV commit protocol
//!
//! An abstract, finite state machine of the CSMV client–server commit
//! protocol (clients, hash-partitioned commit servers, the shared ATR
//! ring, GTS turn-taking, and in-flight request/response messages with
//! the fault grammar's drop/duplicate budgets), plus an explicit-state
//! explorer in the spirit of TLC/stateright:
//!
//! - breadth-first search over **canonical** state forms (client/key
//!   symmetry reduction) with a bounded depth;
//! - **safety**: opacity of the committed history via the same
//!   `stm_core::check_history` oracle the simulator tests use,
//!   serialization-graph acyclicity, gap-free timestamp reservation, GTS
//!   turn order, per-server publication order, and write-back discipline;
//! - **liveness**: deadlock detection and lasso (livelock) detection over
//!   the explored graph;
//! - **counterexamples** as replayable action traces.
//!
//! The model's transition decisions call [`csmv::steps`] — the exact pure
//! functions the simulator warps execute — and its seeded
//! [`Mutation`]s mirror the simulator's `seeded-bugs` injection hooks, so
//! every model counterexample corresponds to a schedule the real
//! implementation can be driven through.
//!
//! The "small scope" bet (every protocol bug shows up at 2 clients × 2
//! servers × 2 keys within a short trace) is validated by the seeded
//! mutations: each historical bug is found by the checker within the CI
//! depth bound — see `tests/mutations.rs`.

pub mod canon;
pub mod explore;
pub mod model;
pub mod props;
pub mod trace;

pub use canon::{canonical_hash, canonical_key};
pub use explore::{explore, Counterexample, ExploreConfig, ExploreResult};
pub use model::{
    apply, enabled_actions, Action, Client, ClientPhase, CommittedTx, Entry, Job, JobPhase,
    ModelAbort, ModelConfig, Mutation, Outcome, Resp, Server, State,
};
pub use props::{check_state, check_step, check_terminal, history_records, Violation};
pub use trace::{confirm, final_records, render, replay};

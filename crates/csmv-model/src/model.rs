//! The abstract CSMV state machine: clients, sharded commit servers, the
//! ATR, the GTS, and in-flight request/response messages with the fault
//! grammar's drop/duplicate budgets.
//!
//! The model is deliberately small-scope finite:
//!
//! - every transaction is a read-modify-write of one key (`value += 1`), so
//!   written values are permutation-invariant counters;
//! - batch sequence numbers alternate in `{1, 2}` — only equality with the
//!   receiver's `last_seq` ever matters, never magnitude;
//! - fault injections draw from bounded budgets, and resends are only
//!   enabled when a message was genuinely lost, so fault-free executions
//!   add no states.
//!
//! Control decisions (duplicate suppression, conflict detection, window
//! checks, GTS turn-taking) go through [`csmv::steps`] — the same pure
//! functions the simulator warps execute — so the checked model and the
//! implementation share one source of truth.

use csmv::steps;

/// Which historical protocol bug (if any) the model re-introduces. Each
/// variant mirrors a `seeded-bugs` injection hook on the real simulator
/// warps, so a model counterexample can be replayed against the
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The healthy protocol.
    #[default]
    None,
    /// Clients publish their batch's GTS value without waiting for their
    /// turn (`csmv::ClientWarp::inject_skip_gts_wait`).
    SkipGtsWait,
    /// The receiver's REQUEST seq read is unordered and can race a
    /// recovery resend, re-dispatching a duplicate batch
    /// (`csmv::ReceiverWarp::inject_plain_seq_read`).
    PlainSeqRead,
    /// The worker publishes an ATR entry's tag before its write-set items
    /// (`csmv::WorkerWarp::inject_publish_tag_first`).
    PublishTagFirst,
}

impl Mutation {
    /// All mutations, for exhaustive seeded-bug sweeps.
    pub const ALL: [Mutation; 3] = [
        Mutation::SkipGtsWait,
        Mutation::PlainSeqRead,
        Mutation::PublishTagFirst,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipGtsWait => "skip-gts-wait",
            Mutation::PlainSeqRead => "plain-seq-read",
            Mutation::PublishTagFirst => "publish-tag-first",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "skip-gts-wait" => Some(Mutation::SkipGtsWait),
            "plain-seq-read" => Some(Mutation::PlainSeqRead),
            "publish-tag-first" => Some(Mutation::PublishTagFirst),
            _ => None,
        }
    }
}

/// Static shape of a model instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Number of hash-partitioned commit servers (key `k` belongs to server
    /// `k % num_servers`).
    pub num_servers: usize,
    /// Number of distinct keys (0-based item ids).
    pub num_keys: u64,
    /// Per-server ATR ring capacity in entries.
    pub atr_capacity: u64,
    /// `programs[c][j]` is the key client `c`'s `j`-th transaction
    /// increments.
    pub programs: Vec<Vec<u64>>,
    /// Fault budgets: REQUEST drops, REQUEST duplicate deliveries, RESPONSE
    /// drops (arming-word losses).
    pub max_req_drops: u8,
    pub max_req_dups: u8,
    pub max_resp_drops: u8,
    /// The seeded bug under test.
    pub mutation: Mutation,
}

impl ModelConfig {
    /// The CI instance: 2 clients x 2 servers x 2 keys, 2 transactions per
    /// client, both clients touching both keys (maximal contention), no
    /// faults.
    pub fn small() -> Self {
        ModelConfig {
            num_servers: 2,
            num_keys: 2,
            atr_capacity: 2,
            programs: vec![vec![0, 1], vec![0, 1]],
            max_req_drops: 0,
            max_req_dups: 0,
            max_resp_drops: 0,
            mutation: Mutation::None,
        }
    }

    /// The CI instance with one of each fault allowed.
    pub fn small_with_faults() -> Self {
        ModelConfig {
            max_req_drops: 1,
            max_req_dups: 1,
            max_resp_drops: 1,
            ..Self::small()
        }
    }

    /// Server owning `key`.
    pub fn server_of(&self, key: u64) -> usize {
        steps::partition_of(key, self.num_servers)
    }

    pub fn num_clients(&self) -> usize {
        self.programs.len()
    }
}

/// Commit-server job outcome (the RESPONSE payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Commit { cts: u64 },
    Abort(ModelAbort),
}

/// Abstract abort reasons (a projection of `stm_core::AbortReason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelAbort {
    /// Read/write footprint intersected a later commit's write set.
    Conflict,
    /// Snapshot fell out of the ATR ring window.
    Window,
}

/// A RESPONSE mailbox slot: payload plus the `armed` flip the client polls.
/// A dropped response leaves the payload (and its seq echo) behind, which
/// is what lets a duplicate REQUEST re-arm it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resp {
    pub seq: u64,
    pub outcome: Outcome,
    pub armed: bool,
}

/// One ATR entry: a reserved commit timestamp plus its write-set items,
/// visible to validators once `published` (the seqlock tag write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub cts: u64,
    pub items: Vec<u64>,
    pub published: bool,
}

/// Where a server-side commit job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Atomic walk of the published ATR prefix above the job's snapshot.
    Validate,
    /// Validated up to local index `target`; waiting for the insert lock
    /// (re-validates if entries appeared since).
    Lock { target: u64 },
    /// Holds the lock; about to take a timestamp from the global counter.
    Reserve,
    /// Writing write-set items into entry `entry` (timestamp `cts`).
    InsertItems { cts: u64, entry: usize },
    /// Publishing entry `entry`'s tag (and bumping `next_local`).
    Publish { cts: u64, entry: usize },
    /// Writing the RESPONSE mailbox and retiring.
    Respond { outcome: Outcome },
}

/// A dispatched commit job. `dup_no` is 0 for normal dispatches and 1 for
/// a batch the `PlainSeqRead` bug re-dispatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub client: usize,
    pub dup_no: u8,
    pub seq: u64,
    pub snapshot: u64,
    pub key: u64,
    pub read_value: u64,
    pub phase: JobPhase,
}

/// One sharded commit server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Server {
    /// Per-client last accepted batch seq (0 = none).
    pub last_seq: Vec<u64>,
    /// Per-client RESPONSE mailbox.
    pub resp: Vec<Option<Resp>>,
    /// Insert lock: the `(client, dup_no)` of the holding job.
    pub lock: Option<(usize, u8)>,
    /// Published entry count (entries `[0, next_local)` are the prefix
    /// validators may walk).
    pub next_local: u64,
    /// The local ATR, in reservation order. Ring recycling applies: entry
    /// `i` is unreadable once `entries.len() - i > atr_capacity`.
    pub entries: Vec<Entry>,
    /// Dispatched jobs, kept sorted by `(client, dup_no)`.
    pub jobs: Vec<Job>,
}

/// Client warp phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPhase {
    /// Between transactions (terminal once the program is exhausted).
    Idle,
    /// Batch shipped; polling the RESPONSE mailbox.
    AwaitResp,
    /// Commit granted; version write-back pending.
    WriteBack,
    /// Write-back done; waiting for the GTS turn.
    GtsWait,
}

/// One client warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Client {
    pub phase: ClientPhase,
    /// Next program index to run (current one while a tx is active).
    pub tx_idx: usize,
    /// Last batch seq shipped to each server. The implementation uses one
    /// monotone per-client counter; the model compresses it to a
    /// per-(client, server) alternation in `{1, 2}`, which preserves the
    /// only predicates the protocol evaluates (equality with the
    /// receiver's `last_seq` and with the response echo). A single
    /// per-client alternation would be wrong: a client hopping between
    /// servers would reuse a seq the other server last accepted.
    pub seqs: Vec<u64>,
    pub snapshot: u64,
    pub key: u64,
    pub read_value: u64,
    /// Granted commit timestamp (WriteBack/GtsWait phases).
    pub cts: u64,
    /// The original REQUEST copy is in flight.
    pub req_inflight: bool,
    /// A fault-injected duplicate REQUEST copy is in flight.
    pub dup_inflight: bool,
}

impl Client {
    /// The seq of the current batch (meaningful while a tx is active).
    pub fn cur_seq(&self, cfg: &ModelConfig) -> u64 {
        self.seqs[cfg.server_of(self.key)]
    }
}

/// What one committed transaction claims (the model's history record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTx {
    pub client: usize,
    pub snapshot: u64,
    pub cts: u64,
    pub key: u64,
    pub read_value: u64,
}

/// The whole explicit state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    pub gts: u64,
    /// Next commit timestamp the global counter will grant (starts at 1).
    pub next_cts: u64,
    pub clients: Vec<Client>,
    pub servers: Vec<Server>,
    /// Written-back versions per key, sorted by cts.
    pub store: Vec<Vec<(u64, u64)>>,
    /// Commit records in server respond order.
    pub committed: Vec<CommittedTx>,
    pub req_drops_left: u8,
    pub req_dups_left: u8,
    pub resp_drops_left: u8,
}

impl State {
    /// The initial state of a model instance.
    pub fn initial(cfg: &ModelConfig) -> State {
        State {
            gts: 0,
            next_cts: 1,
            clients: (0..cfg.num_clients())
                .map(|_| Client {
                    phase: ClientPhase::Idle,
                    tx_idx: 0,
                    seqs: vec![0; cfg.num_servers],
                    snapshot: 0,
                    key: 0,
                    read_value: 0,
                    cts: 0,
                    req_inflight: false,
                    dup_inflight: false,
                })
                .collect(),
            servers: (0..cfg.num_servers)
                .map(|_| Server {
                    last_seq: vec![0; cfg.num_clients()],
                    resp: vec![None; cfg.num_clients()],
                    lock: None,
                    next_local: 0,
                    entries: Vec::new(),
                    jobs: Vec::new(),
                })
                .collect(),
            store: vec![Vec::new(); cfg.num_keys as usize],
            committed: Vec::new(),
            req_drops_left: cfg.max_req_drops,
            req_dups_left: cfg.max_req_dups,
            resp_drops_left: cfg.max_resp_drops,
        }
    }

    /// Have all clients run their whole program?
    pub fn all_done(&self, cfg: &ModelConfig) -> bool {
        self.clients
            .iter()
            .enumerate()
            .all(|(c, cl)| cl.phase == ClientPhase::Idle && cl.tx_idx == cfg.programs[c].len())
    }

    /// Newest written-back value of `key` visible at `snapshot` (0 if
    /// none — all keys start at 0).
    pub fn read_at(&self, key: u64, snapshot: u64) -> u64 {
        self.store[key as usize]
            .iter()
            .rev()
            .find(|&&(cts, _)| cts <= snapshot)
            .map_or(0, |&(_, v)| v)
    }
}

/// One atomic transition of the model. Actions are deterministic: a trace
/// (an action sequence from the initial state) replays to exactly one
/// state, which is what makes counterexamples replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Client snapshots the GTS, reads its key, and ships a REQUEST.
    Begin { client: usize },
    /// Client's recovery timeout fires and it re-posts the REQUEST (only
    /// enabled when the batch or its response was genuinely lost).
    Resend { client: usize },
    /// Fault: the in-flight REQUEST copy is dropped.
    DropReq { client: usize },
    /// Fault: the in-flight REQUEST is duplicated.
    DupReq { client: usize },
    /// Fault: the armed RESPONSE flip is lost (payload survives).
    DropResp { client: usize },
    /// The owning server receives an in-flight REQUEST copy.
    /// `bug_as_fresh` is the `PlainSeqRead` race: the unordered seq read
    /// misclassifies a duplicate as a fresh batch and re-dispatches it.
    Receive {
        client: usize,
        from_dup: bool,
        bug_as_fresh: bool,
    },
    /// Advance server `server`'s `job`-th job by one phase.
    Step { server: usize, job: usize },
    /// Client consumes an armed RESPONSE for its current batch.
    RecvResp { client: usize },
    /// Client appends its granted version to the key's version list.
    WriteBack { client: usize },
    /// Client publishes its batch's GTS value (healthy: only in turn).
    GtsBump { client: usize },
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Action::Begin { client } => write!(f, "client {client}: begin + send"),
            Action::Resend { client } => write!(f, "client {client}: timeout resend"),
            Action::DropReq { client } => write!(f, "fault: drop REQUEST of client {client}"),
            Action::DupReq { client } => write!(f, "fault: duplicate REQUEST of client {client}"),
            Action::DropResp { client } => write!(f, "fault: drop RESPONSE to client {client}"),
            Action::Receive {
                client,
                from_dup,
                bug_as_fresh,
            } => write!(
                f,
                "server receives {}REQUEST of client {client}{}",
                if from_dup { "duplicated " } else { "" },
                if bug_as_fresh {
                    " [stale seq read: re-dispatched]"
                } else {
                    ""
                }
            ),
            Action::Step { server, job } => write!(f, "server {server}: advance job #{job}"),
            Action::RecvResp { client } => write!(f, "client {client}: consume RESPONSE"),
            Action::WriteBack { client } => write!(f, "client {client}: write back version"),
            Action::GtsBump { client } => write!(f, "client {client}: publish GTS"),
        }
    }
}

/// All actions enabled in `s`, in a fixed enumeration order.
pub fn enabled_actions(s: &State, cfg: &ModelConfig) -> Vec<Action> {
    let mut out = Vec::new();
    for (c, cl) in s.clients.iter().enumerate() {
        match cl.phase {
            ClientPhase::Idle => {
                if cl.tx_idx < cfg.programs[c].len() {
                    out.push(Action::Begin { client: c });
                }
            }
            ClientPhase::AwaitResp => {
                let srv = &s.servers[cfg.server_of(cl.key)];
                let armed_match = srv.resp[c]
                    .as_ref()
                    .is_some_and(|r| r.armed && steps::response_certified(r.seq, cl.cur_seq(cfg)));
                if armed_match {
                    out.push(Action::RecvResp { client: c });
                }
                let job_active = srv.jobs.iter().any(|j| j.client == c);
                if !cl.req_inflight && !cl.dup_inflight && !job_active && !armed_match {
                    // The batch or its response was lost: the only route to
                    // progress is the recovery resend.
                    out.push(Action::Resend { client: c });
                }
            }
            ClientPhase::WriteBack => out.push(Action::WriteBack { client: c }),
            ClientPhase::GtsWait => {
                if cfg.mutation == Mutation::SkipGtsWait || steps::gts_turn_reached(s.gts, cl.cts) {
                    out.push(Action::GtsBump { client: c });
                }
            }
        }
        // Fault injections on in-flight messages.
        if cl.req_inflight && s.req_drops_left > 0 {
            out.push(Action::DropReq { client: c });
        }
        if cl.req_inflight && !cl.dup_inflight && s.req_dups_left > 0 {
            out.push(Action::DupReq { client: c });
        }
        if cl.phase == ClientPhase::AwaitResp && s.resp_drops_left > 0 {
            let srv = &s.servers[cfg.server_of(cl.key)];
            if srv.resp[c]
                .as_ref()
                .is_some_and(|r| r.armed && steps::response_certified(r.seq, cl.cur_seq(cfg)))
            {
                out.push(Action::DropResp { client: c });
            }
        }
        // Deliveries.
        for from_dup in [false, true] {
            let inflight = if from_dup {
                cl.dup_inflight
            } else {
                cl.req_inflight
            };
            if !inflight {
                continue;
            }
            out.push(Action::Receive {
                client: c,
                from_dup,
                bug_as_fresh: false,
            });
            let srv = &s.servers[cfg.server_of(cl.key)];
            if cfg.mutation == Mutation::PlainSeqRead
                && steps::is_duplicate_batch(cl.cur_seq(cfg), srv.last_seq[c])
            {
                out.push(Action::Receive {
                    client: c,
                    from_dup,
                    bug_as_fresh: true,
                });
            }
        }
    }
    for (sv, srv) in s.servers.iter().enumerate() {
        for (ji, job) in srv.jobs.iter().enumerate() {
            // A job waiting for the insert lock is only runnable when the
            // lock is free; every other phase is always runnable.
            if matches!(job.phase, JobPhase::Lock { .. }) && srv.lock.is_some() {
                continue;
            }
            out.push(Action::Step {
                server: sv,
                job: ji,
            });
        }
    }
    out
}

/// Apply `a` to `s`. Panics if `a` is not enabled (callers enumerate via
/// [`enabled_actions`] or replay a recorded trace).
pub fn apply(s: &mut State, a: Action, cfg: &ModelConfig) {
    match a {
        Action::Begin { client } => {
            let tx_idx = s.clients[client].tx_idx;
            let key = cfg.programs[client][tx_idx];
            let snapshot = s.gts;
            let read_value = s.read_at(key, snapshot);
            let sv = cfg.server_of(key);
            let cl = &mut s.clients[client];
            cl.seqs[sv] = if cl.seqs[sv] == 1 { 2 } else { 1 };
            cl.snapshot = snapshot;
            cl.key = key;
            cl.read_value = read_value;
            cl.cts = 0;
            cl.req_inflight = true;
            cl.phase = ClientPhase::AwaitResp;
        }
        Action::Resend { client } => {
            s.clients[client].req_inflight = true;
        }
        Action::DropReq { client } => {
            s.clients[client].req_inflight = false;
            s.req_drops_left -= 1;
        }
        Action::DupReq { client } => {
            s.clients[client].dup_inflight = true;
            s.req_dups_left -= 1;
        }
        Action::DropResp { client } => {
            let sv = cfg.server_of(s.clients[client].key);
            let r = s.servers[sv].resp[client]
                .as_mut()
                .expect("DropResp on empty mailbox");
            r.armed = false;
            s.resp_drops_left -= 1;
        }
        Action::Receive {
            client,
            from_dup,
            bug_as_fresh,
        } => {
            let (seq, snapshot, key, read_value) = {
                let cl = &mut s.clients[client];
                if from_dup {
                    cl.dup_inflight = false;
                } else {
                    cl.req_inflight = false;
                }
                (cl.cur_seq(cfg), cl.snapshot, cl.key, cl.read_value)
            };
            let srv = &mut s.servers[cfg.server_of(key)];
            let is_dup = steps::is_duplicate_batch(seq, srv.last_seq[client]);
            if is_dup && !bug_as_fresh {
                // At-most-once dispatch: if a certified response exists,
                // re-arm it (the duplicate is a recovery probe); otherwise
                // the batch is still being processed — swallow the copy.
                if let Some(r) = srv.resp[client].as_mut() {
                    if steps::response_certified(r.seq, seq) {
                        r.armed = true;
                    }
                }
            } else {
                let dup_no = if is_dup {
                    // PlainSeqRead bug: the stale seq read made this
                    // duplicate look fresh; a second job for the same
                    // batch now races the first.
                    1
                } else {
                    srv.last_seq[client] = seq;
                    0
                };
                srv.jobs.push(Job {
                    client,
                    dup_no,
                    seq,
                    snapshot,
                    key,
                    read_value,
                    phase: JobPhase::Validate,
                });
                srv.jobs.sort_by_key(|j| (j.client, j.dup_no));
            }
        }
        Action::Step { server, job } => step_job(s, server, job, cfg),
        Action::RecvResp { client } => {
            let sv = cfg.server_of(s.clients[client].key);
            let outcome = {
                let r = s.servers[sv].resp[client]
                    .as_mut()
                    .expect("RecvResp on empty mailbox");
                r.armed = false;
                r.outcome
            };
            let cl = &mut s.clients[client];
            match outcome {
                Outcome::Commit { cts } => {
                    cl.cts = cts;
                    cl.phase = ClientPhase::WriteBack;
                }
                Outcome::Abort(_) => {
                    // Retry the same transaction from scratch (unbounded,
                    // stateless retries keep the model finite).
                    reset_idle(cl);
                }
            }
        }
        Action::WriteBack { client } => {
            let cl = &mut s.clients[client];
            let (key, cts, value) = (cl.key, cl.cts, cl.read_value + 1);
            cl.phase = ClientPhase::GtsWait;
            let versions = &mut s.store[key as usize];
            let pos = versions.partition_point(|&(c, _)| c < cts);
            versions.insert(pos, (cts, value));
        }
        Action::GtsBump { client } => {
            let cl = &mut s.clients[client];
            // Blind write, exactly like the implementation: under the
            // SkipGtsWait mutation this can regress the GTS.
            s.gts = steps::gts_publish_value(cl.cts, 1);
            cl.tx_idx += 1;
            reset_idle(cl);
        }
    }
}

/// Clear a client's transient per-transaction fields so symmetric idle
/// states collapse to one canonical form.
fn reset_idle(cl: &mut Client) {
    cl.phase = ClientPhase::Idle;
    cl.snapshot = 0;
    cl.key = 0;
    cl.read_value = 0;
    cl.cts = 0;
    cl.req_inflight = false;
    cl.dup_inflight = false;
}

/// Advance one server job a single phase.
fn step_job(s: &mut State, sv: usize, ji: usize, cfg: &ModelConfig) {
    let srv = &mut s.servers[sv];
    let job = srv.jobs[ji].clone();
    match job.phase {
        JobPhase::Validate => {
            let mut outcome = None;
            let mut relevant: Vec<(u64, Vec<u64>)> = Vec::new();
            for (walked, idx) in (0..srv.next_local as usize).rev().enumerate() {
                let e = &srv.entries[idx];
                if e.cts <= job.snapshot {
                    break;
                }
                // Ring recycling: a slot is overwritten once `capacity`
                // further entries have been reserved after it.
                if srv.entries.len() - idx > cfg.atr_capacity as usize
                    || walked as u64 >= cfg.atr_capacity
                {
                    outcome = Some(Outcome::Abort(ModelAbort::Window));
                    break;
                }
                relevant.push((e.items.len() as u64, e.items.clone()));
            }
            if outcome.is_none() && steps::footprint_conflicts([job.key], &relevant) {
                outcome = Some(Outcome::Abort(ModelAbort::Conflict));
            }
            srv.jobs[ji].phase = match outcome {
                Some(o) => JobPhase::Respond { outcome: o },
                None => JobPhase::Lock {
                    target: srv.next_local,
                },
            };
        }
        JobPhase::Lock { target } => {
            debug_assert!(srv.lock.is_none());
            if srv.next_local != target {
                // Entries were published since the walk: revalidate.
                srv.jobs[ji].phase = JobPhase::Validate;
            } else {
                srv.lock = Some((job.client, job.dup_no));
                srv.jobs[ji].phase = JobPhase::Reserve;
            }
        }
        JobPhase::Reserve => {
            let cts = s.next_cts;
            s.next_cts += 1;
            srv.entries.push(Entry {
                cts,
                items: Vec::new(),
                published: false,
            });
            let entry = srv.entries.len() - 1;
            srv.jobs[ji].phase = if cfg.mutation == Mutation::PublishTagFirst {
                JobPhase::Publish { cts, entry }
            } else {
                JobPhase::InsertItems { cts, entry }
            };
        }
        JobPhase::InsertItems { cts, entry } => {
            srv.entries[entry].items = vec![job.key];
            srv.jobs[ji].phase = if cfg.mutation == Mutation::PublishTagFirst {
                // Mutated order: the tag went out first; finishing the
                // items releases the lock and answers the client.
                srv.lock = None;
                JobPhase::Respond {
                    outcome: Outcome::Commit { cts },
                }
            } else {
                JobPhase::Publish { cts, entry }
            };
        }
        JobPhase::Publish { cts, entry } => {
            srv.entries[entry].published = true;
            srv.next_local += 1;
            srv.jobs[ji].phase = if cfg.mutation == Mutation::PublishTagFirst {
                // Mutated order: items are still unwritten; keep the lock.
                JobPhase::InsertItems { cts, entry }
            } else {
                srv.lock = None;
                JobPhase::Respond {
                    outcome: Outcome::Commit { cts },
                }
            };
        }
        JobPhase::Respond { outcome } => {
            srv.resp[job.client] = Some(Resp {
                seq: job.seq,
                outcome,
                armed: true,
            });
            if let Outcome::Commit { cts } = outcome {
                s.committed.push(CommittedTx {
                    client: job.client,
                    snapshot: job.snapshot,
                    cts,
                    key: job.key,
                    read_value: job.read_value,
                });
            }
            srv.jobs.remove(ji);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_greedy(cfg: &ModelConfig) -> State {
        // Depth-first single schedule: always take the first enabled
        // action. Terminates for the healthy model.
        let mut s = State::initial(cfg);
        for _ in 0..10_000 {
            let acts = enabled_actions(&s, cfg);
            match acts.first() {
                None => return s,
                Some(&a) => apply(&mut s, a, cfg),
            }
        }
        panic!("greedy schedule did not terminate");
    }

    #[test]
    fn greedy_schedule_commits_everything() {
        let cfg = ModelConfig::small();
        let s = run_greedy(&cfg);
        assert!(s.all_done(&cfg));
        assert_eq!(s.committed.len(), 4);
        assert_eq!(s.gts, 4);
        assert_eq!(s.next_cts, 5);
        // Both keys incremented twice.
        assert_eq!(s.read_at(0, u64::MAX), 2);
        assert_eq!(s.read_at(1, u64::MAX), 2);
    }

    #[test]
    fn initial_state_is_quiescent() {
        let cfg = ModelConfig::small();
        let s = State::initial(&cfg);
        let acts = enabled_actions(&s, &cfg);
        // Only the two Begins.
        assert_eq!(
            acts,
            vec![Action::Begin { client: 0 }, Action::Begin { client: 1 }]
        );
    }

    #[test]
    fn aborted_client_retries_same_tx() {
        let cfg = ModelConfig::small();
        let mut s = State::initial(&cfg);
        apply(&mut s, Action::Begin { client: 0 }, &cfg);
        let sv = cfg.server_of(s.clients[0].key);
        s.servers[sv].resp[0] = Some(Resp {
            seq: s.clients[0].cur_seq(&cfg),
            outcome: Outcome::Abort(ModelAbort::Conflict),
            armed: true,
        });
        s.clients[0].req_inflight = false;
        apply(&mut s, Action::RecvResp { client: 0 }, &cfg);
        assert_eq!(s.clients[0].phase, ClientPhase::Idle);
        assert_eq!(s.clients[0].tx_idx, 0);
        // The retry flips the seq on the same server.
        apply(&mut s, Action::Begin { client: 0 }, &cfg);
        assert_eq!(s.clients[0].cur_seq(&cfg), 2);
    }
}

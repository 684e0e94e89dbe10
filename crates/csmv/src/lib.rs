//! # csmv — Client-Server Multi-Versioned STM for GPUs
//!
//! The reference implementation of the paper's contribution, on the
//! simulated GPU of [`gpu_sim`]. CSMV decouples transaction *execution*
//! (client warps, spread across the device) from the *commit decision*
//! (a server kernel pinned to one SM), which buys two things:
//!
//! 1. the commit metadata — the Active Transaction Record and its
//!    reservation counter — lives in the server SM's **shared memory**,
//!    turning the global-memory CAS convoys of conventional designs into
//!    cheap on-chip traffic ([`atr::SharedAtr`]);
//! 2. the server can process a client warp's transactions as one **batch**,
//!    enabling the cooperative algorithms of §III-B: collaborative
//!    validation, batched ATR insertion, and single-bump GTS publication.
//!
//! The client side ([`client::CsmvClient`]) adds the complementary
//! mechanisms: intra-warp **pre-validation** over shuffle exchanges,
//! **client-side write-back**, and GTS **turn-taking** (a batch publishes
//! only when every earlier commit has). Read-only transactions never talk
//! to the server at all — they read a consistent snapshot out of the
//! multi-versioned boxes ([`stm_core::vbox`]) and skip commit entirely.
//!
//! The ablation variants of §IV-C are selected via [`CsmvVariant`].
//!
//! ```
//! use csmv::{run, CsmvConfig};
//! use workloads::{BankConfig, BankSource};
//!
//! let mut cfg = CsmvConfig::default();
//! cfg.gpu.num_sms = 4; // 3 client SMs + 1 server SM
//! let bank = BankConfig::small(64, 50);
//! let result = run(
//!     &cfg,
//!     |thread| BankSource::new(&bank, 1, thread, 2),
//!     bank.accounts,
//!     |_| bank.initial_balance,
//! );
//! assert!(result.stats.commits() > 0);
//! stm_core::check_history(&result.records, &bank.initial_state(), true).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod atr;
pub mod check;
pub mod client;
pub mod multi;
pub mod protocol;
pub mod server;
pub mod steps;
pub mod variant;

use gpu_sim::{AnalysisConfig, Device, FaultPlan, GpuConfig, WarpId};
use stm_core::launch::{self, ClientHarvest};
use stm_core::mv_exec::MvExecConfig;
use stm_core::{MetricsReport, RetryPolicy, RunResult, TxSource, VBoxHeap};

pub use atr::SharedAtr;
pub use check::CsmvInvariantChecker;
pub use client::CsmvClient;
pub use multi::{run_multi, run_multi_checked, MultiCsmvConfig};
pub use protocol::CommitProtocol;
pub use server::{ReceiverWarp, ServerControl, WorkerWarp};
pub use variant::CsmvVariant;

/// Configuration of a CSMV launch.
#[derive(Debug, Clone)]
pub struct CsmvConfig {
    /// Device geometry and cost model. The last SM is the server.
    pub gpu: GpuConfig,
    /// Versions retained per VBox (Table V sweeps this).
    pub versions_per_box: u64,
    /// Client warps per client SM (64-thread blocks ⇒ 2).
    pub warps_per_sm: usize,
    /// Worker warps on the server SM (plus one receiver warp).
    pub server_workers: usize,
    /// Read-set capacity per thread (sizes the request payload).
    pub max_rs: usize,
    /// Write-set capacity per thread.
    pub max_ws: usize,
    /// ATR ring capacity in entries — bounded by shared memory; snapshots
    /// older than the ring window abort spuriously.
    pub atr_capacity: u64,
    /// Server dispatch-queue capacity. `None` sizes it to the client count
    /// (the default — one outstanding request per client means it can never
    /// overflow). Smaller values make [`stm_core::AbortReason::ServerQueueFull`]
    /// rejections reachable.
    pub server_queue_cap: Option<usize>,
    /// Record per-transaction histories for the correctness oracle.
    pub record_history: bool,
    /// Which mechanisms are enabled (ablations of §IV-C).
    pub variant: CsmvVariant,
    /// Analysis layer (race detector / protocol-invariant checks); all-off
    /// by default, which leaves the simulator on its zero-cost fast path.
    pub analysis: AnalysisConfig,
    /// Stall watchdog: if every live warp spends more than this many cycles
    /// doing nothing but polling, the run stops and [`run_checked`] returns
    /// [`RunError::Stalled`] instead of hanging silently. `None` disables it.
    pub max_idle_cycles: Option<u64>,
    /// Failure-recovery policy installed on every client warp (response
    /// timeout, bounded exponential backoff, retry budget). Inert by
    /// default, so healthy runs are byte-identical with or without it.
    pub recovery: RetryPolicy,
    /// Seeded fault plan (message drops/delays/duplicates, warp kills,
    /// server-SM crashes). `None` injects nothing.
    pub faults: Option<FaultPlan>,
}

/// A [`CsmvConfig`] that cannot be launched, diagnosed before any device
/// state is allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsmvConfigError {
    /// Multi-server CSMV with `num_servers` zero: nothing could commit.
    NoServers,
    /// CSMV needs at least one client SM beside its server SM(s).
    NotEnoughSms {
        /// Configured SM count.
        num_sms: usize,
    },
    /// `warps_per_sm` is zero: no client would ever run.
    NoClientWarps,
    /// `server_workers` is zero: requests would queue forever.
    NoServerWorkers,
    /// `server_queue_cap` was explicitly set to zero.
    ZeroQueueCap,
    /// The ATR ring plus the dispatch queue exceed a server SM's shared
    /// memory.
    SharedMemoryExhausted {
        /// Words the server-side structures need.
        needed: usize,
        /// Words one SM offers.
        available: usize,
    },
}

impl std::fmt::Display for CsmvConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoServers => write!(f, "num_servers must be at least 1"),
            Self::NotEnoughSms { num_sms } => write!(
                f,
                "CSMV needs at least one client SM beside its server SM(s) (got {num_sms})"
            ),
            Self::NoClientWarps => write!(f, "warps_per_sm must be at least 1"),
            Self::NoServerWorkers => write!(f, "server_workers must be at least 1"),
            Self::ZeroQueueCap => write!(f, "server_queue_cap must be at least 1"),
            Self::SharedMemoryExhausted { needed, available } => write!(
                f,
                "shared memory exhausted on a server SM: \
                 ATR ring + dispatch queue need {needed} words, one SM has {available}"
            ),
        }
    }
}

impl std::error::Error for CsmvConfigError {}

/// A CSMV run that could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configuration was rejected before launch.
    Config(CsmvConfigError),
    /// The stall watchdog interrupted the run: every live warp had been
    /// polling without progress for longer than
    /// [`CsmvConfig::max_idle_cycles`] — the protocol is wedged (e.g. every
    /// retry budget exhausted while a GTS turn is permanently vacant).
    Stalled {
        /// Simulated cycle at which the stall was diagnosed.
        cycle: u64,
        /// Warps that had not retired.
        live_warps: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "{e}"),
            Self::Stalled { cycle, live_warps } => write!(
                f,
                "run stalled at cycle {cycle}: {live_warps} live warp(s) \
                 polling without progress"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Stalled { .. } => None,
        }
    }
}

impl Default for CsmvConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::default(),
            versions_per_box: 4,
            warps_per_sm: 2,
            server_workers: 7,
            max_rs: 64,
            max_ws: 8,
            atr_capacity: 384,
            server_queue_cap: None,
            record_history: true,
            variant: CsmvVariant::Full,
            analysis: AnalysisConfig::default(),
            max_idle_cycles: Some(1_000_000),
            recovery: RetryPolicy::default(),
            faults: None,
        }
    }
}

impl CsmvConfig {
    /// Number of client warps (everything but the server SM runs clients).
    pub fn num_client_warps(&self) -> usize {
        (self.gpu.num_sms - 1) * self.warps_per_sm
    }

    /// Grow the ATR ring to fill whatever shared memory remains on the
    /// server SM after the dispatch queue — larger rings mean fewer
    /// spurious (window-overflow) aborts, so a real deployment always sizes
    /// the ring this way. Call after setting `max_ws` and the geometry.
    pub fn fit_atr_capacity(&mut self) {
        let ctl_words = 3 + self.num_client_warps().max(1);
        let free = self.gpu.shared_words_per_sm.saturating_sub(ctl_words + 1);
        self.atr_capacity = (free / (2 + self.max_ws)).max(4) as u64;
    }

    /// Total client threads.
    pub fn num_threads(&self) -> usize {
        self.num_client_warps() * gpu_sim::WARP_LANES
    }

    /// Effective dispatch-queue capacity.
    fn queue_cap(&self) -> usize {
        self.server_queue_cap
            .unwrap_or_else(|| self.num_client_warps().max(1))
    }

    /// Check that this configuration can launch, without allocating any
    /// device state. [`run_checked`] calls this first; launching an invalid
    /// config through [`run`] panics with the same diagnosis.
    pub fn validate(&self) -> Result<(), CsmvConfigError> {
        if self.server_queue_cap == Some(0) {
            return Err(CsmvConfigError::ZeroQueueCap);
        }
        // The server SM holds the ATR ring (1 + capacity·(2 + max_ws)
        // words) and the control block (3 words + the dispatch queue).
        validate_launch(&self.gpu, 1, self.warps_per_sm, self.server_workers, || {
            1 + self.atr_capacity as usize * (2 + self.max_ws) + 3 + self.queue_cap()
        })
    }
}

/// The checks every CSMV launch shares: at least one server SM and one
/// client SM beside the `server_sms`, client and worker warps to run, and
/// `server_words()` words of server-side structures that fit one SM's
/// shared memory (asked only once the geometry is known to be sound).
fn validate_launch(
    gpu: &GpuConfig,
    server_sms: usize,
    warps_per_sm: usize,
    server_workers: usize,
    server_words: impl FnOnce() -> usize,
) -> Result<(), CsmvConfigError> {
    if server_sms == 0 {
        return Err(CsmvConfigError::NoServers);
    }
    if gpu.num_sms <= server_sms {
        return Err(CsmvConfigError::NotEnoughSms {
            num_sms: gpu.num_sms,
        });
    }
    if warps_per_sm == 0 {
        return Err(CsmvConfigError::NoClientWarps);
    }
    if server_workers == 0 {
        return Err(CsmvConfigError::NoServerWorkers);
    }
    let needed = server_words();
    if needed > gpu.shared_words_per_sm {
        return Err(CsmvConfigError::SharedMemoryExhausted {
            needed,
            available: gpu.shared_words_per_sm,
        });
    }
    Ok(())
}

/// Run a workload to completion on CSMV.
///
/// * `make_source(thread_id)` builds each client thread's transaction
///   stream;
/// * `num_items` / `initial(item)` describe the transactional heap.
pub fn run<S, F>(
    cfg: &CsmvConfig,
    make_source: F,
    num_items: u64,
    initial: impl FnMut(u64) -> u64,
) -> RunResult
where
    S: TxSource + 'static,
    F: FnMut(usize) -> S,
{
    run_checked(cfg, make_source, num_items, initial).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run`], but with launch-time configuration errors and watchdog-diagnosed
/// stalls reported as values instead of panics.
pub fn run_checked<S, F>(
    cfg: &CsmvConfig,
    make_source: F,
    num_items: u64,
    initial: impl FnMut(u64) -> u64,
) -> Result<RunResult, RunError>
where
    S: TxSource + 'static,
    F: FnMut(usize) -> S,
{
    cfg.validate().map_err(RunError::Config)?;
    let server_sm = cfg.gpu.num_sms - 1;
    let num_clients = cfg.num_client_warps();
    let Launch {
        mut dev,
        gts_addr,
        done_addr,
        heap,
        payload: proto,
        ..
    } = Launch::new(
        &cfg.gpu,
        0,
        (num_items, cfg.versions_per_box, initial),
        (num_clients, cfg.max_rs, cfg.max_ws),
    );
    let atr = SharedAtr::alloc(&mut dev, server_sm, cfg.atr_capacity, cfg.max_ws);
    let ctl = ServerControl::alloc_with_queue(&mut dev, server_sm, cfg.queue_cap());
    // next_cts starts at 1 (commit timestamps are 1-based; GTS starts at 0).
    dev.shared_write_host(server_sm, atr.next_cts_addr(), 1);
    launch::arm(&mut dev, &cfg.faults, cfg.max_idle_cycles, cfg.analysis);
    if cfg.analysis.invariants {
        dev.add_invariant_checker(Box::new(check::CsmvInvariantChecker::single(
            atr.clone(),
            heap.clone(),
            gts_addr,
            server_sm,
        )));
    }

    let exec_cfg = MvExecConfig::new(cfg.record_history, &cfg.recovery);
    let clients = launch::spawn_clients(
        &mut dev,
        server_sm,
        cfg.warps_per_sm,
        make_source,
        |_, sources, thread_base, slot| {
            let mut client = CsmvClient::new(
                sources,
                thread_base,
                exec_cfg.clone(),
                heap.clone(),
                proto.clone(),
                slot,
                gts_addr,
                done_addr,
                cfg.variant,
            );
            client.set_recovery(cfg.recovery.clone());
            client
        },
    );

    let receiver = ReceiverWarp::new(proto.clone(), ctl.clone(), num_clients, done_addr);
    let mut servers = vec![dev.spawn(server_sm, Box::new(receiver))];
    for _ in 0..cfg.server_workers {
        let worker = WorkerWarp::new(
            proto.clone(),
            ctl.clone(),
            atr.clone(),
            heap.clone(),
            gts_addr,
            cfg.variant,
        );
        servers.push(dev.spawn(server_sm, Box::new(worker)));
    }
    finish(
        dev,
        &servers,
        &clients,
        |w: &WorkerWarp| &w.metrics,
        |c: &mut CsmvClient<S>| c.exec.harvest(),
    )
}

/// What every CSMV launch allocates the same way, in this order: the GTS
/// and the done counter, the host's own `extra` global words, the heap,
/// and the request payload region.
struct Launch {
    dev: Device,
    gts_addr: u64,
    done_addr: u64,
    /// The first of the host's own global words.
    extra_addr: u64,
    heap: VBoxHeap,
    /// One read/write-set area per client warp.
    payload: CommitProtocol,
}

impl Launch {
    /// Lay out a device for `gpu`: a heap of `num_items` boxes of
    /// `versions_per_box` versions initialised by `initial`, and the payload
    /// of `num_clients` warps of `max_rs`/`max_ws` entries per lane.
    fn new(
        gpu: &GpuConfig,
        extra: usize,
        (num_items, versions_per_box, mut initial): (u64, u64, impl FnMut(u64) -> u64),
        (num_clients, max_rs, max_ws): (usize, usize, usize),
    ) -> Self {
        let mut dev = Device::new(gpu.clone());
        let gts_addr = dev.alloc_global(1);
        let done_addr = dev.alloc_global(1);
        let extra_addr = dev.alloc_global(extra);
        let heap = VBoxHeap::init(dev.global_mut(), num_items, versions_per_box, &mut initial);
        let payload = CommitProtocol::alloc(dev.global_mut(), num_clients, max_rs, max_ws);
        Self {
            dev,
            gts_addr,
            done_addr,
            extra_addr,
            heap,
            payload,
        }
    }
}

/// Run the device and harvest the clients through `harvest`, then the
/// server warps (workers of type `W`, or receivers) in `servers` order.
fn finish<W: 'static, C: 'static>(
    mut dev: Device,
    servers: &[WarpId],
    clients: &[WarpId],
    worker_metrics: fn(&W) -> &MetricsReport,
    harvest: fn(&mut C) -> ClientHarvest,
) -> Result<RunResult, RunError> {
    let mut result =
        launch::finish(&mut dev, clients, harvest).map_err(|stall| RunError::Stalled {
            cycle: stall.cycle,
            live_warps: stall.live_warps,
        })?;
    for &id in servers {
        result.server_breakdown.add_warp(dev.warp_stats(id));
        match dev.take_program(id).downcast::<W>() {
            Ok(worker) => result.metrics.merge(worker_metrics(&worker)),
            Err(prog) => {
                let receiver = prog
                    .downcast::<ReceiverWarp>()
                    .expect("server program type");
                result.metrics.merge(&receiver.metrics);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use stm_core::{check_history, AbortReason, Phase, TxLogic, TxOp};
    use workloads::{BankConfig, BankSource};

    fn small_cfg(variant: CsmvVariant) -> CsmvConfig {
        let gpu = GpuConfig {
            num_sms: 5,
            ..Default::default()
        }; // 4 client SMs + server
        CsmvConfig {
            gpu,
            variant,
            server_workers: 3,
            ..Default::default()
        }
    }

    fn bank_run(
        variant: CsmvVariant,
        rot_pct: u8,
        seed: u64,
    ) -> (CsmvConfig, BankConfig, RunResult) {
        let cfg = small_cfg(variant);
        let bank = BankConfig::small(64, rot_pct);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, seed, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        );
        (cfg, bank, res)
    }

    fn assert_correct(cfg: &CsmvConfig, bank: &BankConfig, res: &RunResult, txs_per_thread: usize) {
        assert_eq!(
            res.stats.commits(),
            (cfg.num_threads() * txs_per_thread) as u64,
            "every transaction must eventually commit"
        );
        let initial: HashMap<u64, u64> = bank.initial_state();
        check_history(&res.records, &initial, true).expect("opaque history");
        let mut heap = initial;
        let mut updates: Vec<_> = res.records.iter().filter(|r| r.cts.is_some()).collect();
        updates.sort_by_key(|r| r.cts.unwrap());
        // Commit timestamps must be dense 1..=n (no gaps — the GTS
        // turn-taking protocol relies on it).
        for (i, r) in updates.iter().enumerate() {
            assert_eq!(r.cts.unwrap(), i as u64 + 1, "cts must be dense");
        }
        for r in updates {
            for &(item, value) in &r.writes {
                heap.insert(item, value);
            }
        }
        assert_eq!(heap.values().sum::<u64>(), bank.total_balance());
    }

    #[test]
    fn full_variant_bank_is_correct() {
        let (cfg, bank, res) = bank_run(CsmvVariant::Full, 30, 42);
        assert_correct(&cfg, &bank, &res, 3);
        // The server actually did validation work.
        assert!(res.server_breakdown.phase(Phase::Validation) > 0);
        // Clients never validate on their own in CSMV.
        assert_eq!(res.client_breakdown.phase(Phase::Validation), 0);
        // Pre-validation ran on the clients.
        assert!(res.client_breakdown.phase(Phase::PreValidation) > 0);
    }

    #[test]
    fn full_bank_finishes_under_a_tight_watchdog() {
        // A 500 000-cycle watchdog turns a stall of this run into
        // `RunError::Stalled` instead of a hang.
        let cfg = CsmvConfig {
            max_idle_cycles: Some(500_000),
            ..small_cfg(CsmvVariant::Full)
        };
        let bank = BankConfig::small(64, 30);
        let res = run_checked(
            &cfg,
            |t| BankSource::new(&bank, 42, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        );
        let res = res.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(res.stats.commits(), (cfg.num_threads() * 3) as u64);
    }

    #[test]
    fn nocv_variant_bank_is_correct() {
        let (cfg, bank, res) = bank_run(CsmvVariant::NoCv, 30, 43);
        assert_correct(&cfg, &bank, &res, 3);
    }

    #[test]
    fn onlycs_variant_bank_is_correct() {
        let (cfg, bank, res) = bank_run(CsmvVariant::OnlyCs, 30, 44);
        assert_correct(&cfg, &bank, &res, 3);
        // OnlyCs: the server performs the write-back.
        assert!(res.server_breakdown.phase(Phase::WriteBack) > 0);
        assert_eq!(res.client_breakdown.phase(Phase::PreValidation), 0);
    }

    #[test]
    fn rot_only_workload_never_contacts_server_for_commit() {
        let (cfg, bank, res) = bank_run(CsmvVariant::Full, 100, 45);
        assert_correct(&cfg, &bank, &res, 3);
        assert_eq!(res.stats.aborts(), 0);
        // No update transactions ⇒ the server never validated anything.
        assert_eq!(res.server_breakdown.phase(Phase::Validation), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = bank_run(CsmvVariant::Full, 20, 7).2;
        let b = bank_run(CsmvVariant::Full, 20, 7).2;
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.stats, b.stats);
    }

    /// All threads increment one counter: maximal contention, pre-validation
    /// and server validation both fire constantly.
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
    impl stm_core::TxSource for Once {
        type Tx = Incr;
        fn next_tx(&mut self) -> Option<Incr> {
            self.0.take()
        }
    }

    #[test]
    fn contended_counter_is_exact_on_all_variants() {
        for variant in [CsmvVariant::Full, CsmvVariant::NoCv, CsmvVariant::OnlyCs] {
            let mut cfg = small_cfg(variant);
            cfg.versions_per_box = 8;
            let res = run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
            let n = cfg.num_threads() as u64;
            assert_eq!(res.stats.update_commits, n, "variant {variant:?}");
            check_history(&res.records, &HashMap::new(), true)
                .unwrap_or_else(|e| panic!("variant {variant:?}: {e}"));
            let max_write = res
                .records
                .iter()
                .filter_map(|r| r.cts.map(|c| (c, r.writes[0].1)))
                .max()
                .map(|(_, v)| v)
                .unwrap();
            assert_eq!(max_write, n, "variant {variant:?}");
        }
    }

    #[test]
    fn atr_window_overflow_causes_spurious_aborts_but_stays_correct() {
        // A tiny ATR ring forces snapshots out of the validation window.
        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.atr_capacity = 4;
        cfg.versions_per_box = 16;
        let bank = BankConfig::small(16, 0);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 9, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert_eq!(res.stats.commits(), (cfg.num_threads() * 2) as u64);
        check_history(&res.records, &bank.initial_state(), true).expect("opaque history");
        // The spurious aborts must be attributed to the window, not to
        // genuine read-validation conflicts.
        assert!(
            res.metrics.aborts.count(AbortReason::AtrWindowOverflow) > 0,
            "window aborts must be classified: {:?}",
            res.metrics.aborts
        );
    }

    // -- abort-reason taxonomy: each reason reachable by construction -------

    /// Metrics must agree with the commit/abort counters: every abort has a
    /// reason and a latency sample, every commit a latency sample.
    fn assert_metrics_consistent(res: &RunResult) {
        assert_eq!(res.metrics.aborts.total(), res.stats.aborts());
        assert_eq!(res.metrics.abort_latency.count(), res.stats.aborts());
        assert_eq!(res.metrics.commit_latency.count(), res.stats.commits());
    }

    #[test]
    fn preval_kills_are_attributed_on_full_variant() {
        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.versions_per_box = 8;
        let res = run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
        assert_metrics_consistent(&res);
        // Every warp submits 32 lanes writing item 0: intra-warp
        // pre-validation must kill lanes before the server sees them.
        assert!(res.metrics.aborts.count(AbortReason::PreValidationKill) > 0);
        // The server still sees batches; their sizes were recorded.
        assert!(res.metrics.batch_sizes.count() > 0);
        assert!(!res.metrics.atr_occupancy.is_empty());
        assert!(!res.metrics.gts_stall.is_empty());
    }

    #[test]
    fn server_conflicts_are_read_validation_on_onlycs_variant() {
        // OnlyCs disables pre-validation, so the same all-lanes-increment
        // conflict is discovered by the server's validation instead.
        let mut cfg = small_cfg(CsmvVariant::OnlyCs);
        cfg.versions_per_box = 8;
        let res = run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
        assert_metrics_consistent(&res);
        assert_eq!(res.metrics.aborts.count(AbortReason::PreValidationKill), 0);
        assert!(res.metrics.aborts.count(AbortReason::ReadValidation) > 0);
    }

    #[test]
    fn server_queue_full_rejections_are_attributed_and_correct() {
        // A one-entry dispatch queue cannot hold every client's request, so
        // the receiver must reject overflowing batches with ServerQueueFull;
        // the rejected clients retry until the queue drains.
        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.server_queue_cap = Some(1);
        cfg.versions_per_box = 16;
        let bank = BankConfig::small(64, 0);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 21, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert_eq!(res.stats.commits(), (cfg.num_threads() * 2) as u64);
        check_history(&res.records, &bank.initial_state(), true).expect("opaque history");
        assert_metrics_consistent(&res);
        assert!(
            res.metrics.aborts.count(AbortReason::ServerQueueFull) > 0,
            "a 1-entry queue must reject batches: {:?}",
            res.metrics.aborts
        );
    }

    #[test]
    fn invalid_configs_are_rejected_before_launch() {
        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.gpu.num_sms = 1;
        assert_eq!(
            cfg.validate(),
            Err(CsmvConfigError::NotEnoughSms { num_sms: 1 })
        );

        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.server_queue_cap = Some(0);
        assert_eq!(cfg.validate(), Err(CsmvConfigError::ZeroQueueCap));

        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.warps_per_sm = 0;
        assert_eq!(cfg.validate(), Err(CsmvConfigError::NoClientWarps));

        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.atr_capacity = 1 << 30;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, CsmvConfigError::SharedMemoryExhausted { .. }));
        // The message run() panics with keeps the historical wording.
        assert!(err.to_string().contains("shared memory exhausted"));

        assert_eq!(small_cfg(CsmvVariant::Full).validate(), Ok(()));
    }

    #[test]
    fn message_faults_with_recovery_preserve_correctness() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let mut cfg = small_cfg(CsmvVariant::Full);
        let spec: FaultSpec = "drop_req=0.2,drop_resp=0.2,dup_req=0.1,delay_req=0.3x200"
            .parse()
            .unwrap();
        cfg.faults = Some(FaultPlan::new(0xFA01, spec));
        cfg.recovery = stm_core::RetryPolicy {
            resp_timeout: Some(20_000),
            max_send_attempts: 16,
            backoff_base: 64,
            backoff_cap: 4096,
            jitter_seed: 7,
            ..Default::default()
        };
        let bank = BankConfig::small(64, 20);
        let res = run_checked(
            &cfg,
            |t| BankSource::new(&bank, 11, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        )
        .expect("recovery must keep the run live");
        let total = (cfg.num_threads() * 3) as u64;
        assert_eq!(
            res.stats.commits() + res.stats.failed,
            total,
            "every transaction must commit or fail terminally"
        );
        assert!(
            res.metrics.faults.total() > 0,
            "the plan must actually inject faults: {:?}",
            res.metrics.faults
        );
        check_history(&res.records, &bank.initial_state(), true).expect("opaque history");
        assert_metrics_consistent(&res);
    }

    #[test]
    fn version_overflow_is_attributed_with_single_version_boxes() {
        // One version per box: laggard snapshots fall off the version ring
        // during execution and abort with snapshot-too-old.
        let mut cfg = small_cfg(CsmvVariant::Full);
        cfg.versions_per_box = 1;
        let res = run(&cfg, |_| Once(Some(Incr { step: 0, seen: 0 })), 4, |_| 0);
        assert_metrics_consistent(&res);
        assert!(res.metrics.aborts.count(AbortReason::VersionOverflow) > 0);
    }
}

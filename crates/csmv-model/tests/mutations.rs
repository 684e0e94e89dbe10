//! Seeded-mutation validation: each protocol mutation the model supports
//! must (a) produce a counterexample within the CI exploration bound, and
//! (b) be confirmed on the *real* `csmv` simulator through the matching
//! `seeded-bugs` injection hook. The healthy model stays clean under the
//! same bounds — the model only reports bugs that are really there.

use csmv_model::{confirm, explore, replay, ExploreConfig, ModelConfig, Mutation, Violation};

// ---------------------------------------------------------------------------
// Model-side detection (satellite 2a): every mutation is found exhaustively
// within the CI depth bound, and its counterexample replays.
// ---------------------------------------------------------------------------

#[test]
fn healthy_small_scope_is_clean() {
    let cfg = ModelConfig::small();
    let res = explore(&cfg, &ExploreConfig::default());
    assert!(res.counterexample.is_none(), "{:?}", res.counterexample);
    assert!(
        !res.truncated,
        "the clean instance must explore exhaustively"
    );
    assert!(res.terminal_states > 0);
}

#[test]
fn model_finds_skip_gts_wait() {
    let cfg = ModelConfig {
        mutation: Mutation::SkipGtsWait,
        ..ModelConfig::small()
    };
    let res = explore(&cfg, &ExploreConfig::default());
    let cx = res.counterexample.expect("skip-gts-wait must be detected");
    assert!(
        matches!(cx.violation, Violation::GtsOutOfTurn { .. }),
        "expected an out-of-turn GTS bump, got {}",
        cx.violation
    );
    // The counterexample must replay and re-derive the same violation
    // class independently of the explorer.
    let confirmed = confirm(&cfg, &cx.trace).expect("trace must confirm");
    assert!(matches!(confirmed, Violation::GtsOutOfTurn { .. }));
}

#[test]
fn model_finds_publish_tag_first() {
    let cfg = ModelConfig {
        mutation: Mutation::PublishTagFirst,
        ..ModelConfig::small()
    };
    let res = explore(&cfg, &ExploreConfig::default());
    let cx = res
        .counterexample
        .expect("publish-tag-first must be detected");
    assert!(
        matches!(
            cx.violation,
            Violation::History(_) | Violation::MvsgCycle(_)
        ),
        "expected an opacity violation (missed conflict), got {}",
        cx.violation
    );
    let confirmed = confirm(&cfg, &cx.trace).expect("trace must confirm");
    assert!(matches!(
        confirmed,
        Violation::History(_) | Violation::MvsgCycle(_)
    ));
}

#[test]
fn model_finds_plain_seq_read() {
    // The unordered seq read only misbehaves against a duplicated request
    // (a recovery re-post racing the sweep), so this instance needs a
    // message-fault budget; one transaction per client keeps the faulty
    // space within the CI bound.
    let cfg = ModelConfig {
        mutation: Mutation::PlainSeqRead,
        programs: vec![vec![0], vec![1]],
        ..ModelConfig::small_with_faults()
    };
    let res = explore(&cfg, &ExploreConfig::default());
    let cx = res.counterexample.expect("plain-seq-read must be detected");
    // The stale-seq misclassification strands a reservation: the run either
    // wedges outright or spins forever without the GTS line filling in.
    assert!(
        matches!(
            cx.violation,
            Violation::Livelock | Violation::Deadlock | Violation::GtsGap { .. }
        ),
        "expected a stranded-timestamp liveness failure, got {}",
        cx.violation
    );
    // Lasso prefixes replay even when there is no safety violation to
    // confirm at a single state.
    replay(&cfg, &cx.trace).expect("counterexample prefix must replay");
    if matches!(cx.violation, Violation::Livelock) {
        assert!(!cx.cycle.is_empty(), "a livelock lasso must carry a cycle");
    }
}

#[test]
fn every_mutation_is_detected_and_named() {
    // The mutation list the CI job iterates: names round-trip and each one
    // is covered by a dedicated detection test above.
    for m in Mutation::ALL {
        assert_eq!(Mutation::from_name(m.name()), Some(m));
    }
    assert_eq!(Mutation::ALL.len(), 3);
}

// ---------------------------------------------------------------------------
// Real-simulator replay (satellite 2b): the same three bugs, injected into
// the actual `csmv` implementation via its `seeded-bugs` hooks, are caught
// by the corresponding dynamic checker. The model's abstract counterexample
// and the simulator's concrete detection bracket the same defect.
// ---------------------------------------------------------------------------

mod real {
    use csmv::{
        CommitProtocol, CsmvClient, CsmvConfig, CsmvInvariantChecker, CsmvVariant, ReceiverWarp,
        ServerControl, SharedAtr, WorkerWarp,
    };
    use gpu_sim::fault::{FaultPlan, FaultSpec};
    use gpu_sim::{AnalysisConfig, Device, GpuConfig};
    use stm_core::mv_exec::MvExecConfig;
    use stm_core::{RetryPolicy, VBoxHeap};
    use workloads::{BankConfig, BankSource};

    /// Which seeded bug to arm in the manual launch below.
    #[derive(Clone, Copy, PartialEq)]
    enum Inject {
        SkipGtsWait,
        PlainSeqRead,
        PublishTagFirst,
    }

    struct Launch {
        dev: Device,
        client_ids: Vec<gpu_sim::WarpId>,
    }

    /// Manual CSMV launch mirroring `csmv::run`, with one seeded bug armed.
    /// (`csmv::run` builds its warps internally, so injection needs the
    /// long-hand construction.)
    fn launch(
        cfg: &CsmvConfig,
        bank: &BankConfig,
        txs: usize,
        seed: u64,
        inject: Inject,
        recovery: Option<RetryPolicy>,
    ) -> Launch {
        let server_sm = cfg.gpu.num_sms - 1;
        let num_clients = cfg.num_client_warps();
        let mut dev = Device::new(cfg.gpu.clone());
        let gts_addr = dev.alloc_global(1);
        let done_addr = dev.alloc_global(1);
        let heap = VBoxHeap::init(
            dev.global_mut(),
            bank.accounts,
            cfg.versions_per_box,
            |_| bank.initial_balance,
        );
        let proto = CommitProtocol::alloc(dev.global_mut(), num_clients, cfg.max_rs, cfg.max_ws);
        let atr = SharedAtr::alloc(&mut dev, server_sm, cfg.atr_capacity, cfg.max_ws);
        let ctl = ServerControl::alloc(&mut dev, server_sm, num_clients);
        dev.shared_write_host(server_sm, atr.next_cts_addr(), 1);
        if let Some(plan) = &cfg.faults {
            dev.set_fault_plan(plan.clone());
        }
        if let Some(max_idle) = cfg.max_idle_cycles {
            dev.set_watchdog(max_idle);
        }
        dev.enable_analysis(cfg.analysis);
        if cfg.analysis.invariants {
            dev.add_invariant_checker(Box::new(CsmvInvariantChecker::single(
                atr.clone(),
                heap.clone(),
                gts_addr,
                server_sm,
            )));
        }

        let mut client_ids = Vec::new();
        let mut thread_id = 0usize;
        let mut slot = 0usize;
        for sm in 0..server_sm {
            for _ in 0..cfg.warps_per_sm {
                let sources: Vec<BankSource> = (0..gpu_sim::WARP_LANES)
                    .map(|i| BankSource::new(bank, seed, thread_id + i, txs))
                    .collect();
                let exec_cfg = MvExecConfig {
                    record_history: true,
                    ..MvExecConfig::default()
                };
                let mut client = CsmvClient::new(
                    sources,
                    thread_id,
                    exec_cfg,
                    heap.clone(),
                    proto.clone(),
                    slot,
                    gts_addr,
                    done_addr,
                    cfg.variant,
                );
                if let Some(policy) = &recovery {
                    client.set_recovery(policy.clone());
                }
                if inject == Inject::SkipGtsWait && slot == num_clients - 1 {
                    client.inject_skip_gts_wait();
                }
                client_ids.push(dev.spawn(sm, Box::new(client)));
                thread_id += gpu_sim::WARP_LANES;
                slot += 1;
            }
        }
        let mut receiver = ReceiverWarp::new(proto.clone(), ctl.clone(), num_clients, done_addr);
        if inject == Inject::PlainSeqRead {
            receiver.inject_plain_seq_read();
        }
        dev.spawn(server_sm, Box::new(receiver));
        for _ in 0..cfg.server_workers {
            let mut worker = WorkerWarp::new(
                proto.clone(),
                ctl.clone(),
                atr.clone(),
                heap.clone(),
                gts_addr,
                cfg.variant,
            );
            if inject == Inject::PublishTagFirst {
                worker.inject_publish_tag_first();
            }
            dev.spawn(server_sm, Box::new(worker));
        }
        Launch { dev, client_ids }
    }

    fn analysed_cfg() -> CsmvConfig {
        CsmvConfig {
            gpu: GpuConfig {
                num_sms: 4,
                ..Default::default()
            },
            variant: CsmvVariant::Full,
            server_workers: 3,
            analysis: AnalysisConfig {
                races: true,
                invariants: true,
            },
            ..Default::default()
        }
    }

    /// The model's `SkipGtsWait` counterexample, replayed on the real
    /// simulator: the protocol-invariant checker flags the first
    /// out-of-turn GTS bump.
    #[test]
    fn skip_gts_wait_replays_on_simulator() {
        let cfg = analysed_cfg();
        let bank = BankConfig::small(64, 0); // all-update workload
        let mut l = launch(&cfg, &bank, 4, 7, Inject::SkipGtsWait, None);
        for _ in 0..50_000_000u64 {
            if l.dev.analysis().is_some_and(|a| a.violation_count() > 0) {
                let v = &l.dev.analysis().unwrap().violations()[0];
                assert_eq!(v.checker, "csmv");
                assert!(
                    v.message.contains("out of turn") || v.message.contains("turn-taking"),
                    "unexpected violation: {v}"
                );
                return;
            }
            if l.dev.live_warps() == 0 {
                panic!("run completed without the seeded bug being detected");
            }
            l.dev.step_once();
        }
        panic!("run neither finished nor produced a violation");
    }

    /// The model's `PlainSeqRead` counterexample, replayed on the real
    /// simulator: under a fault plan that forces recovery re-posts, the
    /// race detector flags the receiver's unordered seq-word read racing
    /// the client's re-send.
    #[test]
    fn plain_seq_read_replays_on_simulator() {
        let mut cfg = analysed_cfg();
        cfg.faults = Some(FaultPlan::new(
            0xC5C5,
            FaultSpec {
                drop_req: 0.2,
                drop_resp: 0.2,
                ..Default::default()
            },
        ));
        let recovery = RetryPolicy {
            resp_timeout: Some(10_000),
            max_send_attempts: 16,
            backoff_base: 64,
            backoff_cap: 4096,
            jitter_seed: 0x5EED,
            ..Default::default()
        };
        let bank = BankConfig::small(64, 0);
        let mut l = launch(&cfg, &bank, 3, 11, Inject::PlainSeqRead, Some(recovery));
        for _ in 0..100_000_000u64 {
            if l.dev.analysis().is_some_and(|a| a.race_count() > 0) {
                return; // the unordered read raced a re-post, as modeled
            }
            if l.dev.live_warps() == 0 {
                panic!("run completed without the race being detected");
            }
            l.dev.step_once();
        }
        panic!("run neither finished nor produced a race");
    }

    /// The model's `PublishTagFirst` counterexample, replayed on the real
    /// simulator: the broken seqlock publication order lets validators miss
    /// conflicts, which the end-of-run opacity oracle rejects.
    #[test]
    fn publish_tag_first_replays_on_simulator() {
        let mut cfg = analysed_cfg();
        cfg.analysis = AnalysisConfig::default(); // oracle-only detection
        let bank = BankConfig::small(8, 0); // tiny heap: maximal conflicts
        let txs = 4;
        let mut l = launch(&cfg, &bank, txs, 21, Inject::PublishTagFirst, None);
        l.dev.run_to_completion();
        let mut records = Vec::new();
        for id in l.client_ids {
            let mut client = l
                .dev
                .take_program(id)
                .downcast::<CsmvClient<BankSource>>()
                .expect("client program type");
            records.append(&mut client.exec.harvest().2);
        }
        let err = stm_core::check_history(&records, &bank.initial_state(), true);
        assert!(
            err.is_err(),
            "the seeded publication-order bug must break opacity \
             (history unexpectedly clean over {} records)",
            records.len()
        );
    }
}

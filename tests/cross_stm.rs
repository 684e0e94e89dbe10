//! Cross-crate integration tests: every STM implementation runs the same
//! seeded workloads; the history oracle and the workload invariants must
//! hold on all of them.

use std::collections::HashMap;

use gpu_sim::GpuConfig;
use stm_core::check_history;
use stm_core::history::TxRecord;
use workloads::memcached::{FIELDS_PER_SLOT, F_KEY, F_VALUE};
use workloads::{BankConfig, BankSource, MemcachedConfig, MemcachedSource, Zipfian};

fn gpu(sms: usize) -> GpuConfig {
    GpuConfig {
        num_sms: sms,
        ..GpuConfig::default()
    }
}

/// Replay committed writes in cts order over the initial state.
fn replay(records: &[TxRecord], initial: &HashMap<u64, u64>) -> HashMap<u64, u64> {
    stm_core::history::replay_committed(records, initial)
}

fn assert_bank_invariant(records: &[TxRecord], bank: &BankConfig) {
    let heap = replay(records, &bank.initial_state());
    assert_eq!(
        heap.values().sum::<u64>(),
        bank.total_balance(),
        "balance conservation"
    );
}

// ---------------------------------------------------------------------------
// Bank on every STM
// ---------------------------------------------------------------------------

#[test]
fn bank_on_csmv_all_variants() {
    let bank = BankConfig::small(96, 40);
    for variant in [
        csmv::CsmvVariant::Full,
        csmv::CsmvVariant::NoCv,
        csmv::CsmvVariant::OnlyCs,
    ] {
        let cfg = csmv::CsmvConfig {
            gpu: gpu(4),
            variant,
            ..Default::default()
        };
        let res = csmv::run(
            &cfg,
            |t| BankSource::new(&bank, 1, t, 3),
            bank.accounts,
            |_| bank.initial_balance,
        );
        assert_eq!(
            res.stats.commits(),
            (cfg.num_threads() * 3) as u64,
            "{variant:?}"
        );
        check_history(&res.records, &bank.initial_state(), true)
            .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        assert_bank_invariant(&res.records, &bank);
    }
}

#[test]
fn bank_on_jvstm_gpu() {
    let bank = BankConfig::small(96, 40);
    let cfg = jvstm_gpu::JvstmGpuConfig {
        gpu: gpu(4),
        atr_capacity: 4096,
        ..Default::default()
    };
    let res = jvstm_gpu::run(
        &cfg,
        |t| BankSource::new(&bank, 1, t, 3),
        bank.accounts,
        |_| bank.initial_balance,
    );
    assert_eq!(res.stats.commits(), (cfg.num_threads() * 3) as u64);
    check_history(&res.records, &bank.initial_state(), true).expect("opaque");
    assert_bank_invariant(&res.records, &bank);
}

#[test]
fn bank_on_prstm() {
    let bank = BankConfig::small(96, 40);
    let cfg = prstm::PrstmConfig {
        gpu: gpu(4),
        max_rs: 128,
        ..Default::default()
    };
    let res = prstm::run(
        &cfg,
        |t| BankSource::new(&bank, 1, t, 3),
        bank.accounts,
        |_| bank.initial_balance,
    );
    assert_eq!(res.stats.commits(), (cfg.num_threads() * 3) as u64);
    check_history(&res.records, &bank.initial_state(), false).expect("serializable");
    assert_bank_invariant(&res.records, &bank);
}

#[test]
fn bank_on_jvstm_cpu() {
    let bank = BankConfig::small(96, 40);
    let cfg = jvstm_cpu::JvstmCpuConfig {
        threads: 6,
        record_history: true,
    };
    let res = jvstm_cpu::run(
        &cfg,
        |t| BankSource::new(&bank, 1, t, 40),
        bank.accounts,
        |_| bank.initial_balance,
    );
    assert_eq!(res.stats.commits(), 6 * 40);
    check_history(&res.records, &bank.initial_state(), true).expect("opaque");
    assert_bank_invariant(&res.records, &bank);
}

// ---------------------------------------------------------------------------
// Memcached on every GPU STM
// ---------------------------------------------------------------------------

fn mc_initial(mc: &MemcachedConfig) -> impl FnMut(u64) -> u64 + '_ {
    move |item| {
        let slot = item / FIELDS_PER_SLOT;
        let field = item % FIELDS_PER_SLOT;
        let key = (slot / mc.ways) + mc.num_sets() * (slot % mc.ways);
        match field {
            f if f == F_KEY => MemcachedConfig::tag(key),
            f if f == F_VALUE => MemcachedConfig::initial_value(key) & 0xFFFF_FFFF,
            _ => 0,
        }
    }
}

/// Check the cache structure after a run: every set holds `ways` slots whose
/// key tags map back to the right set.
fn assert_cache_sound(final_state: &HashMap<u64, u64>, mc: &MemcachedConfig) {
    for set in 0..mc.num_sets() {
        for way in 0..mc.ways {
            let slot = mc.slot(set, way);
            let tag = final_state[&mc.item(slot, F_KEY)];
            assert_ne!(tag, 0, "slot ({set},{way}) became empty");
            let key = tag - 1;
            assert_eq!(mc.set_of(key), set, "key {key} stored in the wrong set");
        }
    }
}

#[test]
fn memcached_on_csmv() {
    let mc = MemcachedConfig::small(256, 8);
    let zipf = Zipfian::new(mc.capacity as usize, mc.zipf_s);
    let cfg = csmv::CsmvConfig {
        gpu: gpu(4),
        max_rs: 24,
        max_ws: 4,
        ..Default::default()
    };
    let res = csmv::run(
        &cfg,
        |t| MemcachedSource::new(&mc, zipf.clone(), 2, t, 4),
        mc.num_items(),
        mc_initial(&mc),
    );
    assert_eq!(res.stats.commits(), (cfg.num_threads() * 4) as u64);
    let initial = mc.initial_state();
    check_history(&res.records, &initial, true).expect("opaque");
    assert_cache_sound(&replay(&res.records, &initial), &mc);
}

#[test]
fn memcached_on_jvstm_gpu() {
    let mc = MemcachedConfig::small(256, 8);
    let zipf = Zipfian::new(mc.capacity as usize, mc.zipf_s);
    let cfg = jvstm_gpu::JvstmGpuConfig {
        gpu: gpu(4),
        max_rs: 24,
        max_ws: 4,
        atr_capacity: 4096,
        ..Default::default()
    };
    let res = jvstm_gpu::run(
        &cfg,
        |t| MemcachedSource::new(&mc, zipf.clone(), 2, t, 4),
        mc.num_items(),
        mc_initial(&mc),
    );
    assert_eq!(res.stats.commits(), (cfg.num_threads() * 4) as u64);
    let initial = mc.initial_state();
    check_history(&res.records, &initial, true).expect("opaque");
    assert_cache_sound(&replay(&res.records, &initial), &mc);
}

#[test]
fn memcached_on_prstm() {
    let mc = MemcachedConfig::small(256, 8);
    let zipf = Zipfian::new(mc.capacity as usize, mc.zipf_s);
    let cfg = prstm::PrstmConfig {
        gpu: gpu(4),
        max_rs: 24,
        max_ws: 4,
        ..Default::default()
    };
    let res = prstm::run(
        &cfg,
        |t| MemcachedSource::new(&mc, zipf.clone(), 2, t, 4),
        mc.num_items(),
        mc_initial(&mc),
    );
    assert_eq!(res.stats.commits(), (cfg.num_threads() * 4) as u64);
    let initial = mc.initial_state();
    check_history(&res.records, &initial, false).expect("serializable");
    assert_cache_sound(&replay(&res.records, &initial), &mc);
}

// ---------------------------------------------------------------------------
// Cross-STM agreement: same workload, same final state on every MV STM
// ---------------------------------------------------------------------------

#[test]
fn deterministic_gpu_stms_agree_on_commit_counts() {
    let bank = BankConfig::small(64, 25);
    let n_csmv;
    let n_jv;
    {
        let cfg = csmv::CsmvConfig {
            gpu: gpu(4),
            record_history: false,
            ..Default::default()
        };
        let res = csmv::run(
            &cfg,
            |t| BankSource::new(&bank, 5, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        );
        n_csmv = res.stats.commits();
    }
    {
        let cfg = jvstm_gpu::JvstmGpuConfig {
            gpu: gpu(4),
            atr_capacity: 2048,
            record_history: false,
            ..Default::default()
        };
        let res = jvstm_gpu::run(
            &cfg,
            |t| BankSource::new(&bank, 5, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        );
        n_jv = res.stats.commits();
    }
    // Different client counts: CSMV dedicates one SM to the server.
    assert_eq!(n_csmv, (3 * 2 * 32 * 2) as u64);
    assert_eq!(n_jv, (4 * 2 * 32 * 2) as u64);
}

// ---------------------------------------------------------------------------
// Reruns: every simulated harness is a pure function of its config and seed
// ---------------------------------------------------------------------------

/// The small Bank shape every rerun test uses: 128 accounts, seed 7,
/// 2 transactions per thread.
fn rerun_bank() -> BankConfig {
    BankConfig {
        accounts: 128,
        ..BankConfig::paper(50)
    }
}

/// Launch `run` twice and assert the two launches agree on cycles, stats,
/// both breakdowns, the committed history, the metrics and (when on) the
/// analysis report.
fn assert_reruns_identical(run: impl Fn() -> stm_core::RunResult) {
    let (a, b) = (run(), run());
    assert!(a.stats.commits() > 0, "nothing committed");
    assert!(!a.records.is_empty(), "no history recorded");
    assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.client_breakdown, b.client_breakdown);
    assert_eq!(a.server_breakdown, b.server_breakdown);
    assert_eq!(a.records, b.records);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.analysis.is_some(), b.analysis.is_some());
    if let (Some(ra), Some(rb)) = (&a.analysis, &b.analysis) {
        let (sa, sb) = (ra.stats(), rb.stats());
        assert!(sa.events > 0, "analysis saw no events");
        assert_eq!(sa.events, sb.events);
        assert_eq!(sa.races, sb.races);
        assert_eq!(sa.violations, sb.violations);
    }
}

fn csmv_rerun(analysis: gpu_sim::AnalysisConfig) {
    let bank = rerun_bank();
    let mut cfg = csmv::CsmvConfig {
        gpu: gpu(4),
        versions_per_box: 4,
        max_rs: 8,
        max_ws: 2,
        analysis,
        ..Default::default()
    };
    cfg.fit_atr_capacity();
    assert_reruns_identical(|| {
        csmv::run(
            &cfg,
            |t| BankSource::new(&bank, 7, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        )
    });
}

#[test]
fn csmv_reruns_are_identical() {
    csmv_rerun(gpu_sim::AnalysisConfig::default());
}

#[test]
fn csmv_with_analysis_reruns_are_identical() {
    csmv_rerun(gpu_sim::AnalysisConfig {
        races: true,
        invariants: true,
    });
}

#[test]
fn multi_server_csmv_reruns_are_identical() {
    let bank = rerun_bank();
    let partitioned = bank.clone().partitioned(2);
    let cfg = csmv::MultiCsmvConfig {
        gpu: gpu(6),
        num_servers: 2,
        server_workers: 7,
        max_rs: 8,
        max_ws: 2,
        atr_capacity: 1024,
        ..Default::default()
    };
    assert_reruns_identical(|| {
        csmv::run_multi(
            &cfg,
            |t| BankSource::new(&partitioned, 7, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        )
    });
}

#[test]
fn prstm_reruns_are_identical() {
    let bank = rerun_bank();
    let cfg = prstm::PrstmConfig {
        gpu: gpu(4),
        max_rs: bank.accounts as usize + 8,
        max_ws: 8,
        ..Default::default()
    };
    assert_reruns_identical(|| {
        prstm::run(
            &cfg,
            |t| BankSource::new(&bank, 7, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        )
    });
}

#[test]
fn jvstm_gpu_reruns_are_identical() {
    let bank = rerun_bank();
    let cfg = jvstm_gpu::JvstmGpuConfig {
        gpu: gpu(4),
        max_rs: 8,
        max_ws: 8,
        atr_capacity: 4096,
        ..Default::default()
    };
    assert_reruns_identical(|| {
        jvstm_gpu::run(
            &cfg,
            |t| BankSource::new(&bank, 7, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        )
    });
}

// ---------------------------------------------------------------------------
// Linked-list set on every GPU STM
// ---------------------------------------------------------------------------

mod list_suite {
    use super::*;
    use workloads::{ListConfig, ListSource};

    fn list_cfg(threads: usize) -> ListConfig {
        // Kept small: list transactions retry heavily under contention and
        // traversal read-sets grow with the chain.
        ListConfig {
            key_range: 64,
            initial_nodes: 12,
            contains_pct: 30,
            pool_per_thread: 2,
            threads,
        }
    }

    /// Walk the final committed chain; assert sorted/unique/terminating.
    fn assert_list_sound(heap: &HashMap<u64, u64>) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut n = heap[&ListConfig::next_item(0)];
        let mut hops = 0;
        while n != 1 {
            keys.push(heap[&ListConfig::key_item(n)]);
            n = heap[&ListConfig::next_item(n)];
            hops += 1;
            assert!(hops < 100_000, "cycle in committed list chain");
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "committed chain must be strictly sorted");
        keys
    }

    /// Replay committed writes in cts order and verify structure; also
    /// replay the *operations* against a BTreeSet oracle.
    fn verify(records: &[stm_core::history::TxRecord], cfg: &ListConfig, mv: bool) {
        let initial = cfg.initial_state();
        check_history(records, &initial, mv).expect("history");
        let heap = replay(records, &initial);
        assert_list_sound(&heap);
    }

    #[test]
    fn list_on_csmv() {
        let threads = 2 * 32;
        let cfg = list_cfg(threads);
        // Traversals of a ~64-key chain track up to ~140 reads.
        let stm = csmv::CsmvConfig {
            gpu: gpu(2),
            versions_per_box: 8,
            max_rs: 160,
            ..Default::default()
        };
        let res = csmv::run(
            &stm,
            |t| ListSource::new(&cfg, 13, t, 2),
            cfg.num_items(),
            item_init(&cfg),
        );
        assert_eq!(res.stats.commits(), (threads * 2) as u64);
        verify(&res.records, &cfg, true);
    }

    #[test]
    fn list_on_jvstm_gpu() {
        let threads = 2 * 32;
        let cfg = list_cfg(threads);
        let stm = jvstm_gpu::JvstmGpuConfig {
            gpu: gpu(1),
            versions_per_box: 8,
            atr_capacity: 8192,
            max_rs: 160,
            ..Default::default()
        };
        let res = jvstm_gpu::run(
            &stm,
            |t| ListSource::new(&cfg, 13, t, 2),
            cfg.num_items(),
            item_init(&cfg),
        );
        assert_eq!(res.stats.commits(), (threads * 2) as u64);
        verify(&res.records, &cfg, true);
    }

    #[test]
    fn list_on_prstm() {
        // Read-mostly: PR-STM's single-versioned traversals invalidate each
        // other on every splice near the hot head, so a write-heavy list is
        // an abort storm (that behaviour is covered at smaller scale by the
        // bank tests); here we exercise the list path itself.
        let threads = 2 * 32;
        let cfg = ListConfig {
            key_range: 64,
            initial_nodes: 12,
            contains_pct: 85,
            pool_per_thread: 1,
            threads,
        };
        let stm = prstm::PrstmConfig {
            gpu: gpu(1),
            max_rs: 160,
            ..Default::default()
        };
        let res = prstm::run(
            &stm,
            |t| ListSource::new(&cfg, 13, t, 2),
            cfg.num_items(),
            item_init(&cfg),
        );
        assert_eq!(res.stats.commits(), (threads * 2) as u64);
        verify(&res.records, &cfg, false);
    }

    fn item_init(cfg: &ListConfig) -> impl FnMut(u64) -> u64 {
        let init = cfg.initial_state();
        move |item| *init.get(&item).unwrap_or(&0)
    }
}

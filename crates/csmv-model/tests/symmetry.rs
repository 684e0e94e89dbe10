//! Symmetry-reduction soundness (satellite 3): relabeling the client and
//! key ids of a model instance must not change what the explorer sees —
//! same reachable-state count, same transition count, same order-
//! independent canonical fingerprint. This is the property that makes the
//! symmetry quotient a *reduction* rather than an approximation.

use csmv_model::{explore, ExploreConfig, ModelConfig, Mutation};
use proptest::prelude::*;

/// All permutations of `0..n` (n ≤ 3 here).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let prev = permutations(n - 1);
    for p in prev {
        for at in 0..=p.len() {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

/// A key permutation is usable only when it is consistent with the hash
/// partition: keys of one server must land on one server, bijectively —
/// otherwise the relabeled instance has genuinely different contention and
/// is *not* isomorphic to the original.
fn partition_consistent(kperm: &[usize], num_servers: usize) -> bool {
    let mut smap: Vec<Option<usize>> = vec![None; num_servers];
    let mut hit = vec![false; num_servers];
    for (old, &new) in kperm.iter().enumerate() {
        let so = old % num_servers;
        let sn = new % num_servers;
        match smap[so] {
            None => {
                if hit[sn] {
                    return false;
                }
                smap[so] = Some(sn);
                hit[sn] = true;
            }
            Some(prev) => {
                if prev != sn {
                    return false;
                }
            }
        }
    }
    true
}

#[derive(Debug)]
struct Instance {
    cfg: ModelConfig,
    cperm: Vec<usize>,
    kperm: Vec<usize>,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    // The vendored proptest stub has no flat_map, so keys are drawn from
    // the widest range and folded into `0..num_keys` afterwards; the two
    // permutations are drawn as indices into the enumerated candidates.
    (
        (
            1..=2usize,
            2..=3usize,
            proptest::collection::vec(proptest::collection::vec(0..3u64, 1..=2), 2),
        ),
        0..1_000_000u64,
        0..1_000_000u64,
    )
        .prop_map(|((num_servers, num_keys, raw_programs), ci, ki)| {
            let programs = raw_programs
                .into_iter()
                .map(|p| p.into_iter().map(|k| k % num_keys as u64).collect())
                .collect();
            let cfg = ModelConfig {
                num_servers,
                num_keys: num_keys as u64,
                atr_capacity: 2,
                programs,
                max_req_drops: 0,
                max_req_dups: 0,
                max_resp_drops: 0,
                mutation: Mutation::None,
            };
            let cperms = permutations(cfg.num_clients());
            let cperm = cperms[ci as usize % cperms.len()].clone();
            let kperms: Vec<Vec<usize>> = permutations(num_keys)
                .into_iter()
                .filter(|p| partition_consistent(p, num_servers))
                .collect();
            let kperm = kperms[ki as usize % kperms.len()].clone();
            Instance { cfg, cperm, kperm }
        })
}

/// The relabeled instance: client `new` runs old client `cperm[new]`'s
/// program with every key mapped through `kperm`.
fn relabel(cfg: &ModelConfig, cperm: &[usize], kperm: &[usize]) -> ModelConfig {
    let programs = cperm
        .iter()
        .map(|&old| {
            cfg.programs[old]
                .iter()
                .map(|&k| kperm[k as usize] as u64)
                .collect()
        })
        .collect();
    ModelConfig {
        programs,
        ..cfg.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn relabeled_instances_explore_identically(inst in arb_instance()) {
        let xcfg = ExploreConfig::default();
        let base = explore(&inst.cfg, &xcfg);
        prop_assert!(!base.truncated, "instance too large for the test bound");
        prop_assert!(base.counterexample.is_none(), "healthy instance must be clean");

        let relabeled_cfg = relabel(&inst.cfg, &inst.cperm, &inst.kperm);
        let relabeled = explore(&relabeled_cfg, &xcfg);

        prop_assert_eq!(base.states, relabeled.states, "reachable-state counts diverge");
        prop_assert_eq!(base.transitions, relabeled.transitions, "transition counts diverge");
        prop_assert_eq!(base.terminal_states, relabeled.terminal_states);
        prop_assert_eq!(
            base.fingerprint,
            relabeled.fingerprint,
            "canonical fingerprints diverge under relabeling"
        );
    }
}

/// A deterministic spot check: the fully symmetric small instance and its
/// client-swapped twin are the same instance, and a server-class key swap
/// on a one-server instance relabels cleanly too.
#[test]
fn small_instance_is_relabel_invariant() {
    let cfg = ModelConfig {
        programs: vec![vec![0, 1], vec![1, 0]],
        ..ModelConfig::small()
    };
    let xcfg = ExploreConfig::default();
    let base = explore(&cfg, &xcfg);
    let swapped = explore(&relabel(&cfg, &[1, 0], &[0, 1]), &xcfg);
    assert_eq!(base.states, swapped.states);
    assert_eq!(base.fingerprint, swapped.fingerprint);
}

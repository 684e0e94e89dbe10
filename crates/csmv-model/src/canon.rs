//! Canonical state forms under client and key symmetry.
//!
//! Two states that differ only by a relabeling of client ids and key ids
//! (with the induced server relabeling — keys are hash-partitioned, so a
//! key permutation drags its servers along) are behaviorally identical.
//! The explorer deduplicates on the lexicographically smallest
//! serialization over all *canonicalizing* relabelings: the relabelings
//! that map the instance's client programs onto their lexicographically
//! minimal relabeled form. Any two such relabelings differ by an
//! instance automorphism, so two states share a key exactly when one is
//! a relabeling of the other — and because the target form depends only
//! on the instance's isomorphism class, permuting the client/key ids of
//! the *configuration* leaves every canonical key (and therefore the
//! explorer's state count and fingerprint) unchanged.

use crate::model::{ClientPhase, JobPhase, ModelAbort, ModelConfig, Outcome, State};

/// All permutations of `0..n` (n is tiny: clients/keys per instance).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// A valid relabeling: `cperm[new] = old` for clients, `kmap[old] = new`
/// for keys, and the server permutation `smap[old] = new` the key map
/// induces through the partition function.
struct Relabel {
    cperm: Vec<usize>,
    kmap: Vec<u64>,
    smap: Vec<usize>,
}

/// Enumerate the canonicalizing relabelings of a model instance: the
/// partition-consistent relabelings whose relabeled program vector is
/// lexicographically minimal. The set is never empty, and any two of its
/// members differ by an instance automorphism.
fn valid_relabelings(cfg: &ModelConfig) -> Vec<Relabel> {
    let nc = cfg.num_clients();
    let nk = cfg.num_keys as usize;
    let ns = cfg.num_servers;
    let mut best_progs: Option<Vec<Vec<u64>>> = None;
    let mut out = Vec::new();
    for kperm in permutations(nk) {
        let kmap: Vec<u64> = kperm.iter().map(|&k| k as u64).collect();
        // The key map must induce a consistent server permutation.
        let mut smap: Vec<Option<usize>> = vec![None; ns];
        let mut ok = true;
        for k in 0..nk as u64 {
            let so = cfg.server_of(k);
            let sn = cfg.server_of(kmap[k as usize]);
            match smap[so] {
                None => smap[so] = Some(sn),
                Some(prev) if prev == sn => {}
                Some(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        // Servers owning no key keep their identity; the map must be a
        // bijection.
        let mut used: Vec<bool> = vec![false; ns];
        for (s, m) in smap.iter_mut().enumerate() {
            if m.is_none() {
                *m = Some(s);
            }
            let t = m.unwrap();
            if used[t] {
                ok = false;
                break;
            }
            used[t] = true;
        }
        if !ok {
            continue;
        }
        let smap: Vec<usize> = smap.into_iter().map(Option::unwrap).collect();
        for cperm in permutations(nc) {
            // Client `new` plays old client `cperm[new]`'s program with
            // keys relabeled; keep the relabelings producing the
            // lexicographically smallest program vector seen so far.
            let progs: Vec<Vec<u64>> = (0..nc)
                .map(|new| {
                    cfg.programs[cperm[new]]
                        .iter()
                        .map(|&k| kmap[k as usize])
                        .collect()
                })
                .collect();
            let keep = match &best_progs {
                None => true,
                Some(best) => match progs.cmp(best) {
                    std::cmp::Ordering::Less => {
                        out.clear();
                        true
                    }
                    std::cmp::Ordering::Equal => true,
                    std::cmp::Ordering::Greater => false,
                },
            };
            if keep {
                best_progs = Some(progs);
                out.push(Relabel {
                    cperm: cperm.clone(),
                    kmap: kmap.clone(),
                    smap: smap.clone(),
                });
            }
        }
    }
    out
}

fn phase_tag(p: ClientPhase) -> u64 {
    match p {
        ClientPhase::Idle => 0,
        ClientPhase::AwaitResp => 1,
        ClientPhase::WriteBack => 2,
        ClientPhase::GtsWait => 3,
    }
}

fn outcome_words(o: Outcome, v: &mut Vec<u64>) {
    match o {
        Outcome::Commit { cts } => {
            v.push(1);
            v.push(cts);
        }
        Outcome::Abort(ModelAbort::Conflict) => {
            v.push(2);
            v.push(0);
        }
        Outcome::Abort(ModelAbort::Window) => {
            v.push(3);
            v.push(0);
        }
    }
}

fn job_phase_words(p: JobPhase, v: &mut Vec<u64>) {
    match p {
        JobPhase::Validate => {
            v.push(0);
            v.push(0);
            v.push(0);
        }
        JobPhase::Lock { target } => {
            v.push(1);
            v.push(target);
            v.push(0);
        }
        JobPhase::Reserve => {
            v.push(2);
            v.push(0);
            v.push(0);
        }
        JobPhase::InsertItems { cts, entry } => {
            v.push(3);
            v.push(cts);
            v.push(entry as u64);
        }
        JobPhase::Publish { cts, entry } => {
            v.push(4);
            v.push(cts);
            v.push(entry as u64);
        }
        JobPhase::Respond { outcome } => {
            v.push(5);
            outcome_words(outcome, v);
        }
    }
}

/// Serialize `s` under a relabeling.
fn serialize(s: &State, cfg: &ModelConfig, r: &Relabel) -> Vec<u64> {
    let nc = cfg.num_clients();
    let nk = cfg.num_keys as usize;
    let ns = cfg.num_servers;
    // Inverses: `cpos[old] = new`, `kinv[new] = old`, `sinv[new] = old`.
    let mut cpos = vec![0usize; nc];
    for (new, &old) in r.cperm.iter().enumerate() {
        cpos[old] = new;
    }
    let mut kinv = vec![0usize; nk];
    for (old, &new) in r.kmap.iter().enumerate() {
        kinv[new as usize] = old;
    }
    let mut sinv = vec![0usize; ns];
    for (old, &new) in r.smap.iter().enumerate() {
        sinv[new] = old;
    }

    let mut v = Vec::with_capacity(64);
    v.push(s.gts);
    v.push(s.next_cts);
    v.push(s.req_drops_left as u64);
    v.push(s.req_dups_left as u64);
    v.push(s.resp_drops_left as u64);

    for &old_k in kinv.iter().take(nk) {
        let versions = &s.store[old_k];
        v.push(versions.len() as u64);
        for &(cts, val) in versions {
            v.push(cts);
            v.push(val);
        }
    }

    for new_c in 0..nc {
        let cl = &s.clients[r.cperm[new_c]];
        v.push(phase_tag(cl.phase));
        v.push(cl.tx_idx as u64);
        for &old_s in sinv.iter().take(ns) {
            v.push(cl.seqs[old_s]);
        }
        v.push(cl.snapshot);
        // An idle client's key field is reset junk, not a key — mapping it
        // would break the symmetry between relabeled states.
        if cl.phase == ClientPhase::Idle {
            v.push(0);
        } else {
            v.push(r.kmap[cl.key as usize]);
        }
        v.push(cl.read_value);
        v.push(cl.cts);
        v.push(cl.req_inflight as u64);
        v.push(cl.dup_inflight as u64);
    }

    for &old_s in sinv.iter().take(ns) {
        let srv = &s.servers[old_s];
        for new_c in 0..nc {
            let old_c = r.cperm[new_c];
            v.push(srv.last_seq[old_c]);
            match &srv.resp[old_c] {
                None => {
                    v.push(0);
                    v.push(0);
                    v.push(0);
                    v.push(0);
                }
                Some(resp) => {
                    v.push(1);
                    v.push(resp.seq);
                    outcome_words(resp.outcome, &mut v);
                    v.push(resp.armed as u64);
                }
            }
        }
        match srv.lock {
            None => {
                v.push(0);
                v.push(0);
                v.push(0);
            }
            Some((c, dup_no)) => {
                v.push(1);
                v.push(cpos[c] as u64);
                v.push(dup_no as u64);
            }
        }
        v.push(srv.next_local);
        v.push(srv.entries.len() as u64);
        for e in &srv.entries {
            v.push(e.cts);
            v.push(e.published as u64);
            v.push(e.items.len() as u64);
            for &it in &e.items {
                v.push(r.kmap[it as usize]);
            }
        }
        // Jobs in relabeled `(client, dup_no)` order so equivalent job
        // sets serialize identically.
        let mut jobs: Vec<_> = srv.jobs.iter().collect();
        jobs.sort_by_key(|j| (cpos[j.client], j.dup_no));
        v.push(jobs.len() as u64);
        for j in jobs {
            v.push(cpos[j.client] as u64);
            v.push(j.dup_no as u64);
            v.push(j.seq);
            v.push(j.snapshot);
            v.push(r.kmap[j.key as usize]);
            v.push(j.read_value);
            job_phase_words(j.phase, &mut v);
        }
    }

    // Commit records, sorted by (unique) cts — append order is schedule
    // noise, the set is the history.
    let mut committed: Vec<_> = s.committed.iter().collect();
    committed.sort_by_key(|t| t.cts);
    v.push(committed.len() as u64);
    for t in committed {
        v.push(t.cts);
        v.push(cpos[t.client] as u64);
        v.push(t.snapshot);
        v.push(r.kmap[t.key as usize]);
        v.push(t.read_value);
    }
    v
}

/// The canonical key of a state: the minimum serialization over all valid
/// relabelings. States equal up to symmetry share one key.
pub fn canonical_key(s: &State, cfg: &ModelConfig) -> Vec<u64> {
    valid_relabelings(cfg)
        .iter()
        .map(|r| serialize(s, cfg, r))
        .min()
        .expect("some relabeling always achieves the minimal program form")
}

/// FNV-1a over the canonical key — a stable fingerprint for symmetry
/// tests.
pub fn canonical_hash(s: &State, cfg: &ModelConfig) -> u64 {
    fnv1a(&canonical_key(s, cfg))
}

pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{apply, Action};

    #[test]
    fn symmetric_first_moves_collapse() {
        let cfg = ModelConfig::small();
        // Both clients run the same program: beginning with client 0 or
        // client 1 must canonicalize identically.
        let mut a = State::initial(&cfg);
        apply(&mut a, Action::Begin { client: 0 }, &cfg);
        let mut b = State::initial(&cfg);
        apply(&mut b, Action::Begin { client: 1 }, &cfg);
        assert_eq!(canonical_key(&a, &cfg), canonical_key(&b, &cfg));
    }

    #[test]
    fn asymmetric_programs_do_not_collapse() {
        let cfg = ModelConfig {
            programs: vec![vec![0], vec![1]],
            ..ModelConfig::small()
        };
        // Key 0 and key 1 live on different servers but the key swap plus
        // client swap maps the instance onto itself; beginning client 0
        // vs client 1 still collapses.
        let mut a = State::initial(&cfg);
        apply(&mut a, Action::Begin { client: 0 }, &cfg);
        let mut b = State::initial(&cfg);
        apply(&mut b, Action::Begin { client: 1 }, &cfg);
        assert_eq!(canonical_key(&a, &cfg), canonical_key(&b, &cfg));

        // But with distinct key multiplicities there is no valid
        // relabeling between the two first moves.
        let cfg = ModelConfig {
            programs: vec![vec![0, 0], vec![1]],
            ..ModelConfig::small()
        };
        let mut a = State::initial(&cfg);
        apply(&mut a, Action::Begin { client: 0 }, &cfg);
        let mut b = State::initial(&cfg);
        apply(&mut b, Action::Begin { client: 1 }, &cfg);
        assert_ne!(canonical_key(&a, &cfg), canonical_key(&b, &cfg));
    }

    #[test]
    fn identity_always_valid() {
        let cfg = ModelConfig {
            programs: vec![vec![0, 1], vec![1, 0]],
            ..ModelConfig::small()
        };
        let s = State::initial(&cfg);
        // Must not panic, and must produce a stable key.
        assert_eq!(canonical_key(&s, &cfg), canonical_key(&s, &cfg));
    }
}

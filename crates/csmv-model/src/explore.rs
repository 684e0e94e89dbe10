//! Explicit-state exploration: breadth-first search over canonical state
//! forms with bounded depth, deadlock detection, and lasso (livelock)
//! detection over the explored graph.

use crate::canon::{canonical_key, fnv1a};
use crate::model::{apply, enabled_actions, Action, ModelConfig, State};
use crate::props::{check_state, check_step, check_terminal, Violation};
use std::collections::HashMap;

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum trace depth (actions from the initial state). States at the
    /// bound are recorded but not expanded; reaching it sets `truncated`.
    pub max_depth: usize,
    /// Hard cap on distinct canonical states.
    pub max_states: usize,
    /// Run lasso detection after a violation-free search.
    pub check_liveness: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 64,
            max_states: 2_000_000,
            check_liveness: true,
        }
    }
}

/// A replayable counterexample: the action trace from the initial state,
/// and for livelocks the repeating cycle.
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub violation: Violation,
    /// Actions from the initial state to the violating state.
    pub trace: Vec<Action>,
    /// For lassos: the cycle of actions repeating forever after `trace`.
    pub cycle: Vec<Action>,
}

/// Search outcome.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Distinct canonical states reached.
    pub states: usize,
    /// Transitions taken (between canonical states).
    pub transitions: usize,
    /// Deepest trace explored.
    pub depth_reached: usize,
    /// Search hit a depth/state bound — exhaustiveness not claimed.
    pub truncated: bool,
    /// Terminal (all-done) states seen.
    pub terminal_states: usize,
    /// Order-independent fingerprint of the reachable canonical state set
    /// (for symmetry-invariance tests).
    pub fingerprint: u64,
    /// First violation found, if any.
    pub counterexample: Option<Counterexample>,
}

struct Node {
    state: State,
    depth: usize,
    parent: Option<(usize, Action)>,
    expanded: bool,
}

struct Edge {
    from: usize,
    action: Action,
    to: usize,
    /// Did this transition commit a transaction or advance the GTS?
    progress: bool,
}

/// Explore the model instance. Stops at the first violation.
pub fn explore(cfg: &ModelConfig, xcfg: &ExploreConfig) -> ExploreResult {
    let mut nodes: Vec<Node> = Vec::new();
    let mut ids: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut fingerprint: u64 = 0;
    let mut truncated = false;
    let mut depth_reached = 0;
    let mut terminal_states = 0;

    let init = State::initial(cfg);
    let init_key = canonical_key(&init, cfg);
    fingerprint = fingerprint.wrapping_add(fnv1a(&init_key));
    ids.insert(init_key, 0);
    nodes.push(Node {
        state: init,
        depth: 0,
        parent: None,
        expanded: false,
    });
    if let Some(v) = check_state(&nodes[0].state) {
        return result(
            &nodes,
            &edges,
            fingerprint,
            truncated,
            terminal_states,
            0,
            Some(seal(v, 0, &nodes)),
        );
    }

    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    queue.push_back(0);

    while let Some(id) = queue.pop_front() {
        let depth = nodes[id].depth;
        depth_reached = depth_reached.max(depth);
        let actions = enabled_actions(&nodes[id].state, cfg);
        let done = nodes[id].state.all_done(cfg);
        if actions.is_empty() {
            let v = if done {
                terminal_states += 1;
                check_terminal(&nodes[id].state, cfg)
            } else {
                Some(Violation::Deadlock)
            };
            if let Some(v) = v {
                return result(
                    &nodes,
                    &edges,
                    fingerprint,
                    truncated,
                    terminal_states,
                    depth_reached,
                    Some(seal(v, id, &nodes)),
                );
            }
            nodes[id].expanded = true;
            continue;
        }
        if depth >= xcfg.max_depth {
            truncated = true;
            continue;
        }
        nodes[id].expanded = true;
        for a in actions {
            let mut post = nodes[id].state.clone();
            apply(&mut post, a, cfg);
            if let Some(v) = check_step(&nodes[id].state, a, &post, cfg) {
                let mut cex = seal(v, id, &nodes);
                cex.trace.push(a);
                return result(
                    &nodes,
                    &edges,
                    fingerprint,
                    truncated,
                    terminal_states,
                    depth_reached,
                    Some(cex),
                );
            }
            if let Some(v) = check_state(&post) {
                let mut cex = seal(v, id, &nodes);
                cex.trace.push(a);
                return result(
                    &nodes,
                    &edges,
                    fingerprint,
                    truncated,
                    terminal_states,
                    depth_reached,
                    Some(cex),
                );
            }
            let key = canonical_key(&post, cfg);
            let to = match ids.get(&key) {
                Some(&to) => to,
                None => {
                    let to = nodes.len();
                    if to >= xcfg.max_states {
                        truncated = true;
                        continue;
                    }
                    fingerprint = fingerprint.wrapping_add(fnv1a(&key));
                    ids.insert(key, to);
                    nodes.push(Node {
                        state: post.clone(),
                        depth: depth + 1,
                        parent: Some((id, a)),
                        expanded: false,
                    });
                    queue.push_back(to);
                    to
                }
            };
            let progress = post.committed.len() > nodes[id].state.committed.len()
                || post.gts > nodes[id].state.gts;
            edges.push(Edge {
                from: id,
                action: a,
                to,
                progress,
            });
        }
    }

    let mut cex = None;
    if xcfg.check_liveness {
        cex = find_livelock(&nodes, &edges).map(|(entry, cycle)| {
            let mut c = seal(Violation::Livelock, entry, &nodes);
            c.cycle = cycle;
            c
        });
    }
    result(
        &nodes,
        &edges,
        fingerprint,
        truncated,
        terminal_states,
        depth_reached,
        cex,
    )
}

fn result(
    nodes: &[Node],
    edges: &[Edge],
    fingerprint: u64,
    truncated: bool,
    terminal_states: usize,
    depth_reached: usize,
    counterexample: Option<Counterexample>,
) -> ExploreResult {
    ExploreResult {
        states: nodes.len(),
        transitions: edges.len(),
        depth_reached,
        truncated,
        terminal_states,
        fingerprint,
        counterexample,
    }
}

/// Reconstruct the trace to `id` and wrap a violation.
fn seal(violation: Violation, id: usize, nodes: &[Node]) -> Counterexample {
    let mut trace = Vec::new();
    let mut cur = id;
    while let Some((parent, a)) = nodes[cur].parent {
        trace.push(a);
        cur = parent;
    }
    trace.reverse();
    Counterexample {
        violation,
        trace,
        cycle: Vec::new(),
    }
}

/// Find a livelock lasso: a bottom strongly-connected component of the
/// *fully expanded* subgraph that contains a cycle but no progress edge.
/// Components touching unexpanded (depth-truncated) states are
/// inconclusive and skipped. Returns the SCC entry node and its cycle.
fn find_livelock(nodes: &[Node], edges: &[Edge]) -> Option<(usize, Vec<Action>)> {
    let n = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in edges.iter().enumerate() {
        adj[e.from].push(ei);
    }
    let scc = tarjan(n, &adj, edges);
    let num_sccs = scc.iter().copied().max().map_or(0, |m| m + 1);
    let mut has_cycle = vec![false; num_sccs];
    let mut has_progress = vec![false; num_sccs];
    let mut is_bottom = vec![true; num_sccs];
    let mut conclusive = vec![true; num_sccs];
    let mut size = vec![0usize; num_sccs];
    for (v, &c) in scc.iter().enumerate() {
        size[c] += 1;
        if !nodes[v].expanded {
            conclusive[c] = false;
        }
    }
    for e in edges {
        let (cf, ct) = (scc[e.from], scc[e.to]);
        if cf == ct {
            if e.from == e.to || size[cf] > 1 {
                has_cycle[cf] = true;
            }
            if e.progress {
                has_progress[cf] = true;
            }
        } else {
            is_bottom[cf] = false;
        }
    }
    for c in 0..num_sccs {
        if !(is_bottom[c] && has_cycle[c] && !has_progress[c] && conclusive[c]) {
            continue;
        }
        // Shallowest node of the component and a cycle through it.
        let entry = (0..n)
            .filter(|&v| scc[v] == c)
            .min_by_key(|&v| nodes[v].depth)
            .unwrap();
        let cycle = cycle_through(entry, c, &scc, &adj, edges);
        return Some((entry, cycle));
    }
    None
}

/// BFS inside one SCC from `entry` back to itself.
fn cycle_through(
    entry: usize,
    comp: usize,
    scc: &[usize],
    adj: &[Vec<usize>],
    edges: &[Edge],
) -> Vec<Action> {
    let mut prev: HashMap<usize, (usize, Action)> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(entry);
    while let Some(v) = queue.pop_front() {
        for &ei in &adj[v] {
            let e = &edges[ei];
            if scc[e.to] != comp {
                continue;
            }
            if e.to == entry {
                // Close the loop.
                let mut cycle = vec![e.action];
                let mut cur = v;
                while cur != entry {
                    let (p, a) = prev[&cur];
                    cycle.push(a);
                    cur = p;
                }
                cycle.reverse();
                return cycle;
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = prev.entry(e.to) {
                slot.insert((v, e.action));
                queue.push_back(e.to);
            }
        }
    }
    Vec::new()
}

/// Iterative Tarjan SCC; returns the component id of each node.
fn tarjan(n: usize, adj: &[Vec<usize>], edges: &[Edge]) -> Vec<usize> {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // (node, next edge offset)
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&(v, ei)) = call.last() {
            if ei < adj[v].len() {
                call.last_mut().unwrap().1 += 1;
                let w = edges[adj[v][ei]].to;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_healthy_instance_is_clean() {
        // 1 client, 1 tx: the smallest nontrivial instance.
        let cfg = ModelConfig {
            num_servers: 1,
            num_keys: 1,
            atr_capacity: 2,
            programs: vec![vec![0]],
            max_req_drops: 0,
            max_req_dups: 0,
            max_resp_drops: 0,
            mutation: crate::model::Mutation::None,
        };
        let r = explore(&cfg, &ExploreConfig::default());
        assert!(r.counterexample.is_none(), "{:?}", r.counterexample);
        assert!(!r.truncated);
        assert_eq!(r.terminal_states, 1);
        // Begin, Receive, 6 job phases, RecvResp, WriteBack, GtsBump.
        assert_eq!(r.depth_reached, 11);
    }
}

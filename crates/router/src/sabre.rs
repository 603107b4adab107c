//! The SABRE-style routing algorithm.
//!
//! Bookkeeping is bitplane-native: the executed-gate set, the front-layer
//! membership test, the ready-qubit dedup and the phase-2 candidate-edge
//! dedup (packed over edge keys `min·n + max`) all run on packed
//! [`QubitMask`]s, and the extended (lookahead) window is held in a decay
//! cache that is only rebuilt when a gate actually executes. Two
//! structures deliberately stay `Vec`s: the front layer itself (its first
//! gate is what the stall fallback force-routes) and the ready-check
//! worklist (its order is the drain order of executable gates).
//!
//! Swap candidates are scored once each, by delta (as LightSABRE does):
//! per step the front and extended pairs are mapped to physical pairs and
//! their integer distance sums `F0` and `E0` taken, and a candidate
//! `(u, v)` re-measures only the pairs touching `u` or `v`, reached through
//! per-node pair lists. The score `F/|F| + w·E/|E|` is then evaluated on
//! the exact integer sums; integer-valued `f64` sums below 2^53 are exact
//! in any order, so each score is bit-identical to summing every pair.

use tetris_circuit::{Circuit, Gate};
use tetris_pauli::mask::QubitMask;
use tetris_topology::{CouplingGraph, Layout};

/// Router tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// How many upcoming two-qubit gates the lookahead term considers.
    pub extended_window: usize,
    /// Weight of the lookahead term relative to the front layer.
    pub extended_weight: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            extended_window: 20,
            extended_weight: 0.5,
        }
    }
}

/// A routed (hardware-compliant) circuit plus the evolved layout.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The physical circuit (SWAPs kept first-class).
    pub circuit: Circuit,
    /// Layout after the last gate (needed to interpret measurement results
    /// or to compose follow-up circuits).
    pub final_layout: Layout,
    /// Number of SWAPs inserted.
    pub swap_count: usize,
}

/// Routes `logical` onto `graph` starting from `initial` layout.
///
/// Every logical gate is emitted exactly once (on physical operands);
/// SWAPs are inserted so that each two-qubit gate acts on coupled qubits.
///
/// # Panics
/// Panics if the logical circuit is wider than the layout, or contains a
/// two-qubit gate between qubits in disconnected graph components.
pub fn route(
    logical: &Circuit,
    graph: &CouplingGraph,
    initial: Layout,
    config: &RouterConfig,
) -> RoutedCircuit {
    assert!(
        logical.n_qubits() <= initial.n_logical(),
        "circuit wider than layout"
    );
    let gates = logical.gates();
    let n_log = initial.n_logical();

    // Per-qubit program-order queues and cursors.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n_log];
    for (i, g) in gates.iter().enumerate() {
        for q in g.qubits().iter() {
            queues[q].push(i);
        }
    }
    let mut cursor = vec![0usize; n_log];
    let is_ready = |g: usize, gates: &[Gate], queues: &[Vec<usize>], cursor: &[usize]| {
        gates[g]
            .qubits()
            .iter()
            .all(|q| queues[q].get(cursor[q]) == Some(&g))
    };

    let mut layout = initial;
    let mut out = Circuit::new(graph.n_qubits());
    // Executed-gate set, packed over gate indices.
    let mut executed = QubitMask::empty(gates.len().max(1));
    let mut n_executed = 0usize;
    let mut swap_count = 0usize;
    // The front layer: an order-bearing Vec (scores sum over it in f64, so
    // insertion order is semantic) with a packed membership set replacing
    // the linear `contains`/`retain` scans.
    let mut front: Vec<usize> = Vec::new();
    let mut in_front = QubitMask::empty(gates.len().max(1));
    // Pointer for the extended (lookahead) window over 2q gates.
    let two_q: Vec<usize> = (0..gates.len())
        .filter(|&i| gates[i].is_two_qubit())
        .collect();
    let mut ext_ptr = 0usize;
    // Decay caches for phase 2: the extended window changes only when a
    // gate executes, the front-pair list only when the front mutates.
    // Between consecutive SWAP insertions both are served from cache.
    let mut ext_cache: Vec<(usize, usize)> = Vec::new();
    let mut ext_dirty = true;
    let mut front_pairs: Vec<(usize, usize)> = Vec::new();
    let mut front_dirty = true;

    // Anti-oscillation state.
    let mut last_swap: Option<(usize, usize)> = None;
    let mut since_progress = 0usize;
    let stall_limit = 4 * graph.n_qubits() + 16;

    // Seed the front with initially-ready gates.
    let mut check: Vec<usize> = (0..n_log).collect();
    // Scratch for deduplicating the next check worklist (packed over
    // logical qubits, cleared per round).
    let mut in_next_check = QubitMask::empty(n_log.max(1));
    // Scratch for deduplicating phase 2's candidate-edge list, packed
    // over edge keys `min·n + max`; entries are removed after each round
    // so the clear costs O(candidates), not O(n²/64) words.
    let n_phys = graph.n_qubits();
    let mut in_candidates = QubitMask::empty((n_phys * n_phys).max(1));
    // Per-step scoring state, reused: the front then extended pairs on
    // physical qubits with their current distances, and per physical node
    // an intrusive list of pair endpoints (`node_head[p]` → endpoint
    // `2·pair + side` → `endpoint_next[…]`, `NONE`-terminated).
    let mut phys_pairs: Vec<(usize, usize)> = Vec::new();
    let mut pair_dist: Vec<u32> = Vec::new();
    let mut node_head = vec![NONE; n_phys];
    let mut endpoint_next: Vec<u32> = Vec::new();
    loop {
        // Phase 1: drain every ready & executable gate.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut next_check = Vec::new();
            in_next_check.clear();
            for &q in &check {
                while let Some(&g) = queues[q].get(cursor[q]) {
                    if executed.contains(g) || !is_ready(g, gates, &queues, &cursor) {
                        break;
                    }
                    let gate = gates[g];
                    let phys = |lq: usize| layout.phys_of(lq).expect("logical qubit placed");
                    let executable = match gate {
                        Gate::Cnot(a, b) => graph.are_adjacent(phys(a), phys(b)),
                        // Logical SWAPs are absorbed into the layout below —
                        // always executable, zero physical cost.
                        _ => true,
                    };
                    if !executable {
                        if !in_front.contains(g) {
                            front.push(g);
                            in_front.insert(g);
                            front_dirty = true;
                        }
                        break;
                    }
                    if let Gate::Swap(a, b) = gate {
                        // A logical SWAP is a relabeling: permute the
                        // mapping instead of emitting gates.
                        layout.swap_phys(phys(a), phys(b));
                    } else {
                        out.push(gate.map_qubits(phys));
                    }
                    executed.insert(g);
                    ext_dirty = true;
                    n_executed += 1;
                    since_progress = 0;
                    if in_front.contains(g) {
                        front.retain(|&f| f != g);
                        in_front.remove(g);
                        front_dirty = true;
                    }
                    for oq in gate.qubits().iter() {
                        cursor[oq] += 1;
                        if !in_next_check.contains(oq) {
                            in_next_check.insert(oq);
                            next_check.push(oq);
                        }
                    }
                    progressed = true;
                }
            }
            check = next_check;
            if check.is_empty() {
                break;
            }
        }

        if n_executed == gates.len() {
            break;
        }
        // Refresh the front (ready but blocked 2q gates).
        if front.iter().any(|&g| executed.contains(g)) {
            front.retain(|&g| {
                let keep = !executed.contains(g);
                if !keep {
                    in_front.remove(g);
                }
                keep
            });
            front_dirty = true;
        }
        if front.is_empty() {
            // All remaining gates are waiting on predecessors that are in
            // the front; rebuild by scanning cursors.
            for q in 0..n_log {
                if let Some(&g) = queues[q].get(cursor[q]) {
                    if !executed.contains(g)
                        && gates[g].is_two_qubit()
                        && is_ready(g, gates, &queues, &cursor)
                        && !in_front.contains(g)
                    {
                        front.push(g);
                        in_front.insert(g);
                        front_dirty = true;
                    }
                }
            }
            assert!(!front.is_empty(), "router deadlock — malformed circuit");
        }

        since_progress += 1;
        if since_progress > stall_limit {
            // Fallback: force-route the first front gate along a shortest
            // path (guaranteed progress, used only on pathological inputs).
            let g = front[0];
            let (a, b) = two_qubits(&gates[g]);
            let pa = layout.phys_of(a).unwrap();
            let pb = layout.phys_of(b).unwrap();
            let path = graph
                .shortest_path(pa, pb)
                .expect("two-qubit gate across disconnected components");
            for w in path.windows(2).take(path.len().saturating_sub(2)) {
                out.push(Gate::Swap(w[0], w[1]));
                layout.swap_phys(w[0], w[1]);
                swap_count += 1;
            }
            check = vec![a, b];
            since_progress = 0;
            continue;
        }

        // Phase 2: choose the best SWAP candidate.
        while ext_ptr < two_q.len() && executed.contains(two_q[ext_ptr]) {
            ext_ptr += 1;
        }
        if ext_dirty {
            ext_cache = two_q[ext_ptr..]
                .iter()
                .filter(|&&g| !executed.contains(g))
                .take(config.extended_window)
                .map(|&g| two_qubits(&gates[g]))
                .collect();
            ext_dirty = false;
        }
        let ext = &ext_cache;
        if front_dirty {
            front_pairs = front.iter().map(|&g| two_qubits(&gates[g])).collect();
            front_dirty = false;
        }

        // Candidate edges, insertion-ordered with a packed dedup set
        // (keyed `min·n + max`) replacing the old `Vec::contains` scan.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in &front_pairs {
            for lq in [a, b] {
                let p = layout.phys_of(lq).unwrap();
                for nb in graph.neighbors(p) {
                    let e = (p.min(nb), p.max(nb));
                    if !in_candidates.contains(e.0 * n_phys + e.1) {
                        in_candidates.insert(e.0 * n_phys + e.1);
                        candidates.push(e);
                    }
                }
            }
        }
        for &(u, v) in &candidates {
            in_candidates.remove(u * n_phys + v);
        }
        // Avoid immediately undoing the previous swap when alternatives
        // exist.
        if let Some(prev) = last_swap {
            if candidates.len() > 1 {
                candidates.retain(|&e| e != prev);
            }
        }

        // Map the front and extended pairs to physical pairs once, and
        // link each endpoint into its node's list.
        phys_pairs.clear();
        pair_dist.clear();
        endpoint_next.clear();
        for &(a, b) in front_pairs.iter().chain(ext) {
            let pair = (layout.phys_of(a).unwrap(), layout.phys_of(b).unwrap());
            for p in [pair.0, pair.1] {
                endpoint_next.push(node_head[p]);
                node_head[p] = endpoint_next.len() as u32 - 1;
            }
            phys_pairs.push(pair);
            pair_dist.push(graph.dist(pair.0, pair.1));
        }
        let n_front = front_pairs.len();
        let sum = |d: &[u32]| d.iter().map(|&x| x as i64).sum::<i64>();
        let (f0, e0) = (sum(&pair_dist[..n_front]), sum(&pair_dist[n_front..]));
        let score = |(u, v): (usize, usize)| -> f64 {
            let moved = |p: usize| {
                if p == u {
                    v
                } else if p == v {
                    u
                } else {
                    p
                }
            };
            let (mut f, mut e) = (f0, e0);
            for node in [u, v] {
                let mut at = node_head[node];
                while at != NONE {
                    let pair = at as usize / 2;
                    let (a, b) = phys_pairs[pair];
                    // A pair on both swapped nodes is met twice, but its
                    // distance is symmetric and so its delta is zero.
                    let delta = graph.dist(moved(a), moved(b)) as i64 - pair_dist[pair] as i64;
                    if pair < n_front {
                        f += delta;
                    } else {
                        e += delta;
                    }
                    at = endpoint_next[at as usize];
                }
            }
            let e = if ext.is_empty() {
                0.0
            } else {
                e as f64 / ext.len() as f64
            };
            f as f64 / n_front as f64 + config.extended_weight * e
        };

        let (_, best) = candidates
            .iter()
            .map(|&c| (score(c), c))
            .min_by(|x, y| {
                x.0.partial_cmp(&y.0)
                    .expect("swap scores are numbers")
                    .then(x.1.cmp(&y.1))
            })
            .expect("at least one candidate swap");
        for &(a, b) in &phys_pairs {
            node_head[a] = NONE;
            node_head[b] = NONE;
        }
        out.push(Gate::Swap(best.0, best.1));
        layout.swap_phys(best.0, best.1);
        swap_count += 1;
        last_swap = Some(best);
        // Re-check the qubits of the front after the swap (mask-dedup'd;
        // iteration is ascending, matching the old sort+dedup).
        in_next_check.clear();
        for &(a, b) in &front_pairs {
            in_next_check.insert(a);
            in_next_check.insert(b);
        }
        check = in_next_check.to_vec();
    }

    RoutedCircuit {
        circuit: out,
        final_layout: layout,
        swap_count,
    }
}

/// End of a per-node endpoint list.
const NONE: u32 = u32::MAX;

#[inline]
fn two_qubits(g: &Gate) -> (usize, usize) {
    match *g {
        Gate::Cnot(a, b) | Gate::Swap(a, b) => (a, b),
        _ => unreachable!("front gates are two-qubit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_pauli::rng::rngs::StdRng;
    use tetris_pauli::rng::{Rng, SeedableRng};
    use tetris_sim::Statevector;

    fn random_logical(n: usize, len: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..len {
            match rng.gen_range(0..5) {
                0 => c.push(Gate::H(rng.gen_range(0..n))),
                1 => c.push(Gate::Rz(rng.gen_range(0..n), rng.gen_range(-1.0..1.0))),
                2 => c.push(Gate::S(rng.gen_range(0..n))),
                _ => {
                    let a = rng.gen_range(0..n);
                    let mut b = rng.gen_range(0..n);
                    while b == a {
                        b = rng.gen_range(0..n);
                    }
                    c.push(Gate::Cnot(a, b));
                }
            }
        }
        c
    }

    /// Semantics check: routed circuit on the embedded initial state equals
    /// the logical circuit output embedded under the final layout.
    fn assert_equivalent(logical: &Circuit, graph: &CouplingGraph) {
        let initial = Layout::trivial(logical.n_qubits(), graph.n_qubits());
        let routed = route(logical, graph, initial.clone(), &RouterConfig::default());
        assert!(routed.circuit.is_hardware_compliant(graph));

        let input = Statevector::random_state(logical.n_qubits(), 99);
        let mut physical = input.embed(&initial.as_assignment(), graph.n_qubits());
        physical.apply_circuit(&routed.circuit);

        let mut reference = input;
        reference.apply_circuit(logical);
        let expected = reference.embed(&routed.final_layout.as_assignment(), graph.n_qubits());
        assert!(
            physical.equals_up_to_global_phase(&expected, 1e-9),
            "routed circuit is not equivalent"
        );
    }

    #[test]
    fn already_compliant_circuit_is_unchanged() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::H(2));
        let g = CouplingGraph::line(3);
        let r = route(&c, &g, Layout::trivial(3, 3), &RouterConfig::default());
        assert_eq!(r.swap_count, 0);
        assert_eq!(r.circuit.len(), 2);
    }

    #[test]
    fn distant_cnot_gets_swaps() {
        let mut c = Circuit::new(5);
        c.push(Gate::Cnot(0, 4));
        let g = CouplingGraph::line(5);
        let r = route(&c, &g, Layout::trivial(5, 5), &RouterConfig::default());
        assert!(r.circuit.is_hardware_compliant(&g));
        assert!(r.swap_count >= 3, "needs at least distance-1 swaps");
    }

    #[test]
    fn equivalence_on_line() {
        for seed in 0..5 {
            let c = random_logical(4, 25, seed);
            assert_equivalent(&c, &CouplingGraph::line(5));
        }
    }

    #[test]
    fn equivalence_on_grid() {
        for seed in 5..9 {
            let c = random_logical(6, 40, seed);
            assert_equivalent(&c, &CouplingGraph::grid(2, 4));
        }
    }

    #[test]
    fn equivalence_on_ring_with_ancillas() {
        let c = random_logical(4, 30, 17);
        assert_equivalent(&c, &CouplingGraph::ring(7));
    }

    #[test]
    fn routes_logical_swap_gates() {
        let mut c = Circuit::new(4);
        c.push(Gate::Swap(0, 3));
        c.push(Gate::Cnot(0, 3));
        assert_equivalent(&c, &CouplingGraph::line(4));
    }

    #[test]
    fn heavy_workload_terminates() {
        let c = random_logical(10, 400, 3);
        let g = CouplingGraph::heavy_hex_65();
        let r = route(&c, &g, Layout::trivial(10, 65), &RouterConfig::default());
        assert!(r.circuit.is_hardware_compliant(&g));
        // Every logical gate is emitted (logical SWAPs become relabelings).
        let logical_non_swap = c
            .gates()
            .iter()
            .filter(|g| !matches!(g, Gate::Swap(..)))
            .count();
        assert_eq!(
            r.circuit
                .gates()
                .iter()
                .filter(|g| !matches!(g, Gate::Swap(..)))
                .count(),
            logical_non_swap
        );
    }
}

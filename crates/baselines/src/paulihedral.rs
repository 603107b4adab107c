//! Paulihedral-like baseline (Li et al., ASPLOS'22 — the paper's "PH").
//!
//! Paulihedral's block synthesis is SWAP-centric (paper §III): it finds the
//! largest connected component of the block's support under the current
//! mapping and grows the tree from that component, attaching the remaining
//! support qubits by proximity. There is **no root/leaf distinction**, so
//! whether common-operator qubits land in cancellable (deep) tree positions
//! is accidental — exactly the missed opportunity Tetris targets.
//!
//! Strings inside a block are similarity-ordered (Paulihedral's
//! lexicographic ordering, which maximizes 1-qubit cancellation); blocks
//! run in ansatz order.

use crate::common::BaselineResult;
use std::time::Instant;
use tetris_circuit::{CancelReport, Circuit};
use tetris_core::cluster::{bfs_avoiding, swap_along};
use tetris_core::emit::{emit_block, split_uniform_groups};
use tetris_core::stats::CompileStats;
use tetris_core::tree::{NodeKind, SynthesisTree};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::block::greedy_similarity_order;
use tetris_pauli::mask::QubitMask;
use tetris_pauli::Hamiltonian;
use tetris_topology::{CouplingGraph, Layout};

/// Compiles `hamiltonian` in the Paulihedral style. Set `post_optimize`
/// to mirror the paper's "PH + Qiskit O3" (true) or bare "PH" (false)
/// configurations of Fig. 16. Tree growth (with its SWAPs) is attributed
/// to [`Stage::Clustering`], string ordering and emission to
/// [`Stage::Synthesis`].
pub fn compile(
    hamiltonian: &Hamiltonian,
    graph: &CouplingGraph,
    post_optimize: bool,
) -> BaselineResult {
    let t0 = Instant::now();
    let n = hamiltonian.n_qubits;
    assert!(n <= graph.n_qubits(), "workload wider than device");
    let mut layout = Layout::trivial(n, graph.n_qubits());
    let mut circuit = Circuit::new(graph.n_qubits());

    for block in &hamiltonian.blocks {
        let subs = trace::timed(Stage::Synthesis, || {
            split_uniform_groups(&greedy_similarity_order(block))
        });
        for sub in subs {
            let tree = trace::timed(Stage::Clustering, || {
                let support = sub.union_support();
                grow_from_connected_component(graph, &mut layout, &mut circuit, &support)
            });
            trace::timed(Stage::Synthesis, || emit_block(&tree, &sub, &mut circuit));
        }
    }

    let stats = CompileStats::finish(
        &mut circuit,
        &hamiltonian.blocks,
        CancelReport::default(),
        post_optimize,
        t0,
    );
    BaselineResult {
        name: "Paulihedral".to_string(),
        circuit,
        stats,
        final_layout: Some(layout),
    }
}

/// Grows a block tree from the largest connected component of the support
/// under the current mapping (Paulihedral's CC-growth), attaching stragglers
/// by proximity with SWAPs. No root/leaf distinction.
pub fn grow_from_connected_component(
    graph: &CouplingGraph,
    layout: &mut Layout,
    out: &mut Circuit,
    support: &[usize],
) -> SynthesisTree {
    assert!(!support.is_empty());
    let n_phys = graph.n_qubits();
    let mut placed = QubitMask::empty(n_phys);
    // Mapped support positions, as both an order-bearing Vec (component
    // seeds iterate in support order) and a packed membership set.
    let positions: Vec<usize> = support
        .iter()
        .map(|&q| layout.phys_of(q).expect("qubit placed"))
        .collect();
    let position_set = QubitMask::from_indices(n_phys, &positions);

    // Largest connected component among the mapped support positions.
    let mut best_cc: Vec<usize> = Vec::new();
    let mut best_cc_set = QubitMask::empty(n_phys);
    let mut seen = QubitMask::empty(n_phys);
    for &p in &positions {
        if seen.contains(p) {
            continue;
        }
        let mut cc = vec![p];
        let mut cc_set = QubitMask::empty(n_phys);
        cc_set.insert(p);
        seen.insert(p);
        let mut stack = vec![p];
        while let Some(u) = stack.pop() {
            for v in graph.neighbors(u) {
                if !seen.contains(v) && position_set.contains(v) {
                    seen.insert(v);
                    cc.push(v);
                    cc_set.insert(v);
                    stack.push(v);
                }
            }
        }
        if cc.len() > best_cc.len() {
            best_cc = cc;
            best_cc_set = cc_set;
        }
    }

    // BFS tree over the component, rooted at its first node; chain-bias the
    // attachment (deepest parent) the same way the Tetris clusterer does so
    // the comparison isolates root/leaf awareness, not tree bushiness.
    let root = best_cc[0];
    let mut tree = SynthesisTree::root_only(root, layout.logical_at(root).expect("data"));
    placed.insert(root);
    let mut depth = vec![u32::MAX; n_phys];
    depth[root] = 0;
    let mut frontier = vec![root];
    while let Some(u) = frontier.pop() {
        for v in graph.neighbors(u) {
            if best_cc_set.contains(v) && !placed.contains(v) {
                tree.add_edge(v, u, NodeKind::Data(layout.logical_at(v).expect("data")));
                placed.insert(v);
                depth[v] = depth[u] + 1;
                frontier.push(v);
            }
        }
    }

    // Attach the remaining support qubits by proximity (SWAPs only — no
    // bridging in Paulihedral). `placed` *is* the tree's node set here
    // (it starts empty and only ever receives tree nodes), so the
    // nearest-node scan walks its set bits directly; the worklist stays
    // an order-bearing Vec (its swap-remove order is the historical
    // tie-breaker of the nearest-first selection).
    let mut remaining: Vec<usize> = support
        .iter()
        .copied()
        .filter(|&q| !placed.contains(layout.phys_of(q).expect("qubit placed")))
        .collect();
    while !remaining.is_empty() {
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &q)| {
                let p = layout.phys_of(q).expect("placed");
                placed
                    .iter()
                    .map(|m| graph.dist(p, m))
                    .min()
                    .unwrap_or(u32::MAX)
            })
            .expect("non-empty");
        let q = remaining.swap_remove(idx);
        let start = layout.phys_of(q).expect("placed");
        let field = bfs_avoiding(graph, start, &placed);
        let attach = (0..n_phys)
            .filter(|&p| field.dist[p] != u32::MAX && !placed.contains(p))
            .filter(|&p| graph.neighbors(p).any(|m| placed.contains(m)))
            .min_by_key(|&p| (field.dist[p], p))
            .expect("connected graph");
        let parent = graph
            .neighbors(attach)
            .filter(|&m| placed.contains(m))
            .max_by_key(|&m| {
                let d = if depth[m] == u32::MAX { 0 } else { depth[m] };
                (d, std::cmp::Reverse(m))
            })
            .expect("borders cluster");
        swap_along(layout, out, &field.path_to(attach));
        tree.add_edge(attach, parent, NodeKind::Data(q));
        placed.insert(attach);
        depth[attach] = depth[parent] + 1;
    }
    tree
}

/// Exposed for Fig. 2's "max cancel vs PH" analysis: the cancellation ratio
/// a block-list achieves under PH synthesis on the given device.
pub fn cancel_ratio(hamiltonian: &Hamiltonian, graph: &CouplingGraph) -> f64 {
    compile(hamiltonian, graph, true).stats.cancel_ratio()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_pauli::encoder::Encoding;
    use tetris_pauli::molecules::Molecule;
    use tetris_pauli::{PauliBlock, PauliTerm};
    use tetris_sim::Statevector;

    fn ham(n: usize, blocks: Vec<Vec<(&str, f64)>>) -> Hamiltonian {
        let blocks = blocks
            .into_iter()
            .enumerate()
            .map(|(i, terms)| {
                PauliBlock::new(
                    terms
                        .into_iter()
                        .map(|(s, c)| PauliTerm::new(s.parse().unwrap(), c))
                        .collect(),
                    0.1 + 0.05 * i as f64,
                    format!("b{i}"),
                )
            })
            .collect();
        Hamiltonian::new(n, blocks, "test")
    }

    #[test]
    fn produces_hardware_compliant_circuits() {
        let h = ham(
            4,
            vec![
                vec![("XYZZ", 0.5), ("YXZZ", -0.5)],
                vec![("ZZXY", 1.0), ("ZZYX", -1.0)],
            ],
        );
        let g = CouplingGraph::grid(2, 3);
        let r = compile(&h, &g, true);
        assert!(r.circuit.is_hardware_compliant(&g));
        assert!(r.stats.cancel_ratio() >= 0.0);
    }

    #[test]
    fn semantics_match_exponential_product() {
        let h = ham(
            4,
            vec![vec![("XZZY", 0.4), ("YZZX", -0.4)], vec![("IZZI", 0.9)]],
        );
        let g = CouplingGraph::line(6);
        let r = compile(&h, &g, true);
        assert!(r.circuit.is_hardware_compliant(&g));

        let mut input = Statevector::zero_state(4);
        let mut prep = Circuit::new(4);
        for q in 0..4 {
            prep.push(tetris_circuit::Gate::H(q));
            prep.push(tetris_circuit::Gate::Rz(q, 0.13 * (q + 1) as f64));
        }
        input.apply_circuit(&prep);

        let mut physical = input.embed(&[0, 1, 2, 3], 6);
        physical.apply_circuit(&r.circuit);

        let mut reference = input;
        for b in &h.blocks {
            let ordered = greedy_similarity_order(b);
            for t in &ordered.terms {
                reference.apply_pauli_exp(&t.string, ordered.angle * t.coeff);
            }
        }
        let final_layout = r.final_layout.expect("ph tracks its layout");
        let expected = reference.embed(&final_layout.as_assignment(), 6);
        assert!(physical.equals_up_to_global_phase(&expected, 1e-9));
    }

    #[test]
    fn tetris_beats_ph_on_cancellation_for_lih() {
        // The paper's headline (Fig. 17): Tetris cancels more than PH.
        let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
        let g = CouplingGraph::heavy_hex_65();
        let ph = compile(&h, &g, true);
        let tetris = tetris_core::TetrisCompiler::new(Default::default()).compile(&h, &g);
        assert!(
            tetris.stats.cancel_ratio() > ph.stats.cancel_ratio(),
            "tetris {:.3} vs ph {:.3}",
            tetris.stats.cancel_ratio(),
            ph.stats.cancel_ratio()
        );
    }
}

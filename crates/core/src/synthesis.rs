//! Single-block circuit synthesis with respect to hardware — the paper's
//! Algorithm 1 plus fast bridging (§V-A).

use crate::cluster::{find_center, gather_cluster, swap_along, BfsField};
use crate::config::TetrisConfig;
use crate::tree::{NodeKind, SynthesisTree};
use tetris_circuit::Circuit;
use tetris_pauli::ir::TetrisBlock;
use tetris_pauli::mask::QubitMask;
use tetris_topology::{CouplingGraph, Layout};

/// The paper's leaf score:
/// `score(qn, qm, w) = (d−1)·w + (2·#ps if qm is a root-tree qubit else 2)`.
///
/// `d` is the placed-node-avoiding distance from `qn`'s position to `qm`.
/// Connecting to a root qubit costs CNOTs for *every* string of the block
/// (they cannot cancel across strings because the root section changes),
/// while connecting to a leaf qubit costs only the block's first and last
/// appearance.
#[inline]
pub fn leaf_score(d: u32, parent_is_root: bool, n_strings: usize, w: f64) -> f64 {
    let swap_term = (d.saturating_sub(1)) as f64 * w;
    let cnot_term = if parent_is_root {
        2.0 * n_strings as f64
    } else {
        2.0
    };
    swap_term + cnot_term
}

/// Synthesizes the SWAP/bridge placement of one block: gathers the root set
/// around `findCenter`, then attaches every leaf qubit to the placed node
/// with minimal [`leaf_score`], riding through free `|0>` nodes as fast
/// bridges when the whole path is free.
///
/// SWAPs are appended to `out`; `layout` is updated; the returned tree is
/// ready for [`crate::emit::emit_block`].
///
/// # Panics
/// Panics if the coupling graph cannot host the block (disconnected graph).
pub fn synthesize_block(
    graph: &CouplingGraph,
    layout: &mut Layout,
    out: &mut Circuit,
    block: &TetrisBlock,
    config: &TetrisConfig,
) -> SynthesisTree {
    let mut placed = QubitMask::empty(graph.n_qubits());

    // 1. Root tree: cluster the root set around the center (Alg. 1 l. 4-8).
    let center = find_center(graph, layout, &block.root_mask);
    let mut tree = gather_cluster(
        graph,
        layout,
        out,
        &block.root_mask,
        center,
        &mut placed,
        config.tree_bias,
    );
    let root_positions = tree.node_mask(graph.n_qubits());

    // 2. Leaf trees: attach leaf qubits by minimum score (Alg. 1 l. 9-14).
    let n_strings = block.n_strings();
    let w = config.swap_weight;
    debug_assert!(w >= 0.0, "the leaf bound needs a swap weight ≥ 0");
    let mut unplaced = block.leaf_mask.clone();
    // Two BFS fields, refilled in place: `field` for the leaf being
    // scored, `best_field` for the leaf holding the best candidate so far.
    let mut field = BfsField::default();
    let mut best_field = BfsField::default();
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(unplaced.count());
    while !unplaced.is_empty() {
        // Evaluate score(qn, qm) over unplaced leaves qn and placed nodes
        // qm; ties break on (d, qn, qm) for determinism. Each leaf first
        // gets the lower bound lb(qn) = min over qm of
        // leaf_score(max(hop(pos(qn), qm), 1), …): the real distance
        // d = dist_avoiding(pos(qn), nb) + 1 is at least the hop count to
        // qm, and leaf_score does not decrease in d for w ≥ 0. Leaves are
        // scored (one BFS each) in ascending (lb, qn) order, and the scan
        // stops at the first lb beyond the best score by more than the tie
        // tolerance: no later leaf can beat or tie it. The winner is the
        // minimum of the tie rule, so it does not depend on visiting order.
        order.clear();
        for qn in unplaced.iter() {
            let hops = graph.hop_row(layout.phys_of(qn).expect("leaf qubit placed"));
            let lb = tree
                .nodes_iter()
                .map(|qm| leaf_score(hops[qm].max(1), root_positions.contains(qm), n_strings, w))
                .fold(f64::INFINITY, f64::min);
            order.push((lb, qn));
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        struct Candidate {
            score: f64,
            d: u32,
            qn: usize,
            qm: usize,
            attach: usize,
        }
        let mut best: Option<Candidate> = None;
        for &(lb, qn) in &order {
            if best.as_ref().is_some_and(|b| lb > b.score + 1e-12) {
                break;
            }
            let start = layout.phys_of(qn).expect("leaf qubit placed");
            field.fill(graph, start, &placed);
            let mut improved = false;
            for qm in tree.nodes_iter() {
                // d = 1 + min reachable distance to a free neighbor of qm
                // (d = 1 when qn is already adjacent to qm).
                let reach = graph
                    .neighbors(qm)
                    .filter(|&nb| field.dist[nb] != u32::MAX && !placed.contains(nb))
                    .min_by_key(|&nb| (field.dist[nb], nb));
                let Some(nb) = reach else { continue };
                let d = field.dist[nb] + 1;
                let score = leaf_score(d, root_positions.contains(qm), n_strings, w);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        score < b.score - 1e-12
                            || ((score - b.score).abs() <= 1e-12 && (d, qn, qm) < (b.d, b.qn, b.qm))
                    }
                };
                if better {
                    best = Some(Candidate {
                        score,
                        d,
                        qn,
                        qm,
                        attach: nb,
                    });
                    improved = true;
                }
            }
            if improved {
                std::mem::swap(&mut field, &mut best_field);
            }
        }
        let Candidate { qn, qm, attach, .. } =
            best.expect("a connected graph always exposes an attachable node");
        // The path is built once, for the winner: [pos(qn), …, attach, qm].
        let mut path = best_field.path_to(attach);
        path.push(qm);
        unplaced.remove(qn);

        // Bridging (§IV-C): if every interior node of the path is a free
        // |0> ancilla, ride through it with pass-through tree nodes instead
        // of SWAPs. `path` = [pos(qn), …, attach, qm].
        let interior = &path[1..path.len() - 1]; // excludes pos(qn) and qm
        let all_free = interior.iter().all(|&p| layout.is_free(p));
        let start = path[0];
        if config.bridging && !interior.is_empty() && all_free {
            let mut parent_chain = qm;
            // Build qn → anc_k → … → anc_1 → qm (edges point parent-ward,
            // so iterate from qm backwards).
            for &anc in interior.iter().rev() {
                tree.add_edge(anc, parent_chain, NodeKind::Bridge);
                placed.insert(anc);
                parent_chain = anc;
            }
            tree.add_edge(start, parent_chain, NodeKind::Data(qn));
            placed.insert(start);
        } else {
            // SWAP qn adjacent to qm: move along path up to `attach`.
            swap_along(layout, out, &path[..path.len() - 1]);
            tree.add_edge(attach, qm, NodeKind::Data(qn));
            placed.insert(attach);
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::emit_block;
    use tetris_pauli::ir::TetrisBlock as TB;
    use tetris_pauli::{PauliBlock, PauliTerm};

    fn block(strings: &[&str], angle: f64) -> TB {
        TB::analyze(PauliBlock::new(
            strings
                .iter()
                .map(|s| PauliTerm::new(s.parse().unwrap(), 1.0))
                .collect(),
            angle,
            "t",
        ))
    }

    #[test]
    fn score_formula() {
        // Paper Fig. 13: linking to the root costs w·(d−1) + 2·#ps; to a
        // leaf, w·(d−1) + 2. With #ps = 8, w = 3:
        assert_eq!(leaf_score(2, true, 8, 3.0), 3.0 + 16.0);
        assert_eq!(leaf_score(4, false, 8, 3.0), 9.0 + 2.0);
        // d = 1 (already adjacent): no swap term.
        assert_eq!(leaf_score(1, false, 8, 3.0), 2.0);
    }

    #[test]
    fn synthesizes_fig5_block_on_a_line() {
        // Fig. 5: {XYzzz, XXzzz, YXzzz} on a 7-node line, trivial layout.
        let g = CouplingGraph::line(7);
        let mut layout = Layout::trivial(5, 7);
        let mut out = Circuit::new(7);
        let b = block(&["XYZZZ", "XXZZZ", "YXZZZ"], 0.4);
        assert_eq!(b.root_set, vec![0, 1]);
        let tree = synthesize_block(&g, &mut layout, &mut out, &b, &TetrisConfig::default());
        assert!(tree.validate(|a, b| g.are_adjacent(a, b)));
        // All 5 data qubits are in the tree.
        assert_eq!(tree.data_nodes().len(), 5);
        assert!(out.is_hardware_compliant(&g));
        assert!(layout.is_consistent());
    }

    #[test]
    fn adjacent_leaf_needs_no_swap() {
        // Root {0}, leaf {1} already adjacent on a line: zero SWAPs.
        let g = CouplingGraph::line(4);
        let mut layout = Layout::trivial(2, 4);
        let mut out = Circuit::new(4);
        let b = block(&["ZZ"], 1.0); // promotes qubit 0 to root
        let tree = synthesize_block(&g, &mut layout, &mut out, &b, &TetrisConfig::default());
        assert_eq!(out.swap_count(), 0);
        assert_eq!(tree.edges.len(), 1);
        assert_eq!(tree.bridge_count(), 0);
    }

    #[test]
    fn distant_pair_uses_bridge_over_free_nodes() {
        // Root q0 at position 0, leaf q1 at position 3; positions 1, 2 free:
        // bridging should produce two Bridge nodes and zero SWAPs.
        let g = CouplingGraph::line(4);
        let layout0 = Layout::from_assignment(&[0, 3], 4);
        let mut layout = layout0;
        let mut out = Circuit::new(4);
        let b = block(&["ZZ"], 1.0);
        let tree = synthesize_block(&g, &mut layout, &mut out, &b, &TetrisConfig::default());
        assert_eq!(out.swap_count(), 0, "bridge should avoid SWAPs");
        assert_eq!(tree.bridge_count(), 2);
        assert!(tree.validate(|a, b| g.are_adjacent(a, b)));
    }

    #[test]
    fn bridging_disabled_falls_back_to_swaps() {
        let g = CouplingGraph::line(4);
        let mut layout = Layout::from_assignment(&[0, 3], 4);
        let mut out = Circuit::new(4);
        let b = block(&["ZZ"], 1.0);
        let cfg = TetrisConfig::default().with_bridging(false);
        let tree = synthesize_block(&g, &mut layout, &mut out, &b, &cfg);
        assert!(out.swap_count() >= 2);
        assert_eq!(tree.bridge_count(), 0);
        assert!(out.is_hardware_compliant(&g));
    }

    #[test]
    fn emitted_block_is_hardware_compliant() {
        let g = CouplingGraph::grid(3, 3);
        let mut layout = Layout::trivial(5, 9);
        let mut out = Circuit::new(9);
        let b = block(&["XZZZY", "YZZZX"], 0.7);
        let tree = synthesize_block(&g, &mut layout, &mut out, &b, &TetrisConfig::default());
        emit_block(&tree, &b.block, &mut out);
        assert!(out.is_hardware_compliant(&g));
        assert!(out.raw_cnot_count() >= 2 * 2 * 4); // 2 strings × 2·(5−1)
    }

    #[test]
    fn swap_weight_extremes_change_swap_usage() {
        // With a huge w the compiler avoids SWAPs (attaches to the nearest
        // placed node); with a tiny w it may spend SWAPs to reach leaf
        // parents. At minimum, both must stay valid.
        let g = CouplingGraph::heavy_hex_65();
        for w in [0.1, 100.0] {
            let mut layout = Layout::trivial(12, 65);
            let mut out = Circuit::new(65);
            let b = block(&["XZZZZZZZZZZY", "YZZZZZZZZZZX"], 0.3);
            let cfg = TetrisConfig::default().with_swap_weight(w);
            let tree = synthesize_block(&g, &mut layout, &mut out, &b, &cfg);
            assert!(tree.validate(|a, b| g.are_adjacent(a, b)), "w={w}");
            assert_eq!(tree.data_nodes().len(), 12);
        }
    }
}

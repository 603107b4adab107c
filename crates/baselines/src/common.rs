//! Shared plumbing for the baseline compilers.

use std::time::Instant;
use tetris_circuit::{cancel_gates_commutative, CancelReport, Circuit};
use tetris_core::stats::CompileStats;
use tetris_core::tree::{NodeKind, SynthesisTree};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::PauliBlock;
use tetris_router::{route, RouterConfig};
use tetris_topology::{CouplingGraph, Layout};

/// Output of a baseline compiler, aligned with
/// [`tetris_core::CompileResult`] for apples-to-apples evaluation.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Compiler name (used in table rows).
    pub name: String,
    /// The final (hardware-compliant unless noted) circuit.
    pub circuit: Circuit,
    /// The same statistics Tetris reports.
    pub stats: CompileStats,
    /// Layout after the last gate (`None` for logical-only outputs).
    pub final_layout: Option<Layout>,
}

/// Builds a chain tree over *logical* indices: `order[0] → order[1] → … →
/// order[last]`, with the `Rz` on the last entry. The "device" is the
/// complete graph, so every edge is legal — this is how the
/// hardware-oblivious baselines synthesize before routing.
///
/// # Panics
/// Panics if `order` is empty or contains duplicates.
pub fn chain_tree(order: &[usize]) -> SynthesisTree {
    assert!(!order.is_empty(), "empty chain");
    // Up-front duplicate detection on a packed set — O(len) instead of the
    // O(len²) scan `add_edge` would otherwise fall back to.
    let width = order.iter().max().expect("non-empty") + 1;
    let mut seen = tetris_pauli::mask::QubitMask::empty(width);
    for &q in order {
        assert!(!seen.contains(q), "duplicate qubit {q} in chain");
        seen.insert(q);
    }
    let root = *order.last().expect("non-empty");
    let mut tree = SynthesisTree::root_only(root, root);
    for i in (0..order.len() - 1).rev() {
        tree.add_edge(order[i], order[i + 1], NodeKind::Data(order[i]));
    }
    tree
}

/// Finishes a hardware-oblivious pipeline: optionally cancel on the logical
/// circuit, route onto `graph` from the trivial layout, then take the shared
/// finishing step ([`CompileStats::finish`], peephole included) on the
/// routed circuit. `blocks` are the workload's blocks.
pub fn route_and_finish(
    name: &str,
    mut logical: Circuit,
    blocks: &[PauliBlock],
    graph: &CouplingGraph,
    pre_route_cancel: bool,
    t0: Instant,
) -> BaselineResult {
    let earlier = if pre_route_cancel {
        trace::timed(Stage::Optimize, || cancel_gates_commutative(&mut logical))
    } else {
        CancelReport::default()
    };
    let routed = trace::timed(Stage::Routing, || {
        route(
            &logical,
            graph,
            Layout::trivial(logical.n_qubits(), graph.n_qubits()),
            &RouterConfig::default(),
        )
    });
    let mut circuit = routed.circuit;
    let stats = CompileStats::finish(&mut circuit, blocks, earlier, true, t0);
    BaselineResult {
        name: name.to_string(),
        circuit,
        stats,
        final_layout: Some(routed.final_layout),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_core::emit::emit_string;
    use tetris_pauli::{PauliString, PauliTerm};
    use tetris_sim::Statevector;

    #[test]
    fn chain_tree_shape() {
        let t = chain_tree(&[2, 0, 3]);
        assert_eq!(t.root, 3);
        let order: Vec<usize> = t.edges_deepest_first().iter().map(|e| e.child).collect();
        assert_eq!(order, vec![2, 0]);
        assert_eq!(t.data_nodes().len(), 3);
    }

    #[test]
    fn chain_tree_emission_is_correct() {
        // Logical chain emission must equal the exponential (complete graph
        // semantics; qubit q = position q).
        let t = chain_tree(&[0, 1, 2]);
        let p: PauliString = "XZY".parse().unwrap();
        let mut c = Circuit::new(3);
        emit_string(&t, &p, 0.9, &mut c);
        let mut a = Statevector::random_state(3, 5);
        let mut b = a.clone();
        a.apply_circuit(&c);
        b.apply_pauli_exp(&p, 0.9);
        assert!(a.equals_up_to_global_phase(&b, 1e-9));
    }

    #[test]
    fn route_and_finish_produces_compliant_circuit() {
        let t = chain_tree(&[0, 3, 1]);
        let p: PauliString = "XZIY".parse().unwrap();
        let mut logical = Circuit::new(4);
        emit_string(&t, &p, 0.4, &mut logical);
        let graph = CouplingGraph::line(5);
        let orig = logical.raw_cnot_count();
        let block = PauliBlock::new(vec![PauliTerm::new(p, 0.4)], 1.0, "b");
        let r = route_and_finish("t", logical, &[block], &graph, true, Instant::now());
        assert!(r.circuit.is_hardware_compliant(&graph));
        assert_eq!(r.stats.original_cnots, orig);
        assert_eq!(
            r.stats.metrics.cnot_count,
            r.stats.logical_cnots() + r.stats.swap_cnots()
        );
    }
}

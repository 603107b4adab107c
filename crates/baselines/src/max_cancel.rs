//! The "max_cancel" baseline (paper Figs. 2, 17, 18).
//!
//! Hardware-oblivious synthesis that maximizes logical CNOT cancellation:
//! every block is synthesized over a **single chain** with the leaf-set
//! (common-operator) qubits at the deep end and the root-set qubits above
//! them — the Fig. 4(a) cancelable construction. Because the tree ignores
//! the device entirely, routing afterwards pays a large SWAP bill (the
//! paper's `max_S` bars in Fig. 18).

use crate::common::{chain_tree, route_and_finish, BaselineResult};
use std::time::Instant;
use tetris_circuit::{cancel_gates_commutative, Circuit};
use tetris_core::emit::{emit_block, split_uniform_groups};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::block::greedy_similarity_order;
use tetris_pauli::Hamiltonian;
use tetris_topology::CouplingGraph;

/// Synthesizes the *logical* max-cancel circuit (no routing). Strings are
/// similarity-ordered inside each block; the chain per block orders qubits
/// by *stability* — the number of consecutive-string boundaries at which
/// the qubit's operator is unchanged — with the most stable qubits at the
/// deep (cancelable) end. Block-level leaf qubits are maximally stable, so
/// this generalizes "leaf section at the bottom" (Fig. 4a) to the partial
/// commonality that dominates Bravyi-Kitaev blocks.
pub fn logical_circuit(hamiltonian: &Hamiltonian) -> Circuit {
    let mut circuit = Circuit::new(hamiltonian.n_qubits);
    for block in &hamiltonian.blocks {
        for sub in split_uniform_groups(&greedy_similarity_order(block)) {
            let sub = greedy_similarity_order(&sub);
            let order = stability_chain(&sub);
            let tree = chain_tree(&order);
            emit_block(&tree, &sub, &mut circuit);
        }
    }
    circuit
}

/// Support qubits ordered most-stable-first (deep end of the chain first):
/// ascending by the number of boundaries where the operator changes, ties
/// by qubit index. Change counts are accumulated from the XORed bitplanes
/// of each consecutive string pair — one diff word per 64 qubits per
/// boundary, with a trailing-zeros scan over the (sparse) changed sites —
/// instead of walking every qubit at every boundary.
pub fn stability_chain(block: &tetris_pauli::PauliBlock) -> Vec<usize> {
    let mut changes = vec![0usize; block.n_qubits()];
    for w in block.terms.windows(2) {
        let (a, b) = (&w[0].string, &w[1].string);
        let diff_words = a
            .x_words()
            .iter()
            .zip(a.z_words())
            .zip(b.x_words().iter().zip(b.z_words()))
            .map(|((&ax, &az), (&bx, &bz))| (ax ^ bx) | (az ^ bz));
        for q in tetris_pauli::mask::iter_set_bits(diff_words) {
            changes[q] += 1;
        }
    }
    let mut order = tetris_pauli::mask::QubitMask::support_of(&block.terms[0].string).to_vec();
    order.sort_by_key(|&q| (changes[q], q));
    order
}

/// The maximal logical cancellation ratio of a workload — the paper's
/// "max_cancel" series in Figs. 2 and 17. No routing is involved.
pub fn max_cancel_ratio(hamiltonian: &Hamiltonian) -> f64 {
    let mut circuit = logical_circuit(hamiltonian);
    let original = hamiltonian.naive_cnot_count();
    let report = cancel_gates_commutative(&mut circuit);
    if original == 0 {
        0.0
    } else {
        report.removed_cnots as f64 / original as f64
    }
}

/// Full max-cancel pipeline: logical synthesis → cancel → SWAP routing →
/// cancel (the paper's "max" bars, which are "further transpiled by Qiskit
/// to solve the hardware connectivity constraint").
pub fn compile(hamiltonian: &Hamiltonian, graph: &CouplingGraph) -> BaselineResult {
    let t0 = Instant::now();
    let logical = trace::timed(Stage::Synthesis, || logical_circuit(hamiltonian));
    route_and_finish("max_cancel", logical, &hamiltonian.blocks, graph, true, t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_pauli::encoder::Encoding;
    use tetris_pauli::molecules::Molecule;
    use tetris_pauli::{PauliBlock, PauliTerm};

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
                    0.2,
                    format!("b{i}"),
                )
            })
            .collect();
        Hamiltonian::new(n, blocks, "test")
    }

    #[test]
    fn fig3_pair_cancels_four_cnots() {
        // The motivating example: Y0ZZZY4 + X0ZZZX4 with the leaf chain at
        // the bottom cancels 4 CNOTs (Fig. 3c).
        let h = ham(5, vec![vec![("YZZZY", 0.5), ("XZZZX", -0.5)]]);
        let mut c = logical_circuit(&h);
        assert_eq!(h.naive_cnot_count(), 16);
        let report = cancel_gates_commutative(&mut c);
        assert!(
            report.removed_cnots >= 4,
            "expected ≥ 4, got {}",
            report.removed_cnots
        );
    }

    #[test]
    fn max_ratio_dominates_ph_ratio() {
        // Fig. 2's headline: max_cancel ≥ Paulihedral for real molecules.
        let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
        let g = CouplingGraph::heavy_hex_65();
        let max = max_cancel_ratio(&h);
        let ph = crate::paulihedral::compile(&h, &g, true)
            .stats
            .cancel_ratio();
        assert!(max > ph, "max {max:.3} vs ph {ph:.3}");
    }

    #[test]
    fn routed_output_is_compliant_and_more_swapped_than_tetris() {
        let h = ham(
            6,
            vec![
                vec![("XZZZZY", 0.5), ("YZZZZX", -0.5)],
                vec![("IXZZYI", 0.3), ("IYZZXI", -0.3)],
            ],
        );
        let g = CouplingGraph::heavy_hex_65();
        let r = compile(&h, &g);
        assert!(r.circuit.is_hardware_compliant(&g));
        assert!(r.stats.swaps_inserted > 0 || r.stats.swaps_final == 0);
    }
}

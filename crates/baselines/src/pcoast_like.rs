//! PCOAST-style baseline (paper Figs. 14, 15b).
//!
//! PCOAST (Intel Quantum SDK) is a strong *logical-level* Pauli optimizer:
//! it reduces the logical gate count aggressively but is agnostic to qubit
//! mapping and routing, so the subsequent transpilation pays a large
//! SWAP-induced CNOT bill — the defining shape of the paper's Fig. 15b.
//!
//! This reproduction models that profile with the strongest logical
//! pipeline available in the workspace: globally similarity-ordered blocks
//! (a greedy chain over the block list, maximizing inter-block leaf-section
//! overlap through the shared Eq. 1 [`SimilarityIndex`]) synthesized with
//! leaf-deep single chains, canceled logically, then routed from a trivial
//! layout.

use crate::common::{chain_tree, route_and_finish, BaselineResult};
use std::time::Instant;
use tetris_circuit::Circuit;
use tetris_core::emit::{emit_block, split_uniform_groups};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::block::greedy_similarity_order;
use tetris_pauli::ir::TetrisBlock;
use tetris_pauli::similarity::SimilarityIndex;
use tetris_pauli::Hamiltonian;
use tetris_topology::CouplingGraph;

/// Synthesizes the logical PCOAST-like circuit: blocks are greedily chained
/// by leaf-section similarity (Eq. 1), each synthesized as a leaf-deep
/// chain. The block chain is attributed to [`Stage::Scheduling`], the
/// emission to [`Stage::Synthesis`].
pub fn logical_circuit(hamiltonian: &Hamiltonian) -> Circuit {
    let (blocks, order) = trace::timed(Stage::Scheduling, || {
        let blocks: Vec<TetrisBlock> = hamiltonian
            .blocks
            .iter()
            .map(|b| TetrisBlock::analyze(greedy_similarity_order(b)))
            .collect();
        let order = block_chain(&blocks);
        (blocks, order)
    });
    trace::timed(Stage::Synthesis, || {
        let mut circuit = Circuit::new(hamiltonian.n_qubits);
        for &bi in &order {
            for sub in split_uniform_groups(&blocks[bi].block) {
                let sub = greedy_similarity_order(&sub);
                let chain = crate::max_cancel::stability_chain(&sub);
                emit_block(&chain_tree(&chain), &sub, &mut circuit);
            }
        }
        circuit
    })
}

/// Greedy similarity chain over blocks (start at max active length), each
/// step taking the [`SimilarityIndex::best`] match to the block just
/// chained. The unchained-block set is a packed mask, so removal is one bit
/// clear.
fn block_chain(blocks: &[TetrisBlock]) -> Vec<usize> {
    let index = SimilarityIndex::new(blocks);
    let mut remaining = tetris_pauli::mask::QubitMask::full(blocks.len());
    let mut order = Vec::with_capacity(blocks.len());
    let Some(first) = remaining
        .iter()
        .max_by_key(|&i| (blocks[i].active_length(), std::cmp::Reverse(i)))
    else {
        return order;
    };
    remaining.remove(first);
    order.push(first);
    while let Some(next) = index.best(*order.last().expect("non-empty"), &remaining) {
        remaining.remove(next);
        order.push(next);
    }
    order
}

/// Full PCOAST-like pipeline: logical optimization, then routing (the
/// paper's "PCOAST + Qiskit O3 for mapping/routing").
pub fn compile(hamiltonian: &Hamiltonian, graph: &CouplingGraph) -> BaselineResult {
    let t0 = Instant::now();
    let logical = logical_circuit(hamiltonian);
    route_and_finish("PCOAST", logical, &hamiltonian.blocks, graph, true, t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_pauli::encoder::Encoding;
    use tetris_pauli::molecules::Molecule;

    #[test]
    fn logical_count_beats_paulihedral_for_lih() {
        // PCOAST's defining property: best-in-class *logical* CNOT count
        // (Fig. 15b "PCOAST CNOTs" < "PH CNOTs").
        let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
        let mut logical = logical_circuit(&h);
        tetris_circuit::cancel_gates_commutative(&mut logical);
        let pcoast_logical = logical.raw_cnot_count();

        let g = CouplingGraph::heavy_hex_65();
        let ph = crate::paulihedral::compile(&h, &g, true);
        let ph_logical = ph.stats.logical_cnots();
        assert!(
            pcoast_logical < ph_logical,
            "pcoast {pcoast_logical} vs ph {ph_logical}"
        );
    }

    #[test]
    fn routing_dominates_its_swap_bill() {
        // …and its weakness: a mapping-agnostic circuit pays more
        // SWAP-induced CNOTs than Tetris (Fig. 15b "PCOAST Swaps").
        let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
        let g = CouplingGraph::heavy_hex_65();
        let pc = compile(&h, &g);
        assert!(pc.circuit.is_hardware_compliant(&g));
        let tetris = tetris_core::TetrisCompiler::new(Default::default()).compile(&h, &g);
        assert!(
            pc.stats.swap_cnots() > tetris.stats.swap_cnots(),
            "pcoast swaps {} vs tetris {}",
            pc.stats.swap_cnots(),
            tetris.stats.swap_cnots()
        );
    }
}

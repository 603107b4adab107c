//! T|Ket⟩-style generic baseline (paper Figs. 14, 15a).
//!
//! A general-purpose compiler is oblivious to the Pauli-block structure: it
//! synthesizes each string independently with a canonical qubit-index
//! ladder (`Rz` on the highest support qubit) and leaves cancellation to a
//! generic peephole pass. Because the ladder puts the frequently-changing
//! low-index X/Y qubits at the deep end of the tree (the paper's Fig. 4(b)
//! non-cancelable construction), cross-string cancellation mostly fails and
//! the CNOT count lands ≈ 2× above the block-aware compilers — the shape
//! the paper reports for T|Ket⟩.
//!
//! Two post-processing levels mirror the paper's Fig. 15a comparison:
//! [`OptLevel::Native`] cancels before *and* after routing (T|Ket⟩ + its own
//! O2), [`OptLevel::PostRouteOnly`] cancels only after routing (T|Ket⟩ +
//! external O3), which routes a larger circuit and ends up worse.

use crate::common::{chain_tree, route_and_finish, BaselineResult};
use std::time::Instant;
use tetris_circuit::Circuit;
use tetris_core::emit::emit_string;
use tetris_obs::trace::{self, Stage};
use tetris_pauli::Hamiltonian;
use tetris_topology::CouplingGraph;

/// Post-processing level of the generic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Cancel logically before routing and again after (tket + tket O2).
    Native,
    /// Only cancel after routing (tket + external O3 on the routed
    /// circuit).
    PostRouteOnly,
}

/// Synthesizes the *logical* circuit: one index-ordered ladder per string,
/// no block awareness.
pub fn logical_circuit(hamiltonian: &Hamiltonian) -> Circuit {
    let mut circuit = Circuit::new(hamiltonian.n_qubits);
    for block in &hamiltonian.blocks {
        for term in &block.terms {
            if term.string.is_identity() {
                continue;
            }
            let order: Vec<usize> = term.string.support().collect();
            let tree = chain_tree(&order);
            emit_string(&tree, &term.string, block.angle * term.coeff, &mut circuit);
        }
    }
    circuit
}

/// Full generic pipeline at the given optimization level.
pub fn compile(
    hamiltonian: &Hamiltonian,
    graph: &CouplingGraph,
    level: OptLevel,
) -> BaselineResult {
    let t0 = Instant::now();
    let logical = trace::timed(Stage::Synthesis, || logical_circuit(hamiltonian));
    let name = match level {
        OptLevel::Native => "TKet+TKetO2",
        OptLevel::PostRouteOnly => "TKet+QiskitO3",
    };
    route_and_finish(
        name,
        logical,
        &hamiltonian.blocks,
        graph,
        level == OptLevel::Native,
        t0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn ladder_synthesis_counts() {
        let h = ham(4, vec![vec![("XZZY", 0.5), ("YZZX", -0.5)]]);
        let c = logical_circuit(&h);
        assert_eq!(h.naive_cnot_count(), 12);
        assert_eq!(c.raw_cnot_count(), 12);
    }

    #[test]
    fn generic_cancels_less_than_max_cancel() {
        // The index ladder leaves the varying qubits deep → less
        // cancellation than the leaf-first chain.
        let h = ham(
            5,
            vec![
                vec![("XZZZY", 0.5), ("YZZZX", -0.5)],
                vec![("XZZYI", 0.5), ("YZZXI", -0.5)],
            ],
        );
        let mut generic = logical_circuit(&h);
        let orig = h.naive_cnot_count();
        let g_cancel = tetris_circuit::cancel_gates(&mut generic).removed_cnots;
        let max = crate::max_cancel::max_cancel_ratio(&h);
        assert!(
            (g_cancel as f64 / orig as f64) < max,
            "generic {g_cancel}/{orig} vs max ratio {max}"
        );
    }

    #[test]
    fn both_levels_produce_compliant_circuits() {
        let h = ham(
            4,
            vec![vec![("XZZY", 0.5), ("YZZX", -0.5)], vec![("ZZII", 1.0)]],
        );
        let g = CouplingGraph::grid(2, 3);
        for level in [OptLevel::Native, OptLevel::PostRouteOnly] {
            let r = compile(&h, &g, level);
            assert!(r.circuit.is_hardware_compliant(&g), "{level:?}");
            assert!(r.stats.total_cnots() > 0);
        }
    }
}

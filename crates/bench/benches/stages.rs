//! Timing of the individual pipeline stages: encoders, peephole optimizer,
//! router. Criterion is not vendored in this workspace, so this is a plain
//! `harness = false` timing loop over a few samples.

use tetris_baselines::max_cancel;
use tetris_bench::timing::{time_best_of, SAMPLES};
use tetris_circuit::cancel_gates;
use tetris_pauli::encoder::Encoding;
use tetris_pauli::molecules::Molecule;
use tetris_router::{route, RouterConfig};
use tetris_topology::{CouplingGraph, Layout};

fn main() {
    let ansatz = Molecule::LiH.ansatz();
    time_best_of("encode/jordan-wigner-LiH", SAMPLES, || {
        ansatz.hamiltonian(Encoding::JordanWigner, 1, "LiH")
    });
    time_best_of("encode/bravyi-kitaev-LiH", SAMPLES, || {
        ansatz.hamiltonian(Encoding::BravyiKitaev, 1, "LiH")
    });

    let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
    let logical = max_cancel::logical_circuit(&h);
    time_best_of("optimizer/cancel-LiH-logical", SAMPLES, || {
        let mut c = logical.clone();
        cancel_gates(&mut c)
    });

    let mut routed_input = logical;
    cancel_gates(&mut routed_input);
    let graph = CouplingGraph::heavy_hex_65();
    time_best_of("router/sabre-LiH", SAMPLES, || {
        route(
            &routed_input,
            &graph,
            Layout::trivial(routed_input.n_qubits(), graph.n_qubits()),
            &RouterConfig::default(),
        )
    });
}

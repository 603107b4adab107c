//! 2QAN-lite baseline (Lao & Browne, ISCA'22 — paper Fig. 23).
//!
//! 2QAN compiles 2-local Hamiltonian-simulation circuits (every term acts
//! on exactly two qubits, all terms commute) with a placement stage that
//! maps the interaction graph onto the device, followed by
//! executable-first scheduling. This lite reproduction keeps both defining
//! ingredients:
//!
//! 1. **Annealed placement** — hill-climbing over layouts to minimize the
//!    total coupling distance of the interaction edges;
//! 2. **Executable-first scheduling** — commuting terms are reordered so
//!    that currently-adjacent pairs run first; when stuck, the cheapest
//!    SWAP along a shortest path unblocks the closest term.
//!
//! It lacks Tetris's fast bridging and its |0>-ancilla reuse, which is the
//! gap Fig. 23 measures.

use crate::common::BaselineResult;
use std::time::Instant;
use tetris_circuit::{CancelReport, Circuit, Gate};
use tetris_core::stats::CompileStats;
use tetris_obs::trace::{self, Stage};
use tetris_pauli::rng::rngs::StdRng;
use tetris_pauli::rng::{Rng, SeedableRng};
use tetris_pauli::Hamiltonian;
use tetris_topology::{CouplingGraph, Layout};

/// Compiles a 2-local Hamiltonian (e.g. QAOA MaxCut cost layer). The
/// placement is attributed to [`Stage::Clustering`] and the emission loop,
/// whose wall time is SWAP-search dominated, to [`Stage::Routing`].
///
/// # Panics
/// Panics if some block is not a single 2-qubit `ZZ`-like string.
pub fn compile(hamiltonian: &Hamiltonian, graph: &CouplingGraph, seed: u64) -> BaselineResult {
    let t0 = Instant::now();
    let n = hamiltonian.n_qubits;
    assert!(n <= graph.n_qubits());

    // Interaction edges with their angles.
    let mut terms: Vec<(usize, usize, f64)> = Vec::new();
    for b in &hamiltonian.blocks {
        assert_eq!(b.len(), 1, "2QAN expects one string per block");
        let t = &b.terms[0];
        let support: Vec<usize> = t.string.support().collect();
        assert_eq!(support.len(), 2, "2QAN expects 2-local terms");
        terms.push((support[0], support[1], b.angle * t.coeff));
    }

    // 1. Annealed placement.
    let mut layout = trace::timed(Stage::Clustering, || {
        anneal_placement(graph, n, &terms, seed)
    });

    // 2. Executable-first scheduling with SWAP unblocking.
    let routing_span = trace::StageTimer::start(Stage::Routing);
    let mut circuit = Circuit::new(graph.n_qubits());
    let mut remaining: Vec<(usize, usize, f64)> = terms;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < remaining.len() {
            let (u, v, angle) = remaining[i];
            let (pu, pv) = (
                layout.phys_of(u).expect("placed"),
                layout.phys_of(v).expect("placed"),
            );
            if graph.are_adjacent(pu, pv) {
                emit_zz(&mut circuit, pu, pv, angle);
                remaining.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if remaining.is_empty() {
            break;
        }
        if !progressed {
            // Unblock the closest term with one SWAP step along its path.
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(u, v, _))| {
                    graph.dist(
                        layout.phys_of(u).expect("placed"),
                        layout.phys_of(v).expect("placed"),
                    )
                })
                .expect("non-empty");
            let (u, v, _) = remaining[idx];
            let (pu, pv) = (
                layout.phys_of(u).expect("placed"),
                layout.phys_of(v).expect("placed"),
            );
            let path = graph.shortest_path(pu, pv).expect("connected");
            circuit.push(Gate::Swap(path[0], path[1]));
            layout.swap_phys(path[0], path[1]);
        }
    }

    routing_span.stop();

    let stats = CompileStats::finish(
        &mut circuit,
        &hamiltonian.blocks,
        CancelReport::default(),
        true,
        t0,
    );
    BaselineResult {
        name: "2QAN".to_string(),
        circuit,
        stats,
        final_layout: Some(layout),
    }
}

/// Emits `exp(-i θ/2 Z⊗Z)` on two adjacent physical qubits.
fn emit_zz(out: &mut Circuit, a: usize, b: usize, angle: f64) {
    out.push(Gate::Cnot(a, b));
    out.push(Gate::Rz(b, angle));
    out.push(Gate::Cnot(a, b));
}

/// Hill-climbing placement: repeatedly propose swapping two physical
/// positions in the assignment (including free positions) and keep the move
/// if the total edge distance does not increase.
fn anneal_placement(
    graph: &CouplingGraph,
    n_logical: usize,
    terms: &[(usize, usize, f64)],
    seed: u64,
) -> Layout {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layout = Layout::trivial(n_logical, graph.n_qubits());
    let cost = |l: &Layout| -> u64 {
        terms
            .iter()
            .map(|&(u, v, _)| graph.dist(l.phys_of(u).expect("p"), l.phys_of(v).expect("p")) as u64)
            .sum()
    };
    let mut best = cost(&layout);
    let iterations = 400 * graph.n_qubits();
    for _ in 0..iterations {
        let a = rng.gen_range(0..graph.n_qubits());
        let b = rng.gen_range(0..graph.n_qubits());
        if a == b {
            continue;
        }
        layout.swap_phys(a, b);
        let c = cost(&layout);
        if c <= best {
            best = c;
        } else {
            layout.swap_phys(a, b); // revert
        }
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_pauli::qaoa::{maxcut_hamiltonian, Graph};

    #[test]
    fn compiles_a_ring_maxcut() {
        let g = Graph::new(6, (0..6).map(|i| (i, (i + 1) % 6)));
        let h = maxcut_hamiltonian(&g, "ring");
        let device = CouplingGraph::grid(3, 3);
        let r = compile(&h, &device, 3);
        assert!(r.circuit.is_hardware_compliant(&device));
        // 6 edges → 12 logical CNOTs plus whatever routing costs.
        assert_eq!(r.stats.original_cnots, 12);
        assert!(r.stats.total_cnots() >= 12);
    }

    #[test]
    fn placement_reduces_edge_distance() {
        let g = Graph::random_gnm(10, 15, 7);
        let h = maxcut_hamiltonian(&g, "rand");
        let device = CouplingGraph::heavy_hex_65();
        let terms: Vec<(usize, usize, f64)> = h
            .blocks
            .iter()
            .map(|b| {
                let s: Vec<usize> = b.terms[0].string.support().collect();
                (s[0], s[1], 1.0)
            })
            .collect();
        let trivial = Layout::trivial(10, 65);
        let placed = anneal_placement(&device, 10, &terms, 11);
        let cost = |l: &Layout| -> u64 {
            terms
                .iter()
                .map(|&(u, v, _)| device.dist(l.phys_of(u).unwrap(), l.phys_of(v).unwrap()) as u64)
                .sum()
        };
        assert!(cost(&placed) <= cost(&trivial));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Graph::random_regular(8, 3, 2);
        let h = maxcut_hamiltonian(&g, "reg");
        let device = CouplingGraph::grid(3, 4);
        let a = compile(&h, &device, 5);
        let b = compile(&h, &device, 5);
        assert_eq!(a.circuit, b.circuit);
    }
}

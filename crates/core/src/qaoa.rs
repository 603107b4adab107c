//! The QAOA / 2-local bridging pass (paper §V-C).
//!
//! QAOA cost layers have no inter-string similarity (every Pauli string
//! touches at most two qubits), so the leaf-cancellation machinery has
//! nothing to cancel. Instead Tetris:
//!
//! 1. **places** the interaction graph onto the device (hill-climbing over
//!    layouts, minimizing total coupling distance — free device qubits
//!    spread between the data qubits become bridge fuel);
//! 2. schedules **executable terms first** (all cost terms commute);
//! 3. when stuck, applies the paper's **lookahead**: if a SWAP along the
//!    blocked term's shortest path helps other pending terms, insert the
//!    SWAP; otherwise ride a **fast CNOT bridge** through the free `|0>`
//!    qubits on the path (Fig. 8) — cheaper whenever the mapping change
//!    would not be reused.
//!
//! The pass is selected automatically by [`crate::TetrisCompiler`] when
//! every block is a single string of weight ≤ 2 (see
//! [`is_two_local`]); the emitted circuit stays fully unitary (no
//! mid-circuit measurement is needed because the 65-qubit devices leave
//! ample free ancillas for 16–20 qubit workloads).

use crate::compiler::CompileResult;
use crate::config::TetrisConfig;
use crate::emit::emit_string;
use crate::stats::CompileStats;
use crate::tree::{NodeKind, SynthesisTree};
use std::time::Instant;
use tetris_circuit::{CancelReport, Circuit, Gate};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::ir::{TetrisBlock, TetrisIr};
use tetris_pauli::mask::QubitMask;
use tetris_topology::{CouplingGraph, Layout};

/// Whether the workload is 2-local with single-string blocks (QAOA-shaped).
pub fn is_two_local(blocks: &[TetrisBlock]) -> bool {
    !blocks.is_empty()
        && blocks
            .iter()
            .all(|b| b.n_strings() == 1 && b.active_length() <= 2)
}

/// Deterministic splitmix64 — the core crate stays free of RNG
/// dependencies; placement only needs a reproducible stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Compiles a 2-local workload (called by the main compiler's dispatch).
pub fn compile_qaoa(ir: &TetrisIr, graph: &CouplingGraph, config: &TetrisConfig) -> CompileResult {
    let t0 = Instant::now();
    let n = ir.n_qubits;
    // One entry per block: the ≤ 2 endpoints of its single string,
    // extracted once from the packed support by bit cursors (the
    // executable/lookahead scans only ever need the endpoints, so the
    // mask itself is not retained).
    struct Term {
        index: usize,
        u: usize,
        v: Option<usize>,
    }
    let terms: Vec<Term> = ir
        .blocks
        .iter()
        .enumerate()
        .map(|(index, b)| {
            let support = QubitMask::support_of(&b.block.terms[0].string);
            debug_assert!(
                support.count() <= 2,
                "compile_qaoa requires 2-local terms (see is_two_local)"
            );
            let u = support.first().expect("non-identity term");
            let v = support
                .next_at_or_after((u + 1).min(support.n_qubits() - 1))
                .filter(|&v| v != u);
            Term { index, u, v }
        })
        .collect();
    let pairs: Vec<(usize, usize)> = terms.iter().filter_map(|t| t.v.map(|v| (t.u, v))).collect();

    // 1. Placement (the QAOA analogue of cluster formation).
    let initial_layout = trace::timed(Stage::Clustering, || place(graph, n, &pairs, 0x7e7215));
    let mut layout = initial_layout.clone();
    let mut circuit = Circuit::new(graph.n_qubits());

    // 2/3. Executable-first scheduling with the SWAP-vs-bridge lookahead.
    let mut remaining: Vec<usize> = (0..terms.len()).collect();
    let mut block_order = Vec::with_capacity(terms.len());
    let mut emitted_blocks = Vec::with_capacity(terms.len());
    let emit_term = |ti: usize,
                     layout: &Layout,
                     circuit: &mut Circuit,
                     block_order: &mut Vec<usize>,
                     emitted_blocks: &mut Vec<tetris_pauli::PauliBlock>,
                     bridge_path: Option<&[usize]>| {
        let b = &ir.blocks[terms[ti].index];
        let term = &b.block.terms[0];
        let u = terms[ti].u;
        let tree = match (terms[ti].v, bridge_path) {
            (None, _) => SynthesisTree::root_only(layout.phys_of(u).expect("placed"), u),
            (Some(v), None) => {
                let (pu, pv) = (
                    layout.phys_of(u).expect("placed"),
                    layout.phys_of(v).expect("placed"),
                );
                let mut t = SynthesisTree::root_only(pv, v);
                t.add_edge(pu, pv, NodeKind::Data(u));
                t
            }
            (Some(v), Some(path)) => {
                // path = [pos(u), anc…, pos(v)]
                let mut t = SynthesisTree::root_only(*path.last().expect("non-empty"), v);
                let mut parent = *path.last().expect("non-empty");
                for &anc in path[1..path.len() - 1].iter().rev() {
                    t.add_edge(anc, parent, NodeKind::Bridge);
                    parent = anc;
                }
                t.add_edge(path[0], parent, NodeKind::Data(u));
                t
            }
        };
        emit_string(&tree, &term.string, b.block.angle * term.coeff, circuit);
        block_order.push(terms[ti].index);
        emitted_blocks.push(b.block.clone());
    };

    // The emission loop interleaves executable-first scheduling with the
    // SWAP-vs-bridge lookahead; its wall time is movement-dominated, so it
    // is attributed to routing as one span.
    let routing_span = trace::StageTimer::start(Stage::Routing);
    while !remaining.is_empty() {
        // Emit every currently-executable term (weight-1 terms always are).
        // `remaining` stays an order-bearing Vec on purpose: the
        // swap-remove scan order *is* the emission order, and the packed
        // form would reorder emissions (the per-term sets are the masks
        // above).
        let mut progressed = false;
        let mut i = 0;
        while i < remaining.len() {
            let ti = remaining[i];
            let executable = match terms[ti].v {
                None => true,
                Some(v) => graph.are_adjacent(
                    layout.phys_of(terms[ti].u).expect("placed"),
                    layout.phys_of(v).expect("placed"),
                ),
            };
            if executable {
                emit_term(
                    ti,
                    &layout,
                    &mut circuit,
                    &mut block_order,
                    &mut emitted_blocks,
                    None,
                );
                remaining.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if remaining.is_empty() {
            break;
        }
        if progressed {
            continue;
        }

        // Stuck: take the closest blocked term (blocked ⇒ two endpoints).
        let &ti = remaining
            .iter()
            .min_by_key(|&&ti| {
                graph.dist(
                    layout.phys_of(terms[ti].u).expect("placed"),
                    layout
                        .phys_of(terms[ti].v.expect("blocked terms are 2-local"))
                        .expect("placed"),
                )
            })
            .expect("non-empty");
        let (pu, pv) = (
            layout.phys_of(terms[ti].u).expect("placed"),
            layout
                .phys_of(terms[ti].v.expect("blocked terms are 2-local"))
                .expect("placed"),
        );
        let path = graph.shortest_path(pu, pv).expect("connected device");

        // Lookahead (paper §V-C): how many *other* pending terms does the
        // first SWAP of the path bring closer? A SWAP is only worth its 3
        // CNOTs when the mapping change is reused; a single beneficiary
        // rarely amortizes it, so bridges win unless ≥ 2 terms improve.
        let (s0, s1) = (path[0], path[1]);
        let future_helped = remaining
            .iter()
            .filter(|&&tj| tj != ti)
            .filter(|&&tj| {
                let Some(v) = terms[tj].v else {
                    return false;
                };
                let u = terms[tj].u;
                let d_before = graph.dist(
                    layout.phys_of(u).expect("placed"),
                    layout.phys_of(v).expect("placed"),
                );
                let pos = |lq: usize| {
                    let p = layout.phys_of(lq).expect("placed");
                    if p == s0 {
                        s1
                    } else if p == s1 {
                        s0
                    } else {
                        p
                    }
                };
                graph.dist(pos(u), pos(v)) < d_before
            })
            .count();
        let interior_free = path[1..path.len() - 1].iter().all(|&p| layout.is_free(p));

        if config.bridging && interior_free && future_helped < 2 {
            emit_term(
                ti,
                &layout,
                &mut circuit,
                &mut block_order,
                &mut emitted_blocks,
                Some(&path),
            );
            remaining.retain(|&tj| tj != ti);
        } else {
            // SWAP one step along the path and re-scan.
            circuit.push(Gate::Swap(s0, s1));
            layout.swap_phys(s0, s1);
        }
    }

    routing_span.stop();

    let stats = CompileStats::finish(
        &mut circuit,
        ir.blocks.iter().map(|b| &b.block),
        CancelReport::default(),
        config.post_optimize,
        t0,
    );
    CompileResult {
        circuit,
        stats,
        initial_layout,
        final_layout: layout,
        block_order,
        emitted_blocks,
    }
}

/// Hill-climbing placement minimizing the bridge-aware cost of the
/// interaction edges (deterministic, multi-restart). Adjacent pairs cost
/// their 2 CNOTs; distant pairs cost a fast bridge (`2d`), which also
/// rewards placements that leave free qubits between data qubits.
fn place(graph: &CouplingGraph, n_logical: usize, pairs: &[(usize, usize)], seed: u64) -> Layout {
    let cost = |l: &Layout| -> u64 {
        pairs
            .iter()
            .map(|&(u, v)| {
                let d =
                    graph.dist(l.phys_of(u).expect("placed"), l.phys_of(v).expect("placed")) as u64;
                2 * d
            })
            .sum()
    };
    let mut overall_best: Option<(u64, Layout)> = None;
    for restart in 0..3u64 {
        let mut rng = SplitMix(seed ^ (restart.wrapping_mul(0xabcd_1234_5678_9abc)));
        let mut layout = Layout::trivial(n_logical, graph.n_qubits());
        let mut best = cost(&layout);
        for _ in 0..400 * graph.n_qubits() {
            let a = rng.below(graph.n_qubits());
            let b = rng.below(graph.n_qubits());
            if a == b {
                continue;
            }
            layout.swap_phys(a, b);
            let c = cost(&layout);
            if c <= best {
                best = c;
            } else {
                layout.swap_phys(a, b);
            }
        }
        if overall_best.as_ref().is_none_or(|(b, _)| best < *b) {
            overall_best = Some((best, layout));
        }
    }
    overall_best.expect("at least one restart").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TetrisCompiler;
    use tetris_pauli::qaoa::{maxcut_hamiltonian, Graph};
    use tetris_pauli::{Hamiltonian, PauliBlock, PauliTerm};
    use tetris_sim::Statevector;

    #[test]
    fn detects_two_local_workloads() {
        let g = Graph::random_regular(8, 3, 1);
        let h = maxcut_hamiltonian(&g, "t");
        let ir = TetrisIr::from_hamiltonian(&h);
        assert!(is_two_local(&ir.blocks));

        let wide = Hamiltonian::new(
            4,
            vec![PauliBlock::new(
                vec![PauliTerm::new("ZZZI".parse().unwrap(), 1.0)],
                1.0,
                "w",
            )],
            "wide",
        );
        assert!(!is_two_local(&TetrisIr::from_hamiltonian(&wide).blocks));
    }

    #[test]
    fn qaoa_pass_is_semantically_exact() {
        let g = Graph::random_regular(6, 3, 5);
        let h = maxcut_hamiltonian(&g, "reg");
        let device = CouplingGraph::grid(3, 4);
        let r = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &device);
        assert!(r.circuit.is_hardware_compliant(&device));

        let mut input = Statevector::zero_state(6);
        let mut prep = Circuit::new(6);
        for q in 0..6 {
            prep.push(Gate::H(q));
            prep.push(Gate::Rz(q, 0.19 * (q + 1) as f64));
        }
        input.apply_circuit(&prep);
        let mut physical = input.embed(&r.initial_layout.as_assignment(), 12);
        physical.apply_circuit(&r.circuit);
        let mut reference = input;
        for b in &r.emitted_blocks {
            for t in &b.terms {
                reference.apply_pauli_exp(&t.string, b.angle * t.coeff);
            }
        }
        let expected = reference.embed(&r.final_layout.as_assignment(), 12);
        assert!(physical.equals_up_to_global_phase(&expected, 1e-8));
    }

    #[test]
    fn qaoa_pass_emits_every_term_once() {
        let g = Graph::random_gnm(10, 14, 3);
        let h = maxcut_hamiltonian(&g, "rand");
        let device = CouplingGraph::heavy_hex_65();
        let r = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &device);
        assert_eq!(r.block_order.len(), 14);
        let mut sorted = r.block_order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 14, "every edge exactly once");
        // Rz count equals term count.
        let rz = r
            .circuit
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Rz(..)))
            .count();
        assert_eq!(rz, 14);
    }

    #[test]
    fn placement_beats_trivial_layout() {
        let g = Graph::random_gnm(12, 20, 9);
        let pairs: Vec<(usize, usize)> = g.edges.clone();
        let device = CouplingGraph::heavy_hex_65();
        let placed = place(&device, 12, &pairs, 3);
        let trivial = Layout::trivial(12, 65);
        let cost = |l: &Layout| -> u64 {
            pairs
                .iter()
                .map(|&(u, v)| device.dist(l.phys_of(u).unwrap(), l.phys_of(v).unwrap()) as u64)
                .sum()
        };
        assert!(cost(&placed) <= cost(&trivial));
        assert!(placed.is_consistent());
    }
}

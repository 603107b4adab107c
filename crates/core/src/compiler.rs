//! The Tetris compiler pipeline (paper Fig. 11).

use crate::config::{SchedulerKind, TetrisConfig};
use crate::emit::{emit_block, split_uniform_groups};
use crate::schedule::{pick_first, pick_next};
use crate::stats::CompileStats;
use crate::synthesis::synthesize_block;
use std::time::Instant;
use tetris_circuit::{CancelReport, Circuit};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::block::greedy_similarity_order;
use tetris_pauli::ir::{TetrisBlock, TetrisIr};
use tetris_pauli::{Hamiltonian, PauliBlock};
use tetris_topology::{CouplingGraph, Layout};

/// Output of a compilation: the hardware-compliant circuit, the layouts and
/// the statistics the paper's evaluation reports.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The compiled physical circuit (SWAPs first-class).
    pub circuit: Circuit,
    /// Statistics (counts, depth, duration, cancellation ratio, time).
    pub stats: CompileStats,
    /// Layout before the first gate.
    pub initial_layout: Layout,
    /// Layout after the last gate.
    pub final_layout: Layout,
    /// The order in which blocks were synthesized (indices into the IR).
    pub block_order: Vec<usize>,
    /// The blocks exactly as emitted (scheduled order, intra-block string
    /// order after similarity chaining and boundary orientation). The
    /// compiled circuit implements `∏ exp(-i·(angle·coeff/2)·P)` over these
    /// blocks in order — the oracle used by the equivalence tests.
    pub emitted_blocks: Vec<PauliBlock>,
}

/// The Tetris compiler.
///
/// See the crate docs for the pipeline; construct with a [`TetrisConfig`]
/// and call [`TetrisCompiler::compile`] (from a block Hamiltonian) or
/// [`TetrisCompiler::compile_ir`] (from an already-lowered IR).
#[derive(Debug, Clone, Default)]
pub struct TetrisCompiler {
    config: TetrisConfig,
}

impl TetrisCompiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: TetrisConfig) -> Self {
        TetrisCompiler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TetrisConfig {
        &self.config
    }

    /// Compiles a block Hamiltonian for `graph`.
    pub fn compile(&self, hamiltonian: &Hamiltonian, graph: &CouplingGraph) -> CompileResult {
        let ir = TetrisIr::from_hamiltonian(hamiltonian);
        self.compile_ir(&ir, graph)
    }

    /// Compiles an already-lowered Tetris IR for `graph`.
    ///
    /// # Panics
    /// Panics if the IR is wider than the device.
    pub fn compile_ir(&self, ir: &TetrisIr, graph: &CouplingGraph) -> CompileResult {
        assert!(
            ir.n_qubits <= graph.n_qubits(),
            "{} logical qubits exceed the {}-qubit device",
            ir.n_qubits,
            graph.n_qubits()
        );
        // QAOA-shaped workloads take the dedicated bridging pass (§V-C):
        // there is no inter-string similarity to exploit, so placement +
        // executable-first scheduling + SWAP-vs-bridge lookahead wins.
        if crate::qaoa::is_two_local(&ir.blocks) {
            return crate::qaoa::compile_qaoa(ir, graph, &self.config);
        }
        let t0 = Instant::now();
        let blocks = preprocess(&ir.blocks);

        let initial_layout = match self.config.initial_layout {
            crate::config::InitialLayout::Trivial => Layout::trivial(ir.n_qubits, graph.n_qubits()),
            crate::config::InitialLayout::Packed => Layout::packed(ir.n_qubits, graph),
        };
        let mut layout = initial_layout.clone();
        let mut circuit = Circuit::new(graph.n_qubits());

        let mut block_order = Vec::with_capacity(blocks.len());
        let mut emitted_blocks: Vec<PauliBlock> = Vec::with_capacity(blocks.len());
        let mut last_string: Option<tetris_pauli::PauliString> = None;
        // The set of unscheduled block indices, packed: the scheduler's
        // candidate scans walk set bits instead of a shrinking Vec.
        let mut remaining = tetris_pauli::mask::QubitMask::full(blocks.len());
        let mut last: Option<usize> = None;
        while !remaining.is_empty() {
            let next = trace::timed(Stage::Scheduling, || match (self.config.scheduler, last) {
                (SchedulerKind::InputOrder, _) => {
                    remaining.first().expect("non-empty remaining set")
                }
                (SchedulerKind::Lookahead, None) => pick_first(&blocks, &remaining),
                (SchedulerKind::Lookahead, Some(l)) => pick_next(
                    &blocks,
                    &remaining,
                    l,
                    self.config.lookahead,
                    graph,
                    &layout,
                ),
            });
            remaining.remove(next);
            let b = &blocks[next];
            let tree = trace::timed(Stage::Clustering, || {
                synthesize_block(graph, &mut layout, &mut circuit, b, &self.config)
            });
            let emit_span = trace::StageTimer::start(Stage::Synthesis);
            // Orient the block so its first string is most similar to the
            // previously emitted string — inter-block boundary gates then
            // cancel like intra-block ones.
            let oriented = match last_string.as_ref() {
                Some(prev)
                    if b.block.terms.len() > 1
                        && prev.common_weight(&b.block.terms[0].string)
                            < prev
                                .common_weight(&b.block.terms[b.block.terms.len() - 1].string) =>
                {
                    let mut terms = b.block.terms.clone();
                    terms.reverse();
                    PauliBlock::new(terms, b.block.angle, b.block.label.clone())
                }
                _ => b.block.clone(),
            };
            emit_block(&tree, &oriented, &mut circuit);
            emit_span.stop();
            last_string = Some(
                oriented
                    .terms
                    .last()
                    .expect("blocks are non-empty")
                    .string
                    .clone(),
            );
            emitted_blocks.push(oriented);
            block_order.push(next);
            last = Some(next);
        }

        let stats = CompileStats::finish(
            &mut circuit,
            ir.blocks.iter().map(|b| &b.block),
            CancelReport::default(),
            self.config.post_optimize,
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
}

/// Regroups blocks with non-uniform string support into equal-support
/// sub-blocks (one synthesis tree cannot serve strings with different
/// supports; Bravyi-Kitaev blocks mix supports routinely — see the emit
/// module), and orders the strings of every block by greedy similarity
/// chaining: consecutive strings differ in as few positions as possible,
/// which maximizes both 1-qubit and 2-qubit boundary cancellation (the
/// intra-block ordering Paulihedral pioneered and Tetris inherits).
fn preprocess(blocks: &[TetrisBlock]) -> Vec<TetrisBlock> {
    let mut out = Vec::with_capacity(blocks.len());
    for b in blocks {
        for sub in split_uniform_groups(&b.block) {
            out.push(TetrisBlock::analyze(greedy_similarity_order(&sub)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_pauli::PauliTerm;
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
                    0.1 + 0.07 * i as f64,
                    format!("b{i}"),
                )
            })
            .collect();
        Hamiltonian::new(n, blocks, "test")
    }

    /// End-to-end equivalence: the compiled physical circuit must equal the
    /// ordered product of exp(-i θ/2 P) factors, modulo the layout
    /// permutation, with ancillas in |0>.
    fn assert_compiled_equivalent(h: &Hamiltonian, graph: &CouplingGraph, config: TetrisConfig) {
        let result = TetrisCompiler::new(config).compile(h, graph);
        assert!(result.circuit.is_hardware_compliant(graph));

        // Input: a product state that is non-trivial on the data qubits.
        let mut logical_in = Statevector::zero_state(h.n_qubits);
        let mut prep = Circuit::new(h.n_qubits);
        for q in 0..h.n_qubits {
            prep.push(tetris_circuit::Gate::H(q));
            prep.push(tetris_circuit::Gate::Rz(q, 0.21 * (q + 1) as f64));
        }
        logical_in.apply_circuit(&prep);

        let mut physical =
            logical_in.embed(&result.initial_layout.as_assignment(), graph.n_qubits());
        physical.apply_circuit(&result.circuit);

        // Reference: apply the blocks exactly as emitted.
        let mut reference = logical_in;
        for b in &result.emitted_blocks {
            for t in &b.terms {
                reference.apply_pauli_exp(&t.string, b.angle * t.coeff);
            }
        }
        let expected = reference.embed(&result.final_layout.as_assignment(), graph.n_qubits());
        assert!(
            physical.equals_up_to_global_phase(&expected, 1e-8),
            "compiled circuit diverges from the exponential product"
        );
    }

    #[test]
    fn single_block_equivalence_on_line() {
        let h = ham(5, vec![vec![("YZZZY", 0.5), ("XZZZX", -0.5)]]);
        assert_compiled_equivalent(&h, &CouplingGraph::line(8), TetrisConfig::default());
    }

    #[test]
    fn multi_block_equivalence_on_grid() {
        let h = ham(
            4,
            vec![
                vec![("XYZZ", 0.5), ("YXZZ", -0.5)],
                vec![("ZZXY", 1.0), ("ZZYX", -1.0)],
                vec![("IZZI", 1.0)],
            ],
        );
        assert_compiled_equivalent(&h, &CouplingGraph::grid(3, 3), TetrisConfig::default());
    }

    #[test]
    fn equivalence_without_bridging() {
        let h = ham(
            4,
            vec![
                vec![("XZZY", 0.4), ("YZZX", -0.4)],
                vec![("IXYI", 0.8), ("IYXI", -0.8)],
            ],
        );
        assert_compiled_equivalent(
            &h,
            &CouplingGraph::ring(7),
            TetrisConfig::default().with_bridging(false),
        );
    }

    #[test]
    fn equivalence_input_order_scheduler() {
        let h = ham(
            4,
            vec![
                vec![("ZZII", 1.0)],
                vec![("IZZI", 1.0)],
                vec![("IIZZ", 1.0)],
            ],
        );
        assert_compiled_equivalent(
            &h,
            &CouplingGraph::line(6),
            TetrisConfig::without_lookahead(),
        );
    }

    #[test]
    fn non_uniform_support_blocks_are_split() {
        let h = ham(4, vec![vec![("XZZY", 0.4), ("XIIY", 0.6)]]);
        assert_compiled_equivalent(&h, &CouplingGraph::line(6), TetrisConfig::default());
    }

    #[test]
    fn cancellation_happens_between_similar_strings() {
        // Fig. 3's pair: leaf chain Z₁Z₂Z₃ shared → inner CNOTs cancel.
        let h = ham(5, vec![vec![("YZZZY", 0.5), ("XZZZX", -0.5)]]);
        let r = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &CouplingGraph::line(8));
        assert!(
            r.stats.canceled_cnots >= 4,
            "expected ≥ 4 canceled CNOTs, got {}",
            r.stats.canceled_cnots
        );
        assert!(r.stats.cancel_ratio() > 0.2);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let h = ham(
            4,
            vec![
                vec![("XYZZ", 0.5), ("YXZZ", -0.5)],
                vec![("ZZXY", 1.0), ("ZZYX", -1.0)],
            ],
        );
        let r =
            TetrisCompiler::new(TetrisConfig::default()).compile(&h, &CouplingGraph::grid(2, 4));
        let s = r.stats;
        assert_eq!(s.original_cnots, h.naive_cnot_count());
        assert!(s.emitted_cnots >= s.original_cnots);
        assert!(s.canceled_cnots <= s.emitted_cnots);
        assert_eq!(
            s.metrics.cnot_count,
            s.logical_cnots() + s.swap_cnots(),
            "final CNOTs = logical + swap-induced"
        );
        assert!(s.compile_seconds >= 0.0);
    }

    #[test]
    fn packed_initial_layout_stays_equivalent() {
        let h = ham(
            4,
            vec![
                vec![("XYZZ", 0.5), ("YXZZ", -0.5)],
                vec![("ZZXY", 1.0), ("ZZYX", -1.0)],
            ],
        );
        assert_compiled_equivalent(
            &h,
            &CouplingGraph::grid(3, 4),
            TetrisConfig::default().with_initial_layout(crate::config::InitialLayout::Packed),
        );
    }

    #[test]
    fn wider_than_device_panics() {
        let h = ham(5, vec![vec![("ZZZZZ", 1.0)]]);
        let result = std::panic::catch_unwind(|| {
            TetrisCompiler::new(TetrisConfig::default()).compile(&h, &CouplingGraph::line(3))
        });
        assert!(result.is_err());
    }
}

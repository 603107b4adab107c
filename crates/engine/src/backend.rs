//! The pluggable compiler backend: one enum, every compiler of the
//! workspace behind it.

use tetris_baselines::{generic, max_cancel, paulihedral, pcoast_like, qaoa_2qan};
use tetris_circuit::Circuit;
use tetris_core::{CompileStats, TetrisCompiler, TetrisConfig};
use tetris_obs::StageTimings;
use tetris_pauli::fingerprint::Fingerprint64;
use tetris_pauli::Hamiltonian;
use tetris_topology::{CouplingGraph, Layout};

/// The normalized output every backend produces — the common denominator of
/// [`tetris_core::CompileResult`] and
/// [`tetris_baselines::BaselineResult`], so batches mixing Tetris and
/// baselines compare like for like.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutput {
    /// Compiler name as reported in tables (e.g. `Tetris`, `PCOAST`).
    pub compiler: String,
    /// The compiled circuit.
    pub circuit: Circuit,
    /// The shared statistics record.
    pub stats: CompileStats,
    /// Final logical→physical layout, when the backend tracks one.
    pub final_layout: Option<Layout>,
    /// Per-stage wall-time breakdown of the compile that produced this
    /// output, filled in by the engine worker (all zeros for compiles run
    /// outside the engine, or with observability disabled). Persisted by
    /// the disk codec, so a cache hit still reports where the original
    /// compile spent its time. Excluded from [`stats_digest`] — wall
    /// clocks are not part of the deterministic output.
    ///
    /// [`stats_digest`]: EngineOutput::stats_digest
    pub stages: StageTimings,
}

impl EngineOutput {
    /// A stable digest of the *deterministic* part of the output: every
    /// stat except wall-clock compile time, plus the gate list length. Two
    /// runs of the same job — serial or parallel, cached or fresh — must
    /// produce equal digests; the engine's tests pivot on this.
    pub fn stats_digest(&self) -> u64 {
        let mut h = Fingerprint64::new();
        h.write_bytes(self.compiler.as_bytes());
        h.write_usize(self.stats.original_cnots);
        h.write_usize(self.stats.emitted_cnots);
        h.write_usize(self.stats.canceled_cnots);
        h.write_usize(self.stats.swaps_inserted);
        h.write_usize(self.stats.swaps_final);
        h.write_usize(self.stats.canceled_1q);
        h.write_usize(self.stats.metrics.depth);
        h.write_u64(self.stats.metrics.duration);
        h.write_usize(self.stats.metrics.cnot_count);
        h.write_usize(self.stats.metrics.single_qubit_count);
        h.write_usize(self.stats.metrics.total_gates);
        h.write_usize(self.stats.metrics.swap_count);
        h.write_usize(self.circuit.len());
        h.finish()
    }
}

/// Every compiler of the workspace, as a value. This is the unit batches
/// sweep over; it is `Copy`-cheap to clone and carries the backend's full
/// parameterization.
///
/// Every backend must be pure: the output may depend only on the
/// Hamiltonian, the graph and the backend's own parameters (all captured by
/// [`Backend::fingerprint`]), never on ambient state — that is what makes
/// the content-addressed cache sound and parallel batches bit-identical to
/// serial ones. Wall-clock time inside [`CompileStats::compile_seconds`]
/// is the one sanctioned exception.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// The Tetris compiler under the given configuration.
    Tetris(TetrisConfig),
    /// The Paulihedral-like SWAP-centric baseline.
    Paulihedral {
        /// Run the shared peephole pass after synthesis.
        post_optimize: bool,
    },
    /// The hardware-oblivious max-cancellation extreme.
    MaxCancel,
    /// The PCOAST-style logical optimizer.
    PcoastLike,
    /// The T|Ket⟩-style generic compiler at the given post-processing
    /// level.
    Generic(generic::OptLevel),
    /// The 2QAN-lite compiler for 2-local Hamiltonians.
    Qaoa2qan {
        /// Seed of the annealed placement.
        seed: u64,
    },
}

impl Backend {
    /// Short name for reports.
    pub fn name(&self) -> &str {
        match self {
            Backend::Tetris(c) if c.scheduler == tetris_core::SchedulerKind::Lookahead => {
                "Tetris+lookahead"
            }
            Backend::Tetris(_) => "Tetris",
            Backend::Paulihedral { .. } => "Paulihedral",
            Backend::MaxCancel => "MaxCancel",
            Backend::PcoastLike => "PCOAST",
            Backend::Generic(generic::OptLevel::Native) => "TKet+TKetO2",
            Backend::Generic(generic::OptLevel::PostRouteOnly) => "TKet+QiskitO3",
            Backend::Qaoa2qan { .. } => "2QAN-lite",
        }
    }

    /// Stable fingerprint of the backend identity *and* every parameter
    /// that influences its output.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint64::new();
        h.write_bytes(b"tetris-backend/v1");
        match self {
            Backend::Tetris(config) => {
                h.write_u8(0);
                h.write_u64(config.fingerprint());
            }
            Backend::Paulihedral { post_optimize } => {
                h.write_u8(1);
                h.write_u8(*post_optimize as u8);
            }
            Backend::MaxCancel => h.write_u8(2),
            Backend::PcoastLike => h.write_u8(3),
            Backend::Generic(level) => {
                h.write_u8(4);
                h.write_u8(match level {
                    generic::OptLevel::Native => 0,
                    generic::OptLevel::PostRouteOnly => 1,
                });
            }
            Backend::Qaoa2qan { seed } => {
                h.write_u8(5);
                h.write_u64(*seed);
            }
        }
        h.finish()
    }

    /// Runs the compiler.
    pub fn compile(&self, hamiltonian: &Hamiltonian, graph: &CouplingGraph) -> EngineOutput {
        match self {
            Backend::Tetris(config) => {
                let r = TetrisCompiler::new(*config).compile(hamiltonian, graph);
                EngineOutput {
                    compiler: self.name().to_string(),
                    circuit: r.circuit,
                    stats: r.stats,
                    final_layout: Some(r.final_layout),
                    stages: StageTimings::default(),
                }
            }
            Backend::Paulihedral { post_optimize } => {
                from_baseline(paulihedral::compile(hamiltonian, graph, *post_optimize))
            }
            Backend::MaxCancel => from_baseline(max_cancel::compile(hamiltonian, graph)),
            Backend::PcoastLike => from_baseline(pcoast_like::compile(hamiltonian, graph)),
            Backend::Generic(level) => from_baseline(generic::compile(hamiltonian, graph, *level)),
            Backend::Qaoa2qan { seed } => {
                from_baseline(qaoa_2qan::compile(hamiltonian, graph, *seed))
            }
        }
    }
}

fn from_baseline(r: tetris_baselines::BaselineResult) -> EngineOutput {
    EngineOutput {
        compiler: r.name,
        circuit: r.circuit,
        stats: r.stats,
        final_layout: r.final_layout,
        stages: StageTimings::default(),
    }
}

impl Backend {
    /// The full compiler sweep of the paper's Fig. 14/15 comparisons, in
    /// table-column order.
    pub fn evaluation_sweep() -> Vec<Backend> {
        vec![
            Backend::Generic(generic::OptLevel::Native),
            Backend::PcoastLike,
            Backend::Paulihedral {
                post_optimize: true,
            },
            Backend::Tetris(TetrisConfig::without_lookahead()),
            Backend::Tetris(TetrisConfig::default()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn backend_fingerprints_are_distinct() {
        let mut sweep = Backend::evaluation_sweep();
        sweep.extend([
            Backend::MaxCancel,
            Backend::Generic(generic::OptLevel::PostRouteOnly),
            Backend::Qaoa2qan { seed: 1 },
            Backend::Qaoa2qan { seed: 2 },
            Backend::Paulihedral {
                post_optimize: false,
            },
        ]);
        let fps: HashSet<u64> = sweep.iter().map(|b| b.fingerprint()).collect();
        assert_eq!(fps.len(), sweep.len(), "no two backends may collide");
    }

    #[test]
    fn tetris_config_feeds_backend_fingerprint() {
        let a = Backend::Tetris(TetrisConfig::default());
        let b = Backend::Tetris(TetrisConfig::default().with_swap_weight(5.0));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            Backend::Tetris(TetrisConfig::default()).fingerprint()
        );
    }

    #[test]
    fn names_follow_table_conventions() {
        assert_eq!(
            Backend::Tetris(TetrisConfig::default()).name(),
            "Tetris+lookahead"
        );
        assert_eq!(
            Backend::Tetris(TetrisConfig::without_lookahead()).name(),
            "Tetris"
        );
        assert_eq!(Backend::PcoastLike.name(), "PCOAST");
    }
}

//! Compilation statistics — everything the paper's tables and figures
//! report — and the finishing step every compiler ends with.

use std::time::Instant;
use tetris_circuit::{cancel_gates_commutative, CancelReport, Circuit, Metrics};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::PauliBlock;

/// Statistics of one compilation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompileStats {
    /// Logical CNOT count of the naive chain synthesis, `Σ 2·(w−1)` over
    /// strings — the denominator of the paper's cancellation ratio (Eq. 2).
    pub original_cnots: usize,
    /// Raw CNOTs emitted by synthesis before the peephole pass (equals
    /// `original_cnots` plus CNOTs added by bridge pass-through nodes).
    pub emitted_cnots: usize,
    /// CNOTs removed by the shared peephole pass (the canceled gates).
    pub canceled_cnots: usize,
    /// SWAP gates inserted by synthesis (before SWAP-SWAP cancellation).
    pub swaps_inserted: usize,
    /// SWAP gates remaining in the final circuit.
    pub swaps_final: usize,
    /// Single-qubit gates removed by the peephole pass.
    pub canceled_1q: usize,
    /// Metrics of the final circuit (depth, duration, counts).
    pub metrics: Metrics,
    /// Wall-clock compile time in seconds: every phase from the compiler's
    /// entry to the finished stats — scheduling, placement, synthesis,
    /// routing (the SWAP-routed baselines and the QAOA pass) and peephole.
    pub compile_seconds: f64,
}

impl CompileStats {
    /// The finishing step of every compiler: runs the shared peephole pass
    /// on `circuit` when `optimize` is set (attributed to
    /// [`Stage::Optimize`]), measures the final circuit once and assembles
    /// the stats.
    ///
    /// `blocks` are the workload's blocks in any order or grouping; they
    /// only feed `original_cnots`. `earlier` is what a peephole pass
    /// removed before `circuit` took its final shape (the
    /// hardware-oblivious baselines cancel on the logical circuit before
    /// routing), `CancelReport::default()` when nothing was. `t0` is when
    /// the compile started.
    pub fn finish<'a>(
        circuit: &mut Circuit,
        blocks: impl IntoIterator<Item = &'a PauliBlock>,
        earlier: CancelReport,
        optimize: bool,
        t0: Instant,
    ) -> CompileStats {
        let emitted_cnots = circuit.raw_cnot_count() + earlier.removed_cnots;
        let swaps_inserted = circuit.swap_count() + earlier.removed_swaps;
        let report = if optimize {
            trace::timed(Stage::Optimize, || cancel_gates_commutative(circuit))
        } else {
            CancelReport::default()
        };
        let metrics = Metrics::of(circuit);
        CompileStats {
            original_cnots: blocks.into_iter().map(PauliBlock::naive_cnot_count).sum(),
            emitted_cnots,
            canceled_cnots: earlier.removed_cnots + report.removed_cnots,
            swaps_inserted,
            swaps_final: metrics.swap_count,
            canceled_1q: earlier.removed_1q + report.removed_1q,
            metrics,
            compile_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// The paper's CNOT gate cancellation ratio (Eq. 2):
    /// `canceled / original`.
    pub fn cancel_ratio(&self) -> f64 {
        if self.original_cnots == 0 {
            0.0
        } else {
            self.canceled_cnots as f64 / self.original_cnots as f64
        }
    }

    /// CNOTs in the final circuit that come from Pauli-string logic (and
    /// bridges), i.e. not from SWAPs.
    pub fn logical_cnots(&self) -> usize {
        self.emitted_cnots - self.canceled_cnots
    }

    /// CNOTs contributed by SWAPs in the final circuit (3 per SWAP) — the
    /// paper's `_S` bars in Figs. 15b/18/21.
    pub fn swap_cnots(&self) -> usize {
        3 * self.swaps_final
    }

    /// Total CNOT-equivalent two-qubit gates of the final circuit.
    pub fn total_cnots(&self) -> usize {
        self.metrics.cnot_count
    }

    /// Total gates (1q + CNOT-equivalents) of the final circuit.
    pub fn total_gates(&self) -> usize {
        self.metrics.total_gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = CompileStats {
            original_cnots: 100,
            emitted_cnots: 104,
            canceled_cnots: 40,
            swaps_inserted: 7,
            swaps_final: 6,
            ..Default::default()
        };
        assert!((s.cancel_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(s.logical_cnots(), 64);
        assert_eq!(s.swap_cnots(), 18);
    }

    #[test]
    fn zero_original_is_not_a_division_by_zero() {
        assert_eq!(CompileStats::default().cancel_ratio(), 0.0);
    }
}

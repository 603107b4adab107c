//! Compiler configuration — the paper's tuning knobs.

/// How blocks are ordered before synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Keep the ansatz-construction order (the paper's plain "Tetris"
    /// configuration in Fig. 14, which borrows Paulihedral's schedule).
    InputOrder,
    /// The paper's lookahead scheduler (§V-B): start from the block with the
    /// largest active length, then repeatedly take the top-K most similar
    /// blocks and synthesize the one with the cheapest root gathering
    /// ("Tetris+lookahead", K = 10 by default).
    Lookahead,
}

/// How cluster trees are shaped when several placed parents are adjacent to
/// an attaching qubit (the "Parallelism" knob of the paper's Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeBias {
    /// Prefer the deepest adjacent parent — chain-like trees. Deep edges
    /// between unchanged operators cancel between strings, so chains
    /// maximize CNOT cancellation at some cost in depth. (Default.)
    Chain,
    /// Prefer the shallowest adjacent parent — bushy trees. Shorter
    /// critical paths, fewer cancellations. Exposed for the ablation bench.
    Balanced,
}

/// Tetris compiler configuration.
///
/// Defaults follow the paper's final configuration: SWAP weight `w = 3`
/// (§V-A: "3 corresponds to the fact that one SWAP consists of three CNOT
/// gates"), lookahead `K = 10` (§VI-D), bridging enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TetrisConfig {
    /// SWAP-cost weight `w` of the leaf score function. Small `w` favors
    /// gate cancellation (connect to leaf qubits even when far); large `w`
    /// favors fewer SWAPs (connect to the nearest placed qubit).
    pub swap_weight: f64,
    /// Lookahead window `K` of the block scheduler.
    pub lookahead: usize,
    /// Which scheduler to run.
    pub scheduler: SchedulerKind,
    /// Whether leaf attachments may ride through free `|0>` qubits as fast
    /// bridges (§IV-C) instead of inserting SWAPs.
    pub bridging: bool,
    /// Run the shared peephole cancellation pass after synthesis (the
    /// "with Qiskit O3" configurations of Fig. 16). Synthesis itself never
    /// depends on this; disabling it only exposes raw emission.
    pub post_optimize: bool,
    /// Tree-shape preference during clustering (see [`TreeBias`]).
    pub tree_bias: TreeBias,
    /// Initial logical→physical placement (see [`InitialLayout`]).
    pub initial_layout: InitialLayout,
}

/// How logical qubits are placed before the first gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialLayout {
    /// Logical `q` on physical `q` — the paper's setup ("initial mapping is
    /// indicated"), and the default for reproduction parity.
    Trivial,
    /// A BFS-contiguous region around the device center
    /// ([`tetris_topology::Layout::packed`]) — shortens early routing on
    /// devices whose low indices form a long line.
    Packed,
}

impl Default for TetrisConfig {
    fn default() -> Self {
        TetrisConfig {
            swap_weight: 3.0,
            lookahead: 10,
            scheduler: SchedulerKind::Lookahead,
            bridging: true,
            post_optimize: true,
            tree_bias: TreeBias::Chain,
            initial_layout: InitialLayout::Trivial,
        }
    }
}

impl TetrisConfig {
    /// The paper's plain "Tetris" variant: Paulihedral-style (input-order)
    /// scheduling, everything else default.
    pub fn without_lookahead() -> Self {
        TetrisConfig {
            scheduler: SchedulerKind::InputOrder,
            ..TetrisConfig::default()
        }
    }

    /// Sets the SWAP weight (builder style).
    ///
    /// # Panics
    /// Panics unless `w` is finite and ≥ 0: `w` is a SWAP's CNOT cost
    /// (§V-A), and leaf attachment prunes on scores not decreasing in
    /// distance.
    pub fn with_swap_weight(mut self, w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "swap weight must be finite and ≥ 0, got {w}"
        );
        self.swap_weight = w;
        self
    }

    /// Sets the lookahead window (builder style).
    pub fn with_lookahead(mut self, k: usize) -> Self {
        self.lookahead = k.max(1);
        self
    }

    /// Enables or disables bridging (builder style).
    pub fn with_bridging(mut self, on: bool) -> Self {
        self.bridging = on;
        self
    }

    /// Sets the tree-shape bias (builder style).
    pub fn with_tree_bias(mut self, bias: TreeBias) -> Self {
        self.tree_bias = bias;
        self
    }

    /// Sets the initial placement (builder style).
    pub fn with_initial_layout(mut self, layout: InitialLayout) -> Self {
        self.initial_layout = layout;
        self
    }

    /// A stable 64-bit content fingerprint of the configuration — the
    /// config third of the compilation engine's cache key. Every field that
    /// influences compilation is absorbed; equal configs hash equal on any
    /// platform or release, and flipping any single field changes the
    /// digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = tetris_pauli::fingerprint::Fingerprint64::new();
        h.write_bytes(b"tetris-config/v1");
        h.write_f64(self.swap_weight);
        h.write_usize(self.lookahead);
        h.write_u8(match self.scheduler {
            SchedulerKind::InputOrder => 0,
            SchedulerKind::Lookahead => 1,
        });
        h.write_u8(self.bridging as u8);
        h.write_u8(self.post_optimize as u8);
        h.write_u8(match self.tree_bias {
            TreeBias::Chain => 0,
            TreeBias::Balanced => 1,
        });
        h.write_u8(match self.initial_layout {
            InitialLayout::Trivial => 0,
            InitialLayout::Packed => 1,
        });
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TetrisConfig::default();
        assert_eq!(c.swap_weight, 3.0);
        assert_eq!(c.lookahead, 10);
        assert_eq!(c.scheduler, SchedulerKind::Lookahead);
        assert!(c.bridging);
    }

    #[test]
    fn fingerprint_distinguishes_every_field() {
        let base = TetrisConfig::default();
        let variants = [
            base.with_swap_weight(4.0),
            base.with_lookahead(11),
            TetrisConfig::without_lookahead(),
            base.with_bridging(false),
            TetrisConfig {
                post_optimize: false,
                ..base
            },
            base.with_tree_bias(TreeBias::Balanced),
            base.with_initial_layout(InitialLayout::Packed),
        ];
        assert_eq!(base.fingerprint(), TetrisConfig::default().fingerprint());
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(
                v.fingerprint(),
                base.fingerprint(),
                "variant {i} must change the fingerprint"
            );
        }
    }

    #[test]
    fn swap_weight_must_be_a_non_negative_number() {
        assert_eq!(
            TetrisConfig::default().with_swap_weight(0.0).swap_weight,
            0.0
        );
        for w in [-1.0, -1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let refused = std::panic::catch_unwind(|| TetrisConfig::default().with_swap_weight(w));
            assert!(refused.is_err(), "w = {w} must be refused");
        }
    }

    #[test]
    fn builders() {
        let c = TetrisConfig::default()
            .with_swap_weight(8.0)
            .with_lookahead(0)
            .with_bridging(false);
        assert_eq!(c.swap_weight, 8.0);
        assert_eq!(c.lookahead, 1, "lookahead clamps to ≥ 1");
        assert!(!c.bridging);
        assert_eq!(
            TetrisConfig::without_lookahead().scheduler,
            SchedulerKind::InputOrder
        );
    }
}

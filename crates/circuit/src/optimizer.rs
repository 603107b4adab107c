//! Fix-point peephole gate cancellation.
//!
//! This pass plays the role Qiskit O3 plays in the paper's evaluation: every
//! compiler (Tetris and all baselines) emits its per-string sub-circuits in
//! full, and this shared pass removes adjacent inverse pairs — back-to-back
//! CNOTs, `H·H`, `S·S†`, `X·X`, SWAP·SWAP — and merges adjacent `Rz`
//! rotations. Cancellation across Pauli-string boundaries is exactly how the
//! paper's leaf-tree CNOT cancellation materializes (§IV-A): if the
//! synthesizer kept the common operators in the leaf sections, their gates
//! end up adjacent here and vanish.
//!
//! The pass is sound by construction: it only ever removes a pair of
//! *adjacent-on-every-operand* gates whose product is the identity, or
//! merges adjacent rotations on the same qubit, so the circuit unitary is
//! preserved exactly (verified against the statevector simulator in the
//! `tetris-sim` tests).

use crate::circuit::Circuit;
use crate::dag::{CircuitDag, NONE};
use crate::gate::Gate;
use std::collections::VecDeque;
use std::f64::consts::TAU;

/// What the pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelReport {
    /// CNOT gates removed (each canceled pair counts 2).
    pub removed_cnots: usize,
    /// SWAP gates removed.
    pub removed_swaps: usize,
    /// Single-qubit gates removed (including fully-merged `Rz`s).
    pub removed_1q: usize,
    /// Number of `Rz` merges performed (each removes one gate, counted in
    /// `removed_1q` as well).
    pub merged_rz: usize,
}

impl CancelReport {
    /// Total gates removed.
    pub fn removed_total(&self) -> usize {
        self.removed_cnots + self.removed_swaps + self.removed_1q
    }

    /// Accumulates another report.
    pub fn absorb(&mut self, other: CancelReport) {
        self.removed_cnots += other.removed_cnots;
        self.removed_swaps += other.removed_swaps;
        self.removed_1q += other.removed_1q;
        self.merged_rz += other.merged_rz;
    }
}

/// Runs adjacent-pair cancellation to fix point, rewriting `circuit` in
/// place and returning what was removed.
pub fn cancel_gates(circuit: &mut Circuit) -> CancelReport {
    in_place(circuit, cancel_in_dag)
}

/// Commutation-aware cancellation (the Qiskit `CommutativeCancellation`
/// analogue): like [`cancel_gates`], but a pair may cancel *around*
/// interposed gates that commute with it — e.g. `CNOT(a,b) · CNOT(a,c) ·
/// CNOT(a,b)` drops the outer pair, and `Rz` rotations merge across CNOT
/// controls. Runs the adjacent pass first (cheap), then the commuting
/// sweep, to fix point.
///
/// Soundness: a pair `g … g⁻¹` is removed only when every gate between the
/// two (on every operand chain) commutes with `g` under the conservative
/// per-qubit role rules of [`Gate::commutes_with`], so the circuit unitary
/// is preserved exactly.
pub fn cancel_gates_commutative(circuit: &mut Circuit) -> CancelReport {
    in_place(circuit, |dag| {
        let mut report = cancel_in_dag(dag);
        loop {
            let pass = commutative_sweep(dag);
            if pass.removed_total() == 0 {
                break;
            }
            report.absorb(pass);
            report.absorb(cancel_in_dag(dag));
        }
        report
    })
}

/// Runs `pass` on a DAG over the circuit's own gate list, then puts the
/// surviving gates back into the same list, compacted in place.
fn in_place(
    circuit: &mut Circuit,
    pass: impl FnOnce(&mut CircuitDag) -> CancelReport,
) -> CancelReport {
    let gates = std::mem::take(circuit.gates_mut());
    let mut dag = CircuitDag::from_gates(gates, circuit.n_qubits());
    let report = pass(&mut dag);
    *circuit.gates_mut() = dag.into_gates();
    report
}

/// Maximum number of commuting gates the pair search walks past per qubit
/// chain; keeps the sweep linear in practice.
const COMMUTE_WALK_LIMIT: usize = 12;

/// One commuting-cancellation sweep over the DAG.
fn commutative_sweep(dag: &mut CircuitDag) -> CancelReport {
    let mut report = CancelReport::default();
    let mut i = 0;
    while i < dag.capacity() {
        if !dag.is_alive(i) {
            i += 1;
            continue;
        }
        let g = dag.gate(i);
        let q0 = match g.qubits() {
            crate::gate::GateQubits::One(q) => q,
            crate::gate::GateQubits::Two(q, _) => q,
        };

        // Walk the first operand's chain while gates commute with g; any
        // gate along the commuting prefix (or the first blocker itself)
        // that inverts g is a cancellation candidate, because g can be
        // commuted right up to it.
        let mut candidate: Option<usize> = None;
        let mut cur = dag.next_on(i, q0);
        let mut steps = 0;
        while cur != NONE && steps < COMMUTE_WALK_LIMIT {
            let m = dag.gate(cur);
            // Rz merging: a later Rz on the same wire inside the commuting
            // prefix merges into g.
            if let (Gate::Rz(q, t1), Gate::Rz(_, t2)) = (g, m) {
                let merged = t1 + t2;
                dag.remove(i);
                report.removed_1q += 1;
                report.merged_rz += 1;
                if merged.rem_euclid(TAU).min(TAU - merged.rem_euclid(TAU)) < 1e-12 {
                    dag.remove(cur);
                    report.removed_1q += 1;
                } else {
                    *dag.gate_mut(cur) = Gate::Rz(q, merged);
                }
                break;
            }
            if g.cancels_with(&m) {
                candidate = Some(cur);
                break;
            }
            if !g.commutes_with(&m) {
                break;
            }
            cur = dag.next_on(cur, q0);
            steps += 1;
        }
        let Some(j) = candidate else {
            i += 1;
            continue;
        };
        if !dag.is_alive(i) {
            i += 1;
            continue; // consumed by an Rz merge
        }

        // For two-qubit gates: on the second operand's chain, g must also
        // commute with everything strictly between i and j.
        if let crate::gate::GateQubits::Two(_, q1) = g.qubits() {
            if !reaches_commuting(dag, i, q1, &g, j) {
                i += 1;
                continue;
            }
        }
        dag.remove(i);
        dag.remove(j);
        match g {
            Gate::Cnot(..) => report.removed_cnots += 2,
            Gate::Swap(..) => report.removed_swaps += 2,
            _ => report.removed_1q += 2,
        }
        i += 1; // slot i is dead; the outer loop skips it next round
    }
    report
}

/// Whether gate `target` is reachable from `i` along qubit `q`'s chain with
/// every strictly-intermediate gate commuting with `g` (bounded walk).
fn reaches_commuting(dag: &CircuitDag, i: usize, q: usize, g: &Gate, target: usize) -> bool {
    let mut cur = dag.next_on(i, q);
    let mut steps = 0;
    while cur != NONE && steps < COMMUTE_WALK_LIMIT {
        if cur == target {
            return true;
        }
        if !g.commutes_with(&dag.gate(cur)) {
            return false;
        }
        cur = dag.next_on(cur, q);
        steps += 1;
    }
    false
}

/// Cancellation on an existing DAG (exposed for pipelines that already built
/// one).
///
/// Every gate is visited once in program order, then every gate whose
/// adjacency a removal changed is revisited, first in first out. A requeue
/// only ever lands behind the gates not yet visited, so a cursor over
/// `0..n` followed by the requeue FIFO is the pop order of one queue seeded
/// with all `n` indices.
pub fn cancel_in_dag(dag: &mut CircuitDag) -> CancelReport {
    let mut report = CancelReport::default();
    let n = dag.capacity();
    let mut cursor = 0;
    let mut requeued: VecDeque<usize> = VecDeque::new();
    // Gates waiting for a visit: every unread gate, and the requeued ones.
    let mut queued = vec![true; n];

    loop {
        let i = if cursor < n {
            cursor += 1;
            cursor - 1
        } else {
            match requeued.pop_front() {
                Some(i) => i,
                None => break,
            }
        };
        queued[i] = false;
        if !dag.is_alive(i) {
            continue;
        }
        let g = dag.gate(i);
        // Find the immediate successor on every operand; a pair (i, j) is
        // cancellable iff j is that successor for *all* operands of both
        // gates (which for equal-arity gates on the same qubit set is the
        // same thing checked from i's side).
        let succ = match g.qubits() {
            crate::gate::GateQubits::One(q) => {
                let j = dag.next_on(i, q);
                if j == NONE {
                    continue;
                }
                j
            }
            crate::gate::GateQubits::Two(a, b) => {
                let ja = dag.next_on(i, a);
                let jb = dag.next_on(i, b);
                if ja == NONE || ja != jb {
                    continue;
                }
                ja
            }
        };
        let h = dag.gate(succ);
        // The neighbors whose adjacency a removal changes, taken before
        // anything is spliced.
        let touched = [dag.neighbors(i), dag.neighbors(succ)];

        if g.cancels_with(&h) {
            dag.remove(i);
            dag.remove(succ);
            match g {
                Gate::Cnot(..) => report.removed_cnots += 2,
                Gate::Swap(..) => report.removed_swaps += 2,
                _ => report.removed_1q += 2,
            }
            requeue(dag, touched.as_flattened(), &mut queued, &mut requeued);
            continue;
        }

        // Rz merging: Rz(a)·Rz(b) = Rz(a+b); drop if the merged angle is a
        // multiple of 2π.
        if let (Gate::Rz(q, t1), Gate::Rz(q2, t2)) = (g, h) {
            debug_assert_eq!(q, q2);
            let merged = t1 + t2;
            dag.remove(i);
            report.removed_1q += 1;
            report.merged_rz += 1;
            if merged.rem_euclid(TAU).min(TAU - merged.rem_euclid(TAU)) < 1e-12 {
                dag.remove(succ);
                report.removed_1q += 1;
            } else {
                *dag.gate_mut(succ) = Gate::Rz(q, merged);
            }
            // A surviving `succ` is already among i's neighbors.
            requeue(dag, touched.as_flattened(), &mut queued, &mut requeued);
        }
    }
    report
}

/// Queues every alive gate of `touched` that is not waiting already, in
/// order.
fn requeue(
    dag: &CircuitDag,
    touched: &[usize],
    queued: &mut [bool],
    requeued: &mut VecDeque<usize>,
) {
    for &j in touched {
        if j != NONE && dag.is_alive(j) && !queued[j] {
            queued[j] = true;
            requeued.push_back(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(gates: Vec<Gate>, n: usize) -> (Circuit, CancelReport) {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        let r = cancel_gates(&mut c);
        (c, r)
    }

    #[test]
    fn back_to_back_cnots_cancel() {
        let (c, r) = run(vec![Gate::Cnot(0, 1), Gate::Cnot(0, 1)], 2);
        assert!(c.is_empty());
        assert_eq!(r.removed_cnots, 2);
    }

    #[test]
    fn reversed_cnots_do_not_cancel() {
        let (c, r) = run(vec![Gate::Cnot(0, 1), Gate::Cnot(1, 0)], 2);
        assert_eq!(c.len(), 2);
        assert_eq!(r.removed_total(), 0);
    }

    #[test]
    fn interposed_gate_blocks_cancellation() {
        // H on the *target* between two CNOTs blocks them.
        let (c, _) = run(vec![Gate::Cnot(0, 1), Gate::H(1), Gate::Cnot(0, 1)], 2);
        assert_eq!(c.len(), 3);
        // …but a gate on an unrelated qubit does not.
        let (c, r) = run(vec![Gate::Cnot(0, 1), Gate::H(2), Gate::Cnot(0, 1)], 3);
        assert_eq!(c.len(), 1);
        assert_eq!(r.removed_cnots, 2);
    }

    #[test]
    fn cascading_cancellation() {
        // H CNOT CNOT H — CNOTs cancel first, then the Hs become adjacent.
        let (c, r) = run(
            vec![Gate::H(0), Gate::Cnot(0, 1), Gate::Cnot(0, 1), Gate::H(0)],
            2,
        );
        assert!(c.is_empty());
        assert_eq!(r.removed_cnots, 2);
        assert_eq!(r.removed_1q, 2);
    }

    #[test]
    fn paper_fig3_leaf_chain_cancellation() {
        // The inner Z-chain CNOTs of two consecutive Pauli strings (Fig. 3c):
        // mirror of string 1 then tree of string 2 on a 3-qubit chain with
        // the root elsewhere (qubit 3 gets the Rz in between).
        let gates = vec![
            // string 1 mirror (top-down)
            Gate::Cnot(2, 3),
            Gate::Cnot(1, 2),
            Gate::Cnot(0, 1),
            // inter-string gates on the root only
            Gate::Rz(3, 0.7),
            // string 2 tree (bottom-up)
            Gate::Cnot(0, 1),
            Gate::Cnot(1, 2),
            Gate::Cnot(2, 3),
        ];
        let (c, r) = run(gates, 4);
        // Everything cancels except the two CNOTs touching the root (2,3)
        // which are blocked by the Rz, leaving 2 CNOTs + 1 Rz.
        assert_eq!(r.removed_cnots, 4);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn s_sdg_and_x_pairs() {
        let (c, r) = run(vec![Gate::S(0), Gate::Sdg(0), Gate::X(1), Gate::X(1)], 2);
        assert!(c.is_empty());
        assert_eq!(r.removed_1q, 4);
    }

    #[test]
    fn swap_pairs_cancel_in_either_orientation() {
        let (c, r) = run(vec![Gate::Swap(0, 1), Gate::Swap(1, 0)], 2);
        assert!(c.is_empty());
        assert_eq!(r.removed_swaps, 2);
    }

    #[test]
    fn rz_merging() {
        let (c, r) = run(vec![Gate::Rz(0, 0.25), Gate::Rz(0, 0.50)], 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.gates()[0], Gate::Rz(0, 0.75));
        assert_eq!(r.merged_rz, 1);
        // full-turn rotations disappear
        let (c, _) = run(vec![Gate::Rz(0, TAU / 2.0), Gate::Rz(0, TAU / 2.0)], 1);
        assert!(c.is_empty());
    }

    #[test]
    fn basis_change_sandwich_cancels_fully() {
        // S† H … H S around nothing (a Y-basis leaf qubit between strings).
        let (c, _) = run(vec![Gate::H(0), Gate::S(0), Gate::Sdg(0), Gate::H(0)], 1);
        assert!(c.is_empty());
    }

    #[test]
    fn measurement_blocks_cancellation() {
        // A mid-circuit measurement is a barrier: CNOTs straddling it must
        // survive (fast bridging relies on Measure/Reset staying put).
        let (c, r) = run(
            vec![Gate::Cnot(0, 1), Gate::Measure(1), Gate::Cnot(0, 1)],
            2,
        );
        assert_eq!(c.len(), 3);
        assert_eq!(r.removed_total(), 0);
        let (c, _) = run(vec![Gate::H(0), Gate::Reset(0), Gate::H(0)], 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn long_alternating_chain_fully_collapses() {
        // H CNOT H H CNOT H on the same pair collapses inside-out.
        let gates = vec![
            Gate::H(1),
            Gate::Cnot(0, 1),
            Gate::H(0),
            Gate::H(0),
            Gate::Cnot(0, 1),
            Gate::H(1),
        ];
        let (c, r) = run(gates, 2);
        assert!(c.is_empty(), "{:?}", c.gates());
        assert_eq!(r.removed_cnots, 2);
        assert_eq!(r.removed_1q, 4);
    }

    #[test]
    fn commutative_cancel_skips_shared_control() {
        // CNOT(0,1) CNOT(0,2) CNOT(0,1): outer pair cancels around the
        // shared-control CNOT.
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(0, 2));
        c.push(Gate::Cnot(0, 1));
        let r = cancel_gates_commutative(&mut c);
        assert_eq!(r.removed_cnots, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.gates()[0], Gate::Cnot(0, 2));
    }

    #[test]
    fn commutative_cancel_skips_shared_target() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 2));
        c.push(Gate::Cnot(1, 2));
        c.push(Gate::Cnot(0, 2));
        let r = cancel_gates_commutative(&mut c);
        assert_eq!(r.removed_cnots, 2);
        assert_eq!(c.gates(), &[Gate::Cnot(1, 2)]);
    }

    #[test]
    fn commutative_rz_merges_across_control() {
        // Rz on a CNOT control merges with a later Rz on the same wire.
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0, 0.25));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Rz(0, 0.5));
        let r = cancel_gates_commutative(&mut c);
        assert_eq!(r.merged_rz, 1);
        assert_eq!(c.len(), 2);
        assert!(c
            .gates()
            .iter()
            .any(|g| matches!(g, Gate::Rz(0, t) if (t - 0.75).abs() < 1e-12)));
    }

    #[test]
    fn commutative_cancel_respects_blockers() {
        // H on the control blocks; Rz on the *target* blocks too.
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(cancel_gates_commutative(&mut c).removed_total(), 0);
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Rz(1, 0.3));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(cancel_gates_commutative(&mut c).removed_cnots, 0);
    }

    #[test]
    fn commutative_x_pair_across_target() {
        // X(1) CNOT(0,1) X(1): X commutes with the target → pair cancels.
        let mut c = Circuit::new(2);
        c.push(Gate::X(1));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::X(1));
        let r = cancel_gates_commutative(&mut c);
        assert_eq!(r.removed_1q, 2);
        assert_eq!(c.gates(), &[Gate::Cnot(0, 1)]);
    }

    #[test]
    fn commutative_pass_is_a_superset_of_adjacent() {
        let gates = vec![
            Gate::H(0),
            Gate::Cnot(0, 1),
            Gate::Cnot(0, 1),
            Gate::H(0),
            Gate::S(1),
            Gate::Cnot(1, 2),
            Gate::Sdg(1),
        ];
        let mut adj = Circuit::new(3);
        let mut com = Circuit::new(3);
        for g in &gates {
            adj.push(*g);
            com.push(*g);
        }
        let ra = cancel_gates(&mut adj);
        let rc = cancel_gates_commutative(&mut com);
        assert!(rc.removed_total() >= ra.removed_total());
        // S(1) CNOT(1,2) S†(1): control-commuting → extra pair removed.
        assert_eq!(com.len(), 1);
    }

    #[test]
    fn idempotent_on_optimized_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Rz(1, 0.4));
        c.push(Gate::Cnot(0, 1));
        let r1 = cancel_gates(&mut c);
        assert_eq!(r1.removed_total(), 0);
        let snapshot = c.clone();
        let r2 = cancel_gates(&mut c);
        assert_eq!(r2.removed_total(), 0);
        assert_eq!(c, snapshot);
    }
}

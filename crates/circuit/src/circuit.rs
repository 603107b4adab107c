//! The flat circuit container.

use crate::gate::Gate;
use tetris_pauli::fingerprint::Fingerprint64;
use tetris_topology::CouplingGraph;

/// An ordered list of gates on `n_qubits` qubits.
///
/// Gate order is program order; two gates commute physically iff their qubit
/// sets are disjoint (the metrics' ASAP scheduler exploits exactly that).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit on `n` qubits.
    pub fn new(n: usize) -> Self {
        Circuit {
            n_qubits: n,
            gates: Vec::new(),
        }
    }

    /// An empty circuit on `n` qubits with room for `gates` gates, for
    /// builders that know the final length up front (the artifact decoder).
    pub fn with_capacity(n: usize, gates: usize) -> Self {
        Circuit {
            n_qubits: n,
            gates: Vec::with_capacity(gates),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates (SWAP counted once; see [`Circuit::cnot_count`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate list itself, for passes that rewrite it in place. A pass
    /// may only drop, reorder or re-angle gates already on the register.
    #[inline]
    pub(crate) fn gates_mut(&mut self) -> &mut Vec<Gate> {
        &mut self.gates
    }

    /// Appends a gate.
    ///
    /// # Panics
    /// Panics (debug) if an operand exceeds the register width.
    #[inline]
    pub fn push(&mut self, gate: Gate) {
        debug_assert!(
            gate.qubits().iter().all(|q| q < self.n_qubits),
            "gate {gate} exceeds register width {}",
            self.n_qubits
        );
        self.gates.push(gate);
    }

    /// CNOT-equivalent two-qubit gate count: CNOTs + 3·SWAPs (paper metric).
    pub fn cnot_count(&self) -> usize {
        self.gates.iter().map(|g| g.cnot_cost()).sum()
    }

    /// Number of SWAP gates (not yet decomposed).
    pub fn swap_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Swap(..)))
            .count()
    }

    /// Number of raw CNOT gates (excluding SWAP decompositions).
    pub fn raw_cnot_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Cnot(..)))
            .count()
    }

    /// Number of single-qubit gates (including `Rz`, excluding
    /// measure/reset).
    pub fn single_qubit_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| {
                matches!(
                    g,
                    Gate::H(_) | Gate::S(_) | Gate::Sdg(_) | Gate::X(_) | Gate::Rz(..)
                )
            })
            .count()
    }

    /// Total gate count with SWAPs decomposed: 1q gates + CNOT-equivalents
    /// (paper's "Total Gate" column).
    pub fn total_gate_count(&self) -> usize {
        self.single_qubit_count() + self.cnot_count()
    }

    /// Replaces every SWAP with its 3-CNOT decomposition.
    pub fn decompose_swaps(&self) -> Circuit {
        let mut out = Circuit::new(self.n_qubits);
        for g in &self.gates {
            match *g {
                Gate::Swap(a, b) => {
                    out.push(Gate::Cnot(a, b));
                    out.push(Gate::Cnot(b, a));
                    out.push(Gate::Cnot(a, b));
                }
                other => out.push(other),
            }
        }
        out
    }

    /// The inverse circuit (gates reversed and inverted) — used for the
    /// paper's randomized-benchmarking-style fidelity metric (§VI-G).
    ///
    /// # Panics
    /// Panics if the circuit contains non-unitary gates (measure/reset).
    pub fn inverse(&self) -> Circuit {
        let mut out = Circuit::new(self.n_qubits);
        for g in self.gates.iter().rev() {
            out.push(g.inverse().expect("cannot invert measure/reset"));
        }
        out
    }

    /// Whether every two-qubit gate acts on coupled physical qubits.
    pub fn is_hardware_compliant(&self, graph: &CouplingGraph) -> bool {
        self.n_qubits <= graph.n_qubits()
            && self.gates.iter().all(|g| match *g {
                Gate::Cnot(a, b) | Gate::Swap(a, b) => graph.are_adjacent(a, b),
                _ => true,
            })
    }

    /// Retains only gates for which `keep` returns true (order preserved).
    pub fn retain(&mut self, keep: impl FnMut(&Gate) -> bool) {
        self.gates.retain(keep);
    }

    /// A stable digest of the gate stream: register width, length, then per
    /// gate a kind tag, its operands and the IEEE bit pattern of any angle.
    /// [`Fingerprint64`] is release-stable, so digests pinned in tests
    /// survive toolchain bumps. A different gate, operand, order or angle
    /// bit moves it.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fingerprint64::new();
        h.write_usize(self.n_qubits);
        h.write_usize(self.gates.len());
        for g in &self.gates {
            let (tag, a, b) = match *g {
                Gate::H(q) => (b'H', q, None),
                Gate::S(q) => (b'S', q, None),
                Gate::Sdg(q) => (b'D', q, None),
                Gate::X(q) => (b'X', q, None),
                Gate::Rz(q, _) => (b'R', q, None),
                Gate::Cnot(a, b) => (b'C', a, Some(b)),
                Gate::Swap(a, b) => (b'W', a, Some(b)),
                Gate::Measure(q) => (b'M', q, None),
                Gate::Reset(q) => (b'Z', q, None),
            };
            h.write_u8(tag);
            h.write_usize(a);
            if let Some(b) = b {
                h.write_usize(b);
            }
            if let Gate::Rz(_, theta) = *g {
                h.write_f64(theta);
            }
        }
        h.finish()
    }
}

impl FromIterator<Gate> for Circuit {
    /// Collects gates into a circuit sized by the largest operand + 1.
    fn from_iter<T: IntoIterator<Item = Gate>>(iter: T) -> Self {
        let gates: Vec<Gate> = iter.into_iter().collect();
        let n = gates
            .iter()
            .flat_map(|g| g.qubits().iter())
            .max()
            .map_or(0, |m| m + 1);
        Circuit { n_qubits: n, gates }
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Swap(1, 2));
        c.push(Gate::Rz(2, 0.3));
        c
    }

    #[test]
    fn counts() {
        let c = sample();
        assert_eq!(c.len(), 4);
        assert_eq!(c.cnot_count(), 4); // 1 CNOT + 3 for the SWAP
        assert_eq!(c.raw_cnot_count(), 1);
        assert_eq!(c.swap_count(), 1);
        assert_eq!(c.single_qubit_count(), 2);
        assert_eq!(c.total_gate_count(), 6);
    }

    #[test]
    fn swap_decomposition_preserves_cnot_count() {
        let c = sample();
        let d = c.decompose_swaps();
        assert_eq!(d.swap_count(), 0);
        assert_eq!(d.cnot_count(), c.cnot_count());
        assert_eq!(d.raw_cnot_count(), 4);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let c = sample();
        let inv = c.inverse();
        assert_eq!(inv.gates()[0], Gate::Rz(2, -0.3));
        assert_eq!(inv.gates()[3], Gate::H(0));
        assert_eq!(inv.len(), c.len());
    }

    #[test]
    fn hardware_compliance() {
        let line = CouplingGraph::line(3);
        let c = sample();
        assert!(c.is_hardware_compliant(&line));
        let mut bad = Circuit::new(3);
        bad.push(Gate::Cnot(0, 2));
        assert!(!bad.is_hardware_compliant(&line));
    }

    #[test]
    fn content_digest_sees_angles_operands_and_order() {
        let base = sample().content_digest();
        assert_eq!(base, sample().content_digest());
        let mut flipped = Circuit::new(3);
        flipped.push(Gate::H(0));
        flipped.push(Gate::Cnot(1, 0));
        flipped.push(Gate::Swap(1, 2));
        flipped.push(Gate::Rz(2, 0.3));
        assert_ne!(flipped.content_digest(), base, "CNOT operands");
        let mut negated = sample();
        negated.retain(|g| !matches!(g, Gate::Rz(..)));
        negated.push(Gate::Rz(2, -0.3));
        assert_ne!(negated.content_digest(), base, "Rz sign");
        let mut wider = Circuit::with_capacity(4, 4);
        wider.extend(sample().gates().iter().copied());
        assert_ne!(wider.content_digest(), base, "register width");
    }

    #[test]
    fn collect_from_iterator() {
        let c: Circuit = vec![Gate::H(0), Gate::Cnot(2, 1)].into_iter().collect();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.len(), 2);
    }
}

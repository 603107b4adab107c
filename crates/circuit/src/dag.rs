//! A per-qubit doubly-linked DAG view over a gate list.
//!
//! Each qubit's gates form a chain in program order; the peephole optimizer
//! walks and splices these chains. The DAG takes ownership of the circuit's
//! own gate `Vec` ([`CircuitDag::from_gates`]) and hands it back compacted
//! in place ([`CircuitDag::into_gates`]), so the gates are never copied.
//! Because gates touch at most two qubits, the linkage is two `u32`
//! prev/next pairs per gate (16 bytes) plus an alive flag, built in one
//! linear scan that never reads a gate other than the one it links. On a
//! 2-vCPU host, the commutative pass over CO₂'s max-cancel logical circuit
//! (751k gates, 466k of them removed) takes 0.08–0.10 s in release.

use crate::gate::{Gate, GateQubits};

/// Sentinel for "no neighbor".
pub const NONE: usize = NIL as usize;

/// [`NONE`] as stored in a [`Link`]: widening a stored link with `as usize`
/// maps it onto [`NONE`] without a branch.
const NIL: u32 = u32::MAX;

/// Linkage of one gate on one of its (≤ 2) operand qubits.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// The DAG view: for every gate, its predecessor/successor on each operand.
#[derive(Debug)]
pub struct CircuitDag {
    gates: Vec<Gate>,
    // links[i][slot] — slot 0 is the first operand, slot 1 the second.
    links: Vec<[Link; 2]>,
    alive: Vec<bool>,
    first: Vec<u32>, // per qubit
    n_alive: usize,
}

impl CircuitDag {
    /// Builds the DAG over `gates`, a circuit on `n_qubits` qubits, taking
    /// ownership of the list.
    ///
    /// # Panics
    /// Panics if the list has `u32::MAX` gates or more.
    pub fn from_gates(gates: Vec<Gate>, n_qubits: usize) -> Self {
        assert!(gates.len() < NIL as usize, "circuit too long for the DAG");
        let unlinked = Link {
            prev: NIL,
            next: NIL,
        };
        let mut links = vec![[unlinked; 2]; gates.len()];
        let mut first = vec![NIL; n_qubits];
        // The chain tail of every qubit, and which of its slots the qubit
        // occupies there.
        let mut last = vec![NIL; n_qubits];
        let mut last_slot = vec![0u8; n_qubits];
        for (i, g) in gates.iter().enumerate() {
            let i = i as u32;
            for (slot, q) in g.qubits().iter().enumerate() {
                let tail = last[q];
                links[i as usize][slot].prev = tail;
                if tail == NIL {
                    first[q] = i;
                } else {
                    links[tail as usize][last_slot[q] as usize].next = i;
                }
                last[q] = i;
                last_slot[q] = slot as u8;
            }
        }
        let n_alive = gates.len();
        CircuitDag {
            gates,
            links,
            alive: vec![true; n_alive],
            first,
            n_alive,
        }
    }

    /// The gate at index `i`.
    #[inline]
    pub fn gate(&self, i: usize) -> Gate {
        self.gates[i]
    }

    /// Mutable access (used by the optimizer for `Rz` angle merging).
    #[inline]
    pub fn gate_mut(&mut self, i: usize) -> &mut Gate {
        &mut self.gates[i]
    }

    /// Whether gate `i` is still present.
    #[inline]
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Number of gates still present.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// Total gate slots (alive + removed).
    pub fn capacity(&self) -> usize {
        self.gates.len()
    }

    /// Successor of gate `i` on qubit `q`, or [`NONE`].
    ///
    /// # Panics
    /// Panics (debug) if `q` is not an operand of gate `i`.
    #[inline]
    pub fn next_on(&self, i: usize, q: usize) -> usize {
        self.links[i][slot_of(&self.gates[i], q)].next as usize
    }

    /// Predecessor of gate `i` on qubit `q`, or [`NONE`].
    #[inline]
    pub fn prev_on(&self, i: usize, q: usize) -> usize {
        self.links[i][slot_of(&self.gates[i], q)].prev as usize
    }

    /// First alive gate on qubit `q`, or [`NONE`].
    #[inline]
    pub fn first_on(&self, q: usize) -> usize {
        self.first[q] as usize
    }

    /// Removes gate `i`, splicing all its qubit chains.
    ///
    /// # Panics
    /// Panics if the gate was already removed.
    pub fn remove(&mut self, i: usize) {
        assert!(self.alive[i], "gate {i} removed twice");
        self.alive[i] = false;
        self.n_alive -= 1;
        let qubits = self.gates[i].qubits();
        for (slot, q) in qubits.iter().enumerate() {
            let Link { prev, next } = self.links[i][slot];
            if prev == NIL {
                self.first[q] = next;
            } else {
                let ps = slot_of(&self.gates[prev as usize], q);
                self.links[prev as usize][ps].next = next;
            }
            if next != NIL {
                let ns = slot_of(&self.gates[next as usize], q);
                self.links[next as usize][ns].prev = prev;
            }
        }
    }

    /// The neighbors of gate `i` — prev and next on its first operand,
    /// then on its second — padded with [`NONE`]: the candidates whose
    /// cancellation opportunities may change when `i` is removed.
    #[inline]
    pub fn neighbors(&self, i: usize) -> [usize; 4] {
        let [l0, l1] = self.links[i];
        match self.gates[i].qubits() {
            GateQubits::One(_) => [l0.prev as usize, l0.next as usize, NONE, NONE],
            GateQubits::Two(..) => [
                l0.prev as usize,
                l0.next as usize,
                l1.prev as usize,
                l1.next as usize,
            ],
        }
    }

    /// The alive gates in original program order: the list passed to
    /// [`from_gates`](CircuitDag::from_gates), compacted in place.
    pub fn into_gates(self) -> Vec<Gate> {
        let CircuitDag {
            mut gates, alive, ..
        } = self;
        let mut alive = alive.into_iter();
        // `retain` visits every element once, in order.
        gates.retain(|_| alive.next() == Some(true));
        gates.shrink_to_fit();
        gates
    }
}

#[inline]
fn slot_of(gate: &Gate, q: usize) -> usize {
    match gate.qubits() {
        GateQubits::One(a) => {
            debug_assert_eq!(a, q);
            0
        }
        GateQubits::Two(a, b) => {
            if q == a {
                0
            } else {
                debug_assert_eq!(b, q);
                1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Gate> {
        vec![
            Gate::H(0),       // 0
            Gate::Cnot(0, 1), // 1
            Gate::H(1),       // 2
            Gate::Cnot(1, 2), // 3
        ]
    }

    #[test]
    fn linkage() {
        let dag = CircuitDag::from_gates(sample(), 3);
        assert_eq!(dag.first_on(0), 0);
        assert_eq!(dag.next_on(0, 0), 1);
        assert_eq!(dag.next_on(1, 0), NONE);
        assert_eq!(dag.next_on(1, 1), 2);
        assert_eq!(dag.next_on(2, 1), 3);
        assert_eq!(dag.prev_on(3, 1), 2);
        assert_eq!(dag.first_on(2), 3);
    }

    #[test]
    fn from_gates_links_second_operand_slots_and_idle_qubits() {
        // Qubit 1 is the *second* operand of gate 0 and the *first* of
        // gate 1; qubit 3 is never touched.
        let gates = vec![Gate::Cnot(0, 1), Gate::Cnot(1, 2), Gate::Swap(2, 0)];
        let dag = CircuitDag::from_gates(gates.clone(), 4);
        assert_eq!(dag.capacity(), 3);
        assert_eq!(dag.n_alive(), 3);
        assert_eq!(dag.next_on(0, 1), 1);
        assert_eq!(dag.prev_on(1, 1), 0);
        assert_eq!(dag.next_on(1, 2), 2);
        assert_eq!(dag.next_on(0, 0), 2);
        assert_eq!(dag.prev_on(2, 0), 0);
        assert_eq!(dag.first_on(3), NONE);
        assert_eq!((0..3).map(|i| dag.gate(i)).collect::<Vec<_>>(), gates);
    }

    #[test]
    fn neighbors_pad_single_qubit_gates_with_none() {
        let dag = CircuitDag::from_gates(sample(), 3);
        assert_eq!(dag.neighbors(0), [NONE, 1, NONE, NONE]);
        assert_eq!(dag.neighbors(2), [1, 3, NONE, NONE]);
        assert_eq!(dag.neighbors(1), [0, NONE, NONE, 2]);
        assert_eq!(dag.neighbors(3), [2, NONE, NONE, NONE]);
    }

    #[test]
    fn removal_splices_chains() {
        let mut dag = CircuitDag::from_gates(sample(), 3);
        dag.remove(2); // H(1)
        assert_eq!(dag.next_on(1, 1), 3);
        assert_eq!(dag.prev_on(3, 1), 1);
        assert_eq!(dag.n_alive(), 3);
        let gates = dag.into_gates();
        assert_eq!(gates.len(), 3);
        assert_eq!(gates[1], Gate::Cnot(0, 1));
    }

    #[test]
    fn into_gates_compacts_the_same_list_in_program_order() {
        let mut gates = sample();
        gates.extend([Gate::X(2), Gate::Rz(0, 0.5)]);
        let mut dag = CircuitDag::from_gates(gates, 3);
        for i in [0, 3, 4] {
            dag.remove(i);
        }
        let kept = dag.into_gates();
        assert_eq!(kept, vec![Gate::Cnot(0, 1), Gate::H(1), Gate::Rz(0, 0.5)]);
        assert_eq!(kept.capacity(), kept.len(), "the tail is released");
        let empty = CircuitDag::from_gates(Vec::new(), 2).into_gates();
        assert!(empty.is_empty());
    }

    #[test]
    fn remove_head_updates_first() {
        let mut dag = CircuitDag::from_gates(sample(), 3);
        dag.remove(0);
        assert_eq!(dag.first_on(0), 1);
        dag.remove(1);
        assert_eq!(dag.first_on(0), NONE);
        assert_eq!(dag.first_on(1), 2);
    }

    #[test]
    #[should_panic(expected = "removed twice")]
    fn double_remove_panics() {
        let mut dag = CircuitDag::from_gates(sample(), 3);
        dag.remove(1);
        dag.remove(1);
    }
}

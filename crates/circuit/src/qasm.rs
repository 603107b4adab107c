//! OpenQASM 2.0 export.
//!
//! Compiled circuits can be handed to any downstream stack (Qiskit, tket,
//! simulators) via OpenQASM 2.0. Only the gates this workspace emits are
//! needed; SWAPs are decomposed into 3 CNOTs because `swap` is not in the
//! `qelib1` subset every consumer supports identically.

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::fmt::Write;

/// Renders the circuit as an OpenQASM 2.0 program.
///
/// ```
/// use tetris_circuit::{Circuit, Gate, qasm};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cnot(0, 1));
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("cx q[0], q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    // A gate line averages ~15 bytes: one allocation, not a doubling chain.
    let mut out = String::with_capacity(64 + 16 * circuit.len());
    write_qasm(&mut out, circuit);
    out
}

/// [`to_qasm`], written to `out` as it is rendered — for example straight
/// into an escaped JSON string, with no intermediate text.
pub fn write_qasm(out: &mut impl Write, circuit: &Circuit) {
    let _ = writeln!(out, "OPENQASM 2.0;");
    let _ = writeln!(out, "include \"qelib1.inc\";");
    let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
    let needs_creg = circuit
        .gates()
        .iter()
        .any(|g| matches!(g, Gate::Measure(_)));
    if needs_creg {
        let _ = writeln!(out, "creg c[{}];", circuit.n_qubits());
    }
    for gate in circuit.gates() {
        match *gate {
            Gate::H(q) => {
                let _ = writeln!(out, "h q[{q}];");
            }
            Gate::S(q) => {
                let _ = writeln!(out, "s q[{q}];");
            }
            Gate::Sdg(q) => {
                let _ = writeln!(out, "sdg q[{q}];");
            }
            Gate::X(q) => {
                let _ = writeln!(out, "x q[{q}];");
            }
            Gate::Rz(q, theta) => {
                let _ = writeln!(out, "rz({theta:.12}) q[{q}];");
            }
            Gate::Cnot(a, b) => {
                let _ = writeln!(out, "cx q[{a}], q[{b}];");
            }
            Gate::Swap(a, b) => {
                let _ = writeln!(out, "cx q[{a}], q[{b}];");
                let _ = writeln!(out, "cx q[{b}], q[{a}];");
                let _ = writeln!(out, "cx q[{a}], q[{b}];");
            }
            Gate::Measure(q) => {
                let _ = writeln!(out, "measure q[{q}] -> c[{q}];");
            }
            Gate::Reset(q) => {
                let _ = writeln!(out, "reset q[{q}];");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_register() {
        let c = Circuit::new(3);
        let q = to_qasm(&c);
        assert!(q.starts_with("OPENQASM 2.0;"));
        assert!(q.contains("qreg q[3];"));
        assert!(!q.contains("creg"), "no creg without measurements");
    }

    #[test]
    fn all_gates_render() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::S(0));
        c.push(Gate::Sdg(1));
        c.push(Gate::X(1));
        c.push(Gate::Rz(0, 0.5));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Swap(0, 1));
        c.push(Gate::Measure(0));
        c.push(Gate::Reset(1));
        let q = to_qasm(&c);
        for needle in [
            "h q[0];",
            "s q[0];",
            "sdg q[1];",
            "x q[1];",
            "rz(0.500000000000) q[0];",
            "cx q[0], q[1];",
            "cx q[1], q[0];",
            "measure q[0] -> c[0];",
            "reset q[1];",
            "creg c[2];",
        ] {
            assert!(q.contains(needle), "missing {needle}\n{q}");
        }
        // SWAP decomposes into exactly 3 cx lines beyond the single cx.
        assert_eq!(q.matches("cx ").count(), 4);
    }

    #[test]
    fn gate_count_matches_line_count() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        let q = to_qasm(&c);
        let body_lines = q
            .lines()
            .filter(|l| {
                !l.starts_with("OPENQASM") && !l.starts_with("include") && !l.starts_with("qreg")
            })
            .count();
        assert_eq!(body_lines, 2);
    }
}

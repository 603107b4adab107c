//! # tetris-pauli
//!
//! Operator-algebra substrate of the Tetris workspace: Pauli operators and
//! strings with phase-tracked products, a Majorana (fermionic) polynomial
//! algebra, the Jordan-Wigner and Bravyi-Kitaev fermion-to-spin encoders,
//! UCCSD and QAOA workload generators matching the paper's Table I, and the
//! Tetris IR (blocks annotated with root-tree / leaf-tree qubit sets).
//!
//! The typical entry points are [`molecules::Molecule`] for the six VQE
//! benchmarks, [`uccsd::UccsdAnsatz`] for synthetic UCC workloads,
//! [`qaoa`] for MaxCut Hamiltonians, and [`ir::TetrisIr`] to lower a
//! [`block::Hamiltonian`] into the compiler's IR.
//!
//! ```
//! use tetris_pauli::molecules::Molecule;
//! use tetris_pauli::encoder::Encoding;
//! use tetris_pauli::ir::TetrisIr;
//!
//! let ham = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
//! assert_eq!(ham.n_qubits, 12);
//! assert_eq!(ham.pauli_string_count(), 640); // paper Table I
//! let ir = TetrisIr::from_hamiltonian(&ham);
//! assert_eq!(ir.blocks.len(), ham.blocks.len());
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod complex;
pub mod dense;
pub mod encoder;
pub mod fermion;
pub mod fingerprint;
pub mod ir;
pub mod ir_recursive;
pub mod mask;
pub mod molecules;
pub mod op;
pub mod phase;
pub mod qaoa;
pub mod rng;
pub mod similarity;
pub mod string;
pub mod trotter;
pub mod uccsd;

pub use block::{Hamiltonian, PauliBlock, PauliTerm};
pub use complex::C64;
pub use mask::QubitMask;
pub use op::PauliOp;
pub use phase::Phase;
pub use string::PauliString;

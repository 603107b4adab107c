//! # tetris-baselines
//!
//! The comparator compilers of the paper's evaluation, implemented from
//! scratch on the shared substrates (circuit IR, peephole optimizer,
//! router, topology):
//!
//! * [`paulihedral`] — the SWAP-centric block compiler of Li et al.
//!   (ASPLOS'22): grows each block's tree from the connected component of
//!   the already-mapped support, with no root/leaf distinction.
//! * [`max_cancel`] — the paper's "max_cancel" extreme: hardware-oblivious
//!   single-leaf-chain synthesis maximizing logical CNOT cancellation, then
//!   SWAP-routed.
//! * [`generic`] — a T|Ket⟩-style general compiler: per-string ladder
//!   synthesis with no inter-string awareness, routed, then peephole'd.
//! * [`pcoast_like`] — a PCOAST-style logical optimizer: strong logical
//!   gate reduction (similarity-ordered blocks + single-leaf chains),
//!   mapping-agnostic, so routing pays a large SWAP bill (Fig. 15b).
//! * [`qaoa_2qan`] — a 2QAN-lite compiler for 2-local Hamiltonians:
//!   annealed placement + executable-first scheduling (Fig. 23).
//!
//! Every baseline ends with the same finishing step as the Tetris compiler,
//! [`tetris_core::CompileStats::finish`] (shared peephole pass, one
//! measurement of the final circuit, the naive CNOT count of the input as
//! the Eq. 2 denominator), so tables and figures compare like for like.
//! Each baseline attributes its own phases to the
//! [`tetris_obs::trace::Stage`]s: Paulihedral's tree growth to
//! `Clustering` and its emission to `Synthesis`; the logical circuits of
//! TKet, max_cancel and PCOAST to `Synthesis` (PCOAST's block chain to
//! `Scheduling`) and their router to `Routing`; 2QAN's placement to
//! `Clustering` and its emission loop to `Routing`.

#![warn(missing_docs)]

pub mod common;
pub mod generic;
pub mod max_cancel;
pub mod paulihedral;
pub mod pcoast_like;
pub mod qaoa_2qan;

pub use common::BaselineResult;

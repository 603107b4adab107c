//! # Tetris — a compilation framework for VQA applications
//!
//! This crate is the facade of the Tetris workspace, a from-scratch Rust
//! reproduction of *"Tetris: A Compilation Framework for VQA Applications in
//! Quantum Computing"* (ISCA 2024). It re-exports every sub-crate so that a
//! downstream user only needs a single dependency:
//!
//! ```
//! use tetris::pauli::molecules::Molecule;
//! use tetris::pauli::encoder::Encoding;
//! use tetris::topology::CouplingGraph;
//! use tetris::core::{TetrisCompiler, TetrisConfig};
//!
//! // Build the LiH UCCSD Hamiltonian under the Jordan-Wigner encoding.
//! let ham = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
//! // Target IBM's 65-qubit heavy-hex device.
//! let graph = CouplingGraph::heavy_hex_65();
//! // Compile.
//! let result = TetrisCompiler::new(TetrisConfig::default()).compile(&ham, &graph);
//! assert!(result.circuit.is_hardware_compliant(&graph));
//! println!("CNOTs: {}", result.stats.total_cnots());
//! ```
//!
//! The sub-crates:
//!
//! * [`pauli`] — Pauli/fermionic operator algebra, Jordan-Wigner and
//!   Bravyi-Kitaev encoders, UCCSD / QAOA workload generators, the Tetris IR.
//! * [`topology`] — hardware coupling graphs (heavy-hex, Sycamore, …) and the
//!   logical↔physical [`topology::Layout`].
//! * [`circuit`] — the gate set, circuit container, DAG peephole optimizer and
//!   depth/duration metrics.
//! * [`sim`] — a statevector simulator used as a correctness oracle and the
//!   depolarizing-noise fidelity model of the paper's §VI-G.
//! * [`router`] — a SABRE-style SWAP router used by the hardware-agnostic
//!   baselines.
//! * [`core`] — the Tetris compiler itself (Algorithm 1 synthesis, bridging,
//!   lookahead scheduling).
//! * [`baselines`] — Paulihedral-like, max-cancel, tket-like, PCOAST-like and
//!   2QAN-lite comparators used throughout the evaluation.
//! * [`obs`] — the observability layer: a process-wide metrics registry
//!   (counters, gauges, log-bucketed histograms, Prometheus text
//!   exposition) and per-job stage tracing, all std-only and disabled
//!   wholesale with [`obs::set_enabled`]`(false)`.
//! * [`engine`] — the parallel batch-compilation engine: a fixed worker
//!   pool plus a tiered content-addressed result cache (in-memory LRU over
//!   an optional persistent disk tier), with every compiler of the
//!   workspace behind one [`engine::Backend`]. Every job records a
//!   per-stage wall-time timeline.
//! * [`server`] — the std-only HTTP/1.1 front-end (`tetris serve`): named
//!   batch submission, result polling, cache/pool counters as JSON, a
//!   Prometheus `/metrics` endpoint and per-job `?trace=1` timelines.
//! * [`mod@bench`] — the experiment harness: workload suites, table emitters
//!   and the per-figure binaries.

pub use tetris_baselines as baselines;
pub use tetris_bench as bench;
pub use tetris_circuit as circuit;
pub use tetris_core as core;
pub use tetris_engine as engine;
pub use tetris_obs as obs;
pub use tetris_pauli as pauli;
pub use tetris_router as router;
pub use tetris_server as server;
pub use tetris_sim as sim;
pub use tetris_topology as topology;

//! # tetris-engine
//!
//! The throughput layer of the Tetris workspace: a parallel
//! batch-compilation engine with a content-addressed result cache.
//!
//! The one-shot compilers in `tetris-core` and `tetris-baselines` each turn
//! a single (Hamiltonian, coupling graph, configuration) point into a
//! circuit. Evaluation suites and services need thousands of such points —
//! molecule sweeps × topologies × compiler configurations — and most of
//! them repeat across runs. This crate adds the two missing production
//! pieces:
//!
//! * **A fixed worker pool** ([`Engine`]) built on `std::thread` + `mpsc`
//!   channels: a batch of [`CompileJob`]s is fanned out over N workers,
//!   and the worker that answers each job delivers it
//!   ([`Engine::submit_batch`]); [`Engine::compile_batch`] returns the
//!   results in submission order. Compilation is pure, so a parallel
//!   batch is bit-identical to a serial one.
//! * **A tiered content-addressed cache** ([`cache::ResultCache`]) keyed
//!   by a stable 64-bit fingerprint of the job's semantic content
//!   ([`CompileJob::cache_key`]): repeated points are served from memory
//!   instead of the compiler, with per-tier hit/miss accounting. An
//!   optional **disk tier** ([`disk::DiskCache`], enabled via
//!   [`EngineConfig::cache_dir`]) persists results as versioned binary
//!   files ([`codec`]) keyed by hex fingerprint, so a second *process*
//!   pointed at the same directory starts warm — corrupt or truncated
//!   files degrade to misses, never errors.
//! * **A pluggable backend**: the [`Backend`] enum puts the Tetris compiler
//!   and every baseline (`paulihedral`, `max_cancel`, `pcoast_like`,
//!   `generic`, `qaoa_2qan`) behind one `name`/`fingerprint`/`compile`
//!   surface, so a single batch can sweep compilers like-for-like.
//! * **Region scheduling** ([`scheduler`],
//!   [`RegionScheduler::submit_batch`], blocking form
//!   [`RegionScheduler::schedule_batch`]): a batch of small workloads is
//!   packed onto disjoint connected regions of one large chip — each job
//!   is a work item on the same pool that carries its region, compiles
//!   against the induced subgraph and is delivered relabeled into global
//!   coordinates by the worker that answered it, exactly like a plain
//!   batch's jobs. Carved regions stay alive across batches on a
//!   per-device free-list with per-region FIFO queues and a defragmenter,
//!   so steady-state repeat-shape traffic skips carving and compilation
//!   entirely (the relabeled artifacts are themselves content-addressed).
//! * **Observability** (via [`tetris_obs`]): every job records a per-stage
//!   wall-time timeline ([`JobResult::stages`] for the request,
//!   [`EngineOutput::stages`] for the original compile — the latter
//!   persisted by the disk codec), and the workers that answer every job,
//!   resident cache hits included, feed the process-wide metrics registry (`tetris_jobs_completed_total`,
//!   `tetris_engine_seconds`, `tetris_stage_seconds{stage=…}`) and a
//!   bounded ring of recent trace events. Disabled wholesale with
//!   [`tetris_obs::set_enabled`]`(false)`, which reduces the hot path to
//!   a few branches.
//!
//! ```
//! use std::sync::Arc;
//! use tetris_engine::{Backend, CompileJob, Engine, EngineConfig};
//! use tetris_pauli::molecules::Molecule;
//! use tetris_pauli::encoder::Encoding;
//! use tetris_topology::CouplingGraph;
//! use tetris_core::TetrisConfig;
//!
//! let engine = Engine::new(EngineConfig { threads: 2, cache_capacity: 256, ..Default::default() });
//! let ham = Arc::new(Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner));
//! let graph = Arc::new(CouplingGraph::heavy_hex_65());
//! let jobs: Vec<CompileJob> = [
//!     Backend::Tetris(TetrisConfig::default()),
//!     Backend::Paulihedral { post_optimize: true },
//! ]
//! .into_iter()
//! .map(|b| CompileJob::new("LiH", b, ham.clone(), graph.clone()))
//! .collect();
//! let results = engine.compile_batch(jobs.clone());
//! assert_eq!(results.len(), 2);
//! // A second submission of the same batch is served from the cache.
//! let again = engine.compile_batch(jobs);
//! assert!(again.iter().all(|r| r.cached));
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod codec;
pub mod disk;
pub mod job;
pub mod pool;
pub mod scheduler;

pub use backend::{Backend, EngineOutput};
pub use cache::{CacheStats, ResultCache};
pub use codec::{decode_output, encode_output, CodecError};
pub use disk::{DiskCache, DiskStats};
pub use job::{CompileJob, JobResult};
pub use pool::{Engine, EngineConfig};
pub use scheduler::{
    slack_for_width, DeviceSnapshot, RegionScheduler, RegionSnapshot, ResidentBatch, SchedulerStats,
};

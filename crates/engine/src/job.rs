//! Jobs and results — the units the engine schedules.

use crate::backend::{Backend, CompileBackend, EngineOutput};
use std::sync::Arc;
use tetris_obs::StageTimings;
use tetris_pauli::fingerprint::Fingerprint64;
use tetris_pauli::Hamiltonian;
use tetris_topology::{CouplingGraph, Region};

/// One compilation request: a workload, a device and a backend. Inputs are
/// `Arc`-shared so a suite of hundreds of jobs over six molecules and two
/// devices carries each Hamiltonian and graph once.
#[derive(Debug, Clone)]
pub struct CompileJob {
    /// Label carried into the result and the JSON report (e.g. `LiH-JW`).
    pub name: String,
    /// Which compiler to run, with its full parameterization.
    pub backend: Backend,
    /// The workload.
    pub hamiltonian: Arc<Hamiltonian>,
    /// The target device.
    pub graph: Arc<CouplingGraph>,
}

impl CompileJob {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        backend: Backend,
        hamiltonian: Arc<Hamiltonian>,
        graph: Arc<CouplingGraph>,
    ) -> Self {
        CompileJob {
            name: name.into(),
            backend,
            hamiltonian,
            graph,
        }
    }

    /// The content address of this job: a stable 64-bit combination of the
    /// Hamiltonian, coupling-graph and backend fingerprints. Two jobs with
    /// equal keys are guaranteed to produce bit-identical compilation
    /// output (modulo wall-clock timing), which is exactly the contract the
    /// result cache needs. The job [`name`](CompileJob::name) is excluded —
    /// renaming a workload still hits.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fingerprint64::new();
        h.write_bytes(b"tetris-job/v1");
        h.write_u64(self.hamiltonian.fingerprint());
        h.write_u64(self.graph.fingerprint());
        h.write_u64(self.backend.fingerprint());
        h.finish()
    }

    /// Runs the job synchronously on the calling thread, bypassing pool and
    /// cache — the serial reference path.
    pub fn run(&self) -> EngineOutput {
        self.backend.compile(&self.hamiltonian, &self.graph)
    }
}

/// The engine's per-job answer.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Position of the job in the submitted batch.
    pub index: usize,
    /// The job's label.
    pub name: String,
    /// The backend's report name.
    pub compiler: String,
    /// The job's content address.
    pub cache_key: u64,
    /// Whether the result came from the cache rather than a compiler run.
    pub cached: bool,
    /// Wall-clock seconds this job spent in the engine (queue + compile or
    /// cache lookup), as observed by the worker.
    pub engine_seconds: f64,
    /// `Some(message)` when the backend panicked (e.g. a workload wider
    /// than the device tripping a compiler assert): the worker survives,
    /// [`output`](JobResult::output) holds an empty placeholder, and
    /// nothing is cached.
    pub error: Option<String>,
    /// The device region this job ran on, when the batch went through
    /// [`RegionScheduler::schedule_batch`](crate::RegionScheduler::schedule_batch)
    /// and the scheduler placed it: the [`output`](JobResult::output)
    /// circuit and layout are then already relabeled into global device
    /// coordinates restricted to this region's qubits. `None` for
    /// whole-chip compiles (including region batches' leftover jobs).
    pub region: Option<Region>,
    /// Per-stage timeline of this job's trip through the engine: queue
    /// wait, cache lookup (including any disk IO it triggered), then — on
    /// a miss — the compile stages and the disk write-back. All zeros when
    /// observability is disabled ([`tetris_obs::set_enabled`]) or on the
    /// serial [`CompileJob::run`] path. Note the distinction from
    /// [`EngineOutput::stages`]: that one records the *original* compile's
    /// breakdown (possibly from a previous process, via the disk cache),
    /// while this field records what happened to *this* request.
    pub stages: StageTimings,
    /// The compilation output (shared with the cache).
    pub output: Arc<EngineOutput>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_core::TetrisConfig;
    use tetris_pauli::{PauliBlock, PauliTerm};

    fn ham(name: &str, s: &str) -> Arc<Hamiltonian> {
        Arc::new(Hamiltonian::new(
            s.len(),
            vec![PauliBlock::new(
                vec![PauliTerm::new(s.parse().unwrap(), 1.0)],
                0.3,
                "b",
            )],
            name,
        ))
    }

    #[test]
    fn cache_key_ignores_names_but_sees_content() {
        let graph = Arc::new(CouplingGraph::line(6));
        let backend = Backend::Tetris(TetrisConfig::default());
        let a = CompileJob::new("a", backend, ham("x", "XYZ"), graph.clone());
        let b = CompileJob::new("b", backend, ham("y", "XYZ"), graph.clone());
        assert_eq!(a.cache_key(), b.cache_key(), "names are presentation-only");

        let c = CompileJob::new("a", backend, ham("x", "XYY"), graph.clone());
        assert_ne!(a.cache_key(), c.cache_key(), "content must rekey");

        let d = CompileJob::new(
            "a",
            backend,
            ham("x", "XYZ"),
            Arc::new(CouplingGraph::ring(6)),
        );
        assert_ne!(a.cache_key(), d.cache_key(), "device must rekey");

        let e = CompileJob::new("a", Backend::MaxCancel, ham("x", "XYZ"), graph);
        assert_ne!(a.cache_key(), e.cache_key(), "backend must rekey");
    }
}

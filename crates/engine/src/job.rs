//! Jobs and results — the units the engine schedules.

use crate::backend::{Backend, EngineOutput};
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
    /// `(hamiltonian, graph)` fingerprints supplied by
    /// [`with_fingerprints`](CompileJob::with_fingerprints); `None` means
    /// they are hashed from the inputs on demand.
    fingerprints: Option<(u64, u64)>,
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
            fingerprints: None,
        }
    }

    /// [`new`](CompileJob::new) for inputs whose fingerprints are already
    /// known — the server's name memo computes each once per build. The
    /// job carries them, so [`cache_key`](CompileJob::cache_key) and the
    /// region scheduler's resident key never re-hash the Hamiltonian or the
    /// device. Each fingerprint must be its input's own (checked in debug
    /// builds); reassigning `hamiltonian` or `graph` afterwards needs a
    /// fresh constructor call.
    pub fn with_fingerprints(
        name: impl Into<String>,
        backend: Backend,
        (hamiltonian, hamiltonian_fp): (Arc<Hamiltonian>, u64),
        (graph, graph_fp): (Arc<CouplingGraph>, u64),
    ) -> Self {
        CompileJob {
            fingerprints: Some((hamiltonian_fp, graph_fp)),
            ..CompileJob::new(name, backend, hamiltonian, graph)
        }
    }

    /// The `(hamiltonian, graph)` content fingerprints: the carried pair
    /// when there is one, else hashed from the inputs.
    pub(crate) fn content_fingerprints(&self) -> (u64, u64) {
        let hashed = || (self.hamiltonian.fingerprint(), self.graph.fingerprint());
        match self.fingerprints {
            Some(carried) => {
                debug_assert_eq!(carried, hashed(), "stale carried fingerprints");
                carried
            }
            None => hashed(),
        }
    }

    /// The content address of this job: a stable 64-bit combination of the
    /// Hamiltonian, coupling-graph and backend fingerprints. Two jobs with
    /// equal keys are guaranteed to produce bit-identical compilation
    /// output (modulo wall-clock timing), which is exactly the contract the
    /// result cache needs. The job [`name`](CompileJob::name) is excluded —
    /// renaming a workload still hits.
    pub fn cache_key(&self) -> u64 {
        let (hamiltonian, graph) = self.content_fingerprints();
        let mut h = Fingerprint64::new();
        h.write_bytes(b"tetris-job/v1");
        h.write_u64(hamiltonian);
        h.write_u64(graph);
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
    /// [`RegionScheduler::submit_batch`](crate::RegionScheduler::submit_batch)
    /// (or its blocking form, `schedule_batch`) and the scheduler placed
    /// it: the worker that answered the job carried this region, and the
    /// [`output`](JobResult::output) circuit and layout are already
    /// relabeled into global device coordinates restricted to its qubits.
    /// `None` for whole-chip compiles (including region batches' leftover
    /// jobs).
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

        let e = CompileJob::new("a", Backend::MaxCancel, ham("x", "XYZ"), graph.clone());
        assert_ne!(a.cache_key(), e.cache_key(), "backend must rekey");

        let h = ham("x", "XYZ");
        let fps = (h.fingerprint(), graph.fingerprint());
        let carried = CompileJob::with_fingerprints("a", backend, (h, fps.0), (graph, fps.1));
        assert_eq!(carried.content_fingerprints(), fps);
        assert_eq!(
            carried.cache_key(),
            a.cache_key(),
            "carried fingerprints key alike"
        );
    }
}

//! Correctness, checked outside the timed window: every served job is
//! tallied, and after measuring each distinct served result is compared
//! with `CompileJob::run` on the same registry inputs.

use crate::client::{Conn, Record};
use crate::server::Server;
use crate::spec::{self, JobSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tetris_core::{TetrisCompiler, TetrisConfig};
use tetris_engine::CompileJob;
use tetris_server::registry;
use tetris_sim::Statevector;
use tetris_topology::Region;

/// One distinct served result: a job spec plus, for region jobs, the
/// physical qubits it was placed on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    /// The job.
    pub spec: JobSpec,
    /// Resident region qubits (`None` for whole-chip jobs).
    pub region: Option<Vec<usize>>,
}

#[derive(Debug)]
struct Entry {
    key: Key,
    /// The first record served for this key.
    first: Record,
    /// Whether the direct reference agreed (digest and hardware
    /// compliance); `None` before [`Tally::verify`].
    verified: Option<bool>,
}

/// Paper-quality sums over a set of served results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Σ final CNOTs.
    pub cnots: f64,
    /// Σ depth.
    pub depth: f64,
    /// Σ duration (dt).
    pub duration: f64,
    /// Geometric mean over UCC-shaped workloads of `tetris` CNOTs ÷
    /// `paulihedral` CNOTs.
    pub ratio_ph: f64,
}

/// Every operation of a run and whether it was right.
#[derive(Debug, Default)]
pub struct Tally {
    entries: Vec<Entry>,
    index: HashMap<Key, usize>,
    /// Served job → (entry, digest as served).
    served: Vec<(usize, u64)>,
    /// Operations that failed on their own: refused, shed, errored,
    /// malformed or missing results and failed oracle probes.
    failed_ops: u64,
    attempted: u64,
    corrupt_next: bool,
}

impl Tally {
    /// An empty tally. With `corrupt_digest` the first served digest is
    /// flipped, as if the server had answered wrongly.
    pub fn new(corrupt_digest: bool) -> Self {
        Tally {
            corrupt_next: corrupt_digest,
            ..Tally::default()
        }
    }

    /// Records one served job result.
    pub fn served(&mut self, spec: &JobSpec, record: &Record) {
        self.attempted += 1;
        if record.error {
            self.failed_ops += 1;
            return;
        }
        let mut digest = record.digest;
        if std::mem::take(&mut self.corrupt_next) {
            digest ^= 1;
        }
        let key = Key {
            spec: spec.clone(),
            region: record.region.clone(),
        };
        let entries = &mut self.entries;
        let at = *self.index.entry(key.clone()).or_insert_with(|| {
            entries.push(Entry {
                key,
                first: Record {
                    digest,
                    ..record.clone()
                },
                verified: None,
            });
            entries.len() - 1
        });
        self.served.push((at, digest));
    }

    /// Records `jobs` operations that produced no usable result.
    pub fn failed(&mut self, jobs: usize) {
        self.attempted += jobs as u64;
        self.failed_ops += jobs as u64;
    }

    /// Records one oracle probe.
    pub fn probe(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed_ops += u64::from(!ok);
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed: on their own, by disagreeing with the
    /// first result served for the same key, or by serving a result the
    /// direct reference rejects.
    pub fn failures(&self) -> u64 {
        let wrong = self
            .served
            .iter()
            .filter(|(at, digest)| {
                let e = &self.entries[*at];
                *digest != e.first.digest || e.verified == Some(false)
            })
            .count() as u64;
        self.failed_ops + wrong
    }

    /// Share of operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failures() as f64 / self.attempted as f64
    }

    /// Compiles every distinct served key directly on `threads` threads
    /// and marks the keys whose served digest or circuit disagrees.
    pub fn verify(&mut self, threads: usize) -> Result<(), String> {
        let todo: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].verified.is_none())
            .collect();
        let keys: Vec<Key> = todo.iter().map(|&i| self.entries[i].key.clone()).collect();
        let results = parallel_map(&keys, threads, reference);
        for (i, r) in todo.into_iter().zip(results) {
            let (digest, compliant) = r?;
            let e = &mut self.entries[i];
            e.verified = Some(compliant && digest == e.first.digest);
        }
        Ok(())
    }

    /// Quality sums over the distinct results `keep` selects.
    pub fn quality(&self, keep: impl Fn(&Key) -> bool) -> Quality {
        let kept: Vec<&Entry> = self.entries.iter().filter(|e| keep(&e.key)).collect();
        let mut q = Quality::default();
        for e in &kept {
            q.cnots += e.first.cnots as f64;
            q.depth += e.first.depth as f64;
            q.duration += e.first.duration as f64;
        }
        let cnots_of = |workload: &str, backend: &str| {
            kept.iter()
                .find(|e| e.key.spec.workload == workload && e.key.spec.backend == backend)
                .map(|e| e.first.cnots as f64)
        };
        let mut logs = Vec::new();
        for e in &kept {
            let s = &e.key.spec;
            if s.backend == "tetris" && s.ucc_shaped() {
                if let Some(ph) = cnots_of(&s.workload, "paulihedral").filter(|&c| c > 0.0) {
                    logs.push((e.first.cnots as f64 / ph).ln());
                }
            }
        }
        q.ratio_ph = if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        };
        q
    }
}

/// Builds a job from registry names, on the induced subgraph of `region`
/// when one is given.
pub fn build_job(spec: &JobSpec, region: Option<&[usize]>) -> Result<CompileJob, String> {
    let ham = registry::workload(&spec.workload)
        .ok_or_else(|| format!("unknown workload {}", spec.workload))?;
    let device =
        registry::device(&spec.device).ok_or_else(|| format!("unknown device {}", spec.device))?;
    let backend = registry::backend(&spec.backend)
        .ok_or_else(|| format!("unknown backend {}", spec.backend))?;
    let graph = match region {
        Some(qubits) => device.induced(&Region::new(device.n_qubits(), qubits.iter().copied())),
        None => device,
    };
    Ok(CompileJob::new(
        spec.workload.clone(),
        backend,
        Arc::new(ham),
        Arc::new(graph),
    ))
}

/// The direct reference for one key: `(stats digest, hardware compliant)`.
fn reference(key: &Key) -> Result<(u64, bool), String> {
    let job = build_job(&key.spec, key.region.as_deref())?;
    let out = job.run();
    Ok((
        out.stats_digest(),
        out.circuit.is_hardware_compliant(&job.graph),
    ))
}

/// Maps `f` over `items` on `threads` scoped threads, keeping order.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                slots.lock().expect("result slots")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Reads a streamed batch response into per-job records in batch order
/// (`None` where a job's frame is missing or malformed).
pub fn stream_records(
    frames: &[(std::time::Instant, String)],
    jobs: usize,
) -> Vec<Option<(std::time::Instant, Record)>> {
    let mut out: Vec<Option<(std::time::Instant, Record)>> = (0..jobs).map(|_| None).collect();
    let Some(ids) = frames.first().and_then(|(_, f)| crate::client::job_ids(f)) else {
        return out;
    };
    for (at, frame) in &frames[1..] {
        if let Some(r) = Record::parse(frame) {
            if let Some(i) = ids.iter().position(|&id| id == r.id) {
                if i < jobs {
                    out[i] = Some((*at, r));
                }
            }
        }
    }
    out
}

/// Posts one streamed batch and tallies its results. Returns the
/// response (`None` when the connection failed).
pub fn post_and_tally(
    conn: &mut Conn,
    jobs: &[JobSpec],
    resident: bool,
    tally: &mut Tally,
) -> Option<crate::client::Response> {
    let Ok((_, r)) = conn.call("POST", "/batch", &spec::batch_body(jobs, true, resident)) else {
        tally.failed(jobs.len());
        return None;
    };
    if r.status != 200 {
        tally.failed(jobs.len());
        return Some(r);
    }
    for (spec, rec) in jobs.iter().zip(stream_records(&r.frames, jobs.len())) {
        match rec {
            Some((_, rec)) => tally.served(spec, &rec),
            None => tally.failed(1),
        }
    }
    Some(r)
}

/// Serves the narrow probe jobs on a fresh server (their digests join the
/// reference check) and checks each direct compile against the
/// Pauli-evolution oracle on a statevector.
pub fn run_probes(seed: u64, max_inflight: usize, tally: &mut Tally) -> Result<(), String> {
    let server = Server::start(None, max_inflight)?;
    let mut conn = server.connect()?;
    for job in spec::probe_jobs(seed) {
        post_and_tally(&mut conn, std::slice::from_ref(&job), false, tally);
        tally.probe(oracle_equal(&job)?);
    }
    Ok(())
}

/// Whether the direct Tetris compile of `spec` equals the ordered product
/// of `exp(-i θ/2 P)` over its emitted blocks, up to the layout
/// permutation and a global phase.
fn oracle_equal(spec: &JobSpec) -> Result<bool, String> {
    let ham = registry::workload(&spec.workload).ok_or("unknown probe workload")?;
    let device = registry::device(&spec.device).ok_or("unknown probe device")?;
    let result = TetrisCompiler::new(TetrisConfig::default()).compile(&ham, &device);
    if !result.circuit.is_hardware_compliant(&device) {
        return Ok(false);
    }
    let np = device.n_qubits();
    let input = Statevector::random_state(ham.n_qubits, 0x5eed);
    let mut physical = input.embed(&result.initial_layout.as_assignment(), np);
    physical.apply_circuit(&result.circuit);
    let mut reference = input;
    for block in &result.emitted_blocks {
        for term in &block.terms {
            reference.apply_pauli_exp(&term.string, block.angle * term.coeff);
        }
    }
    let expected = reference.embed(&result.final_layout.as_assignment(), np);
    Ok(physical.equals_up_to_global_phase(&expected, 1e-8))
}

//! The fixed worker pool.
//!
//! `Engine::new` spawns N OS threads that live for the engine's lifetime
//! and pull work from a single `mpsc` queue (shared behind a mutex — the
//! classic std-only job-queue shape). `compile_batch` fans a batch out to
//! the queue and reassembles the answers in submission order; each worker
//! consults the shared [`ResultCache`] before touching a compiler.

use crate::backend::{CompileBackend, EngineOutput};
use crate::cache::{CacheStats, ResultCache};
use crate::job::{CompileJob, JobResult};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use tetris_obs::trace::{self, Stage, StageTimings};
use tetris_obs::{Counter, Histogram};

/// Engine sizing.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. Clamped to ≥ 1.
    pub threads: usize,
    /// Result-cache capacity in entries (0 disables the memory tier).
    pub cache_capacity: usize,
    /// Results directory for the persistent disk cache tier (`None` keeps
    /// the cache memory-only and the engine state process-local).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget for the disk tier (`None` = unbounded); ignored without
    /// `cache_dir`. Maps to `--cache-max-bytes` on the CLI.
    pub cache_max_bytes: Option<u64>,
}

impl Default for EngineConfig {
    /// One worker per available core, a memory-only cache with room for a
    /// full evaluation suite (6 molecules × 2 encoders × 2 devices × 7
    /// backends ≈ 170 points) several times over.
    fn default() -> Self {
        EngineConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 1024,
            cache_dir: None,
            cache_max_bytes: None,
        }
    }
}

struct WorkItem {
    index: usize,
    /// Precomputed [`CompileJob::cache_key`] — fingerprinting hashes the
    /// full Hamiltonian content, so it is computed once at submission and
    /// carried along rather than recomputed in the worker.
    key: u64,
    job: CompileJob,
    reply: Sender<JobResult>,
    /// Submission instant — the worker's dequeue time minus this is the
    /// job's [`Stage::QueueWait`].
    submitted_at: Instant,
}

/// Pre-resolved handles into the global metrics registry, looked up once
/// per engine so the per-job hot path is a handful of relaxed atomics.
#[derive(Debug)]
struct PoolMetrics {
    /// `tetris_jobs_completed_total{cached="true"}`.
    jobs_hit: Counter,
    /// `tetris_jobs_completed_total{cached="false"}`.
    jobs_miss: Counter,
    /// `tetris_job_errors_total`.
    errors: Counter,
    /// `tetris_engine_seconds` — per-job engine wall (queue wait excluded).
    engine_seconds: Histogram,
    /// `tetris_stage_seconds{stage=…}`, indexed by [`Stage::index`].
    stage_seconds: Vec<Histogram>,
}

impl PoolMetrics {
    fn new() -> Self {
        let g = tetris_obs::global();
        PoolMetrics {
            jobs_hit: g.counter("tetris_jobs_completed_total", &[("cached", "true")]),
            jobs_miss: g.counter("tetris_jobs_completed_total", &[("cached", "false")]),
            errors: g.counter("tetris_job_errors_total", &[]),
            engine_seconds: g.histogram("tetris_engine_seconds", &[]),
            stage_seconds: Stage::ALL
                .iter()
                .map(|s| g.histogram("tetris_stage_seconds", &[("stage", s.name())]))
                .collect(),
        }
    }

    /// Records a finished job into the counters, the latency and per-stage
    /// histograms, and the trace ring. No-op while observability is off.
    fn observe(&self, r: &JobResult) {
        if !tetris_obs::enabled() {
            return;
        }
        if r.cached {
            self.jobs_hit.inc();
        } else {
            self.jobs_miss.inc();
        }
        if r.error.is_some() {
            self.errors.inc();
        }
        self.engine_seconds.observe(r.engine_seconds);
        for (stage, secs) in r.stages.iter() {
            if secs > 0.0 {
                self.stage_seconds[stage.index()].observe(secs);
            }
        }
        trace::push_event(trace::event_now(
            r.name.as_str(),
            r.compiler.as_str(),
            r.cached,
            r.error.is_some(),
            r.engine_seconds,
            r.stages,
        ));
    }
}

/// Runs a job, converting a backend panic (e.g. a workload wider than the
/// device tripping a compiler assert) into an error message instead of
/// unwinding the worker thread.
fn run_guarded(job: &CompileJob) -> Result<EngineOutput, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run())).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("backend panicked")
            .to_string()
    })
}

/// The placeholder output attached to a failed job so [`JobResult`] keeps a
/// uniform shape; [`JobResult::error`] carries the actual failure.
fn failed_output(job: &CompileJob) -> EngineOutput {
    EngineOutput {
        compiler: job.backend.name().to_string(),
        circuit: tetris_circuit::Circuit::new(0),
        stats: Default::default(),
        final_layout: None,
        stages: StageTimings::default(),
    }
}

/// The shared lookup → compile → write-back body of the worker loop and
/// the duplicate-resolution path, with stage attribution: cache-lookup
/// wall (minus any disk IO the lookup triggered, which [`crate::disk`]
/// attributes to [`Stage::DiskIo`] itself), then on a miss the compile
/// stages — with the un-instrumented remainder attributed to
/// [`Stage::Other`] so the stage walls always sum to the compile wall —
/// and the disk write-back. Queue wait is the caller's to add: only the
/// worker has a submission instant. Returns all zeros for `stages` while
/// observability is disabled.
fn execute(
    job: &CompileJob,
    key: u64,
    cache: &ResultCache,
) -> (Arc<EngineOutput>, bool, Option<String>, StageTimings) {
    let on = tetris_obs::enabled();
    let mut stages = StageTimings::default();

    trace::begin_scope();
    let t_lookup = Instant::now();
    let hit = cache.get(key);
    let lookup_wall = t_lookup.elapsed().as_secs_f64();
    let lookup = trace::take_scope();
    if on {
        stages.merge(&lookup);
        stages.add(
            Stage::CacheLookup,
            (lookup_wall - lookup.get(Stage::DiskIo)).max(0.0),
        );
    }

    match hit {
        Some(output) => (output, true, None, stages),
        None => {
            trace::begin_scope();
            let t_compile = Instant::now();
            let compiled = run_guarded(job);
            let compile_wall = t_compile.elapsed().as_secs_f64();
            let mut compile = trace::take_scope();
            if on {
                compile.add(Stage::Other, (compile_wall - compile.total()).max(0.0));
            }
            match compiled {
                Ok(mut fresh) => {
                    // The compile breakdown travels with the artifact (and
                    // through the disk codec), so later cache hits can
                    // still report where the original compile spent time.
                    fresh.stages = compile;
                    trace::begin_scope();
                    let output = cache.insert(key, fresh);
                    let store = trace::take_scope();
                    if on {
                        stages.merge(&compile);
                        stages.merge(&store);
                    }
                    (output, false, None, stages)
                }
                Err(msg) => {
                    if on {
                        stages.merge(&compile);
                    }
                    (Arc::new(failed_output(job)), false, Some(msg), stages)
                }
            }
        }
    }
}

/// The batch-compilation engine: a fixed worker pool plus a shared
/// content-addressed result cache. See the crate docs for an example.
#[derive(Debug)]
pub struct Engine {
    cache: Arc<ResultCache>,
    queue: Option<Sender<WorkItem>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    metrics: Arc<PoolMetrics>,
}

impl Engine {
    /// Spawns the worker pool.
    ///
    /// # Panics
    /// Panics if `config.cache_dir` is set but the directory cannot be
    /// created — a service pointed at an unusable results directory should
    /// fail loudly at startup, not silently run uncached.
    pub fn new(config: EngineConfig) -> Self {
        let threads = config.threads.max(1);
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => {
                ResultCache::with_disk_budgeted(config.cache_capacity, dir, config.cache_max_bytes)
                    .unwrap_or_else(|e| {
                        panic!("cannot open cache directory {}: {e}", dir.display())
                    })
            }
            None => ResultCache::new(config.cache_capacity),
        });
        let metrics = Arc::new(PoolMetrics::new());
        let (tx, rx) = channel::<WorkItem>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || worker_loop(&rx, &cache, &metrics))
            })
            .collect();
        Engine {
            cache,
            queue: Some(tx),
            workers,
            threads,
            metrics,
        }
    }

    /// An engine with default sizing.
    pub fn with_default_config() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared result cache (the region scheduler stores relabeled
    /// artifacts under `tetris-resident/v1` keys alongside the per-job
    /// entries).
    pub(crate) fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Records a job answered outside the pool (a resident cache hit) into
    /// the same counters, histograms and trace ring the workers feed.
    pub(crate) fn observe(&self, r: &JobResult) {
        self.metrics.observe(r);
    }

    /// Submits a batch and invokes `on_result` once per job *as each
    /// completes* (completion order, not submission order), returning
    /// immediately. This is the completion-push hook the async HTTP
    /// front-end builds on: the server's adapter registers a sink that
    /// fills the job table and pokes the reactor's wakeup pipe, so
    /// long-polling and streaming clients hear about a job the moment its
    /// worker finishes — no polling round-trips.
    ///
    /// Semantics match [`compile_batch`](Engine::compile_batch) (which is
    /// built on this): duplicate jobs inside the batch (equal
    /// [`CompileJob::cache_key`]) are coalesced — the first occurrence
    /// compiles on the pool, and each duplicate is resolved as a cache hit
    /// immediately after its primary lands, on the collector thread.
    /// [`JobResult::index`] carries the job's position in the submitted
    /// batch, so a sink can reassemble submission order.
    pub fn submit_batch<F>(&self, jobs: Vec<CompileJob>, on_result: F)
    where
        F: Fn(JobResult) + Send + 'static,
    {
        if jobs.is_empty() {
            return;
        }
        let queue = self
            .queue
            .as_ref()
            .expect("engine queue alive until drop")
            .clone();
        let (reply_tx, reply_rx) = channel::<JobResult>();

        // Coalesce duplicates: first occurrence of each key is submitted,
        // later ones are resolved from the cache as soon as it lands.
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut dups_by_key: std::collections::HashMap<u64, Vec<(usize, CompileJob)>> =
            std::collections::HashMap::new();
        let mut submitted = 0usize;
        for (index, job) in jobs.into_iter().enumerate() {
            let key = job.cache_key();
            if seen.insert(key) {
                queue
                    .send(WorkItem {
                        index,
                        key,
                        job,
                        reply: reply_tx.clone(),
                        submitted_at: Instant::now(),
                    })
                    .expect("workers alive until drop");
                submitted += 1;
            } else {
                dups_by_key.entry(key).or_default().push((index, job));
            }
        }
        drop(reply_tx);

        let cache = Arc::clone(&self.cache);
        let metrics = Arc::clone(&self.metrics);
        std::thread::spawn(move || {
            for _ in 0..submitted {
                let Ok(r) = reply_rx.recv() else {
                    return; // engine dropped mid-batch
                };
                let key = r.cache_key;
                on_result(r);
                // Every duplicate's primary was submitted, so draining the
                // map here resolves all of them by the time the loop ends.
                // Usually a straight cache hit; when the cache was too
                // small to retain the primary (or capacity 0, or the
                // primary failed), `execute` falls back to compiling in
                // place.
                for (index, job) in dups_by_key.remove(&key).unwrap_or_default() {
                    let t0 = Instant::now();
                    let (output, cached, error, stages) = execute(&job, key, &cache);
                    let result = JobResult {
                        index,
                        name: job.name,
                        compiler: job.backend.name().to_string(),
                        cache_key: key,
                        cached,
                        engine_seconds: t0.elapsed().as_secs_f64(),
                        error,
                        region: None,
                        stages,
                        output,
                    };
                    metrics.observe(&result);
                    on_result(result);
                }
            }
        });
    }

    /// Compiles a batch, returning one [`JobResult`] per job in submission
    /// order.
    ///
    /// Jobs are independent, so the batch saturates all workers; because
    /// every backend is pure, the results are bit-identical to compiling
    /// the same jobs serially (modulo wall-clock fields). Duplicate jobs
    /// inside one batch (equal [`CompileJob::cache_key`]) are coalesced:
    /// the first occurrence compiles, the rest are served as cache hits —
    /// the same guarantee the cache gives across batches, without racing
    /// two workers on identical work.
    pub fn compile_batch(&self, jobs: Vec<CompileJob>) -> Vec<JobResult> {
        let total = jobs.len();
        let (tx, rx) = channel::<JobResult>();
        self.submit_batch(jobs, move |r| {
            // The receiver outlives every send unless the caller panicked.
            let _ = tx.send(r);
        });
        let mut slots: Vec<Option<JobResult>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            let r = rx.recv().expect("collector delivers every job");
            let index = r.index;
            slots[index] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Closing the queue ends every worker's recv loop.
        drop(self.queue.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<WorkItem>>, cache: &ResultCache, metrics: &PoolMetrics) {
    loop {
        // Hold the lock only for the dequeue, not the compile.
        let item = match rx.lock().expect("queue lock").recv() {
            Ok(item) => item,
            Err(_) => return, // engine dropped
        };
        let t0 = Instant::now();
        let key = item.key;
        // Failures are reported, not cached: a panic may be environmental,
        // and a placeholder must never satisfy a later lookup of the same
        // content. `execute` upholds this.
        let (output, cached, error, mut stages) = execute(&item.job, key, cache);
        if tetris_obs::enabled() {
            stages.add(
                Stage::QueueWait,
                t0.duration_since(item.submitted_at).as_secs_f64(),
            );
        }
        let result = JobResult {
            index: item.index,
            name: item.job.name,
            compiler: item.job.backend.name().to_string(),
            cache_key: key,
            cached,
            engine_seconds: t0.elapsed().as_secs_f64(),
            error,
            region: None,
            stages,
            output,
        };
        metrics.observe(&result);
        // The batch may have been abandoned; dropping the result is fine.
        let _ = item.reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use std::sync::Arc;
    use tetris_core::TetrisConfig;
    use tetris_pauli::{Hamiltonian, PauliBlock, PauliTerm};
    use tetris_topology::CouplingGraph;

    fn toy_jobs(n: usize) -> Vec<CompileJob> {
        let graph = Arc::new(CouplingGraph::line(8));
        (0..n)
            .map(|i| {
                let s = if i % 2 == 0 { "YZZZY" } else { "XZZZX" };
                let ham = Arc::new(Hamiltonian::new(
                    5,
                    vec![PauliBlock::new(
                        vec![PauliTerm::new(s.parse().unwrap(), 1.0)],
                        0.1 + i as f64 * 0.05,
                        "b",
                    )],
                    format!("toy{i}"),
                ));
                CompileJob::new(
                    format!("toy{i}"),
                    Backend::Tetris(TetrisConfig::default()),
                    ham,
                    graph.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn batch_preserves_submission_order() {
        let engine = Engine::new(EngineConfig {
            threads: 4,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        });
        let results = engine.compile_batch(toy_jobs(12));
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.name, format!("toy{i}"));
        }
    }

    #[test]
    fn duplicate_jobs_in_one_batch_are_coalesced() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        });
        let mut jobs = toy_jobs(2);
        jobs.extend(toy_jobs(2)); // same content again
        let results = engine.compile_batch(jobs);
        assert_eq!(results.iter().filter(|r| !r.cached).count(), 2);
        assert_eq!(results.iter().filter(|r| r.cached).count(), 2);
        assert_eq!(
            results[0].output.stats_digest(),
            results[2].output.stats_digest()
        );
    }

    #[test]
    fn zero_capacity_cache_still_answers_duplicates() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 0,
            cache_dir: None,
            cache_max_bytes: None,
        });
        let mut jobs = toy_jobs(1);
        jobs.extend(toy_jobs(1));
        let results = engine.compile_batch(jobs);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].output.stats_digest(),
            results[1].output.stats_digest()
        );
    }

    #[test]
    fn panicking_backend_is_reported_not_fatal() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 8,
            cache_dir: None,
            cache_max_bytes: None,
        });
        // 5 logical qubits on a 3-qubit device trips the compiler's width
        // assert — the classic bad-request shape a service must survive.
        let wide = CompileJob::new(
            "too-wide",
            Backend::Tetris(TetrisConfig::default()),
            Arc::new(Hamiltonian::new(
                5,
                vec![PauliBlock::new(
                    vec![PauliTerm::new("ZZZZZ".parse().unwrap(), 1.0)],
                    0.3,
                    "b",
                )],
                "wide",
            )),
            Arc::new(CouplingGraph::line(3)),
        );
        let mut jobs = toy_jobs(2);
        jobs.insert(1, wide);
        let results = engine.compile_batch(jobs);
        assert_eq!(results.len(), 3);
        assert!(results[0].error.is_none());
        let err = results[1].error.as_ref().expect("panic surfaced as error");
        assert!(err.contains("exceed"), "assert message propagates: {err}");
        assert!(!results[1].cached, "failures are never cache hits");
        assert!(results[2].error.is_none(), "other jobs unaffected");
        // The pool survives: a follow-up batch on the same engine works,
        // and the failure was not cached.
        let again = engine.compile_batch(toy_jobs(2));
        assert!(again.iter().all(|r| r.error.is_none() && r.cached));
    }

    #[test]
    fn submit_batch_pushes_every_result_exactly_once() {
        let engine = Engine::new(EngineConfig {
            threads: 3,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        });
        let mut jobs = toy_jobs(5);
        jobs.extend(toy_jobs(2)); // duplicates of the first two
        let total = jobs.len();
        let (tx, rx) = std::sync::mpsc::channel();
        engine.submit_batch(jobs, move |r| {
            let _ = tx.send(r);
        });
        let mut results: Vec<JobResult> = (0..total).map(|_| rx.recv().expect("result")).collect();
        assert!(rx.recv().is_err(), "exactly one callback per job");
        results.sort_by_key(|r| r.index);
        let direct = engine.compile_batch(toy_jobs(5));
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(
                r.output.stats_digest(),
                direct[i % 5].output.stats_digest(),
                "pushed result {i} must match a direct compile"
            );
        }
        // The duplicates were coalesced into cache hits.
        assert!(results[5].cached && results[6].cached);
    }

    #[test]
    fn engine_shuts_down_cleanly() {
        let engine = Engine::new(EngineConfig {
            threads: 3,
            cache_capacity: 8,
            cache_dir: None,
            cache_max_bytes: None,
        });
        let _ = engine.compile_batch(toy_jobs(3));
        drop(engine); // must not hang or panic
    }
}

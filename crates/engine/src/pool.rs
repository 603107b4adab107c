//! The fixed worker pool.
//!
//! `Engine::new` spawns N named OS threads (`tetris-worker-<i>`) that live
//! for the engine's lifetime and pull work from a single `mpsc` queue
//! (shared behind a mutex — the classic std-only job-queue shape). Each
//! worker consults the shared [`ResultCache`] before touching a compiler,
//! then hands the result to its batch's sink itself, followed by any
//! in-batch duplicates of that job, so submitting a batch spawns no
//! thread; a job the [`RegionScheduler`](crate::RegionScheduler) placed
//! carries its region. `compile_batch` is a sink that reassembles the
//! answers in submission order.

use crate::backend::EngineOutput;
use crate::cache::{CacheStats, ResultCache};
use crate::job::{CompileJob, JobResult};
use crate::scheduler::{induced_job, relabel_output, resident_key};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;
use tetris_obs::trace::{self, Stage, StageTimings};
use tetris_obs::{Counter, Histogram};
use tetris_topology::Region;

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

/// Where a batch's results go: the caller's `on_result`, shared by the
/// batch's work items and called on whichever worker finishes each job.
pub(crate) type Sink = Arc<dyn Fn(JobResult) + Send + Sync>;

pub(crate) struct WorkItem {
    index: usize,
    /// [`CompileJob::cache_key`] — or, for a placed job, its resident key —
    /// computed once at submission (where it also coalesces duplicates)
    /// and carried to the worker.
    key: u64,
    job: CompileJob,
    /// The device region a scheduled job was placed on: the worker answers
    /// it relabeled into global coordinates. `None` compiles whole-chip.
    region: Option<Region>,
    /// Later jobs of the same batch with this key, as `(index, job)`: the
    /// worker resolves them right after this job, usually as cache hits.
    duplicates: Vec<(usize, CompileJob)>,
    sink: Sink,
    /// Submission instant — the worker's dequeue time minus this is the
    /// job's [`Stage::QueueWait`].
    submitted_at: Instant,
}

impl WorkItem {
    /// One job for the pool, keyed by its resident key when `region` is
    /// set and by its [`CompileJob::cache_key`] otherwise.
    pub(crate) fn new(index: usize, job: CompileJob, region: Option<Region>, sink: Sink) -> Self {
        let key = match &region {
            Some(region) => resident_key(&job, region),
            None => job.cache_key(),
        };
        WorkItem {
            index,
            key,
            job,
            region,
            duplicates: Vec::new(),
            sink,
            submitted_at: Instant::now(),
        }
    }
}

/// Enqueues `items` unless the engine was dropped (then they are
/// dropped too): the region scheduler runs a batch's later rounds on the
/// worker that finished the previous one, through a handle that must not
/// keep the workers alive.
pub(crate) fn dispatch(queue: &Weak<Sender<WorkItem>>, items: Vec<WorkItem>) {
    if let Some(queue) = queue.upgrade() {
        for item in items {
            // Workers outlive every queue handle.
            let _ = queue.send(item);
        }
    }
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

/// Answers one job: [`execute`] plus the [`JobResult`] around it, recorded
/// into the engine's metrics. Engine wall starts now; a work item's
/// `submitted_at` adds its queue wait (duplicates have none).
fn answer(
    index: usize,
    job: CompileJob,
    key: u64,
    region: Option<Region>,
    cache: &ResultCache,
    metrics: &PoolMetrics,
    submitted_at: Option<Instant>,
) -> JobResult {
    let t0 = Instant::now();
    // Failures are reported, not cached: a panic may be environmental,
    // and a placeholder must never satisfy a later lookup of the same
    // content. `execute` upholds this.
    let (output, cached, error, mut stages) = execute(&job, key, region.as_ref(), cache);
    if let (Some(at), true) = (submitted_at, tetris_obs::enabled()) {
        stages.add(Stage::QueueWait, t0.duration_since(at).as_secs_f64());
    }
    let result = JobResult {
        index,
        compiler: job.backend.name().to_string(),
        name: job.name,
        cache_key: key,
        cached,
        engine_seconds: t0.elapsed().as_secs_f64(),
        error,
        region,
        stages,
        output,
    };
    metrics.observe(&result);
    result
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
/// and the disk write-back. A placed job's miss executes the job on its
/// region's induced subgraph, then stores the relabeled artifact under
/// its resident `key`. Queue wait is the caller's to add: only the worker
/// has a submission instant. Returns all zeros for `stages` while
/// observability is disabled.
fn execute(
    job: &CompileJob,
    key: u64,
    region: Option<&Region>,
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

    match (hit, region) {
        (Some(output), _) => (output, true, None, stages),
        (None, Some(region)) => {
            let induced = induced_job(job, region);
            let (local, cached, error, compile) =
                execute(&induced, induced.cache_key(), None, cache);
            stages.merge(&compile);
            if error.is_some() {
                return (local, cached, error, stages);
            }
            trace::begin_scope();
            let output = cache.insert(key, relabel_output(&local, region));
            stages.merge(&trace::take_scope());
            (output, cached, None, stages)
        }
        (None, None) => {
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
    /// The only strong handle on the queue: dropping it ends the workers.
    queue: Option<Arc<Sender<WorkItem>>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
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
            .map(|i| {
                let rx = Arc::clone(&rx);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("tetris-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &cache, &metrics))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            cache,
            queue: Some(Arc::new(tx)),
            workers,
            threads,
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

    /// A handle for [`dispatch`]ing work after this call returns.
    pub(crate) fn queue_handle(&self) -> Weak<Sender<WorkItem>> {
        Arc::downgrade(self.queue.as_ref().expect("engine queue alive until drop"))
    }

    /// Submits a batch and invokes `on_result` once per job *as each
    /// completes* (completion order, not submission order), returning
    /// immediately. This is the completion-push hook the async HTTP
    /// front-end builds on: the server's adapter registers a sink that
    /// fills the job table and pokes the reactor's wakeup pipe, so
    /// long-polling and streaming clients hear about a job the moment its
    /// worker finishes — no polling round-trips.
    ///
    /// `on_result` runs on the pool worker that finished the job, so
    /// submitting spawns no thread; it must be quick and must not wait on
    /// this engine's pool. Duplicate jobs inside the batch (equal
    /// [`CompileJob::cache_key`]) are coalesced: the first occurrence
    /// compiles on the pool, and the worker that finishes it resolves
    /// each duplicate right after delivering it — a cache hit, or a
    /// compile in place when the cache did not keep the primary (capacity
    /// 0, eviction, or a failed primary). [`JobResult::index`] carries the
    /// job's position in the submitted batch, so a sink can reassemble
    /// submission order.
    pub fn submit_batch<F>(&self, jobs: Vec<CompileJob>, on_result: F)
    where
        F: Fn(JobResult) + Send + Sync + 'static,
    {
        let queue = self.queue.as_ref().expect("engine queue alive until drop");
        let sink: Sink = Arc::new(on_result);
        // Plan the whole batch before sending anything: a worker may
        // finish a primary at once, and must find all its duplicates.
        let mut items: Vec<WorkItem> = Vec::new();
        let mut primary: HashMap<u64, usize> = HashMap::new();
        for (index, job) in jobs.into_iter().enumerate() {
            let item = WorkItem::new(index, job, None, Arc::clone(&sink));
            match primary.get(&item.key) {
                Some(&slot) => items[slot].duplicates.push((index, item.job)),
                None => {
                    primary.insert(item.key, items.len());
                    items.push(item);
                }
            }
        }
        for item in items {
            queue.send(item).expect("workers alive until drop");
        }
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
        collect_in_order(total, |sink| self.submit_batch(jobs, sink))
    }
}

/// Blocks until `total` results arrive through the sink handed to
/// `submit`, and returns them in submission order — the blocking form of
/// every push-style submit.
pub(crate) fn collect_in_order<S>(total: usize, submit: S) -> Vec<JobResult>
where
    S: FnOnce(Box<dyn Fn(JobResult) + Send + Sync>),
{
    let (tx, rx) = channel::<JobResult>();
    submit(Box::new(move |r| {
        // The receiver outlives every send unless the caller panicked.
        let _ = tx.send(r);
    }));
    let mut slots: Vec<Option<JobResult>> = (0..total).map(|_| None).collect();
    for _ in 0..total {
        let r = rx.recv().expect("the pool delivers every job");
        let index = r.index;
        slots[index] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
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
        let WorkItem {
            index,
            key,
            job,
            region,
            duplicates,
            sink,
            submitted_at,
        } = item;
        let at = Some(submitted_at);
        sink(answer(index, job, key, region, cache, metrics, at));
        for (index, job) in duplicates {
            sink(answer(index, job, key, None, cache, metrics, None));
        }
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
    fn submit_batch_delivers_on_named_pool_workers() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        });
        // Two primaries with in-batch duplicates, plus a failing primary
        // whose duplicate falls back to compiling in place.
        let wide = || {
            CompileJob::new(
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
            )
        };
        let mut jobs = toy_jobs(2);
        jobs.extend(toy_jobs(2));
        jobs.push(wide());
        jobs.push(wide());
        let total = jobs.len();
        let (tx, rx) = std::sync::mpsc::channel();
        engine.submit_batch(jobs, move |r| {
            let thread = std::thread::current().name().map(str::to_string);
            let _ = tx.send((r.index, r.error.is_some(), thread));
        });
        let mut seen: Vec<(usize, bool, Option<String>)> =
            (0..total).map(|_| rx.recv().expect("result")).collect();
        assert!(rx.recv().is_err(), "exactly one callback per job");
        seen.sort();
        for (i, (index, failed, thread)) in seen.iter().enumerate() {
            assert_eq!(*index, i, "every index delivered once");
            assert_eq!(*failed, i >= 4, "only the wide jobs fail");
            let thread = thread.as_deref().unwrap_or("<unnamed>");
            assert!(
                thread.starts_with("tetris-worker-"),
                "job {i} delivered on `{thread}`, not a pool worker"
            );
        }
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

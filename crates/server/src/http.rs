//! Routing, handlers, and shared state for the HTTP front-end.
//!
//! One front-end serves every socket: a nonblocking `poll(2)` readiness
//! loop in the crate's private `reactor` module, with per-connection
//! incremental parse/write state machines from [`crate::conn`]. Job
//! completions are pushed back into the loop over a wakeup pipe
//! ([`crate::notify`]), which is what makes long-polling
//! (`GET /job/<id>?wait=1`) and per-job result streaming
//! (`POST /batch {"stream": true}`) possible without parking a thread per
//! waiting client.
//!
//! Routes:
//!
//! * `POST /batch` — body `{"jobs": [{"workload": …, "backend": …,
//!   "device": …}, …], "resident": bool, "stream": bool}`; every spec is
//!   validated against the [`crate::registry`] before anything is
//!   enqueued (one bad spec fails the whole batch with `400`, nothing
//!   half-submitted). Workloads and devices come from the server's name
//!   memo ([`Interner`]), which lives as long as the server: a resubmitted
//!   name is one hash lookup, and its jobs carry the memoized
//!   fingerprints, so the engine never re-hashes the Hamiltonian. With
//!   `"resident": true` the batch routes through the process-wide
//!   [`RegionScheduler`]: compatible jobs are packed onto disjoint
//!   regions of their device and each result's `region` field lists the
//!   physical qubits it occupies; regions carved for it
//!   stay alive for the next batch, repeat-shape traffic is served from
//!   the free-list and the resident artifact cache without carving, and
//!   contended regions queue jobs FIFO rather than failing over
//!   whole-chip (`GET /regions` shows the live free-list). Plain and
//!   region batches share one completion sink: the pool worker that
//!   answers a job lands its record and wakes its waiters, so no batch
//!   spawns a thread. Returns
//!   `{"job_ids": [...]}` — or, with `"stream": true`, a chunked
//!   transfer-encoding response whose first frame is the `job_ids`
//!   record and whose following frames are the full per-job result
//!   records, pushed the moment each job finishes (bit-identical to what
//!   `GET /job/<id>` returns for the same job).
//! * `GET /job/<id>` — `{"status": "pending"}` while compiling, else the
//!   full result record (stats, cache provenance, a `stats_digest` for
//!   bit-exactness checks, and the gate list length; `?qasm=1` embeds the
//!   OpenQASM text). With `?wait=1` the reactor parks the request
//!   instead of answering `pending`: the response is sent the moment the
//!   job completes, or after `?wait_ms=` (capped by
//!   [`ServerConfig::wait_timeout`]) with the usual pending record as the
//!   timeout fallback — so clients long-poll instead of busy-polling.
//! * `DELETE /job/<id>` — drops the record; a deleted pending job is
//!   compiled (results are cached) but never re-enters the table.
//! * `GET /healthz` — cheap liveness: `{"inflight": …, "connections": …}`
//!   from two atomics, no engine or cache locks, for load balancers.
//! * `GET /stats` — engine sizing, per-tier cache counters, job counts and
//!   the name memo's counters (`registry`: hits, builds, evictions, terms).
//! * `GET /metrics` — Prometheus text exposition of the process-wide
//!   registry (engine counters, per-stage histograms, HTTP series, the
//!   front-end's connection/backpressure series:
//!   `tetris_http_connections`, `tetris_http_accepted_total`,
//!   `tetris_http_shed_total{reason}`, `tetris_longpoll_waiters`, the
//!   process's `tetris_threads`, and the memo's
//!   `tetris_registry_memo_{hits,builds,evictions}_total` and
//!   `tetris_registry_memo_terms`), with cache, memo and job-table series
//!   synced from the same snapshot `/stats` reads, so the two views agree
//!   at scrape time.
//! * `GET /job/<id>?trace=1` — adds the job's per-stage wall-time
//!   timeline to the result record.
//! * `GET /trace` — the most recent completed jobs from the in-process
//!   trace ring (`?n=<count>`, default 100).
//! * `GET /regions` — the resident-region free-list, per device: every
//!   carved region with its physical qubits, busy flag, queue depth and
//!   jobs-served count, plus the scheduler's cumulative carve/defrag
//!   counters.
//!
//! Admission control: a batch that would push in-flight jobs past
//! [`ServerConfig::max_inflight`] is shed with `503` + `Retry-After: 1`
//! before anything is enqueued — checked once before any registry build,
//! so an oversized batch costs no construction, and again atomically when
//! the slots are claimed — and connections past
//! [`ServerConfig::max_connections`] are answered `503` and closed at
//! accept time. Both shed paths count into
//! `tetris_http_shed_total{reason=…}`.
//!
//! Every request is measured: an in-flight gauge, per-route/status-class
//! counters (`tetris_http_requests_total`) and per-route latency
//! histograms (`tetris_http_request_seconds`). With
//! [`ServerConfig::trace_log`] set, every completed job appends one JSONL
//! record to the given file.
//!
//! Completed jobs are evicted after [`ServerConfig::job_ttl`]. The sweep
//! is amortized: the reactor runs it on a timer tick, and only the cold
//! observability paths (`/stats`, `/metrics`, `DELETE`) still sweep
//! inline so their counts are exact at read time — the hot `GET /job` and
//! `POST /batch` paths no longer pay an O(table) scan per request
//! (pending jobs are never swept — the worker still owes them a result).

use crate::conn::Request;
use crate::json::{escape, parse, Escaped, Value};
use crate::notify::Notifier;
use crate::registry::{Interner, MemoStats};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tetris_engine::{CompileJob, Engine, EngineConfig, JobResult, RegionScheduler};
use tetris_obs::trace::{self, StageTimings, TraceEvent};

/// Per-connection idle timeout: a client that sends nothing for this long
/// between requests is closed instead of holding a socket forever. Doubles
/// as the graceful-drain deadline.
pub(crate) const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Server-side policy knobs (everything not owned by the engine).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a completed job stays queryable before eviction. Pending
    /// jobs are exempt.
    pub job_ttl: Duration,
    /// When set, every completed job appends one JSONL record (timestamp,
    /// labels, engine wall, per-stage timeline) to this file. Write
    /// failures are counted (`tetris_trace_log_errors_total`) and
    /// swallowed — tracing must never fail a compile.
    pub trace_log: Option<std::path::PathBuf>,
    /// Live-socket cap: connections accepted past it are answered `503 +
    /// Retry-After` and closed immediately (`tetris serve
    /// --max-connections`).
    pub max_connections: usize,
    /// In-flight job cap: a batch that would exceed it is shed with `503 +
    /// Retry-After` before anything is enqueued (`tetris serve
    /// --max-inflight`).
    pub max_inflight: usize,
    /// Upper bound on a long-poll park (`GET /job/<id>?wait=1`); a
    /// client's `wait_ms` is capped by it (`tetris serve
    /// --wait-timeout-ms`). On timeout the usual pending record is sent.
    pub wait_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            job_ttl: Duration::from_secs(15 * 60),
            trace_log: None,
            max_connections: 1024,
            max_inflight: 4096,
            wait_timeout: Duration::from_secs(30),
        }
    }
}

/// One job's lifecycle, as visible through `GET /job/<id>`.
enum JobRecord {
    /// Submitted, not yet finished.
    Pending {
        /// The job's workload label.
        name: String,
    },
    /// Finished (successfully or with a per-job backend error).
    Done {
        /// The result record.
        result: Box<JobResult>,
        /// Completion time — the TTL clock.
        done_at: Instant,
    },
}

/// State shared by every connection: the engine and the job table.
pub struct AppState {
    engine: Engine,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_id: AtomicU64,
    pub(crate) config: ServerConfig,
    /// Completed records dropped by the TTL sweep (not client `DELETE`s).
    expired_total: AtomicU64,
    /// The resident-region scheduler: one free-list per device, shared by
    /// every `"resident": true` batch for the life of the process.
    scheduler: RegionScheduler,
    /// Job-completion push channel into the reactor.
    pub(crate) notifier: Notifier,
    /// Jobs submitted and not yet finished — the admission-control gauge.
    pub(crate) inflight_jobs: AtomicU64,
    /// Live sockets (`tetris_http_connections`).
    pub(crate) connections: AtomicU64,
    /// Connections ever accepted (`tetris_http_accepted_total`).
    pub(crate) accepted_total: AtomicU64,
    /// Connections shed at the [`ServerConfig::max_connections`] cap.
    pub(crate) shed_connections: AtomicU64,
    /// Batches shed at the [`ServerConfig::max_inflight`] cap.
    pub(crate) shed_inflight: AtomicU64,
    /// Requests currently parked in a long-poll.
    pub(crate) longpoll_waiters: AtomicU64,
    /// The name memo: every workload and device a batch names, built once
    /// per server and shared by later batches.
    registry: Mutex<Interner>,
}

impl AppState {
    fn new(engine: Engine, config: ServerConfig) -> Self {
        AppState {
            engine,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            config,
            expired_total: AtomicU64::new(0),
            scheduler: RegionScheduler::with_default_config(),
            notifier: Notifier::new(),
            inflight_jobs: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            accepted_total: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            shed_inflight: AtomicU64::new(0),
            longpoll_waiters: AtomicU64::new(0),
            registry: Mutex::new(Interner::new()),
        }
    }

    /// The engine (for tests and the CLI to inspect counters).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The name memo's counters (the `registry` object of `GET /stats`).
    pub fn registry_stats(&self) -> MemoStats {
        self.registry.lock().expect("registry lock").stats()
    }

    /// The resident-region scheduler (for tests to inspect counters).
    pub fn scheduler(&self) -> &RegionScheduler {
        &self.scheduler
    }

    /// A control handle for requesting a graceful drain.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            notifier: self.notifier.clone(),
        }
    }

    /// Raw job-table size, no sweep — lets tests observe that the
    /// amortized background sweep evicts expired records on its own,
    /// without any HTTP access triggering one.
    pub fn job_count(&self) -> usize {
        self.jobs.lock().expect("job table lock").len()
    }

    /// Live sockets the front-end currently owns (the
    /// `tetris_http_connections` gauge) — for benches sampling peak
    /// concurrency.
    pub fn live_connections(&self) -> u64 {
        self.connections.load(Ordering::Acquire)
    }

    /// Admission counters: `(accepted, shed_connections, shed_inflight)`.
    pub fn admission_counters(&self) -> (u64, u64, u64) {
        (
            self.accepted_total.load(Ordering::Relaxed),
            self.shed_connections.load(Ordering::Relaxed),
            self.shed_inflight.load(Ordering::Relaxed),
        )
    }

    /// Drops every `Done` record older than the TTL. Runs on the reactor's
    /// timer tick and inline on the cold `/stats` / `/metrics` / `DELETE`
    /// paths, so those counts are exact while hot `GET /job` traffic never
    /// pays an O(table) scan.
    fn sweep_expired(&self, table: &mut HashMap<u64, JobRecord>) {
        let now = Instant::now();
        let before = table.len();
        table.retain(|_, record| match record {
            JobRecord::Pending { .. } => true,
            JobRecord::Done { done_at, .. } => now.duration_since(*done_at) < self.config.job_ttl,
        });
        let dropped = (before - table.len()) as u64;
        if dropped > 0 {
            self.expired_total.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// One amortized sweep pass (the reactor's timer tick).
    pub(crate) fn sweep(&self) {
        let mut table = self.jobs.lock().expect("job table lock");
        self.sweep_expired(&mut table);
    }

    /// How often the amortized sweep should run so an expired record
    /// vanishes well within one extra TTL.
    pub(crate) fn sweep_interval(&self) -> Duration {
        (self.config.job_ttl / 2)
            .min(Duration::from_secs(1))
            .max(Duration::from_millis(10))
    }
}

/// A cloneable control handle: lets the CLI (or a test) ask a running
/// server to drain gracefully — stop accepting, finish in-flight
/// responses, long-polls and streams, then exit the accept loop.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    notifier: Notifier,
}

impl ServerHandle {
    /// Requests a graceful drain: the reactor stops accepting, finishes
    /// what is in flight, and returns from its loop.
    pub fn shutdown(&self) {
        self.notifier.shutdown();
    }
}

/// The compilation service: a bound listener plus the shared state.
pub struct CompileServer {
    listener: TcpListener,
    state: Arc<AppState>,
    addr: SocketAddr,
}

impl CompileServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and spawns the
    /// engine with the default [`ServerConfig`]. The server does not accept
    /// connections until [`serve_forever`](CompileServer::serve_forever) or
    /// [`serve_background`](CompileServer::serve_background) is called.
    pub fn bind(addr: &str, engine: EngineConfig) -> std::io::Result<CompileServer> {
        CompileServer::bind_with(addr, engine, ServerConfig::default())
    }

    /// [`bind`](CompileServer::bind) with explicit server policy.
    pub fn bind_with(
        addr: &str,
        engine: EngineConfig,
        config: ServerConfig,
    ) -> std::io::Result<CompileServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(CompileServer {
            listener,
            state: Arc::new(AppState::new(Engine::new(engine), config)),
            addr,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    pub fn state(&self) -> Arc<AppState> {
        self.state.clone()
    }

    /// A control handle for requesting a graceful drain.
    pub fn handle(&self) -> ServerHandle {
        self.state.handle()
    }

    /// Runs the reactor on the calling thread (the CLI path). The reactor
    /// returns only after a graceful drain, at which point the process
    /// exits cleanly.
    pub fn serve_forever(self) -> ! {
        crate::reactor::run(self.listener, self.state);
        std::process::exit(0)
    }

    /// Runs the reactor on a detached background thread (the test path).
    /// The thread lives until the process exits or
    /// [`ServerHandle::shutdown`] drains it.
    pub fn serve_background(self) -> Arc<AppState> {
        let CompileServer {
            listener, state, ..
        } = self;
        let ret = state.clone();
        std::thread::spawn(move || crate::reactor::run(listener, state));
        ret
    }
}

// ------------------------------------------------------------- wire level

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Response payload: every handler speaks JSON except `/metrics`, whose
/// Prometheus exposition is plain text.
pub(crate) enum Payload {
    Json(String),
    Text(String),
}

impl Payload {
    fn body(&self) -> &str {
        match self {
            Payload::Json(s) | Payload::Text(s) => s,
        }
    }

    fn content_type(&self) -> &'static str {
        match self {
            Payload::Json(_) => "application/json",
            Payload::Text(_) => "text/plain; version=0.0.4",
        }
    }
}

/// Serializes one complete response. `503` responses carry
/// `Retry-After: 1` so load-shed clients know to back off, not give up.
pub(crate) fn render_response(code: u16, payload: &Payload, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry_after = if code == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let body = payload.body();
    // Sized up front: a served QASM body runs to megabytes.
    let mut out = String::with_capacity(body.len() + 160);
    let _ = write!(
        out,
        "HTTP/1.1 {code} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n",
        status_text(code),
        payload.content_type(),
        body.len(),
    );
    out.push_str(body);
    out.into_bytes()
}

/// The response head of a streaming `POST /batch`: chunked
/// transfer-encoding, one frame per record, keep-alive preserved so the
/// socket is reusable after the terminating chunk.
pub(crate) fn render_stream_head(keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n",
    )
    .into_bytes()
}

/// One chunked transfer-encoding frame around a record.
pub(crate) fn chunk_frame(frame: &str) -> Vec<u8> {
    format!("{:x}\r\n{frame}\r\n", frame.len()).into_bytes()
}

/// The zero-length chunk ending a stream.
pub(crate) const STREAM_END: &[u8] = b"0\r\n\r\n";

pub(crate) fn error_body(message: &str) -> String {
    format!("{{ \"error\": \"{}\" }}\n", escape(message))
}

/// Normalizes a request path into a bounded `route` label: per-id paths
/// collapse to their prefix so metric cardinality stays fixed no matter
/// what clients request.
pub(crate) fn route_label(path: &str) -> &'static str {
    match path {
        "/batch" => "/batch",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/trace" => "/trace",
        "/regions" => "/regions",
        p if p.starts_with("/job/") => "/job",
        _ => "other",
    }
}

/// Records one finished request: status-class counter and latency
/// histogram, both labeled by normalized route.
pub(crate) fn record_http(route: &'static str, code: u16, secs: f64) {
    if !tetris_obs::enabled() {
        return;
    }
    let class = match code {
        200..=299 => "2xx",
        300..=499 => "4xx",
        _ => "5xx",
    };
    let g = tetris_obs::global();
    g.counter(
        "tetris_http_requests_total",
        &[("route", route), ("class", class)],
    )
    .inc();
    g.histogram("tetris_http_request_seconds", &[("route", route)])
        .observe(secs);
}

/// What a routed request wants from the connection layer.
pub(crate) enum Outcome {
    /// A complete response, ready to send.
    Ready(u16, Payload),
    /// Park the connection until job `id` completes or `wait` elapses,
    /// then answer with [`job_response`].
    LongPoll {
        id: u64,
        wait: Duration,
        with_qasm: bool,
        with_trace: bool,
    },
    /// Open a chunked stream and push one frame per job as it completes.
    Stream(Vec<u64>),
}

impl Outcome {
    fn ready(code: u16, body: String) -> Outcome {
        Outcome::Ready(code, Payload::Json(body))
    }
}

/// Routes one request to its handler.
pub(crate) fn route(request: &Request, state: &Arc<AppState>) -> Outcome {
    // Resolve the path first, then the method: an unknown path is 404 for
    // every method, a known path with the wrong method is 405.
    let method = request.method.as_str();
    match request.path.as_str() {
        "/batch" => match method {
            "POST" => post_batch(state, &request.body),
            _ => Outcome::ready(405, error_body("use POST /batch")),
        },
        "/stats" => match method {
            "GET" => Outcome::ready(200, stats_body(state)),
            _ => Outcome::ready(405, error_body("use GET /stats")),
        },
        "/metrics" => match method {
            "GET" => Outcome::Ready(200, Payload::Text(metrics_body(state))),
            _ => Outcome::ready(405, error_body("use GET /metrics")),
        },
        "/healthz" => match method {
            "GET" => Outcome::ready(200, healthz_body(state)),
            _ => Outcome::ready(405, error_body("use GET /healthz")),
        },
        "/trace" => match method {
            "GET" => Outcome::ready(200, trace_body(&request.query)),
            _ => Outcome::ready(405, error_body("use GET /trace")),
        },
        "/regions" => match method {
            "GET" => Outcome::ready(200, regions_body(state)),
            _ => Outcome::ready(405, error_body("use GET /regions")),
        },
        path => {
            if let Some(id) = path.strip_prefix("/job/") {
                match method {
                    "GET" => get_job(state, id, &request.query),
                    "DELETE" => {
                        let (code, body) = delete_job(state, id);
                        Outcome::ready(code, body)
                    }
                    _ => Outcome::ready(405, error_body("use GET or DELETE /job/<id>")),
                }
            } else {
                Outcome::ready(404, error_body("no such route"))
            }
        }
    }
}

// --------------------------------------------------------------- handlers

fn post_batch(state: &Arc<AppState>, body: &[u8]) -> Outcome {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Outcome::ready(400, error_body("body is not UTF-8")),
    };
    let doc = match parse(text) {
        Ok(v) => v,
        Err(e) => return Outcome::ready(400, error_body(&format!("bad JSON: {e}"))),
    };
    let Some(specs) = doc.get("jobs").and_then(Value::as_arr) else {
        return Outcome::ready(400, error_body("missing `jobs` array"));
    };
    if specs.is_empty() {
        return Outcome::ready(400, error_body("empty batch"));
    }
    let flag = |key: &str| match doc.get(key) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or(()),
    };
    if doc.get("shard").is_some() {
        return Outcome::ready(
            400,
            error_body("`shard` is not supported: use `\"resident\": true` for region batches"),
        );
    }
    let Ok(resident) = flag("resident") else {
        return Outcome::ready(400, error_body("`resident` must be a boolean"));
    };
    let Ok(stream) = flag("stream") else {
        return Outcome::ready(400, error_body("`stream` must be a boolean"));
    };

    // Shed a batch that cannot fit before paying for any registry build;
    // the atomic claim below stays authoritative.
    let n = specs.len() as u64;
    if state.inflight_jobs.load(Ordering::Acquire) + n > state.config.max_inflight as u64 {
        return shed_inflight(state);
    }

    // Validate and build everything before touching the job table: a batch
    // either enqueues whole or not at all.
    let mut registry = state.registry.lock().expect("registry lock");
    let mut jobs = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let field = |key: &str| spec.get(key).and_then(Value::as_str);
        let Some(workload) = field("workload") else {
            return Outcome::ready(400, error_body(&format!("job {i}: missing `workload`")));
        };
        let Some(backend_name) = field("backend") else {
            return Outcome::ready(400, error_body(&format!("job {i}: missing `backend`")));
        };
        let device_name = field("device").unwrap_or("heavy-hex");

        let Some(backend) = crate::registry::backend(backend_name) else {
            return Outcome::ready(
                400,
                error_body(&format!("job {i}: unknown backend `{backend_name}`")),
            );
        };
        let Some(graph) = registry.device_entry(device_name) else {
            return Outcome::ready(
                400,
                error_body(&format!("job {i}: unknown device `{device_name}`")),
            );
        };
        let Some(ham) = registry.workload_entry(workload) else {
            return Outcome::ready(
                400,
                error_body(&format!("job {i}: unknown workload `{workload}`")),
            );
        };
        jobs.push(CompileJob::with_fingerprints(workload, backend, ham, graph));
    }
    drop(registry);

    // Admission control: claim in-flight slots for the whole batch or shed
    // it whole before anything is enqueued.
    let claimed = state.inflight_jobs.fetch_add(n, Ordering::AcqRel) + n;
    if claimed > state.config.max_inflight as u64 {
        state.inflight_jobs.fetch_sub(n, Ordering::AcqRel);
        return shed_inflight(state);
    }

    // Reserve ids and record pending rows (no sweep here — this is a hot
    // path; the amortized tick sweeps).
    let first_id = state
        .next_id
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    let ids: Vec<u64> = (0..jobs.len() as u64).map(|k| first_id + k).collect();
    {
        let mut table = state.jobs.lock().expect("job table lock");
        for (id, job) in ids.iter().zip(&jobs) {
            table.insert(
                *id,
                JobRecord::Pending {
                    name: job.name.clone(),
                },
            );
        }
    }

    // One completion sink for plain and region batches: each result lands
    // in the table and wakes its waiters on the pool worker that answered
    // it, so long-polls and stream frames never wait for the slowest
    // sibling, and no batch spawns a thread.
    let sink_state = state.clone();
    let sink_ids = ids.clone();
    let on_result = move |result: JobResult| {
        let id = sink_ids[result.index];
        if let Some(path) = &sink_state.config.trace_log {
            let r = &result;
            let event = trace::event_now(
                r.name.as_str(),
                r.compiler.as_str(),
                r.cached,
                r.error.is_some(),
                r.engine_seconds,
                r.stages,
            );
            append_trace_log(path, &event);
        }
        let done_at = Instant::now();
        {
            let mut table = sink_state.jobs.lock().expect("job table lock");
            // Only fill slots that still exist: a `DELETE`d pending job
            // must not be resurrected into the table (its result still
            // lands in the engine cache).
            if let Some(record) = table.get_mut(&id) {
                *record = JobRecord::Done {
                    result: Box::new(result),
                    done_at,
                };
            }
        }
        sink_state.inflight_jobs.fetch_sub(1, Ordering::AcqRel);
        sink_state.notifier.job_done(id);
    };
    if resident {
        state.scheduler.submit_batch(&state.engine, jobs, on_result);
    } else {
        state.engine.submit_batch(jobs, on_result);
    }

    if stream {
        Outcome::Stream(ids)
    } else {
        Outcome::ready(200, job_ids_body(&ids))
    }
}

/// The `503` of a batch shed at [`ServerConfig::max_inflight`].
fn shed_inflight(state: &AppState) -> Outcome {
    state.shed_inflight.fetch_add(1, Ordering::Relaxed);
    Outcome::ready(
        503,
        error_body("server at capacity: too many in-flight jobs"),
    )
}

/// The `{"job_ids": …}` acknowledgment — a plain batch's whole response,
/// and a streaming batch's first frame.
pub(crate) fn job_ids_body(ids: &[u64]) -> String {
    format!("{{ \"job_ids\": {ids:?} }}\n")
}

/// One trace record: a `--trace-log` line and a `GET /trace` entry.
fn trace_record(e: &TraceEvent) -> String {
    format!(
        "{{ \"unix_ms\": {}, \"name\": \"{}\", \"compiler\": \"{}\", \
         \"cached\": {}, \"error\": {}, \"engine_seconds\": {:.6}, \"stages\": {} }}",
        e.unix_ms,
        escape(&e.job),
        escape(&e.compiler),
        e.cached,
        e.error,
        e.engine_seconds,
        stages_json(&e.stages, &[]),
    )
}

/// Appends `event` to the trace log as one JSONL line. Failures are
/// counted and swallowed — tracing must never fail a compile.
fn append_trace_log(path: &std::path::Path, event: &TraceEvent) {
    let line = trace_record(event) + "\n";
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if written.is_err() {
        tetris_obs::global()
            .counter("tetris_trace_log_errors_total", &[])
            .inc();
    }
}

fn get_job(state: &Arc<AppState>, id: &str, query: &str) -> Outcome {
    let Ok(id) = id.parse::<u64>() else {
        return Outcome::ready(400, error_body("job id must be an integer"));
    };
    // Exact key=value match — `?noqasm=1` must not trigger embedding.
    let with_qasm = query.split('&').any(|kv| kv == "qasm=1");
    let with_trace = query.split('&').any(|kv| kv == "trace=1");
    if query.split('&').any(|kv| kv == "wait=1") {
        let is_pending = {
            let table = state.jobs.lock().expect("job table lock");
            matches!(table.get(&id), Some(JobRecord::Pending { .. }))
        };
        // Park only while pending: if the job completes between this check
        // and the reactor registering the park, the completion notification
        // is already queued and wakes the park on the very next loop turn.
        if is_pending {
            let wait = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("wait_ms="))
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_millis)
                .unwrap_or(state.config.wait_timeout)
                .min(state.config.wait_timeout);
            return Outcome::LongPoll {
                id,
                wait,
                with_qasm,
                with_trace,
            };
        }
    }
    let (code, payload) = job_response(state, id, with_qasm, with_trace);
    Outcome::Ready(code, payload)
}

/// The `GET /job/<id>` response for the record's current state — also the
/// body a woken or timed-out long-poll answers with, so a long-polled
/// result is bit-identical to a polled one.
pub(crate) fn job_response(
    state: &AppState,
    id: u64,
    with_qasm: bool,
    with_trace: bool,
) -> (u16, Payload) {
    // Copy the record out (a JobResult clone is an Arc bump plus a few
    // strings) so QASM serialization never runs under the table lock.
    let record = {
        let table = state.jobs.lock().expect("job table lock");
        match table.get(&id) {
            None => return (404, Payload::Json(error_body(&format!("no job {id}")))),
            Some(JobRecord::Pending { name }) => {
                return (
                    200,
                    Payload::Json(format!(
                        "{{ \"id\": {id}, \"name\": \"{}\", \"status\": \"pending\" }}\n",
                        escape(name)
                    )),
                )
            }
            Some(JobRecord::Done { result, .. }) => (**result).clone(),
        }
    };
    (
        200,
        Payload::Json(job_body(id, &record, with_qasm, with_trace)),
    )
}

/// One streamed frame of a `"stream": true` batch: the exact
/// `GET /job/<id>` body for the completed job, so stream consumers see
/// digests bit-identical to pollers.
pub(crate) fn job_frame(state: &AppState, id: u64) -> String {
    match job_response(state, id, false, false) {
        (_, Payload::Json(body)) | (_, Payload::Text(body)) => body,
    }
}

fn delete_job(state: &AppState, id: &str) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_body("job id must be an integer"));
    };
    let mut table = state.jobs.lock().expect("job table lock");
    state.sweep_expired(&mut table);
    match table.remove(&id) {
        None => (404, error_body(&format!("no job {id}"))),
        Some(record) => {
            let was = match record {
                JobRecord::Pending { .. } => "pending",
                JobRecord::Done { .. } => "done",
            };
            (
                200,
                format!("{{ \"deleted\": {id}, \"was\": \"{was}\" }}\n"),
            )
        }
    }
}

fn job_body(id: u64, r: &JobResult, with_qasm: bool, with_trace: bool) -> String {
    let s = &r.output.stats;
    let with_qasm = with_qasm && r.error.is_none();
    // One allocation for the whole body: a QASM line averages ~15 bytes,
    // and escaping adds 5 (`\u000a`).
    let qasm_bytes = if with_qasm {
        24 * r.output.circuit.len()
    } else {
        0
    };
    let mut body = String::with_capacity(512 + qasm_bytes);
    let _ = write!(
        body,
        "{{ \"id\": {id}, \"status\": \"done\", \"name\": \"{}\", \"compiler\": \"{}\", \
         \"cache_key\": \"{:016x}\", \"cached\": {},",
        escape(&r.name),
        escape(&r.compiler),
        r.cache_key,
        r.cached,
    );
    if let Some(msg) = &r.error {
        let _ = write!(body, " \"error\": \"{}\",", escape(msg));
    }
    if with_qasm {
        body.push_str(" \"qasm\": \"");
        tetris_circuit::qasm::write_qasm(&mut Escaped(&mut body), &r.output.circuit);
        body.push_str("\",");
    }
    // Region jobs report the physical device qubits they were packed onto
    // (global indices, ascending).
    if let Some(region) = &r.region {
        let qubits: Vec<usize> = region.iter_globals().collect();
        let _ = write!(body, " \"region\": {qubits:?},");
    }
    // `?trace=1`: this request's per-stage timeline, with busy/total
    // aggregates (busy excludes queue wait, so it tracks engine_seconds).
    if with_trace {
        let _ = write!(body, " \"trace\": {},", trace_json(&r.stages));
    }
    let _ = writeln!(
        body,
        " \"engine_seconds\": {:.6}, \"stats_digest\": \"{:016x}\", \"gates\": {}, \
         \"cnots\": {}, \"swaps\": {}, \"depth\": {}, \"duration\": {}, \"cancel_ratio\": {:.4} }}",
        r.engine_seconds,
        r.output.stats_digest(),
        r.output.circuit.len(),
        s.total_cnots(),
        s.swaps_final,
        s.metrics.depth,
        s.metrics.duration,
        s.cancel_ratio(),
    );
    body
}

/// `GET /healthz`: liveness from two atomics — no engine, cache or
/// scheduler locks, so load balancers and stress clients can probe
/// without touching the compile path.
fn healthz_body(state: &AppState) -> String {
    format!(
        "{{ \"inflight\": {}, \"connections\": {} }}\n",
        state.inflight_jobs.load(Ordering::Relaxed),
        state.connections.load(Ordering::Relaxed),
    )
}

fn stats_body(state: &AppState) -> String {
    let c = state.engine.cache_stats();
    let s = state.scheduler.stats();
    let m = state.registry_stats();
    let mut table = state.jobs.lock().expect("job table lock");
    state.sweep_expired(&mut table);
    let pending = table
        .values()
        .filter(|r| matches!(r, JobRecord::Pending { .. }))
        .count();
    format!(
        "{{ \"threads\": {}, \"jobs_total\": {}, \"jobs_pending\": {pending}, \
         \"jobs_expired\": {}, \
         \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
         \"disk_hits\": {}, \"disk_misses\": {}, \"disk_stores\": {}, \
         \"disk_store_errors\": {}, \"disk_gc_evictions\": {}, \"disk_purged\": {}, \
         \"hit_ratio\": {:.4}, \"disk_hit_ratio\": {:.4} }}, \
         \"scheduler\": {{ \"carves_performed\": {}, \"carves_skipped\": {}, \
         \"carve_skip_ratio\": {:.4}, \"defrags\": {}, \"displaced\": {}, \
         \"regions_released\": {}, \"resident_regions\": {}, \
         \"resident_qubits\": {}, \"queue_depth\": {} }}, \
         \"registry\": {{ \"hits\": {}, \"builds\": {}, \"evictions\": {}, \"terms\": {} }} }}\n",
        state.engine.threads(),
        table.len(),
        state.expired_total.load(Ordering::Relaxed),
        c.hits,
        c.misses,
        c.evictions,
        c.entries,
        c.disk_hits,
        c.disk_misses,
        c.disk_stores,
        c.disk_store_errors,
        c.disk_gc_evictions,
        c.disk_purged,
        c.hit_ratio(),
        c.disk_hit_ratio(),
        s.carves_performed,
        s.carves_skipped,
        s.carve_skip_ratio(),
        s.defrags,
        s.displaced,
        s.regions_released,
        s.resident_regions,
        s.resident_qubits,
        s.queue_depth,
        m.hits,
        m.builds,
        m.evictions,
        m.terms,
    )
}

/// The process's OS thread count, from `/proc/self/status`.
fn os_threads() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// `GET /metrics`: Prometheus text exposition of the process registry.
/// Pull-model counters owned by the cache, job table and front-end are
/// synced into the registry first, so one scrape agrees with `/stats` and
/// `/healthz` at the same instant.
fn metrics_body(state: &AppState) -> String {
    let g = tetris_obs::global();
    let c = state.engine.cache_stats();
    let mem = ("tier", "memory");
    let dsk = ("tier", "disk");
    g.counter("tetris_cache_lookups_total", &[mem, ("outcome", "hit")])
        .set(c.hits);
    g.counter("tetris_cache_lookups_total", &[mem, ("outcome", "miss")])
        .set(c.misses);
    g.counter("tetris_cache_evictions_total", &[mem])
        .set(c.evictions);
    g.gauge("tetris_cache_entries", &[mem])
        .set(c.entries as i64);
    g.counter("tetris_cache_lookups_total", &[dsk, ("outcome", "hit")])
        .set(c.disk_hits);
    g.counter("tetris_cache_lookups_total", &[dsk, ("outcome", "miss")])
        .set(c.disk_misses);
    g.counter("tetris_cache_stores_total", &[dsk])
        .set(c.disk_stores);
    g.counter("tetris_cache_store_errors_total", &[dsk])
        .set(c.disk_store_errors);
    g.counter("tetris_cache_gc_evictions_total", &[dsk])
        .set(c.disk_gc_evictions);
    g.counter("tetris_cache_purged_total", &[dsk])
        .set(c.disk_purged);
    let s = state.scheduler.stats();
    g.counter("tetris_carves_performed_total", &[])
        .set(s.carves_performed);
    g.counter("tetris_carves_skipped_total", &[])
        .set(s.carves_skipped);
    g.counter("tetris_defrags_total", &[]).set(s.defrags);
    g.counter("tetris_displaced_tickets_total", &[])
        .set(s.displaced);
    g.counter("tetris_regions_released_total", &[])
        .set(s.regions_released);
    // Re-sync the per-device residency gauges from the live free-list, so
    // a scrape agrees with `GET /regions` even if the scheduler's own
    // pushes were disabled when the last batch ran.
    for d in state.scheduler.snapshot() {
        let device: &str = &d.device;
        g.gauge("tetris_region_occupancy", &[("device", device)])
            .set(d.resident_qubits as i64);
        g.gauge("tetris_region_queue_depth", &[("device", device)])
            .set(d.regions.iter().map(|r| r.queue_depth as i64).sum());
    }
    let (rows_computed, row_hits) = tetris_topology::graph::global_row_stats();
    g.counter("tetris_dist_rows_computed_total", &[])
        .set(rows_computed);
    g.counter("tetris_dist_row_hits_total", &[]).set(row_hits);
    // Front-end connection/backpressure series, re-synced at scrape like
    // the scheduler gauges (zero-valued shed counters still render, so
    // dashboards and CI can assert their presence before any shedding).
    g.gauge("tetris_http_connections", &[])
        .set(state.connections.load(Ordering::Relaxed) as i64);
    g.counter("tetris_http_accepted_total", &[])
        .set(state.accepted_total.load(Ordering::Relaxed));
    g.counter("tetris_http_shed_total", &[("reason", "connections")])
        .set(state.shed_connections.load(Ordering::Relaxed));
    g.counter("tetris_http_shed_total", &[("reason", "inflight")])
        .set(state.shed_inflight.load(Ordering::Relaxed));
    g.gauge("tetris_longpoll_waiters", &[])
        .set(state.longpoll_waiters.load(Ordering::Relaxed) as i64);
    if let Some(threads) = os_threads() {
        g.gauge("tetris_threads", &[]).set(threads);
    }
    let m = state.registry_stats();
    g.counter("tetris_registry_memo_hits_total", &[])
        .set(m.hits);
    g.counter("tetris_registry_memo_builds_total", &[])
        .set(m.builds);
    g.counter("tetris_registry_memo_evictions_total", &[])
        .set(m.evictions);
    g.gauge("tetris_registry_memo_terms", &[])
        .set(m.terms as i64);
    g.gauge("tetris_server_jobs_inflight", &[])
        .set(state.inflight_jobs.load(Ordering::Relaxed) as i64);
    let (jobs_total, pending) = {
        let mut table = state.jobs.lock().expect("job table lock");
        state.sweep_expired(&mut table);
        let pending = table
            .values()
            .filter(|r| matches!(r, JobRecord::Pending { .. }))
            .count();
        (table.len(), pending)
    };
    g.gauge("tetris_server_jobs", &[]).set(jobs_total as i64);
    g.gauge("tetris_server_jobs_pending", &[])
        .set(pending as i64);
    g.counter("tetris_server_jobs_expired_total", &[])
        .set(state.expired_total.load(Ordering::Relaxed));
    g.render()
}

/// `GET /trace`: the newest `?n=` completed jobs (default 100) from the
/// in-process trace ring, oldest first.
fn trace_body(query: &str) -> String {
    let n = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(100);
    let entries: Vec<String> = trace::recent(n).iter().map(trace_record).collect();
    format!("{{ \"events\": [{}] }}\n", entries.join(", "))
}

/// `GET /regions`: the resident-region free-list per device, plus the
/// scheduler's cumulative counters — the live view of the carve →
/// resident → queue → defrag → release lifecycle.
fn regions_body(state: &AppState) -> String {
    let s = state.scheduler.stats();
    let devices: Vec<String> = state
        .scheduler
        .snapshot()
        .iter()
        .map(|d| {
            let regions: Vec<String> = d
                .regions
                .iter()
                .map(|r| {
                    format!(
                        "{{ \"id\": {}, \"qubits\": {:?}, \"busy\": {}, \
                         \"queue_depth\": {}, \"jobs_served\": {} }}",
                        r.id, r.qubits, r.busy, r.queue_depth, r.jobs_served,
                    )
                })
                .collect();
            format!(
                "{{ \"device\": \"{}\", \"device_qubits\": {}, \
                 \"resident_qubits\": {}, \"regions\": [{}] }}",
                escape(&d.device),
                d.device_qubits,
                d.resident_qubits,
                regions.join(", "),
            )
        })
        .collect();
    format!(
        "{{ \"carves_performed\": {}, \"carves_skipped\": {}, \
         \"carve_skip_ratio\": {:.4}, \"defrags\": {}, \"displaced\": {}, \
         \"regions_released\": {}, \"devices\": [{}] }}\n",
        s.carves_performed,
        s.carves_skipped,
        s.carve_skip_ratio(),
        s.defrags,
        s.displaced,
        s.regions_released,
        devices.join(", "),
    )
}

/// Renders a stage timeline as a JSON object of its nonzero stages,
/// followed by the `extra` members.
fn stages_json(stages: &StageTimings, extra: &[(&str, f64)]) -> String {
    let entries: Vec<String> = stages
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(stage, secs)| (stage.name(), secs))
        .chain(extra.iter().copied())
        .map(|(key, secs)| format!("\"{key}\": {secs:.9}"))
        .collect();
    format!("{{ {} }}", entries.join(", "))
}

/// [`stages_json`] plus busy/total aggregates: `busy_seconds` excludes
/// queue wait, so it tracks the job's `engine_seconds`.
fn trace_json(stages: &StageTimings) -> String {
    let aggregates = [
        ("busy_seconds", stages.busy_total()),
        ("total_seconds", stages.total()),
    ];
    stages_json(stages, &aggregates)
}

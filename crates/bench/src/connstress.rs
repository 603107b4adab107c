//! Connection-stress bench: the reactor front-end under a storm of
//! concurrent clients.
//!
//! The server runs in-process on an ephemeral port. Clients are an even
//! mix of the two asynchronous styles: streaming clients (`POST /batch
//! {"stream": true}` over pre-seeded cache hits, reading chunked frames)
//! and long-poll clients parking on one shared *uncached* anchor compile
//! (`GET /job/<id>?wait=1`) that is submitted just before burst release —
//! so completion wakes half the storm at once. Connections ramp in over
//! ~100 ms and are *held open* until every client is connected (staying
//! under the kernel's fixed listen backlog — a simultaneous SYN storm
//! would measure TCP retransmission timers, not the front-end), then a
//! barrier releases all requests at once: the measured window is a
//! synchronized request burst across every open socket.
//!
//! The paper's service framing (batch compilation behind a shared server)
//! is what makes this matter: many clients await one shared compile, and
//! a waiting client must cost a buffer, not a thread. The storm is gated
//! on absolute numbers — every client served, nothing shed, every socket
//! open at once — plus two independent references taken with no server
//! and no cache: the served digests must equal `CompileJob::run`'s, and
//! the storm wall is reported over one direct compile of the anchor.

use crate::suite::reference;
use std::collections::BTreeSet;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use tetris_engine::{CompileJob, EngineConfig};
use tetris_server::json::Value;
use tetris_server::{client, registry, AppState, CompileServer, ServerConfig};

/// A job spec by wire name: `(workload, backend, device)`.
type Spec = (&'static str, &'static str, &'static str);

/// The streaming clients' job specs — small, fast workloads through the
/// server registry, pre-seeded so their frames push immediately; distinct
/// so digests cover more than one artifact.
const SPECS: [Spec; 2] = [
    ("REG3-8-s1", "maxcancel", "ring-9"),
    ("REG3-10-s2", "maxcancel", "ring-11"),
];

/// The anchor job every long-poll client waits on: one *uncached* compile
/// submitted just before burst release, so half the storm parks on a
/// genuinely in-flight job and is woken en masse at completion — the
/// service scenario (many clients awaiting a shared compile) the push
/// model exists for.
const ANCHOR_SPEC: Spec = ("UCC-28", "tetris", "heavy-hex");

/// The anchor batch is submitted while every client is still parked at
/// the burst barrier, so after the two pre-seeded jobs its id is
/// deterministically 3 on every fresh server.
const ANCHOR_ID: u64 = 3;

/// A `POST /batch` body for `specs`.
fn batch_body(specs: &[Spec], stream: bool) -> String {
    let jobs: Vec<String> = specs
        .iter()
        .map(|(w, b, d)| format!(r#"{{"workload": "{w}", "backend": "{b}", "device": "{d}"}}"#))
        .collect();
    format!(r#"{{ "jobs": [{}], "stream": {stream} }}"#, jobs.join(", "))
}

/// Compiles `spec` once on the calling thread through the server's
/// registry, with no server, pool or cache: returns the `stats_digest` as
/// the wire renders it and the compile's wall seconds.
fn compile_direct((workload, backend, device): Spec) -> (String, f64) {
    let job = CompileJob::new(
        workload,
        registry::backend(backend).expect("registry backend"),
        Arc::new(registry::workload(workload).expect("registry workload")),
        Arc::new(registry::device(device).expect("registry device")),
    );
    let t0 = Instant::now();
    let output = job.run();
    let secs = t0.elapsed().as_secs_f64();
    (format!("{:016x}", output.stats_digest()), secs)
}

/// What one client observed, all in seconds from the synchronized request
/// burst (every socket is already connected when the clock starts).
struct ClientSample {
    /// Burst release to first response byte — dispatch latency with every
    /// other socket demanding service at the same instant.
    first_byte: f64,
    /// Burst release to last expected byte read.
    complete: f64,
    /// `stats_digest` values read from the responses.
    digests: Vec<String>,
}

/// One storm against the reactor, with its independent references.
#[derive(Debug, Clone)]
pub struct ConnStress {
    /// Concurrent clients driven at it.
    pub connections: usize,
    /// Clients that finished their full exchange.
    pub completed: usize,
    /// Clients that errored (refused, timed out, short read).
    pub errors: usize,
    /// Peak of the server's live-connection gauge during the storm.
    pub peak_connections: u64,
    /// Connections the server shed at its caps (must be 0 — the caps are
    /// sized above the storm).
    pub shed: u64,
    /// Barrier release to last client done.
    pub wall_seconds: f64,
    /// Connect-to-first-byte percentiles (seconds).
    pub first_byte_p50: f64,
    /// 95th percentile of connect-to-first-byte.
    pub first_byte_p95: f64,
    /// 99th percentile of connect-to-first-byte.
    pub first_byte_p99: f64,
    /// Connect-to-completion percentiles (seconds).
    pub complete_p50: f64,
    /// 95th percentile of connect-to-completion.
    pub complete_p95: f64,
    /// 99th percentile of connect-to-completion.
    pub complete_p99: f64,
    /// Every distinct `stats_digest` the clients read.
    pub digests: BTreeSet<String>,
    /// The independent reference: `CompileJob::run`'s digest for every
    /// spec the storm serves, compiled with no server and no cache.
    pub reference_digests: BTreeSet<String>,
    /// One direct compile of the anchor (no server, no cache), run before
    /// the storm — the wall gate's denominator.
    pub anchor_compile_seconds: f64,
}

impl ConnStress {
    /// Storm wall over one direct anchor compile: the anchor is on every
    /// long-poll client's critical path, so ~1 means serving the storm
    /// cost little beyond the compile it waited on.
    pub fn wall_ratio(&self) -> f64 {
        if self.anchor_compile_seconds <= 0.0 {
            return 0.0;
        }
        self.wall_seconds / self.anchor_compile_seconds
    }

    /// Whether the storm served exactly the reference artifacts.
    pub fn digest_match(&self) -> bool {
        !self.digests.is_empty() && self.digests == self.reference_digests
    }

    /// The gate, against the committed `connections.reference.json`: the
    /// reactor absorbs the full 400-client storm (every client served,
    /// nothing shed, every socket open at once), serves exactly the
    /// digests of direct compiles, and keeps its wall within 2x the
    /// reference's ratio over one direct anchor compile.
    pub fn check(&self) -> Vec<String> {
        let reference = reference(include_str!("../connections.reference.json"));
        let (n, ref_n) = (self.connections, reference("connections"));
        let (done, errors, peak) = (self.completed, self.errors, self.peak_connections);
        let ratio = self.wall_ratio();
        let limit = f64::max(2.0, 2.0 * reference("wall_ratio"));
        let reference_storm = n as f64 >= ref_n && ref_n == 400.0;
        let served = done == n && errors == 0;
        let mut failures = Vec::new();
        let mut require = |holds: bool, what: String| {
            if !holds {
                failures.push(format!("connections: {what}"));
            }
        };
        require(reference_storm, format!("{n} clients, reference {ref_n}"));
        require(served, format!("{done} of {n} served, {errors} errors"));
        require(self.shed == 0, format!("the reactor shed {}", self.shed));
        require(peak >= n as u64, format!("peak {peak} sockets < {n}"));
        require(self.digest_match(), "served digests differ".into());
        require(
            ratio <= limit,
            format!("wall ratio {ratio:.2} > {limit:.2}"),
        );
        failures
    }
}

/// The `p`-th percentile of an ascending slice (nearest rank; 0 when
/// empty).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    // Under a 400-way connect storm individual connects can be refused
    // transiently while the accept queue drains — retry briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(60)))?;
                s.set_write_timeout(Some(Duration::from_secs(60)))?;
                return Ok(s);
            }
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

/// The `stats_digest` of a done job record.
fn digest(record: &Value) -> io::Result<String> {
    let digest = record.get("stats_digest").and_then(Value::as_str);
    digest
        .map(str::to_string)
        .ok_or_else(|| io::Error::other("record without stats_digest"))
}

/// A streaming client: one batch of both specs with `"stream": true`,
/// results read as chunked frames off the (already connected) socket.
fn stream_client(stream: &mut TcpStream) -> io::Result<ClientSample> {
    let t0 = Instant::now();
    client::write_request(stream, "POST", "/batch", &batch_body(&SPECS, true), true)?;
    let head = client::read_head(stream)?;
    if head.status != 200 {
        return Err(io::Error::other(format!("stream status {}", head.status)));
    }
    if !head.is_chunked() {
        return Err(io::Error::other("stream reply is not chunked"));
    }
    client::read_chunk(stream)?.ok_or_else(|| io::Error::other("missing ack frame"))?;
    let mut digests = Vec::new();
    while let Some(frame) = client::read_chunk(stream)? {
        digests.push(digest(&client::json(&frame)?)?);
    }
    if digests.len() != 2 {
        return Err(io::Error::other("short stream"));
    }
    Ok(ClientSample {
        first_byte: head.first_byte.duration_since(t0).as_secs_f64(),
        complete: t0.elapsed().as_secs_f64(),
        digests,
    })
}

/// A long-poll client: one quick `/healthz` round trip (the first-byte
/// responsiveness probe), then a park on the shared anchor job until its
/// completion wakes the socket.
fn longpoll_client(stream: &mut TcpStream) -> io::Result<ClientSample> {
    let t0 = Instant::now();
    let health = client::round_trip(stream, "GET", "/healthz", "", true)?;
    if health.head.status != 200 {
        return Err(io::Error::other(format!(
            "healthz status {}",
            health.head.status
        )));
    }
    let digest = digest(&client::await_job(stream, ANCHOR_ID)?)?;
    Ok(ClientSample {
        first_byte: health.head.first_byte.duration_since(t0).as_secs_f64(),
        complete: t0.elapsed().as_secs_f64(),
        digests: vec![digest],
    })
}

/// Compiles both specs once and waits for completion, so the storm's jobs
/// are all cache hits.
fn preseed(addr: &str) {
    let seed = client::request(addr, "POST", "/batch", &batch_body(&SPECS, false));
    let status = seed.expect("seed batch").head.status;
    assert_eq!(status, 200, "seed batch must be admitted");
    let mut socket = client::connect(addr).expect("seed connect");
    for id in [1, 2] {
        client::await_job(&mut socket, id).expect("seed job");
    }
}

/// Runs one storm of `connections` (at least 4) mixed clients at a
/// freshly started server, after taking the independent references.
pub fn run_conn_stress(connections: usize, threads: usize) -> ConnStress {
    let connections = connections.max(4);
    let (anchor_digest, anchor_compile_seconds) = compile_direct(ANCHOR_SPEC);
    let mut reference_digests: BTreeSet<String> =
        SPECS.iter().map(|&spec| compile_direct(spec).0).collect();
    reference_digests.insert(anchor_digest);

    let server = CompileServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            threads,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        },
        ServerConfig {
            // Caps sized above the storm: a shed here would mean the
            // front-end lost track of a closed socket.
            max_connections: connections + 64,
            max_inflight: 8 * connections as u64 as usize + 64,
            ..Default::default()
        },
    )
    .expect("bind stress server");
    let addr = server.local_addr().to_string();
    let state: Arc<AppState> = server.serve_background();
    preseed(&addr);

    eprintln!("[connstress] reactor: {connections} concurrent clients…");
    // Every client waits at `burst` twice: once with its socket open (so
    // all sockets coexist) and implicitly via the main thread's wait that
    // releases the synchronized request burst.
    let burst = Arc::new(Barrier::new(connections + 1));
    let samples: Arc<Mutex<Vec<ClientSample>>> = Arc::new(Mutex::new(Vec::new()));
    let errors = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::with_capacity(connections);
    for i in 0..connections {
        let addr = addr.clone();
        let burst = burst.clone();
        let samples = samples.clone();
        let errors = errors.clone();
        clients.push(std::thread::spawn(move || {
            // Ramp the connects over ~100 ms so the kernel's fixed listen
            // backlog is never overflowed — a raw SYN storm measures TCP
            // retransmission timers (1 s+), not the front-end under test.
            std::thread::sleep(Duration::from_micros(250 * i as u64));
            let stream = connect(&addr);
            burst.wait();
            let outcome = stream.and_then(|mut stream| {
                if i % 2 == 0 {
                    stream_client(&mut stream)
                } else {
                    longpoll_client(&mut stream)
                }
            });
            match outcome {
                Ok(sample) => samples.lock().expect("samples lock").push(sample),
                Err(e) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("[connstress] client {i}: {e}");
                }
            }
        }));
    }

    // Peak-gauge sampler: reads the server's live-connection gauge while
    // the storm runs.
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let sampler = {
        let state = state.clone();
        let done = done.clone();
        let peak = peak.clone();
        std::thread::spawn(move || {
            while !done.load(Ordering::Acquire) {
                peak.fetch_max(state.live_connections(), Ordering::AcqRel);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // Submit the anchor while every client is still parked at the
    // barrier: no client request can race it, so its job id is
    // deterministic and its compile is in flight when the burst lands.
    // The storm may still be ramping its connects, so this one retries.
    let mut socket = connect(&addr).expect("anchor connect");
    let anchor = batch_body(&[ANCHOR_SPEC], false);
    let ack = client::round_trip(&mut socket, "POST", "/batch", &anchor, false).expect("anchor");
    assert_eq!(
        ack.head.status, 200,
        "anchor batch must be admitted: {}",
        ack.body
    );
    let ids = client::json(&ack.body).expect("anchor ack");
    assert_eq!(
        ids.get("job_ids").and_then(Value::as_arr),
        Some(&[Value::Num(ANCHOR_ID as f64)][..]),
        "anchor id must be deterministic: {}",
        ack.body
    );

    // All sockets are open once every client reaches the barrier; the
    // main thread's arrival releases the burst.
    burst.wait();
    let t0 = Instant::now();
    for c in clients {
        let _ = c.join();
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);
    let _ = sampler.join();

    let samples = Arc::try_unwrap(samples)
        .unwrap_or_else(|arc| Mutex::new(arc.lock().expect("samples lock").drain(..).collect()))
        .into_inner()
        .expect("samples lock");
    let mut first_byte: Vec<f64> = samples.iter().map(|s| s.first_byte).collect();
    let mut complete: Vec<f64> = samples.iter().map(|s| s.complete).collect();
    first_byte.sort_by(|a, b| a.total_cmp(b));
    complete.sort_by(|a, b| a.total_cmp(b));
    let digests: BTreeSet<String> = samples.iter().flat_map(|s| s.digests.clone()).collect();
    let (_, shed_conns, shed_inflight) = state.admission_counters();

    // Drain the server so its sockets close.
    state.handle().shutdown();

    let stress = ConnStress {
        connections,
        completed: samples.len(),
        errors: errors.load(Ordering::Relaxed) as usize,
        peak_connections: peak.load(Ordering::Acquire),
        shed: shed_conns + shed_inflight,
        wall_seconds,
        first_byte_p50: percentile(&first_byte, 50.0),
        first_byte_p95: percentile(&first_byte, 95.0),
        first_byte_p99: percentile(&first_byte, 99.0),
        complete_p50: percentile(&complete, 50.0),
        complete_p95: percentile(&complete, 95.0),
        complete_p99: percentile(&complete, 99.0),
        digests,
        reference_digests,
        anchor_compile_seconds,
    };
    eprintln!(
        "[connstress] reactor: {}/{} completed in {:.3}s (peak {} sockets, \
         first-byte p95 {:.1}ms, complete p95 {:.1}ms), {:.2}x a direct anchor \
         compile ({:.3}s), digests {}",
        stress.completed,
        stress.connections,
        stress.wall_seconds,
        stress.peak_connections,
        1e3 * stress.first_byte_p95,
        1e3 * stress.complete_p95,
        stress.wall_ratio(),
        stress.anchor_compile_seconds,
        if stress.digest_match() {
            "match the direct reference"
        } else {
            "DIVERGED from the direct reference"
        },
    );
    stress
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sane_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0];
        assert_eq!(percentile(&sorted, 50.0), 6.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 99.0), 11.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn check_fails_past_each_bound() {
        let storm = ConnStress {
            connections: 400,
            completed: 400,
            errors: 0,
            peak_connections: 400,
            shed: 0,
            wall_seconds: 0.2,
            first_byte_p50: 0.0,
            first_byte_p95: 0.0,
            first_byte_p99: 0.0,
            complete_p50: 0.0,
            complete_p95: 0.0,
            complete_p99: 0.0,
            digests: BTreeSet::from(["d1".to_string()]),
            reference_digests: BTreeSet::from(["d1".to_string()]),
            anchor_compile_seconds: 0.1,
        };
        assert_eq!(storm.check(), Vec::<String>::new());
        let fails = |edit: fn(&mut ConnStress), want: &str| {
            let mut edited = storm.clone();
            edit(&mut edited);
            assert_eq!(edited.check(), [format!("connections: {want}")]);
        };
        fails(|c| c.shed = 1, "the reactor shed 1");
        fails(|c| c.completed = 399, "399 of 400 served, 0 errors");
        fails(|c| c.peak_connections = 399, "peak 399 sockets < 400");
        fails(|c| c.reference_digests.clear(), "served digests differ");
        fails(|c| c.wall_seconds = 0.21, "wall ratio 2.10 > 2.00");
    }

    /// A miniature storm: every client completes, nothing is shed, and
    /// the served digests equal the direct reference. The full-size storm
    /// runs, gated, in `tetris bench-suite --connections`.
    #[test]
    fn small_storm_completes_on_the_reactor() {
        let stress = run_conn_stress(8, 2);
        assert_eq!(stress.completed, 8, "storm must complete");
        assert_eq!(stress.errors, 0);
        assert_eq!(stress.shed, 0, "caps are sized above the storm");
        assert!(
            stress.digest_match(),
            "served digests {:?} must equal the direct reference {:?}",
            stress.digests,
            stress.reference_digests
        );
        assert!(stress.peak_connections >= 2, "storm must overlap sockets");
    }
}

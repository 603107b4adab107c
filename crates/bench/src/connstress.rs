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
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use tetris_engine::{CompileJob, EngineConfig};
use tetris_server::{registry, AppState, CompileServer, ServerConfig};

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
const ANCHOR_ID: &str = "3";

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
    /// `stats_digest` values extracted from the responses.
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

fn connect(addr: &str) -> std::io::Result<TcpStream> {
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

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Reads status line + headers byte-wise; returns `(status, head, instant
/// of the first byte)` — the first-byte timestamp is the latency anchor.
fn read_head(stream: &mut TcpStream) -> std::io::Result<(u16, String, Instant)> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    let mut first_byte_at = None;
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte)?;
        first_byte_at.get_or_insert_with(Instant::now);
        head.push(byte[0]);
        if head.len() > 64 << 10 {
            return Err(std::io::Error::other("oversized response head"));
        }
    }
    let text = String::from_utf8_lossy(&head).to_string();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, text, first_byte_at.expect("at least one byte")))
}

fn read_body(stream: &mut TcpStream, head: &str) -> std::io::Result<String> {
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| std::io::Error::other("missing content-length"))?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(String::from_utf8_lossy(&body).to_string())
}

fn read_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while !line.ends_with(b"\n") {
        stream.read_exact(&mut byte)?;
        line.push(byte[0]);
    }
    Ok(String::from_utf8_lossy(&line).to_string())
}

/// One chunked frame; `None` on the terminating zero-length chunk.
fn read_chunk(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let size_line = read_line(stream)?;
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| std::io::Error::other("bad chunk size"))?;
    if size == 0 {
        read_line(stream)?;
        return Ok(None);
    }
    let mut payload = vec![0u8; size];
    stream.read_exact(&mut payload)?;
    let mut crlf = [0u8; 2];
    stream.read_exact(&mut crlf)?;
    Ok(Some(String::from_utf8_lossy(&payload).to_string()))
}

fn extract(body: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = body[body.find(&tag)? + tag.len()..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"').to_string())
}

/// Repeats `GET /job/<id>?wait=1` on the socket until the record is done,
/// returning its `stats_digest`. One round trip normally parks and
/// answers at completion; the loop covers a park that times out to the
/// pending record (or an early 404) before the job lands.
fn wait_for_digest(stream: &mut TcpStream, id: &str) -> std::io::Result<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        send_request(stream, "GET", &format!("/job/{id}?wait=1"), "", true)?;
        let (status, head, _) = read_head(stream)?;
        let result = read_body(stream, &head)?;
        if status == 200 && extract(&result, "status").as_deref() == Some("done") {
            return extract(&result, "stats_digest")
                .ok_or_else(|| std::io::Error::other("done record without digest"));
        }
        if status != 200 && status != 404 {
            return Err(std::io::Error::other(format!("wait status {status}")));
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::other("job did not finish"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A streaming client: one batch of both specs with `"stream": true`,
/// results read as chunked frames off the (already connected) socket.
fn stream_client(stream: &mut TcpStream) -> std::io::Result<ClientSample> {
    let t0 = Instant::now();
    send_request(stream, "POST", "/batch", &batch_body(&SPECS, true), true)?;
    let (status, head, first_byte_at) = read_head(stream)?;
    if status != 200 {
        return Err(std::io::Error::other(format!("stream status {status}")));
    }
    if !head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        return Err(std::io::Error::other("stream reply is not chunked"));
    }
    read_chunk(stream)?.ok_or_else(|| std::io::Error::other("missing ack frame"))?;
    let mut digests = Vec::new();
    while let Some(frame) = read_chunk(stream)? {
        digests.extend(extract(&frame, "stats_digest"));
    }
    if digests.len() != 2 {
        return Err(std::io::Error::other("short stream"));
    }
    Ok(ClientSample {
        first_byte: first_byte_at.duration_since(t0).as_secs_f64(),
        complete: t0.elapsed().as_secs_f64(),
        digests,
    })
}

fn job_ids(ack: &str) -> std::io::Result<Vec<String>> {
    // `extract` cuts at the first comma, so bracket-parse the list here.
    let rest = &ack[ack
        .find("\"job_ids\":")
        .ok_or_else(|| std::io::Error::other("missing job_ids"))?..];
    let open = rest
        .find('[')
        .ok_or_else(|| std::io::Error::other("unopened job_ids list"))?;
    let close = rest
        .find(']')
        .ok_or_else(|| std::io::Error::other("unterminated job_ids list"))?;
    Ok(rest[open + 1..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect())
}

/// A long-poll client: one quick `/healthz` round trip (the first-byte
/// responsiveness probe), then a park on the shared anchor job until its
/// completion wakes the socket.
fn longpoll_client(stream: &mut TcpStream) -> std::io::Result<ClientSample> {
    let t0 = Instant::now();
    send_request(stream, "GET", "/healthz", "", true)?;
    let (status, head, first_byte_at) = read_head(stream)?;
    if status != 200 {
        return Err(std::io::Error::other(format!("healthz status {status}")));
    }
    read_body(stream, &head)?;
    let digest = wait_for_digest(stream, ANCHOR_ID)?;
    Ok(ClientSample {
        first_byte: first_byte_at.duration_since(t0).as_secs_f64(),
        complete: t0.elapsed().as_secs_f64(),
        digests: vec![digest],
    })
}

/// One `Connection: close` request on a fresh socket — for pre-seeding
/// and the anchor submit.
fn oneshot(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, method, path, body, false)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

/// Compiles both specs once and waits for completion, so the storm's jobs
/// are all cache hits.
fn preseed(addr: &str) {
    let (status, _) =
        oneshot(addr, "POST", "/batch", &batch_body(&SPECS, false)).expect("seed batch");
    assert_eq!(status, 200, "seed batch must be admitted");
    for id in ["1", "2"] {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (_, job) = oneshot(addr, "GET", &format!("/job/{id}"), "").expect("seed poll");
            if extract(&job, "status").as_deref() == Some("done") {
                break;
            }
            assert!(Instant::now() < deadline, "seed job {id} did not finish");
            std::thread::sleep(Duration::from_millis(20));
        }
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
    let (status, ack) = oneshot(&addr, "POST", "/batch", &batch_body(&[ANCHOR_SPEC], false))
        .expect("anchor submit");
    assert_eq!(status, 200, "anchor batch must be admitted: {ack}");
    assert_eq!(
        job_ids(&ack)
            .expect("anchor ack")
            .first()
            .map(String::as_str),
        Some(ANCHOR_ID),
        "anchor id must be deterministic"
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
    fn extract_reads_flat_json_fields() {
        let body = r#"{ "job_ids": [7], "status": "done", "stats_digest": "abc123" }"#;
        assert_eq!(extract(body, "stats_digest").as_deref(), Some("abc123"));
        assert_eq!(extract(body, "job_ids").as_deref(), Some("[7]"));
        assert_eq!(extract(body, "missing"), None);
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

//! End-to-end smoke test: a real TCP client against a live server.
//!
//! Submits a batch over HTTP, polls it to completion and checks the served
//! result is bit-for-bit the result a direct `compile_batch` call produces
//! (via the deterministic `stats_digest`). `tests/serve_binary.rs` drives
//! the `tetris serve` binary itself for what only a separate process shows.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tetris_engine::{CompileJob, Engine, EngineConfig};
use tetris_server::{registry, CompileServer, ServerConfig};

/// Sends one HTTP/1.1 request and returns `(status, body)`.
fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

/// Extracts `"key": "value"` or `"key": value` from a flat JSON body
/// (enough for assertions; the server emits no nested keys that collide).
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn poll_done(addr: &str, id: u64, timeout: Duration) -> String {
    let t0 = Instant::now();
    loop {
        let (status, body) = request(addr, "GET", &format!("/job/{id}"), None);
        assert_eq!(status, 200, "poll must succeed: {body}");
        match field(&body, "status") {
            Some("done") => return body,
            Some("pending") => {
                assert!(t0.elapsed() < timeout, "job {id} did not finish in time");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected status {other:?} in {body}"),
        }
    }
}

fn start_server() -> String {
    let server = CompileServer::bind(
        "127.0.0.1:0",
        EngineConfig {
            threads: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    server.serve_background();
    addr
}

#[test]
fn batch_round_trips_and_matches_direct_compilation() {
    let addr = start_server();

    // Small, fast workloads (debug builds run this test too).
    let body = r#"{ "jobs": [
        {"workload": "REG3-12-s7", "backend": "tetris", "device": "grid-4x4"},
        {"workload": "REG3-12-s7", "backend": "2qan-s7", "device": "grid-4x4"},
        {"workload": "REG3-12-s7", "backend": "tetris", "device": "grid-4x4"}
    ] }"#;
    let (status, response) = request(&addr, "POST", "/batch", Some(body));
    assert_eq!(status, 200, "submit: {response}");
    assert!(response.contains("\"job_ids\": [1, 2, 3]"), "{response}");

    let first = poll_done(&addr, 1, Duration::from_secs(120));
    let second = poll_done(&addr, 2, Duration::from_secs(120));
    let third = poll_done(&addr, 3, Duration::from_secs(120));

    // The served results must be bit-identical (modulo wall clock) to a
    // direct engine run of the same specs.
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 16,
        cache_dir: None,
        cache_max_bytes: None,
    });
    let ham = Arc::new(registry::workload("REG3-12-s7").expect("workload"));
    let graph = Arc::new(registry::device("grid-4x4").expect("device"));
    let direct = engine.compile_batch(vec![
        CompileJob::new(
            "REG3-12-s7",
            registry::backend("tetris").expect("backend"),
            ham.clone(),
            graph.clone(),
        ),
        CompileJob::new(
            "REG3-12-s7",
            registry::backend("2qan-s7").expect("backend"),
            ham,
            graph,
        ),
    ]);
    let expect_digest = |r: &tetris_engine::JobResult| format!("{:016x}", r.output.stats_digest());

    assert_eq!(
        field(&first, "stats_digest").expect("digest"),
        expect_digest(&direct[0]),
        "served tetris result differs from direct compile_batch"
    );
    assert_eq!(
        field(&second, "stats_digest").expect("digest"),
        expect_digest(&direct[1]),
        "served 2qan result differs from direct compile_batch"
    );
    assert_eq!(field(&first, "compiler"), Some("Tetris+lookahead"));
    assert!(field(&first, "gates").unwrap().parse::<usize>().unwrap() > 0);

    // Job 3 duplicates job 1 inside the batch: coalesced into a cache hit
    // with the same digest.
    assert_eq!(field(&third, "cached"), Some("true"));
    assert_eq!(field(&third, "stats_digest"), field(&first, "stats_digest"));

    // A repeat submission is served from the cache.
    let (status, response) = request(
        &addr,
        "POST",
        "/batch",
        Some(
            r#"{ "jobs": [{"workload": "REG3-12-s7", "backend": "tetris", "device": "grid-4x4"}] }"#,
        ),
    );
    assert_eq!(status, 200, "{response}");
    let repeat = poll_done(&addr, 4, Duration::from_secs(120));
    assert_eq!(field(&repeat, "cached"), Some("true"));
    assert_eq!(
        field(&repeat, "stats_digest"),
        field(&first, "stats_digest")
    );

    // /stats reflects the traffic.
    let (status, stats) = request(&addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(field(&stats, "jobs_total"), Some("4"));
    assert_eq!(field(&stats, "jobs_pending"), Some("0"));
    assert!(field(&stats, "hits").unwrap().parse::<u64>().unwrap() >= 2);

    // The qasm flag embeds a circuit.
    let (_, with_qasm) = request(&addr, "GET", "/job/1?qasm=1", None);
    assert!(with_qasm.contains("OPENQASM 2.0"), "qasm embedded");
}

#[test]
fn bad_requests_are_rejected_not_fatal() {
    let addr = start_server();

    for (body, why) in [
        ("{", "malformed JSON"),
        ("{}", "missing jobs"),
        (r#"{"jobs": []}"#, "empty batch"),
        (
            r#"{"jobs": [{"workload": "NoSuch-JW", "backend": "tetris"}]}"#,
            "unknown workload",
        ),
        (
            r#"{"jobs": [{"workload": "REG3-12-s7", "backend": "qiskit"}]}"#,
            "unknown backend",
        ),
        (
            r#"{"jobs": [{"workload": "REG3-12-s7", "backend": "tetris", "device": "torus"}]}"#,
            "unknown device",
        ),
        (
            r#"{"jobs": [{"backend": "tetris"}]}"#,
            "missing workload field",
        ),
        (
            r#"{"shard": true, "jobs": [{"workload": "REG3-8-s1", "backend": "tetris", "device": "grid-4x4"}]}"#,
            "removed shard flag",
        ),
    ] {
        let (status, response) = request(&addr, "POST", "/batch", Some(body));
        assert_eq!(status, 400, "{why} must 400: {response}");
        assert!(response.contains("error"), "{why}: {response}");
        if body.contains("shard") {
            assert!(
                response.contains("resident"),
                "the rejection names the region flag: {response}"
            );
        }
    }

    // Nothing was enqueued by any failed batch.
    let (_, stats) = request(&addr, "GET", "/stats", None);
    assert_eq!(field(&stats, "jobs_total"), Some("0"));

    // Unknown routes and ids.
    assert_eq!(request(&addr, "GET", "/nope", None).0, 404);
    assert_eq!(request(&addr, "GET", "/job/99", None).0, 404);
    assert_eq!(request(&addr, "GET", "/job/xyz", None).0, 400);
    assert_eq!(request(&addr, "DELETE", "/batch", None).0, 405);

    // The server survives all of the above and still serves work.
    let (status, _) = request(
        &addr,
        "POST",
        "/batch",
        Some(
            r#"{ "jobs": [{"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"}] }"#,
        ),
    );
    assert_eq!(status, 200);
    let done = poll_done(&addr, 1, Duration::from_secs(120));
    assert_eq!(field(&done, "compiler"), Some("MaxCancel"));
}

/// Sends one request on an already-open socket and reads exactly one
/// response (headers + `Content-Length` body), leaving the connection
/// usable for the next request — the keep-alive client path.
fn request_on(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String, String) {
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");

    // Read the head byte-wise until the blank line (no BufReader: it
    // would swallow bytes of the next response on this shared socket).
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte).expect("head byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric length");
    let mut payload = vec![0u8; content_length];
    stream.read_exact(&mut payload).expect("body");
    (status, String::from_utf8(payload).expect("utf8 body"), head)
}

#[test]
fn keep_alive_serves_many_requests_on_one_socket() {
    let addr = start_server();
    let mut stream = TcpStream::connect(&addr).expect("connect");

    // Several requests back to back on the same connection, mixing
    // methods and routes.
    let (status, body, head) = request_on(&mut stream, "GET", "/stats", None);
    assert_eq!(status, 200, "{body}");
    assert!(
        head.to_ascii_lowercase().contains("connection: keep-alive"),
        "server must advertise keep-alive: {head}"
    );
    let batch =
        r#"{ "jobs": [{"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"}] }"#;
    let (status, body, _) = request_on(&mut stream, "POST", "/batch", Some(batch));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"job_ids\": [1]"), "{body}");
    // Poll to completion — still the same socket.
    let t0 = Instant::now();
    loop {
        let (status, body, _) = request_on(&mut stream, "GET", "/job/1", None);
        assert_eq!(status, 200, "{body}");
        if field(&body, "status") == Some("done") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "job did not finish"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Errors mid-connection do not wedge the loop either.
    let (status, _, _) = request_on(&mut stream, "GET", "/job/999", None);
    assert_eq!(status, 404);
    let (status, _, _) = request_on(&mut stream, "GET", "/stats", None);
    assert_eq!(status, 200, "connection survives a 404");

    // An explicit `Connection: close` is honored even inside a token
    // list: the server answers and then closes its end.
    let request =
        "GET /stats HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close, TE\r\n\r\n";
    stream.write_all(request.as_bytes()).expect("send");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("read to close");
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    assert!(
        rest.to_ascii_lowercase().contains("connection: close"),
        "{rest}"
    );

    // HTTP/1.0 defaults to close (no Connection header at all).
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let request = "GET /stats HTTP/1.0\r\nHost: test\r\nContent-Length: 0\r\n\r\n";
    stream.write_all(request.as_bytes()).expect("send");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("read to close");
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    assert!(
        rest.to_ascii_lowercase().contains("connection: close"),
        "1.0 requests must not be kept alive: {rest}"
    );

    // Chunked bodies are refused outright: only Content-Length framing is
    // supported, and silently mis-framing a chunked body would desync the
    // keep-alive loop into reading chunks as requests.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let request = "POST /batch HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n\
                   2a\r\nnot a request line\r\n0\r\n\r\n";
    stream.write_all(request.as_bytes()).expect("send");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("read to close");
    assert!(rest.starts_with("HTTP/1.1 400"), "{rest}");
    assert_eq!(
        rest.matches("HTTP/1.1").count(),
        1,
        "exactly one response — chunk lines must not be parsed as requests: {rest}"
    );
}

#[test]
fn observability_endpoints_expose_metrics_and_traces() {
    let addr = start_server();
    // A resident batch lights up the carve and stage series.
    let body = r#"{ "resident": true, "jobs": [
        {"workload": "REG3-8-s1", "backend": "tetris", "device": "grid-4x4"},
        {"workload": "REG3-8-s2", "backend": "tetris", "device": "grid-4x4"}
    ] }"#;
    let (status, response) = request(&addr, "POST", "/batch", Some(body));
    assert_eq!(status, 200, "{response}");
    poll_done(&addr, 1, Duration::from_secs(120));
    poll_done(&addr, 2, Duration::from_secs(120));

    // `?trace=1` adds a per-stage timeline whose busy walls (everything
    // except queue wait) track the engine wall within the 10 % acceptance
    // bound.
    let (status, traced) = request(&addr, "GET", "/job/1?trace=1", None);
    assert_eq!(status, 200, "{traced}");
    assert!(traced.contains("\"trace\":"), "{traced}");
    let busy: f64 = field(&traced, "busy_seconds")
        .expect("busy aggregate")
        .parse()
        .expect("numeric busy");
    let engine_seconds: f64 = field(&traced, "engine_seconds")
        .expect("engine wall")
        .parse()
        .expect("numeric wall");
    assert!(
        (busy - engine_seconds).abs() <= 0.1 * engine_seconds + 1e-4,
        "trace busy walls {busy} must track engine_seconds {engine_seconds}: {traced}"
    );

    // /metrics is Prometheus text exposition with engine, cache (both
    // tiers), region and HTTP series present, and nothing in flight or
    // shed once the batch is done.
    let mut scrape = TcpStream::connect(&addr).expect("connect");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("receive");
    let (head, metrics) = response.split_once("\r\n\r\n").expect("head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("\r\nContent-Type: text/plain"), "{head}");
    for series in [
        "# TYPE tetris_jobs_completed_total counter",
        "tetris_engine_seconds_count",
        "tetris_stage_seconds_bucket",
        "tetris_cache_lookups_total{tier=\"memory\",outcome=\"hit\"}",
        "tetris_cache_lookups_total{tier=\"disk\",outcome=\"miss\"}",
        "tetris_cache_gc_evictions_total{tier=\"disk\"}",
        "tetris_cache_purged_total{tier=\"disk\"}",
        "tetris_stage_seconds_bucket{stage=\"carve\"",
        "tetris_carves_performed_total",
        "tetris_http_requests_total{route=\"/batch\",class=\"2xx\"}",
        "tetris_http_request_seconds_bucket",
        "tetris_server_jobs",
        "tetris_dist_rows_computed_total",
        "tetris_dist_row_hits_total",
        "tetris_jobs_completed_total{cached=\"false\"}",
        "tetris_cache_stores_total{tier=\"disk\"}",
        "tetris_server_jobs_inflight 0",
        "tetris_http_shed_total{reason=\"connections\"} 0",
        "tetris_http_shed_total{reason=\"inflight\"} 0",
    ] {
        assert!(
            metrics.contains(series),
            "missing `{series}` in:\n{metrics}"
        );
    }

    // /trace serves recent completions from the ring.
    let (status, trace) = request(&addr, "GET", "/trace?n=10", None);
    assert_eq!(status, 200);
    assert!(trace.contains("\"events\": ["), "{trace}");
    assert!(trace.contains("\"engine_seconds\":"), "{trace}");

    // /stats now exposes the previously hidden disk counters, agreeing
    // with the exposition's `tetris_cache_*{tier="disk"}` series, and its
    // memory-tier hits agree with the exposition's hit series.
    let (_, stats) = request(&addr, "GET", "/stats", None);
    assert_eq!(field(&stats, "disk_gc_evictions"), Some("0"), "{stats}");
    assert_eq!(field(&stats, "disk_purged"), Some("0"), "{stats}");
    let memory_hits = metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix("tetris_cache_lookups_total{tier=\"memory\",outcome=\"hit\"} ")
        })
        .expect("memory hit series");
    assert_eq!(field(&stats, "hits"), Some(memory_hits), "{stats}");
}

#[test]
fn resident_batches_keep_regions_alive_across_submissions() {
    let addr = start_server();
    let body = r#"{ "resident": true, "jobs": [
        {"workload": "REG3-8-s1", "backend": "tetris", "device": "grid-4x4"},
        {"workload": "REG3-8-s2", "backend": "tetris", "device": "grid-4x4"}
    ] }"#;
    let (status, response) = request(&addr, "POST", "/batch", Some(body));
    assert_eq!(status, 200, "{response}");
    let first = poll_done(&addr, 1, Duration::from_secs(120));
    let second = poll_done(&addr, 2, Duration::from_secs(120));
    let parse_region = |body: &str| -> Vec<usize> {
        let tag = "\"region\": [";
        let rest = &body[body.find(tag).expect("region field") + tag.len()..];
        let list = &rest[..rest.find(']').expect("close bracket")];
        list.split(',')
            .map(|s| s.trim().parse().expect("qubit index"))
            .collect()
    };
    let a = parse_region(&first);
    let b = parse_region(&second);
    assert_eq!(a.len() + b.len(), 16, "8 + 8 on a 16-qubit grid, no slack");
    assert!(a.iter().all(|q| !b.contains(q)), "{a:?} overlaps {b:?}");
    assert!(a.iter().chain(&b).all(|&q| q < 16));

    // The carved regions are still alive after the batch: /regions shows
    // two idle residents on the grid, one job served each.
    let (status, regions) = request(&addr, "GET", "/regions", None);
    assert_eq!(status, 200, "{regions}");
    assert_eq!(field(&regions, "carves_performed"), Some("2"), "{regions}");
    assert_eq!(field(&regions, "carves_skipped"), Some("0"), "{regions}");
    assert!(regions.contains("\"device\": \"grid-4x4\""), "{regions}");
    assert_eq!(regions.matches("\"busy\": false").count(), 2, "{regions}");
    assert_eq!(
        regions.matches("\"jobs_served\": 1").count(),
        2,
        "{regions}"
    );

    // A repeat submission reuses the residents: no new carve, artifacts
    // straight from the resident cache, digests unchanged.
    let (status, response) = request(&addr, "POST", "/batch", Some(body));
    assert_eq!(status, 200, "{response}");
    let third = poll_done(&addr, 3, Duration::from_secs(120));
    let fourth = poll_done(&addr, 4, Duration::from_secs(120));
    assert_eq!(field(&third, "cached"), Some("true"), "{third}");
    assert_eq!(field(&fourth, "cached"), Some("true"), "{fourth}");
    assert_eq!(field(&third, "stats_digest"), field(&first, "stats_digest"));
    assert_eq!(
        field(&fourth, "stats_digest"),
        field(&second, "stats_digest")
    );
    assert_eq!(parse_region(&third), a);
    assert_eq!(parse_region(&fourth), b);

    // /regions, /stats and /metrics agree on the carve ledger.
    let (_, regions) = request(&addr, "GET", "/regions", None);
    assert_eq!(field(&regions, "carves_performed"), Some("2"), "{regions}");
    assert_eq!(field(&regions, "carves_skipped"), Some("2"), "{regions}");
    assert_eq!(field(&regions, "carve_skip_ratio"), Some("0.5000"));
    let (_, stats) = request(&addr, "GET", "/stats", None);
    assert_eq!(field(&stats, "carves_performed"), Some("2"), "{stats}");
    assert_eq!(field(&stats, "carves_skipped"), Some("2"), "{stats}");
    assert_eq!(field(&stats, "resident_regions"), Some("2"), "{stats}");
    assert_eq!(field(&stats, "queue_depth"), Some("0"), "{stats}");
    let (_, metrics) = request(&addr, "GET", "/metrics", None);
    for series in [
        "tetris_carves_performed_total 2",
        "tetris_carves_skipped_total 2",
        "tetris_defrags_total 0",
        "tetris_regions_released_total 0",
        "tetris_region_occupancy{device=\"grid-4x4\"} 16",
        "tetris_region_queue_depth{device=\"grid-4x4\"} 0",
    ] {
        assert!(
            metrics.contains(series),
            "missing `{series}` in:\n{metrics}"
        );
    }

    // A non-boolean resident flag is rejected whole-batch.
    let (status, response) = request(
        &addr,
        "POST",
        "/batch",
        Some(r#"{ "resident": 1, "jobs": [{"workload": "REG3-8-s1", "backend": "tetris"}] }"#),
    );
    assert_eq!(status, 400, "{response}");
}

#[test]
fn trace_log_appends_one_jsonl_record_per_job() {
    let path = std::env::temp_dir().join(format!("tetris-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = CompileServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            threads: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        },
        ServerConfig {
            job_ttl: Duration::from_secs(900),
            trace_log: Some(path.clone()),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    server.serve_background();

    let batch = r#"{ "jobs": [
        {"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"},
        {"workload": "REG3-8-s2", "backend": "maxcancel", "device": "ring-9"}
    ] }"#;
    let (status, response) = request(&addr, "POST", "/batch", Some(batch));
    assert_eq!(status, 200, "{response}");
    poll_done(&addr, 1, Duration::from_secs(120));
    poll_done(&addr, 2, Duration::from_secs(120));

    // The log is written before the job table flips to done, so both
    // records are on disk by now: one JSON object per line.
    let text = std::fs::read_to_string(&path).expect("trace log exists");
    assert_eq!(text.lines().count(), 2, "{text}");
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "\"unix_ms\":",
            "\"name\":",
            "\"engine_seconds\":",
            "\"stages\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A server whose completed jobs expire after `ttl`.
fn start_server_with_ttl(ttl: Duration) -> String {
    let server = CompileServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            threads: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        },
        ServerConfig {
            job_ttl: ttl,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    server.serve_background();
    addr
}

#[test]
fn job_table_stays_bounded_with_ttl_and_delete() {
    // The TTL must comfortably outlive poll_done's 20 ms poll cadence plus
    // CI scheduler jitter — poll_done hard-asserts 200, so a record that
    // expires mid-poll would read as a spurious failure.
    let ttl = Duration::from_secs(1);
    let addr = start_server_with_ttl(ttl);
    let batch =
        r#"{ "jobs": [{"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"}] }"#;

    // Several waves of traffic, each outliving the previous wave's TTL: a
    // long-lived server must not accumulate one record per job ever
    // submitted.
    let waves = 3;
    for wave in 0..waves {
        let (status, response) = request(&addr, "POST", "/batch", Some(batch));
        assert_eq!(status, 200, "{response}");
        poll_done(&addr, wave + 1, Duration::from_secs(120));
        std::thread::sleep(ttl + Duration::from_millis(100));
    }
    // Every wave is past its TTL; the next access sweeps them all.
    let (_, stats) = request(&addr, "GET", "/stats", None);
    assert_eq!(
        field(&stats, "jobs_total"),
        Some("0"),
        "table must be empty after all TTLs elapsed: {stats}"
    );
    let expired: u64 = field(&stats, "jobs_expired")
        .expect("expired counter")
        .parse()
        .expect("numeric");
    assert_eq!(expired, waves, "every completed job expired exactly once");
    // Expired ids are gone for good.
    assert_eq!(request(&addr, "GET", "/job/1", None).0, 404);

    // Explicit DELETE: done jobs disappear immediately…
    let (status, _) = request(&addr, "POST", "/batch", Some(batch));
    assert_eq!(status, 200);
    let id = waves + 1;
    poll_done(&addr, id, Duration::from_secs(120));
    let (status, body) = request(&addr, "DELETE", &format!("/job/{id}"), None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"deleted\""), "{body}");
    assert_eq!(request(&addr, "GET", &format!("/job/{id}"), None).0, 404);
    // …and a double delete is a clean 404.
    assert_eq!(request(&addr, "DELETE", &format!("/job/{id}"), None).0, 404);

    // Deleting a job while (possibly still) pending must not let the
    // worker resurrect the record when it finishes.
    let (status, _) = request(&addr, "POST", "/batch", Some(batch));
    assert_eq!(status, 200);
    let id = waves + 2;
    let (status, _) = request(&addr, "DELETE", &format!("/job/{id}"), None);
    assert_eq!(status, 200);
    // Give the worker time to finish the batch (the result lands in the
    // engine cache, not the table).
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        request(&addr, "GET", &format!("/job/{id}"), None).0,
        404,
        "deleted pending job must not reappear"
    );
}

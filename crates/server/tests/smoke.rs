//! End-to-end smoke test: a real TCP client against a live server.
//!
//! Submits a batch over HTTP, polls it to completion and checks the served
//! result is bit-for-bit the result a direct `compile_batch` call produces
//! (via the deterministic `stats_digest`). Requests go through
//! `tetris_server::client` and every JSON body is read with `json::parse`,
//! each key named by its path (`cache.hits`, `scheduler.queue_depth`). The
//! `Connection: close, TE`, HTTP/1.0 and chunked-request cases of
//! `keep_alive_serves_many_requests_on_one_socket` write their own request
//! bytes, because those bytes are what they test. `tests/serve_binary.rs`
//! drives the `tetris serve` binary itself for what only a separate
//! process shows.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;
use tetris_engine::{CompileJob, Engine, EngineConfig};
use tetris_server::client;
use tetris_server::json::{self, Value};
use tetris_server::{registry, CompileServer, ServerConfig};

/// `method path` on a fresh connection: the status and the parsed body.
fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, Value) {
    let response = client::request(addr, method, path, body).expect("request");
    let parsed = client::json(&response.body).expect("JSON body");
    (response.head.status, parsed)
}

/// The string at `path` in a JSON record.
fn text<'a>(record: &'a Value, path: &str) -> Option<&'a str> {
    record.at(path).and_then(Value::as_str)
}

/// The number at `path` in a JSON record.
fn number(record: &Value, path: &str) -> Option<f64> {
    record.at(path).and_then(Value::as_num)
}

/// Long-polls job `id` to its done record.
fn poll_done(addr: &str, id: u64) -> Value {
    let mut socket = client::connect(addr).expect("connect");
    client::await_job(&mut socket, id).expect("done record")
}

fn start_server(config: ServerConfig) -> String {
    let server = CompileServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            threads: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        },
        config,
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    server.serve_background();
    addr
}

#[test]
fn batch_round_trips_and_matches_direct_compilation() {
    let addr = start_server(ServerConfig::default());

    // Small, fast workloads (debug builds run this test too).
    let body = r#"{ "jobs": [
        {"workload": "REG3-12-s7", "backend": "tetris", "device": "grid-4x4"},
        {"workload": "REG3-12-s7", "backend": "2qan-s7", "device": "grid-4x4"},
        {"workload": "REG3-12-s7", "backend": "tetris", "device": "grid-4x4"}
    ] }"#;
    let (status, ack) = call(&addr, "POST", "/batch", body);
    assert_eq!(status, 200, "submit: {ack:?}");
    assert_eq!(ack.get("job_ids"), Some(&json::parse("[1, 2, 3]").unwrap()));

    let first = poll_done(&addr, 1);
    let second = poll_done(&addr, 2);
    let third = poll_done(&addr, 3);

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
        text(&first, "stats_digest"),
        Some(expect_digest(&direct[0]).as_str()),
        "served tetris result differs from direct compile_batch"
    );
    assert_eq!(
        text(&second, "stats_digest"),
        Some(expect_digest(&direct[1]).as_str()),
        "served 2qan result differs from direct compile_batch"
    );
    assert_eq!(text(&first, "compiler"), Some("Tetris+lookahead"));
    assert!(number(&first, "gates").expect("gates") > 0.0);

    // Job 3 duplicates job 1 inside the batch: coalesced into a cache hit
    // with the same digest.
    assert_eq!(third.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(text(&third, "stats_digest"), text(&first, "stats_digest"));

    // A repeat submission is served from the cache.
    let (status, ack) = call(
        &addr,
        "POST",
        "/batch",
        r#"{ "jobs": [{"workload": "REG3-12-s7", "backend": "tetris", "device": "grid-4x4"}] }"#,
    );
    assert_eq!(status, 200, "{ack:?}");
    let repeat = poll_done(&addr, 4);
    assert_eq!(repeat.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(text(&repeat, "stats_digest"), text(&first, "stats_digest"));

    // /stats reflects the traffic.
    let (status, stats) = call(&addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(number(&stats, "jobs_total"), Some(4.0));
    assert_eq!(number(&stats, "jobs_pending"), Some(0.0));
    assert!(number(&stats, "cache.hits").expect("cache.hits") >= 2.0);

    // The qasm flag embeds a circuit.
    let (_, with_qasm) = call(&addr, "GET", "/job/1?qasm=1", "");
    let qasm = text(&with_qasm, "qasm").expect("qasm embedded");
    assert!(qasm.contains("OPENQASM 2.0"), "{qasm}");
}

#[test]
fn bad_requests_are_rejected_not_fatal() {
    let addr = start_server(ServerConfig::default());

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
        let (status, response) = call(&addr, "POST", "/batch", body);
        assert_eq!(status, 400, "{why} must 400: {response:?}");
        let error = text(&response, "error").unwrap_or_else(|| panic!("{why}: {response:?}"));
        if why == "removed shard flag" {
            assert!(
                error.contains("resident"),
                "the rejection names the region flag: {error}"
            );
        }
    }

    // Nothing was enqueued by any failed batch.
    let (_, stats) = call(&addr, "GET", "/stats", "");
    assert_eq!(number(&stats, "jobs_total"), Some(0.0));

    // Unknown routes and ids.
    assert_eq!(call(&addr, "GET", "/nope", "").0, 404);
    assert_eq!(call(&addr, "GET", "/job/99", "").0, 404);
    assert_eq!(call(&addr, "GET", "/job/xyz", "").0, 400);
    assert_eq!(call(&addr, "DELETE", "/batch", "").0, 405);

    // The server survives all of the above and still serves work.
    let (status, _) = call(
        &addr,
        "POST",
        "/batch",
        r#"{ "jobs": [{"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"}] }"#,
    );
    assert_eq!(status, 200);
    let done = poll_done(&addr, 1);
    assert_eq!(text(&done, "compiler"), Some("MaxCancel"));
}

/// Reads one response the server closes the connection after: its head,
/// with the body read and the end of the stream checked.
fn read_last(stream: &mut std::net::TcpStream) -> client::Head {
    let head = client::read_head(stream).expect("head");
    client::read_body(stream, &head).expect("body");
    let closed = stream.read(&mut [0; 1]).expect("read to close") == 0;
    assert!(closed, "exactly one response, then close: {}", head.text);
    head
}

#[test]
fn keep_alive_serves_many_requests_on_one_socket() {
    let addr = start_server(ServerConfig::default());
    let mut stream = client::connect(&addr).expect("connect");

    // Several requests back to back on the same connection, mixing
    // methods and routes.
    let stats = client::round_trip(&mut stream, "GET", "/stats", "", true).expect("stats");
    assert_eq!(stats.head.status, 200, "{}", stats.body);
    assert_eq!(
        stats.head.header("Connection"),
        Some("keep-alive"),
        "server must advertise keep-alive: {}",
        stats.head.text
    );
    let batch =
        r#"{ "jobs": [{"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"}] }"#;
    let ack = client::round_trip(&mut stream, "POST", "/batch", batch, true).expect("batch");
    assert_eq!(ack.head.status, 200, "{}", ack.body);
    let ack = client::json(&ack.body).expect("ack");
    assert_eq!(ack.get("job_ids"), Some(&json::parse("[1]").unwrap()));
    // Long-poll to completion — still the same socket.
    client::await_job(&mut stream, 1).expect("done record");
    // Errors mid-connection do not wedge the loop either.
    let missing = client::round_trip(&mut stream, "GET", "/job/999", "", true).expect("404");
    assert_eq!(missing.head.status, 404);
    let stats = client::round_trip(&mut stream, "GET", "/stats", "", true).expect("stats");
    assert_eq!(stats.head.status, 200, "connection survives a 404");

    // An explicit `Connection: close` is honored even inside a token
    // list: the server answers and then closes its end.
    let request =
        "GET /stats HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close, TE\r\n\r\n";
    stream.write_all(request.as_bytes()).expect("send");
    let head = read_last(&mut stream);
    assert_eq!(head.status, 200, "{}", head.text);
    assert_eq!(head.header("Connection"), Some("close"), "{}", head.text);

    // HTTP/1.0 defaults to close (no Connection header at all).
    let mut stream = client::connect(&addr).expect("connect");
    let request = "GET /stats HTTP/1.0\r\nHost: test\r\nContent-Length: 0\r\n\r\n";
    stream.write_all(request.as_bytes()).expect("send");
    let head = read_last(&mut stream);
    assert_eq!(head.status, 200, "{}", head.text);
    assert_eq!(
        head.header("Connection"),
        Some("close"),
        "1.0 requests must not be kept alive: {}",
        head.text
    );

    // Chunked bodies are refused outright: only Content-Length framing is
    // supported, and silently mis-framing a chunked body would desync the
    // keep-alive loop into reading chunks as requests.
    let mut stream = client::connect(&addr).expect("connect");
    let request = "POST /batch HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n\
                   2a\r\nnot a request line\r\n0\r\n\r\n";
    stream.write_all(request.as_bytes()).expect("send");
    // Exactly one response — chunk lines must not be parsed as requests.
    assert_eq!(read_last(&mut stream).status, 400);
}

#[test]
fn observability_endpoints_expose_metrics_and_traces() {
    let addr = start_server(ServerConfig::default());
    // A resident batch lights up the carve and stage series.
    let body = r#"{ "resident": true, "jobs": [
        {"workload": "REG3-8-s1", "backend": "tetris", "device": "grid-4x4"},
        {"workload": "REG3-8-s2", "backend": "tetris", "device": "grid-4x4"}
    ] }"#;
    let (status, ack) = call(&addr, "POST", "/batch", body);
    assert_eq!(status, 200, "{ack:?}");
    poll_done(&addr, 1);
    poll_done(&addr, 2);

    // `?trace=1` adds a per-stage timeline whose busy walls (everything
    // except queue wait) track the engine wall within the 10 % acceptance
    // bound.
    let (status, traced) = call(&addr, "GET", "/job/1?trace=1", "");
    assert_eq!(status, 200, "{traced:?}");
    let busy = number(&traced, "trace.busy_seconds").expect("busy aggregate");
    let engine_seconds = number(&traced, "engine_seconds").expect("engine wall");
    assert!(
        (busy - engine_seconds).abs() <= 0.1 * engine_seconds + 1e-4,
        "trace busy walls {busy} must track engine_seconds {engine_seconds}: {traced:?}"
    );

    // /metrics is Prometheus text exposition with engine, cache (both
    // tiers), region and HTTP series present, and nothing in flight or
    // shed once the batch is done.
    let scrape = client::request(&addr, "GET", "/metrics", "").expect("scrape");
    assert_eq!(scrape.head.status, 200, "{}", scrape.head.text);
    let content_type = scrape.head.header("Content-Type").expect("Content-Type");
    assert!(content_type.starts_with("text/plain"), "{content_type}");
    let metrics = scrape.body;
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
    let (status, trace) = call(&addr, "GET", "/trace?n=10", "");
    assert_eq!(status, 200);
    let events = trace.get("events").and_then(Value::as_arr).expect("events");
    assert!(!events.is_empty(), "{trace:?}");
    for event in events {
        assert!(number(event, "engine_seconds").is_some(), "{event:?}");
    }

    // /stats now exposes the previously hidden disk counters, agreeing
    // with the exposition's `tetris_cache_*{tier="disk"}` series, and its
    // memory-tier hits agree with the exposition's hit series.
    let (_, stats) = call(&addr, "GET", "/stats", "");
    assert_eq!(number(&stats, "cache.disk_gc_evictions"), Some(0.0));
    assert_eq!(number(&stats, "cache.disk_purged"), Some(0.0));
    let memory_hits = metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix("tetris_cache_lookups_total{tier=\"memory\",outcome=\"hit\"} ")
        })
        .expect("memory hit series");
    assert_eq!(
        number(&stats, "cache.hits"),
        memory_hits.parse().ok(),
        "{stats:?}"
    );
}

#[test]
fn resident_batches_keep_regions_alive_across_submissions() {
    let addr = start_server(ServerConfig::default());
    let body = r#"{ "resident": true, "jobs": [
        {"workload": "REG3-8-s1", "backend": "tetris", "device": "grid-4x4"},
        {"workload": "REG3-8-s2", "backend": "tetris", "device": "grid-4x4"}
    ] }"#;
    let (status, ack) = call(&addr, "POST", "/batch", body);
    assert_eq!(status, 200, "{ack:?}");
    let first = poll_done(&addr, 1);
    let second = poll_done(&addr, 2);
    let parse_region = |record: &Value| -> Vec<usize> {
        let qubits = record.get("region").and_then(Value::as_arr);
        qubits
            .expect("region field")
            .iter()
            .map(|q| q.as_num().expect("qubit index") as usize)
            .collect()
    };
    let a = parse_region(&first);
    let b = parse_region(&second);
    assert_eq!(a.len() + b.len(), 16, "8 + 8 on a 16-qubit grid, no slack");
    assert!(a.iter().all(|q| !b.contains(q)), "{a:?} overlaps {b:?}");
    assert!(a.iter().chain(&b).all(|&q| q < 16));

    // The carved regions are still alive after the batch: /regions shows
    // two idle residents on the grid, one job served each.
    let (status, regions) = call(&addr, "GET", "/regions", "");
    assert_eq!(status, 200, "{regions:?}");
    assert_eq!(number(&regions, "carves_performed"), Some(2.0));
    assert_eq!(number(&regions, "carves_skipped"), Some(0.0));
    let devices = regions
        .get("devices")
        .and_then(Value::as_arr)
        .expect("devices");
    assert_eq!(devices.len(), 1, "{regions:?}");
    assert_eq!(text(&devices[0], "device"), Some("grid-4x4"));
    let residents = devices[0].get("regions").and_then(Value::as_arr);
    let residents = residents.expect("resident regions");
    assert_eq!(residents.len(), 2, "{regions:?}");
    for region in residents {
        assert_eq!(region.get("busy"), Some(&Value::Bool(false)), "{region:?}");
        assert_eq!(number(region, "jobs_served"), Some(1.0), "{region:?}");
    }

    // A repeat submission reuses the residents: no new carve, artifacts
    // straight from the resident cache, digests unchanged.
    let (status, ack) = call(&addr, "POST", "/batch", body);
    assert_eq!(status, 200, "{ack:?}");
    let third = poll_done(&addr, 3);
    let fourth = poll_done(&addr, 4);
    assert_eq!(third.get("cached"), Some(&Value::Bool(true)), "{third:?}");
    assert_eq!(fourth.get("cached"), Some(&Value::Bool(true)), "{fourth:?}");
    assert_eq!(text(&third, "stats_digest"), text(&first, "stats_digest"));
    assert_eq!(text(&fourth, "stats_digest"), text(&second, "stats_digest"));
    assert_eq!(parse_region(&third), a);
    assert_eq!(parse_region(&fourth), b);

    // /regions, /stats and /metrics agree on the carve ledger.
    let (_, regions) = call(&addr, "GET", "/regions", "");
    assert_eq!(number(&regions, "carves_performed"), Some(2.0));
    assert_eq!(number(&regions, "carves_skipped"), Some(2.0));
    assert_eq!(number(&regions, "carve_skip_ratio"), Some(0.5));
    let (_, stats) = call(&addr, "GET", "/stats", "");
    for (path, value) in [
        ("scheduler.carves_performed", 2.0),
        ("scheduler.carves_skipped", 2.0),
        ("scheduler.resident_regions", 2.0),
        ("scheduler.queue_depth", 0.0),
    ] {
        assert_eq!(number(&stats, path), Some(value), "{path} in {stats:?}");
    }
    let metrics = client::request(&addr, "GET", "/metrics", "").expect("scrape");
    for series in [
        "tetris_carves_performed_total 2",
        "tetris_carves_skipped_total 2",
        "tetris_defrags_total 0",
        "tetris_regions_released_total 0",
        "tetris_region_occupancy{device=\"grid-4x4\"} 16",
        "tetris_region_queue_depth{device=\"grid-4x4\"} 0",
    ] {
        assert!(
            metrics.body.contains(series),
            "missing `{series}` in:\n{}",
            metrics.body
        );
    }

    // A non-boolean resident flag is rejected whole-batch.
    let (status, response) = call(
        &addr,
        "POST",
        "/batch",
        r#"{ "resident": 1, "jobs": [{"workload": "REG3-8-s1", "backend": "tetris"}] }"#,
    );
    assert_eq!(status, 400, "{response:?}");
}

#[test]
fn trace_log_appends_one_jsonl_record_per_job() {
    let path = std::env::temp_dir().join(format!("tetris-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = start_server(ServerConfig {
        job_ttl: Duration::from_secs(900),
        trace_log: Some(path.clone()),
        ..Default::default()
    });

    let batch = r#"{ "jobs": [
        {"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"},
        {"workload": "REG3-8-s2", "backend": "maxcancel", "device": "ring-9"}
    ] }"#;
    let (status, ack) = call(&addr, "POST", "/batch", batch);
    assert_eq!(status, 200, "{ack:?}");
    poll_done(&addr, 1);
    poll_done(&addr, 2);

    // The log is written before the job table flips to done, so both
    // records are on disk by now: one JSON object per line, each equal to
    // the job's `/trace` entry on every key but the wall-clock stamp.
    let (_, trace) = call(&addr, "GET", "/trace?n=1024", "");
    let events = trace.get("events").and_then(Value::as_arr).expect("events");
    let without_clock = |record: &Value| match record {
        Value::Obj(pairs) => {
            let kept = pairs.iter().filter(|(key, _)| key != "unix_ms");
            kept.cloned().collect::<Vec<_>>()
        }
        other => panic!("not an object: {other:?}"),
    };
    let text_log = std::fs::read_to_string(&path).expect("trace log exists");
    assert_eq!(text_log.lines().count(), 2, "{text_log}");
    for line in text_log.lines() {
        let record = json::parse(line).expect("one JSON object per line");
        for key in ["unix_ms", "name", "engine_seconds", "stages"] {
            assert!(record.get(key).is_some(), "missing {key} in {line}");
        }
        let same_job = |event: &&Value| {
            ["name", "compiler", "engine_seconds"]
                .iter()
                .all(|key| event.get(key) == record.get(key))
        };
        let event = events
            .iter()
            .find(same_job)
            .expect("the job's /trace entry");
        assert_eq!(without_clock(event), without_clock(&record), "{line}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn job_table_stays_bounded_with_ttl_and_delete() {
    // The TTL must comfortably outlive a wave's submit and long-poll plus
    // CI scheduler jitter — poll_done fails on a 404, so a record that
    // expires mid-poll would read as a spurious failure.
    let ttl = Duration::from_secs(1);
    let addr = start_server(ServerConfig {
        job_ttl: ttl,
        ..Default::default()
    });
    let batch =
        r#"{ "jobs": [{"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"}] }"#;

    // Several waves of traffic, each outliving the previous wave's TTL: a
    // long-lived server must not accumulate one record per job ever
    // submitted.
    let waves = 3;
    for wave in 0..waves {
        let (status, ack) = call(&addr, "POST", "/batch", batch);
        assert_eq!(status, 200, "{ack:?}");
        poll_done(&addr, wave + 1);
        std::thread::sleep(ttl + Duration::from_millis(100));
    }
    // Every wave is past its TTL; the next access sweeps them all.
    let (_, stats) = call(&addr, "GET", "/stats", "");
    assert_eq!(
        number(&stats, "jobs_total"),
        Some(0.0),
        "table must be empty after all TTLs elapsed: {stats:?}"
    );
    assert_eq!(
        number(&stats, "jobs_expired"),
        Some(waves as f64),
        "every completed job expired exactly once"
    );
    // Expired ids are gone for good.
    assert_eq!(call(&addr, "GET", "/job/1", "").0, 404);

    // Explicit DELETE: done jobs disappear immediately…
    assert_eq!(call(&addr, "POST", "/batch", batch).0, 200);
    let id = waves + 1;
    poll_done(&addr, id);
    let (status, deleted) = call(&addr, "DELETE", &format!("/job/{id}"), "");
    assert_eq!(status, 200, "{deleted:?}");
    assert_eq!(number(&deleted, "deleted"), Some(id as f64), "{deleted:?}");
    assert_eq!(call(&addr, "GET", &format!("/job/{id}"), "").0, 404);
    // …and a double delete is a clean 404.
    assert_eq!(call(&addr, "DELETE", &format!("/job/{id}"), "").0, 404);

    // Deleting a job while (possibly still) pending must not let the
    // worker resurrect the record when it finishes.
    assert_eq!(call(&addr, "POST", "/batch", batch).0, 200);
    let id = waves + 2;
    assert_eq!(call(&addr, "DELETE", &format!("/job/{id}"), "").0, 200);
    // Give the worker time to finish the batch (the result lands in the
    // engine cache, not the table).
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        call(&addr, "GET", &format!("/job/{id}"), "").0,
        404,
        "deleted pending job must not reappear"
    );
}

//! Live-TCP tests for the reactor front-end: long-polling, result
//! streaming, admission control, the amortized TTL sweep, and graceful
//! drain — everything that needs the server to hold a socket open.
//!
//! Clients speak through `tetris_server::client`, so responses are framed
//! in one place: chunked frames are decoded one by one and compared
//! bit-for-bit with `GET /job/<id>`, and every JSON body is read with
//! `json::parse`. `byte_at_a_time_request_is_served` alone writes its own
//! request bytes, because a request trickled in byte by byte is what it
//! tests; its response is still read by the client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tetris_server::client;
use tetris_server::json::Value;
use tetris_server::{AppState, CompileServer, ServerConfig};

/// A slow job for tests that need time to observe in-flight state: a
/// 24-qubit 3-regular MaxCut through the full tetris pipeline on the
/// 65-qubit heavy-hex device.
const HEAVY: &str = r#"{"workload": "REG3-24-s3", "backend": "tetris", "device": "heavy-hex"}"#;
/// A slow job for region batches: carved down to a 28-qubit region,
/// `HEAVY` compiles too fast to stay observably in flight, while the
/// 25-qubit synthetic UCC workload takes over ten times longer on its own.
const HEAVY_REGION: &str = r#"{"workload": "UCC-25", "backend": "tetris", "device": "heavy-hex"}"#;
/// A fast job for tests that just need a completion.
const TINY: &str = r#"{"workload": "REG3-8-s1", "backend": "maxcancel", "device": "ring-9"}"#;

fn start(config: ServerConfig, threads: usize) -> (String, Arc<AppState>) {
    let server = CompileServer::bind_with(
        "127.0.0.1:0",
        tetris_engine::EngineConfig {
            threads,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        },
        config,
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let state = server.serve_background();
    (addr, state)
}

/// The `status` of a job record body.
fn status(body: &str) -> Option<String> {
    let record = client::json(body).expect("job record");
    record
        .get("status")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Long-polls job `id` to its done record.
fn poll_done(addr: &str, id: u64) -> Value {
    let mut socket = client::connect(addr).expect("connect");
    client::await_job(&mut socket, id).expect("done record")
}

fn batch_body(specs: &[&str]) -> String {
    format!("{{ \"jobs\": [{}] }}", specs.join(", "))
}

/// The `error` message of an error body.
fn error(body: &str) -> String {
    let record = client::json(body).expect("error record");
    let message = record.get("error").and_then(Value::as_str);
    message.expect("error message").to_string()
}

#[test]
fn healthz_reports_liveness_cheaply() {
    let (addr, _) = start(ServerConfig::default(), 1);
    let health = client::request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(health.head.status, 200, "{}", health.body);
    let health = client::json(&health.body).expect("healthz body");
    let number = |key| health.get(key).and_then(Value::as_num);
    assert_eq!(
        number("inflight"),
        Some(0.0),
        "nothing submitted yet: {health:?}"
    );
    assert!(
        number("connections").expect("connections") >= 1.0,
        "the probing socket itself counts: {health:?}"
    );
    let post = client::request(&addr, "POST", "/healthz", "").expect("POST /healthz");
    assert_eq!(post.head.status, 405);
}

#[test]
fn byte_at_a_time_request_is_served() {
    let (addr, _) = start(ServerConfig::default(), 1);
    let mut stream = client::connect(&addr).expect("connect");
    // Trickle the request in: the reactor must accumulate fragments across
    // many poll rounds and answer once the head completes.
    for byte in b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("send byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let head = client::read_head(&mut stream).expect("head");
    assert_eq!(head.status, 200, "{}", head.text);
    let body = client::read_body(&mut stream, &head).expect("body");
    let health = client::json(&body).expect("healthz body");
    assert!(health.get("connections").is_some(), "{body}");
}

#[test]
fn long_poll_answers_on_completion_and_matches_polled_body() {
    let (addr, _) = start(ServerConfig::default(), 1);
    let submit = client::request(&addr, "POST", "/batch", &batch_body(&[HEAVY]));
    assert_eq!(submit.expect("submit").head.status, 200);

    // The park answers with the done record the moment the job finishes —
    // a single request replaces the whole busy-poll loop.
    let waited = client::request(&addr, "GET", "/job/1?wait=1", "").expect("wait");
    assert_eq!(waited.head.status, 200, "{}", waited.body);
    assert_eq!(status(&waited.body).as_deref(), Some("done"));

    // Bit-for-bit identical to what a plain poll reads afterwards.
    let polled = client::request(&addr, "GET", "/job/1", "").expect("poll");
    assert_eq!(
        waited.body, polled.body,
        "long-polled body must equal polled body"
    );

    // wait=1 on an already-done job answers immediately.
    let t0 = Instant::now();
    let again = client::request(&addr, "GET", "/job/1?wait=1", "").expect("wait");
    assert_eq!(again.head.status, 200);
    assert_eq!(again.body, polled.body);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "done job must not park"
    );
}

#[test]
fn long_poll_timeout_falls_back_to_pending() {
    // One worker, and job 1 is a compile heavy enough (~300ms release)
    // to still own it when the 100ms park below expires — so job 2 is
    // deterministically pending however fast the machine is.
    const BLOCKER: &str = r#"{"workload": "UCC-28", "backend": "tetris", "device": "heavy-hex"}"#;
    let (addr, _) = start(ServerConfig::default(), 1);
    let submit = client::request(&addr, "POST", "/batch", &batch_body(&[BLOCKER, HEAVY]));
    assert_eq!(submit.expect("submit").head.status, 200);

    let t0 = Instant::now();
    let parked = client::request(&addr, "GET", "/job/2?wait=1&wait_ms=100", "").expect("wait");
    let elapsed = t0.elapsed();
    assert_eq!(parked.head.status, 200, "{}", parked.body);
    assert_eq!(
        status(&parked.body).as_deref(),
        Some("pending"),
        "timeout must fall back to the pending record: {}",
        parked.body
    );
    assert!(
        elapsed >= Duration::from_millis(100),
        "the park must actually wait its bound, waited {elapsed:?}"
    );
}

#[test]
fn inflight_cap_sheds_batches_with_retry_after() {
    let (addr, _) = start(
        ServerConfig {
            max_inflight: 1,
            ..Default::default()
        },
        1,
    );
    // Two jobs against a cap of one: shed whole, nothing enqueued.
    let shed = client::request(&addr, "POST", "/batch", &batch_body(&[TINY, TINY])).expect("shed");
    assert_eq!(shed.head.status, 503, "{}", shed.body);
    assert_eq!(
        shed.head.header("Retry-After"),
        Some("1"),
        "shed responses must carry Retry-After: {}",
        shed.head.text
    );
    assert!(error(&shed.body).contains("in-flight"), "{}", shed.body);

    // Nothing was enqueued, so a batch that fits is admitted.
    let fits = client::request(&addr, "POST", "/batch", &batch_body(&[TINY])).expect("submit");
    assert_eq!(fits.head.status, 200, "a fitting batch must be admitted");
    assert_eq!(
        client::json(&fits.body).expect("ack").get("job_ids"),
        Some(&Value::Arr(vec![Value::Num(1.0)])),
        "ids start after the shed batch reserved none: {}",
        fits.body
    );
    poll_done(&addr, 1);
}

#[test]
fn oversized_batch_is_shed_before_any_registry_build() {
    let (addr, state) = start(
        ServerConfig {
            max_inflight: 2,
            ..Default::default()
        },
        1,
    );
    let specs = [
        r#"{"workload": "REG3-10-s1", "backend": "maxcancel", "device": "ring-11"}"#,
        r#"{"workload": "REG3-10-s2", "backend": "maxcancel", "device": "ring-11"}"#,
        r#"{"workload": "REG3-10-s3", "backend": "maxcancel", "device": "ring-11"}"#,
    ];
    let shed = client::request(&addr, "POST", "/batch", &batch_body(&specs)).expect("shed");
    assert_eq!(shed.head.status, 503, "{}", shed.body);
    assert_eq!(
        state.registry_stats().builds,
        0,
        "a shed batch must not pay for registry builds"
    );
    assert_eq!(state.admission_counters().2, 1);

    let fits = client::request(&addr, "POST", "/batch", &batch_body(&specs[..2])).expect("submit");
    assert_eq!(fits.head.status, 200, "{}", fits.body);
    assert_eq!(
        state.registry_stats().builds,
        3,
        "two workloads and a device"
    );
    poll_done(&addr, 1);
    poll_done(&addr, 2);
}

#[test]
fn repeat_names_hit_the_memo_and_stats_match_metrics() {
    let (addr, state) = start(ServerConfig::default(), 1);
    let submit = client::request(&addr, "POST", "/batch", &batch_body(&[TINY]));
    assert_eq!(submit.expect("submit").head.status, 200);
    poll_done(&addr, 1);
    let first = state.registry_stats();
    assert_eq!((first.hits, first.builds), (0, 2), "{first:?}");

    // The re-POST is served from the server-lifetime memo.
    let submit = client::request(&addr, "POST", "/batch", &batch_body(&[TINY]));
    assert_eq!(submit.expect("resubmit").head.status, 200);
    let again = poll_done(&addr, 2);
    assert_eq!(again.get("cached"), Some(&Value::Bool(true)), "{again:?}");
    let second = state.registry_stats();
    assert_eq!((second.hits, second.builds), (2, 2), "{second:?}");
    assert_eq!(second.terms, first.terms);

    let stats = client::request(&addr, "GET", "/stats", "").expect("stats");
    let stats = client::json(&stats.body).expect("stats body");
    for (key, value) in [
        ("registry.hits", second.hits),
        ("registry.builds", second.builds),
        ("registry.evictions", second.evictions),
        ("registry.terms", second.terms as u64),
    ] {
        let served = stats.at(key).and_then(Value::as_num);
        assert_eq!(served, Some(value as f64), "{key} in {stats:?}");
    }
    let metrics = client::request(&addr, "GET", "/metrics", "").expect("metrics");
    let metrics = metrics.body;
    assert!(metrics.contains("# TYPE tetris_threads gauge"), "{metrics}");
    let value = |series: &str| -> u64 {
        let prefix = format!("{series} ");
        let line = metrics
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()));
        line.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing `{series}` in:\n{metrics}"))
    };
    assert_eq!(value("tetris_registry_memo_hits_total"), second.hits);
    assert_eq!(value("tetris_registry_memo_builds_total"), second.builds);
    assert_eq!(
        value("tetris_registry_memo_evictions_total"),
        second.evictions
    );
    assert_eq!(value("tetris_registry_memo_terms"), second.terms as u64);
    assert!(value("tetris_threads") > 0);
}

#[test]
fn connection_cap_sheds_new_sockets() {
    let (addr, _) = start(
        ServerConfig {
            max_connections: 2,
            ..Default::default()
        },
        1,
    );
    // Fill both slots with live keep-alive sockets (a completed round trip
    // proves each is registered, not just in the accept queue).
    let mut a = client::connect(&addr).expect("connect");
    let health = client::round_trip(&mut a, "GET", "/healthz", "", true).expect("a");
    assert_eq!(health.head.status, 200);
    let mut b = client::connect(&addr).expect("connect");
    let health = client::round_trip(&mut b, "GET", "/healthz", "", true).expect("b");
    assert_eq!(health.head.status, 200);

    // The third socket is answered 503 and closed at accept time.
    let mut c = client::connect(&addr).expect("connect");
    let head = client::read_head(&mut c).expect("shed head");
    assert_eq!(head.status, 503, "{}", head.text);
    assert_eq!(head.header("Retry-After"), Some("1"), "{}", head.text);
    let body = client::read_body(&mut c, &head).expect("shed body");
    assert!(error(&body).contains("too many connections"), "{body}");
    assert_eq!(c.read(&mut [0; 1]).expect("read to close"), 0, "closed");

    // Still-open sockets keep working, and the scrape (through one of
    // them) shows the connection/backpressure series.
    let scrape = client::round_trip(&mut a, "GET", "/metrics", "", true).expect("scrape");
    assert_eq!(scrape.head.status, 200);
    let metrics = scrape.body;
    for series in [
        "tetris_http_connections 2",
        "tetris_http_shed_total{reason=\"connections\"} 1",
        "tetris_http_shed_total{reason=\"inflight\"} 0",
        "tetris_longpoll_waiters 0",
    ] {
        assert!(metrics.contains(series), "missing `{series}` in scrape");
    }
    let accepted: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("tetris_http_accepted_total "))
        .expect("accepted series")
        .trim()
        .parse()
        .expect("numeric");
    assert_eq!(accepted, 3, "two served + one shed were all accepted");
}

#[test]
fn streamed_frames_arrive_before_batch_completes_and_match_get_job() {
    // Plain and region batches share one completion path, so both stream
    // each job's frame as soon as its worker answers it.
    streamed_frames_arrive_before_batch_completes(false, HEAVY);
    streamed_frames_arrive_before_batch_completes(true, HEAVY_REGION);
}

fn streamed_frames_arrive_before_batch_completes(resident: bool, heavy: &str) {
    let (addr, _) = start(ServerConfig::default(), 1);
    // Pre-seed the cache so the first streamed job completes instantly
    // while the heavy one still occupies the single worker (with
    // `resident`, the seed leaves TINY's region free and its relabeled
    // artifact cached).
    let seed = format!("{{ \"jobs\": [{TINY}], \"resident\": {resident} }}");
    let submit = client::request(&addr, "POST", "/batch", &seed).expect("seed");
    assert_eq!(submit.head.status, 200, "{}", submit.body);
    poll_done(&addr, 1);

    let mut stream = client::connect(&addr).expect("connect");
    let batch =
        format!("{{ \"jobs\": [{TINY}, {heavy}], \"stream\": true, \"resident\": {resident} }}");
    client::write_request(&mut stream, "POST", "/batch", &batch, true).expect("send");
    let head = client::read_head(&mut stream).expect("head");
    assert_eq!(head.status, 200, "{}", head.text);
    assert!(
        head.is_chunked(),
        "streaming must be chunked: {}",
        head.text
    );
    let mut frame = || client::read_chunk(&mut stream).expect("chunk");
    let record = |frame: &str| client::json(frame).expect("frame record");
    let number = |frame: &str, key| record(frame).get(key).and_then(Value::as_num);

    // Frame 1: the job-ids acknowledgment.
    let ack = frame().expect("ack frame");
    let ids = Value::Arr(vec![Value::Num(2.0), Value::Num(3.0)]);
    assert_eq!(record(&ack).get("job_ids"), Some(&ids), "{ack}");

    // Frame 2: the cached job, pushed while the heavy one is still
    // compiling — proven by a pending poll on a second socket taken
    // between the two frames.
    let first = frame().expect("first result frame");
    assert_eq!(number(&first, "id"), Some(2.0), "{first}");
    assert_eq!(status(&first).as_deref(), Some("done"), "{first}");
    assert_eq!(record(&first).get("region").is_some(), resident, "{first}");
    let sibling = client::request(&addr, "GET", "/job/3", "").expect("sibling");
    assert_eq!(
        status(&sibling.body).as_deref(),
        Some("pending"),
        "the heavy sibling must still be in flight when the cached \
         job's frame arrives (resident: {resident}): {}",
        sibling.body
    );
    // Frame 3: the heavy job, then the terminating chunk.
    let second = frame().expect("second result frame");
    assert_eq!(number(&second, "id"), Some(3.0), "{second}");
    assert_eq!(status(&second).as_deref(), Some("done"), "{second}");
    assert!(frame().is_none(), "stream must terminate");

    // Every frame is bit-for-bit the body `GET /job/<id>` serves.
    let polled2 = client::request(&addr, "GET", "/job/2", "").expect("poll");
    let polled3 = client::request(&addr, "GET", "/job/3", "").expect("poll");
    assert_eq!(first, polled2.body, "frame must equal the polled body");
    assert_eq!(second, polled3.body, "frame must equal the polled body");

    // The socket is reusable after the terminating chunk.
    let health = client::round_trip(&mut stream, "GET", "/healthz", "", true).expect("healthz");
    assert_eq!(health.head.status, 200, "keep-alive must survive a stream");
}

#[test]
fn expired_jobs_vanish_on_reactor_tick_without_access() {
    let ttl = Duration::from_millis(300);
    let (addr, state) = start(
        ServerConfig {
            job_ttl: ttl,
            ..Default::default()
        },
        1,
    );
    let submit = client::request(&addr, "POST", "/batch", &batch_body(&[TINY]));
    assert_eq!(submit.expect("submit").head.status, 200);
    poll_done(&addr, 1);
    assert_eq!(state.job_count(), 1, "done record present before the TTL");
    // No HTTP access from here on: only the reactor's amortized sweep tick
    // can evict the record. One TTL plus one sweep interval (ttl/2) plus
    // scheduler slack must be enough.
    std::thread::sleep(ttl + ttl / 2 + Duration::from_millis(500));
    assert_eq!(
        state.job_count(),
        0,
        "the tick sweep must evict expired records without any table access"
    );
}

#[test]
fn graceful_drain_finishes_longpolls_then_refuses_connects() {
    let (addr, state) = start(ServerConfig::default(), 1);
    let submit = client::request(&addr, "POST", "/batch", &batch_body(&[HEAVY]));
    assert_eq!(submit.expect("submit").head.status, 200);

    // Park a long-poll, then ask the server to drain while it waits.
    let mut parked = client::connect(&addr).expect("connect");
    client::write_request(&mut parked, "GET", "/job/1?wait=1", "", true).expect("send");
    std::thread::sleep(Duration::from_millis(100));
    state.handle().shutdown();

    // The drain must let the park finish: the full done record arrives,
    // then the server closes the socket.
    let head = client::read_head(&mut parked).expect("head");
    assert_eq!(head.status, 200, "{}", head.text);
    let body = client::read_body(&mut parked, &head).expect("body");
    assert_eq!(
        status(&body).as_deref(),
        Some("done"),
        "a parked long-poll must be answered, not dropped, on drain: {body}"
    );
    assert_eq!(parked.read(&mut [0; 1]).expect("read to close"), 0);

    // New connections are refused once the listener is gone.
    let t0 = Instant::now();
    loop {
        if TcpStream::connect(&addr).is_err() {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "drained server must stop accepting"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

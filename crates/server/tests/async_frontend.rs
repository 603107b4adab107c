//! Live-TCP tests for the reactor front-end: long-polling, result
//! streaming, admission control, the amortized TTL sweep, and graceful
//! drain — everything that needs the server to hold a socket open.
//!
//! All clients here are raw `TcpStream`s speaking HTTP/1.1 by hand, so
//! the tests see exact bytes: chunked frames are decoded chunk by chunk
//! and response bodies are compared bit-for-bit against `GET /job/<id>`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
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

/// Sends one request on a fresh `Connection: close` socket.
fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = connect(addr);
    send(&mut stream, addr, method, path, body, false);
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status = response
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

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream
}

fn send(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    keep_alive: bool,
) {
    let body = body.unwrap_or("");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
}

/// Reads status line + headers (byte-wise, so nothing past the head is
/// consumed). Returns `(status, raw head)`.
fn read_head(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("head byte");
        head.push(byte[0]);
    }
    let text = String::from_utf8(head).expect("ascii head");
    let status = text
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, text)
}

/// Reads a `Content-Length`-framed body following `head`.
fn read_body(stream: &mut TcpStream, head: &str) -> String {
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().expect("numeric content-length"))
        })
        .expect("content-length header");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("utf8 body")
}

/// One keep-alive request/response round trip on an open socket.
fn round_trip(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String) {
    send(stream, addr, method, path, body, true);
    let (status, head) = read_head(stream);
    (status, read_body(stream, &head))
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while !line.ends_with(b"\n") {
        stream.read_exact(&mut byte).expect("line byte");
        line.push(byte[0]);
    }
    String::from_utf8(line).expect("ascii line")
}

/// Decodes one chunked transfer-encoding frame; `None` on the
/// terminating zero-length chunk.
fn read_chunk(stream: &mut TcpStream) -> Option<String> {
    let size_line = read_line(stream);
    let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
    if size == 0 {
        assert_eq!(read_line(stream), "\r\n", "terminator ends with CRLF");
        return None;
    }
    let mut payload = vec![0u8; size];
    stream.read_exact(&mut payload).expect("chunk payload");
    let mut crlf = [0u8; 2];
    stream.read_exact(&mut crlf).expect("chunk CRLF");
    assert_eq!(&crlf, b"\r\n");
    Some(String::from_utf8(payload).expect("utf8 frame"))
}

/// Extracts `"key": "value"` or `"key": value` from a flat JSON body.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn poll_done(addr: &str, id: u64) -> String {
    let t0 = Instant::now();
    loop {
        let (status, body) = request(addr, "GET", &format!("/job/{id}"), None);
        assert_eq!(status, 200, "poll must succeed: {body}");
        match field(&body, "status") {
            Some("done") => return body,
            Some("pending") => {
                assert!(
                    t0.elapsed() < Duration::from_secs(120),
                    "job {id} did not finish in time"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected status {other:?} in {body}"),
        }
    }
}

fn batch_body(specs: &[&str]) -> String {
    format!("{{ \"jobs\": [{}] }}", specs.join(", "))
}

#[test]
fn healthz_reports_liveness_cheaply() {
    let (addr, _) = start(ServerConfig::default(), 1);
    let (status, body) = request(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    let inflight: u64 = field(&body, "inflight")
        .expect("inflight")
        .parse()
        .expect("numeric");
    let connections: u64 = field(&body, "connections")
        .expect("connections")
        .parse()
        .expect("numeric");
    assert_eq!(inflight, 0, "nothing submitted yet: {body}");
    assert!(connections >= 1, "the probing socket itself counts: {body}");
    assert_eq!(request(&addr, "POST", "/healthz", None).0, 405);
}

#[test]
fn byte_at_a_time_request_is_served() {
    let (addr, _) = start(ServerConfig::default(), 1);
    let mut stream = connect(&addr);
    // Trickle the request in: the reactor must accumulate fragments across
    // many poll rounds and answer once the head completes.
    for byte in b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("send byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"connections\""), "{response}");
}

#[test]
fn long_poll_answers_on_completion_and_matches_polled_body() {
    let (addr, _) = start(ServerConfig::default(), 1);
    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&[HEAVY])));
    assert_eq!(status, 200, "{body}");

    // The park answers with the done record the moment the job finishes —
    // a single request replaces the whole busy-poll loop.
    let (status, waited) = request(&addr, "GET", "/job/1?wait=1", None);
    assert_eq!(status, 200, "{waited}");
    assert_eq!(field(&waited, "status"), Some("done"), "{waited}");

    // Bit-for-bit identical to what a plain poll reads afterwards.
    let polled = poll_done(&addr, 1);
    assert_eq!(waited, polled, "long-polled body must equal polled body");

    // wait=1 on an already-done job answers immediately.
    let t0 = Instant::now();
    let (status, again) = request(&addr, "GET", "/job/1?wait=1", None);
    assert_eq!(status, 200);
    assert_eq!(again, polled);
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
    let (status, body) = request(
        &addr,
        "POST",
        "/batch",
        Some(&batch_body(&[BLOCKER, HEAVY])),
    );
    assert_eq!(status, 200, "{body}");

    let t0 = Instant::now();
    let (status, body) = request(&addr, "GET", "/job/2?wait=1&wait_ms=100", None);
    let elapsed = t0.elapsed();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        field(&body, "status"),
        Some("pending"),
        "timeout must fall back to the pending record: {body}"
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
    let mut stream = connect(&addr);
    send(
        &mut stream,
        &addr,
        "POST",
        "/batch",
        Some(&batch_body(&[TINY, TINY])),
        false,
    );
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(
        response.contains("Retry-After: 1"),
        "shed responses must carry Retry-After: {response}"
    );
    assert!(response.contains("in-flight"), "{response}");

    // Nothing was enqueued, so a batch that fits is admitted.
    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&[TINY])));
    assert_eq!(status, 200, "a fitting batch must be admitted: {body}");
    assert!(
        body.contains("\"job_ids\": [1]"),
        "ids start after the shed batch reserved none: {body}"
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
    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&specs)));
    assert_eq!(status, 503, "{body}");
    assert_eq!(
        state.registry_stats().builds,
        0,
        "a shed batch must not pay for registry builds"
    );
    assert_eq!(state.admission_counters().2, 1);

    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&specs[..2])));
    assert_eq!(status, 200, "{body}");
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
    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&[TINY])));
    assert_eq!(status, 200, "{body}");
    poll_done(&addr, 1);
    let first = state.registry_stats();
    assert_eq!((first.hits, first.builds), (0, 2), "{first:?}");

    // The re-POST is served from the server-lifetime memo.
    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&[TINY])));
    assert_eq!(status, 200, "{body}");
    let again = poll_done(&addr, 2);
    assert_eq!(field(&again, "cached"), Some("true"), "{again}");
    let second = state.registry_stats();
    assert_eq!((second.hits, second.builds), (2, 2), "{second:?}");
    assert_eq!(second.terms, first.terms);

    let (_, stats) = request(&addr, "GET", "/stats", None);
    let registry = &stats[stats.find("\"registry\":").expect("registry object")..];
    for (key, value) in [
        ("hits", second.hits),
        ("builds", second.builds),
        ("evictions", second.evictions),
        ("terms", second.terms as u64),
    ] {
        assert_eq!(
            field(registry, key),
            Some(value.to_string().as_str()),
            "{stats}"
        );
    }
    let (_, metrics) = request(&addr, "GET", "/metrics", None);
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
    let mut a = connect(&addr);
    assert_eq!(round_trip(&mut a, &addr, "GET", "/healthz", None).0, 200);
    let mut b = connect(&addr);
    assert_eq!(round_trip(&mut b, &addr, "GET", "/healthz", None).0, 200);

    // The third socket is answered 503 and closed at accept time.
    let mut c = connect(&addr);
    let mut response = String::new();
    c.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After: 1"), "{response}");
    assert!(response.contains("too many connections"), "{response}");

    // Still-open sockets keep working, and the scrape (through one of
    // them) shows the connection/backpressure series.
    let (status, metrics) = round_trip(&mut a, &addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
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
    let (status, body) = request(&addr, "POST", "/batch", Some(&seed));
    assert_eq!(status, 200, "{body}");
    poll_done(&addr, 1);

    let mut stream = connect(&addr);
    let batch =
        format!("{{ \"jobs\": [{TINY}, {heavy}], \"stream\": true, \"resident\": {resident} }}");
    send(&mut stream, &addr, "POST", "/batch", Some(&batch), true);
    let (status, head) = read_head(&mut stream);
    assert_eq!(status, 200, "{head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "streaming must be chunked: {head}"
    );

    // Frame 1: the job-ids acknowledgment.
    let ack = read_chunk(&mut stream).expect("ack frame");
    assert!(ack.contains("\"job_ids\": [2, 3]"), "{ack}");

    // Frame 2: the cached job, pushed while the heavy one is still
    // compiling — proven by a pending poll on a second socket taken
    // between the two frames.
    let first = read_chunk(&mut stream).expect("first result frame");
    assert_eq!(field(&first, "id"), Some("2"), "{first}");
    assert_eq!(field(&first, "status"), Some("done"), "{first}");
    assert_eq!(first.contains("\"region\""), resident, "{first}");
    let (_, sibling) = request(&addr, "GET", "/job/3", None);
    assert_eq!(
        field(&sibling, "status"),
        Some("pending"),
        "the heavy sibling must still be in flight when the cached \
         job's frame arrives (resident: {resident}): {sibling}"
    );
    // Frame 3: the heavy job, then the terminating chunk.
    let second = read_chunk(&mut stream).expect("second result frame");
    assert_eq!(field(&second, "id"), Some("3"), "{second}");
    assert_eq!(field(&second, "status"), Some("done"), "{second}");
    assert!(read_chunk(&mut stream).is_none(), "stream must terminate");

    // Every frame is bit-for-bit the body `GET /job/<id>` serves.
    let (_, polled2) = request(&addr, "GET", "/job/2", None);
    let (_, polled3) = request(&addr, "GET", "/job/3", None);
    assert_eq!(first, polled2, "frame must equal the polled body");
    assert_eq!(second, polled3, "frame must equal the polled body");

    // The socket is reusable after the terminating chunk.
    let (status, body) = round_trip(&mut stream, &addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "keep-alive must survive a stream: {body}");
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
    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&[TINY])));
    assert_eq!(status, 200, "{body}");
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
    let (status, body) = request(&addr, "POST", "/batch", Some(&batch_body(&[HEAVY])));
    assert_eq!(status, 200, "{body}");

    // Park a long-poll, then ask the server to drain while it waits.
    let mut parked = connect(&addr);
    send(&mut parked, &addr, "GET", "/job/1?wait=1", None, true);
    std::thread::sleep(Duration::from_millis(100));
    state.handle().shutdown();

    // The drain must let the park finish: the full done record arrives,
    // then the server closes the socket (EOF ends the read).
    let mut response = String::new();
    parked.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(
        response.contains("\"status\": \"done\""),
        "a parked long-poll must be answered, not dropped, on drain: {response}"
    );

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

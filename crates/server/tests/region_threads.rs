//! Region batches spawn no thread: every resident job is answered and
//! delivered by an engine pool worker, and a batch waiting for a region
//! waits in the scheduler's device state.
//!
//! This is the only test in its binary on purpose: cargo runs a binary's
//! tests as threads of one process, so any sibling test would move the
//! OS thread count this test samples.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tetris_server::{CompileServer, ServerConfig};

/// The process's OS thread count, from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// Sends one request on a fresh `Connection: close` socket; returns the
/// response body.
fn request(addr: &str, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

#[cfg(target_os = "linux")]
#[test]
fn contending_region_batches_spawn_no_threads() {
    let server = CompileServer::bind_with(
        "127.0.0.1:0",
        tetris_engine::EngineConfig {
            threads: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
        },
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let state = server.serve_background();
    let baseline = os_threads();
    let mut peak = baseline;

    // 24 one-job batches of distinct 12-qubit workloads: one 12-qubit
    // region fits on the 16-qubit grid, so all but one batch wait on it.
    const BATCHES: usize = 24;
    for k in 0..BATCHES {
        let body = format!(
            r#"{{ "resident": true, "jobs": [{{"workload": "REG3-12-s{k}", "backend": "tetris", "device": "grid-4x4"}}] }}"#
        );
        let ack = request(&addr, "POST", "/batch", &body);
        assert!(ack.contains("job_ids"), "{ack}");
        peak = peak.max(os_threads());
    }

    let deadline = Instant::now() + Duration::from_secs(120);
    for id in 1..=BATCHES {
        loop {
            peak = peak.max(os_threads());
            let record = request(&addr, "GET", &format!("/job/{id}"), "");
            if record.contains("\"status\": \"done\"") {
                assert!(!record.contains("\"error\""), "{record}");
                assert!(record.contains("\"region\""), "{record}");
                break;
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(state.scheduler().stats().carves_performed, 1);
    assert!(
        peak <= baseline,
        "region batches raised the process from {baseline} to {peak} OS threads"
    );
}

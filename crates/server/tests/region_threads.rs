//! Region batches spawn no thread: every resident job is answered and
//! delivered by an engine pool worker, and a batch waiting for a region
//! waits in the scheduler's device state.
//!
//! This is the only test in its binary on purpose: cargo runs a binary's
//! tests as threads of one process, so any sibling test would move the
//! OS thread count this test samples.

use std::time::{Duration, Instant};
use tetris_server::client;
use tetris_server::json::Value;
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

/// `method path` on a fresh connection: a `200` body, parsed.
fn call(addr: &str, method: &str, path: &str, body: &str) -> Value {
    let response = client::request(addr, method, path, body).expect("request");
    assert_eq!(response.head.status, 200, "{}", response.body);
    client::json(&response.body).expect("JSON body")
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
        let ack = call(&addr, "POST", "/batch", &body);
        assert!(ack.get("job_ids").is_some(), "{ack:?}");
        peak = peak.max(os_threads());
    }

    let deadline = Instant::now() + Duration::from_secs(120);
    for id in 1..=BATCHES {
        loop {
            peak = peak.max(os_threads());
            let record = call(&addr, "GET", &format!("/job/{id}"), "");
            if record.get("status").and_then(Value::as_str) == Some("done") {
                assert!(record.get("error").is_none(), "{record:?}");
                assert!(record.get("region").is_some(), "{record:?}");
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

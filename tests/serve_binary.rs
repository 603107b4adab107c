//! `tetris serve` as a separate process: what the in-process server tests
//! (`crates/server/tests/{smoke,async_frontend}.rs`) cannot see. The
//! command-line flags reach the server (`--cache-dir`, `--trace-log`,
//! `--max-inflight`), the trace log holds one record per job, and a second
//! process on the same cache directory answers the batch from disk.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tetris::server::json::{self, Value};

/// A `tetris serve` child on an ephemeral port, killed and reaped on drop.
struct Served {
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Served {
    fn start(flags: &[&str]) -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tetris"))
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn tetris serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on http://");
        let addr = addr.unwrap_or_default().to_string();
        let served = Served {
            child,
            _stdout: stdout,
            addr,
        };
        assert!(!served.addr.is_empty(), "no listening line: {line:?}");
        served
    }

    /// One request on its own connection: `(status, head, body)`.
    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        let (head, body) = response.split_once("\r\n\r\n").expect("header end");
        let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
        (
            status.expect("status code"),
            head.to_string(),
            body.to_string(),
        )
    }

    /// A `200` JSON response, parsed.
    fn json(&self, method: &str, path: &str, body: &str) -> Value {
        let (status, _, body) = self.request(method, path, body);
        assert_eq!(status, 200, "{method} {path}: {body}");
        json::parse(&body).unwrap_or_else(|e| panic!("{method} {path}: {e} in {body}"))
    }

    /// Submits `batch` and long-polls every job to its done record.
    fn run_batch(&self, batch: &str) -> Vec<Value> {
        let ack = self.json("POST", "/batch", batch);
        let ids = ack.get("job_ids").and_then(Value::as_arr).expect("job ids");
        let deadline = Instant::now() + Duration::from_secs(120);
        ids.iter()
            .map(|id| loop {
                let id = id.as_num().expect("numeric id");
                let job = self.json("GET", &format!("/job/{id}?wait=1"), "");
                if job.get("status").and_then(Value::as_str) == Some("done") {
                    assert!(job.get("error").is_none(), "{job:?}");
                    break job;
                }
                assert!(Instant::now() < deadline, "job {id} did not finish");
            })
            .collect()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let field = path.iter().try_fold(v, |v, key| v.get(key));
    field.and_then(Value::as_num).expect("numeric field")
}

const BATCH: &str = r#"{ "jobs": [
    {"workload": "REG3-8-s1", "backend": "tetris", "device": "grid-4x4"},
    {"workload": "REG3-8-s2", "backend": "2qan-s7", "device": "grid-4x4"}
] }"#;

#[test]
fn serve_flags_trace_log_and_a_shared_disk_cache() {
    let dir = std::env::temp_dir().join(format!("tetris-serve-binary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8 path");
    let trace = dir.join("trace.jsonl");

    // First process: compiles the batch cold, writes every artifact
    // through to the disk tier, and logs one trace record per job.
    let first = Served::start(&[
        "--cache-dir",
        cache,
        "--trace-log",
        trace.to_str().expect("utf-8 path"),
    ]);
    let cold = first.run_batch(BATCH);
    drop(first);
    for job in &cold {
        assert_eq!(job.get("cached"), Some(&Value::Bool(false)), "{job:?}");
    }
    let log = std::fs::read_to_string(&trace).expect("trace log written");
    assert_eq!(log.lines().count(), cold.len(), "{log}");
    for line in log.lines() {
        let record = json::parse(line).expect("one JSON object per line");
        for key in ["unix_ms", "name", "compiler", "engine_seconds", "stages"] {
            assert!(record.get(key).is_some(), "missing {key} in {line}");
        }
    }

    // Second process on the same cache directory: the same batch, every
    // job answered from the first process's disk tier, bit-identical.
    let second = Served::start(&["--cache-dir", cache]);
    let warm = second.run_batch(BATCH);
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.get("cached"), Some(&Value::Bool(true)), "{w:?}");
        assert_eq!(w.get("stats_digest"), c.get("stats_digest"));
    }
    let stats = second.json("GET", "/stats", "");
    assert_eq!(num(&stats, &["cache", "disk_hits"]), warm.len() as f64);
    assert_eq!(num(&stats, &["cache", "disk_hit_ratio"]), 1.0);
    drop(second);

    // Admission cap from the command line: a two-job batch over
    // `--max-inflight 1` is shed before any workload or device is built.
    let capped = Served::start(&["--max-inflight", "1"]);
    let (status, head, body) = capped.request("POST", "/batch", BATCH);
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("\r\nRetry-After: 1\r\n"), "{head}");
    assert_eq!(
        num(&capped.json("GET", "/stats", ""), &["registry", "builds"]),
        0.0
    );
    let (_, _, metrics) = capped.request("GET", "/metrics", "");
    assert!(
        metrics.contains("tetris_http_shed_total{reason=\"inflight\"} 1"),
        "{metrics}"
    );
    drop(capped);
    let _ = std::fs::remove_dir_all(&dir);
}

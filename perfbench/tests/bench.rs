//! Tests of the benchmark itself, on tiny inputs: every workload reports
//! every metric `BENCHMARK.json` names with its unit, and failures the
//! checks must catch (a wrong digest, a shed batch) are counted.

use perfbench::{Opts, Report, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use tetris_server::json::{self, Value};

fn tiny(workload: &str, trace: bool) -> Opts {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{trace}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    Opts {
        scale: Scale::Tiny,
        ..Opts::new(3, 0.5, trace, dir)
    }
}

fn run(workload: &str, opts: &Opts) -> Report {
    let report = perfbench::run(workload, opts).expect("the run completes");
    let _ = std::fs::remove_dir_all(&opts.workdir);
    report
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .expect("string field")
            .to_string()
    };
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = run(workload, &tiny(workload, trace));
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(reported(&report), want, "{workload} trace={trace}");
            assert!(report.correct(), "{workload} trace={trace}: {report:?}");
            assert!(report.attempted > 0);
            assert!(report.metrics.iter().all(|(_, v, _)| v.is_finite()));
            if !trace {
                for name in [
                    "setup_s",
                    "wall_s",
                    "p50_ms",
                    "p99_ms",
                    "rps",
                    "peak_rss_mb",
                    "cnot_total",
                ] {
                    assert!(
                        report.get(name).unwrap() > 0.0,
                        "{workload}: {name} must not be 0"
                    );
                }
                assert_eq!(report.get("ok_frac"), Some(1.0));
            }
        }
    }
}

#[test]
fn a_bad_digest_is_counted_as_a_failure() {
    let opts = Opts {
        corrupt_digest: true,
        ..tiny("warm-resubmit", false)
    };
    let report = run("warm-resubmit", &opts);
    assert!(!report.correct());
    assert!(report.failed > 0);
    assert!(report.get("ok_frac").unwrap() < 1.0);
}

#[test]
fn a_shed_batch_is_counted_as_a_failure_and_a_latency_miss() {
    // Region batches carry four jobs: above the cap they are shed with
    // 503, while the one-job warm requests still pass.
    let opts = Opts {
        max_inflight: 2,
        seconds: 2.0,
        ..tiny("mixed-open", true)
    };
    let report = run("mixed-open", &opts);
    assert!(report.failed > 0, "{report:?}");
    assert!(report.get("server.shed").unwrap() > 0.0);

    let untraced = Opts {
        trace: false,
        ..opts
    };
    let report = run("mixed-open", &untraced);
    assert!(report.failed > 0);
    assert!(report.get("ok_frac").unwrap() < 1.0);
    assert!(report.get("slo_frac").unwrap() < 1.0);
}

//! Service benchmark of the Tetris compilation server.
//!
//! Each workload drives an in-process [`tetris_server::CompileServer`] on
//! a loopback port over real TCP, from at most two client threads on at
//! most two connections, measures for a fixed time, then checks every
//! served result against a direct compile. A run reports either the
//! end-to-end metrics ([`END_TO_END`]) or, traced, the per-layer metrics
//! ([`PER_LAYER`]); see `README.md` for what each workload stresses and
//! which end-to-end metric each layer metric should move.

mod check;
mod client;
mod cold;
mod layers;
mod mixed;
mod server;
mod spec;
mod stats;
mod warm;

use check::{Quality, Tally};
use std::collections::HashMap;
use std::path::PathBuf;

/// Input size: `Full` is what the benchmark measures; `Tiny` swaps in a
/// few small jobs so the benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The documented workloads.
    Full,
    /// Small stand-ins with the same shape.
    Tiny,
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: QAOA instance seeds, request order, fresh names.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for the disk tier and probe files.
    pub workdir: PathBuf,
    /// Server in-flight job cap (the server default unless a test forces
    /// sheds).
    pub max_inflight: usize,
    /// Flip the first served digest before checking (tests only).
    pub corrupt_digest: bool,
}

impl Opts {
    /// Defaults for `seed`, `seconds` and `trace`.
    pub fn new(seed: u64, seconds: f64, trace: bool, workdir: PathBuf) -> Self {
        Opts {
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            workdir,
            max_inflight: tetris_server::ServerConfig::default().max_inflight,
            corrupt_digest: false,
        }
    }

    /// Measuring time of the untraced phase: a traced run measures the
    /// workload untraced and then traced, half the time each, so the
    /// difference is the tracing overhead.
    pub fn base_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["compile-cold", "warm-resubmit", "mixed-open"];

/// End-to-end metrics and their units (printed with `--trace 0`).
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rps", "1/s"),
    ("slo_frac", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cnot_total", "count"),
    ("depth_total", "count"),
    ("duration_total", "dt"),
    ("cnot_ratio_ph", "ratio"),
];

/// Per-layer metrics and their units (printed with `--trace 1`).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("server.ack_ms", "ms"),
    ("server.result_ms", "ms"),
    ("server.healthz_ms", "ms"),
    ("server.response_kb", "KB"),
    ("server.request_parse_us", "us"),
    ("server.json_parse_us", "us"),
    ("server.registry_ms.molecule", "ms"),
    ("server.registry_ms.ucc", "ms"),
    ("server.registry_ms.qaoa", "ms"),
    ("server.registry_device_ms", "ms"),
    ("server.shed", "count"),
    ("engine.cache_key_us", "us"),
    ("engine.cache_get_us", "us"),
    ("engine.hit_ratio", "ratio"),
    ("engine.pool_util", "ratio"),
    ("engine.codec_encode_ms", "ms"),
    ("engine.codec_decode_ms", "ms"),
    ("engine.artifact_kb", "KB"),
    ("engine.disk_store_ms", "ms"),
    ("engine.disk_load_ms", "ms"),
    ("engine.region_batch_ms", "ms"),
    ("engine.carve_skip_ratio", "ratio"),
    ("engine.defrags", "count"),
    ("engine.threads_peak", "count"),
    ("pauli.ir_ms", "ms"),
    ("core.tetris_ms", "ms"),
    ("core.tetris_noopt_ms", "ms"),
    ("stage.queue_wait_s", "s"),
    ("stage.scheduling_s", "s"),
    ("stage.clustering_s", "s"),
    ("stage.synthesis_s", "s"),
    ("stage.routing_s", "s"),
    ("stage.optimize_s", "s"),
    ("stage.other_frac", "ratio"),
    ("baselines.paulihedral_ms", "ms"),
    ("baselines.pcoast_ms", "ms"),
    ("baselines.tket_ms", "ms"),
    ("baselines.2qan_ms", "ms"),
    ("router.swaps", "count"),
    ("circuit.optimize_ms", "ms"),
    ("circuit.cnots_removed", "count"),
    ("circuit.qasm_ms", "ms"),
    ("circuit.qasm_kb", "KB"),
    ("circuit.metrics_ms", "ms"),
    ("topology.carve_ms", "ms"),
    ("topology.dist_rows", "count"),
    ("obs.overhead_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("client.late_ms", "ms"),
    ("client.requests", "count"),
];

/// One run's result, printed as the last line of standard output.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or incorrect.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Whether every operation was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What one measured phase of a workload observed.
#[derive(Debug, Default)]
pub(crate) struct Phase {
    /// Latency of each successful request (or job, for `compile-cold`).
    pub latencies_ms: Vec<f64>,
    /// Requests (or jobs) attempted.
    pub requests: u64,
    /// Requests that succeeded within the workload's latency limit.
    pub within_slo: u64,
    /// Successful requests (or jobs).
    pub completed: u64,
    /// Per-pass latency `(p50, p99)`, for workloads whose passes are
    /// single batches: the reported quantiles are then their medians,
    /// which one slow pass cannot move.
    pub pass_quantiles: Vec<(f64, f64)>,
    /// Walls of the phase's passes.
    pub walls_s: Vec<f64>,
    /// Time the throughput is taken over.
    pub elapsed_s: f64,
    /// POST → acknowledgment, per request.
    pub ack_ms: Vec<f64>,
    /// Acknowledgment → last result byte, per request.
    pub result_ms: Vec<f64>,
    /// `/healthz` round trips interleaved with the traffic (traced only).
    pub healthz_ms: Vec<f64>,
    /// Response bytes read.
    pub response_bytes: u64,
    /// Responses read.
    pub responses: u64,
    /// How late the open-loop generator sent each request.
    pub late_ms: Vec<f64>,
    /// `503` responses.
    pub shed: u64,
    /// Most OS threads seen in the process.
    pub threads_peak: f64,
    /// The server's cache hit ratio after the phase.
    pub hit_ratio: f64,
}

impl Phase {
    /// Records one request outcome against the latency limit.
    pub fn request(&mut self, latency_ms: Option<f64>, limit_ms: f64) {
        self.requests += 1;
        if let Some(ms) = latency_ms {
            self.completed += 1;
            self.latencies_ms.push(ms);
            if ms <= limit_ms {
                self.within_slo += 1;
            }
        }
    }

    /// Merges another phase's samples (e.g. one client thread's).
    pub fn absorb(&mut self, o: Phase) {
        self.latencies_ms.extend(o.latencies_ms);
        self.requests += o.requests;
        self.within_slo += o.within_slo;
        self.completed += o.completed;
        self.pass_quantiles.extend(o.pass_quantiles);
        self.walls_s.extend(o.walls_s);
        self.ack_ms.extend(o.ack_ms);
        self.result_ms.extend(o.result_ms);
        self.healthz_ms.extend(o.healthz_ms);
        self.response_bytes += o.response_bytes;
        self.responses += o.responses;
        self.late_ms.extend(o.late_ms);
        self.shed += o.shed;
        self.threads_peak = self.threads_peak.max(o.threads_peak);
    }

    /// Notes the process's current thread count.
    pub fn sample_threads(&mut self) {
        self.threads_peak = self.threads_peak.max(stats::threads());
    }

    fn slo_frac(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.within_slo as f64 / self.requests as f64
        }
    }
}

/// Runs workload `name`.
pub fn run(name: &str, opts: &Opts) -> Result<Report, String> {
    match name {
        "compile-cold" => cold::run(opts),
        "warm-resubmit" => warm::run(opts),
        "mixed-open" => mixed::run(opts),
        _ => Err(format!(
            "unknown workload `{name}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Everything a workload hands back for reporting.
pub(crate) struct Outcome {
    /// Set-up times of the run's set-ups.
    pub setup_s: Vec<f64>,
    /// The untraced phase.
    pub base: Phase,
    /// The traced phase (traced runs only).
    pub traced: Option<Phase>,
    /// The main latency figure of a phase, for the tracing overhead.
    pub primary: fn(&Phase) -> f64,
    /// Quality sums of the workload's served results.
    pub quality: Quality,
    /// `VmHWM` at the end of the measuring window (`compile-cold`: of its
    /// first pass).
    pub peak_rss_mb: f64,
    /// Representative `POST /batch` body of the workload.
    pub post_body: String,
    /// The workload's distinct jobs.
    pub jobs: Vec<spec::JobSpec>,
}

/// Probes, verifies and assembles the report of a finished workload.
pub(crate) fn finish(opts: &Opts, mut tally: Tally, out: Outcome) -> Result<Report, String> {
    check::run_probes(opts.seed, opts.max_inflight, &mut tally)?;
    tally.verify(server::WORKERS)?;
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    match &out.traced {
        None => {
            let b = &out.base;
            let q = out.quality;
            let (p50, p99) = if b.pass_quantiles.is_empty() {
                (
                    stats::quantile(&b.latencies_ms, 0.50),
                    stats::quantile(&b.latencies_ms, 0.99),
                )
            } else {
                let (p50s, p99s): (Vec<f64>, Vec<f64>) = b.pass_quantiles.iter().copied().unzip();
                (stats::median(&p50s), stats::median(&p99s))
            };
            for (name, v) in [
                ("setup_s", stats::median(&out.setup_s)),
                ("wall_s", stats::median(&b.walls_s)),
                ("p50_ms", p50),
                ("p99_ms", p99),
                ("rps", b.completed as f64 / b.elapsed_s),
                ("slo_frac", b.slo_frac()),
                ("ok_frac", tally.ok_frac()),
                ("peak_rss_mb", out.peak_rss_mb),
                ("cnot_total", q.cnots),
                ("depth_total", q.depth),
                ("duration_total", q.duration),
                ("cnot_ratio_ph", q.ratio_ph),
            ] {
                values.insert(name, v);
            }
        }
        Some(t) => {
            let b = &out.base;
            for (name, v) in [
                ("server.ack_ms", stats::median(&t.ack_ms)),
                ("server.result_ms", stats::median(&t.result_ms)),
                ("server.healthz_ms", stats::quantile(&t.healthz_ms, 0.99)),
                (
                    "server.response_kb",
                    t.response_bytes as f64 / 1024.0 / t.responses.max(1) as f64,
                ),
                ("server.shed", t.shed as f64),
                ("engine.hit_ratio", t.hit_ratio),
                ("engine.threads_peak", t.threads_peak.max(b.threads_peak)),
                (
                    "trace_overhead_frac",
                    (out.primary)(t) / (out.primary)(b) - 1.0,
                ),
                ("client.late_ms", stats::quantile(&t.late_ms, 0.99)),
                ("client.requests", t.requests as f64),
            ] {
                values.insert(name, v);
            }
            layers::probe(opts, &out.jobs, &out.post_body, &mut values)?;
        }
    }
    let table: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .remove(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            // A quantile without samples (generator lateness of a closed
            // loop, or a run whose every request failed, which `failed`
            // already reports) reads 0.
            Ok((name, if v.is_finite() { v } else { 0.0 }, unit))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        attempted: tally.attempted(),
        failed: tally.failures(),
        metrics,
    })
}

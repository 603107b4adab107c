//! Per-layer metrics of a traced run, taken by timing calls into each
//! layer's public functions from outside: the registry and parsers the
//! reactor runs, the cache, codec and disk tier, the compilers, the pool
//! and the region scheduler. The cold suite is the common input, so the
//! compiler-side figures are comparable across workloads.

use crate::check::build_job;
use crate::server::WORKERS;
use crate::spec::{self, JobSpec, Planned};
use crate::stats::{mean, median};
use crate::{Opts, Scale};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tetris_circuit::{cancel_gates_commutative, qasm, Metrics};
use tetris_core::{TetrisCompiler, TetrisConfig};
use tetris_engine::{
    decode_output, encode_output, CompileJob, DiskCache, Engine, EngineConfig, RegionScheduler,
    ResultCache,
};
use tetris_obs::trace::Stage;
use tetris_pauli::ir::TetrisIr;
use tetris_server::registry::{self, Interner};
use tetris_server::{conn::RequestParser, json};

/// Repetitions of the microsecond-scale timings; the median is kept.
const REPS: usize = 200;

/// Schedule length replayed through the region scheduler.
const REGION_PROBE_REQUESTS: usize = 100;

type Out = HashMap<&'static str, f64>;

/// Runs `f` and returns its result and wall seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Median wall of `reps` calls of `f`, in microseconds.
fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| timed(|| black_box(f())).1 * 1e6)
        .collect();
    median(&samples)
}

/// Adds every per-layer metric not taken from the traffic itself.
pub fn probe(opts: &Opts, jobs: &[JobSpec], post_body: &str, out: &mut Out) -> Result<(), String> {
    server_layer(opts, post_body, out)?;
    let keys: Vec<CompileJob> = jobs
        .iter()
        .map(|s| build_job(s, None))
        .collect::<Result<_, _>>()?;
    out.insert(
        "engine.cache_key_us",
        mean(
            &keys
                .iter()
                .map(|j| median_us(5, || j.cache_key()))
                .collect::<Vec<_>>(),
        ),
    );
    let suite = spec::cold_suite(opts.seed, opts.scale);
    let serial_s = serial_suite(opts, &suite, out)?;
    core_split(opts, &suite, out)?;
    batch_suite(&suite, serial_s, out)?;
    regions(opts, out)
}

/// Request parsing, JSON decoding and registry builds: the reactor-side
/// work of a `POST /batch`.
fn server_layer(opts: &Opts, post_body: &str, out: &mut Out) -> Result<(), String> {
    let raw = format!(
        "POST /batch HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{post_body}",
        post_body.len()
    );
    let mut parser = RequestParser::new();
    parser.push(raw.as_bytes());
    if !matches!(parser.next_request(), Ok(Some(_))) || json::parse(post_body).is_err() {
        return Err("the representative request does not parse".into());
    }
    out.insert(
        "server.request_parse_us",
        median_us(REPS, || {
            let mut p = RequestParser::new();
            p.push(raw.as_bytes());
            p.next_request()
        }),
    );
    out.insert(
        "server.json_parse_us",
        median_us(REPS, || json::parse(post_body)),
    );

    let (molecules, qaoa) = match opts.scale {
        Scale::Full => (
            spec::MOLECULES.map(String::from).to_vec(),
            spec::qaoa_names(opts.seed),
        ),
        Scale::Tiny => (
            vec!["LiH-JW".to_string()],
            vec![format!("REG3-8-s{}", opts.seed)],
        ),
    };
    let ucc: Vec<String> = spec::ucc_names(opts.scale)
        .into_iter()
        .filter(|w| w.starts_with("UCC-"))
        .collect();
    for (metric, names) in [
        ("server.registry_ms.molecule", molecules),
        ("server.registry_ms.ucc", ucc),
        ("server.registry_ms.qaoa", qaoa),
    ] {
        let per_name: Vec<f64> = names
            .iter()
            .map(|n| median_us(3, || registry::workload(n)) / 1e3)
            .collect();
        out.insert(metric, mean(&per_name));
    }
    let devices = [spec::EVAL_DEVICE, spec::REGION_DEVICE, "grid-3x3", "line-8"];
    let per_device: Vec<f64> = devices
        .iter()
        .map(|d| median_us(5, || registry::device(d)) / 1e3)
        .collect();
    out.insert("server.registry_device_ms", mean(&per_device));
    Ok(())
}

/// Compiles the cold suite serially through `CompileJob::run` and times
/// what the engine and server do with each artifact: codec, disk tier,
/// cache hit, QASM render and metrics. Returns the summed compile
/// seconds.
fn serial_suite(opts: &Opts, suite: &[JobSpec], out: &mut Out) -> Result<f64, String> {
    let disk = DiskCache::open(opts.workdir.join("probe-disk"))
        .map_err(|e| format!("probe disk tier: {e}"))?;
    let cache = ResultCache::new(8);
    let mut backend_s: HashMap<&'static str, f64> = HashMap::new();
    let (mut compile_s, mut swaps, mut artifact_bytes, mut qasm_bytes) =
        (0.0, 0usize, 0usize, 0usize);
    let (mut encode_s, mut decode_s, mut store_s, mut load_s, mut qasm_s, mut metrics_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut get_us = Vec::new();
    for s in suite {
        let job = build_job(s, None)?;
        let (output, secs) = timed(|| job.run());
        compile_s += secs;
        let baseline = match s.backend.as_str() {
            "tket" => Some("baselines.tket_ms"),
            "pcoast" => Some("baselines.pcoast_ms"),
            "paulihedral" => Some("baselines.paulihedral_ms"),
            b if b.starts_with("2qan") => Some("baselines.2qan_ms"),
            _ => None,
        };
        if let Some(metric) = baseline {
            *backend_s.entry(metric).or_default() += secs;
        }
        swaps += output.stats.swaps_final;
        let (bytes, secs) = timed(|| encode_output(&output));
        encode_s += secs;
        artifact_bytes += bytes.len();
        let (decoded, secs) = timed(|| decode_output(&bytes));
        decode_s += secs;
        if decoded.as_ref() != Ok(&output) {
            return Err(format!(
                "codec round trip changed {}/{}",
                s.workload, s.backend
            ));
        }
        let key = job.cache_key();
        store_s += timed(|| disk.store(key, &output)).1;
        let (loaded, secs) = timed(|| disk.load(key));
        load_s += secs;
        loaded.ok_or("the probe disk tier lost an artifact")?;
        let (text, secs) = timed(|| qasm::to_qasm(&output.circuit));
        qasm_s += secs;
        qasm_bytes += text.len();
        metrics_s += timed(|| Metrics::of(&output.circuit)).1;
        cache.insert(key, output);
        get_us.push(median_us(REPS, || cache.get(key)));
    }
    for metric in [
        "baselines.tket_ms",
        "baselines.pcoast_ms",
        "baselines.paulihedral_ms",
        "baselines.2qan_ms",
    ] {
        out.insert(metric, backend_s.get(metric).copied().unwrap_or(0.0) * 1e3);
    }
    out.insert("router.swaps", swaps as f64);
    out.insert("engine.codec_encode_ms", encode_s * 1e3);
    out.insert("engine.codec_decode_ms", decode_s * 1e3);
    out.insert("engine.artifact_kb", artifact_bytes as f64 / 1024.0);
    out.insert("engine.disk_store_ms", store_s * 1e3);
    out.insert("engine.disk_load_ms", load_s * 1e3);
    out.insert("circuit.qasm_ms", qasm_s * 1e3);
    out.insert("circuit.qasm_kb", qasm_bytes as f64 / 1024.0);
    out.insert("circuit.metrics_ms", metrics_s * 1e3);
    out.insert("engine.cache_get_us", mean(&get_us));
    Ok(compile_s)
}

/// The paper's Fig. 24 split on the UCC-shaped suite workloads: Tetris
/// with and without the peephole pass, and the pass itself; plus IR
/// lowering over every suite workload.
fn core_split(opts: &Opts, suite: &[JobSpec], out: &mut Out) -> Result<(), String> {
    let device = registry::device(spec::EVAL_DEVICE).ok_or("unknown evaluation device")?;
    let with_opt = TetrisCompiler::new(TetrisConfig::default());
    let without_opt = TetrisCompiler::new(TetrisConfig {
        post_optimize: false,
        ..TetrisConfig::default()
    });
    let (mut opt_s, mut noopt_s, mut pass_s, mut removed) = (0.0, 0.0, 0.0, 0usize);
    for name in spec::ucc_names(opts.scale) {
        let ham = registry::workload(&name).ok_or("unknown workload")?;
        opt_s += timed(|| with_opt.compile(&ham, &device)).1;
        let (mut raw, secs) = timed(|| without_opt.compile(&ham, &device));
        noopt_s += secs;
        let (report, secs) = timed(|| cancel_gates_commutative(&mut raw.circuit));
        pass_s += secs;
        removed += report.removed_cnots;
    }
    let mut names: Vec<&str> = suite.iter().map(|s| s.workload.as_str()).collect();
    names.dedup();
    let mut ir_s = 0.0;
    for name in names {
        let ham = registry::workload(name).ok_or("unknown workload")?;
        ir_s += timed(|| TetrisIr::from_hamiltonian(&ham)).1;
    }
    out.insert("core.tetris_ms", opt_s * 1e3);
    out.insert("core.tetris_noopt_ms", noopt_s * 1e3);
    out.insert("circuit.optimize_ms", pass_s * 1e3);
    out.insert("circuit.cnots_removed", removed as f64);
    out.insert("pauli.ir_ms", ir_s * 1e3);
    Ok(())
}

/// Builds jobs the way the server does for one batch: workloads and
/// devices shared through one interner.
fn server_jobs(specs: &[JobSpec], interner: &mut Interner) -> Result<Vec<CompileJob>, String> {
    specs
        .iter()
        .map(|s| {
            let bad = || format!("unknown job {s:?}");
            Ok(CompileJob::new(
                s.workload.clone(),
                registry::backend(&s.backend).ok_or_else(bad)?,
                interner.workload(&s.workload).ok_or_else(bad)?,
                interner.device(&s.device).ok_or_else(bad)?,
            ))
        })
        .collect()
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        threads: WORKERS,
        cache_capacity: 4096,
        cache_dir: None,
        cache_max_bytes: None,
    })
}

/// The cold suite as one `Engine::compile_batch`, with observability off
/// and then on: pool utilization, the per-stage timeline, distance rows
/// computed and the observability overhead.
fn batch_suite(suite: &[JobSpec], serial_s: f64, out: &mut Out) -> Result<(), String> {
    tetris_obs::set_enabled(false);
    let jobs = server_jobs(suite, &mut Interner::new());
    let off_s = jobs.map(|jobs| timed(|| engine().compile_batch(jobs)).1);
    tetris_obs::set_enabled(true);
    let off_s = off_s?;
    let jobs = server_jobs(suite, &mut Interner::new())?;
    let rows_before = tetris_topology::graph::global_row_stats().0;
    let (results, on_s) = timed(|| engine().compile_batch(jobs));
    let rows = tetris_topology::graph::global_row_stats().0 - rows_before;
    if results.iter().any(|r| r.error.is_some()) {
        return Err("a cold-suite job failed in the engine".into());
    }
    let sum = |stage: Stage| results.iter().map(|r| r.stages.get(stage)).sum::<f64>();
    let busy: f64 = results.iter().map(|r| r.stages.busy_total()).sum();
    for (metric, stage) in [
        ("stage.queue_wait_s", Stage::QueueWait),
        ("stage.scheduling_s", Stage::Scheduling),
        ("stage.clustering_s", Stage::Clustering),
        ("stage.synthesis_s", Stage::Synthesis),
        ("stage.routing_s", Stage::Routing),
        ("stage.optimize_s", Stage::Optimize),
    ] {
        out.insert(metric, sum(stage));
    }
    out.insert("stage.other_frac", sum(Stage::Other) / busy);
    out.insert("engine.pool_util", serial_s / (WORKERS as f64 * on_s));
    out.insert("topology.dist_rows", rows as f64);
    out.insert("obs.overhead_frac", on_s / off_s - 1.0);
    Ok(())
}

/// Replays `mixed-open`'s region batches through a fresh
/// `RegionScheduler`, and times `CouplingGraph::carve` on their widths.
fn regions(opts: &Opts, out: &mut Out) -> Result<(), String> {
    let batches: Vec<Vec<JobSpec>> =
        spec::mixed_schedule(opts.seed, REGION_PROBE_REQUESTS, opts.scale)
            .into_iter()
            .filter_map(|p| match p {
                Planned::Region(jobs) => Some(jobs),
                Planned::Warm(_) => None,
            })
            .collect();
    let engine = engine();
    let scheduler = RegionScheduler::with_default_config();
    let mut interner = Interner::new();
    let device = interner
        .device(spec::REGION_DEVICE)
        .ok_or("unknown region device")?;
    let (mut batch_ms, mut carve_ms) = (Vec::new(), Vec::new());
    for specs in &batches {
        let jobs = server_jobs(specs, &mut interner)?;
        let widths: Vec<usize> = jobs.iter().map(|j| j.hamiltonian.n_qubits).collect();
        carve_ms.push(timed(|| device.carve(&widths)).1 * 1e3);
        let (batch, secs) = timed(|| scheduler.schedule_batch(&engine, jobs));
        if batch.results.iter().any(|r| r.error.is_some()) {
            return Err("a region job failed in the scheduler".into());
        }
        batch_ms.push(secs * 1e3);
    }
    let stats = scheduler.stats();
    out.insert("engine.region_batch_ms", median(&batch_ms));
    out.insert("engine.carve_skip_ratio", stats.carve_skip_ratio());
    out.insert("engine.defrags", stats.defrags as f64);
    out.insert("topology.carve_ms", mean(&carve_ms));
    Ok(())
}

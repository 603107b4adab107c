//! The engine-driven workload suite: one canonical job list shared by the
//! `tetris bench-suite` CLI and the experiment binaries, plus a JSON report
//! emitter (hand-rolled — the workspace carries no serde).

use crate::connstress::percentile;
use crate::workloads;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tetris_core::TetrisConfig;
use tetris_engine::{
    slack_for_width, Backend, CacheStats, CompileJob, Engine, EngineConfig, JobResult,
    RegionScheduler, ResidentBatch,
};
use tetris_obs::StageTimings;
use tetris_pauli::encoder::Encoding;
use tetris_pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris_pauli::uccsd::synthetic_ucc;
use tetris_pauli::Hamiltonian;
use tetris_topology::CouplingGraph;

/// The named workloads of the suite: molecules (JW), synthetic UCC and the
/// QAOA graph instances — Table I's rows, in order. `quick` restricts to
/// the reduced sets.
pub fn suite_workloads(quick: bool) -> Vec<(String, Arc<Hamiltonian>)> {
    let mut out: Vec<(String, Arc<Hamiltonian>)> = Vec::new();
    for m in workloads::molecule_set(quick) {
        out.push((
            format!("{}-JW", m.name()),
            Arc::new(workloads::molecule(m, Encoding::JordanWigner)),
        ));
    }
    for h in workloads::synthetic_set(quick) {
        out.push((h.name.clone(), Arc::new(h)));
    }
    for h in workloads::qaoa_set(7) {
        out.push((h.name.clone(), Arc::new(h)));
    }
    out
}

/// Whether a workload is QAOA-shaped (every block a single ≤2-local
/// string), mirroring the Tetris compiler's own dispatch test — shared by
/// [`suite_jobs`] and the `table1` binary so the two never disagree on a
/// workload's section.
pub fn is_qaoa_shaped(h: &Hamiltonian) -> bool {
    h.blocks
        .iter()
        .all(|b| b.len() == 1 && b.active_length() <= 2)
}

/// Expands the suite workloads into engine jobs: UCC-shaped workloads get
/// the full evaluation sweep (TKet, PCOAST, Paulihedral, Tetris,
/// Tetris+lookahead), QAOA instances get Tetris+lookahead vs 2QAN-lite —
/// the paper's Fig. 14 and Fig. 23 pairings.
pub fn suite_jobs(quick: bool, graph: &Arc<CouplingGraph>) -> Vec<CompileJob> {
    let mut jobs = Vec::new();
    for (name, ham) in suite_workloads(quick) {
        let backends = if is_qaoa_shaped(&ham) {
            vec![
                Backend::Tetris(TetrisConfig::default()),
                Backend::Qaoa2qan { seed: 7 },
            ]
        } else {
            Backend::evaluation_sweep()
        };
        for b in backends {
            jobs.push(CompileJob::new(&name, b, ham.clone(), graph.clone()));
        }
    }
    jobs
}

// ---------------------------------------------------------------- sharding

/// The sharded-service batch: small workloads (widths ≤ 16) that a
/// 130-node heavy-hex chip can host several of at once. `quick` keeps the
/// four smallest.
pub fn shard_device() -> Arc<CouplingGraph> {
    Arc::new(CouplingGraph::heavy_hex(7, 16)) // 7·16 + 6·3 = 130 nodes
}

/// Builds the shard-comparison batch against `graph` — one Tetris job per
/// small workload, every job far narrower than the device. The jobs are
/// deliberately of *comparable* cost (same width family, distinct seeds →
/// distinct content): a batch whose wall-clock one heavy job dominates
/// would measure that job, not the sharding.
pub fn shard_jobs(quick: bool, graph: &Arc<CouplingGraph>) -> Vec<CompileJob> {
    let mut hams: Vec<Hamiltonian> = (0..4)
        .map(|k| {
            maxcut_hamiltonian(
                &Graph::random_regular(12, 3, 259 + k),
                &format!("REG3-12-s{}", 259 + k),
            )
        })
        .collect();
    hams.push(synthetic_ucc(10, Encoding::JordanWigner, 0x5cc ^ 10));
    hams.push(synthetic_ucc(10, Encoding::JordanWigner, 0x15cc));
    if !quick {
        hams.push(synthetic_ucc(12, Encoding::JordanWigner, 0x5cc ^ 12));
        hams.push(maxcut_hamiltonian(
            &Graph::random_regular(14, 3, 263),
            "REG3-14-s263",
        ));
    }
    hams.into_iter()
        .map(|h| {
            CompileJob::new(
                h.name.clone(),
                Backend::Tetris(TetrisConfig::default()),
                Arc::new(h),
                graph.clone(),
            )
        })
        .collect()
}

/// One carved region of a shard run, for the report.
#[derive(Debug, Clone)]
pub struct ShardRegionReport {
    /// The job packed onto this region.
    pub job: String,
    /// The job's logical width.
    pub width: usize,
    /// Physical qubits granted (width + slack).
    pub region_qubits: usize,
}

/// Sharded vs sequential-whole-chip comparison over one batch.
#[derive(Debug, Clone)]
pub struct ShardComparison {
    /// The device both sides target.
    pub device: String,
    /// Device width in qubits.
    pub device_qubits: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Wall-clock of the sequential whole-chip baseline (one worker, each
    /// job compiled against the full device).
    pub sequential_wall: f64,
    /// Wall-clock of the region batch (carve, region compiles on the pool,
    /// relabel).
    pub sharded_wall: f64,
    /// Per-region placements of the sharded run.
    pub regions: Vec<ShardRegionReport>,
    /// Batch jobs the scheduler could not place (compiled whole-chip).
    pub leftover: usize,
    /// Physical qubits the regions occupy.
    pub qubits_used: usize,
}

impl ShardComparison {
    /// Sequential-over-sharded speedup.
    pub fn speedup(&self) -> f64 {
        if self.sharded_wall <= 0.0 {
            return 0.0;
        }
        self.sequential_wall / self.sharded_wall
    }

    /// Fraction of the device the regions occupy.
    pub fn utilization(&self) -> f64 {
        if self.device_qubits == 0 {
            return 0.0;
        }
        self.qubits_used as f64 / self.device_qubits as f64
    }
}

/// Runs the shard comparison: the same batch compiled (a) sequentially
/// against the whole chip on a one-worker engine and (b) through a fresh
/// region scheduler on a `threads`-worker engine. Both engines start
/// cold, so neither side is served from the other's cache — and the two
/// paths key their entries apart regardless.
///
/// # Panics
/// Panics if any job fails — the comparison batch is sized to always
/// fit.
pub fn run_shard_comparison(quick: bool, threads: usize) -> ShardComparison {
    let graph = shard_device();

    let sequential_engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 0,
        cache_dir: None,
        cache_max_bytes: None,
    });
    let jobs = shard_jobs(quick, &graph);
    let n_jobs = jobs.len();
    eprintln!(
        "[bench-suite] shard comparison: {n_jobs} jobs on {} — sequential whole-chip…",
        graph.name()
    );
    let t0 = Instant::now();
    let sequential = sequential_engine.compile_batch(jobs);
    let sequential_wall = t0.elapsed().as_secs_f64();
    assert!(
        sequential.iter().all(|r| r.error.is_none()),
        "sequential baseline failed"
    );

    let sharded_engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: 0,
        cache_dir: None,
        cache_max_bytes: None,
    });
    let jobs = shard_jobs(quick, &graph);
    eprintln!("[bench-suite] shard comparison: region batch on {threads} workers…");
    let t0 = Instant::now();
    let sharded = RegionScheduler::with_default_config().schedule_batch(&sharded_engine, jobs);
    let sharded_wall = t0.elapsed().as_secs_f64();
    assert!(
        sharded.results.iter().all(|r| r.error.is_none()),
        "region batch failed"
    );

    let regions: Vec<ShardRegionReport> = sharded
        .results
        .iter()
        .filter_map(|r| {
            r.region.as_ref().map(|region| ShardRegionReport {
                job: r.name.clone(),
                width: r.output.final_layout.as_ref().map_or(0, |l| l.n_logical()),
                region_qubits: region.len(),
            })
        })
        .collect();
    let qubits_used = regions.iter().map(|r| r.region_qubits).sum();
    eprintln!(
        "[bench-suite] shard comparison: sequential {sequential_wall:.2}s vs sharded {sharded_wall:.2}s ({:.1}x)",
        sequential_wall / sharded_wall.max(1e-9)
    );
    ShardComparison {
        device: graph.name().to_string(),
        device_qubits: graph.n_qubits(),
        jobs: n_jobs,
        sequential_wall,
        sharded_wall,
        regions,
        leftover: sharded
            .results
            .iter()
            .filter(|r| r.region.is_none())
            .count(),
        qubits_used,
    }
}

// ------------------------------------------------------ resident scheduling

/// Resident regions vs residency off over steady-state repeat traffic:
/// the same batch submitted `batches` times to each side, both warmed
/// once first. The per-batch side schedules every submission on a fresh
/// [`RegionScheduler`], so it re-carves every time (its artifacts are
/// cache hits); the resident side keeps one scheduler and serves every
/// placement from the free-list and every artifact from the resident
/// cache. Each batch is timed on its own and the sides alternate on every
/// repeat, so machine drift lands on both; the comparison is between the
/// per-batch medians.
#[derive(Debug, Clone)]
pub struct ResidentComparison {
    /// The device both sides target.
    pub device: String,
    /// Jobs per batch.
    pub jobs: usize,
    /// Timed repeat batches per side (the warm-up batch is untimed).
    pub batches: usize,
    /// Median wall-clock seconds of one repeat batch on a fresh scheduler.
    pub per_batch_median: f64,
    /// Median wall-clock seconds of one repeat batch through the resident
    /// scheduler.
    pub resident_median: f64,
    /// Scheduler carves across warm-up + timed batches.
    pub carves_performed: u64,
    /// Placements the scheduler served without carving.
    pub carves_skipped: u64,
    /// Whether both sides matched the independent reference (a direct
    /// carve plus a serial compile on each induced subgraph), digest for
    /// digest and region for region.
    pub digest_match: bool,
}

impl ResidentComparison {
    /// Fraction of scheduler placements that skipped carving.
    pub fn carve_skip_ratio(&self) -> f64 {
        let total = self.carves_performed + self.carves_skipped;
        if total == 0 {
            return 1.0;
        }
        self.carves_skipped as f64 / total as f64
    }

    /// Per-batch-over-resident speedup of the median repeat.
    pub fn speedup(&self) -> f64 {
        if self.resident_median <= 0.0 {
            return 0.0;
        }
        self.per_batch_median / self.resident_median
    }
}

/// Runs the resident comparison: one warm-up submission on each side (so
/// neither side pays cold compiles inside the timed window), then
/// `batches` individually timed repeats per side, alternating which side
/// goes first. Both engines are separate and equally sized.
///
/// # Panics
/// Panics if any job fails on either side — the batch is the same
/// always-fits batch the shard comparison uses.
pub fn run_resident_comparison(quick: bool, threads: usize) -> ResidentComparison {
    let graph = shard_device();
    let batches = if quick { 50 } else { 150 };
    // Build the workloads once and clone per submission (inputs are
    // `Arc`-shared, so a clone is pointer bumps): the timed loops compare
    // the two sides' scheduling, not repeated Hamiltonian construction.
    let jobs = shard_jobs(quick, &graph);
    let n_jobs = jobs.len();
    let fresh_engine = || {
        Engine::new(EngineConfig {
            threads,
            cache_capacity: 1024,
            cache_dir: None,
            cache_max_bytes: None,
        })
    };
    eprintln!(
        "[bench-suite] resident comparison: {n_jobs} jobs × {batches} batches on {} — \
         fresh scheduler per batch vs one resident scheduler…",
        graph.name()
    );

    // Per-batch side: the artifacts are cache hits after the warm-up, but
    // every submission's fresh scheduler re-carves. Resident side: the
    // warm-up batch carves the regions; every repeat reuses them and hits
    // the resident artifact cache.
    let per_batch_engine = fresh_engine();
    let resident_engine = fresh_engine();
    let scheduler = RegionScheduler::with_default_config();
    let per_batch =
        || RegionScheduler::with_default_config().schedule_batch(&per_batch_engine, jobs.clone());
    let resident = || scheduler.schedule_batch(&resident_engine, jobs.clone());
    let warm_per_batch = per_batch();
    let warm_resident = resident();
    for (side, warm) in [("per-batch", &warm_per_batch), ("resident", &warm_resident)] {
        assert!(
            warm.results.iter().all(|r| r.error.is_none()),
            "{side} warm-up failed"
        );
    }
    let time = |side: &dyn Fn() -> ResidentBatch| {
        let t0 = Instant::now();
        let b = side();
        let secs = t0.elapsed().as_secs_f64();
        assert!(b.results.iter().all(|r| r.error.is_none()));
        secs
    };
    let mut per_batch_secs = Vec::with_capacity(batches);
    let mut resident_secs = Vec::with_capacity(batches);
    for i in 0..batches {
        if i % 2 == 0 {
            per_batch_secs.push(time(&per_batch));
            resident_secs.push(time(&resident));
        } else {
            resident_secs.push(time(&resident));
            per_batch_secs.push(time(&per_batch));
        }
    }
    per_batch_secs.sort_by(f64::total_cmp);
    resident_secs.sort_by(f64::total_cmp);
    let per_batch_median = percentile(&per_batch_secs, 50.0);
    let resident_median = percentile(&resident_secs, 50.0);

    // Bit-identicality: both sides must reproduce the independent
    // reference, digest for digest and region for region.
    let reference = region_reference(&graph, &jobs);
    let digest_match = [&warm_per_batch.results, &warm_resident.results]
        .iter()
        .all(|results| {
            results.iter().zip(&reference).all(|(r, (region, digest))| {
                r.region.as_ref() == Some(region) && r.output.stats_digest() == *digest
            })
        });

    let stats = scheduler.stats();
    eprintln!(
        "[bench-suite] resident comparison: median batch per-batch {:.2}ms vs resident {:.2}ms \
         ({:.1}x, carve-skip {:.3})",
        per_batch_median * 1e3,
        resident_median * 1e3,
        per_batch_median / resident_median.max(1e-9),
        stats.carve_skip_ratio(),
    );
    ResidentComparison {
        device: graph.name().to_string(),
        jobs: n_jobs,
        batches,
        per_batch_median,
        resident_median,
        carves_performed: stats.carves_performed,
        carves_skipped: stats.carves_skipped,
        digest_match,
    }
}

/// The independent reference for a batch placed on an empty chip: a
/// direct [`CouplingGraph::carve`] of every job's grant size
/// (`width + slack_for_width(width)`), then a serial compile of each job
/// against its induced subgraph. Stats digests are relabeling-invariant,
/// so they compare directly with the scheduler's global artifacts.
///
/// # Panics
/// Panics if the batch does not fit the device.
fn region_reference(
    graph: &CouplingGraph,
    jobs: &[CompileJob],
) -> Vec<(tetris_topology::Region, u64)> {
    let sizes: Vec<usize> = jobs
        .iter()
        .map(|j| j.hamiltonian.n_qubits + slack_for_width(j.hamiltonian.n_qubits))
        .collect();
    let regions = graph.carve(&sizes).expect("the batch fits the device");
    jobs.iter()
        .zip(regions)
        .map(|(j, region)| {
            let local = CompileJob::new(
                j.name.clone(),
                j.backend,
                j.hamiltonian.clone(),
                Arc::new(graph.induced(&region)),
            );
            (region, local.run().stats_digest())
        })
        .collect()
}

// --------------------------------------------------------------- profiling

/// Observability-overhead measurement over one cold suite pass compiled
/// twice: recording disabled (the baseline) and enabled (instrumented),
/// each on a fresh uncached engine, plus the instrumented run's per-stage
/// wall-time aggregates.
#[derive(Debug, Clone)]
pub struct SuiteProfile {
    /// Batch wall-clock with recording enabled.
    pub instrumented_wall: f64,
    /// Batch wall-clock with recording disabled.
    pub baseline_wall: f64,
    /// Summed per-stage busy walls across the instrumented run's jobs,
    /// nonzero stages only, in stage order.
    pub stage_seconds: Vec<(&'static str, f64)>,
}

impl SuiteProfile {
    /// Relative cost of recording: `(instrumented - baseline) / baseline`.
    /// Negative values are measurement noise — instrumentation cannot make
    /// compilation faster.
    pub fn overhead_fraction(&self) -> f64 {
        if self.baseline_wall <= 0.0 {
            return 0.0;
        }
        (self.instrumented_wall - self.baseline_wall) / self.baseline_wall
    }
}

/// Runs the overhead profile: the suite compiled cold with recording
/// disabled first, then again cold with it enabled. The disabled run goes
/// first so any residual process warm-up (allocator, page cache) lands on
/// the baseline, biasing the measured overhead *up* — a gate this passes
/// is honest. Recording is re-enabled before returning.
pub fn run_suite_profile(quick: bool, threads: usize, graph: &Arc<CouplingGraph>) -> SuiteProfile {
    let fresh_engine = || {
        Engine::new(EngineConfig {
            threads,
            cache_capacity: 0,
            cache_dir: None,
            cache_max_bytes: None,
        })
    };
    eprintln!("[bench-suite] profile: baseline pass (recording disabled)…");
    tetris_obs::set_enabled(false);
    let t0 = Instant::now();
    let _ = fresh_engine().compile_batch(suite_jobs(quick, graph));
    let baseline_wall = t0.elapsed().as_secs_f64();
    tetris_obs::set_enabled(true);

    eprintln!("[bench-suite] profile: instrumented pass (recording enabled)…");
    let t0 = Instant::now();
    let results = fresh_engine().compile_batch(suite_jobs(quick, graph));
    let instrumented_wall = t0.elapsed().as_secs_f64();
    let mut totals = StageTimings::default();
    for r in &results {
        totals.merge(&r.stages);
    }
    eprintln!(
        "[bench-suite] profile: baseline {baseline_wall:.2}s vs instrumented {instrumented_wall:.2}s \
         ({:+.1}% overhead)",
        100.0 * (instrumented_wall - baseline_wall) / baseline_wall.max(1e-9)
    );
    SuiteProfile {
        instrumented_wall,
        baseline_wall,
        stage_seconds: totals
            .iter()
            .filter(|(_, secs)| *secs > 0.0)
            .map(|(stage, secs)| (stage.name(), secs))
            .collect(),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One pass of a suite run, for the report.
#[derive(Debug, Clone)]
pub struct SuitePass {
    /// 1-based pass number.
    pub pass: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// The per-job results of this pass.
    pub results: Vec<JobResult>,
    /// Cache counters *after* this pass.
    pub cache: CacheStats,
}

impl SuitePass {
    /// Fraction of this pass's jobs served from the cache.
    pub fn cached_fraction(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().filter(|r| r.cached).count() as f64 / self.results.len() as f64
    }
}

/// Renders the full bench-suite report as pretty-printed JSON: engine
/// sizing, then per pass the batch wall-clock, the cumulative cache
/// counters and per-job timings and stats; with `shard` set, a trailing
/// `"shard"` section comparing region vs sequential whole-chip walls;
/// with `resident` set, a `"resident"` section comparing one long-lived
/// scheduler against a fresh scheduler per batch on repeat traffic; with `profile`
/// set, a `"profile"` section with the observability overhead and
/// per-stage wall-time aggregates; with `connections` set, a
/// `"connections"` section with the reactor front-end's connect storm
/// and its independent references.
pub fn json_report(
    threads: usize,
    passes: &[SuitePass],
    shard: Option<&ShardComparison>,
    resident: Option<&ResidentComparison>,
    profile: Option<&SuiteProfile>,
    connections: Option<&crate::connstress::ConnStress>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"passes\": [");
    for (pi, p) in passes.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"pass\": {},", p.pass);
        let _ = writeln!(out, "      \"wall_seconds\": {:.6},", p.wall_seconds);
        let _ = writeln!(out, "      \"jobs\": {},", p.results.len());
        let _ = writeln!(
            out,
            "      \"cached_fraction\": {:.4},",
            p.cached_fraction()
        );
        let _ = writeln!(
            out,
            "      \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
             \"disk_hits\": {}, \"disk_misses\": {}, \"disk_stores\": {}, \"disk_store_errors\": {}, \
             \"disk_gc_evictions\": {}, \"disk_purged\": {}, \"disk_hit_ratio\": {:.4} }},",
            p.cache.hits,
            p.cache.misses,
            p.cache.evictions,
            p.cache.entries,
            p.cache.disk_hits,
            p.cache.disk_misses,
            p.cache.disk_stores,
            p.cache.disk_store_errors,
            p.cache.disk_gc_evictions,
            p.cache.disk_purged,
            p.cache.disk_hit_ratio()
        );
        let _ = writeln!(out, "      \"results\": [");
        for (ri, r) in p.results.iter().enumerate() {
            let s = &r.output.stats;
            let error = match &r.error {
                Some(msg) => format!(" \"error\": \"{}\",", json_escape(msg)),
                None => String::new(),
            };
            let _ = write!(
                out,
                "        {{ \"name\": \"{}\", \"compiler\": \"{}\", \"cache_key\": \"{:016x}\", \
                 \"cached\": {},{} \"engine_seconds\": {:.6}, \"compile_seconds\": {:.6}, \
                 \"cnots\": {}, \"swaps\": {}, \"depth\": {}, \"duration\": {}, \
                 \"cancel_ratio\": {:.4} }}",
                json_escape(&r.name),
                json_escape(&r.compiler),
                r.cache_key,
                r.cached,
                error,
                r.engine_seconds,
                s.compile_seconds,
                s.total_cnots(),
                s.swaps_final,
                s.metrics.depth,
                s.metrics.duration,
                s.cancel_ratio(),
            );
            out.push_str(if ri + 1 < p.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if pi + 1 < passes.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    let mut sections: Vec<String> = Vec::new();
    if let Some(c) = connections {
        sections.push(format!(
            "  \"connections\": {{ \"connections\": {}, \"completed\": {}, \"errors\": {}, \
             \"shed\": {}, \"peak_connections\": {}, \"wall_seconds\": {:.6}, \
             \"anchor_compile_seconds\": {:.6}, \"wall_ratio\": {:.4}, \"digest_match\": {}, \
             \"first_byte_p50\": {:.6}, \"first_byte_p95\": {:.6}, \"first_byte_p99\": {:.6}, \
             \"complete_p50\": {:.6}, \"complete_p95\": {:.6}, \"complete_p99\": {:.6} }}",
            c.connections,
            c.completed,
            c.errors,
            c.shed,
            c.peak_connections,
            c.wall_seconds,
            c.anchor_compile_seconds,
            c.wall_ratio(),
            c.digest_match(),
            c.first_byte_p50,
            c.first_byte_p95,
            c.first_byte_p99,
            c.complete_p50,
            c.complete_p95,
            c.complete_p99,
        ));
    }
    if let Some(p) = profile {
        let mut sec = String::new();
        let _ = writeln!(sec, "  \"profile\": {{");
        let _ = writeln!(
            sec,
            "    \"baseline_wall_seconds\": {:.6},",
            p.baseline_wall
        );
        let _ = writeln!(
            sec,
            "    \"instrumented_wall_seconds\": {:.6},",
            p.instrumented_wall
        );
        let _ = writeln!(
            sec,
            "    \"overhead_fraction\": {:.6},",
            p.overhead_fraction()
        );
        let stages: Vec<String> = p
            .stage_seconds
            .iter()
            .map(|(name, secs)| format!("\"{name}\": {secs:.6}"))
            .collect();
        let _ = writeln!(sec, "    \"stage_seconds\": {{ {} }}", stages.join(", "));
        sec.push_str("  }");
        sections.push(sec);
    }
    if let Some(r) = resident {
        let mut sec = String::new();
        let _ = writeln!(sec, "  \"resident\": {{");
        let _ = writeln!(sec, "    \"device\": \"{}\",", json_escape(&r.device));
        let _ = writeln!(sec, "    \"jobs\": {},", r.jobs);
        let _ = writeln!(sec, "    \"batches\": {},", r.batches);
        let _ = writeln!(
            sec,
            "    \"per_batch_median_seconds\": {:.6},",
            r.per_batch_median
        );
        let _ = writeln!(
            sec,
            "    \"resident_median_seconds\": {:.6},",
            r.resident_median
        );
        let _ = writeln!(sec, "    \"speedup\": {:.4},", r.speedup());
        let _ = writeln!(sec, "    \"carves_performed\": {},", r.carves_performed);
        let _ = writeln!(sec, "    \"carves_skipped\": {},", r.carves_skipped);
        let _ = writeln!(
            sec,
            "    \"carve_skip_ratio\": {:.4},",
            r.carve_skip_ratio()
        );
        let _ = writeln!(sec, "    \"digest_match\": {}", r.digest_match);
        sec.push_str("  }");
        sections.push(sec);
    }
    if let Some(s) = shard {
        let mut sec = String::new();
        let _ = writeln!(sec, "  \"shard\": {{");
        let _ = writeln!(sec, "    \"device\": \"{}\",", json_escape(&s.device));
        let _ = writeln!(sec, "    \"device_qubits\": {},", s.device_qubits);
        let _ = writeln!(sec, "    \"jobs\": {},", s.jobs);
        let _ = writeln!(sec, "    \"leftover\": {},", s.leftover);
        let _ = writeln!(
            sec,
            "    \"sequential_wall_seconds\": {:.6},",
            s.sequential_wall
        );
        let _ = writeln!(sec, "    \"sharded_wall_seconds\": {:.6},", s.sharded_wall);
        let _ = writeln!(sec, "    \"speedup\": {:.4},", s.speedup());
        let _ = writeln!(sec, "    \"qubits_used\": {},", s.qubits_used);
        let _ = writeln!(sec, "    \"utilization\": {:.4},", s.utilization());
        let _ = writeln!(sec, "    \"regions\": [");
        for (i, r) in s.regions.iter().enumerate() {
            let _ = write!(
                sec,
                "      {{ \"job\": \"{}\", \"width\": {}, \"region_qubits\": {}, \
                 \"region_utilization\": {:.4} }}",
                json_escape(&r.job),
                r.width,
                r.region_qubits,
                r.region_qubits as f64 / s.device_qubits.max(1) as f64,
            );
            sec.push_str(if i + 1 < s.regions.len() { ",\n" } else { "\n" });
        }
        sec.push_str("    ]\n  }");
        sections.push(sec);
    }
    if sections.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n");
    out.push_str(&sections.join(",\n"));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_shape() {
        let graph = Arc::new(CouplingGraph::heavy_hex_65());
        let jobs = suite_jobs(true, &graph);
        // 4 molecules × 5 + 3 synthetic × 5 + 6 QAOA × 2 = 47.
        assert_eq!(jobs.len(), 47);
        // Job names stay aligned with their workloads.
        assert!(jobs.iter().any(|j| j.name == "LiH-JW"));
        assert!(jobs.iter().any(|j| j.name.starts_with("REG3-")));
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let report = json_report(4, &[], None, None, None, None);
        assert!(report.contains("\"threads\": 4"));
        assert!(report.trim_end().ends_with('}'));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn profile_section_renders() {
        let profile = SuiteProfile {
            instrumented_wall: 1.03,
            baseline_wall: 1.0,
            stage_seconds: vec![("clustering", 0.25), ("routing", 0.5)],
        };
        assert!((profile.overhead_fraction() - 0.03).abs() < 1e-9);
        let report = json_report(2, &[], None, None, Some(&profile), None);
        assert!(report.contains("\"profile\": {"));
        assert!(report.contains("\"overhead_fraction\": 0.030000"));
        assert!(report.contains("\"clustering\": 0.250000"));
        assert!(report.trim_end().ends_with('}'));
        // Profile and shard sections coexist.
        let cmp = ShardComparison {
            device: "d".into(),
            device_qubits: 10,
            jobs: 1,
            sequential_wall: 1.0,
            sharded_wall: 1.0,
            regions: vec![],
            leftover: 0,
            qubits_used: 5,
        };
        let both = json_report(2, &[], Some(&cmp), None, Some(&profile), None);
        assert!(both.contains("\"profile\": {") && both.contains("\"shard\": {"));
        assert!(both.trim_end().ends_with('}'));
    }

    #[test]
    fn shard_section_renders() {
        let cmp = ShardComparison {
            device: "heavy-hex-7x16".into(),
            device_qubits: 130,
            jobs: 4,
            sequential_wall: 2.0,
            sharded_wall: 0.5,
            regions: vec![ShardRegionReport {
                job: "UCC-8".into(),
                width: 8,
                region_qubits: 10,
            }],
            leftover: 0,
            qubits_used: 10,
        };
        assert!((cmp.speedup() - 4.0).abs() < 1e-12);
        let report = json_report(2, &[], Some(&cmp), None, None, None);
        assert!(report.contains("\"shard\": {"));
        assert!(report.contains("\"speedup\": 4.0000"));
        assert!(report.contains("\"region_qubits\": 10"));
        assert!(report.trim_end().ends_with('}'));
    }

    #[test]
    fn resident_section_renders() {
        let res = ResidentComparison {
            device: "heavy-hex-7x16".into(),
            jobs: 6,
            batches: 10,
            per_batch_median: 2.0,
            resident_median: 0.5,
            carves_performed: 6,
            carves_skipped: 60,
            digest_match: true,
        };
        assert!((res.speedup() - 4.0).abs() < 1e-12);
        assert!((res.carve_skip_ratio() - 60.0 / 66.0).abs() < 1e-12);
        let report = json_report(2, &[], None, Some(&res), None, None);
        assert!(report.contains("\"resident\": {"));
        assert!(report.contains("\"carve_skip_ratio\": 0.9091"));
        assert!(report.contains("\"digest_match\": true"));
        assert!(report.trim_end().ends_with('}'));
        // All three trailing sections coexist in one report.
        let cmp = ShardComparison {
            device: "d".into(),
            device_qubits: 10,
            jobs: 1,
            sequential_wall: 1.0,
            sharded_wall: 1.0,
            regions: vec![],
            leftover: 0,
            qubits_used: 5,
        };
        let profile = SuiteProfile {
            instrumented_wall: 1.0,
            baseline_wall: 1.0,
            stage_seconds: vec![],
        };
        let all = json_report(2, &[], Some(&cmp), Some(&res), Some(&profile), None);
        for section in ["\"profile\": {", "\"resident\": {", "\"shard\": {"] {
            assert!(all.contains(section), "missing {section} in {all}");
        }
        assert!(all.trim_end().ends_with('}'));
    }

    #[test]
    fn connections_section_renders() {
        use crate::connstress::ConnStress;
        use std::collections::BTreeSet;
        let stress = ConnStress {
            connections: 400,
            completed: 400,
            errors: 0,
            peak_connections: 400,
            shed: 0,
            wall_seconds: 1.0,
            first_byte_p50: 0.001,
            first_byte_p95: 0.002,
            first_byte_p99: 0.003,
            complete_p50: 0.004,
            complete_p95: 0.005,
            complete_p99: 0.006,
            digests: BTreeSet::from(["d1".to_string()]),
            reference_digests: BTreeSet::from(["d1".to_string()]),
            anchor_compile_seconds: 0.5,
        };
        assert!((stress.wall_ratio() - 2.0).abs() < 1e-12);
        assert!(stress.digest_match());
        let report = json_report(2, &[], None, None, None, Some(&stress));
        assert!(report.contains("\"connections\": { \"connections\": 400,"));
        assert!(report.contains("\"peak_connections\": 400"));
        assert!(report.contains("\"anchor_compile_seconds\": 0.500000"));
        assert!(report.contains("\"wall_ratio\": 2.0000"));
        assert!(report.contains("\"digest_match\": true"));
        assert!(report.contains("\"first_byte_p95\": 0.002000"));
        assert!(report.trim_end().ends_with('}'));
        let diverged = ConnStress {
            reference_digests: BTreeSet::from(["d2".to_string()]),
            ..stress
        };
        assert!(!diverged.digest_match());
    }

    #[test]
    fn shard_batch_is_small_and_narrow() {
        let graph = shard_device();
        assert_eq!(graph.n_qubits(), 130);
        let quick = shard_jobs(true, &graph);
        assert_eq!(quick.len(), 6, "quick batch: ≥ 4 small workloads");
        let full = shard_jobs(false, &graph);
        assert_eq!(full.len(), 8);
        for j in &full {
            assert!(
                j.hamiltonian.n_qubits <= 16,
                "{} too wide for sharding demo",
                j.name
            );
        }
        // Distinct content throughout — content-equal jobs would coalesce
        // in the cache and skew the sequential baseline.
        let keys: std::collections::HashSet<u64> = full.iter().map(|j| j.cache_key()).collect();
        assert_eq!(keys.len(), full.len());
        // The full batch (plus slack) always fits the device with
        // headroom for the carver.
        let widths: usize = full.iter().map(|j| j.hamiltonian.n_qubits + 2).sum();
        assert!(widths < 130);
    }
}

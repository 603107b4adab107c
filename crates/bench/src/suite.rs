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
    RegionScheduler, ResidentBatch, SchedulerStats,
};
use tetris_obs::StageTimings;
use tetris_pauli::encoder::Encoding;
use tetris_pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris_pauli::uccsd::synthetic_ucc;
use tetris_pauli::Hamiltonian;
use tetris_server::json::{self, Value};
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

// ------------------------------------------------------------ region batch

/// The region batch's device: a 130-node heavy-hex chip that hosts
/// several of [`shard_jobs`]' small workloads at once.
pub fn shard_device() -> Arc<CouplingGraph> {
    Arc::new(CouplingGraph::heavy_hex(7, 16)) // 7·16 + 6·3 = 130 nodes
}

/// Builds the region batch against `graph`: one Tetris job per small
/// workload (widths ≤ 16), every job far narrower than the device. `quick`
/// keeps the six smallest. The jobs are deliberately of *comparable* cost
/// (same width family, distinct seeds → distinct content): a batch whose
/// wall-clock one heavy job dominates would measure that job, not the
/// regions.
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

// ------------------------------------------------------ resident scheduling

/// The region scheduler on the region batch ([`shard_jobs`] on
/// [`shard_device`]), cold and warm.
///
/// Cold: the batch's first submission through a fresh [`RegionScheduler`]
/// on a cold engine against one sequential pass of the same jobs on a
/// one-worker engine, each job compiled against the whole chip.
///
/// Warm: resident regions vs residency off over steady-state repeat
/// traffic, the same batch submitted `batches` times to each side, both
/// warmed once first. The per-batch side schedules every submission on a
/// fresh [`RegionScheduler`], so it re-carves every time (its artifacts
/// are cache hits); the resident side keeps one scheduler and serves every
/// placement from the free-list and every artifact from the resident
/// cache. Each batch is timed on its own and the sides alternate on every
/// repeat, so machine drift lands on both; the comparison is between the
/// per-batch medians.
#[derive(Debug, Clone)]
pub struct ResidentComparison {
    /// The device both sides target.
    pub device: String,
    /// Device width in qubits.
    pub device_qubits: usize,
    /// Jobs per batch.
    pub jobs: usize,
    /// Timed repeat batches per side (the warm-up batch is untimed).
    pub batches: usize,
    /// Wall-clock seconds of the sequential whole-chip pass.
    pub sequential_wall: f64,
    /// Wall-clock seconds of the cold region batch (carve, region compiles
    /// on the pool, relabel): the per-batch side's warm-up.
    pub region_cold_wall: f64,
    /// Physical qubits granted to each placed job of the cold batch, in
    /// submission order.
    pub region_qubits: Vec<usize>,
    /// Jobs of the cold batch the scheduler could not place (compiled
    /// whole-chip).
    pub leftover: usize,
    /// Physical qubits the cold batch's scheduler holds resident after it.
    pub qubits_used: usize,
    /// Median wall-clock seconds of one repeat batch on a fresh scheduler.
    pub per_batch_median: f64,
    /// Median wall-clock seconds of one repeat batch through the resident
    /// scheduler.
    pub resident_median: f64,
    /// The resident scheduler's counters across warm-up + timed batches.
    pub carves: SchedulerStats,
    /// Whether both sides matched the independent reference (a direct
    /// carve plus a serial compile on each induced subgraph), digest for
    /// digest and region for region.
    pub digest_match: bool,
}

impl ResidentComparison {
    /// Per-batch-over-resident speedup of the median repeat.
    pub fn speedup(&self) -> f64 {
        if self.resident_median <= 0.0 {
            return 0.0;
        }
        self.per_batch_median / self.resident_median
    }

    /// The gate, against the committed `resident.reference.json` (taken
    /// with `--quick`): every job placed on a region whose sizes add up to
    /// what the scheduler holds, the cold region batch faster than the
    /// sequential whole-chip pass, repeat placements served by the
    /// free-list, digests equal to the independent reference, and the
    /// warm speedup above 1 and at least half the reference's.
    pub fn check(&self) -> Vec<String> {
        let reference = reference(include_str!("../resident.reference.json"));
        let (jobs, batches, leftover) = (self.jobs, self.batches, self.leftover);
        let (ref_jobs, ref_batches) = (reference("jobs"), reference("batches"));
        let shape = jobs as f64 == ref_jobs && batches as f64 == ref_batches;
        let (placed, used) = (self.region_qubits.iter().sum::<usize>(), self.qubits_used);
        let device = self.device_qubits;
        let fits = placed == used && used <= device;
        let (seq, cold) = (self.sequential_wall, self.region_cold_wall);
        let (per, res) = (self.per_batch_median, self.resident_median);
        let skip = self.carves.carve_skip_ratio();
        let (speedup, half) = (self.speedup(), reference("speedup") / 2.0);
        let mut failures = Vec::new();
        let mut require = |holds: bool, what: String| {
            if !holds {
                failures.push(format!("resident: {what}"));
            }
        };
        require(leftover == 0, format!("{leftover} jobs unplaced"));
        require(jobs >= 4, format!("{jobs} jobs < 4"));
        require(
            cold < seq,
            format!("cold {cold:.4}s >= sequential {seq:.4}s"),
        );
        require(fits, format!("regions {placed}, held {used} of {device}"));
        require(self.digest_match, "digests drifted".into());
        require(skip >= 0.9, format!("carve-skip ratio {skip:.4} < 0.9"));
        require(
            shape,
            format!("shape {jobs}x{batches} != {ref_jobs}x{ref_batches}"),
        );
        require(
            res < per,
            format!("resident {res:.6}s >= per-batch {per:.6}s"),
        );
        require(
            speedup >= half,
            format!("speedup {speedup:.3}x < ref/2 {half:.3}x"),
        );
        failures
    }
}

/// Runs the resident comparison. The cold side first: the per-batch
/// side's warm-up, timed, then the sequential whole-chip pass. Then one
/// warm-up submission on the resident side (so neither warm side pays cold
/// compiles inside the timed window), then `batches` individually timed
/// repeats per side, alternating which side goes first. The two region
/// engines are separate and equally sized.
///
/// # Panics
/// Panics if any job fails on either side — the batch always fits the
/// device.
pub fn run_resident_comparison(quick: bool, threads: usize) -> ResidentComparison {
    let graph = shard_device();
    let batches = if quick { 50 } else { 150 };
    // Build the workloads once and clone per submission (inputs are
    // `Arc`-shared, so a clone is pointer bumps): the timed loops compare
    // the two sides' scheduling, not repeated Hamiltonian construction.
    let jobs = shard_jobs(quick, &graph);
    let n_jobs = jobs.len();
    let engine = |threads, cache_capacity| {
        Engine::new(EngineConfig {
            threads,
            cache_capacity,
            cache_dir: None,
            cache_max_bytes: None,
        })
    };
    eprintln!(
        "[bench-suite] resident comparison: {n_jobs} jobs × {batches} batches on {} — \
         fresh scheduler per batch vs one resident scheduler…",
        graph.name()
    );

    // Cold: the per-batch side's warm-up on its fresh engine, against a
    // sequential whole-chip pass on an uncached one-worker engine.
    let per_batch_engine = engine(threads, 1024);
    let cold = RegionScheduler::with_default_config();
    let t0 = Instant::now();
    let warm_per_batch = cold.schedule_batch(&per_batch_engine, jobs.clone());
    let region_cold_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let sequential = engine(1, 0).compile_batch(jobs.clone());
    let sequential_wall = t0.elapsed().as_secs_f64();
    assert!(
        sequential.iter().all(|r| r.error.is_none()),
        "sequential whole-chip pass failed"
    );

    // Warm. Per-batch side: the artifacts are cache hits after the
    // warm-up, but every submission's fresh scheduler re-carves. Resident
    // side: the warm-up batch carves the regions; every repeat reuses them
    // and hits the resident artifact cache.
    let resident_engine = engine(threads, 1024);
    let scheduler = RegionScheduler::with_default_config();
    let per_batch =
        || RegionScheduler::with_default_config().schedule_batch(&per_batch_engine, jobs.clone());
    let resident = || scheduler.schedule_batch(&resident_engine, jobs.clone());
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
        "[bench-suite] resident comparison: cold region batch {:.2}ms vs sequential whole-chip \
         {:.2}ms; median batch per-batch {:.2}ms vs resident {:.2}ms ({:.1}x, carve-skip {:.3})",
        region_cold_wall * 1e3,
        sequential_wall * 1e3,
        per_batch_median * 1e3,
        resident_median * 1e3,
        per_batch_median / resident_median.max(1e-9),
        stats.carve_skip_ratio(),
    );
    let regions = || warm_per_batch.results.iter().map(|r| r.region.as_ref());
    ResidentComparison {
        device: graph.name().to_string(),
        device_qubits: graph.n_qubits(),
        jobs: n_jobs,
        batches,
        sequential_wall,
        region_cold_wall,
        region_qubits: regions().flatten().map(|region| region.len()).collect(),
        leftover: regions().filter(Option::is_none).count(),
        qubits_used: cold.stats().resident_qubits,
        per_batch_median,
        resident_median,
        carves: stats,
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

/// Disabled/enabled pairs the overhead profile runs; odd, so the median is
/// one pair's fraction.
const PROFILE_PAIRS: usize = 5;

/// Observability-overhead measurement: [`PROFILE_PAIRS`] pairs of cold
/// suite compiles, recording disabled (the baseline) and enabled
/// (instrumented), plus the instrumented side's per-stage wall-time
/// aggregates.
#[derive(Debug, Clone)]
pub struct SuiteProfile {
    /// `(baseline, instrumented)` summed compile wall-clock seconds of each
    /// pair, in run order.
    pub pairs: Vec<(f64, f64)>,
    /// Summed per-stage busy walls across every instrumented compile,
    /// nonzero stages only, in stage order.
    pub stage_seconds: Vec<(&'static str, f64)>,
}

impl SuiteProfile {
    /// Each pair's relative cost of recording:
    /// `(instrumented - baseline) / baseline`. Negative values are
    /// measurement noise — instrumentation cannot make compilation faster.
    pub fn overhead_fractions(&self) -> Vec<f64> {
        let fraction = |&(base, inst): &(f64, f64)| (inst - base) / base;
        self.pairs.iter().map(fraction).collect()
    }

    /// The median pair's overhead fraction.
    pub fn overhead_fraction(&self) -> f64 {
        median(self.overhead_fractions())
    }

    /// The gate: recording costs under 5% of the uninstrumented compile
    /// wall at the median pair, and the routing stage is attributed real
    /// wall time (a rename or a dropped span would zero it out).
    pub fn check(&self) -> Vec<String> {
        let (frac, pairs) = (self.overhead_fraction(), self.overhead_fractions());
        let stages = &self.stage_seconds;
        let routing = stages
            .iter()
            .find(|s| s.0 == "routing")
            .map_or(0.0, |s| s.1);
        let mut failures = Vec::new();
        let mut require = |holds: bool, what: String| {
            if !holds {
                failures.push(format!("profile: {what}"));
            }
        };
        require(
            frac < 0.05,
            format!("median overhead {frac:.4} >= 0.05 {pairs:?}"),
        );
        require(routing > 0.0, format!("no routing wall in {stages:?}"));
        failures
    }
}

/// The median of `values` (nearest rank; 0 when empty).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 50.0)
}

/// Runs the overhead profile: [`PROFILE_PAIRS`] pairs, each compiling
/// every suite job twice back to back, once with recording disabled and
/// once enabled, on two fresh uncached engines, and summing each side's
/// compile walls. Adjacent compiles see the same machine load, so load
/// that comes and goes lands on both sides; which side goes first
/// alternates from job to job, so neither gets the warmer caches.
/// Recording is re-enabled before returning.
pub fn run_suite_profile(quick: bool, threads: usize, graph: &Arc<CouplingGraph>) -> SuiteProfile {
    let engine = || {
        Engine::new(EngineConfig {
            threads,
            cache_capacity: 0,
            cache_dir: None,
            cache_max_bytes: None,
        })
    };
    let jobs = suite_jobs(quick, graph);
    let mut pairs = Vec::with_capacity(PROFILE_PAIRS);
    let mut totals = StageTimings::default();
    for pair in 0..PROFILE_PAIRS {
        eprintln!(
            "[bench-suite] profile: pair {}/{PROFILE_PAIRS}, each job recording disabled and enabled…",
            pair + 1
        );
        let sides = [engine(), engine()];
        let mut walls = [0.0; 2];
        for (i, job) in jobs.iter().enumerate() {
            for recording in [(i + pair) % 2 == 0, (i + pair) % 2 == 1] {
                tetris_obs::set_enabled(recording);
                let t0 = Instant::now();
                let results = sides[recording as usize].compile_batch(vec![job.clone()]);
                walls[recording as usize] += t0.elapsed().as_secs_f64();
                if recording {
                    totals.merge(&results[0].stages);
                }
            }
        }
        tetris_obs::set_enabled(true);
        pairs.push((walls[0], walls[1]));
    }
    let profile = SuiteProfile {
        pairs,
        stage_seconds: totals
            .iter()
            .filter(|(_, secs)| *secs > 0.0)
            .map(|(stage, secs)| (stage.name(), secs))
            .collect(),
    };
    eprintln!(
        "[bench-suite] profile: {:+.1}% median overhead",
        100.0 * profile.overhead_fraction()
    );
    profile
}

/// A committed reference file as a lookup from key to number, NaN when
/// the key is missing (so every comparison with it fails).
///
/// # Panics
/// Panics if the file is not JSON; the unit tests of every gate read
/// their reference.
pub(crate) fn reference(text: &str) -> impl Fn(&str) -> f64 {
    let doc = json::parse(text).expect("committed reference is JSON");
    move |key| doc.get(key).and_then(Value::as_num).unwrap_or(f64::NAN)
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
    /// The gate: every job of the pass compiled without error.
    pub fn check(&self) -> Vec<String> {
        let failed = self.results.iter().filter_map(|r| {
            let error = r.error.as_deref()?;
            Some(format!(
                "pass {}: {} via {}: {error}",
                self.pass, r.name, r.compiler
            ))
        });
        failed.collect()
    }

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
/// counters and per-job timings and stats; with `resident` set, a
/// `"resident"` section with the cold region batch against a sequential
/// whole-chip pass and one long-lived scheduler against a fresh scheduler
/// per batch on repeat traffic; with `profile` set, a `"profile"` section
/// with the observability overhead and per-stage wall-time aggregates;
/// with `connections` set, a `"connections"` section with the reactor
/// front-end's connect storm and its independent references.
pub fn json_report(
    threads: usize,
    passes: &[SuitePass],
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
                Some(msg) => format!(" \"error\": \"{}\",", json::escape(msg)),
                None => String::new(),
            };
            let _ = write!(
                out,
                "        {{ \"name\": \"{}\", \"compiler\": \"{}\", \"cache_key\": \"{:016x}\", \
                 \"cached\": {},{} \"engine_seconds\": {:.6}, \"compile_seconds\": {:.6}, \
                 \"cnots\": {}, \"swaps\": {}, \"depth\": {}, \"duration\": {}, \
                 \"cancel_ratio\": {:.4} }}",
                json::escape(&r.name),
                json::escape(&r.compiler),
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
        let fractions: Vec<String> = p
            .overhead_fractions()
            .iter()
            .map(|f| format!("{f:.6}"))
            .collect();
        let stages: Vec<String> = p
            .stage_seconds
            .iter()
            .map(|(name, secs)| format!("\"{name}\": {secs:.6}"))
            .collect();
        sections.push(format!(
            "  \"profile\": {{\n    \"baseline_wall_seconds\": {:.6},\n    \
             \"instrumented_wall_seconds\": {:.6},\n    \"overhead_fraction\": {:.6},\n    \
             \"pair_overhead_fractions\": [{}],\n    \"stage_seconds\": {{ {} }}\n  }}",
            median(p.pairs.iter().map(|p| p.0).collect()),
            median(p.pairs.iter().map(|p| p.1).collect()),
            p.overhead_fraction(),
            fractions.join(", "),
            stages.join(", "),
        ));
    }
    if let Some(r) = resident {
        let region_qubits: Vec<String> = r.region_qubits.iter().map(usize::to_string).collect();
        sections.push(format!(
            "  \"resident\": {{\n    \"device\": \"{}\",\n    \"device_qubits\": {},\n    \
             \"jobs\": {},\n    \"leftover\": {},\n    \"sequential_wall_seconds\": {:.6},\n    \
             \"region_cold_wall_seconds\": {:.6},\n    \"region_qubits\": [{}],\n    \
             \"qubits_used\": {},\n    \"batches\": {},\n    \"per_batch_median_seconds\": {:.6},\n    \
             \"resident_median_seconds\": {:.6},\n    \"speedup\": {:.4},\n    \
             \"carves_performed\": {},\n    \"carves_skipped\": {},\n    \
             \"carve_skip_ratio\": {:.4},\n    \"digest_match\": {}\n  }}",
            json::escape(&r.device),
            r.device_qubits,
            r.jobs,
            r.leftover,
            r.sequential_wall,
            r.region_cold_wall,
            region_qubits.join(", "),
            r.qubits_used,
            r.batches,
            r.per_batch_median,
            r.resident_median,
            r.speedup(),
            r.carves.carves_performed,
            r.carves.carves_skipped,
            r.carves.carve_skip_ratio(),
            r.digest_match,
        ));
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
        let report = json_report(4, &[], None, None, None);
        assert!(report.contains("\"threads\": 4"));
        assert!(report.trim_end().ends_with('}'));
    }

    fn profile(pairs: &[(f64, f64)]) -> SuiteProfile {
        SuiteProfile {
            pairs: pairs.to_vec(),
            stage_seconds: vec![("clustering", 0.25), ("routing", 0.5)],
        }
    }

    #[test]
    fn profile_section_renders() {
        let profile = profile(&[(1.0, 1.01), (1.0, 1.03), (2.0, 2.2)]);
        assert!((profile.overhead_fraction() - 0.03).abs() < 1e-9);
        let report = json_report(2, &[], None, Some(&profile), None);
        assert!(report.contains("\"profile\": {"));
        assert!(report.contains("\"baseline_wall_seconds\": 1.000000"));
        assert!(report.contains("\"instrumented_wall_seconds\": 1.030000"));
        assert!(report.contains("\"overhead_fraction\": 0.030000"));
        assert!(report.contains("\"pair_overhead_fractions\": [0.010000, 0.030000, 0.100000]"));
        assert!(report.contains("\"clustering\": 0.250000"));
        assert!(report.trim_end().ends_with('}'));
    }

    #[test]
    fn profile_check_gates_the_median_pair() {
        // One noisy pair past the bound does not decide the gate …
        assert!(profile(&[(1.0, 0.97), (1.0, 1.04), (1.0, 1.2)])
            .check()
            .is_empty());
        // … a median overhead of 6% does.
        let failures = profile(&[(1.0, 1.06), (1.0, 1.0), (1.0, 1.1)]).check();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("profile: median overhead 0.0600"));
        let unattributed = SuiteProfile {
            stage_seconds: vec![("clustering", 0.25)],
            ..profile(&[(1.0, 1.0)])
        };
        assert!(unattributed.check()[0].starts_with("profile: no routing wall"));
    }

    /// A resident comparison that passes its gate against the committed
    /// reference (6 jobs x 50 batches, speedup 1.795).
    fn resident() -> ResidentComparison {
        ResidentComparison {
            device: "heavy-hex-7x16".into(),
            device_qubits: 130,
            jobs: 6,
            batches: 50,
            sequential_wall: 0.09,
            region_cold_wall: 0.013,
            region_qubits: vec![14, 14, 14, 14, 12, 12],
            leftover: 0,
            qubits_used: 80,
            per_batch_median: 2.0,
            resident_median: 0.5,
            carves: SchedulerStats {
                carves_performed: 6,
                carves_skipped: 60,
                ..Default::default()
            },
            digest_match: true,
        }
    }

    #[test]
    fn resident_section_renders() {
        let res = resident();
        assert!((res.speedup() - 4.0).abs() < 1e-12);
        let report = json_report(2, &[], Some(&res), None, None);
        assert!(report.contains("\"resident\": {"));
        assert!(report.contains("\"carve_skip_ratio\": 0.9091"));
        assert!(report.contains("\"digest_match\": true"));
        assert!(report.contains("\"region_qubits\": [14, 14, 14, 14, 12, 12]"));
        assert!(report.contains("\"sequential_wall_seconds\": 0.090000"));
        assert!(report.trim_end().ends_with('}'));
        // Both trailing sections coexist in one report.
        let all = json_report(2, &[], Some(&res), Some(&profile(&[])), None);
        for section in ["\"profile\": {", "\"resident\": {"] {
            assert!(all.contains(section), "missing {section} in {all}");
        }
        assert!(all.trim_end().ends_with('}'));
    }

    #[test]
    fn resident_check_fails_past_each_bound() {
        assert_eq!(resident().check(), Vec::<String>::new());
        let fails = |edit: fn(&mut ResidentComparison), want: &str| {
            let mut comparison = resident();
            edit(&mut comparison);
            let failures = comparison.check();
            assert!(
                failures.iter().any(|f| f.starts_with(want)),
                "{want}: {failures:?}"
            );
        };
        fails(|r| r.leftover = 1, "resident: 1 jobs unplaced");
        fails(|r| r.jobs = 3, "resident: 3 jobs < 4");
        fails(
            |r| r.region_cold_wall = 0.09,
            "resident: cold 0.0900s >= sequential",
        );
        fails(
            |r| r.qubits_used = 81,
            "resident: regions 80, held 81 of 130",
        );
        fails(|r| r.digest_match = false, "resident: digests drifted");
        fails(
            |r| r.carves.carves_skipped = 53,
            "resident: carve-skip ratio 0.8983",
        );
        fails(|r| r.batches = 150, "resident: shape 6x150 != 6x50");
        fails(
            |r| r.resident_median = 2.0,
            "resident: resident 2.000000s >= per-batch",
        );
        fails(
            |r| r.resident_median = 2.5,
            "resident: speedup 0.800x < ref/2 0.897x",
        );
    }

    #[test]
    fn pass_check_names_every_failed_job() {
        let graph = Arc::new(CouplingGraph::line(4));
        let job = |name: &str, nodes: usize| {
            CompileJob::new(
                name,
                Backend::Tetris(TetrisConfig::default()),
                Arc::new(maxcut_hamiltonian(
                    &Graph::random_regular(nodes, 3, 1),
                    name,
                )),
                graph.clone(),
            )
        };
        let engine = Engine::new(EngineConfig {
            threads: 1,
            cache_capacity: 0,
            cache_dir: None,
            cache_max_bytes: None,
        });
        // Wider than the device: the compiler fails, the job reports it.
        let results = engine.compile_batch(vec![job("fits", 4), job("too-wide", 8)]);
        let pass = SuitePass {
            pass: 1,
            wall_seconds: 0.0,
            results,
            cache: engine.cache_stats(),
        };
        let failures = pass.check();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("pass 1: too-wide via "),
            "{failures:?}"
        );
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
        let report = json_report(2, &[], None, None, Some(&stress));
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

//! Region scheduling, end to end: a batch of small workloads lands on
//! disjoint connected regions of one large chip, in global coordinates,
//! hardware-compliant, deterministic and cache-separated from whole-chip
//! compiles; carved regions survive across batches, repeat-shape traffic
//! skips carving while staying bit-identical to an independent reference
//! (a direct carve plus a serial compile on the induced subgraph),
//! per-region FIFO queues serialize contending jobs, the defragmenter
//! un-fragments a starved wide job, and isomorphic regions share
//! content-addressed cache entries.

use std::sync::Arc;
use tetris_core::TetrisConfig;
use tetris_engine::{
    slack_for_width, Backend, CompileJob, Engine, EngineConfig, JobResult, RegionScheduler,
    SchedulerStats,
};
use tetris_pauli::mask::QubitMask;
use tetris_pauli::{Hamiltonian, PauliBlock, PauliTerm};
use tetris_topology::{CouplingGraph, Region};

fn engine(threads: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity: 256,
        cache_dir: None,
        cache_max_bytes: None,
    })
}

/// A small multi-block workload of the given width (the phase feeds the
/// angles so no two jobs share content unless intended).
fn small_ham(name: &str, width: usize, phase: usize) -> Arc<Hamiltonian> {
    let mut blocks = Vec::new();
    for k in 0..width - 1 {
        let mut s = vec!['I'; width];
        s[k] = if (k + phase).is_multiple_of(2) {
            'X'
        } else {
            'Y'
        };
        s[k + 1] = 'Z';
        let string: String = s.into_iter().collect();
        blocks.push(PauliBlock::new(
            vec![PauliTerm::new(string.parse().unwrap(), 1.0)],
            0.15 + 0.05 * k as f64 + 0.013 * phase as f64,
            format!("b{k}"),
        ));
    }
    Arc::new(Hamiltonian::new(width, blocks, name))
}

fn job(name: &str, width: usize, phase: usize, graph: &Arc<CouplingGraph>) -> CompileJob {
    CompileJob::new(
        name,
        Backend::Tetris(TetrisConfig::default()),
        small_ham(name, width, phase),
        graph.clone(),
    )
}

/// The steady-state service batch: five small workloads on the 130-node
/// heavy-hex chip, same shape every time.
fn service_batch(graph: &Arc<CouplingGraph>) -> Vec<CompileJob> {
    [4usize, 5, 6, 5, 4]
        .into_iter()
        .enumerate()
        .map(|(i, w)| job(&format!("svc{i}"), w, i, graph))
        .collect()
}

/// The independent reference for jobs placed on a fresh chip: a direct
/// carve of every job's grant size (`width + slack_for_width(width)`),
/// then a serial compile of each job against its induced subgraph. Stats
/// digests are relabeling-invariant, so they compare directly with the
/// scheduler's global-coordinate artifacts.
fn reference(jobs: &[CompileJob]) -> Vec<(Region, u64)> {
    let graph = &jobs[0].graph;
    let sizes: Vec<usize> = jobs
        .iter()
        .map(|j| j.hamiltonian.n_qubits + slack_for_width(j.hamiltonian.n_qubits))
        .collect();
    let regions = graph.carve(&sizes).expect("the reference batch fits");
    jobs.iter()
        .zip(regions)
        .map(|(j, region)| {
            let induced = CompileJob::new(
                j.name.clone(),
                j.backend,
                j.hamiltonian.clone(),
                Arc::new(graph.induced(&region)),
            );
            (region, induced.run().stats_digest())
        })
        .collect()
}

/// Results compiled whole-chip rather than on a region.
fn leftover(results: &[JobResult]) -> usize {
    results.iter().filter(|r| r.region.is_none()).count()
}

/// `(carves performed, carves skipped, defrags, displaced)` between two
/// scheduler snapshots.
fn delta(before: SchedulerStats, after: SchedulerStats) -> (u64, u64, u64, u64) {
    (
        after.carves_performed - before.carves_performed,
        after.carves_skipped - before.carves_skipped,
        after.defrags - before.defrags,
        after.displaced - before.displaced,
    )
}

fn assert_matches_reference(results: &[JobResult], jobs: &[CompileJob]) {
    for (r, (region, digest)) in results.iter().zip(reference(jobs)) {
        assert_eq!(r.region.as_ref(), Some(&region), "{}", r.name);
        assert_eq!(r.output.stats_digest(), digest, "{}", r.name);
    }
}

#[test]
fn resident_results_match_the_reference_and_repeats_skip_carving() {
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let scheduler = RegionScheduler::with_default_config();
    let resident_engine = engine(4);

    // Cold batch: every job carves a fresh region, one round.
    let before = scheduler.stats();
    let first = scheduler.schedule_batch(&resident_engine, service_batch(&graph));
    assert_eq!(first.results.len(), 5);
    assert!(first.results.iter().all(|r| r.error.is_none()));
    assert_eq!(delta(before, scheduler.stats()), (5, 0, 0, 0));
    assert_eq!(leftover(&first.results), 0);

    // Bit-identical to the independent reference: the cold whole-group
    // carve is a direct carve of the grant sizes, so regions — and
    // therefore relabeled artifacts — agree digest for digest. Only the
    // first round's one-shot carve of all five grants yields them.
    assert_matches_reference(&first.results, &service_batch(&graph));

    // Repeat-shape traffic: zero carves, every placement served by the
    // free-list, every artifact straight from the resident cache.
    let before = scheduler.stats();
    let again = scheduler.schedule_batch(&resident_engine, service_batch(&graph));
    assert_eq!(delta(before, scheduler.stats()), (0, 5, 0, 0));
    assert!(again.results.iter().all(|r| r.cached));
    for (a, b) in first.results.iter().zip(&again.results) {
        assert_eq!(a.region, b.region);
        assert_eq!(a.output.stats_digest(), b.output.stats_digest());
    }
    assert!((scheduler.stats().carve_skip_ratio() - 0.5).abs() < 1e-12);

    // The free-list survives between batches: one device, five resident
    // regions, all idle, two jobs served each.
    let snapshot = scheduler.snapshot();
    assert_eq!(snapshot.len(), 1);
    assert_eq!(snapshot[0].device_qubits, 130);
    assert_eq!(snapshot[0].regions.len(), 5);
    assert!(snapshot[0].regions.iter().all(|r| !r.busy));
    assert!(snapshot[0].regions.iter().all(|r| r.jobs_served == 2));

    // A grown batch reuses what fits and carves only the new shape.
    let mut grown = service_batch(&graph);
    grown.push(job("svc5", 7, 5, &graph));
    let before = scheduler.stats();
    let third = scheduler.schedule_batch(&resident_engine, grown);
    assert_eq!(delta(before, scheduler.stats()), (1, 5, 0, 0));
    assert!(third.results.iter().all(|r| r.error.is_none()));
}

#[test]
fn per_region_fifo_serializes_contending_jobs() {
    // Two 4-qubit jobs on a 6-qubit grid: only one 4-region fits, so the
    // second job takes a ticket and runs on the same region one round
    // later: one carve, then one skip when the ticket claims the region.
    let graph = Arc::new(CouplingGraph::grid(2, 3));
    let scheduler = RegionScheduler::with_default_config();
    let eng = engine(2);
    let batch = scheduler.schedule_batch(
        &eng,
        vec![job("first", 4, 0, &graph), job("second", 4, 1, &graph)],
    );
    assert!(batch.results.iter().all(|r| r.error.is_none()));
    assert_eq!(
        delta(SchedulerStats::default(), scheduler.stats()),
        (1, 1, 0, 0)
    );
    assert_eq!(leftover(&batch.results), 0);
    assert_eq!(
        batch.results[0].region, batch.results[1].region,
        "both jobs ran on the one region"
    );
    // One region resident afterwards, idle, having served both jobs.
    let snapshot = scheduler.snapshot();
    assert_eq!(snapshot[0].regions.len(), 1);
    assert!(!snapshot[0].regions[0].busy);
    assert_eq!(snapshot[0].regions[0].jobs_served, 2);
    assert_eq!(snapshot[0].regions[0].queue_depth, 0);
}

#[test]
fn defragmenter_recarves_for_a_starved_wide_job() {
    // Four 3-qubit jobs tile the whole 12-qubit grid; the following
    // 9-qubit job finds no compatible region and no room to carve — the
    // defragmenter must release the idle tiles and re-carve, and the job's
    // artifact must match the independent reference for the same job on
    // an empty chip (defrag compacts back to the empty-chip carve).
    let graph = Arc::new(CouplingGraph::grid(3, 4));
    let scheduler = RegionScheduler::with_default_config();
    let eng = engine(2);

    let tiles: Vec<CompileJob> = (0..4)
        .map(|i| job(&format!("tile{i}"), 3, i, &graph))
        .collect();
    let first = scheduler.schedule_batch(&eng, tiles);
    let tiled = scheduler.stats();
    assert_eq!(tiled.carves_performed, 4);
    assert!(first.results.iter().all(|r| r.error.is_none()));
    assert_eq!(tiled.resident_qubits, 12, "chip fully tiled");

    let wide = scheduler.schedule_batch(&eng, vec![job("wide", 9, 7, &graph)]);
    let result = &wide.results[0];
    assert!(result.error.is_none(), "{:?}", result.error);
    assert_eq!(delta(tiled, scheduler.stats()), (1, 0, 1, 0));
    assert_eq!(leftover(&wide.results), 0, "defrag made room — no fallback");
    let region = result.region.as_ref().expect("placed after defrag");
    assert_eq!(region.len(), 9);
    assert!(graph.is_region_connected(region));

    let stats = scheduler.stats();
    assert_eq!(stats.defrags, 1);
    assert_eq!(stats.regions_released, 4, "all idle tiles released");
    assert_eq!(stats.resident_regions, 1, "only the re-carved region left");

    // Digest-pinned against the independent reference: the defragmented
    // chip is empty again, so the re-carve is a direct carve.
    assert_matches_reference(&wide.results, &[job("wide", 9, 7, &graph)]);
}

#[test]
fn isomorphic_regions_share_one_cache_entry() {
    // Two disjoint, identically-wired patches of the heavy-hex service
    // chip: rows 0–1 with their col-0/col-4 bridges, and the same patch
    // translated down two rows. Translation preserves the ascending
    // member order, so the induced subgraphs are equal re-indexed graphs
    // — equal fingerprints, equal job cache keys, one compile.
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let a = Region::new(130, [0, 1, 2, 3, 4, 16, 17, 19, 20, 21, 22, 23]);
    let b = Region::new(130, [38, 39, 40, 41, 42, 54, 55, 57, 58, 59, 60, 61]);
    assert!(a.is_disjoint_from(&b));
    assert!(graph.is_region_connected(&a));
    assert!(graph.is_region_connected(&b));
    let induced_a = Arc::new(graph.induced(&a));
    let induced_b = Arc::new(graph.induced(&b));
    assert_eq!(
        induced_a.fingerprint(),
        induced_b.fingerprint(),
        "identical local wiring fingerprints identically"
    );

    let eng = engine(2);
    let ham = small_ham("iso", 12, 0);
    let on_a = CompileJob::new(
        "iso-a",
        Backend::Tetris(TetrisConfig::default()),
        ham.clone(),
        induced_a,
    );
    let on_b = CompileJob::new(
        "iso-b",
        Backend::Tetris(TetrisConfig::default()),
        ham,
        induced_b,
    );
    assert_eq!(on_a.cache_key(), on_b.cache_key());

    let first = eng.compile_batch(vec![on_a]);
    let cold = eng.cache_stats();
    assert!(!first[0].cached);
    let second = eng.compile_batch(vec![on_b]);
    let warm = eng.cache_stats();
    assert!(
        second[0].cached,
        "the isomorphic region must hit the shared entry"
    );
    assert_eq!(warm.hits, cold.hits + 1, "exactly one extra hit");
    assert_eq!(warm.misses, cold.misses, "and no extra miss");
    assert_eq!(
        first[0].output.stats_digest(),
        second[0].output.stats_digest()
    );
}

#[test]
fn impossible_jobs_fall_back_whole_chip_with_a_clean_error() {
    // Wider than the device: never placed, compiled whole-chip, and the
    // compiler's own failure is reported — not a hang, not a panic.
    let graph = Arc::new(CouplingGraph::line(4));
    let scheduler = RegionScheduler::with_default_config();
    let eng = engine(2);
    let batch = scheduler.schedule_batch(
        &eng,
        vec![job("narrow", 3, 0, &graph), job("wide", 7, 1, &graph)],
    );
    assert!(batch.results[0].error.is_none());
    assert!(batch.results[0].region.is_some());
    assert!(batch.results[1].error.is_some(), "too wide fails cleanly");
    assert!(batch.results[1].region.is_none());
    assert_eq!(leftover(&batch.results), 1);
}

#[test]
fn region_batch_packs_disjoint_regions_on_130_node_heavy_hex() {
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    assert_eq!(graph.n_qubits(), 130);
    let batch =
        RegionScheduler::with_default_config().schedule_batch(&engine(4), service_batch(&graph));
    assert_eq!(batch.results.len(), 5);
    assert_eq!(leftover(&batch.results), 0, "all five jobs fit");

    // Regions: connected, disjoint, sized to the job width (narrow jobs
    // get no slack).
    let mut union = QubitMask::empty(130);
    for (r, width) in batch.results.iter().zip([4usize, 5, 6, 5, 4]) {
        assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
        let region = r.region.as_ref().expect("placed job carries its region");
        assert!(graph.is_region_connected(region));
        assert_eq!(region.len(), width + slack_for_width(width));
        assert!(
            union.is_disjoint_from(region.mask()),
            "regions must not overlap"
        );
        union.union_with(region.mask());

        // The relabeled circuit runs on the big device, confined to its
        // region, and its final layout places every logical qubit inside
        // the region.
        assert!(r.output.circuit.is_hardware_compliant(&graph));
        let mut touched = QubitMask::empty(130);
        for gate in r.output.circuit.gates() {
            for q in gate.qubits().iter() {
                touched.insert(q);
            }
        }
        assert!(
            touched.is_subset_of(region.mask()),
            "{}: circuit escapes its region",
            r.name
        );
        let layout = r
            .output
            .final_layout
            .as_ref()
            .expect("tetris tracks layout");
        assert_eq!(layout.n_physical(), 130);
        let mut placed = QubitMask::empty(130);
        for q in 0..layout.n_logical() {
            placed.insert(layout.phys_of(q).expect("placed"));
        }
        assert!(placed.is_subset_of(region.mask()));
    }
    assert_eq!(union.count(), 4 + 5 + 6 + 5 + 4);
}

#[test]
fn region_results_are_deterministic_across_thread_counts() {
    // Fresh schedulers over fresh engines of different widths: same
    // regions, same digests, whatever the pool size.
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let wide =
        RegionScheduler::with_default_config().schedule_batch(&engine(4), service_batch(&graph));
    let serial =
        RegionScheduler::with_default_config().schedule_batch(&engine(1), service_batch(&graph));
    assert!(wide.results.iter().all(|r| !r.cached));
    for (a, b) in wide.results.iter().zip(&serial.results) {
        assert_eq!(a.region, b.region, "{}", a.name);
        assert_eq!(
            a.output.stats_digest(),
            b.output.stats_digest(),
            "{}",
            a.name
        );
    }
}

#[test]
fn region_and_whole_chip_results_never_share_cache_entries() {
    let graph = Arc::new(CouplingGraph::heavy_hex(7, 16));
    let eng = engine(4);
    let placed = RegionScheduler::with_default_config().schedule_batch(&eng, service_batch(&graph));
    assert!(placed.results.iter().all(|r| r.error.is_none()));

    // The same jobs compiled whole-chip afterwards must all MISS: region
    // entries are keyed by induced subgraphs and the resident
    // (job, region) key, never by the whole-chip job key.
    let whole = eng.compile_batch(service_batch(&graph));
    assert!(
        whole.iter().all(|r| !r.cached),
        "whole-chip compiles must not be served from region entries"
    );
    for (p, w) in placed.results.iter().zip(&whole) {
        assert_ne!(p.cache_key, w.cache_key, "{}", p.name);
    }
    // A repeat whole-chip batch is then fully cached under its own keys.
    let repeat = eng.compile_batch(service_batch(&graph));
    assert!(repeat.iter().all(|r| r.cached));
}

#[test]
fn batches_spanning_devices_keep_one_free_list_per_device() {
    let line = Arc::new(CouplingGraph::line(12));
    let ring = Arc::new(CouplingGraph::ring(12));
    let scheduler = RegionScheduler::with_default_config();
    let batch = scheduler.schedule_batch(
        &engine(2),
        vec![
            job("dev-a", 3, 0, &line),
            job("dev-b", 3, 1, &ring),
            job("dev-c", 4, 2, &line),
        ],
    );
    assert!(batch.results.iter().all(|r| r.error.is_none()));
    assert_eq!(scheduler.stats().carves_performed, 3);
    let snapshot = scheduler.snapshot();
    assert_eq!(snapshot.len(), 2, "first-seen device order");
    assert_eq!(snapshot[0].regions.len(), 2, "line hosts jobs 0 and 2");
    assert_eq!(snapshot[0].resident_qubits, 3 + 4);
    assert_eq!(snapshot[1].regions.len(), 1, "ring hosts job 1");
    assert!(batch.results[0]
        .region
        .as_ref()
        .unwrap()
        .is_disjoint_from(batch.results[2].region.as_ref().unwrap()));
}

#[test]
fn resident_cache_hits_reach_the_trace_ring() {
    // A repeat batch is served from the resident cache without touching a
    // pool worker; every hit must still be recorded like a worker's job.
    let graph = Arc::new(CouplingGraph::grid(3, 4));
    let batch = || -> Vec<CompileJob> {
        (0..3)
            .map(|i| job(&format!("trace-hit{i}"), 3, 20 + i, &graph))
            .collect()
    };
    let scheduler = RegionScheduler::with_default_config();
    let eng = engine(2);
    scheduler.schedule_batch(&eng, batch());
    let hits = tetris_obs::global().counter("tetris_jobs_completed_total", &[("cached", "true")]);
    let before = hits.value();
    let again = scheduler.schedule_batch(&eng, batch());
    assert!(again.results.iter().all(|r| r.cached));
    assert!(hits.value() >= before + 3, "every hit counted");
    let events = tetris_obs::trace::recent(tetris_obs::trace::RING_CAPACITY);
    for r in &again.results {
        assert!(
            events.iter().any(|e| e.job == r.name && e.cached),
            "no cached trace event for {}",
            r.name
        );
    }
}

#[test]
fn submit_batch_delivers_region_jobs_on_named_pool_workers() {
    // One batch covering every kind of placed job: a resident hit on a
    // region a previous batch left free, a fresh region compile, and a
    // whole-chip leftover (wider than the device, so it fails cleanly).
    let graph = Arc::new(CouplingGraph::grid(3, 4));
    let seed = || vec![job("hit", 3, 0, &graph)];
    let batch = || {
        vec![
            job("hit", 3, 0, &graph),
            job("fresh", 4, 1, &graph),
            job("leftover", 13, 2, &graph),
        ]
    };

    // The blocking form on its own scheduler and engine is the reference.
    let reference = {
        let scheduler = RegionScheduler::with_default_config();
        let eng = engine(2);
        scheduler.schedule_batch(&eng, seed());
        scheduler.schedule_batch(&eng, batch()).results
    };

    let scheduler = RegionScheduler::with_default_config();
    let eng = engine(2);
    scheduler.schedule_batch(&eng, seed());
    let (tx, rx) = std::sync::mpsc::channel();
    scheduler.submit_batch(&eng, batch(), move |r| {
        let thread = std::thread::current().name().map(str::to_string);
        let _ = tx.send((r, thread));
    });
    let mut seen: Vec<(JobResult, Option<String>)> =
        (0..3).map(|_| rx.recv().expect("result")).collect();
    assert!(rx.recv().is_err(), "exactly one callback per job");
    seen.sort_by_key(|(r, _)| r.index);

    for (i, ((r, thread), want)) in seen.iter().zip(&reference).enumerate() {
        assert_eq!(r.index, i, "every index delivered once");
        let thread = thread.as_deref().unwrap_or("<unnamed>");
        assert!(
            thread.starts_with("tetris-worker-"),
            "{} delivered on `{thread}`, not a pool worker",
            r.name
        );
        assert_eq!(r.region, want.region, "{}", r.name);
        assert_eq!(r.cached, want.cached, "{}", r.name);
        assert_eq!(r.error.is_some(), want.error.is_some(), "{}", r.name);
        assert_eq!(
            r.output.stats_digest(),
            want.output.stats_digest(),
            "{}",
            r.name
        );
    }
    let (hit, fresh, wide) = (&seen[0].0, &seen[1].0, &seen[2].0);
    assert!(hit.cached && hit.region.is_some(), "resident hit");
    assert!(
        !fresh.cached && fresh.region.is_some(),
        "fresh region compile"
    );
    assert!(
        wide.error.is_some() && wide.region.is_none(),
        "whole-chip leftover"
    );
    let stats = scheduler.stats();
    assert_eq!((stats.carves_performed, stats.carves_skipped), (2, 1));
}

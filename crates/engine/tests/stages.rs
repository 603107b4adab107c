//! Stage-tracing acceptance tests: fresh compiles record a per-stage
//! timeline whose busy walls track `engine_seconds`, every compiler's
//! phases land in a stage, the compile breakdown survives the disk tier,
//! and disabling observability zeroes everything.

use std::sync::{Arc, Mutex};
use tetris_baselines::generic::OptLevel;
use tetris_core::TetrisConfig;
use tetris_engine::{Backend, CompileJob, Engine, EngineConfig};
use tetris_obs::trace::{self, Stage};
use tetris_pauli::encoder::Encoding;
use tetris_pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris_pauli::uccsd::synthetic_ucc;
use tetris_topology::CouplingGraph;

/// Serializes the tests in this binary: they toggle the process-wide
/// enabled flag, which must not race.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Restores the enabled flag even if the test body panics.
struct Reenable;
impl Drop for Reenable {
    fn drop(&mut self) {
        tetris_obs::set_enabled(true);
    }
}

fn jobs(n: usize, tag: &str) -> Vec<CompileJob> {
    let graph = Arc::new(CouplingGraph::grid(4, 4));
    (0..n)
        .map(|i| {
            let g = Graph::random_regular(10, 3, i as u64 + 1);
            let ham = Arc::new(maxcut_hamiltonian(&g, &format!("{tag}{i}")));
            CompileJob::new(
                format!("{tag}{i}"),
                Backend::Tetris(TetrisConfig::default()),
                ham,
                graph.clone(),
            )
        })
        .collect()
}

#[test]
fn fresh_compiles_record_a_timeline_that_tracks_engine_seconds() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tetris_obs::set_enabled(true);
    let engine = Engine::new(EngineConfig {
        threads: 4,
        cache_capacity: 64,
        cache_dir: None,
        cache_max_bytes: None,
    });
    for r in engine.compile_batch(jobs(6, "fresh")) {
        assert!(r.error.is_none());
        assert!(!r.cached);
        assert!(!r.stages.is_zero(), "fresh compile must record stages");
        // The compiler's instrumented phases showed up (the 2-local
        // MaxCut workload takes the QAOA pipeline: placement is recorded
        // as clustering, emission as routing)…
        assert!(r.output.stages.get(Stage::Clustering) > 0.0);
        assert!(r.output.stages.get(Stage::Routing) > 0.0);
        // …and the worker closed the timeline with the unowned remainder,
        // so the busy walls (everything except queue wait) sum to the
        // engine wall, up to float rounding.
        let busy = r.stages.busy_total();
        assert!(
            (busy - r.engine_seconds).abs() <= 1e-9 * r.engine_seconds.max(1.0),
            "busy {busy} vs engine_seconds {} for {}",
            r.engine_seconds,
            r.name
        );
    }
}

#[test]
fn every_compiler_records_its_own_phases() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tetris_obs::set_enabled(true);
    let graph = CouplingGraph::heavy_hex_65();
    let ucc = synthetic_ucc(8, Encoding::JordanWigner, 1);
    let qaoa = maxcut_hamiltonian(&Graph::random_regular(10, 3, 1), "reg3-10");
    use Stage::*;
    let routed = [Synthesis, Routing, Optimize];
    let cases = [
        (
            Backend::Paulihedral {
                post_optimize: true,
            },
            &ucc,
            &[Clustering, Synthesis, Optimize][..],
        ),
        (Backend::Generic(OptLevel::Native), &ucc, &routed),
        (Backend::Generic(OptLevel::PostRouteOnly), &ucc, &routed),
        (Backend::MaxCancel, &ucc, &routed),
        (
            Backend::PcoastLike,
            &ucc,
            &[Scheduling, Synthesis, Routing, Optimize],
        ),
        (
            Backend::Tetris(TetrisConfig::default()),
            &ucc,
            &[Scheduling, Clustering, Synthesis, Optimize],
        ),
        (
            Backend::Qaoa2qan { seed: 1 },
            &qaoa,
            &[Clustering, Routing, Optimize],
        ),
    ];
    for (backend, h, stages) in cases {
        trace::begin_scope();
        backend.compile(h, &graph);
        let timings = trace::take_scope();
        for &stage in stages {
            assert!(
                timings.get(stage) > 0.0,
                "{} recorded nothing under {}",
                backend.name(),
                stage.name()
            );
        }
    }
}

#[test]
fn compile_breakdown_survives_the_disk_tier() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tetris_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("tetris-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || EngineConfig {
        threads: 2,
        cache_capacity: 16,
        cache_dir: Some(dir.clone()),
        cache_max_bytes: None,
    };
    let first = Engine::new(config()).compile_batch(jobs(2, "disk"));

    // A fresh engine over the same directory models a process restart:
    // hits come from disk, yet still carry the original compile's
    // per-stage breakdown.
    let engine = Engine::new(config());
    for (a, b) in first.iter().zip(engine.compile_batch(jobs(2, "disk"))) {
        assert!(b.cached, "restart must hit the disk tier");
        assert_eq!(
            a.output.stages.values(),
            b.output.stages.values(),
            "persisted breakdown is the original compile's, bit for bit"
        );
        // The hit's own timeline is lookup-shaped, not compile-shaped.
        assert!(b.stages.get(Stage::CacheLookup) + b.stages.get(Stage::DiskIo) > 0.0);
        assert_eq!(b.stages.get(Stage::Routing), 0.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabling_observability_zeroes_every_timeline() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _reenable = Reenable;
    tetris_obs::set_enabled(false);
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 16,
        cache_dir: None,
        cache_max_bytes: None,
    });
    for r in engine.compile_batch(jobs(2, "off")) {
        assert!(r.error.is_none());
        assert!(r.stages.is_zero(), "disabled layer must record nothing");
        assert!(r.output.stages.is_zero());
    }
}

//! End-to-end semantic equivalence: every compiler in the workspace must
//! produce a physical circuit equal (up to the layout permutation, with
//! ancillas in `|0>`) to the ordered product of `exp(-i θ/2 P)` factors.

use tetris::baselines::{generic, max_cancel, paulihedral, pcoast_like, qaoa_2qan};
use tetris::circuit::{Circuit, Gate};
use tetris::core::{TetrisCompiler, TetrisConfig};
use tetris::pauli::encoder::Encoding;
use tetris::pauli::fermion::double_excitation;
use tetris::pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris::pauli::{Hamiltonian, PauliBlock};
use tetris::sim::Statevector;
use tetris::topology::CouplingGraph;

/// A non-trivial product input state on the logical register.
fn prepared_input(n: usize) -> Statevector {
    let mut sv = Statevector::zero_state(n);
    let mut prep = Circuit::new(n);
    for q in 0..n {
        prep.push(Gate::H(q));
        prep.push(Gate::Rz(q, 0.17 * (q + 1) as f64));
        if q % 2 == 0 {
            prep.push(Gate::S(q));
        }
    }
    sv.apply_circuit(&prep);
    sv
}

/// Applies the Hamiltonian's exponential product in the order given by
/// `blocks` (with the per-block term order as stored).
fn apply_reference(sv: &mut Statevector, blocks: &[&PauliBlock]) {
    for b in blocks {
        for t in &b.terms {
            sv.apply_pauli_exp(&t.string, b.angle * t.coeff);
        }
    }
}

/// Small UCCSD-like workload: two double excitations on 6 qubits.
fn small_uccsd(encoding: Encoding) -> Hamiltonian {
    let g1 = double_excitation(6, 5, 4, 1, 0);
    let g2 = double_excitation(6, 4, 3, 2, 1);
    let blocks = vec![
        PauliBlock::new(encoding.encode(&g1), 0.31, "d1"),
        PauliBlock::new(encoding.encode(&g2), -0.47, "d2"),
    ];
    Hamiltonian::new(6, blocks, format!("small-{encoding}"))
}

#[test]
fn tetris_matches_reference_on_uccsd_jw() {
    let h = small_uccsd(Encoding::JordanWigner);
    let graph = CouplingGraph::grid(3, 3);
    let result = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &graph);
    assert!(result.circuit.is_hardware_compliant(&graph));

    let input = prepared_input(6);
    let mut physical = input.embed(&result.initial_layout.as_assignment(), 9);
    physical.apply_circuit(&result.circuit);

    // The compiler records the blocks exactly as emitted.
    let mut reference = input;
    apply_reference(
        &mut reference,
        &result.emitted_blocks.iter().collect::<Vec<_>>(),
    );
    let expected = reference.embed(&result.final_layout.as_assignment(), 9);
    assert!(physical.equals_up_to_global_phase(&expected, 1e-8));
}

#[test]
fn tetris_matches_reference_on_uccsd_bk() {
    let h = small_uccsd(Encoding::BravyiKitaev);
    let graph = CouplingGraph::line(8);
    let result = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &graph);
    assert!(result.circuit.is_hardware_compliant(&graph));

    let input = prepared_input(6);
    let mut physical = input.embed(&result.initial_layout.as_assignment(), 8);
    physical.apply_circuit(&result.circuit);

    let mut reference = input;
    apply_reference(
        &mut reference,
        &result.emitted_blocks.iter().collect::<Vec<_>>(),
    );
    let expected = reference.embed(&result.final_layout.as_assignment(), 8);
    assert!(physical.equals_up_to_global_phase(&expected, 1e-8));
}

#[test]
fn qaoa_compilers_agree_with_reference() {
    let g = Graph::random_regular(6, 3, 11);
    let h = maxcut_hamiltonian(&g, "reg3-6");
    let device = CouplingGraph::grid(3, 3);

    // 2QAN: commuting terms may be reordered freely — check the all-zeros
    // probability instead (permutation- and order-invariant for this
    // diagonal cost layer followed by its inverse).
    let two_qan = qaoa_2qan::compile(&h, &device, 3);
    assert!(two_qan.circuit.is_hardware_compliant(&device));
    let mut sv = Statevector::zero_state(9);
    sv.apply_circuit(&two_qan.circuit);
    sv.apply_circuit(&two_qan.circuit.inverse());
    assert!((sv.probability_all_zeros() - 1.0).abs() < 1e-9);

    // Tetris on QAOA: full equivalence via its recorded emission order.
    let result = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &device);
    assert!(result.circuit.is_hardware_compliant(&device));
    let input = prepared_input(6);
    let mut physical = input.embed(&result.initial_layout.as_assignment(), 9);
    physical.apply_circuit(&result.circuit);
    let mut reference = input;
    apply_reference(
        &mut reference,
        &result.emitted_blocks.iter().collect::<Vec<_>>(),
    );
    let expected = reference.embed(&result.final_layout.as_assignment(), 9);
    assert!(physical.equals_up_to_global_phase(&expected, 1e-8));
}

#[test]
fn routed_baselines_preserve_all_zeros_invariant() {
    // For each hardware-oblivious baseline: circuit ∘ inverse must map
    // |0…0> to |0…0> on the device (a strong smoke test that routing and
    // cancellation preserved unitarity and compliance).
    let h = small_uccsd(Encoding::JordanWigner);
    let device = CouplingGraph::ring(9);
    for result in [
        max_cancel::compile(&h, &device),
        pcoast_like::compile(&h, &device),
        generic::compile(&h, &device, generic::OptLevel::Native),
        generic::compile(&h, &device, generic::OptLevel::PostRouteOnly),
        paulihedral::compile(&h, &device, true),
    ] {
        assert!(
            result.circuit.is_hardware_compliant(&device),
            "{}",
            result.name
        );
        let mut sv = Statevector::zero_state(9);
        sv.apply_circuit(&result.circuit);
        sv.apply_circuit(&result.circuit.inverse());
        assert!(
            (sv.probability_all_zeros() - 1.0).abs() < 1e-9,
            "{} broke the RB invariant",
            result.name
        );
    }
}

#[test]
fn p_layer_qaoa_ansatz_is_semantically_exact() {
    use tetris::pauli::qaoa::qaoa_ansatz;
    let g = Graph::random_regular(6, 3, 2);
    let h = qaoa_ansatz(&g, &[0.7, 0.3], &[0.2, 0.9], "p2");
    let device = CouplingGraph::grid(3, 4);
    let result = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &device);
    assert!(result.circuit.is_hardware_compliant(&device));

    let input = prepared_input(6);
    let mut physical = input.embed(&result.initial_layout.as_assignment(), 12);
    physical.apply_circuit(&result.circuit);
    let mut reference = input;
    apply_reference(
        &mut reference,
        &result.emitted_blocks.iter().collect::<Vec<_>>(),
    );
    let expected = reference.embed(&result.final_layout.as_assignment(), 12);
    assert!(physical.equals_up_to_global_phase(&expected, 1e-8));
}

#[test]
fn trotterized_workload_compiles_and_matches_reference() {
    use tetris::pauli::trotter::trotterize;
    let h1 = small_uccsd(Encoding::JordanWigner);
    let h = trotterize(&h1, 2);
    let device = CouplingGraph::grid(3, 3);
    let result = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &device);
    assert!(result.circuit.is_hardware_compliant(&device));
    assert_eq!(result.emitted_blocks.len(), 2 * h1.blocks.len());

    let input = prepared_input(6);
    let mut physical = input.embed(&result.initial_layout.as_assignment(), 9);
    physical.apply_circuit(&result.circuit);
    let mut reference = input;
    apply_reference(
        &mut reference,
        &result.emitted_blocks.iter().collect::<Vec<_>>(),
    );
    let expected = reference.embed(&result.final_layout.as_assignment(), 9);
    assert!(physical.equals_up_to_global_phase(&expected, 1e-8));
}

#[test]
fn disk_cache_hits_are_semantically_identical_to_fresh_compiles() {
    // A result that traveled compile → codec → disk → codec → cache hit
    // must be *semantically* the same circuit, not merely plausible: the
    // served statevector must match the fresh compile's on a non-trivial
    // input, for Tetris and at least two baselines.
    use std::sync::Arc;
    use tetris::engine::{Backend, CompileJob, Engine, EngineConfig};

    let dir = std::env::temp_dir().join(format!("tetris-equiv-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let h = Arc::new(small_uccsd(Encoding::JordanWigner));
    let device = Arc::new(CouplingGraph::grid(3, 3));
    let jobs = || -> Vec<CompileJob> {
        [
            Backend::Tetris(TetrisConfig::default()),
            Backend::PcoastLike,
            Backend::Paulihedral {
                post_optimize: true,
            },
            Backend::MaxCancel,
        ]
        .into_iter()
        .map(|b| CompileJob::new("small-jw", b, h.clone(), device.clone()))
        .collect()
    };

    // Process 1 compiles fresh and persists to disk.
    let fresh = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 16,
        cache_dir: Some(dir.clone()),
        cache_max_bytes: None,
    })
    .compile_batch(jobs());
    assert!(fresh.iter().all(|r| !r.cached && r.error.is_none()));

    // Process 2 (fresh engine, same directory) is served from disk.
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 16,
        cache_dir: Some(dir.clone()),
        cache_max_bytes: None,
    });
    let served = engine.compile_batch(jobs());
    assert!(
        served.iter().all(|r| r.cached),
        "second process must be disk-served"
    );
    assert_eq!(engine.cache_stats().disk_hits, 4);

    let input = prepared_input(9);
    for (f, s) in fresh.iter().zip(&served) {
        assert_eq!(
            f.output.stats_digest(),
            s.output.stats_digest(),
            "{}: digest changed across the disk",
            f.compiler
        );
        assert!(
            s.output.circuit.is_hardware_compliant(&device),
            "{}: served circuit must stay routable",
            s.compiler
        );
        // The statevector oracle: fresh and served circuits act
        // identically on a non-trivial 9-qubit input state.
        let mut a = input.clone();
        a.apply_circuit(&f.output.circuit);
        let mut b = input.clone();
        b.apply_circuit(&s.output.circuit);
        assert!(
            a.equals_up_to_global_phase(&b, 1e-12),
            "{}: cache-served circuit diverges from the fresh compile",
            s.compiler
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_batch_is_statevector_equivalent_to_whole_chip_compiles() {
    // The region contract, end to end: a batch of 4 small workloads
    // carved onto disjoint regions of one 12-qubit device must produce
    // per-job circuits semantically identical to whole-chip compiles of
    // the same jobs, and each region circuit must equal the independent
    // reference: a serial compile of the job on its region's induced
    // subgraph. Every job uses pairwise-commuting blocks (XXX vs ZZI
    // anticommute at two sites), so the emitted exponential product is
    // order-invariant and the reference is well defined without access
    // to the compiler's emission order.
    use std::sync::Arc;
    use tetris::engine::{Backend, CompileJob, Engine, EngineConfig, RegionScheduler};
    use tetris::pauli::mask::QubitMask;
    use tetris::pauli::{PauliString, PauliTerm};

    let device = Arc::new(CouplingGraph::grid(3, 4));
    let angles = [(0.31, -0.47), (0.52, 0.23), (-0.18, 0.71), (0.44, -0.29)];
    let jobs: Vec<CompileJob> = angles
        .iter()
        .enumerate()
        .map(|(k, &(a, b))| {
            let blocks = vec![
                PauliBlock::new(vec![PauliTerm::new("XXX".parse().unwrap(), 1.0)], a, "x"),
                PauliBlock::new(vec![PauliTerm::new("ZZI".parse().unwrap(), 1.0)], b, "z"),
            ];
            CompileJob::new(
                format!("shardjob{k}"),
                Backend::Tetris(TetrisConfig::default()),
                Arc::new(Hamiltonian::new(3, blocks, format!("shardjob{k}"))),
                device.clone(),
            )
        })
        .collect();

    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 64,
        cache_dir: None,
        cache_max_bytes: None,
    });
    // 4 × 3 qubits fill the 12-qubit grid exactly — 3-qubit jobs get no
    // slack.
    let sharded = RegionScheduler::with_default_config().schedule_batch(&engine, jobs.clone());
    assert!(sharded.results.iter().all(|r| r.error.is_none()));
    assert!(
        sharded.results.iter().all(|r| r.region.is_some()),
        "no leftover"
    );
    let whole = engine.compile_batch(jobs.clone());
    assert!(whole.iter().all(|r| r.error.is_none()));

    // The logical evolution of job k on its 3 qubits (order-invariant).
    let logical_state = |k: usize| -> Statevector {
        let mut sv = Statevector::zero_state(3);
        let (a, b) = angles[k];
        sv.apply_pauli_exp(&"XXX".parse::<PauliString>().unwrap(), a);
        sv.apply_pauli_exp(&"ZZI".parse::<PauliString>().unwrap(), b);
        sv
    };

    let mut union = QubitMask::empty(12);
    for (k, (s, w)) in sharded.results.iter().zip(&whole).enumerate() {
        let expected = logical_state(k);
        // All-zeros input: the logical register is |000⟩ under any
        // placement, so no initial layout is needed — only the final one.
        for (label, result) in [("sharded", s), ("whole-chip", w)] {
            let layout = result.output.final_layout.as_ref().expect("layout");
            let mut physical = Statevector::zero_state(12);
            physical.apply_circuit(&result.output.circuit);
            let embedded = expected.embed(&layout.as_assignment(), 12);
            assert!(
                physical.equals_up_to_global_phase(&embedded, 1e-9),
                "job {k} ({label}) diverges from the reference evolution"
            );
        }
        // Disjointness of the placements, via masks.
        let region = s.region.as_ref().expect("region job placed");
        assert!(
            union.is_disjoint_from(region.mask()),
            "job {k} overlaps an earlier region"
        );
        union.union_with(region.mask());

        // The independent reference: the same job compiled serially on its
        // region's induced subgraph agrees digest for digest, since
        // relabeling into global coordinates leaves the stats untouched.
        let local = CompileJob::new(
            jobs[k].name.clone(),
            jobs[k].backend,
            jobs[k].hamiltonian.clone(),
            Arc::new(device.induced(region)),
        );
        assert_eq!(
            s.output.stats_digest(),
            local.run().stats_digest(),
            "job {k}"
        );
    }
    assert_eq!(union.count(), 12, "regions tile the whole device");
}

#[test]
fn defragmented_wide_job_is_statevector_exact() {
    // The resident-region defragmenter, end to end: four 3-qubit tiles
    // fill the 12-qubit chip and stay resident; a following 9-qubit job
    // has no compatible region and no room to carve, so the scheduler
    // must release the idle tiles, re-carve, and complete the job — and
    // the compiled circuit must be semantically exact, not merely
    // well-formed. Blocks commute (XXX…X vs ZZI…I anticommute at two
    // sites), so the reference exponential product is order-invariant.
    use std::sync::Arc;
    use tetris::engine::{Backend, CompileJob, Engine, EngineConfig, RegionScheduler};
    use tetris::pauli::{PauliString, PauliTerm};

    let device = Arc::new(CouplingGraph::grid(3, 4));
    let job = |name: String, strings: [&str; 2], a: f64, b: f64| -> CompileJob {
        let n = strings[0].len();
        let blocks = vec![
            PauliBlock::new(
                vec![PauliTerm::new(strings[0].parse().unwrap(), 1.0)],
                a,
                "x",
            ),
            PauliBlock::new(
                vec![PauliTerm::new(strings[1].parse().unwrap(), 1.0)],
                b,
                "z",
            ),
        ];
        CompileJob::new(
            name.clone(),
            Backend::Tetris(TetrisConfig::default()),
            Arc::new(Hamiltonian::new(n, blocks, name)),
            device.clone(),
        )
    };

    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 64,
        cache_dir: None,
        cache_max_bytes: None,
    });
    let scheduler = RegionScheduler::with_default_config();

    // Fragment the chip: the four tiles cover all 12 qubits and their
    // regions stay resident after the batch completes.
    let tiles: Vec<CompileJob> = (0..4)
        .map(|k| {
            job(
                format!("tile{k}"),
                ["XXX", "ZZI"],
                0.2 + 0.11 * k as f64,
                -0.3 + 0.07 * k as f64,
            )
        })
        .collect();
    let tiled = scheduler.schedule_batch(&engine, tiles);
    assert!(tiled.results.iter().all(|r| r.error.is_none()));
    let before = scheduler.stats();
    assert_eq!(before.carves_performed, 4);

    // The starving wide job: nothing matches, nothing fits — only the
    // defragmenter can place it.
    let (a, b) = (0.37, -0.21);
    let wide = scheduler.schedule_batch(
        &engine,
        vec![job("wide".into(), ["XXXXXXXXX", "ZZIIIIIII"], a, b)],
    );
    let result = &wide.results[0];
    assert!(result.error.is_none(), "{:?}", result.error);
    assert_eq!(
        scheduler.stats().defrags - before.defrags,
        1,
        "the defragmenter had to run"
    );
    assert!(
        result.region.is_some(),
        "placed on a region, not whole-chip"
    );
    assert_eq!(result.region.as_ref().expect("placed").len(), 9);

    // The statevector oracle on the relabeled global circuit.
    let layout = result.output.final_layout.as_ref().expect("layout");
    let mut physical = Statevector::zero_state(12);
    physical.apply_circuit(&result.output.circuit);
    let mut logical = Statevector::zero_state(9);
    logical.apply_pauli_exp(&"XXXXXXXXX".parse::<PauliString>().unwrap(), a);
    logical.apply_pauli_exp(&"ZZIIIIIII".parse::<PauliString>().unwrap(), b);
    let embedded = logical.embed(&layout.as_assignment(), 12);
    assert!(
        physical.equals_up_to_global_phase(&embedded, 1e-9),
        "defragmented job diverges from the reference evolution"
    );
}

#[test]
fn bridging_keeps_ancillas_clean() {
    // Compile a sparse workload on a device with many free qubits; then
    // explicitly Reset every free physical qubit at the end — the
    // statevector oracle panics if any ancilla is left out of |0>.
    let h = small_uccsd(Encoding::JordanWigner);
    let device = CouplingGraph::grid(3, 4);
    let result = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &device);
    let mut sv = Statevector::zero_state(12);
    sv.apply_circuit(&result.circuit);
    for p in 0..12 {
        if result.final_layout.logical_at(p).is_none() {
            sv.apply_gate(&Gate::Reset(p)); // panics if not |0>
        }
    }
}

/// Noise-aware acceptance: a calibration that marks one central coupling
/// hot must steer the weighted router around it — the compiled circuit
/// accumulates strictly less summed edge error than the unweighted compile
/// of the same workload — without giving up semantic exactness.
#[test]
fn weighted_compile_routes_around_hot_edge_and_stays_exact() {
    use tetris::pauli::uccsd::synthetic_ucc;
    use tetris::topology::CalibrationMap;

    // Dense enough that SABRE actually inserts swaps (the small 2-block
    // UCCSD compiles swap-free on a 3x3 grid, where weights are moot).
    let h = synthetic_ucc(6, Encoding::JordanWigner, 1);
    let clean = CouplingGraph::grid(3, 3);

    // One terrible coupling in the middle of the grid; everything else is
    // near-perfect, so every crossing of (4,5) dominates the error sum.
    let mut cal = CalibrationMap::uniform(clean.n_qubits(), 0.001);
    cal.set_edge_error(4, 5, 0.5);
    let noisy = clean.with_calibration(&cal);
    assert!(!noisy.is_unit_weight());
    assert_eq!(noisy.edges(), clean.edges(), "wiring is unchanged");

    let config = TetrisConfig::default();
    let unweighted = TetrisCompiler::new(config).compile(&h, &clean);
    let weighted = TetrisCompiler::new(config).compile(&h, &noisy);
    assert!(weighted.circuit.is_hardware_compliant(&clean));

    // Summed calibration error over every physical CNOT (SWAP = 3 CNOTs).
    let edge_error_sum = |c: &Circuit| -> f64 {
        c.gates()
            .iter()
            .filter_map(|g| match *g {
                Gate::Cnot(u, v) => Some(cal.edge_error(u, v)),
                Gate::Swap(u, v) => Some(3.0 * cal.edge_error(u, v)),
                _ => None,
            })
            .sum()
    };
    let clean_sum = edge_error_sum(&unweighted.circuit);
    let noisy_sum = edge_error_sum(&weighted.circuit);
    assert!(
        noisy_sum < clean_sum,
        "weighted routing must lower the summed edge error: \
         weighted {noisy_sum:.4} vs unweighted {clean_sum:.4}"
    );

    // Avoiding the hot edge must not change the semantics.
    let input = prepared_input(6);
    let mut physical = input.embed(&weighted.initial_layout.as_assignment(), 9);
    physical.apply_circuit(&weighted.circuit);
    let mut reference = input;
    apply_reference(
        &mut reference,
        &weighted.emitted_blocks.iter().collect::<Vec<_>>(),
    );
    let expected = reference.embed(&weighted.final_layout.as_assignment(), 9);
    assert!(physical.equals_up_to_global_phase(&expected, 1e-8));
}

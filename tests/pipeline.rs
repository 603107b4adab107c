//! Cross-crate pipeline tests: compile real workloads with every compiler
//! and assert the paper's qualitative results (the "shape" of the
//! evaluation) plus internal stat consistency.

use tetris::baselines::{generic, max_cancel, paulihedral, pcoast_like, qaoa_2qan, BaselineResult};
use tetris::circuit::Metrics;
use tetris::core::{TetrisCompiler, TetrisConfig};
use tetris::pauli::encoder::Encoding;
use tetris::pauli::molecules::Molecule;
use tetris::pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris::pauli::uccsd::synthetic_ucc;
use tetris::topology::CouplingGraph;

#[test]
fn table1_pauli_string_counts_are_exact() {
    for m in Molecule::ALL {
        assert_eq!(
            m.ansatz().pauli_string_count(),
            m.expected_pauli_strings(),
            "{m}"
        );
    }
}

#[test]
fn lih_shape_tetris_beats_ph_beats_tket() {
    // Fig. 14's ordering on the smallest molecule.
    let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
    let g = CouplingGraph::heavy_hex_65();
    let tket = generic::compile(&h, &g, generic::OptLevel::Native);
    let ph = paulihedral::compile(&h, &g, true);
    let tetris = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &g);

    assert!(
        tetris.stats.total_cnots() < ph.stats.total_cnots(),
        "tetris {} !< ph {}",
        tetris.stats.total_cnots(),
        ph.stats.total_cnots()
    );
    assert!(
        ph.stats.total_cnots() < tket.stats.total_cnots(),
        "ph {} !< tket {}",
        ph.stats.total_cnots(),
        tket.stats.total_cnots()
    );
}

#[test]
fn fig17_shape_cancel_ratio_ordering() {
    // PH ≤ Tetris ≤ max_cancel for a real molecule.
    let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
    let g = CouplingGraph::heavy_hex_65();
    let ph = paulihedral::compile(&h, &g, true).stats.cancel_ratio();
    let tetris = TetrisCompiler::new(TetrisConfig::default())
        .compile(&h, &g)
        .stats
        .cancel_ratio();
    let max = max_cancel::max_cancel_ratio(&h);
    assert!(ph <= tetris + 1e-9, "ph {ph:.3} vs tetris {tetris:.3}");
    assert!(tetris <= max + 1e-9, "tetris {tetris:.3} vs max {max:.3}");
    assert!(
        max > 0.4,
        "max_cancel should expose large headroom, got {max:.3}"
    );
}

#[test]
fn fig15b_shape_pcoast_swaps_dominate() {
    let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
    let g = CouplingGraph::heavy_hex_65();
    let pcoast = pcoast_like::compile(&h, &g);
    let tetris = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &g);
    assert!(pcoast.stats.swap_cnots() > tetris.stats.swap_cnots());
}

#[test]
fn sycamore_keeps_the_tetris_advantage() {
    // §VI-E / Fig. 21: on the denser Sycamore coupling, Tetris still beats
    // Paulihedral on total CNOT count.
    let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
    let syc = CouplingGraph::sycamore_64();
    let ph = paulihedral::compile(&h, &syc, true);
    let tetris = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &syc);
    assert!(tetris.circuit.is_hardware_compliant(&syc));
    assert!(
        tetris.stats.total_cnots() < ph.stats.total_cnots(),
        "tetris {} !< ph {}",
        tetris.stats.total_cnots(),
        ph.stats.total_cnots()
    );
}

#[test]
fn synthetic_ucc_compiles_and_improves() {
    let h = synthetic_ucc(10, Encoding::JordanWigner, 3);
    let g = CouplingGraph::heavy_hex_65();
    let ph = paulihedral::compile(&h, &g, true);
    let tetris = TetrisCompiler::new(TetrisConfig::default()).compile(&h, &g);
    assert!(tetris.circuit.is_hardware_compliant(&g));
    assert!(tetris.stats.total_cnots() < ph.stats.total_cnots());
}

#[test]
fn stats_identities_hold_for_every_compiler() {
    let h = Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner);
    let qaoa = maxcut_hamiltonian(&Graph::random_regular(12, 3, 5), "reg3-12");
    let g = CouplingGraph::heavy_hex_65();
    let tetris = |h| {
        let r = TetrisCompiler::new(TetrisConfig::default()).compile(h, &g);
        (r.circuit, r.stats)
    };
    let baseline = |r: BaselineResult| (r.circuit, r.stats);
    let results = vec![
        ("tetris", &h, tetris(&h)),
        ("ph", &h, baseline(paulihedral::compile(&h, &g, true))),
        ("ph-bare", &h, baseline(paulihedral::compile(&h, &g, false))),
        ("max", &h, baseline(max_cancel::compile(&h, &g))),
        ("pcoast", &h, baseline(pcoast_like::compile(&h, &g))),
        (
            "tket-o2",
            &h,
            baseline(generic::compile(&h, &g, generic::OptLevel::Native)),
        ),
        (
            "tket-o3",
            &h,
            baseline(generic::compile(&h, &g, generic::OptLevel::PostRouteOnly)),
        ),
        ("tetris-qaoa", &qaoa, tetris(&qaoa)),
        ("2qan", &qaoa, baseline(qaoa_2qan::compile(&qaoa, &g, 3))),
    ];
    for (name, h, (circuit, s)) in results {
        assert_eq!(
            s.metrics.cnot_count,
            s.logical_cnots() + s.swap_cnots(),
            "{name}: CNOT breakdown must add up"
        );
        assert_eq!(s.original_cnots, h.naive_cnot_count(), "{name}");
        assert_eq!(s.metrics, Metrics::of(&circuit), "{name}");
        assert_eq!(s.swaps_final, s.metrics.swap_count, "{name}");
        assert!(s.canceled_cnots <= s.emitted_cnots, "{name}");
        assert!(s.swaps_final <= s.swaps_inserted, "{name}");
        assert!(s.compile_seconds >= 0.0, "{name}");
    }
}

#[test]
fn bk_encoding_compiles_with_lower_similarity_gains() {
    // §VI-B: BK still improves over PH, but cancels less than JW (lower
    // inter-string similarity). The gap shows from BeH2 up.
    let g = CouplingGraph::heavy_hex_65();
    let jw = Molecule::BeH2.uccsd_hamiltonian(Encoding::JordanWigner);
    let bk = Molecule::BeH2.uccsd_hamiltonian(Encoding::BravyiKitaev);
    let t_jw = TetrisCompiler::new(TetrisConfig::default()).compile(&jw, &g);
    let t_bk = TetrisCompiler::new(TetrisConfig::default()).compile(&bk, &g);
    assert!(t_bk.circuit.is_hardware_compliant(&g));
    assert!(
        t_jw.stats.cancel_ratio() > t_bk.stats.cancel_ratio(),
        "jw {:.3} vs bk {:.3}",
        t_jw.stats.cancel_ratio(),
        t_bk.stats.cancel_ratio()
    );
    // …and BK-Tetris still beats BK-PH (Table II Bravyi-Kitaev section).
    let ph_bk = paulihedral::compile(&bk, &g, true);
    assert!(
        t_bk.stats.total_cnots() < ph_bk.stats.total_cnots(),
        "tetris-bk {} !< ph-bk {}",
        t_bk.stats.total_cnots(),
        ph_bk.stats.total_cnots()
    );
}

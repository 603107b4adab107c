//! Golden quality table: every backend on heavy-hex, pinned by the engine's
//! `stats_digest` plus the headline figures the paper's tables report
//! (final CNOT count, depth and surviving SWAPs).
//!
//! The values were captured from the compilers as they stood before the
//! shared finishing step (`CompileStats::finish`) replaced the per-compiler
//! peephole-and-stats tails; a refactor of how stats are assembled must not
//! move any of them. A deliberate change to a compiler's output updates the
//! row it moves, and says why.

use tetris::baselines::generic::OptLevel;
use tetris::bench::workloads::{qaoa_set, synthetic_set};
use tetris::core::TetrisConfig;
use tetris::engine::Backend;
use tetris::pauli::encoder::Encoding;
use tetris::pauli::molecules::Molecule;
use tetris::pauli::Hamiltonian;
use tetris::topology::CouplingGraph;

/// One pinned job: `(workload, backend label, stats_digest, cnot_count,
/// depth, swaps_final)`.
type Row<'a> = (&'a str, &'a str, u64, usize, usize, usize);

#[rustfmt::skip]
const GOLDENS: &[Row<'static>] = &[
    ("LiH-JW", "TKet+TKetO2", 0xa06c5c94d810658a, 8303, 10291, 821),
    ("LiH-JW", "TKet+QiskitO3", 0x7a90f95033e2d80d, 9465, 11143, 1199),
    ("LiH-JW", "PCOAST", 0xb107fbc57db5a8f4, 6744, 7886, 1034),
    ("LiH-JW", "PH+O3", 0xa3fead5c4a8458ef, 6057, 7549, 117),
    ("LiH-JW", "PH", 0x4c2e1cb376836691, 7327, 8514, 117),
    ("LiH-JW", "MaxCancel", 0x667051eab7ee5b62, 6431, 7926, 945),
    ("LiH-JW", "Tetris", 0xdd67e6e677b0d2ef, 5582, 6812, 294),
    ("LiH-JW", "Tetris+lookahead", 0x2fbe7f43c928700d, 5217, 6732, 259),
    ("LiH-BK", "TKet+TKetO2", 0xac32b607667326d3, 15051, 13369, 3083),
    ("LiH-BK", "TKet+QiskitO3", 0xbfa2e6f464706880, 16158, 14130, 3420),
    ("LiH-BK", "PCOAST", 0xa4d7f467e46c25d9, 11477, 10636, 2313),
    ("LiH-BK", "PH+O3", 0x1fff96172d863c7f, 6982, 7411, 584),
    ("LiH-BK", "PH", 0x90c11ddced01577d, 8652, 8452, 584),
    ("LiH-BK", "MaxCancel", 0x1ef5c3ef2d304511, 11861, 10561, 2453),
    ("LiH-BK", "Tetris", 0xd87ed72df6d44944, 7495, 7623, 909),
    ("LiH-BK", "Tetris+lookahead", 0x791e190f8033cd79, 6365, 7187, 601),
    ("UCC-10-JW", "TKet+TKetO2", 0x51cd4ab31d6763a2, 8803, 10522, 785),
    ("UCC-10-JW", "TKet+QiskitO3", 0x08d50b6fe98f0780, 9192, 10773, 906),
    ("UCC-10-JW", "PCOAST", 0x6da65e9fcafe0a18, 7069, 8912, 849),
    ("UCC-10-JW", "PH+O3", 0x18ea5a5545dc4fa7, 8218, 10159, 366),
    ("UCC-10-JW", "PH", 0x5f4c076d258ea543, 9786, 11077, 366),
    ("UCC-10-JW", "MaxCancel", 0x8eb93328c594ce22, 8787, 9518, 1379),
    ("UCC-10-JW", "Tetris", 0x3f3d174e2bf9c81d, 7617, 8635, 641),
    ("UCC-10-JW", "Tetris+lookahead", 0x4c1d38b58e13b95e, 6176, 8110, 276),
    ("Rand-16", "Tetris+lookahead", 0xa1dfcebdb4cf1239, 116, 57, 22),
    ("Rand-16", "2QAN-lite", 0x916b1588a674d63e, 125, 72, 25),
];

/// The backends run on every UCC workload, with their table labels (PH's
/// two settings share one `Backend::name`).
fn ucc_backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("TKet+TKetO2", Backend::Generic(OptLevel::Native)),
        ("TKet+QiskitO3", Backend::Generic(OptLevel::PostRouteOnly)),
        ("PCOAST", Backend::PcoastLike),
        (
            "PH+O3",
            Backend::Paulihedral {
                post_optimize: true,
            },
        ),
        (
            "PH",
            Backend::Paulihedral {
                post_optimize: false,
            },
        ),
        ("MaxCancel", Backend::MaxCancel),
        ("Tetris", Backend::Tetris(TetrisConfig::without_lookahead())),
        ("Tetris+lookahead", Backend::Tetris(TetrisConfig::default())),
    ]
}

fn jobs() -> Vec<(Hamiltonian, &'static str, Backend)> {
    let mut ucc = vec![
        Molecule::LiH.uccsd_hamiltonian(Encoding::JordanWigner),
        Molecule::LiH.uccsd_hamiltonian(Encoding::BravyiKitaev),
    ];
    ucc.push(synthetic_set(true).swap_remove(0));
    let mut out = Vec::new();
    for h in ucc {
        for (label, backend) in ucc_backends() {
            out.push((h.clone(), label, backend));
        }
    }
    let qaoa = qaoa_set(7).swap_remove(0);
    out.push((
        qaoa.clone(),
        "Tetris+lookahead",
        Backend::Tetris(TetrisConfig::default()),
    ));
    out.push((qaoa, "2QAN-lite", Backend::Qaoa2qan { seed: 7 }));
    out
}

#[test]
fn every_backend_matches_its_golden_row() {
    let graph = CouplingGraph::heavy_hex_65();
    let jobs = jobs();
    let actual: Vec<Row> = jobs
        .iter()
        .map(|(h, label, backend)| {
            let out = backend.compile(h, &graph);
            assert!(
                out.circuit.is_hardware_compliant(&graph),
                "{} / {label}",
                h.name
            );
            let s = out.stats;
            (
                h.name.as_str(),
                *label,
                out.stats_digest(),
                s.metrics.cnot_count,
                s.metrics.depth,
                s.swaps_final,
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(w, b, d, c, depth, sw)| {
            format!("    (\"{w}\", \"{b}\", {d:#018x}, {c}, {depth}, {sw}),\n")
        })
        .collect();
    assert_eq!(
        actual, GOLDENS,
        "golden quality table moved; actual:\n{table}"
    );
}

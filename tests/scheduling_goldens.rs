//! Golden parity tests for the scheduler and router.
//!
//! The bitplane-native refactor (masks through clustering, scheduling,
//! synthesis and SABRE) is a pure representation change: every routed or
//! compiled circuit must stay bit-identical to the pre-refactor output.
//! The constants below are [`Fingerprint64`] digests of the exact gate
//! streams (and final layouts) produced by the `Vec<usize>`/`Vec<bool>`
//! implementation, captured immediately before the refactor. Any change —
//! a different SWAP choice, a reordered emission, a perturbed f64 score
//! sum — moves a digest.
//!
//! Widths deliberately straddle the 64-bit word boundary (63/64/65) and
//! cover a two-word register (130), the layouts most likely to expose a
//! packed-set indexing bug.

use tetris::baselines::max_cancel;
use tetris::circuit::{cancel_gates, cancel_gates_commutative, Circuit, Gate};
use tetris::core::{TetrisCompiler, TetrisConfig};
use tetris::pauli::fingerprint::Fingerprint64;
use tetris::pauli::molecules::Molecule;
use tetris::pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris::pauli::rng::rngs::StdRng;
use tetris::pauli::rng::{Rng, SeedableRng};
use tetris::pauli::uccsd::synthetic_ucc;
use tetris::pauli::{encoder::Encoding, Hamiltonian, PauliBlock, PauliTerm};
use tetris::router::{route, RouterConfig};
use tetris::topology::{CouplingGraph, Layout};

/// A stable digest of a gate stream: gate kind tag, operands, and the IEEE
/// bit pattern of any angle. `Fingerprint64` is the workspace's
/// release-stable FNV-1a hasher, so these goldens survive toolchain bumps.
fn circuit_digest(c: &Circuit) -> u64 {
    let mut h = Fingerprint64::new();
    h.write_usize(c.n_qubits());
    h.write_usize(c.len());
    for g in c.gates() {
        match *g {
            Gate::H(q) => {
                h.write_u8(b'H');
                h.write_usize(q);
            }
            Gate::S(q) => {
                h.write_u8(b'S');
                h.write_usize(q);
            }
            Gate::Sdg(q) => {
                h.write_u8(b'D');
                h.write_usize(q);
            }
            Gate::X(q) => {
                h.write_u8(b'X');
                h.write_usize(q);
            }
            Gate::Rz(q, theta) => {
                h.write_u8(b'R');
                h.write_usize(q);
                h.write_f64(theta);
            }
            Gate::Cnot(a, b) => {
                h.write_u8(b'C');
                h.write_usize(a);
                h.write_usize(b);
            }
            Gate::Swap(a, b) => {
                h.write_u8(b'W');
                h.write_usize(a);
                h.write_usize(b);
            }
            Gate::Measure(q) => {
                h.write_u8(b'M');
                h.write_usize(q);
            }
            Gate::Reset(q) => {
                h.write_u8(b'Z');
                h.write_usize(q);
            }
        }
    }
    h.finish()
}

fn layout_digest(l: &Layout) -> u64 {
    let mut h = Fingerprint64::new();
    for p in l.as_assignment() {
        h.write_usize(p);
    }
    h.finish()
}

/// Seeded random logical circuit, mirroring the router's own test
/// generator (H/Rz/S/CNOT mix).
fn random_logical(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..len {
        match rng.gen_range(0..5) {
            0 => c.push(Gate::H(rng.gen_range(0..n))),
            1 => c.push(Gate::Rz(rng.gen_range(0..n), rng.gen_range(-1.0..1.0))),
            2 => c.push(Gate::S(rng.gen_range(0..n))),
            _ => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.push(Gate::Cnot(a, b));
            }
        }
    }
    c
}

/// One routed point: (circuit digest, final-layout digest, swap count).
fn routed_point(n_log: usize, len: usize, seed: u64, graph: &CouplingGraph) -> (u64, u64, usize) {
    let logical = random_logical(n_log, len, seed);
    let r = route(
        &logical,
        graph,
        Layout::trivial(n_log, graph.n_qubits()),
        &RouterConfig::default(),
    );
    assert!(r.circuit.is_hardware_compliant(graph));
    (
        circuit_digest(&r.circuit),
        layout_digest(&r.final_layout),
        r.swap_count,
    )
}

/// The router golden table: device width covers word-straddling registers.
/// Columns: (logical qubits, gates, seed, device, expected digests).
fn router_cases() -> Vec<(usize, usize, u64, CouplingGraph)> {
    vec![
        (24, 160, 11, CouplingGraph::ring(63)),
        (32, 200, 12, CouplingGraph::grid(8, 8)), // 64 phys
        (40, 240, 13, CouplingGraph::heavy_hex_65()), // 65 phys
        (48, 240, 14, CouplingGraph::line(130)),
        (10, 400, 3, CouplingGraph::heavy_hex_65()),
    ]
}

const ROUTER_GOLDENS: [(u64, u64, usize); 5] = [
    (0x6597b56202cbc566, 0xec9cf2fac49e2c85, 367),
    (0xe2c9515ca63cad7c, 0xad450d31c55f7985, 165),
    (0xb60a914fcee10f05, 0xd198e53c2b06c574, 284),
    (0xc9ec480f7dd968d6, 0xec77d73c949fc345, 884),
    (0xdcedce5ef90e1420, 0xf064b9168a6a1f04, 259),
];

#[test]
fn router_outputs_match_pre_refactor_goldens() {
    for ((n, len, seed, graph), expected) in router_cases().into_iter().zip(ROUTER_GOLDENS) {
        let got = routed_point(n, len, seed, &graph);
        assert_eq!(
            got,
            expected,
            "routed circuit diverged from the pre-refactor golden \
             (n={n}, len={len}, seed={seed}, device={}q)",
            graph.n_qubits()
        );
    }
}

fn hand_ham(n: usize, blocks: Vec<Vec<(&str, f64)>>) -> Hamiltonian {
    let blocks = blocks
        .into_iter()
        .enumerate()
        .map(|(i, terms)| {
            PauliBlock::new(
                terms
                    .into_iter()
                    .map(|(s, c)| PauliTerm::new(s.parse().unwrap(), c))
                    .collect(),
                0.1 + 0.07 * i as f64,
                format!("b{i}"),
            )
        })
        .collect();
    Hamiltonian::new(n, blocks, "golden")
}

/// One compiled point: (circuit digest, final-layout digest, block order
/// digest). `compile_seconds` is wall-clock and deliberately excluded.
fn compiled_point(h: &Hamiltonian, graph: &CouplingGraph, config: TetrisConfig) -> (u64, u64, u64) {
    let r = TetrisCompiler::new(config).compile(h, graph);
    assert!(r.circuit.is_hardware_compliant(graph));
    let mut bo = Fingerprint64::new();
    for &b in &r.block_order {
        bo.write_usize(b);
    }
    (
        circuit_digest(&r.circuit),
        layout_digest(&r.final_layout),
        bo.finish(),
    )
}

fn compiler_cases() -> Vec<(Hamiltonian, CouplingGraph, TetrisConfig)> {
    vec![
        // Multi-block UCC-shaped workload on the word-boundary device.
        (
            synthetic_ucc(20, Encoding::JordanWigner, 0x5cc ^ 20),
            CouplingGraph::heavy_hex_65(),
            TetrisConfig::default(),
        ),
        // Same workload, no lookahead (InputOrder scheduler path).
        (
            synthetic_ucc(16, Encoding::JordanWigner, 0x5cc ^ 16),
            CouplingGraph::grid(8, 8),
            TetrisConfig::without_lookahead(),
        ),
        // QAOA-shaped → the §V-C bridging pass.
        (
            maxcut_hamiltonian(&Graph::random_regular(14, 3, 7), "golden-qaoa"),
            CouplingGraph::heavy_hex_65(),
            TetrisConfig::default(),
        ),
        // Hand-built blocks with split + reversal opportunities, no bridging.
        (
            hand_ham(
                6,
                vec![
                    vec![("XZZZZY", 0.5), ("YZZZZX", -0.5)],
                    vec![("IXZZYI", 0.3), ("IYZZXI", -0.3)],
                    vec![("XZZYII", 0.4)],
                ],
            ),
            CouplingGraph::ring(63),
            TetrisConfig::default().with_bridging(false),
        ),
    ]
}

const COMPILER_GOLDENS: [(u64, u64, u64); 4] = [
    (0x3021935d71edd4bd, 0x085a5bd1cffb9720, 0x1ea9f135b7836365),
    (0x4b61621b395879d2, 0x9312e88905955fe0, 0x47b5eeb1c24f5b25),
    (0x54d5f7ba5c341445, 0x36efc6e437d297c6, 0x253673f94039ce31),
    (0xd8f002dc13773cdd, 0x366128df97e50224, 0x00d3a45e1b770966),
];

#[test]
fn compiler_outputs_match_pre_refactor_goldens() {
    for (i, ((h, graph, config), expected)) in compiler_cases()
        .into_iter()
        .zip(COMPILER_GOLDENS)
        .enumerate()
    {
        let got = compiled_point(&h, &graph, config);
        assert_eq!(
            got, expected,
            "compiled circuit diverged from the pre-refactor golden (case {i}: {})",
            h.name
        );
    }
}

/// Seeded random circuit dense in peephole opportunities: few qubits, every
/// gate kind the pass knows, and `Rz` angles drawn mostly from multiples of
/// π/4 so merges also reach full turns and vanish.
fn random_cancellable(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + (seed as usize % 5);
    let mut c = Circuit::new(n);
    let pair = |rng: &mut StdRng| {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        while b == a {
            b = rng.gen_range(0..n);
        }
        (a, b)
    };
    for _ in 0..240 {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..20) {
            0..=2 => c.push(Gate::H(q)),
            3 | 4 => c.push(Gate::S(q)),
            5 | 6 => c.push(Gate::Sdg(q)),
            7 | 8 => c.push(Gate::X(q)),
            9..=11 => {
                let theta = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(-1.0..1.0)
                } else {
                    rng.gen_range(-4i32..5) as f64 * std::f64::consts::FRAC_PI_4
                };
                c.push(Gate::Rz(q, theta));
            }
            12 => {
                let (a, b) = pair(&mut rng);
                c.push(Gate::Swap(a, b));
            }
            13 if rng.gen_range(0..4) == 0 => c.push(Gate::Measure(q)),
            _ => {
                let (a, b) = pair(&mut rng);
                c.push(Gate::Cnot(a, b));
            }
        }
    }
    c
}

/// Digests of the adjacent and the commutative peephole pass applied to
/// each circuit, folded in order, together with every removal count.
fn optimizer_point(circuits: &[Circuit]) -> (u64, u64) {
    let mut adjacent = Fingerprint64::new();
    let mut commutative = Fingerprint64::new();
    for c in circuits {
        for (pass, h) in [
            (cancel_gates as fn(&mut Circuit) -> _, &mut adjacent),
            (cancel_gates_commutative, &mut commutative),
        ] {
            let mut out = c.clone();
            let r = pass(&mut out);
            h.write_u64(circuit_digest(&out));
            for k in [r.removed_cnots, r.removed_swaps, r.removed_1q, r.merged_rz] {
                h.write_usize(k);
            }
        }
    }
    (adjacent.finish(), commutative.finish())
}

fn random_optimizer_cases() -> Vec<Circuit> {
    (0..32).map(random_cancellable).collect()
}

fn molecule_optimizer_cases() -> Vec<Circuit> {
    [Molecule::LiH, Molecule::CO2]
        .into_iter()
        .map(|m| max_cancel::logical_circuit(&m.uccsd_hamiltonian(Encoding::JordanWigner)))
        .collect()
}

/// `(adjacent, commutative)` digests for the 32 random circuits, then for
/// the LiH and CO₂ logical circuits of the max-cancel synthesis, taken
/// from the `VecDeque`-driven pass over a copied gate list that preceded
/// the in-place DAG.
const OPTIMIZER_GOLDENS: [(u64, u64); 2] = [
    (0xfcc3c1e5a4eb9d19, 0x437904f38419d354),
    (0xe56ab3fdece1c04b, 0xe56ab3fdece1c04b),
];

#[test]
fn peephole_outputs_match_pre_rewrite_goldens() {
    let got = [
        optimizer_point(&random_optimizer_cases()),
        optimizer_point(&molecule_optimizer_cases()),
    ];
    for (i, (got, expected)) in got.into_iter().zip(OPTIMIZER_GOLDENS).enumerate() {
        assert_eq!(
            got,
            expected,
            "peephole output diverged from the golden ({} set)",
            ["random", "molecule"][i]
        );
    }
}

/// Regenerates the golden tables: `cargo test --test scheduling_goldens \
/// -- --ignored --nocapture print_goldens`. Only legitimate after an
/// *intentional* algorithmic change, never to paper over a refactor.
#[test]
#[ignore]
fn print_goldens() {
    println!("ROUTER_GOLDENS:");
    for (n, len, seed, graph) in router_cases() {
        let (c, l, s) = routed_point(n, len, seed, &graph);
        println!("    (0x{c:016x}, 0x{l:016x}, {s}),");
    }
    println!("COMPILER_GOLDENS:");
    for (h, graph, config) in compiler_cases() {
        let (c, l, b) = compiled_point(&h, &graph, config);
        println!("    (0x{c:016x}, 0x{l:016x}, 0x{b:016x}),");
    }
    println!("OPTIMIZER_GOLDENS:");
    for cases in [random_optimizer_cases(), molecule_optimizer_cases()] {
        let (a, c) = optimizer_point(&cases);
        println!("    (0x{a:016x}, 0x{c:016x}),");
    }
}

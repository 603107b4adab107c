//! Microbenchmarks of the CSR coupling-graph operations: construction,
//! first-row (cache miss), cached-row (cache hit), and induced-subgraph
//! extraction, on the paper-scale service device (130q heavy-hex), a
//! 1089q grid, and a 4096q synthetic sparse device.
//!
//! The `eager` column reconstructs what the pre-CSR graph did at
//! construction — build adjacency *and* materialize every all-pairs
//! distance row — so `construct` vs `eager` is the lazy-row win. The
//! bench exits non-zero unless every device's speedup is at least half
//! its value in the committed `graph_ops.reference.json` and every
//! `footprint_bytes` equals it exactly (a 4096q eager all-pairs matrix
//! would be 64 MiB against the reference's 400 KB).
//!
//! `harness = false`; run with
//! `cargo bench -p tetris-bench --bench graph_ops`
//! (`-- --out FILE` also writes the JSON report).

use tetris_bench::timing::{best_of_secs, check_cells, SAMPLES};
use tetris_pauli::rng::rngs::StdRng;
use tetris_pauli::rng::{Rng, SeedableRng};
use tetris_topology::{CouplingGraph, Region};

struct Cell {
    device: String,
    qubits: usize,
    construct_us: f64,
    eager_us: f64,
    first_row_us: f64,
    cached_row_ns: f64,
    induced_us: f64,
    footprint_bytes: usize,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.eager_us / self.construct_us
    }
}

/// A sparse synthetic device: a ring (connectivity guarantee) plus `n`
/// random chords — average degree ≈ 4, same density class as real
/// hardware, deterministic in the seed.
fn synthetic_edges(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v));
        }
    }
    edges
}

fn bench_device(name: &'static str, n: usize, edges: Vec<(usize, usize)>) -> Cell {
    let construct = best_of_secs(SAMPLES, || {
        CouplingGraph::from_edges(n, edges.iter().copied(), name)
    });
    // The eager all-pairs baseline: what construction cost before the
    // lazy-row refactor (adjacency + every distance row).
    let eager = best_of_secs(SAMPLES, || {
        let g = CouplingGraph::from_edges(n, edges.iter().copied(), name);
        let mut acc = 0u64;
        for u in 0..n {
            acc += g.dist_row(u)[n - 1] as u64;
        }
        acc
    });
    let first_row = best_of_secs(SAMPLES, || {
        let g = CouplingGraph::from_edges(n, edges.iter().copied(), name);
        g.dist_row(n / 2)[0]
    }) - construct;
    let cached = {
        let g = CouplingGraph::from_edges(n, edges.iter().copied(), name);
        let _ = g.dist_row(n / 2);
        let reps = 10_000usize;
        best_of_secs(SAMPLES, || {
            let mut acc = 0u64;
            for k in 0..reps {
                acc += g.dist_row(n / 2)[k % n] as u64;
            }
            acc
        }) / reps as f64
    };
    let (induced, footprint) = {
        let g = CouplingGraph::from_edges(n, edges.iter().copied(), name);
        let footprint = g.memory_footprint();
        // A region of ~n/8 contiguous qubits, the region scheduler's shape.
        let region = Region::new(n, 0..n / 8);
        let induced = best_of_secs(SAMPLES, || g.induced(&region).n_qubits());
        (induced, footprint)
    };
    Cell {
        device: name.to_string(),
        qubits: n,
        construct_us: construct * 1e6,
        eager_us: eager * 1e6,
        first_row_us: first_row.max(0.0) * 1e6,
        cached_row_ns: cached * 1e9,
        induced_us: induced * 1e6,
        footprint_bytes: footprint,
    }
}

fn main() {
    let out_path = {
        let argv: Vec<String> = std::env::args().collect();
        argv.iter()
            .position(|a| a == "--out")
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };

    let hh = CouplingGraph::heavy_hex(7, 16);
    let cells = vec![
        bench_device("heavy-hex-130", hh.n_qubits(), hh.edges()),
        bench_device("grid-33x33", 1089, CouplingGraph::grid(33, 33).edges()),
        bench_device("synthetic-4096", 4096, synthetic_edges(4096, 0xc5a0)),
    ];

    println!(
        "{:<16} {:>6} {:>12} {:>10} {:>9} {:>12} {:>11} {:>10} {:>10}",
        "device",
        "qubits",
        "construct us",
        "eager us",
        "speedup",
        "first-row us",
        "cached ns",
        "induced us",
        "footprint"
    );
    for c in &cells {
        println!(
            "{:<16} {:>6} {:>12.1} {:>10.1} {:>8.1}x {:>12.1} {:>11.1} {:>10.1} {:>10}",
            c.device,
            c.qubits,
            c.construct_us,
            c.eager_us,
            c.speedup(),
            c.first_row_us,
            c.cached_row_ns,
            c.induced_us,
            c.footprint_bytes
        );
    }

    let mut json = String::from("{\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"device\": \"{}\", \"qubits\": {}, \"construct_us\": {:.2}, \
             \"eager_us\": {:.2}, \"speedup\": {:.3}, \"first_row_us\": {:.2}, \
             \"cached_row_ns\": {:.2}, \"induced_us\": {:.2}, \"footprint_bytes\": {} }}{}\n",
            c.device,
            c.qubits,
            c.construct_us,
            c.eager_us,
            c.speedup(),
            c.first_row_us,
            c.cached_row_ns,
            c.induced_us,
            c.footprint_bytes,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("write bench report");
        println!("wrote {path}");
    }

    // Gate only the machine-portable numbers: the construct-vs-eager
    // speedup (first-row and cached timings are sub-microsecond and too
    // noisy) and the deterministic footprint, where an accidental O(V²)
    // eager allocation would show up.
    let failures = check_cells(
        &json,
        include_str!("../graph_ops.reference.json"),
        &["device"],
        &["footprint_bytes"],
    );
    for f in &failures {
        eprintln!("graph_ops FAIL {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

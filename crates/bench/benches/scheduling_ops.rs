//! Microbenchmarks of the scheduling/clustering/routing set operations:
//! packed [`QubitMask`] kernels vs the `Vec<usize>`/`Vec<bool>` shapes the
//! compiler used before the bitplane-native refactor, on identical random
//! inputs.
//!
//! Each kernel is one inner loop lifted from the stack:
//!
//! * `membership`      — `worklist.contains(&q)` (the router's old
//!   front/check dedup scan) vs one packed bit probe.
//! * `frontier_union`  — accumulating a block's touched-qubit frontier
//!   (the clusterer's member set) by Vec scan-and-push vs word-OR.
//! * `intersect_count` — `|A ∩ B|` by nested `contains` (the scheduler's
//!   old overlap scan) vs `u128`-chunked AND+popcount.
//! * `subset`          — ready-set check `A ⊆ B` by per-element probe of a
//!   `Vec<bool>` vs word-parallel `a & !b == 0`.
//!
//! `harness = false` (criterion is not vendored in this offline
//! workspace); timings come from `tetris_bench::timing::best_of_secs`.
//! The bench exits non-zero unless it measures the same cells as the
//! committed `scheduling_ops.reference.json`, each at least half its
//! reference speedup. Run with
//! `cargo bench -p tetris-bench --bench scheduling_ops`
//! (`-- --out FILE` also writes the JSON report).

use tetris_bench::timing::{best_of_secs, check_cells, SAMPLES};
use tetris_pauli::mask::QubitMask;
use tetris_pauli::rng::rngs::StdRng;
use tetris_pauli::rng::{Rng, SeedableRng};

/// Random sets per width (each kernel call walks a fresh pair).
const SETS: usize = 128;

/// Register widths: one word, the word-straddling device, the acceptance
/// criterion's 256, and a large-register stress point.
const WIDTHS: [usize; 4] = [64, 130, 256, 1024];

struct Cell {
    kernel: &'static str,
    n: usize,
    packed_ns: f64,
    vec_ns: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.vec_ns / self.packed_ns
    }
}

/// A random qubit set in all three representations the stack used:
/// packed mask, sorted member list, dense flag vector.
struct SetPair {
    mask: QubitMask,
    members: Vec<usize>,
    flags: Vec<bool>,
}

fn random_set(rng: &mut StdRng, n: usize) -> SetPair {
    let mut mask = QubitMask::empty(n);
    let mut flags = vec![false; n];
    for (q, flag) in flags.iter_mut().enumerate() {
        if rng.gen_range(0..3usize) == 0 {
            mask.insert(q);
            *flag = true;
        }
    }
    SetPair {
        members: mask.to_vec(),
        mask,
        flags,
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

    let mut cells: Vec<Cell> = Vec::new();
    for n in WIDTHS {
        let mut rng = StdRng::seed_from_u64(0x5ced + n as u64);
        let sets: Vec<(SetPair, SetPair)> = (0..SETS)
            .map(|_| (random_set(&mut rng, n), random_set(&mut rng, n)))
            .collect();
        let probes: Vec<usize> = (0..SETS).map(|_| rng.gen_range(0..n)).collect();

        let reps = (4_000_000 / (n * SETS)).max(4);
        let per_call = |secs: f64| secs * 1e9 / (reps * SETS) as f64;
        let mut time_pair = |kernel: &'static str,
                             packed_f: &mut dyn FnMut() -> usize,
                             vec_f: &mut dyn FnMut() -> usize| {
            let packed_ns = per_call(best_of_secs(SAMPLES, || {
                (0..reps).map(|_| packed_f()).sum::<usize>()
            }));
            let vec_ns = per_call(best_of_secs(SAMPLES, || {
                (0..reps).map(|_| vec_f()).sum::<usize>()
            }));
            cells.push(Cell {
                kernel,
                n,
                packed_ns,
                vec_ns,
            });
        };

        time_pair(
            "membership",
            &mut || {
                sets.iter()
                    .zip(&probes)
                    .filter(|((a, _), &q)| a.mask.contains(q))
                    .count()
            },
            &mut || {
                sets.iter()
                    .zip(&probes)
                    .filter(|((a, _), q)| a.members.contains(q))
                    .count()
            },
        );

        time_pair(
            "frontier_union",
            &mut || {
                let mut acc = QubitMask::empty(n);
                for (a, b) in &sets {
                    acc.union_with(&a.mask);
                    acc.union_with(&b.mask);
                }
                acc.count()
            },
            &mut || {
                let mut acc: Vec<usize> = Vec::new();
                for (a, b) in &sets {
                    for &q in a.members.iter().chain(&b.members) {
                        if !acc.contains(&q) {
                            acc.push(q);
                        }
                    }
                }
                acc.len()
            },
        );

        time_pair(
            "intersect_count",
            &mut || {
                sets.iter()
                    .map(|(a, b)| a.mask.intersection_count(&b.mask))
                    .sum()
            },
            &mut || {
                sets.iter()
                    .map(|(a, b)| a.members.iter().filter(|q| b.members.contains(q)).count())
                    .sum()
            },
        );

        time_pair(
            "subset",
            &mut || {
                sets.iter()
                    .filter(|(a, b)| a.mask.is_subset_of(&b.mask))
                    .count()
            },
            &mut || {
                sets.iter()
                    .filter(|(a, b)| a.members.iter().all(|&q| b.flags[q]))
                    .count()
            },
        );
    }

    println!(
        "{:<16} {:>7} {:>14} {:>14} {:>9}",
        "kernel", "qubits", "packed ns/call", "vec ns/call", "speedup"
    );
    for c in &cells {
        println!(
            "{:<16} {:>7} {:>14.1} {:>14.1} {:>8.1}x",
            c.kernel,
            c.n,
            c.packed_ns,
            c.vec_ns,
            c.speedup()
        );
    }

    let mut json = String::from("{\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"qubits\": {}, \"packed_ns\": {:.2}, \
             \"vec_ns\": {:.2}, \"speedup\": {:.3} }}{}\n",
            c.kernel,
            c.n,
            c.packed_ns,
            c.vec_ns,
            c.speedup(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("write bench report");
        println!("wrote {path}");
    }

    let failures = check_cells(
        &json,
        include_str!("../scheduling_ops.reference.json"),
        &["kernel", "qubits"],
        &[],
    );
    for f in &failures {
        eprintln!("scheduling_ops FAIL {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

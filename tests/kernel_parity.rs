//! Parity of the compilers' exact kernels with the exhaustive loops they
//! replace. Each kernel changes how a minimum is found, never what it is:
//!
//! - `SimilarityIndex::top_k` and `best` against sort-and-truncate and the
//!   argmax over `TetrisBlock::similarity` (Eq. 1 in `f64`);
//! - the bound-pruned leaf attachment of `synthesize_block` against a
//!   test-local loop that runs one BFS from every unplaced leaf, on unit
//!   and calibrated (weighted) devices and across swap weights.
//!
//! SABRE's delta scoring is pinned by the router goldens in
//! `scheduling_goldens.rs`, which include a calibrated device.

use std::collections::VecDeque;
use tetris::circuit::Circuit;
use tetris::core::cluster::{find_center, gather_cluster, swap_along};
use tetris::core::synthesis::{leaf_score, synthesize_block};
use tetris::core::tree::{NodeKind, SynthesisTree};
use tetris::core::TetrisConfig;
use tetris::pauli::ir::TetrisBlock;
use tetris::pauli::mask::QubitMask;
use tetris::pauli::rng::rngs::StdRng;
use tetris::pauli::rng::{Rng, SeedableRng};
use tetris::pauli::similarity::SimilarityIndex;
use tetris::pauli::{PauliBlock, PauliOp, PauliString, PauliTerm};
use tetris::topology::{CalibrationMap, CouplingGraph, Layout};

/// `k` distinct values of `0..n`, in random order.
fn sample(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// A random block on `n` qubits: a random first string on `2..=max_support`
/// qubits, and up to three more strings that differ from it only on a few
/// root positions. `ops` is the operator alphabet; a narrow one makes
/// equal leaf operators, and so tied similarities, common.
fn random_block(rng: &mut StdRng, n: usize, max_support: usize, ops: &[PauliOp]) -> TetrisBlock {
    let size = rng.gen_range(2..=max_support);
    let support = sample(rng, n, size);
    let pick = |rng: &mut StdRng| ops[rng.gen_range(0..ops.len())];
    let first: Vec<(usize, PauliOp)> = support.iter().map(|&q| (q, pick(rng))).collect();
    let n_roots = rng.gen_range(1..=support.len().min(3));
    let roots = sample(rng, support.len(), n_roots);
    let mut terms = vec![PauliTerm::new(PauliString::from_sparse(n, &first), 1.0)];
    for _ in 0..rng.gen_range(0..=3usize) {
        let mut s = PauliString::from_sparse(n, &first);
        for &r in &roots {
            s.set_op(support[r], pick(rng));
        }
        terms.push(PauliTerm::new(s, -1.0));
    }
    TetrisBlock::analyze(PauliBlock::new(terms, 0.3, "r"))
}

/// A block list with repeats, so some similarities tie exactly.
fn random_blocks(seed: u64, n: usize, count: usize, ops: &[PauliOp]) -> Vec<TetrisBlock> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks: Vec<TetrisBlock> = Vec::with_capacity(count);
    while blocks.len() < count {
        if !blocks.is_empty() && rng.gen_range(0..5) == 0 {
            let again = blocks[rng.gen_range(0..blocks.len())].clone();
            blocks.push(again);
        } else {
            blocks.push(random_block(&mut rng, n, 12.min(n), ops));
        }
    }
    blocks
}

#[test]
fn similarity_index_equals_sort_and_truncate() {
    use PauliOp::{X, Y, Z};
    let mut boundary_ties = 0;
    for (seed, n, ops) in [
        (1u64, 12usize, &[Z][..]),
        (2, 20, &[X, Y, Z][..]),
        (3, 64, &[Z, X][..]),
        (4, 80, &[Z][..]),
        (5, 130, &[X, Y, Z][..]),
    ] {
        let blocks = random_blocks(seed, n, 48, ops);
        let mut index = SimilarityIndex::new(&blocks);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        for a in 0..blocks.len() {
            for b in 0..blocks.len() {
                assert_eq!(
                    index.similarity(a, b).to_f64().to_bits(),
                    blocks[a].similarity(&blocks[b]).to_bits(),
                    "Eq. 1 kernels disagree (n={n}, {a}, {b})"
                );
            }
        }
        for round in 0..40 {
            let last = rng.gen_range(0..blocks.len());
            let mut remaining = QubitMask::empty(blocks.len());
            for i in 0..blocks.len() {
                if i != last && rng.gen_range(0..3) != 0 {
                    remaining.insert(i);
                }
            }
            if remaining.is_empty() {
                continue;
            }
            let mut ranked: Vec<(f64, usize)> = remaining
                .iter()
                .map(|i| (blocks[last].similarity(&blocks[i]), i))
                .collect();
            ranked.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then(x.1.cmp(&y.1)));
            for k in [1, 2, 3, 10, 64] {
                if ranked.len() > k && ranked[k - 1].0 == ranked[k].0 {
                    boundary_ties += 1;
                }
                let mut want: Vec<usize> = ranked.iter().take(k).map(|r| r.1).collect();
                want.sort_unstable();
                let mut got: Vec<usize> = index.top_k(last, &remaining, k).collect();
                got.sort_unstable();
                assert_eq!(got, want, "top_k (n={n}, round {round}, k={k})");
            }
            let argmax = remaining
                .iter()
                .map(|i| (blocks[last].similarity(&blocks[i]), i))
                .max_by(|x, y| x.0.partial_cmp(&y.0).unwrap().then(y.1.cmp(&x.1)))
                .map(|r| r.1);
            assert_eq!(index.best(last, &remaining), argmax, "best (n={n})");
        }
    }
    assert!(
        boundary_ties > 20,
        "the seeds must tie at the top-k boundary ({boundary_ties} ties)"
    );
}

/// BFS from `start` that never enters `blocked` (start allowed):
/// `(dist, prev)`, allocated fresh.
fn bfs(graph: &CouplingGraph, start: usize, blocked: &QubitMask) -> (Vec<u32>, Vec<usize>) {
    let n = graph.n_qubits();
    let (mut dist, mut prev) = (vec![u32::MAX; n], vec![usize::MAX; n]);
    let mut queue = VecDeque::from([start]);
    dist[start] = 0;
    while let Some(u) = queue.pop_front() {
        for v in graph.neighbors(u) {
            if dist[v] == u32::MAX && !blocked.contains(v) {
                dist[v] = dist[u] + 1;
                prev[v] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, prev)
}

/// Alg. 1 with the exhaustive leaf loop: every unplaced leaf runs a BFS
/// and scores every tree node, in qubit order, with no bound.
fn reference_synthesize(
    graph: &CouplingGraph,
    layout: &mut Layout,
    out: &mut Circuit,
    block: &TetrisBlock,
    config: &TetrisConfig,
) -> SynthesisTree {
    let mut placed = QubitMask::empty(graph.n_qubits());
    let center = find_center(graph, layout, &block.root_mask);
    let mut tree = gather_cluster(
        graph,
        layout,
        out,
        &block.root_mask,
        center,
        &mut placed,
        config.tree_bias,
    );
    let roots = tree.node_mask(graph.n_qubits());
    let mut unplaced = block.leaf_mask.clone();
    while !unplaced.is_empty() {
        // (score, d, qn, qm, path)
        let mut best: Option<(f64, u32, usize, usize, Vec<usize>)> = None;
        for qn in unplaced.iter() {
            let (dist, prev) = bfs(graph, layout.phys_of(qn).unwrap(), &placed);
            for qm in tree.nodes_iter() {
                let Some(nb) = graph
                    .neighbors(qm)
                    .filter(|&nb| dist[nb] != u32::MAX && !placed.contains(nb))
                    .min_by_key(|&nb| (dist[nb], nb))
                else {
                    continue;
                };
                let d = dist[nb] + 1;
                let score =
                    leaf_score(d, roots.contains(qm), block.n_strings(), config.swap_weight);
                let better = best.as_ref().is_none_or(|b| {
                    score < b.0 - 1e-12
                        || ((score - b.0).abs() <= 1e-12 && (d, qn, qm) < (b.1, b.2, b.3))
                });
                if better {
                    let mut path = vec![nb];
                    while prev[*path.last().unwrap()] != usize::MAX {
                        path.push(prev[*path.last().unwrap()]);
                    }
                    path.reverse();
                    path.push(qm);
                    best = Some((score, d, qn, qm, path));
                }
            }
        }
        let (_, _, qn, qm, path) = best.expect("attachable");
        unplaced.remove(qn);
        let interior = &path[1..path.len() - 1];
        if config.bridging && !interior.is_empty() && interior.iter().all(|&p| layout.is_free(p)) {
            let mut parent = qm;
            for &anc in interior.iter().rev() {
                tree.add_edge(anc, parent, NodeKind::Bridge);
                placed.insert(anc);
                parent = anc;
            }
            tree.add_edge(path[0], parent, NodeKind::Data(qn));
            placed.insert(path[0]);
        } else {
            let attach = path[path.len() - 2];
            swap_along(layout, out, &path[..path.len() - 1]);
            tree.add_edge(attach, qm, NodeKind::Data(qn));
            placed.insert(attach);
        }
    }
    tree
}

#[test]
fn pruned_leaf_attachment_equals_the_exhaustive_loop() {
    use PauliOp::{X, Y, Z};
    let hex = CouplingGraph::heavy_hex_65();
    let calibrated = hex.with_calibration(&CalibrationMap::synthetic(&hex, 7));
    let devices = [
        (hex.clone(), 30usize),
        (CouplingGraph::grid(12, 12), 60),
        (calibrated, 30),
    ];
    let mut leaves = 0;
    for (graph, n_log) in &devices {
        for w in [0.0, 0.1, 3.0, 100.0] {
            for bridging in [true, false] {
                let config = TetrisConfig::default()
                    .with_swap_weight(w)
                    .with_bridging(bridging);
                let mut rng = StdRng::seed_from_u64(w.to_bits() ^ graph.n_qubits() as u64);
                let start = sample(&mut rng, graph.n_qubits(), *n_log);
                let mut layout = Layout::from_assignment(&start, graph.n_qubits());
                let mut circuit = Circuit::new(graph.n_qubits());
                for _ in 0..6 {
                    let block = random_block(&mut rng, *n_log, 16, &[X, Y, Z]);
                    leaves += block.leaf_mask.count();
                    let (mut ref_layout, mut ref_circuit) = (layout.clone(), circuit.clone());
                    let want = reference_synthesize(
                        graph,
                        &mut ref_layout,
                        &mut ref_circuit,
                        &block,
                        &config,
                    );
                    let got = synthesize_block(graph, &mut layout, &mut circuit, &block, &config);
                    let at = format!("{} w={w} bridging={bridging}", graph.name());
                    assert_eq!(got, want, "tree ({at})");
                    assert_eq!(circuit, ref_circuit, "SWAPs ({at})");
                    assert_eq!(layout, ref_layout, "layout ({at})");
                }
            }
        }
    }
    assert!(leaves > 500, "the blocks must exercise leaf attachment");
}

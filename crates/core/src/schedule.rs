//! Lookahead block scheduling (paper §V-B).
//!
//! 1. Start with the block of largest *active length* (most non-identity
//!    operators — the richest cancellation opportunity).
//! 2. Rank the remaining blocks by leaf-section similarity (Eq. 1) to the
//!    block just synthesized; take the top-K. The ranking runs on a
//!    [`SimilarityIndex`] built once per compile: exact integer ratios over
//!    one flat word array, and a partial selection instead of a full sort.
//! 3. Among those candidates, schedule the one whose root set is cheapest
//!    to gather under the *current* layout (SWAP-cost estimate).
//! 4. Repeat.
//!
//! Similarity keeps the leaf sections aligned across consecutive blocks so
//! their boundary gates cancel; the SWAP estimate keeps the root gathering
//! from destroying that win (the paper's intra- vs inter-block trade-off).

use crate::cluster::find_center;
use tetris_pauli::ir::TetrisBlock;
use tetris_pauli::mask::QubitMask;
use tetris_pauli::similarity::SimilarityIndex;
use tetris_topology::{CouplingGraph, Layout};

/// Estimated SWAPs needed to gather `block`'s root set under `layout`: the
/// sum of (distance to the would-be center − 1) over root qubits. Cheap and
/// monotone in the real cost, which is all ranking needs.
pub fn root_gather_cost(graph: &CouplingGraph, layout: &Layout, block: &TetrisBlock) -> u64 {
    let center = find_center(graph, layout, &block.root_mask);
    block
        .root_mask
        .iter()
        .map(|q| {
            let p = layout.phys_of(q).expect("qubit placed");
            (graph.dist(center, p) as u64).saturating_sub(1)
        })
        .sum()
}

/// Index (into `blocks`) of the first block to schedule: maximum active
/// length, ties toward the original order. `remaining` is the packed set
/// of still-unscheduled block indices.
pub fn pick_first(blocks: &[TetrisBlock], remaining: &QubitMask) -> usize {
    remaining
        .iter()
        .max_by_key(|&i| (blocks[i].active_length(), std::cmp::Reverse(i)))
        .expect("non-empty schedule")
}

/// Picks the next block: top-`k` by similarity to `last`, then minimum
/// root-gathering cost (ties toward the original order). `index` is
/// `blocks`' [`SimilarityIndex`].
pub fn pick_next(
    blocks: &[TetrisBlock],
    index: &mut SimilarityIndex,
    remaining: &QubitMask,
    last: usize,
    k: usize,
    graph: &CouplingGraph,
    layout: &Layout,
) -> usize {
    debug_assert!(!remaining.is_empty());
    index
        .top_k(last, remaining, k)
        .map(|i| (root_gather_cost(graph, layout, &blocks[i]), i))
        .min()
        .map(|(_, i)| i)
        .expect("candidates non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_pauli::{PauliBlock, PauliTerm};

    fn block(strings: &[&str]) -> TetrisBlock {
        TetrisBlock::analyze(PauliBlock::new(
            strings
                .iter()
                .map(|s| PauliTerm::new(s.parse().unwrap(), 1.0))
                .collect(),
            0.2,
            "t",
        ))
    }

    #[test]
    fn first_pick_maximizes_active_length() {
        let blocks = vec![
            block(&["XYIII", "YXIII"]), // active 2
            block(&["XYZZZ", "YXZZZ"]), // active 5
            block(&["XYZZI", "YXZZI"]), // active 4
        ];
        let remaining = QubitMask::full(3);
        assert_eq!(pick_first(&blocks, &remaining), 1);
    }

    #[test]
    fn next_pick_prefers_similar_blocks() {
        let g = CouplingGraph::line(8);
        let l = Layout::trivial(6, 8);
        let blocks = vec![
            block(&["XYZZZI", "YXZZZI"]), // leaves {2,3,4}
            block(&["IXZZZY", "IYZZZX"]), // leaves {2,3,4} → similar to 0
            block(&["XYIIII", "YXIIII"]), // no leaf overlap, cheap roots
        ];
        let mut index = SimilarityIndex::new(&blocks);
        let remaining = QubitMask::from_indices(3, &[1, 2]);
        // With k = 1 the similarity ranking gates the candidate set: only
        // block 1 survives, despite block 2's cheaper root gathering.
        assert_eq!(pick_next(&blocks, &mut index, &remaining, 0, 1, &g, &l), 1);
        // With k ≥ remaining, every block is a candidate and the SWAP-cost
        // tie-breaker picks the cheaper root set (paper §V-B step 3).
        assert_eq!(pick_next(&blocks, &mut index, &remaining, 0, 10, &g, &l), 2);
    }

    #[test]
    fn top_k_window_limits_candidates() {
        let g = CouplingGraph::line(8);
        let l = Layout::trivial(6, 8);
        // Block 2 has zero similarity but also zero gather cost; with k = 1
        // only the most similar candidate (1) is considered.
        let blocks = vec![
            block(&["XYZZZI", "YXZZZI"]),
            block(&["IXZZZY", "IYZZZX"]),
            block(&["XYIIII", "YXIIII"]),
        ];
        let mut index = SimilarityIndex::new(&blocks);
        assert_eq!(
            pick_next(
                &blocks,
                &mut index,
                &QubitMask::from_indices(3, &[1, 2]),
                0,
                1,
                &g,
                &l
            ),
            1
        );
    }

    #[test]
    fn gather_cost_counts_distances() {
        let g = CouplingGraph::line(10);
        let l = Layout::trivial(10, 10);
        // Roots {0, 9}: center lands on one of them; the other is 9 hops
        // away → 8 estimated swaps.
        let b = block(&["XIIIIIIIIY", "YIIIIIIIIX"]);
        assert_eq!(b.root_set, vec![0, 9]);
        assert_eq!(root_gather_cost(&g, &l, &b), 8);
        // Adjacent roots cost nothing.
        let b2 = block(&["XYIIIIIIII", "YXIIIIIIII"]);
        assert_eq!(root_gather_cost(&g, &l, &b2), 0);
    }
}

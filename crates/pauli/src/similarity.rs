//! The paper's block similarity (Eq. 1) as one exact integer kernel, and a
//! flat index that ranks a whole block list against one block.
//!
//! `S(T1,T2) = |C| / (|LT1| + |LT2| − |C|)`, where `C` holds the qubits
//! carrying the same leaf operator in both blocks. A block's leaf operators
//! are its first string's operators on the leaf set, so per 64-qubit word
//! `|C| = popcount(la & lb & !((xa^xb) | (za^zb)))`. Leaves lie inside the
//! first string's support, so disjoint supports already give `|C| = 0`.
//!
//! [`Similarity`] keeps the ratio as its two integers and orders ratios by
//! cross-product. That order is exactly the order of the `f64` quotients
//! [`TetrisBlock::similarity`] returns: equal rationals divide to the same
//! `f64`, and distinct ones with denominators no larger than the register
//! width differ by far more than one ulp.

use crate::ir::TetrisBlock;
use crate::mask::QubitMask;
use std::cmp::Ordering;

/// An Eq. 1 ratio `common / denom`, kept exact. A zero denominator (both
/// leaf sets empty) reads as `0/1`.
#[derive(Debug, Clone, Copy)]
pub struct Similarity {
    common: u32,
    denom: u32,
}

impl Similarity {
    /// The ratio of `common` shared leaves between leaf sets of
    /// `leaves_a` and `leaves_b` qubits.
    #[inline]
    pub fn new(common: u32, leaves_a: u32, leaves_b: u32) -> Self {
        let denom = leaves_a + leaves_b - common;
        if denom == 0 {
            Similarity {
                common: 0,
                denom: 1,
            }
        } else {
            Similarity { common, denom }
        }
    }

    /// The ratio as the `f64` quotient Eq. 1 defines.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.common as f64 / self.denom as f64
    }
}

impl PartialEq for Similarity {
    /// Equal ratios, whatever their terms (`2/4 == 1/2`).
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Similarity {}

impl Ord for Similarity {
    /// Exact ratio order, by cross-product.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (self.common as u64 * other.denom as u64).cmp(&(other.common as u64 * self.denom as u64))
    }
}

impl PartialOrd for Similarity {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `|C|` over one 64-qubit word: leaf bits both blocks have, where their
/// first strings' bitplanes agree. The one definition of Eq. 1's numerator.
#[inline]
pub fn common_leaves(la: u64, xa: u64, za: u64, lb: u64, xb: u64, zb: u64) -> u32 {
    (la & lb & !((xa ^ xb) | (za ^ zb))).count_ones()
}

/// Eq. 1 for a whole block list, laid out for the scheduler's scans: one
/// flat `Vec<u64>` holding, per block and per 64-qubit word, the leaf-mask
/// word and the first string's x and z words side by side, plus one leaf
/// count per block. Built once per compile; the ranking scratch is reused
/// across calls, so a scan allocates nothing.
#[derive(Debug, Clone)]
pub struct SimilarityIndex {
    /// Words per qubit set (the same for every block).
    words: usize,
    /// `[leaf, x, z]` per word, `3 · words` per block.
    planes: Vec<u64>,
    /// Leaf count per block.
    leaves: Vec<u32>,
    /// Ranking scratch: `(similarity to the last block, block index)`.
    ranked: Vec<(Similarity, usize)>,
}

impl SimilarityIndex {
    /// Indexes `blocks` (all on one register width).
    ///
    /// # Panics
    /// Panics if the blocks act on different register widths.
    pub fn new(blocks: &[TetrisBlock]) -> Self {
        let words = blocks.first().map_or(0, |b| b.leaf_mask.words().len());
        let mut planes = Vec::with_capacity(3 * words * blocks.len());
        let mut leaves = Vec::with_capacity(blocks.len());
        for b in blocks {
            let first = &b.block.terms[0].string;
            let leaf = b.leaf_mask.words();
            assert_eq!(leaf.len(), words, "similarity across register widths");
            for ((&l, &x), &z) in leaf.iter().zip(first.x_words()).zip(first.z_words()) {
                planes.extend([l, x, z]);
            }
            leaves.push(b.leaf_mask.count() as u32);
        }
        SimilarityIndex {
            words,
            planes,
            leaves,
            ranked: Vec::with_capacity(blocks.len()),
        }
    }

    /// Eq. 1 between blocks `a` and `b`.
    #[inline]
    pub fn similarity(&self, a: usize, b: usize) -> Similarity {
        let stride = 3 * self.words;
        let pa = &self.planes[a * stride..(a + 1) * stride];
        let pb = &self.planes[b * stride..(b + 1) * stride];
        let common = pa
            .chunks_exact(3)
            .zip(pb.chunks_exact(3))
            .map(|(x, y)| common_leaves(x[0], x[1], x[2], y[0], y[1], y[2]))
            .sum();
        Similarity::new(common, self.leaves[a], self.leaves[b])
    }

    /// The `k` blocks of `remaining` most similar to `last` (at least one),
    /// ties toward the lower index — exactly the set that sorting by
    /// (similarity descending, index ascending) and truncating to `k`
    /// keeps, in no particular order.
    pub fn top_k(
        &mut self,
        last: usize,
        remaining: &QubitMask,
        k: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        self.ranked.clear();
        for i in remaining.iter() {
            let s = self.similarity(last, i);
            self.ranked.push((s, i));
        }
        let k = k.max(1);
        if self.ranked.len() > k {
            // A strict total order, so the partition's first k are the
            // sorted prefix as a set.
            self.ranked
                .select_nth_unstable_by(k - 1, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            self.ranked.truncate(k);
        }
        self.ranked.iter().map(|&(_, i)| i)
    }

    /// The block of `remaining` most similar to `last`, ties toward the
    /// lower index; `None` when `remaining` is empty.
    pub fn best(&self, last: usize, remaining: &QubitMask) -> Option<usize> {
        remaining
            .iter()
            .map(|i| (self.similarity(last, i), i))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_order_by_cross_product() {
        let half = Similarity::new(2, 3, 3); // 2/4
        let also_half = Similarity::new(1, 1, 2); // 1/2
        let third = Similarity::new(1, 2, 2); // 1/3
        assert_eq!(half, also_half);
        assert_eq!(half.to_f64(), also_half.to_f64());
        assert!(third < half);
        // Both leaf sets empty reads as 0/1, equal to any other zero.
        assert_eq!(Similarity::new(0, 0, 0), Similarity::new(0, 3, 4));
        assert_eq!(Similarity::new(0, 0, 0).to_f64(), 0.0);
    }
}

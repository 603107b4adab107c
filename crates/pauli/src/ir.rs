//! The Tetris IR (paper §IV-B): Pauli-string blocks annotated with the
//! **root-tree qubit set** and **leaf-tree qubit set**.
//!
//! The leaf set is the maximum qubit set over which the operators are
//! identical for every string of the block; all two-qubit gates among these
//! qubits can cancel between consecutive strings if the synthesized trees
//! keep them in the leaf section. The root set holds the remaining
//! non-identity qubits. The IR deliberately does *not* fix how many leaf
//! trees exist or how trees are shaped — that freedom is the compiler's
//! tuning spectrum (§IV-B2).

use crate::block::{Hamiltonian, PauliBlock};
use crate::fingerprint::Fingerprint64;
use crate::mask::QubitMask;
use crate::op::PauliOp;
use crate::similarity::{common_leaves, Similarity};
use std::fmt;

/// A [`PauliBlock`] analyzed into root / leaf qubit sets.
#[derive(Debug, Clone, PartialEq)]
pub struct TetrisBlock {
    /// The underlying Pauli block.
    pub block: PauliBlock,
    /// Qubits that must form the root tree (operators differ across
    /// strings). Never empty: a leaf qubit is promoted when every operator
    /// is common (single-string blocks such as QAOA edges).
    pub root_set: Vec<usize>,
    /// Qubits whose operator is identical across all strings — candidates
    /// for inter-string two-qubit gate cancellation.
    pub leaf_set: Vec<usize>,
    /// `leaf_set` as a packed bitset (kept in sync by [`analyze`]); the
    /// word-parallel operand of the Eq. 1 similarity kernel.
    ///
    /// [`analyze`]: TetrisBlock::analyze
    pub leaf_mask: QubitMask,
    /// `root_set` as a packed bitset (kept in sync by [`analyze`]); the
    /// operand of the clusterer's `findCenter` scan and the scheduler's
    /// root-gather cost. The `Vec` forms above are the public API edge;
    /// the compiler's inner loops read the masks.
    ///
    /// [`analyze`]: TetrisBlock::analyze
    pub root_mask: QubitMask,
}

impl TetrisBlock {
    /// Analyzes a block into root and leaf sets, word-parallel: a qubit is
    /// a leaf iff it is in the first string's support and no other string's
    /// bitplanes differ from the first's there — two XORs and an OR per
    /// word per string, instead of a per-qubit op scan.
    pub fn analyze(block: PauliBlock) -> Self {
        let first = &block.terms[0].string;
        let n = block.n_qubits();
        let words = first.x_words().len();
        // diff[w]: qubits where some string disagrees with the first.
        let mut diff = vec![0u64; words];
        for t in &block.terms[1..] {
            let (x, z) = (t.string.x_words(), t.string.z_words());
            for w in 0..words {
                diff[w] |= (x[w] ^ first.x_words()[w]) | (z[w] ^ first.z_words()[w]);
            }
        }
        // leaf = first-string support minus disagreements; the union support
        // is `first_active | diff`, so the non-leaf remainder is exactly
        // `diff` — no second pass over the strings needed.
        let leaf_words: Vec<u64> = diff
            .iter()
            .enumerate()
            .map(|(w, &d)| (first.x_words()[w] | first.z_words()[w]) & !d)
            .collect();
        let mut leaf_mask = QubitMask::from_words(n, leaf_words);
        let mut root_mask = QubitMask::from_words(n, diff);
        let mut root_set = root_mask.to_vec();
        let mut leaf_set = leaf_mask.to_vec();
        if root_set.is_empty() {
            // Degenerate (e.g. single-string QAOA blocks): the Rz must sit
            // somewhere — promote one common qubit to the root set.
            let promoted = leaf_set.remove(0);
            leaf_mask.remove(promoted);
            root_mask.insert(promoted);
            root_set.push(promoted);
        }
        TetrisBlock {
            block,
            root_set,
            leaf_set,
            leaf_mask,
            root_mask,
        }
    }

    /// The common operator on leaf qubit `q`.
    ///
    /// # Panics
    /// Panics if `q` is not in the leaf set.
    pub fn leaf_op(&self, q: usize) -> PauliOp {
        debug_assert!(self.leaf_set.contains(&q));
        self.block.terms[0].string.op(q)
    }

    /// Number of Pauli strings (`#ps` of the paper's score function).
    pub fn n_strings(&self) -> usize {
        self.block.len()
    }

    /// The paper's *active length* (number of non-identity operators).
    pub fn active_length(&self) -> usize {
        self.root_mask.count() + self.leaf_mask.count()
    }

    /// Leaf-section entries as `(qubit, op)` pairs.
    pub fn leaf_section(&self) -> Vec<(usize, PauliOp)> {
        self.leaf_set
            .iter()
            .map(|&q| (q, self.leaf_op(q)))
            .collect()
    }

    /// The paper's block similarity (Eq. 1):
    /// `S(T1,T2) = |C| / (|LT1| + |LT2| − |C|)` where `C` is the set of
    /// qubits carrying the same leaf operator in both blocks.
    ///
    /// This is the one-pair form; it runs the same word kernel
    /// ([`common_leaves`]) as [`SimilarityIndex`], which ranks a whole
    /// block list.
    ///
    /// Returns 0 when both leaf sets are empty.
    ///
    /// # Panics
    /// Panics if the blocks act on different register widths.
    ///
    /// [`SimilarityIndex`]: crate::similarity::SimilarityIndex
    pub fn similarity(&self, other: &TetrisBlock) -> f64 {
        let a = &self.block.terms[0].string;
        let b = &other.block.terms[0].string;
        assert_eq!(
            a.n_qubits(),
            b.n_qubits(),
            "similarity across register widths"
        );
        let common = (0..self.leaf_mask.words().len())
            .map(|w| {
                common_leaves(
                    self.leaf_mask.words()[w],
                    a.x_words()[w],
                    a.z_words()[w],
                    other.leaf_mask.words()[w],
                    b.x_words()[w],
                    b.z_words()[w],
                )
            })
            .sum();
        Similarity::new(
            common,
            self.leaf_mask.count() as u32,
            other.leaf_mask.count() as u32,
        )
        .to_f64()
    }
}

impl fmt::Display for TetrisBlock {
    /// Prints the block in the paper's Fig. 6(b) style: a qubit-order
    /// header, full strings with the common section lower-cased for the
    /// first and last string, and only the non-common section for middle
    /// strings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let order: Vec<String> = self
            .root_set
            .iter()
            .chain(&self.leaf_set)
            .map(|q| q.to_string())
            .collect();
        writeln!(f, "{{ {},", order.join(""))?;
        let last = self.block.terms.len() - 1;
        for (i, t) in self.block.terms.iter().enumerate() {
            let mut line = String::new();
            for &q in &self.root_set {
                let op = t.string.op(q);
                line.push(op.to_char());
            }
            if i == 0 || i == last {
                for &q in &self.leaf_set {
                    line.push(self.leaf_op(q).to_char().to_ascii_lowercase());
                }
            }
            writeln!(f, "  {line},")?;
        }
        write!(f, "}}")
    }
}

/// A Hamiltonian lowered to Tetris IR.
#[derive(Debug, Clone, PartialEq)]
pub struct TetrisIr {
    /// Register width.
    pub n_qubits: usize,
    /// Analyzed blocks, in the original ansatz order (scheduling reorders
    /// them later, inside the compiler).
    pub blocks: Vec<TetrisBlock>,
    /// Workload name.
    pub name: String,
}

impl TetrisIr {
    /// Lowers a block Hamiltonian into the Tetris IR.
    pub fn from_hamiltonian(h: &Hamiltonian) -> Self {
        TetrisIr {
            n_qubits: h.n_qubits,
            blocks: h.blocks.iter().cloned().map(TetrisBlock::analyze).collect(),
            name: h.name.clone(),
        }
    }

    /// Total number of Pauli strings.
    pub fn pauli_string_count(&self) -> usize {
        self.blocks.iter().map(|b| b.n_strings()).sum()
    }

    /// A stable 64-bit content fingerprint of the IR — the Hamiltonian half
    /// of the engine's cache key.
    ///
    /// Covers everything compilation depends on: register width, block
    /// order, per-block rotation angle, and each term's coefficient and
    /// operator string. Deliberately excludes the workload [`name`] and
    /// block labels, which are presentation-only: renaming a workload must
    /// still hit the cache. Equal IRs (modulo names) hash equal on every
    /// platform and release; see [`crate::fingerprint`].
    ///
    /// [`name`]: TetrisIr::name
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint64::new();
        h.write_bytes(b"tetris-ir/v1");
        hash_semantic_content(&mut h, self.n_qubits, self.blocks.iter().map(|b| &b.block));
        h.finish()
    }
}

/// Absorbs the compilation-relevant content of a block sequence (shared by
/// [`TetrisIr::fingerprint`] and [`Hamiltonian::fingerprint`], which must
/// agree for lowered-vs-unlowered forms of the same workload — the root and
/// leaf sets are derived data, so hashing the blocks alone is exhaustive).
pub(crate) fn hash_semantic_content<'a>(
    h: &mut Fingerprint64,
    n_qubits: usize,
    blocks: impl Iterator<Item = &'a PauliBlock>,
) {
    h.write_usize(n_qubits);
    for b in blocks {
        h.write_u8(b'B');
        h.write_f64(b.angle);
        h.write_usize(b.terms.len());
        for t in &b.terms {
            h.write_f64(t.coeff);
            for op in t.string.iter_ops() {
                h.write_u8(op.to_char() as u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::PauliTerm;
    use crate::string::PauliString;

    fn block(strings: &[&str]) -> PauliBlock {
        PauliBlock::new(
            strings
                .iter()
                .map(|s| PauliTerm::new(s.parse::<PauliString>().unwrap(), 1.0))
                .collect(),
            0.3,
            "t",
        )
    }

    #[test]
    fn paper_fig5_block_analysis() {
        // Fig. 5: {X0Y1zzz, X0X1zzz, Y0X1zzz} → root {0,1}, leaf {2,3,4}.
        let tb = TetrisBlock::analyze(block(&["XYZZZ", "XXZZZ", "YXZZZ"]));
        assert_eq!(tb.root_set, vec![0, 1]);
        assert_eq!(tb.leaf_set, vec![2, 3, 4]);
        assert_eq!(tb.leaf_op(3), PauliOp::Z);
        assert_eq!(tb.active_length(), 5);
    }

    #[test]
    fn fig3_block_analysis() {
        // Y0ZZZY4 + X0ZZZX4: roots {0,4} (Y vs X), leaves {1,2,3}.
        let tb = TetrisBlock::analyze(block(&["YZZZY", "XZZZX"]));
        assert_eq!(tb.root_set, vec![0, 4]);
        assert_eq!(tb.leaf_set, vec![1, 2, 3]);
    }

    #[test]
    fn single_string_block_promotes_a_root() {
        let tb = TetrisBlock::analyze(block(&["IZIZI"]));
        assert_eq!(tb.root_set.len(), 1);
        assert_eq!(tb.leaf_set.len(), 1);
        assert_eq!(tb.active_length(), 2);
    }

    #[test]
    fn similarity_eq1() {
        // Fig. 7 block (leaf z on 2..=6) vs §V-B block (leaf z on 2..=5).
        let a = TetrisBlock::analyze(block(&["XYZZZZZ", "XXZZZZZ", "YXZZZZZ"]));
        let b = TetrisBlock::analyze(block(&["IYZZZZX", "IXZZZZY", "IYZZZZX"]));
        // a leafs {2,3,4,5,6}, b leafs {2,3,4,5}: C = {2,3,4,5} → 4/(5+4-4).
        assert!((a.similarity(&b) - 4.0 / 5.0).abs() < 1e-12);
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_matches_fig6_convention() {
        let tb = TetrisBlock::analyze(block(&["XYZZZ", "XXZZZ", "ZXZZZ", "YXZZZ"]));
        let text = tb.to_string();
        assert!(text.contains("XYzzz"), "{text}");
        assert!(text.contains("YXzzz"), "{text}");
        // middle strings drop the common section
        assert!(text.contains("\n  XX,\n"), "{text}");
    }

    #[test]
    fn fingerprint_is_stable_and_name_blind() {
        let h = |name: &str| {
            Hamiltonian::new(5, vec![block(&["XYZZZ", "YXZZZ"]), block(&["IIZZI"])], name)
        };
        let a = TetrisIr::from_hamiltonian(&h("toy"));
        let b = TetrisIr::from_hamiltonian(&h("renamed"));
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "workload names are presentation-only"
        );
        // The unlowered Hamiltonian agrees with its lowered IR.
        assert_eq!(h("toy").fingerprint(), a.fingerprint());
    }

    #[test]
    fn fingerprint_sees_every_semantic_mutation() {
        let base = Hamiltonian::new(
            5,
            vec![block(&["XYZZZ", "YXZZZ"]), block(&["IIZZI"])],
            "toy",
        );
        let fp = base.fingerprint();

        // Mutate one Pauli operator.
        let mut m = base.clone();
        m.blocks[0].terms[1].string.set_op(4, PauliOp::Y);
        assert_ne!(m.fingerprint(), fp, "operator change must rekey");

        // Mutate one coefficient.
        let mut m = base.clone();
        m.blocks[0].terms[0].coeff += 1e-9;
        assert_ne!(m.fingerprint(), fp, "coefficient change must rekey");

        // Mutate one block angle.
        let mut m = base.clone();
        m.blocks[1].angle *= 2.0;
        assert_ne!(m.fingerprint(), fp, "angle change must rekey");

        // Swap block order.
        let mut m = base.clone();
        m.blocks.reverse();
        assert_ne!(m.fingerprint(), fp, "block order is semantic");

        // Widen the register.
        let wide = Hamiltonian::new(
            6,
            base.blocks
                .iter()
                .map(|b| {
                    PauliBlock::new(
                        b.terms
                            .iter()
                            .map(|t| PauliTerm::new(t.string.padded_to(6), t.coeff))
                            .collect(),
                        b.angle,
                        b.label.clone(),
                    )
                })
                .collect(),
            "toy",
        );
        assert_ne!(wide.fingerprint(), fp, "register width is semantic");
    }

    #[test]
    fn ir_from_hamiltonian() {
        let h = Hamiltonian::new(
            5,
            vec![block(&["XYZZZ", "YXZZZ"]), block(&["IIZZI"])],
            "toy",
        );
        let ir = TetrisIr::from_hamiltonian(&h);
        assert_eq!(ir.blocks.len(), 2);
        assert_eq!(ir.pauli_string_count(), 3);
    }
}

//! Pauli terms, blocks and Hamiltonians — the input of every compiler in the
//! workspace.

use crate::mask::QubitMask;
use crate::string::PauliString;
use std::fmt;

/// A weighted Pauli string: `coeff · P`.
#[derive(Debug, Clone, PartialEq)]
pub struct PauliTerm {
    /// The Pauli string.
    pub string: PauliString,
    /// Real coefficient. For a UCCSD block this is the per-string weight
    /// `w_i` of the paper's IR (Fig. 6); the full rotation angle of the
    /// synthesized `Rz` is `angle · coeff`.
    pub coeff: f64,
}

impl PauliTerm {
    /// Convenience constructor.
    pub fn new(string: PauliString, coeff: f64) -> Self {
        PauliTerm { string, coeff }
    }
}

/// A block of Pauli strings sharing a common rotation-angle factor.
///
/// This corresponds to one excitation operator of the UCCSD ansatz (or one
/// edge term of a QAOA cost Hamiltonian): the paper defines a *Tetris block*
/// as exactly such an ansatz-construction block (§IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct PauliBlock {
    /// The weighted strings of the block. All strings act on the same number
    /// of qubits and pairwise commute for blocks produced by the generators
    /// in this crate.
    pub terms: Vec<PauliTerm>,
    /// The shared rotation-angle factor `θ` of the block.
    pub angle: f64,
    /// Human-readable origin, e.g. `d(0,1->4,5)` for a double excitation.
    pub label: String,
}

impl PauliBlock {
    /// Builds a block, asserting that all strings have equal qubit count.
    ///
    /// # Panics
    /// Panics if `terms` is empty or qubit counts differ.
    pub fn new(terms: Vec<PauliTerm>, angle: f64, label: impl Into<String>) -> Self {
        assert!(!terms.is_empty(), "a PauliBlock must contain a string");
        let n = terms[0].string.n_qubits();
        assert!(
            terms.iter().all(|t| t.string.n_qubits() == n),
            "all strings in a block must act on the same register"
        );
        PauliBlock {
            terms,
            angle,
            label: label.into(),
        }
    }

    /// Number of qubits the block acts on.
    pub fn n_qubits(&self) -> usize {
        self.terms[0].string.n_qubits()
    }

    /// Number of Pauli strings (`#ps` in the paper's score function).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the block holds no strings (never true for constructed blocks).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Qubits on which at least one string acts non-trivially, as a packed
    /// bitset — one OR per 64 qubits per string.
    pub fn support_mask(&self) -> QubitMask {
        let mut mask = QubitMask::empty(self.n_qubits());
        for t in &self.terms {
            mask.union_with_support(&t.string);
        }
        mask
    }

    /// Qubits on which at least one string acts non-trivially, ascending.
    pub fn union_support(&self) -> Vec<usize> {
        self.support_mask().to_vec()
    }

    /// The paper's *active length*: the number of non-identity Pauli
    /// operators of the block (union over strings).
    pub fn active_length(&self) -> usize {
        self.support_mask().count()
    }

    /// Total weight (sum of string weights).
    pub fn total_weight(&self) -> usize {
        self.terms.iter().map(|t| t.string.weight()).sum()
    }

    /// Logical CNOT count of the naive chain synthesis of this block —
    /// `Σ 2·(w−1)` over its strings with weight `w ≥ 1`.
    pub fn naive_cnot_count(&self) -> usize {
        self.terms
            .iter()
            .map(|t| 2 * t.string.weight().saturating_sub(1))
            .sum()
    }
}

/// Greedy similarity chaining of a block's strings (Paulihedral's
/// lexicographic-style intra-block ordering): start from the first term,
/// repeatedly append the remaining string sharing the most non-identity
/// operators with the current one (ties toward the earlier position).
///
/// The selection loop runs over an index array with the word-parallel
/// [`PauliString::common_weight`] kernel — terms are cloned once into the
/// final order instead of being shifted through a working vector on every
/// extraction.
pub fn greedy_similarity_order(block: &PauliBlock) -> PauliBlock {
    if block.terms.len() <= 2 {
        return block.clone();
    }
    let terms = &block.terms;
    let mut remaining: Vec<usize> = (1..terms.len()).collect();
    let mut order = Vec::with_capacity(terms.len());
    order.push(0usize);
    let mut cur = 0usize;
    while !remaining.is_empty() {
        let cur_string = &terms[cur].string;
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(p, &i)| {
                (
                    cur_string.common_weight(&terms[i].string),
                    std::cmp::Reverse(p),
                )
            })
            .expect("remaining non-empty");
        cur = remaining.remove(pos);
        order.push(cur);
    }
    PauliBlock::new(
        order.into_iter().map(|i| terms[i].clone()).collect(),
        block.angle,
        block.label.clone(),
    )
}

impl fmt::Display for PauliBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {{", self.label)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {:+.3})", t.string, t.coeff)?;
        }
        write!(f, "}} θ={}", self.angle)
    }
}

/// A Hamiltonian expressed as an ordered list of Pauli blocks — the
/// Paulihedral-style IR the paper starts from (Fig. 6a).
#[derive(Debug, Clone, PartialEq)]
pub struct Hamiltonian {
    /// Register width.
    pub n_qubits: usize,
    /// The blocks, in ansatz-construction order.
    pub blocks: Vec<PauliBlock>,
    /// Workload name (e.g. `LiH-JW`).
    pub name: String,
}

impl Hamiltonian {
    /// Builds a Hamiltonian, asserting block widths match.
    ///
    /// # Panics
    /// Panics if any block acts on a different register width.
    pub fn new(n_qubits: usize, blocks: Vec<PauliBlock>, name: impl Into<String>) -> Self {
        assert!(
            blocks.iter().all(|b| b.n_qubits() == n_qubits),
            "all blocks must act on the same register"
        );
        Hamiltonian {
            n_qubits,
            blocks,
            name: name.into(),
        }
    }

    /// Total number of Pauli strings across blocks (Table I "#Pauli").
    pub fn pauli_string_count(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Logical CNOT count of the naive chain synthesis — `Σ 2·(w−1)` over all
    /// strings with weight `w ≥ 1` (Table I "#CNOT").
    pub fn naive_cnot_count(&self) -> usize {
        self.blocks.iter().map(PauliBlock::naive_cnot_count).sum()
    }

    /// Iterator over every term of every block.
    pub fn terms(&self) -> impl Iterator<Item = &PauliTerm> {
        self.blocks.iter().flat_map(|b| b.terms.iter())
    }

    /// A stable 64-bit content fingerprint, equal to the fingerprint of the
    /// lowered [`crate::ir::TetrisIr`] (lowering is deterministic and adds
    /// only derived annotations). Workload name and block labels are
    /// excluded; everything compilation depends on — width, block order,
    /// angles, coefficients, operator strings — is covered.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fingerprint64::new();
        h.write_bytes(b"tetris-ir/v1");
        crate::ir::hash_semantic_content(&mut h, self.n_qubits, self.blocks.iter());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::PauliOp;

    fn block(strings: &[&str]) -> PauliBlock {
        PauliBlock::new(
            strings
                .iter()
                .map(|s| PauliTerm::new(s.parse().unwrap(), 1.0))
                .collect(),
            0.5,
            "test",
        )
    }

    #[test]
    fn union_support_and_active_length() {
        let b = block(&["XYZZI", "YXZZI"]);
        assert_eq!(b.union_support(), vec![0, 1, 2, 3]);
        assert_eq!(b.active_length(), 4);
        assert_eq!(b.len(), 2);
        assert_eq!(b.total_weight(), 8);
    }

    #[test]
    #[should_panic(expected = "same register")]
    fn mismatched_block_panics() {
        let _ = PauliBlock::new(
            vec![
                PauliTerm::new("XY".parse().unwrap(), 1.0),
                PauliTerm::new("XYZ".parse().unwrap(), 1.0),
            ],
            0.0,
            "bad",
        );
    }

    #[test]
    fn hamiltonian_counts() {
        let h = Hamiltonian::new(
            5,
            vec![block(&["XYZZI", "YXZZI"]), block(&["IIZZI"])],
            "toy",
        );
        assert_eq!(h.pauli_string_count(), 3);
        // 2·3 + 2·3 + 2·1
        assert_eq!(h.naive_cnot_count(), 14);
        assert_eq!(h.terms().count(), 3);
    }

    #[test]
    fn sparse_block_support() {
        let b = PauliBlock::new(
            vec![PauliTerm::new(
                PauliString::from_sparse(6, &[(2, PauliOp::Z), (5, PauliOp::Z)]),
                1.0,
            )],
            1.0,
            "edge",
        );
        assert_eq!(b.union_support(), vec![2, 5]);
    }
}

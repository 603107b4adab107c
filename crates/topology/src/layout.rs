//! The logical↔physical qubit mapping `π`, updated as SWAPs are inserted.

use crate::graph::CouplingGraph;
use std::collections::VecDeque;
use std::fmt;

/// A (partial) bijection between logical qubits and physical qubits.
///
/// Physical qubits without a logical occupant are *free*: they hold `|0>` and
/// are the ancillas the paper's fast-bridging method rides through (§IV-C).
///
/// ```
/// use tetris_topology::Layout;
/// let mut l = Layout::trivial(2, 4);
/// l.swap_phys(1, 3);            // a routing SWAP
/// assert_eq!(l.phys_of(1), Some(3));
/// assert_eq!(l.logical_at(1), None); // physical 1 is now free
/// assert!(l.is_free(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    log2phys: Vec<Option<usize>>,
    phys2log: Vec<Option<usize>>,
}

impl Layout {
    /// The identity layout: logical `q` on physical `q`.
    ///
    /// # Panics
    /// Panics if there are more logical than physical qubits.
    pub fn trivial(n_logical: usize, n_physical: usize) -> Self {
        assert!(
            n_logical <= n_physical,
            "cannot place {n_logical} logical qubits on {n_physical} physical"
        );
        let mut phys2log = vec![None; n_physical];
        for (q, slot) in phys2log.iter_mut().enumerate().take(n_logical) {
            *slot = Some(q);
        }
        Layout {
            log2phys: (0..n_logical).map(Some).collect(),
            phys2log,
        }
    }

    /// A *packed* layout: the `n_logical` qubits are placed on a
    /// BFS-contiguous region around the device's most central node
    /// (minimum total distance). Compact regions shorten early routing
    /// paths compared to the trivial index layout, especially on devices
    /// whose low indices form a long line (heavy-hex rows).
    ///
    /// # Panics
    /// Panics if the device cannot host `n_logical` qubits in one
    /// connected component.
    pub fn packed(n_logical: usize, graph: &CouplingGraph) -> Self {
        assert!(n_logical <= graph.n_qubits());
        let n = graph.n_qubits();
        let center = (0..n)
            .min_by_key(|&c| {
                // One row fetch per candidate, not one dist() per pair.
                let cost: u64 = graph.dist_row(c).iter().map(|&d| d as u64).sum();
                (cost, c)
            })
            .expect("non-empty graph");
        let mut order = Vec::with_capacity(n_logical);
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[center] = true;
        queue.push_back(center);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            if order.len() == n_logical {
                return Layout::from_assignment(&order, n);
            }
            for v in graph.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        panic!("device component too small for {n_logical} qubits");
    }

    /// Builds a layout from an explicit assignment `logical q → phys[q]`.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-range physical indices.
    pub fn from_assignment(assignment: &[usize], n_physical: usize) -> Self {
        let mut phys2log = vec![None; n_physical];
        for (q, &p) in assignment.iter().enumerate() {
            assert!(p < n_physical, "physical index {p} out of range");
            assert!(phys2log[p].is_none(), "physical {p} assigned twice");
            phys2log[p] = Some(q);
        }
        Layout {
            log2phys: assignment.iter().copied().map(Some).collect(),
            phys2log,
        }
    }

    /// Builds a possibly-partial layout from `logical q → assignment[q]`,
    /// where `None` leaves the logical qubit unplaced (the engine's disk
    /// codec round-trips layouts through this).
    ///
    /// # Panics
    /// Panics on duplicate or out-of-range physical indices.
    pub fn from_partial_assignment(assignment: &[Option<usize>], n_physical: usize) -> Self {
        let mut phys2log = vec![None; n_physical];
        for (q, &p) in assignment.iter().enumerate() {
            if let Some(p) = p {
                assert!(p < n_physical, "physical index {p} out of range");
                assert!(phys2log[p].is_none(), "physical {p} assigned twice");
                phys2log[p] = Some(q);
            }
        }
        Layout {
            log2phys: assignment.to_vec(),
            phys2log,
        }
    }

    /// Number of logical qubits.
    pub fn n_logical(&self) -> usize {
        self.log2phys.len()
    }

    /// Number of physical qubits.
    pub fn n_physical(&self) -> usize {
        self.phys2log.len()
    }

    /// Physical position of logical `q` (`None` if unplaced).
    #[inline]
    pub fn phys_of(&self, q: usize) -> Option<usize> {
        self.log2phys.get(q).copied().flatten()
    }

    /// Logical occupant of physical `p` (`None` if free).
    #[inline]
    pub fn logical_at(&self, p: usize) -> Option<usize> {
        self.phys2log.get(p).copied().flatten()
    }

    /// Whether physical `p` hosts no logical qubit (a `|0>` ancilla usable
    /// as a bridge).
    #[inline]
    pub fn is_free(&self, p: usize) -> bool {
        self.phys2log[p].is_none()
    }

    /// Applies a SWAP between physical positions `a` and `b` (either may be
    /// free).
    ///
    /// # Panics
    /// Panics if `a == b` or out of range.
    pub fn swap_phys(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "swap of a qubit with itself");
        let la = self.phys2log[a];
        let lb = self.phys2log[b];
        self.phys2log[a] = lb;
        self.phys2log[b] = la;
        if let Some(q) = la {
            self.log2phys[q] = Some(b);
        }
        if let Some(q) = lb {
            self.log2phys[q] = Some(a);
        }
    }

    /// The permutation as a vector `logical → physical`.
    ///
    /// # Panics
    /// Panics if some logical qubit is unplaced.
    pub fn as_assignment(&self) -> Vec<usize> {
        self.log2phys
            .iter()
            .map(|p| p.expect("logical qubit unplaced"))
            .collect()
    }

    /// Lifts a layout expressed in a region's *local* physical index space
    /// onto the region's device: logical `q` at local physical `p` moves to
    /// global physical [`to_global(p)`](crate::Region::to_global), and the
    /// physical space widens to the full device. Free device qubits outside
    /// the region stay free — this is how a compile against an induced
    /// subgraph ([`CouplingGraph::induced`]) re-enters global coordinates.
    ///
    /// # Panics
    /// Panics if the layout's physical width is not the region's size.
    pub fn offset_into(&self, region: &crate::Region) -> Layout {
        assert_eq!(
            self.n_physical(),
            region.len(),
            "layout lives on a different index space than the region"
        );
        let assignment: Vec<Option<usize>> = (0..self.n_logical())
            .map(|q| self.phys_of(q).map(|p| region.to_global(p)))
            .collect();
        Layout::from_partial_assignment(&assignment, region.device_qubits())
    }

    /// Checks internal bijection consistency (used by debug assertions and
    /// property tests).
    pub fn is_consistent(&self) -> bool {
        self.log2phys.iter().enumerate().all(|(q, &p)| match p {
            Some(p) => self.phys2log.get(p) == Some(&Some(q)),
            None => true,
        }) && self.phys2log.iter().enumerate().all(|(p, &q)| match q {
            Some(q) => self.log2phys.get(q) == Some(&Some(p)),
            None => true,
        })
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π{{")?;
        for (q, p) in self.log2phys.iter().enumerate() {
            if q > 0 {
                write!(f, ", ")?;
            }
            match p {
                Some(p) => write!(f, "q{q}→Q{p}")?,
                None => write!(f, "q{q}→∅")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_is_identity() {
        let l = Layout::trivial(3, 5);
        for q in 0..3 {
            assert_eq!(l.phys_of(q), Some(q));
            assert_eq!(l.logical_at(q), Some(q));
        }
        assert!(l.is_free(3) && l.is_free(4));
        assert!(l.is_consistent());
    }

    #[test]
    fn swaps_maintain_bijection() {
        let mut l = Layout::trivial(3, 5);
        l.swap_phys(0, 4); // move q0 to free Q4
        assert_eq!(l.phys_of(0), Some(4));
        assert!(l.is_free(0));
        l.swap_phys(4, 1); // swap two occupied
        assert_eq!(l.phys_of(0), Some(1));
        assert_eq!(l.phys_of(1), Some(4));
        assert!(l.is_consistent());
    }

    #[test]
    fn packed_layout_is_contiguous() {
        let g = CouplingGraph::heavy_hex_65();
        let l = Layout::packed(12, &g);
        assert!(l.is_consistent());
        // Every placed qubit has a placed neighbor (single BFS region).
        for q in 0..12 {
            let p = l.phys_of(q).unwrap();
            assert!(
                q == 0 || g.neighbors(p).any(|m| l.logical_at(m).is_some()),
                "qubit {q} isolated"
            );
        }
        // Packed beats trivial on total pairwise distance.
        let trivial = Layout::trivial(12, 65);
        let spread = |l: &Layout| -> u64 {
            let mut s = 0;
            for a in 0..12 {
                for b in 0..12 {
                    s += g.dist(l.phys_of(a).unwrap(), l.phys_of(b).unwrap()) as u64;
                }
            }
            s
        };
        assert!(spread(&l) < spread(&trivial));
    }

    #[test]
    fn from_partial_assignment_allows_unplaced() {
        let l = Layout::from_partial_assignment(&[Some(2), None, Some(0)], 4);
        assert_eq!(l.phys_of(0), Some(2));
        assert_eq!(l.phys_of(1), None);
        assert_eq!(l.phys_of(2), Some(0));
        assert_eq!(l.logical_at(2), Some(0));
        assert!(l.is_free(1) && l.is_free(3));
        assert!(l.is_consistent());
    }

    #[test]
    fn from_assignment_round_trip() {
        let l = Layout::from_assignment(&[2, 0, 3], 4);
        assert_eq!(l.as_assignment(), vec![2, 0, 3]);
        assert_eq!(l.logical_at(3), Some(2));
        assert!(l.is_free(1));
        assert!(l.is_consistent());
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_assignment_panics() {
        let _ = Layout::from_assignment(&[1, 1], 3);
    }

    #[test]
    fn offset_into_lifts_local_layouts_to_global_coordinates() {
        use crate::Region;
        // Region {3, 5, 9} of a 12-qubit device: locals 0,1,2.
        let region = Region::new(12, [9, 3, 5]);
        // Local layout: q0→local2, q1→local0 (local1 free).
        let local = Layout::from_assignment(&[2, 0], 3);
        let global = local.offset_into(&region);
        assert_eq!(global.n_physical(), 12);
        assert_eq!(global.phys_of(0), Some(9));
        assert_eq!(global.phys_of(1), Some(3));
        assert_eq!(global.logical_at(5), None, "local free stays free");
        assert!(global.is_free(0) && global.is_free(11));
        assert!(global.is_consistent());
        // Partial local layouts stay partial.
        let partial = Layout::from_partial_assignment(&[None, Some(1)], 3);
        let lifted = partial.offset_into(&region);
        assert_eq!(lifted.phys_of(0), None);
        assert_eq!(lifted.phys_of(1), Some(5));
    }
}

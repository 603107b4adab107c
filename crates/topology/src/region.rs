//! Connected sub-device regions — the unit of multi-workload sharding.
//!
//! A [`Region`] names a subset of a device's physical qubits (backed by a
//! packed [`QubitMask`]) together with stable local↔global index maps: the
//! region's qubits, taken in ascending global order, form a *local* index
//! space `0..len` that the induced subgraph
//! ([`crate::CouplingGraph::induced`]) and local layouts
//! ([`crate::Layout::offset_into`]) are expressed in. Because the local
//! order is canonical (ascending global index), the same member set always
//! yields the same maps — compile results on a region are reproducible and
//! content-addressable.

use std::fmt;
use tetris_pauli::fingerprint::Fingerprint64;
use tetris_pauli::mask::QubitMask;

/// A set of physical qubits carved out of one device, with canonical
/// local↔global index maps.
///
/// ```
/// use tetris_topology::{CouplingGraph, Region};
/// let g = CouplingGraph::line(8);
/// let r = Region::new(8, [5, 2, 3]);
/// assert_eq!(r.len(), 3);
/// assert_eq!(r.to_global(0), 2);      // locals follow ascending global order
/// assert_eq!(r.to_local(5), Some(2));
/// assert_eq!(r.to_local(7), None);
/// assert!(r.mask().contains(3));
/// let sub = g.induced(&r);
/// assert_eq!(sub.n_qubits(), 3);
/// assert!(sub.are_adjacent(0, 1));    // global 2–3
/// assert!(!sub.are_adjacent(1, 2));   // global 3–5 are not coupled
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Membership over the device's physical index space.
    mask: QubitMask,
    /// Members in ascending global order — `globals[local] == global`.
    globals: Vec<usize>,
}

impl Region {
    /// Builds a region on a `device_qubits`-wide device from member
    /// indices (order-insensitive, duplicates collapse).
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn new(device_qubits: usize, members: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = QubitMask::empty(device_qubits);
        for q in members {
            assert!(q < device_qubits, "region member {q} out of device range");
            mask.insert(q);
        }
        Region::from_mask(mask)
    }

    /// Builds a region from a membership mask over the device index space.
    pub fn from_mask(mask: QubitMask) -> Self {
        let globals = mask.to_vec();
        Region { mask, globals }
    }

    /// Number of qubits in the region.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Width of the device the region is carved from.
    pub fn device_qubits(&self) -> usize {
        self.mask.n_qubits()
    }

    /// The membership mask over the device index space.
    pub fn mask(&self) -> &QubitMask {
        &self.mask
    }

    /// The global physical index of local qubit `local`.
    ///
    /// # Panics
    /// Panics if `local ≥ len()`.
    #[inline]
    pub fn to_global(&self, local: usize) -> usize {
        self.globals[local]
    }

    /// The local index of global physical qubit `global`, or `None` if it
    /// is not a member.
    #[inline]
    pub fn to_local(&self, global: usize) -> Option<usize> {
        self.globals.binary_search(&global).ok()
    }

    /// Members in ascending global order (the local index order).
    pub fn iter_globals(&self) -> impl Iterator<Item = usize> + '_ {
        self.globals.iter().copied()
    }

    /// Whether this region shares no qubit with `other`.
    pub fn is_disjoint_from(&self, other: &Region) -> bool {
        self.mask.is_disjoint_from(&other.mask)
    }

    /// A stable 64-bit content fingerprint of the region: the device width
    /// plus the member set. Combined with the device fingerprint this keys
    /// region compilation results so they can never collide with
    /// whole-chip results of the same workload.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint64::new();
        h.write_bytes(b"tetris-region/v1");
        h.write_u64(self.device_qubits() as u64);
        for &g in &self.globals {
            h.write_u64(g as u64);
        }
        h.finish()
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region[{}/{}]{{", self.len(), self.device_qubits())?;
        for (i, g) in self.globals.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_are_canonical_ascending() {
        let r = Region::new(10, [7, 1, 4, 4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.to_global(0), 1);
        assert_eq!(r.to_global(1), 4);
        assert_eq!(r.to_global(2), 7);
        assert_eq!(r.to_local(4), Some(1));
        assert_eq!(r.to_local(0), None);
        // Round trip both directions.
        for l in 0..r.len() {
            assert_eq!(r.to_local(r.to_global(l)), Some(l));
        }
    }

    #[test]
    fn disjointness_and_fingerprints() {
        let a = Region::new(12, [0, 1, 2]);
        let b = Region::new(12, [3, 4]);
        let c = Region::new(12, [2, 3]);
        assert!(a.is_disjoint_from(&b));
        assert!(!a.is_disjoint_from(&c));
        // Same members, different construction order → same fingerprint.
        assert_eq!(Region::new(12, [2, 0, 1]).fingerprint(), a.fingerprint());
        // Different member set or device width → different fingerprint.
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), Region::new(13, [0, 1, 2]).fingerprint());
    }

    #[test]
    #[should_panic(expected = "out of device range")]
    fn out_of_range_member_panics() {
        let _ = Region::new(4, [4]);
    }
}

//! Qubit clustering: `findCenter` and SWAP-based gathering (Algorithm 1,
//! lines 4–8).
//!
//! These primitives are shared by the Tetris root-tree construction, by the
//! per-string fallback path, and by the Paulihedral-like baseline (which
//! gathers a block's *entire* support this way — the paper's §III
//! "connected component" growth).
//!
//! All qubit sets here are packed [`QubitMask`]s: the gather loop's
//! member/frontier tracking, the BFS walls and the `findCenter` candidate
//! scan run on word-parallel set operations; `Vec<usize>` appears only in
//! BFS path reconstruction, where order is the payload. Each gather reuses
//! one [`BfsField`], refilled in place for every qubit it routes.

use crate::config::TreeBias;
use crate::tree::{NodeKind, SynthesisTree};
use tetris_circuit::{Circuit, Gate};
use tetris_pauli::mask::QubitMask;
use tetris_topology::{CouplingGraph, Layout};

/// A BFS over the coupling graph that treats `blocked` nodes as walls
/// (start is always allowed). One field is refilled in place per search
/// ([`fill`](BfsField::fill)), so a loop of searches allocates its buffers
/// once.
#[derive(Debug, Clone, Default)]
pub struct BfsField {
    /// Distance from the start per physical node (`u32::MAX` = unreachable).
    pub dist: Vec<u32>,
    /// BFS predecessor per node (`usize::MAX` for start/unreachable).
    pub prev: Vec<usize>,
    /// The FIFO, as a vector read from the front (each node enters once).
    queue: Vec<usize>,
}

impl BfsField {
    /// Refills the field with a BFS from `start` that never enters nodes in
    /// the `blocked` set (start is always allowed).
    pub fn fill(&mut self, graph: &CouplingGraph, start: usize, blocked: &QubitMask) {
        let n = graph.n_qubits();
        self.dist.clear();
        self.dist.resize(n, u32::MAX);
        self.prev.clear();
        self.prev.resize(n, usize::MAX);
        self.queue.clear();
        self.dist[start] = 0;
        self.queue.push(start);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for v in graph.neighbors(u) {
                if self.dist[v] == u32::MAX && !blocked.contains(v) {
                    self.dist[v] = self.dist[u] + 1;
                    self.prev[v] = u;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Reconstructs the path from the BFS start to `target` (inclusive).
    ///
    /// # Panics
    /// Panics if `target` is unreachable.
    pub fn path_to(&self, target: usize) -> Vec<usize> {
        assert!(self.dist[target] != u32::MAX, "target unreachable");
        let mut path = vec![target];
        let mut cur = target;
        while self.prev[cur] != usize::MAX {
            cur = self.prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }
}

/// Moves the occupant of `path[0]` to `path.last()` by SWAPping along the
/// path, emitting the SWAPs and updating the layout.
pub fn swap_along(layout: &mut Layout, out: &mut Circuit, path: &[usize]) {
    for w in path.windows(2) {
        out.push(Gate::Swap(w[0], w[1]));
        layout.swap_phys(w[0], w[1]);
    }
}

/// The paper's `findCenter`: the physical node minimizing the total distance
/// to the current positions of the `qubits` set. Ties prefer nodes already
/// hosting one of the qubits, then lower indices (deterministic).
///
/// # Panics
/// Panics if `qubits` is empty or one of them is unplaced.
pub fn find_center(graph: &CouplingGraph, layout: &Layout, qubits: &QubitMask) -> usize {
    assert!(!qubits.is_empty(), "findCenter of an empty set");
    let mut positions = QubitMask::empty(graph.n_qubits());
    for q in qubits.iter() {
        positions.insert(layout.phys_of(q).expect("qubit placed"));
    }
    // One lazily-cached distance row per *position* (|positions| rows, not
    // one per candidate center): distances are symmetric, so dist(c, p) is
    // read as rows[p][c]. Bit-identical to the per-candidate sum.
    let rows: Vec<&[u32]> = positions.iter().map(|p| graph.dist_row(p)).collect();
    (0..graph.n_qubits())
        .min_by_key(|&c| {
            let cost: u64 = rows.iter().map(|r| r[c] as u64).sum();
            (cost, !positions.contains(c), c)
        })
        .expect("non-empty graph")
}

/// Gathers the `qubits` set into a contiguous cluster around `center`
/// (Algorithm 1 lines 4–8 generalized): qubits are routed one at a time,
/// nearest first; each lands on a free-of-cluster node adjacent to the
/// growing cluster and records that neighbor as its tree parent.
///
/// Emits SWAPs into `out`, updates `layout`, and inserts every cluster node
/// into `placed`. Returns the cluster tree rooted at `center`.
///
/// # Panics
/// Panics if `qubits` is empty, or if the graph is too fragmented to host
/// the cluster (cannot happen on a connected graph).
pub fn gather_cluster(
    graph: &CouplingGraph,
    layout: &mut Layout,
    out: &mut Circuit,
    qubits: &QubitMask,
    center: usize,
    placed: &mut QubitMask,
    bias: TreeBias,
) -> SynthesisTree {
    assert!(!qubits.is_empty(), "cannot gather an empty set");
    let mut remaining = qubits.clone();
    // The qubit closest to the center becomes the root occupant.
    let first = remaining
        .iter()
        .min_by_key(|&q| {
            (
                graph.dist(center, layout.phys_of(q).expect("qubit placed")),
                q,
            )
        })
        .expect("non-empty set");
    remaining.remove(first);
    let p_first = layout.phys_of(first).expect("qubit placed");
    if p_first != center {
        let path = graph
            .shortest_path(p_first, center)
            .expect("connected coupling graph");
        swap_along(layout, out, &path);
    }
    let mut tree = SynthesisTree::root_only(center, first);
    placed.insert(center);
    // Cluster membership and node depths, tracked incrementally — the
    // inner loops below probe these instead of re-deriving `tree.nodes()`
    // / `tree.depths()` per attachment.
    let mut cluster = QubitMask::empty(graph.n_qubits());
    cluster.insert(center);
    let mut depth = vec![u32::MAX; graph.n_qubits()];
    depth[center] = 0;
    let mut field = BfsField::default();

    while !remaining.is_empty() {
        // Nearest-to-cluster first (free distances are a fine ordering
        // heuristic; exact avoidance happens in the BFS below).
        let q = remaining
            .iter()
            .min_by_key(|&q| {
                let p = layout.phys_of(q).expect("qubit placed");
                let d = cluster
                    .iter()
                    .map(|m| graph.dist(p, m))
                    .min()
                    .unwrap_or(u32::MAX);
                (d, q)
            })
            .expect("remaining is non-empty");
        remaining.remove(q);
        let start = layout.phys_of(q).expect("qubit placed");

        field.fill(graph, start, placed);
        // Attach at the reachable node (possibly `start` itself) that is
        // adjacent to the cluster, minimizing travel distance.
        let attach = (0..graph.n_qubits())
            .filter(|&node| field.dist[node] != u32::MAX && !placed.contains(node))
            .filter(|&node| graph.neighbors(node).any(|m| placed.contains(m)))
            .min_by_key(|&node| (field.dist[node], node))
            .expect("a connected graph always exposes a cluster-adjacent node");
        // Parent choice is the tree-shape knob: chain-shaped trees (deepest
        // parent) maximize cancellation — an edge cancels between
        // consecutive strings iff both endpoint operators are unchanged,
        // and deep edges avoid the frequently-changing center (which also
        // carries the Rz). Balanced (shallowest parent) trades cancellation
        // for depth; see the ablation bench.
        let parent = graph
            .neighbors(attach)
            .filter(|&m| placed.contains(m))
            .max_by_key(|&m| {
                let d = if depth[m] == u32::MAX { 0 } else { depth[m] };
                let key = match bias {
                    TreeBias::Chain => d as i64,
                    TreeBias::Balanced => -(d as i64),
                };
                (key, std::cmp::Reverse(m))
            })
            .expect("attach node borders the cluster");
        swap_along(layout, out, &field.path_to(attach));
        tree.add_edge(attach, parent, NodeKind::Data(q));
        placed.insert(attach);
        cluster.insert(attach);
        depth[attach] = depth[parent] + 1;
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_of_a_line_spread() {
        let g = CouplingGraph::line(7);
        let l = Layout::trivial(7, 7);
        // Qubits at 0 and 6: any middle node minimizes; tie-break picks 3?
        // cost is equal (6) for all of 0..=6 — hosting nodes win: 0.
        assert_eq!(find_center(&g, &l, &QubitMask::from_indices(7, &[0, 6])), 0);
        // Qubits at 2,3,4 → 3 hosts and minimizes.
        assert_eq!(
            find_center(&g, &l, &QubitMask::from_indices(7, &[2, 3, 4])),
            3
        );
    }

    #[test]
    fn gather_contiguous_cluster() {
        let g = CouplingGraph::line(8);
        let mut l = Layout::trivial(8, 8);
        let mut c = Circuit::new(8);
        let mut placed = QubitMask::empty(8);
        let tree = gather_cluster(
            &g,
            &mut l,
            &mut c,
            &QubitMask::from_indices(8, &[0, 3, 7]),
            3,
            &mut placed,
            TreeBias::Chain,
        );
        assert!(tree.validate(|a, b| g.are_adjacent(a, b)));
        assert_eq!(tree.root, 3);
        // All three qubits sit on contiguous nodes around 3.
        let nodes = tree.nodes();
        assert_eq!(nodes.len(), 3);
        for (pos, q) in tree.data_nodes() {
            assert_eq!(l.phys_of(q), Some(pos));
        }
        assert!(l.is_consistent());
        // Moving 0→adjacent-of-3 and 7→adjacent-of-3 costs swaps.
        assert!(c.swap_count() >= 4);
    }

    #[test]
    fn gather_when_already_clustered_is_free() {
        let g = CouplingGraph::line(6);
        let mut l = Layout::trivial(6, 6);
        let mut c = Circuit::new(6);
        let mut placed = QubitMask::empty(6);
        let tree = gather_cluster(
            &g,
            &mut l,
            &mut c,
            &QubitMask::from_indices(6, &[1, 2, 3]),
            2,
            &mut placed,
            TreeBias::Chain,
        );
        assert_eq!(c.swap_count(), 0);
        assert_eq!(tree.edges.len(), 2);
    }

    #[test]
    fn bfs_respects_walls() {
        let g = CouplingGraph::ring(6);
        let blocked = QubitMask::from_indices(6, &[1]);
        let mut f = BfsField::default();
        f.fill(&g, 0, &blocked);
        assert_eq!(f.dist[2], 4); // the long way around
        assert_eq!(f.path_to(2), vec![0, 5, 4, 3, 2]);
        assert_eq!(f.dist[1], u32::MAX);
        // A refill forgets the previous walls and start.
        f.fill(&g, 3, &QubitMask::empty(6));
        assert_eq!(f.dist[0], 3);
        assert_eq!(f.path_to(1), vec![3, 2, 1]);
    }

    #[test]
    fn gather_on_heavy_hex_stays_valid() {
        let g = CouplingGraph::heavy_hex_65();
        let mut l = Layout::trivial(30, 65);
        let mut c = Circuit::new(65);
        let mut placed = QubitMask::empty(65);
        let qubits: Vec<usize> = (0..12).collect();
        let qubits = QubitMask::from_indices(30, &qubits);
        let center = find_center(&g, &l, &qubits);
        let tree = gather_cluster(
            &g,
            &mut l,
            &mut c,
            &qubits,
            center,
            &mut placed,
            TreeBias::Chain,
        );
        assert!(tree.validate(|a, b| g.are_adjacent(a, b)));
        assert_eq!(tree.nodes().len(), 12);
        assert!(l.is_consistent());
        assert!(c.is_hardware_compliant(&g));
    }
}

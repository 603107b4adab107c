//! Undirected coupling graphs in CSR form with lazily-cached distance rows.
//!
//! Adjacency is a flat CSR pair (`first_out`/`head`, plus a parallel
//! `weight` array) instead of per-node `Vec`s, and the old eager O(V²)
//! all-pairs BFS matrix is gone: the first `dist(u, _)` query runs one
//! single-source pass (BFS on unit-weight graphs, decrease-key Dijkstra on
//! weighted ones) and memoizes the row in a per-node [`OnceLock`] slot.
//! Reads of a cached row are lock-free, and concurrent pool workers that
//! race on the same uncomputed row deduplicate to a single pass. Building a
//! 4096-qubit device therefore allocates O(V + E), not O(V²).
//!
//! Edge weights come from a [`CalibrationMap`](crate::CalibrationMap)
//! (per-edge error rates quantized to integer weights), which makes
//! `dist`-based cost functions — SABRE scoring, `shortest_path_avoiding` —
//! fidelity-aware with no changes at the call sites.

use crate::region::Region;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tetris_pauli::mask::QubitMask;

/// Distance marker for unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// Process-wide count of distance rows computed (cache misses).
static ROWS_COMPUTED_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of already-cached rows served via [`CouplingGraph::dist_row`].
static ROW_HITS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide row-cache counters `(rows_computed, row_hits)`, for the
/// `/metrics` exporter (`tetris_dist_rows_computed_total` /
/// `tetris_dist_row_hits_total`). Monotone over the process lifetime.
pub fn global_row_stats() -> (u64, u64) {
    (
        ROWS_COMPUTED_TOTAL.load(Ordering::Relaxed),
        ROW_HITS_TOTAL.load(Ordering::Relaxed),
    )
}

/// Per-graph row-cache counters (see [`CouplingGraph::row_stats`]).
#[derive(Debug, Default)]
struct RowStats {
    computed: AtomicU64,
    hits: AtomicU64,
}

/// An undirected hardware coupling graph.
///
/// Two-qubit gates may only act on adjacent physical qubits. Distances are
/// computed lazily per source node and cached; adjacency checks go through
/// packed per-node bitmask rows and never force a distance row.
#[derive(Debug)]
pub struct CouplingGraph {
    n: usize,
    /// CSR offsets: the out-edges of `u` are `head[first_out[u]..first_out[u+1]]`.
    first_out: Vec<u32>,
    /// CSR edge targets, ascending within each node's range.
    head: Vec<u32>,
    /// Edge weights parallel to `head` (all 1 on unit graphs).
    weight: Vec<u32>,
    /// Whether rows are computed with BFS (`from_edges`) or Dijkstra
    /// (`from_weighted_edges` — even when every weight is 1, so the
    /// Dijkstra path stays exercised by unit-weight property tests).
    unit: bool,
    name: String,
    /// Lazily-computed single-source distance rows.
    rows: Vec<OnceLock<Box<[u32]>>>,
    /// Lazily-computed hop-count rows of a weighted graph (empty on unit
    /// graphs, whose distance rows already count hops).
    hop_rows: Vec<OnceLock<Box<[u32]>>>,
    /// Lazily-computed packed adjacency rows for O(1) `are_adjacent`.
    adj_rows: Vec<OnceLock<QubitMask>>,
    stats: RowStats,
}

impl Clone for CouplingGraph {
    /// Clones the structure; row caches start empty in the clone.
    fn clone(&self) -> Self {
        CouplingGraph {
            n: self.n,
            first_out: self.first_out.clone(),
            head: self.head.clone(),
            weight: self.weight.clone(),
            unit: self.unit,
            name: self.name.clone(),
            rows: (0..self.n).map(|_| OnceLock::new()).collect(),
            hop_rows: (0..self.hop_rows.len()).map(|_| OnceLock::new()).collect(),
            adj_rows: (0..self.n).map(|_| OnceLock::new()).collect(),
            stats: RowStats::default(),
        }
    }
}

impl PartialEq for CouplingGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.first_out == other.first_out
            && self.head == other.head
            && self.weight == other.weight
            && self.unit == other.unit
            && self.name == other.name
    }
}

impl Eq for CouplingGraph {}

impl CouplingGraph {
    /// Builds a unit-weight graph from an edge list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
        name: impl Into<String>,
    ) -> Self {
        Self::build(
            n,
            edges.into_iter().map(|(u, v)| (u, v, 1)),
            name.into(),
            true,
        )
    }

    /// Builds a weighted graph from `(u, v, w)` edges. Weights must be ≥ 1
    /// (a zero-weight coupling would make "distance" meaningless as a swap
    /// cost). Distance rows use decrease-key Dijkstra even when every
    /// weight is 1.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or zero weights.
    pub fn from_weighted_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize, u32)>,
        name: impl Into<String>,
    ) -> Self {
        Self::build(n, edges.into_iter(), name.into(), false)
    }

    fn build(
        n: usize,
        edges: impl Iterator<Item = (usize, usize, u32)>,
        name: String,
        unit: bool,
    ) -> Self {
        // Collect per-node (neighbor, weight) pairs, first occurrence wins,
        // then sort each node's list ascending — the canonical order every
        // downstream tie-break relies on.
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (u, v, w) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert_ne!(u, v, "self-loops are not couplings");
            assert!(w >= 1, "edge weights must be ≥ 1");
            if !adj[u].iter().any(|&(x, _)| x == v as u32) {
                adj[u].push((v as u32, w));
                adj[v].push((u as u32, w));
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        let mut first_out = Vec::with_capacity(n + 1);
        let mut head = Vec::new();
        let mut weight = Vec::new();
        first_out.push(0);
        for l in &adj {
            for &(v, w) in l {
                head.push(v);
                weight.push(w);
            }
            first_out.push(head.len() as u32);
        }
        CouplingGraph {
            n,
            first_out,
            head,
            weight,
            unit,
            name,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            hop_rows: if unit {
                Vec::new()
            } else {
                (0..n).map(|_| OnceLock::new()).collect()
            },
            adj_rows: (0..n).map(|_| OnceLock::new()).collect(),
            stats: RowStats::default(),
        }
    }

    /// Reweights this topology from a calibration map: every edge's weight
    /// becomes `1 + round(error × 1000)` (see
    /// [`CalibrationMap::edge_weight`](crate::CalibrationMap::edge_weight)),
    /// so weighted distances — and with them SABRE's cost function — prefer
    /// low-error couplings. The wiring is unchanged.
    ///
    /// # Panics
    /// Panics if the calibration map is for a different device width.
    pub fn with_calibration(&self, cal: &crate::CalibrationMap) -> CouplingGraph {
        assert_eq!(
            cal.n_qubits(),
            self.n,
            "calibration map is for a different device width"
        );
        let edges = self
            .edges()
            .into_iter()
            .map(|(u, v)| (u, v, cal.edge_weight(u, v)));
        Self::build(self.n, edges, format!("{}+cal", self.name), false)
    }

    /// Number of physical qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Device name (used in benchmark labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether all couplings carry unit weight semantics (built by
    /// [`from_edges`](CouplingGraph::from_edges); distance = hop count).
    #[inline]
    pub fn is_unit_weight(&self) -> bool {
        self.unit
    }

    #[inline]
    fn csr_range(&self, u: usize) -> std::ops::Range<usize> {
        self.first_out[u] as usize..self.first_out[u + 1] as usize
    }

    /// Neighbors of physical qubit `u`, ascending.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.head[self.csr_range(u)].iter().map(|&v| v as usize)
    }

    /// Degree of physical qubit `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.first_out[u + 1] - self.first_out[u]) as usize
    }

    /// Packed adjacency row of `u` (lazily built, then cached — O(V/64)
    /// words, never a distance-row materialization).
    pub fn adjacency_row(&self, u: usize) -> &QubitMask {
        self.adj_rows[u].get_or_init(|| {
            let mut m = QubitMask::empty(self.n);
            for v in self.neighbors(u) {
                m.insert(v);
            }
            m
        })
    }

    /// Whether `u` and `v` are coupled — an O(1) bit test against the
    /// packed adjacency row.
    #[inline]
    pub fn are_adjacent(&self, u: usize, v: usize) -> bool {
        self.adjacency_row(u).contains(v)
    }

    /// Weight of the coupling `u–v`, or `None` if not adjacent.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<u32> {
        let r = self.csr_range(u);
        self.head[r.clone()]
            .iter()
            .position(|&h| h as usize == v)
            .map(|i| self.weight[r.start + i])
    }

    /// The cached distance row of `u`, computing it on first access. Reads
    /// of an already-computed row are lock-free; concurrent first accesses
    /// deduplicate to one single-source pass.
    fn row(&self, u: usize) -> &[u32] {
        self.rows[u].get_or_init(|| {
            self.stats.computed.fetch_add(1, Ordering::Relaxed);
            ROWS_COMPUTED_TOTAL.fetch_add(1, Ordering::Relaxed);
            if self.unit {
                self.bfs_row(u)
            } else {
                self.dijkstra_row(u)
            }
        })
    }

    /// The full distance row of source `u` (`row[v] == dist(u, v)`).
    ///
    /// This is the row-granular accessor: callers that iterate many
    /// targets against one source (cluster centering, benches) should
    /// fetch the row once instead of calling [`dist`](CouplingGraph::dist)
    /// per pair. Cache hits are counted here (misses count as computed
    /// rows); the per-pair `dist` path deliberately skips counting to keep
    /// SABRE's inner loop free of shared-atomic traffic.
    pub fn dist_row(&self, u: usize) -> &[u32] {
        if let Some(r) = self.rows[u].get() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            ROW_HITS_TOTAL.fetch_add(1, Ordering::Relaxed);
            return r;
        }
        self.row(u)
    }

    /// Hop counts from `u` (`row[v]` = fewest couplings between `u` and
    /// `v`, [`UNREACHABLE`] if disconnected) — a lower bound on any walk's
    /// edge count whatever the weights. On unit graphs this is the distance
    /// row itself; weighted graphs keep a second lazily cached BFS row set,
    /// since a summed weight is no bound on hops.
    pub fn hop_row(&self, u: usize) -> &[u32] {
        if self.unit {
            self.row(u)
        } else {
            self.hop_rows[u].get_or_init(|| self.bfs_row(u))
        }
    }

    /// Per-graph row-cache counters `(rows_computed, row_hits)`.
    pub fn row_stats(&self) -> (u64, u64) {
        (
            self.stats.computed.load(Ordering::Relaxed),
            self.stats.hits.load(Ordering::Relaxed),
        )
    }

    /// Number of distance rows currently materialized.
    pub fn rows_cached(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// Approximate heap footprint in bytes: CSR arrays, row-slot tables,
    /// and whichever distance/adjacency rows have actually been computed.
    /// Right after construction this is O(V + E) — the bound the
    /// `graph_ops` bench gates against eager O(V²) regressions.
    pub fn memory_footprint(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.first_out.capacity() * size_of::<u32>()
            + self.head.capacity() * size_of::<u32>()
            + self.weight.capacity() * size_of::<u32>()
            + (self.rows.capacity() + self.hop_rows.capacity()) * size_of::<OnceLock<Box<[u32]>>>()
            + self.adj_rows.capacity() * size_of::<OnceLock<QubitMask>>();
        for r in self.rows.iter().chain(&self.hop_rows) {
            if r.get().is_some() {
                bytes += self.n * size_of::<u32>();
            }
        }
        for r in &self.adj_rows {
            if let Some(m) = r.get() {
                bytes += std::mem::size_of_val(m.words());
            }
        }
        bytes
    }

    /// Shortest-path distance between `u` and `v` (hops on unit graphs,
    /// summed edge weight on weighted ones); [`UNREACHABLE`] if
    /// disconnected.
    #[inline]
    pub fn dist(&self, u: usize, v: usize) -> u32 {
        self.row(u)[v]
    }

    fn bfs_row(&self, s: usize) -> Box<[u32]> {
        let mut row = vec![UNREACHABLE; self.n].into_boxed_slice();
        row[s] = 0;
        let mut queue = VecDeque::with_capacity(self.n.min(1024));
        queue.push_back(s as u32);
        while let Some(u) = queue.pop_front() {
            let du = row[u as usize];
            for i in self.csr_range(u as usize) {
                let v = self.head[i];
                if row[v as usize] == UNREACHABLE {
                    row[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        row
    }

    /// One-to-many Dijkstra over the CSR arrays with a decrease-key heap:
    /// every node starts in the heap at [`UNREACHABLE`], relaxations
    /// decrease keys in place, and the pass stops early once the popped
    /// minimum is [`UNREACHABLE`] (everything left is disconnected).
    fn dijkstra_row(&self, s: usize) -> Box<[u32]> {
        let mut row = vec![UNREACHABLE; self.n].into_boxed_slice();
        let mut heap = DecreaseKeyHeap::new(self.n);
        heap.decrease(s as u32, 0);
        while let Some((u, du)) = heap.pop_min() {
            if du == UNREACHABLE {
                break;
            }
            row[u as usize] = du;
            for i in self.csr_range(u as usize) {
                let v = self.head[i];
                // No overflow: du ≤ Σ weights ≤ n · 1001 ≪ u32::MAX.
                let nd = du + self.weight[i];
                if heap.contains(v) && nd < heap.key(v) {
                    heap.decrease(v, nd);
                }
            }
        }
        row
    }

    /// A stable 64-bit content fingerprint of the topology — the device
    /// half of the compilation engine's cache key.
    ///
    /// Covers the qubit count and the (sorted, deduplicated) edge list via
    /// FNV-1a; the device [`name`](CouplingGraph::name) is presentation-only
    /// and excluded, so two identically-wired devices hash equal regardless
    /// of label. Edge weights are absorbed only when some weight differs
    /// from 1, which keeps unweighted fingerprints — and with them every
    /// cache key and golden digest — bit-identical to the pre-weighted
    /// releases while still separating calibrated variants of one wiring.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut state = FNV_OFFSET;
        let mut absorb = |v: u64| {
            for b in v.to_le_bytes() {
                state ^= b as u64;
                state = state.wrapping_mul(FNV_PRIME);
            }
        };
        absorb(self.n as u64);
        let weighted = self.weight.iter().any(|&w| w != 1);
        // CSR adjacency is sorted at construction, so this iteration order
        // is canonical for the edge set.
        for u in 0..self.n {
            for i in self.csr_range(u) {
                let v = self.head[i] as usize;
                if u < v {
                    absorb(u as u64);
                    absorb(v as u64);
                    if weighted {
                        absorb(self.weight[i] as u64);
                    }
                }
            }
        }
        state
    }

    /// Edge list with `u < v`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.head.len() / 2);
        for u in 0..self.n {
            for v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Edge list with `u < v` and weights.
    pub fn weighted_edges(&self) -> Vec<(usize, usize, u32)> {
        let mut out = Vec::with_capacity(self.head.len() / 2);
        for u in 0..self.n {
            for i in self.csr_range(u) {
                let v = self.head[i] as usize;
                if u < v {
                    out.push((u, v, self.weight[i]));
                }
            }
        }
        out
    }

    /// A shortest path from `u` to `v` (inclusive of both), or `None` if
    /// disconnected. Ties broken toward smaller qubit indices
    /// (deterministic). Materializes only the distance row of `v`
    /// (distances are symmetric on an undirected graph).
    pub fn shortest_path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        let rv = self.row(v);
        if rv[u] == UNREACHABLE {
            return None;
        }
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            // The first (smallest-index) neighbor on some shortest path:
            // edge weight + remaining distance equals the current distance.
            let next = self
                .csr_range(cur)
                .find(|&i| {
                    let w = self.head[i] as usize;
                    rv[w] != UNREACHABLE && self.weight[i] + rv[w] == rv[cur]
                })
                .map(|i| self.head[i] as usize)
                .expect("distance decreases along a shortest path");
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// A shortest path from `u` to `v` that avoids the `blocked` predicate on
    /// interior nodes (endpoints are always allowed). Used by Algorithm 1 so
    /// routing a qubit never disturbs already-placed tree qubits. On
    /// weighted graphs "shortest" means minimum summed edge weight, so the
    /// detour is fidelity-aware.
    pub fn shortest_path_avoiding(
        &self,
        u: usize,
        v: usize,
        blocked: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        if self.unit {
            self.bfs_path_avoiding(u, v, blocked)
        } else {
            self.dijkstra_path_avoiding(u, v, blocked)
        }
    }

    fn bfs_path_avoiding(
        &self,
        u: usize,
        v: usize,
        blocked: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let mut prev = vec![usize::MAX; self.n];
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::new();
        seen[u] = true;
        queue.push_back(u);
        while let Some(x) = queue.pop_front() {
            if x == v {
                return Some(Self::unwind(&prev, u, v));
            }
            for w in self.neighbors(x) {
                if seen[w] || (w != v && blocked(w)) {
                    continue;
                }
                seen[w] = true;
                prev[w] = x;
                queue.push_back(w);
            }
        }
        None
    }

    fn dijkstra_path_avoiding(
        &self,
        u: usize,
        v: usize,
        blocked: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let mut prev = vec![usize::MAX; self.n];
        let mut heap = DecreaseKeyHeap::new(self.n);
        heap.decrease(u as u32, 0);
        while let Some((x, dx)) = heap.pop_min() {
            if dx == UNREACHABLE {
                break;
            }
            let x = x as usize;
            if x == v {
                return Some(Self::unwind(&prev, u, v));
            }
            if x != u && blocked(x) {
                // Popped but never relaxed: blocked interior nodes don't
                // extend paths. (Endpoints are always allowed.)
                continue;
            }
            for i in self.csr_range(x) {
                let w = self.head[i];
                if w as usize != v && blocked(w as usize) {
                    continue;
                }
                let nd = dx + self.weight[i];
                if heap.contains(w) && nd < heap.key(w) {
                    heap.decrease(w, nd);
                    prev[w as usize] = x;
                }
            }
        }
        None
    }

    fn unwind(prev: &[usize], u: usize, v: usize) -> Vec<usize> {
        let mut path = vec![v];
        let mut cur = v;
        while cur != u {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        self.n == 0 || self.row(0).iter().all(|&d| d != UNREACHABLE)
    }

    // ---------------------------------------------------------------------
    // Region carving — sharding one device across many small workloads
    // ---------------------------------------------------------------------

    /// Carves the device into disjoint, connected [`Region`]s of the
    /// requested `sizes` (output aligned with the input order), leaving the
    /// remaining free qubits viable for later carves. Returns `None` when
    /// no carving is found (sizes exceed the device, a size is zero, or
    /// the free space fragments).
    ///
    /// The algorithm is deterministic: regions are carved largest-first
    /// (stable on ties), each by frontier growth from a low-free-degree
    /// seed ("corner-first", which keeps the remainder compact), and a
    /// candidate region is only accepted when the remaining free
    /// components can still host every remaining size.
    pub fn carve(&self, sizes: &[usize]) -> Option<Vec<Region>> {
        self.carve_avoiding(sizes, &QubitMask::empty(self.n))
    }

    /// Like [`carve`](CouplingGraph::carve), but the qubits in `avoid` are
    /// never placed in any region — the noise-aware mode, fed from
    /// [`CalibrationMap::bad_qubits`](crate::CalibrationMap::bad_qubits) so
    /// regions route around qubits whose error rate exceeds a threshold.
    pub fn carve_avoiding(&self, sizes: &[usize], avoid: &QubitMask) -> Option<Vec<Region>> {
        let mut free = QubitMask::full(self.n);
        free.subtract(avoid);
        if sizes.is_empty() || sizes.contains(&0) || sizes.iter().sum::<usize>() > free.count() {
            return None;
        }
        // Largest-first carve order, stable over the input order.
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(sizes[i]), i));

        let mut out: Vec<Option<Region>> = vec![None; sizes.len()];
        for (k, &si) in order.iter().enumerate() {
            let remaining: Vec<usize> = order[k + 1..].iter().map(|&j| sizes[j]).collect();
            let mask = self.carve_one(sizes[si], &free, &remaining)?;
            free.subtract(&mask);
            out[si] = Some(Region::from_mask(mask));
        }
        Some(
            out.into_iter()
                .map(|r| r.expect("every slot carved"))
                .collect(),
        )
    }

    /// Grows one connected region of `size` inside `free`, trying seeds in
    /// corner-first order and accepting the first candidate that leaves the
    /// `remaining` sizes placeable.
    fn carve_one(&self, size: usize, free: &QubitMask, remaining: &[usize]) -> Option<QubitMask> {
        // Corner-first seed order: fewest free neighbors, then index.
        let mut seeds: Vec<usize> = free.iter().collect();
        seeds.sort_by_key(|&q| (self.neighbors(q).filter(|&v| free.contains(v)).count(), q));
        for &seed in &seeds {
            let Some(mask) = self.grow_region(seed, size, free) else {
                continue;
            };
            let mut rest = free.clone();
            rest.subtract(&mask);
            if Self::placeable(&self.free_component_sizes(&rest), remaining) {
                return Some(mask);
            }
        }
        None
    }

    /// Frontier growth: starting from `seed`, repeatedly absorbs the free
    /// frontier qubit with the most neighbors already inside the region
    /// (ties toward the smallest index), which keeps the region compact.
    /// `None` if the component around `seed` is smaller than `size`.
    fn grow_region(&self, seed: usize, size: usize, free: &QubitMask) -> Option<QubitMask> {
        let mut region = QubitMask::empty(self.n);
        region.insert(seed);
        while region.count() < size {
            let mut best: Option<(usize, usize)> = None; // (score, qubit)
            for q in region.iter() {
                for v in self.neighbors(q) {
                    if !free.contains(v) || region.contains(v) {
                        continue;
                    }
                    let score = self.neighbors(v).filter(|&w| region.contains(w)).count();
                    let better = match best {
                        None => true,
                        Some((bs, bq)) => score > bs || (score == bs && v < bq),
                    };
                    if better {
                        best = Some((score, v));
                    }
                }
            }
            region.insert(best?.1);
        }
        Some(region)
    }

    /// Sizes of the connected components of the free subgraph, descending.
    fn free_component_sizes(&self, free: &QubitMask) -> Vec<usize> {
        let mut unseen = free.clone();
        let mut sizes = Vec::new();
        let mut queue = VecDeque::new();
        while let Some(start) = unseen.pop_first() {
            let mut count = 1usize;
            queue.clear();
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for v in self.neighbors(u) {
                    if unseen.contains(v) {
                        unseen.remove(v);
                        count += 1;
                        queue.push_back(v);
                    }
                }
            }
            sizes.push(count);
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Whether `sizes` can be packed into components of the given sizes
    /// (best-fit decreasing — a necessary condition; the per-seed retry in
    /// [`carve_one`](CouplingGraph::carve_one) recovers from the rare
    /// connected-subdivision failure).
    fn placeable(components: &[usize], sizes: &[usize]) -> bool {
        let mut capacity = components.to_vec();
        let mut sizes = sizes.to_vec();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        for s in sizes {
            // Best fit: the smallest capacity that still holds `s`.
            match capacity.iter_mut().filter(|c| **c >= s).min_by_key(|c| **c) {
                Some(c) => *c -= s,
                None => return false,
            }
        }
        true
    }

    /// The subgraph induced by `region`, re-indexed into the region's
    /// *local* index space (local `i` is the region's `i`-th member in
    /// ascending global order — see [`Region::to_global`] /
    /// [`Region::to_local`]). The induced graph's
    /// [`fingerprint`](CouplingGraph::fingerprint) therefore depends only
    /// on the local wiring, so isomorphically-carved regions share
    /// compilation cache entries. Edge weights (and the BFS-vs-Dijkstra
    /// mode) carry over. Cost is O(region edges) — no distance rows are
    /// computed or copied.
    ///
    /// # Panics
    /// Panics if the region belongs to a different device width.
    pub fn induced(&self, region: &Region) -> CouplingGraph {
        assert_eq!(
            region.device_qubits(),
            self.n,
            "region carved from a different device"
        );
        let mut edges = Vec::new();
        for (lu, gu) in region.iter_globals().enumerate() {
            for i in self.csr_range(gu) {
                let gv = self.head[i] as usize;
                if gv > gu {
                    if let Some(lv) = region.to_local(gv) {
                        edges.push((lu, lv, self.weight[i]));
                    }
                }
            }
        }
        let name = format!("{}/r{:08x}", self.name, region.fingerprint() as u32);
        if self.unit {
            CouplingGraph::from_edges(
                region.len(),
                edges.into_iter().map(|(u, v, _)| (u, v)),
                name,
            )
        } else {
            CouplingGraph::from_weighted_edges(region.len(), edges, name)
        }
    }

    /// Whether `region`'s members form one connected component of this
    /// graph (the invariant [`carve`](CouplingGraph::carve) guarantees).
    pub fn is_region_connected(&self, region: &Region) -> bool {
        region.is_empty() || self.induced(region).is_connected()
    }

    // ---------------------------------------------------------------------
    // Device generators
    // ---------------------------------------------------------------------

    /// A line (path) of `n` qubits: `0-1-…-(n-1)`.
    pub fn line(n: usize) -> Self {
        CouplingGraph::from_edges(n, (1..n).map(|i| (i - 1, i)), format!("line-{n}"))
    }

    /// A ring of `n` qubits.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 qubits");
        let edges = (0..n).map(|i| (i, (i + 1) % n));
        CouplingGraph::from_edges(n, edges, format!("ring-{n}"))
    }

    /// A `rows × cols` rectangular grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        CouplingGraph::from_edges(rows * cols, edges, format!("grid-{rows}x{cols}"))
    }

    /// A parametric heavy-hex lattice: `rows` rows of `cols` qubits with 3
    /// bridge qubits between consecutive rows at alternating columns —
    /// the general family IBM's devices (Falcon, Hummingbird, Eagle) are
    /// drawn from. [`CouplingGraph::heavy_hex_65`] is the 5×10 instance
    /// plus the three extra bridges of the 65-qubit device.
    ///
    /// # Panics
    /// Panics unless `rows ≥ 2` and `cols ≥ 10` (the attachment columns
    /// {0,4,8}/{1,5,9} must exist).
    pub fn heavy_hex(rows: usize, cols: usize) -> Self {
        assert!(
            rows >= 2 && cols >= 10,
            "heavy-hex needs ≥ 2 rows × 10 cols"
        );
        let row_base = |r: usize| r * (cols + 3);
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols - 1 {
                edges.push((row_base(r) + c, row_base(r) + c + 1));
            }
        }
        for r in 0..rows - 1 {
            let cols_attach: [usize; 3] = if r % 2 == 0 { [0, 4, 8] } else { [1, 5, 9] };
            for (k, &c) in cols_attach.iter().enumerate() {
                let bridge = row_base(r) + cols + k;
                edges.push((row_base(r) + c, bridge));
                edges.push((bridge, row_base(r + 1) + c));
            }
        }
        let n = rows * cols + (rows - 1) * 3;
        CouplingGraph::from_edges(n, edges, format!("heavy-hex-{rows}x{cols}"))
    }

    /// IBM's 65-qubit heavy-hex device ("ithaca" in the paper §VI-A —
    /// the Manhattan/Brooklyn-class layout): four rows of 10 qubits joined
    /// by bridge qubits in the heavy-hexagon pattern.
    ///
    /// Row r (r = 0..5, odd rows are 4-qubit bridge rows):
    /// ```text
    /// 0--1--2--3--4--5--6--7--8--9
    /// |        |        |
    /// 10       11       12
    /// |        |        |
    /// 13-14-15-16-17-…         (next full row)
    /// ```
    pub fn heavy_hex_65() -> Self {
        // 5 rows of 10 qubits (indices r*13..r*13+9) and 4-qubit bridge rows
        // between them (indices r*13+10..r*13+12), total 5*10 + 4*... — the
        // actual IBM 65-qubit lattice has rows of 10 with 3 bridges between
        // consecutive rows, alternating attachment columns {0,4,8}/{2,6,10}.
        let mut edges = Vec::new();
        let rows = 5usize;
        let cols = 10usize;
        let row_base = |r: usize| r * (cols + 3);
        // Row-internal couplings.
        for r in 0..rows {
            for c in 0..cols - 1 {
                edges.push((row_base(r) + c, row_base(r) + c + 1));
            }
        }
        // Bridges between row r and r+1: 3 bridge qubits at columns
        // {0, 4, 8} for even r and {1, 5, 9} for odd r (heavy-hex
        // alternation).
        for r in 0..rows - 1 {
            let cols_attach: [usize; 3] = if r % 2 == 0 { [0, 4, 8] } else { [1, 5, 9] };
            for (k, &c) in cols_attach.iter().enumerate() {
                let bridge = row_base(r) + cols + k;
                edges.push((row_base(r) + c, bridge));
                edges.push((bridge, row_base(r + 1) + c));
            }
        }
        // Total qubits: 5 rows × 10 + 4 bridge rows × 3 = 62. IBM's device
        // has 65 — add one extra bridge per gap at column {2,7} alternating
        // … use 4 bridges in the middle two gaps to reach 65: columns
        // {0,4,8} ∪ {2} for r=1 and {1,5,9} ∪ {7} for r=2.
        let mut n = rows * cols + (rows - 1) * 3; // 62 so far
        for (r, c) in [(1usize, 3usize), (2, 6), (3, 3)] {
            let bridge = n;
            n += 1;
            edges.push((row_base(r) + c, bridge));
            edges.push((bridge, row_base(r + 1) + c));
        }
        // Re-index: bridge qubits currently occupy indices ≥ row_base(r)+10
        // inside each row block, which the construction above already
        // accounts for; the three extra bridges were appended at the end.
        CouplingGraph::from_edges(n, edges, "ibm-heavy-hex-65")
    }

    /// A 64-qubit Google-Sycamore-style coupling graph, "8 qubits in each
    /// row" (paper §VI-A): each qubit couples to the two diagonal neighbors
    /// in the next row, producing degree-4 interior connectivity.
    ///
    /// Row-major indexing, 8 rows × 8 columns; qubit `(r, c)` couples to
    /// `(r+1, c)` and `(r+1, c + (−1)^r)` when inside the grid.
    pub fn sycamore_64() -> Self {
        let rows = 8usize;
        let cols = 8usize;
        let idx = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows - 1 {
            for c in 0..cols {
                edges.push((idx(r, c), idx(r + 1, c)));
                let dc: isize = if r % 2 == 0 { -1 } else { 1 };
                let nc = c as isize + dc;
                if (0..cols as isize).contains(&nc) {
                    edges.push((idx(r, c), idx(r + 1, nc as usize)));
                }
            }
        }
        CouplingGraph::from_edges(rows * cols, edges, "sycamore-64")
    }

    /// Fully-connected graph (used to synthesize *logical* circuits with the
    /// same machinery as physical ones).
    pub fn complete(n: usize) -> Self {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        CouplingGraph::from_edges(n, edges, format!("complete-{n}"))
    }

    /// Average vertex degree — Sycamore's is markedly higher than
    /// heavy-hex's, the property driving the paper's §VI-E observations.
    pub fn average_degree(&self) -> f64 {
        self.head.len() as f64 / self.n as f64
    }
}

/// An indexed binary min-heap with decrease-key, keyed `(dist, node)` so
/// pops are deterministic under ties — the std-only port of the keyed
/// priority queue in the `parallel_qsim_rust` Dijkstra exemplar. All nodes
/// start present at [`UNREACHABLE`].
struct DecreaseKeyHeap {
    /// Heap array of node ids.
    heap: Vec<u32>,
    /// node → index in `heap`, `u32::MAX` once popped.
    pos: Vec<u32>,
    /// node → current key.
    key: Vec<u32>,
}

impl DecreaseKeyHeap {
    fn new(n: usize) -> Self {
        // All keys equal (UNREACHABLE) and identity order: parent index <
        // child index means the (key, node) heap property already holds.
        DecreaseKeyHeap {
            heap: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            key: vec![UNREACHABLE; n],
        }
    }

    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        (self.key[a as usize], a) < (self.key[b as usize], b)
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != u32::MAX
    }

    #[inline]
    fn key(&self, v: u32) -> u32 {
        self.key[v as usize]
    }

    /// Lowers `v`'s key to `k` and restores the heap property upward.
    fn decrease(&mut self, v: u32, k: u32) {
        debug_assert!(self.contains(v) && k <= self.key[v as usize]);
        self.key[v as usize] = k;
        self.sift_up(self.pos[v as usize] as usize);
    }

    /// Pops the minimum `(node, key)`, or `None` when empty.
    fn pop_min(&mut self) -> Option<(u32, u32)> {
        let min = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[min as usize] = u32::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some((min, self.key[min as usize]))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = (i - 1) / 2;
            if !self.less(self.heap[i], self.heap[p]) {
                break;
            }
            self.heap.swap(i, p);
            self.pos[self.heap[i] as usize] = i as u32;
            self.pos[self.heap[p] as usize] = p as u32;
            i = p;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut m = i;
            if l < self.heap.len() && self.less(self.heap[l], self.heap[m]) {
                m = l;
            }
            if r < self.heap.len() && self.less(self.heap[r], self.heap[m]) {
                m = r;
            }
            if m == i {
                break;
            }
            self.heap.swap(i, m);
            self.pos[self.heap[i] as usize] = i as u32;
            self.pos[self.heap[m] as usize] = m as u32;
            i = m;
        }
    }
}

impl fmt::Display for CouplingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} couplings)",
            self.name,
            self.n,
            self.head.len() / 2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances() {
        let g = CouplingGraph::line(5);
        assert_eq!(g.dist(0, 4), 4);
        assert_eq!(g.dist(2, 2), 0);
        assert!(g.are_adjacent(1, 2));
        assert!(!g.are_adjacent(0, 2));
        assert_eq!(g.shortest_path(0, 3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn grid_structure() {
        let g = CouplingGraph::grid(3, 4);
        assert_eq!(g.n_qubits(), 12);
        assert_eq!(g.dist(0, 11), 5); // manhattan distance
        assert!(g.is_connected());
        assert_eq!(g.edges().len(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn parametric_heavy_hex_family() {
        let g = CouplingGraph::heavy_hex(2, 10);
        assert_eq!(g.n_qubits(), 23); // 2×10 + 3 bridges
        assert!(g.is_connected());
        for v in 0..g.n_qubits() {
            assert!(g.degree(v) <= 3);
        }
        let big = CouplingGraph::heavy_hex(7, 12);
        assert_eq!(big.n_qubits(), 7 * 12 + 6 * 3);
        assert!(big.is_connected());
    }

    #[test]
    fn heavy_hex_is_65_and_connected() {
        let g = CouplingGraph::heavy_hex_65();
        assert_eq!(g.n_qubits(), 65);
        assert!(g.is_connected());
        // Heavy-hex: degree ≤ 3 everywhere.
        for v in 0..g.n_qubits() {
            assert!(g.degree(v) <= 3, "qubit {v} has degree > 3");
        }
        // The paper's device couples 65 qubits with 72 edges; ours is the
        // same density class (65 qubits, degree ≤ 3).
        assert!(g.edges().len() >= 68 && g.edges().len() <= 76);
    }

    #[test]
    fn sycamore_is_64_and_denser_than_heavy_hex() {
        let g = CouplingGraph::sycamore_64();
        assert_eq!(g.n_qubits(), 64);
        assert!(g.is_connected());
        let hh = CouplingGraph::heavy_hex_65();
        assert!(
            g.average_degree() > hh.average_degree() + 0.5,
            "sycamore {} vs heavy-hex {}",
            g.average_degree(),
            hh.average_degree()
        );
        for v in 0..g.n_qubits() {
            assert!(g.degree(v) <= 4);
        }
    }

    #[test]
    fn shortest_path_avoiding_blocked_nodes() {
        // ring: 0-1-2-3-4-5-0; block node 1 → path 0→2 must detour the long
        // way around.
        let g = CouplingGraph::ring(6);
        let p = g.shortest_path_avoiding(0, 2, |v| v == 1).unwrap();
        assert_eq!(p, vec![0, 5, 4, 3, 2]);
        // blocking everything disconnects.
        assert!(g
            .shortest_path_avoiding(0, 3, |v| v == 1 || v == 5)
            .is_none());
    }

    #[test]
    fn complete_graph_distance_is_one() {
        let g = CouplingGraph::complete(6);
        for u in 0..6 {
            for v in 0..6 {
                if u != v {
                    assert_eq!(g.dist(u, v), 1);
                }
            }
        }
    }

    #[test]
    fn paths_are_shortest() {
        let g = CouplingGraph::heavy_hex_65();
        for (u, v) in [(0usize, 64usize), (5, 40), (12, 33)] {
            let p = g.shortest_path(u, v).unwrap();
            assert_eq!(p.len() as u32 - 1, g.dist(u, v));
            for w in p.windows(2) {
                assert!(g.are_adjacent(w[0], w[1]));
            }
        }
    }

    #[test]
    fn weighted_distances_follow_edge_weights() {
        // Triangle with a heavy edge: 0–1 costs 10, 0–2–1 costs 2.
        let g = CouplingGraph::from_weighted_edges(
            3,
            [(0, 1, 10), (0, 2, 1), (1, 2, 1)],
            "triangle-hot",
        );
        assert_eq!(g.dist(0, 1), 2);
        assert_eq!(g.dist(0, 2), 1);
        assert_eq!(g.shortest_path(0, 1), Some(vec![0, 2, 1]));
        assert!(g.are_adjacent(0, 1), "adjacency ignores weights");
        assert_eq!(g.edge_weight(0, 1), Some(10));
        assert_eq!(g.edge_weight(1, 0), Some(10));
        assert_eq!(g.edge_weight(0, 2), Some(1));
        assert_eq!(g.edge_weight(1, 1), None);
    }

    #[test]
    fn hop_rows_count_couplings_on_every_graph() {
        let hot = CouplingGraph::from_weighted_edges(
            3,
            [(0, 1, 10), (0, 2, 1), (1, 2, 1)],
            "triangle-hot",
        );
        assert_eq!(hot.dist(0, 1), 2);
        assert_eq!(hot.hop_row(0), &[0, 1, 1]);
        let unit = CouplingGraph::line(4);
        assert_eq!(unit.hop_row(1), unit.dist_row(1));
        let g = CouplingGraph::heavy_hex_65();
        let cal = g.with_calibration(&crate::CalibrationMap::synthetic(&g, 7));
        for u in [0, 31, 64] {
            assert_eq!(cal.hop_row(u), g.dist_row(u), "same wiring, same hops");
        }
    }

    #[test]
    fn weighted_path_avoiding_takes_cheap_detour() {
        // Square 0-1-2-3-0 plus diagonal 0-2 with weight 5: cheapest 0→2
        // is around the square (cost 2), and blocking node 1 forces the
        // 0-3-2 side (cost 2), never the heavy diagonal.
        let g = CouplingGraph::from_weighted_edges(
            4,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)],
            "square-diag",
        );
        let p = g.shortest_path_avoiding(0, 2, |v| v == 1).unwrap();
        assert_eq!(p, vec![0, 3, 2]);
    }

    #[test]
    fn dijkstra_on_unit_weights_matches_bfs() {
        let bfs = CouplingGraph::heavy_hex_65();
        let dij = CouplingGraph::from_weighted_edges(
            65,
            bfs.edges().into_iter().map(|(u, v)| (u, v, 1)),
            "hh65-dijkstra",
        );
        assert!(!dij.is_unit_weight());
        for u in 0..65 {
            assert_eq!(bfs.dist_row(u), dij.dist_row(u), "row {u}");
        }
    }

    #[test]
    fn rows_are_lazy_and_counted() {
        let g = CouplingGraph::grid(8, 8);
        assert_eq!(g.rows_cached(), 0);
        assert_eq!(g.row_stats(), (0, 0));
        let _ = g.dist(3, 40);
        assert_eq!(g.rows_cached(), 1);
        assert_eq!(g.row_stats(), (1, 0), "dist() counts a computed row");
        let _ = g.dist(3, 41);
        assert_eq!(g.row_stats(), (1, 0), "dist() never counts hits");
        let r = g.dist_row(3);
        assert_eq!(r[40], g.dist(3, 40));
        assert_eq!(g.row_stats(), (1, 1), "cached dist_row() counts a hit");
        let _ = g.dist_row(4);
        assert_eq!(g.row_stats(), (2, 1), "uncached dist_row() computes");
        // Adjacency never materializes a distance row.
        let h = CouplingGraph::grid(8, 8);
        assert!(h.are_adjacent(0, 1));
        assert_eq!(h.rows_cached(), 0);
    }

    #[test]
    fn clone_resets_row_caches() {
        let g = CouplingGraph::line(8);
        let _ = g.dist(0, 7);
        assert_eq!(g.rows_cached(), 1);
        let c = g.clone();
        assert_eq!(c.rows_cached(), 0);
        assert_eq!(c.row_stats(), (0, 0));
        assert_eq!(c, g, "clone is structurally equal");
    }

    #[test]
    fn memory_footprint_is_linear_before_rows() {
        let g = CouplingGraph::grid(64, 64); // 4096 qubits
        let before = g.memory_footprint();
        // O(V + E): comfortably under 1 MiB; an eager all-pairs matrix
        // would be 4096² × 4 B = 64 MiB.
        assert!(before < 1 << 20, "footprint {before} not O(V+E)");
        let _ = g.dist(0, 4095);
        assert!(g.memory_footprint() > before, "rows add to the footprint");
    }

    fn assert_valid_carving(g: &CouplingGraph, sizes: &[usize]) {
        let regions = g.carve(sizes).expect("carve succeeds");
        assert_eq!(regions.len(), sizes.len());
        for (r, &s) in regions.iter().zip(sizes) {
            assert_eq!(r.len(), s, "requested size honored");
            assert!(g.is_region_connected(r), "region must be connected");
        }
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                assert!(
                    regions[i].is_disjoint_from(&regions[j]),
                    "regions {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn carve_yields_connected_disjoint_regions() {
        assert_valid_carving(&CouplingGraph::line(20), &[5, 5, 5, 5]);
        assert_valid_carving(&CouplingGraph::grid(4, 5), &[6, 4, 3]);
        assert_valid_carving(&CouplingGraph::heavy_hex_65(), &[10, 12, 8, 9]);
        assert_valid_carving(&CouplingGraph::sycamore_64(), &[16, 16, 16, 16]);
    }

    #[test]
    fn carve_is_deterministic_and_rejects_impossible_requests() {
        let g = CouplingGraph::heavy_hex(7, 16);
        assert_eq!(g.n_qubits(), 130, "the 130-node service device");
        let a = g.carve(&[12, 9, 14, 7]).expect("carve");
        let b = g.carve(&[12, 9, 14, 7]).expect("carve");
        assert_eq!(a, b, "same request, same carving");
        assert!(g.carve(&[131]).is_none(), "wider than the device");
        assert!(g.carve(&[0, 4]).is_none(), "zero-size region");
        assert!(g.carve(&[]).is_none(), "empty request");
        assert!(g.carve(&[70, 70]).is_none(), "sum over device width");
    }

    #[test]
    fn carve_avoiding_excludes_bad_qubits() {
        let g = CouplingGraph::line(10);
        let avoid = QubitMask::from_indices(10, &[4]);
        // Avoiding the middle qubit splits the line into 4 + 5.
        let regions = g.carve_avoiding(&[4, 5], &avoid).expect("carve");
        for r in &regions {
            assert!(!r.iter_globals().any(|q| q == 4), "avoided qubit placed");
            assert!(g.is_region_connected(r));
        }
        // A single region of 6 can't avoid the cut point.
        assert!(g.carve_avoiding(&[6], &avoid).is_none());
        // The avoided qubit also shrinks capacity: 10 qubits minus one.
        assert!(g.carve_avoiding(&[10], &avoid).is_none());
    }

    #[test]
    fn induced_subgraph_preserves_local_wiring() {
        let g = CouplingGraph::grid(3, 4);
        // A 2×2 corner: globals {0, 1, 4, 5} → locals {0, 1, 2, 3}.
        let r = Region::new(12, [0, 1, 4, 5]);
        let sub = g.induced(&r);
        assert_eq!(sub.n_qubits(), 4);
        assert!(sub.are_adjacent(0, 1)); // 0–1
        assert!(sub.are_adjacent(0, 2)); // 0–4
        assert!(sub.are_adjacent(1, 3)); // 1–5
        assert!(sub.are_adjacent(2, 3)); // 4–5
        assert!(!sub.are_adjacent(0, 3)); // 0–5 not coupled
        assert_eq!(sub.edges().len(), 4);
        // The induced fingerprint is local-structural: the same shape
        // carved elsewhere hashes equal.
        let r2 = Region::new(12, [6, 7, 10, 11]);
        assert_eq!(sub.fingerprint(), g.induced(&r2).fingerprint());
    }

    #[test]
    fn induced_subgraph_carries_weights() {
        let g = CouplingGraph::from_weighted_edges(
            4,
            [(0, 1, 7), (1, 2, 1), (2, 3, 1)],
            "weighted-line",
        );
        let r = Region::new(4, [0, 1, 2]);
        let sub = g.induced(&r);
        assert!(!sub.is_unit_weight());
        assert_eq!(sub.edge_weight(0, 1), Some(7));
        assert_eq!(sub.dist(0, 2), 8);
    }

    #[test]
    fn fingerprint_is_structural_not_nominal() {
        // Same wiring, different names → same fingerprint.
        let a = CouplingGraph::from_edges(3, [(0, 1), (1, 2)], "alpha");
        let b = CouplingGraph::from_edges(3, [(1, 2), (0, 1)], "beta");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different wiring or width → different fingerprint.
        assert_ne!(
            CouplingGraph::line(5).fingerprint(),
            CouplingGraph::ring(5).fingerprint()
        );
        assert_ne!(
            CouplingGraph::line(5).fingerprint(),
            CouplingGraph::line(6).fingerprint()
        );
        assert_ne!(
            CouplingGraph::heavy_hex_65().fingerprint(),
            CouplingGraph::sycamore_64().fingerprint()
        );
    }

    #[test]
    fn fingerprint_absorbs_weights_only_when_nonunit() {
        let unit = CouplingGraph::line(5);
        let all_ones = CouplingGraph::from_weighted_edges(
            5,
            unit.edges().into_iter().map(|(u, v)| (u, v, 1)),
            "line-5-dijkstra",
        );
        // Same wiring, all weights 1 → same cache key, whichever
        // constructor built it.
        assert_eq!(unit.fingerprint(), all_ones.fingerprint());
        let hot = CouplingGraph::from_weighted_edges(
            5,
            [(0, 1, 9), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
            "line-5-hot",
        );
        assert_ne!(unit.fingerprint(), hot.fingerprint());
    }
}

//! Named workloads, devices and backends — the vocabulary of the HTTP API.
//!
//! Remote clients cannot ship arbitrary in-memory `Hamiltonian`s, so the
//! batch endpoint speaks in names: every workload/device/backend of the
//! evaluation is constructible from a short string, and construction is
//! deterministic — the same name always builds the same content, so the
//! engine's content-addressed cache works across clients and restarts.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tetris_baselines::generic;
use tetris_core::TetrisConfig;
use tetris_engine::Backend;
use tetris_pauli::encoder::Encoding;
use tetris_pauli::molecules::Molecule;
use tetris_pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris_pauli::uccsd::synthetic_ucc;
use tetris_pauli::Hamiltonian;
use tetris_topology::{CalibrationMap, CouplingGraph};

/// Builds a workload from its wire name:
///
/// * `<Molecule>-JW` / `<Molecule>-BK` — UCCSD molecules (`LiH-JW`,
///   `CO2-BK`, …),
/// * `UCC-<n>` — the synthetic UCC family on `n` qubits,
/// * `REG3-<n>-s<seed>` — MaxCut on a random 3-regular graph,
/// * `RAND-<n>-<m>-s<seed>` — MaxCut on a random `G(n, m)` graph.
pub fn workload(name: &str) -> Option<Hamiltonian> {
    if let Some((mol, enc)) = name.rsplit_once('-') {
        let encoding = match enc {
            "JW" => Some(Encoding::JordanWigner),
            "BK" => Some(Encoding::BravyiKitaev),
            _ => None,
        };
        if let Some(encoding) = encoding {
            let molecule = match mol {
                "LiH" => Some(Molecule::LiH),
                "BeH2" => Some(Molecule::BeH2),
                "CH4" => Some(Molecule::CH4),
                "MgH2" => Some(Molecule::MgH2),
                "LiCl" => Some(Molecule::LiCl),
                "CO2" => Some(Molecule::CO2),
                _ => None,
            };
            if let Some(m) = molecule {
                return Some(m.uccsd_hamiltonian(encoding));
            }
        }
    }
    if let Some(rest) = name.strip_prefix("UCC-") {
        let n: usize = rest.parse().ok().filter(|&n| (4..=64).contains(&n))?;
        return Some(synthetic_ucc(n, Encoding::JordanWigner, 0x5cc ^ n as u64));
    }
    if let Some(rest) = name.strip_prefix("REG3-") {
        let (n, seed) = rest.split_once("-s")?;
        // 3-regular graphs need an even vertex count (n·d must be even).
        let n: usize = n
            .parse()
            .ok()
            .filter(|&n| (4..=64).contains(&n) && n % 2 == 0)?;
        let seed: u64 = seed.parse().ok()?;
        let g = Graph::random_regular(n, 3, seed);
        return Some(maxcut_hamiltonian(&g, name));
    }
    if let Some(rest) = name.strip_prefix("RAND-") {
        let (nm, seed) = rest.split_once("-s")?;
        let (n, m) = nm.split_once('-')?;
        let n: usize = n.parse().ok().filter(|&n| (4..=64).contains(&n))?;
        let m: usize = m.parse().ok().filter(|&m| m <= n * (n - 1) / 2)?;
        let seed: u64 = seed.parse().ok()?;
        let g = Graph::random_gnm(n, m, seed);
        return Some(maxcut_hamiltonian(&g, name));
    }
    None
}

/// Builds a device from its wire name: `heavy-hex` (IBM 65q), `sycamore`
/// (Google 64q), `line-<n>`, `ring-<n>` or `grid-<r>x<c>`.
///
/// A `!`-suffix applies a calibration map, turning the device into a
/// weighted (noise-aware) graph:
///
/// * `<base>!cal-s<seed>` — the seeded synthetic map
///   ([`CalibrationMap::synthetic`]), e.g. `heavy-hex!cal-s7`;
/// * `<base>!hot-<u>-<v>-e<milli>` — a single hot edge: coupling `u–v`
///   gets error `milli/1000` on an otherwise perfect device, e.g.
///   `line-6!hot-2-3-e500`. The edge must exist.
///
/// Construction stays deterministic, so calibrated devices are content-
/// addressed like any other.
pub fn device(name: &str) -> Option<CouplingGraph> {
    if let Some((base, spec)) = name.split_once('!') {
        let g = bare_device(base)?;
        let cal = calibration_suffix(&g, spec)?;
        return Some(g.with_calibration(&cal));
    }
    bare_device(name)
}

fn bare_device(name: &str) -> Option<CouplingGraph> {
    match name {
        "heavy-hex" => return Some(CouplingGraph::heavy_hex_65()),
        "sycamore" => return Some(CouplingGraph::sycamore_64()),
        _ => {}
    }
    let in_range = |n: usize| (2..=256).contains(&n);
    if let Some(rest) = name.strip_prefix("line-") {
        return rest
            .parse()
            .ok()
            .filter(|&n| in_range(n))
            .map(CouplingGraph::line);
    }
    if let Some(rest) = name.strip_prefix("ring-") {
        return rest
            .parse()
            .ok()
            .filter(|&n| in_range(n))
            .map(CouplingGraph::ring);
    }
    if let Some(rest) = name.strip_prefix("grid-") {
        let (r, c) = rest.split_once('x')?;
        let r: usize = r.parse().ok()?;
        let c: usize = c.parse().ok()?;
        // checked_mul: a wrapped product must not sneak past the bound.
        if r.checked_mul(c).is_some_and(in_range) {
            return Some(CouplingGraph::grid(r, c));
        }
    }
    None
}

/// Parses a `!`-calibration suffix against its base device.
fn calibration_suffix(g: &CouplingGraph, spec: &str) -> Option<CalibrationMap> {
    if let Some(seed) = spec.strip_prefix("cal-s") {
        let seed: u64 = seed.parse().ok()?;
        return Some(CalibrationMap::synthetic(g, seed));
    }
    if let Some(rest) = spec.strip_prefix("hot-") {
        let (uv, e) = rest.split_once("-e")?;
        let (u, v) = uv.split_once('-')?;
        let u: usize = u.parse().ok()?;
        let v: usize = v.parse().ok()?;
        let milli: u32 = e.parse().ok().filter(|&m| m <= 1000)?;
        if u >= g.n_qubits() || v >= g.n_qubits() || !g.are_adjacent(u, v) {
            return None;
        }
        let mut cal = CalibrationMap::uniform(g.n_qubits(), 0.0);
        cal.set_edge_error(u, v, milli as f64 / 1000.0);
        return Some(cal);
    }
    None
}

/// Loads a [`CalibrationMap`] for `graph` from the JSON wire format:
///
/// ```json
/// {
///   "default_edge_error": 0.01,
///   "edges":  [ { "u": 0, "v": 1, "error": 0.02 } ],
///   "qubits": [ { "q": 3, "error": 0.04 } ]
/// }
/// ```
///
/// Every field is optional (`default_edge_error` defaults to 0). Endpoints
/// are validated against the device: out-of-range indices, non-adjacent
/// edge entries, and error rates outside `[0, 1]` are rejected with a
/// descriptive message.
pub fn calibration_from_json(graph: &CouplingGraph, text: &str) -> Result<CalibrationMap, String> {
    let v = crate::json::parse(text)?;
    let rate = |x: &crate::json::Value, what: &str| -> Result<f64, String> {
        let e = x
            .get("error")
            .and_then(|e| e.as_num())
            .ok_or_else(|| format!("{what} entry missing numeric \"error\""))?;
        if !(0.0..=1.0).contains(&e) {
            return Err(format!("{what} error rate {e} outside [0, 1]"));
        }
        Ok(e)
    };
    let default = match v.get("default_edge_error") {
        Some(d) => d
            .as_num()
            .filter(|e| (0.0..=1.0).contains(e))
            .ok_or("\"default_edge_error\" must be a rate in [0, 1]")?,
        None => 0.0,
    };
    let mut cal = CalibrationMap::uniform(graph.n_qubits(), default);
    if let Some(edges) = v.get("edges") {
        let edges = edges.as_arr().ok_or("\"edges\" must be an array")?;
        for e in edges {
            let u = e
                .get("u")
                .and_then(|x| x.as_num())
                .ok_or("edge missing \"u\"")? as usize;
            let v = e
                .get("v")
                .and_then(|x| x.as_num())
                .ok_or("edge missing \"v\"")? as usize;
            if u >= graph.n_qubits() || v >= graph.n_qubits() || !graph.are_adjacent(u, v) {
                return Err(format!("calibration edge {u}-{v} is not a device coupling"));
            }
            cal.set_edge_error(u, v, rate(e, "edge")?);
        }
    }
    if let Some(qubits) = v.get("qubits") {
        let qubits = qubits.as_arr().ok_or("\"qubits\" must be an array")?;
        for q in qubits {
            let i = q
                .get("q")
                .and_then(|x| x.as_num())
                .ok_or("qubit missing \"q\"")? as usize;
            if i >= graph.n_qubits() {
                return Err(format!("calibration qubit {i} out of device range"));
            }
            cal.set_qubit_error(i, rate(q, "qubit")?);
        }
    }
    Ok(cal)
}

/// Builds a backend from its wire name: `tetris`, `tetris-nolookahead`,
/// `paulihedral`, `maxcancel`, `pcoast`, `tket`, `tket-postroute` or
/// `2qan-s<seed>`.
pub fn backend(name: &str) -> Option<Backend> {
    match name {
        "tetris" => return Some(Backend::Tetris(TetrisConfig::default())),
        "tetris-nolookahead" => return Some(Backend::Tetris(TetrisConfig::without_lookahead())),
        "paulihedral" => {
            return Some(Backend::Paulihedral {
                post_optimize: true,
            })
        }
        "maxcancel" => return Some(Backend::MaxCancel),
        "pcoast" => return Some(Backend::PcoastLike),
        "tket" => return Some(Backend::Generic(generic::OptLevel::Native)),
        "tket-postroute" => return Some(Backend::Generic(generic::OptLevel::PostRouteOnly)),
        _ => {}
    }
    if let Some(seed) = name.strip_prefix("2qan-s") {
        return seed.parse().ok().map(|seed| Backend::Qaoa2qan { seed });
    }
    None
}

/// Total Pauli terms an [`Interner`] keeps resident by default. Every
/// Table I molecule in both encodings plus `UCC-10…64` (~166k terms) fits,
/// at ~128 bytes a term (~33 MB when full).
const MEMO_TERM_BUDGET: usize = 1 << 18;

/// An [`Interner`]'s counters: the `registry` object of `GET /stats` and
/// the `tetris_registry_memo_*` series of `GET /metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Names constructed (valid names only).
    pub builds: u64,
    /// Entries dropped to stay within the budget.
    pub evictions: u64,
    /// Terms currently held, never above the budget.
    pub terms: usize,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Workload,
    Device,
}

#[derive(Debug)]
struct Slot<T> {
    value: Arc<T>,
    fingerprint: u64,
    cost: usize,
    /// Last-use tick, the key of this entry in [`Interner::recency`].
    tick: u64,
}

/// The name memo: wire names of workloads and devices → built `Arc` plus
/// content fingerprint, so a repeated name costs one hash lookup instead of
/// a construction and a content hash. The server keeps one for its
/// lifetime (a VQA client resubmits the same ansatz every optimizer step);
/// a fresh server starts cold. Entries are charged their Pauli-term count
/// (a device one term per coupling) and the least recently used ones are
/// evicted to stay within a fixed budget; a single name above the whole
/// budget is built and handed out but not kept.
#[derive(Debug)]
pub struct Interner {
    workloads: HashMap<String, Slot<Hamiltonian>>,
    devices: HashMap<String, Slot<CouplingGraph>>,
    /// Last-use tick → entry, oldest first.
    recency: BTreeMap<u64, (Kind, String)>,
    next_tick: u64,
    budget: usize,
    stats: MemoStats,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::with_budget(MEMO_TERM_BUDGET)
    }
}

impl Interner {
    /// An empty memo with the default budget of 2^18 Pauli terms.
    pub fn new() -> Self {
        Interner::default()
    }

    /// An empty memo holding at most `terms` Pauli terms.
    fn with_budget(terms: usize) -> Self {
        Interner {
            workloads: HashMap::new(),
            devices: HashMap::new(),
            recency: BTreeMap::new(),
            next_tick: 0,
            budget: terms,
            stats: MemoStats::default(),
        }
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> MemoStats {
        self.stats
    }

    /// The workload named `name`, built only when not memoized.
    pub fn workload(&mut self, name: &str) -> Option<Arc<Hamiltonian>> {
        self.workload_entry(name).map(|(h, _)| h)
    }

    /// The device named `name`, built only when not memoized.
    pub fn device(&mut self, name: &str) -> Option<Arc<CouplingGraph>> {
        self.device_entry(name).map(|(g, _)| g)
    }

    /// [`workload`](Interner::workload) with its content fingerprint.
    pub(crate) fn workload_entry(&mut self, name: &str) -> Option<(Arc<Hamiltonian>, u64)> {
        let tick = self.tick();
        if let Some(hit) = touch(&mut self.workloads, &mut self.recency, name, tick) {
            self.stats.hits += 1;
            return Some(hit);
        }
        let h = Arc::new(workload(name)?);
        let fingerprint = h.fingerprint();
        let cost = h.pauli_string_count();
        if self.admit(Kind::Workload, name, cost, tick) {
            let slot = Slot {
                value: h.clone(),
                fingerprint,
                cost,
                tick,
            };
            self.workloads.insert(name.to_string(), slot);
        }
        Some((h, fingerprint))
    }

    /// [`device`](Interner::device) with its content fingerprint.
    pub(crate) fn device_entry(&mut self, name: &str) -> Option<(Arc<CouplingGraph>, u64)> {
        let tick = self.tick();
        if let Some(hit) = touch(&mut self.devices, &mut self.recency, name, tick) {
            self.stats.hits += 1;
            return Some(hit);
        }
        let g = Arc::new(device(name)?);
        let fingerprint = g.fingerprint();
        let cost = g.edges().len();
        if self.admit(Kind::Device, name, cost, tick) {
            let slot = Slot {
                value: g.clone(),
                fingerprint,
                cost,
                tick,
            };
            self.devices.insert(name.to_string(), slot);
        }
        Some((g, fingerprint))
    }

    fn tick(&mut self) -> u64 {
        self.next_tick += 1;
        self.next_tick
    }

    /// Counts a build of `cost` terms and, unless it exceeds the whole
    /// budget, evicts least recently used entries until it fits and
    /// records it as used at `tick`. The caller inserts the slot when this
    /// returns `true`.
    fn admit(&mut self, kind: Kind, name: &str, cost: usize, tick: u64) -> bool {
        self.stats.builds += 1;
        if cost > self.budget {
            return false;
        }
        while self.stats.terms + cost > self.budget {
            let (_, (kind, name)) = self.recency.pop_first().expect("held terms have an entry");
            let freed = match kind {
                Kind::Workload => self.workloads.remove(&name).map(|s| s.cost),
                Kind::Device => self.devices.remove(&name).map(|s| s.cost),
            };
            self.stats.terms -= freed.expect("recency and memo agree");
            self.stats.evictions += 1;
        }
        self.stats.terms += cost;
        self.recency.insert(tick, (kind, name.to_string()));
        true
    }
}

/// A memo hit on `name`: moves it to the young end of `recency`.
fn touch<T>(
    map: &mut HashMap<String, Slot<T>>,
    recency: &mut BTreeMap<u64, (Kind, String)>,
    name: &str,
    tick: u64,
) -> Option<(Arc<T>, u64)> {
    let slot = map.get_mut(name)?;
    let entry = recency.remove(&slot.tick).expect("memo entry has a tick");
    recency.insert(tick, entry);
    slot.tick = tick;
    Some((slot.value.clone(), slot.fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_engine::CompileJob;

    /// The dispatch estimate ranks the cold suite's heavy jobs by their
    /// measured serial cost, and a wide QAOA instance above a small UCC one
    /// (63 ms against 9 ms on `grid-12x12`), which a naive-CNOT count
    /// ranks the other way round.
    #[test]
    fn cost_estimates_rank_jobs_by_measured_cost() {
        let cost = |w: &str, b: &str, d: &str| {
            let job = CompileJob::new(
                w,
                backend(b).expect(b),
                Arc::new(workload(w).expect(w)),
                Arc::new(device(d).expect(d)),
            );
            job.estimated_cost()
        };
        let ranked = [
            cost("CO2-JW", "tetris", "heavy-hex"),
            cost("LiCl-JW", "tetris", "heavy-hex"),
            cost("UCC-35", "paulihedral", "heavy-hex"),
            cost("UCC-10", "tket", "heavy-hex"),
        ];
        assert!(ranked.windows(2).all(|w| w[0] > w[1]), "{ranked:?}");
        assert!(
            cost("REG3-60-s1", "tetris", "grid-12x12") > cost("UCC-10", "tetris", "grid-12x12")
        );
        let naive = |w: &str| workload(w).expect(w).naive_cnot_count();
        assert!(naive("REG3-60-s1") < naive("UCC-10"));
    }

    #[test]
    fn molecule_names_resolve() {
        let h = workload("LiH-JW").expect("LiH-JW");
        assert_eq!(h.name, "LiH-JW");
        assert!(workload("LiH-XX").is_none());
        assert!(workload("NoSuchMolecule-JW").is_none());
    }

    #[test]
    fn qaoa_names_are_deterministic() {
        let a = workload("REG3-12-s7").expect("reg3");
        let b = workload("REG3-12-s7").expect("reg3");
        assert_eq!(a.fingerprint(), b.fingerprint(), "same name, same content");
        let c = workload("REG3-12-s8").expect("reg3");
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
        assert!(workload("REG3-12").is_none(), "seed is required");
        let r = workload("RAND-10-20-s3").expect("rand");
        assert_eq!(r.n_qubits, 10);
    }

    #[test]
    fn synthetic_ucc_matches_bench_suite_construction() {
        let h = workload("UCC-10").expect("ucc");
        assert_eq!(
            h.fingerprint(),
            synthetic_ucc(10, Encoding::JordanWigner, 0x5cc ^ 10).fingerprint(),
            "server and bench-suite must agree on UCC-n content"
        );
    }

    #[test]
    fn devices_resolve() {
        assert_eq!(device("heavy-hex").unwrap().n_qubits(), 65);
        assert_eq!(device("sycamore").unwrap().n_qubits(), 64);
        assert_eq!(device("line-7").unwrap().n_qubits(), 7);
        assert_eq!(device("ring-9").unwrap().n_qubits(), 9);
        assert_eq!(device("grid-3x4").unwrap().n_qubits(), 12);
        assert!(device("torus-3").is_none());
        assert!(device("line-0").is_none());
        assert!(device("grid-1000x1000").is_none(), "size bound enforced");
    }

    #[test]
    fn calibrated_device_names_resolve() {
        let plain = device("heavy-hex").unwrap();
        let cal = device("heavy-hex!cal-s7").unwrap();
        assert_eq!(cal.n_qubits(), 65);
        assert!(!cal.is_unit_weight());
        assert_eq!(cal.edges(), plain.edges(), "calibration keeps the wiring");
        assert_ne!(cal.fingerprint(), plain.fingerprint());
        let again = device("heavy-hex!cal-s7").unwrap();
        assert_eq!(cal.fingerprint(), again.fingerprint(), "deterministic");
        assert_ne!(
            cal.fingerprint(),
            device("heavy-hex!cal-s8").unwrap().fingerprint(),
            "seed must matter"
        );

        let hot = device("line-6!hot-2-3-e500").unwrap();
        assert_eq!(hot.edge_weight(2, 3), Some(501));
        assert_eq!(hot.edge_weight(0, 1), Some(1));
        assert!(device("line-6!hot-2-4-e500").is_none(), "not a coupling");
        assert!(device("line-6!hot-2-3-e2000").is_none(), "rate over 100%");
        assert!(device("line-6!frob-1").is_none(), "unknown suffix");
        assert!(device("nosuch!cal-s1").is_none(), "unknown base device");
    }

    #[test]
    fn calibration_json_roundtrip_and_validation() {
        let g = device("line-4").unwrap();
        let cal = calibration_from_json(
            &g,
            r#"{ "default_edge_error": 0.01,
                 "edges":  [ { "u": 1, "v": 2, "error": 0.2 } ],
                 "qubits": [ { "q": 3, "error": 0.04 } ] }"#,
        )
        .expect("valid calibration");
        assert_eq!(cal.edge_error(1, 2), 0.2);
        assert_eq!(cal.edge_error(0, 1), 0.01, "default applies elsewhere");
        assert_eq!(cal.qubit_error(3), 0.04);
        assert!(cal.bad_qubits(0.02).contains(3));

        assert!(calibration_from_json(&g, "{").is_err(), "bad json");
        assert!(
            calibration_from_json(&g, r#"{ "edges": [ { "u": 0, "v": 2, "error": 0.1 } ] }"#)
                .is_err(),
            "non-adjacent edge rejected"
        );
        assert!(
            calibration_from_json(&g, r#"{ "edges": [ { "u": 0, "v": 1, "error": 1.5 } ] }"#)
                .is_err(),
            "rate out of range"
        );
        assert!(
            calibration_from_json(&g, r#"{ "qubits": [ { "q": 9, "error": 0.1 } ] }"#).is_err(),
            "qubit out of range"
        );
    }

    #[test]
    fn backends_resolve_with_parameters() {
        assert_eq!(
            backend("tetris").unwrap().fingerprint(),
            Backend::Tetris(TetrisConfig::default()).fingerprint()
        );
        assert_ne!(
            backend("tetris").unwrap().fingerprint(),
            backend("tetris-nolookahead").unwrap().fingerprint()
        );
        assert_eq!(backend("2qan-s7"), Some(Backend::Qaoa2qan { seed: 7 }));
        assert!(backend("qiskit").is_none());
    }

    #[test]
    fn interner_shares_construction() {
        let mut i = Interner::new();
        let (a, fp) = i.workload_entry("REG3-8-s1").expect("w");
        let b = i.workload("REG3-8-s1").expect("w");
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the first build");
        assert_eq!(
            fp,
            a.fingerprint(),
            "the memo carries the content fingerprint"
        );
        let (g1, gfp) = i.device_entry("line-5").expect("d");
        let g2 = i.device("line-5").expect("d");
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(gfp, g1.fingerprint());
        assert!(i.workload("NoSuchMolecule-JW").is_none());
        assert_eq!(
            i.stats(),
            MemoStats {
                hits: 2,
                builds: 2,
                evictions: 0,
                terms: a.pauli_string_count() + g1.edges().len(),
            },
            "unknown names build nothing"
        );
    }

    #[test]
    fn hot_name_survives_churn_within_the_budget() {
        // REG3-8 has 12 terms and REG3-12 has 18: 200 terms hold about ten
        // one-off names, and the churn below cycles through sixty.
        let budget = 200;
        let mut i = Interner::with_budget(budget);
        let hot = i.workload("REG3-8-s1").expect("hot");
        for k in 0..60 {
            i.workload(&format!("REG3-12-s{k}")).expect("one-off");
            assert!(i.stats().terms <= budget, "budget exceeded at step {k}");
            let builds = i.stats().builds;
            let again = i.workload("REG3-8-s1").expect("hot");
            assert!(Arc::ptr_eq(&hot, &again), "hot name evicted at step {k}");
            assert_eq!(i.stats().builds, builds, "a hot hit builds nothing");
        }
        let s = i.stats();
        assert_eq!(s.builds, 61);
        assert!(s.evictions >= 50, "churn must evict: {s:?}");
        let oldest = i.workload("REG3-12-s0").expect("rebuilt");
        assert_eq!(i.stats().builds, 62, "an evicted name is built again");
        assert_eq!(oldest.pauli_string_count(), 18);

        // A name larger than the whole budget is served but never held.
        let big = i.workload("UCC-10").expect("oversized");
        assert!(big.pauli_string_count() > budget);
        assert!(i.stats().terms <= budget);
        assert!(!Arc::ptr_eq(&big, &i.workload("UCC-10").expect("again")));
    }

    #[test]
    fn carried_keys_match_hashed_keys_on_table1_workloads() {
        let mut names: Vec<String> = Vec::new();
        for m in ["LiH", "BeH2", "CH4", "MgH2", "LiCl", "CO2"] {
            names.push(format!("{m}-JW"));
            names.push(format!("{m}-BK"));
        }
        names.extend([10, 15, 20, 25, 30, 35].map(|n| format!("UCC-{n}")));
        names.extend(["RAND-16-25-s1", "RAND-18-31-s1", "RAND-20-40-s1"].map(String::from));
        names.extend(["REG3-16-s1", "REG3-18-s1", "REG3-20-s1"].map(String::from));
        let backends = [
            "tetris",
            "tetris-nolookahead",
            "paulihedral",
            "maxcancel",
            "pcoast",
            "tket",
            "tket-postroute",
            "2qan-s7",
        ];
        let mut memo = Interner::new();
        for device_name in ["heavy-hex", "grid-12x12", "heavy-hex!cal-s7"] {
            let graph = memo.device_entry(device_name).expect("device");
            for name in &names {
                let ham = memo.workload_entry(name).expect("workload");
                for b in backends {
                    let backend = backend(b).expect("backend");
                    let carried =
                        CompileJob::with_fingerprints(name, backend, ham.clone(), graph.clone());
                    let hashed = CompileJob::new(name, backend, ham.0.clone(), graph.0.clone());
                    assert_eq!(
                        carried.cache_key(),
                        hashed.cache_key(),
                        "{name} x {device_name} x {b}"
                    );
                }
            }
        }
    }
}

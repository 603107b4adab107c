//! The workloads, defined by registry wire names in the benchmark's own
//! files so that edits to the repository's suites or figure binaries
//! cannot silently change what is measured.

use crate::Scale;

/// The Table I molecules, Jordan-Wigner encoded.
pub const MOLECULES: [&str; 6] = [
    "LiH-JW", "BeH2-JW", "CH4-JW", "MgH2-JW", "LiCl-JW", "CO2-JW",
];

/// The heaviest molecules to rebuild per request (largest Hamiltonians).
pub const HEAVY_MOLECULES: [&str; 3] = ["CO2-JW", "LiCl-JW", "MgH2-JW"];

/// The synthetic UCC sizes of Table I.
pub const UCC_SIZES: [usize; 6] = [10, 15, 20, 25, 30, 35];

/// The compilers of the paper's UCC comparison, in table order.
pub const UCC_BACKENDS: [&str; 5] = [
    "tket",
    "pcoast",
    "paulihedral",
    "tetris-nolookahead",
    "tetris",
];

/// The device every whole-chip job of the evaluation targets.
pub const EVAL_DEVICE: &str = "heavy-hex";

/// The wide device resident region batches are carved from.
pub const REGION_DEVICE: &str = "grid-12x12";

/// One compile job as the HTTP API names it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobSpec {
    /// Registry workload name.
    pub workload: String,
    /// Registry backend name.
    pub backend: String,
    /// Registry device name.
    pub device: String,
}

impl JobSpec {
    /// A job spec from its three names.
    pub fn new(
        workload: impl Into<String>,
        backend: impl Into<String>,
        device: impl Into<String>,
    ) -> Self {
        JobSpec {
            workload: workload.into(),
            backend: backend.into(),
            device: device.into(),
        }
    }

    /// Whether the workload is a UCC-shaped (molecule or synthetic UCC)
    /// Hamiltonian rather than a QAOA instance.
    pub fn ucc_shaped(&self) -> bool {
        !(self.workload.starts_with("REG3-") || self.workload.starts_with("RAND-"))
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"backend\": \"{}\", \"device\": \"{}\"}}",
            self.workload, self.backend, self.device
        )
    }
}

/// A `POST /batch` body.
pub fn batch_body(jobs: &[JobSpec], stream: bool, resident: bool) -> String {
    let jobs: Vec<String> = jobs.iter().map(JobSpec::json).collect();
    format!(
        "{{\"jobs\": [{}], \"stream\": {stream}, \"resident\": {resident}}}",
        jobs.join(", ")
    )
}

/// The six Table I QAOA instances for `seed`: `G(n, m)` graphs with the
/// paper's edge counts and 3-regular graphs.
pub fn qaoa_names(seed: u64) -> Vec<String> {
    let mut names: Vec<String> = [(16, 25), (18, 31), (20, 40)]
        .iter()
        .map(|(n, m)| format!("RAND-{n}-{m}-s{seed}"))
        .collect();
    names.extend([16, 18, 20].iter().map(|n| format!("REG3-{n}-s{seed}")));
    names
}

/// The UCC-shaped workload names (molecules, then synthetic UCC).
pub fn ucc_names(scale: Scale) -> Vec<String> {
    match scale {
        Scale::Full => MOLECULES
            .iter()
            .map(|m| m.to_string())
            .chain(UCC_SIZES.iter().map(|n| format!("UCC-{n}")))
            .collect(),
        Scale::Tiny => vec!["UCC-8".into(), "UCC-10".into()],
    }
}

fn qaoa_set(seed: u64, scale: Scale) -> Vec<String> {
    match scale {
        Scale::Full => qaoa_names(seed),
        Scale::Tiny => vec![format!("REG3-8-s{seed}")],
    }
}

/// `compile-cold`: the Table I evaluation suite on heavy-hex. UCC-shaped
/// workloads run through the five UCC compilers, QAOA instances through
/// `tetris` and `2qan-s<seed>` — 72 jobs at full scale.
pub fn cold_suite(seed: u64, scale: Scale) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for w in ucc_names(scale) {
        for b in UCC_BACKENDS {
            jobs.push(JobSpec::new(w.clone(), b, EVAL_DEVICE));
        }
    }
    for w in qaoa_set(seed, scale) {
        jobs.push(JobSpec::new(w.clone(), "tetris", EVAL_DEVICE));
        jobs.push(JobSpec::new(w, format!("2qan-s{seed}"), EVAL_DEVICE));
    }
    jobs
}

/// `warm-resubmit`: the pre-seeded VQA set — every Table I workload
/// through `tetris` and `paulihedral` (36 jobs at full scale).
pub fn warm_set(seed: u64, scale: Scale) -> Vec<JobSpec> {
    ucc_names(scale)
        .into_iter()
        .chain(qaoa_set(seed, scale))
        .flat_map(|w| ["tetris", "paulihedral"].map(|b| JobSpec::new(w.clone(), b, EVAL_DEVICE)))
        .collect()
}

/// `mixed-open`'s warm names: the heaviest molecules through `tetris` and
/// `paulihedral`.
pub fn heavy_set(scale: Scale) -> Vec<JobSpec> {
    let names: &[&str] = match scale {
        Scale::Full => &HEAVY_MOLECULES,
        Scale::Tiny => &["UCC-8"],
    };
    names
        .iter()
        .flat_map(|w| ["tetris", "paulihedral"].map(|b| JobSpec::new(*w, b, EVAL_DEVICE)))
        .collect()
}

/// Narrow jobs whose compiled circuits are small enough to simulate: each
/// is checked against the Pauli-evolution oracle.
pub fn probe_jobs(seed: u64) -> Vec<JobSpec> {
    vec![
        JobSpec::new("UCC-6", "tetris", "line-8"),
        JobSpec::new("UCC-8", "tetris", "grid-3x3"),
        JobSpec::new(format!("REG3-8-s{seed}"), "tetris", "grid-3x3"),
    ]
}

/// A seeded splitmix64 generator — the benchmark's only randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// One request of the `mixed-open` schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Planned {
    /// A warm one-job resubmit (stats only).
    Warm(JobSpec),
    /// A cold resident-region batch.
    Region(Vec<JobSpec>),
}

/// Requests per block of the `mixed-open` schedule, and how many of them
/// are cold region batches. Shuffling within fixed blocks keeps the mix
/// identical for every seed while the order varies.
pub const MIXED_BLOCK: usize = 10;
/// Cold region batches per [`MIXED_BLOCK`].
pub const MIXED_COLD_PER_BLOCK: usize = 2;
/// Jobs per cold region batch.
pub const REGION_BATCH: usize = 4;

/// The first `n` requests of the `mixed-open` schedule for `seed`.
///
/// Warm requests cycle through [`heavy_set`] in seeded order. Region jobs
/// come in decks of 16: 8 `REG3-12-s<k>` with fresh seeds (always a cache
/// miss), 6 `UCC-10` (a resident-artifact hit once its region is reused)
/// and 2 wide `REG3-<w>-s<k>`. The wide widths cycle through sizes whose
/// reuse windows are disjoint, so a full chip often has no region for the
/// next one and the defragmenter runs.
pub fn mixed_schedule(seed: u64, n: usize, scale: Scale) -> Vec<Planned> {
    let heavy = heavy_set(scale);
    let (small, ucc, wide): (usize, &str, &[usize]) = match scale {
        Scale::Full => (12, "UCC-10", &[36, 44, 52, 60]),
        Scale::Tiny => (6, "UCC-6", &[16, 22]),
    };
    let mut wide_at = 0;
    let mut rng = Rng::new(seed ^ 0x006d_6978_6564);
    let mut fresh = seed.wrapping_mul(1_000_003) % 1_000_000_000;
    let mut warm_deck: Vec<JobSpec> = Vec::new();
    let mut region_deck: Vec<JobSpec> = Vec::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<bool> = (0..MIXED_BLOCK).map(|i| i < MIXED_COLD_PER_BLOCK).collect();
        rng.shuffle(&mut block);
        for cold in block {
            if out.len() == n {
                break;
            }
            if !cold {
                if warm_deck.is_empty() {
                    warm_deck = heavy.clone();
                    rng.shuffle(&mut warm_deck);
                }
                out.push(Planned::Warm(warm_deck.pop().expect("refilled deck")));
                continue;
            }
            let mut batch = Vec::with_capacity(REGION_BATCH);
            while batch.len() < REGION_BATCH {
                if region_deck.is_empty() {
                    for k in 0..16 {
                        let name = match k {
                            0..=7 => format!("REG3-{small}-s{}", next_fresh(&mut fresh)),
                            8..=13 => ucc.to_string(),
                            _ => {
                                wide_at += 1;
                                let w = wide[wide_at % wide.len()];
                                format!("REG3-{w}-s{}", next_fresh(&mut fresh))
                            }
                        };
                        region_deck.push(JobSpec::new(name, "tetris", REGION_DEVICE));
                    }
                    rng.shuffle(&mut region_deck);
                }
                batch.push(region_deck.pop().expect("refilled deck"));
            }
            out.push(Planned::Region(batch));
        }
    }
    out
}

fn next_fresh(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_the_documented_sizes() {
        assert_eq!(cold_suite(1, Scale::Full).len(), 72);
        assert_eq!(warm_set(1, Scale::Full).len(), 36);
        assert_eq!(heavy_set(Scale::Full).len(), 6);
    }

    #[test]
    fn mixed_schedule_is_seeded_with_a_fixed_mix() {
        let a = mixed_schedule(5, 40, Scale::Full);
        assert_eq!(a, mixed_schedule(5, 40, Scale::Full));
        assert_ne!(a, mixed_schedule(6, 40, Scale::Full));
        let cold = a.iter().filter(|p| matches!(p, Planned::Region(_))).count();
        assert_eq!(cold, 8, "two cold batches per block of ten");
    }
}

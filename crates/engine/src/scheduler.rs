//! Region-carved multi-tenant scheduling: one large chip, many small
//! workloads, with carved regions kept alive across batches.
//!
//! A service batch is dominated by jobs far narrower than the device they
//! target — every 6-qubit UCCSD job would otherwise monopolize a 130-node
//! heavy-hex chip. The [`RegionScheduler`] packs compatible jobs (same
//! device, width within the region budget) onto disjoint connected
//! [`Region`]s ([`CouplingGraph::carve`]), compiles each job against its
//! *induced subgraph* through the ordinary worker pool — so per-job
//! results are content-addressed exactly like whole-chip compiles, keyed
//! by the induced graph — and relabels every circuit and layout back into
//! global device coordinates. Each device keeps a **free-list of resident
//! regions**, and the region lifecycle is
//!
//! > carve → resident → (busy ⇄ free, per-region FIFO queue) → defrag →
//! > release
//!
//! * **Carve.** Jobs the free-list cannot host are carved for in one
//!   whole-group carve of `width + slack_for_width(width)` qubits each,
//!   walking the slack ladder down before deferring the widest job. A
//!   fresh scheduler's first round is therefore exactly a direct
//!   [`CouplingGraph::carve`] of those sizes.
//! * **Bin-packing reuse.** An incoming job lands on a free resident
//!   region whose size sits inside the job's grant window
//!   (`width ..= width + slack_for_width(width)`) — no carve at all. The
//!   largest compatible size wins, then creation order, which reproduces
//!   the positional job→region mapping of the cold carve for repeat-shape
//!   traffic: warm results stay bit-identical to the cold ones.
//! * **Per-region FIFO queues.** When the chip is full and a
//!   size-compatible region exists, the job takes a ticket on the shortest
//!   queue and runs when the region frees, instead of failing over to a
//!   whole-chip compile.
//! * **Defragmentation.** A job whose size no resident region matches and
//!   whose carve fails is *starved by fragmentation*. After two rounds
//!   (`STARVE_ROUNDS`), or immediately once nothing is in flight since
//!   waiting can never un-fragment an idle chip, the defragmenter
//!   releases every idle region — displacing their queued tickets back to
//!   ordinary placement — and re-carves for the starving width on the
//!   compacted chip. Only when even the re-carve on an otherwise empty
//!   chip fails (or the job is wider than the device) does the job fall
//!   back to whole-chip compilation — regions are an optimization, never
//!   a correctness gate.
//! * **Resident artifact cache.** The relabeled output of (job, region) is
//!   itself content-addressed (domain `tetris-resident/v1`, folding the
//!   workload, backend, device and region fingerprints — which together
//!   determine the induced subgraph, so the induced graph is only *built*
//!   on a miss), and repeat traffic skips compilation *and* relabeling:
//!   the steady-state cost of a resident job is one key derivation and one
//!   cache lookup. Isomorphic regions still share the underlying compile
//!   entries for free — induced fingerprints depend only on local wiring.
//!
//! The scheduler is safe to share across server worker threads: placement
//! decisions serialize on a per-device mutex, compiles run on the engine's
//! worker pool with the lock released, and waiters park on a condvar that
//! region releases notify.

use crate::backend::{CompileBackend, EngineOutput};
use crate::job::{CompileJob, JobResult};
use crate::pool::Engine;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tetris_obs::trace::Stage;
use tetris_obs::StageTimings;
use tetris_pauli::fingerprint::Fingerprint64;
use tetris_pauli::QubitMask;
use tetris_topology::{CouplingGraph, Region};

/// Rounds a fragmentation-starved job waits before the defragmenter runs.
/// On an idle chip the defragmenter runs immediately regardless — waiting
/// cannot free anything when nothing is in flight.
const STARVE_ROUNDS: usize = 2;

/// The measured swaps-vs-slack heuristic (`region_slack` bench, heavy-hex
/// service device, UCC workloads): the routing slack (extra physical
/// qubits beyond the job width) a carved region gets, and the upper edge
/// of the reuse window. Below ~18 qubits extra region qubits never reduced
/// SWAPs — frontier growth parks them on row ends the router never
/// crosses — so narrow jobs get zero slack and leave the capacity to
/// batch-mates. From ~20 qubits up, slack 4 reliably bought 4–7% fewer
/// SWAPs (the wider region spans an extra heavy-hex bridge, opening a
/// routing shortcut). Re-run the bench and update this table if routing
/// behavior shifts.
pub fn slack_for_width(width: usize) -> usize {
    if width >= 18 {
        4
    } else {
        0
    }
}

/// Carves one region per width, walking a slack ladder: every job's full
/// [`slack_for_width`] first, then every job's slack capped at one less,
/// and so on down to zero. A batch that misses by a couple of qubits at
/// full slack lands at the tightest cap that still fits instead of
/// collapsing straight to zero slack. Deterministic: the ladder is a fixed
/// descent and [`CouplingGraph::carve_avoiding`] is deterministic.
fn carve_with_slack_ladder(
    graph: &CouplingGraph,
    widths: &[usize],
    avoid: &QubitMask,
) -> Option<Vec<Region>> {
    let max_slack = widths
        .iter()
        .map(|&w| slack_for_width(w))
        .max()
        .unwrap_or(0);
    let mut tried: Option<Vec<usize>> = None;
    for cap in (0..=max_slack).rev() {
        let sizes: Vec<usize> = widths
            .iter()
            .map(|&w| (w + slack_for_width(w).min(cap)).min(graph.n_qubits()))
            .collect();
        // Lowering the cap below every job's slack leaves the sizes
        // unchanged — skip the redundant carve attempt.
        if tried.as_ref() == Some(&sizes) {
            continue;
        }
        if let Some(regions) = graph.carve_avoiding(&sizes, avoid) {
            return Some(regions);
        }
        tried = Some(sizes);
    }
    None
}

/// Relabels an induced-subgraph compile back into global device
/// coordinates: every gate operand maps through [`Region::to_global`] and
/// the final layout is lifted with [`tetris_topology::Layout::offset_into`].
/// Stats are untouched — depth, durations and gate counts are
/// relabeling-invariant.
fn relabel_output(local: &EngineOutput, region: &Region) -> EngineOutput {
    let mut circuit = tetris_circuit::Circuit::new(region.device_qubits());
    for gate in local.circuit.gates() {
        circuit.push(gate.map_qubits(|q| region.to_global(q)));
    }
    EngineOutput {
        compiler: local.compiler.clone(),
        circuit,
        stats: local.stats,
        final_layout: local.final_layout.as_ref().map(|l| l.offset_into(region)),
        // Relabeling is presentation, not compilation: the original
        // compile's breakdown travels with the artifact unchanged.
        stages: local.stages,
    }
}

/// One carved region on a device's free-list.
#[derive(Debug)]
struct ResidentRegion {
    /// Creation-ordered id, unique per device for the scheduler's
    /// lifetime (defrag never reuses ids).
    id: u64,
    region: Region,
    /// Held by an in-flight wave; free regions are reusable.
    busy: bool,
    /// FIFO of waiting tickets; the head claims the region when it frees.
    queue: VecDeque<u64>,
    jobs_served: u64,
}

/// Mutable per-device scheduling state, behind [`DeviceShared::state`].
#[derive(Debug)]
struct DeviceState {
    graph: Arc<CouplingGraph>,
    regions: Vec<ResidentRegion>,
    /// Union of every resident region's qubits — the carve-avoid mask.
    carved: QubitMask,
    next_region_id: u64,
    next_ticket: u64,
}

impl DeviceState {
    fn queue_depth(&self) -> usize {
        self.regions.iter().map(|r| r.queue.len()).sum()
    }

    fn any_busy(&self) -> bool {
        self.regions.iter().any(|r| r.busy)
    }
}

/// A device's state plus the condvar that region releases notify.
#[derive(Debug)]
struct DeviceShared {
    state: Mutex<DeviceState>,
    released: Condvar,
}

/// Monotonic event counters, shared across devices and batches.
#[derive(Debug, Default)]
struct Totals {
    carves_performed: AtomicU64,
    carves_skipped: AtomicU64,
    defrags: AtomicU64,
    displaced: AtomicU64,
    regions_released: AtomicU64,
}

/// Cumulative scheduler counters plus a point-in-time residency summary —
/// the numbers behind `tetris_carves_*_total` and the `GET /stats`
/// scheduler section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Regions carved (including defragmentation re-carves).
    pub carves_performed: u64,
    /// Placements served by the free-list or a queue ticket — no carve.
    pub carves_skipped: u64,
    /// Defragmenter runs.
    pub defrags: u64,
    /// Queued tickets displaced by defragmentation.
    pub displaced: u64,
    /// Regions released back to the chip by defragmentation.
    pub regions_released: u64,
    /// Resident regions across all devices, right now.
    pub resident_regions: usize,
    /// Physical qubits covered by resident regions, right now.
    pub resident_qubits: usize,
    /// Waiting tickets across all region queues, right now.
    pub queue_depth: usize,
}

impl SchedulerStats {
    /// Fraction of placements that skipped carving. 1.0 when nothing was
    /// placed yet.
    pub fn carve_skip_ratio(&self) -> f64 {
        let total = self.carves_performed + self.carves_skipped;
        if total == 0 {
            return 1.0;
        }
        self.carves_skipped as f64 / total as f64
    }
}

/// One resident region as reported by `GET /regions`.
#[derive(Debug, Clone)]
pub struct RegionSnapshot {
    /// Creation-ordered region id (unique per device).
    pub id: u64,
    /// Global physical qubits of the region, ascending.
    pub qubits: Vec<usize>,
    /// Whether an in-flight wave holds the region right now.
    pub busy: bool,
    /// Waiting tickets on this region's FIFO.
    pub queue_depth: usize,
    /// Jobs this region has completed since it was carved.
    pub jobs_served: u64,
}

/// One device's resident regions, for `GET /regions`.
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    /// Device name (as carried by the coupling graph).
    pub device: String,
    /// Physical qubits on the device.
    pub device_qubits: usize,
    /// Qubits covered by resident regions.
    pub resident_qubits: usize,
    /// The resident regions, in creation order.
    pub regions: Vec<RegionSnapshot>,
}

/// What one [`RegionScheduler::schedule_batch`] call did: per-batch
/// deltas of the scheduler counters plus round/queue telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentReport {
    /// Scheduling rounds the batch took (1 when everything placed at
    /// once).
    pub rounds: usize,
    /// Regions carved for this batch (including defrag re-carves).
    pub carves_performed: u64,
    /// Placements served without carving (free-list reuse + tickets).
    pub carves_skipped: u64,
    /// Defragmenter runs triggered by this batch.
    pub defrags: u64,
    /// Tickets displaced by this batch's defragmentations.
    pub displaced: u64,
    /// Jobs that fell back to whole-chip compilation.
    pub leftover: usize,
    /// Largest total queue depth observed across the batch's rounds.
    pub peak_queue_depth: usize,
}

/// The scheduler's answer for a batch: per-job results in submission
/// order (placed jobs relabeled into global coordinates with
/// [`JobResult::region`] set, leftovers compiled whole-chip) plus the
/// batch report.
#[derive(Debug)]
pub struct ResidentBatch {
    /// One result per submitted job, in submission order.
    pub results: Vec<JobResult>,
    /// What scheduling this batch cost.
    pub report: ResidentReport,
}

/// One batch job still looking for a region.
struct PendingJob {
    /// Position in the submitted batch.
    index: usize,
    width: usize,
    /// `(region id, ticket)` while waiting on a region's FIFO.
    ticket: Option<(u64, u64)>,
    /// Rounds spent starved by fragmentation (no compatible region, carve
    /// failed).
    starved: usize,
}

/// The content address of a relabeled resident artifact, domain-separated
/// from per-job keys. Folds the workload, backend, *device*
/// graph and region fingerprints — the latter two fully determine the
/// induced subgraph, so the warm path derives the key without ever
/// materializing the induced graph (that construction is deferred to the
/// cache-miss arm of [`RegionScheduler::compile_wave`]). The workload and
/// device fingerprints are the job's carried ones when it has them.
fn resident_key(job: &CompileJob, region: &Region) -> u64 {
    let (hamiltonian, graph) = job.content_fingerprints();
    let mut h = Fingerprint64::new();
    h.write_bytes(b"tetris-resident/v1");
    h.write_u64(hamiltonian);
    h.write_u64(job.backend.fingerprint());
    h.write_u64(graph);
    h.write_u64(region.fingerprint());
    h.finish()
}

/// [`carve_with_slack_ladder`] with the carve wall recorded into the
/// `tetris_stage_seconds{stage="carve"}` histogram.
fn timed_carve(graph: &CouplingGraph, widths: &[usize], avoid: &QubitMask) -> Option<Vec<Region>> {
    let t0 = Instant::now();
    let carved = carve_with_slack_ladder(graph, widths, avoid);
    if tetris_obs::enabled() {
        tetris_obs::global()
            .histogram("tetris_stage_seconds", &[("stage", Stage::Carve.name())])
            .observe(t0.elapsed().as_secs_f64());
    }
    carved
}

/// Pushes the per-device residency gauges. No-op while observability is
/// off; the server also re-syncs these at scrape time.
fn push_gauges(st: &DeviceState) {
    if !tetris_obs::enabled() {
        return;
    }
    let g = tetris_obs::global();
    g.gauge("tetris_region_occupancy", &[("device", st.graph.name())])
        .set(st.carved.count() as i64);
    g.gauge("tetris_region_queue_depth", &[("device", st.graph.name())])
        .set(st.queue_depth() as i64);
}

/// The resident-region scheduler. One instance serves all devices and all
/// batches of a process; see the module docs for the lifecycle.
#[derive(Debug)]
pub struct RegionScheduler {
    /// Per-device shared state, keyed by graph fingerprint in first-seen
    /// order.
    devices: Mutex<Vec<(u64, Arc<DeviceShared>)>>,
    totals: Totals,
}

impl RegionScheduler {
    /// An empty scheduler: no devices seen, no regions carved. Slack
    /// follows [`slack_for_width`]; a fragmentation-starved job waits two
    /// rounds before the defragmenter runs.
    pub fn with_default_config() -> Self {
        RegionScheduler {
            devices: Mutex::new(Vec::new()),
            totals: Totals::default(),
        }
    }

    /// Cumulative counters plus the current residency summary.
    pub fn stats(&self) -> SchedulerStats {
        let mut s = SchedulerStats {
            carves_performed: self.totals.carves_performed.load(Ordering::Relaxed),
            carves_skipped: self.totals.carves_skipped.load(Ordering::Relaxed),
            defrags: self.totals.defrags.load(Ordering::Relaxed),
            displaced: self.totals.displaced.load(Ordering::Relaxed),
            regions_released: self.totals.regions_released.load(Ordering::Relaxed),
            ..Default::default()
        };
        for (_, shared) in self.devices.lock().expect("device table lock").iter() {
            let st = shared.state.lock().expect("device state lock");
            s.resident_regions += st.regions.len();
            s.resident_qubits += st.carved.count();
            s.queue_depth += st.queue_depth();
        }
        s
    }

    /// The current resident regions of every device the scheduler has
    /// seen, in first-seen device order.
    pub fn snapshot(&self) -> Vec<DeviceSnapshot> {
        self.devices
            .lock()
            .expect("device table lock")
            .iter()
            .map(|(_, shared)| {
                let st = shared.state.lock().expect("device state lock");
                DeviceSnapshot {
                    device: st.graph.name().to_string(),
                    device_qubits: st.graph.n_qubits(),
                    resident_qubits: st.carved.count(),
                    regions: st
                        .regions
                        .iter()
                        .map(|r| RegionSnapshot {
                            id: r.id,
                            qubits: r.region.mask().to_vec(),
                            busy: r.busy,
                            queue_depth: r.queue.len(),
                            jobs_served: r.jobs_served,
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// The shared state for `graph` (fingerprint `fp`), created on first
    /// sight.
    fn device(&self, graph: &Arc<CouplingGraph>, fp: u64) -> Arc<DeviceShared> {
        let mut devices = self.devices.lock().expect("device table lock");
        if let Some((_, shared)) = devices.iter().find(|(f, _)| *f == fp) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(DeviceShared {
            state: Mutex::new(DeviceState {
                graph: Arc::clone(graph),
                regions: Vec::new(),
                carved: QubitMask::empty(graph.n_qubits()),
                next_region_id: 0,
                next_ticket: 0,
            }),
            released: Condvar::new(),
        });
        devices.push((fp, Arc::clone(&shared)));
        shared
    }

    /// Schedules a batch onto resident regions, compiling through
    /// `engine`'s worker pool, and returns per-job results in submission
    /// order. Regions carved for this batch stay resident for the next
    /// one; see the module docs for the placement rules.
    pub fn schedule_batch(&self, engine: &Engine, jobs: Vec<CompileJob>) -> ResidentBatch {
        // Group by device identity, first-seen order.
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let fp = job.content_fingerprints().1;
            match groups.iter_mut().find(|(gfp, _)| *gfp == fp) {
                Some((_, members)) => members.push(i),
                None => groups.push((fp, vec![i])),
            }
        }

        let mut slots: Vec<Option<JobResult>> = (0..jobs.len()).map(|_| None).collect();
        let mut report = ResidentReport::default();
        for (fp, indices) in groups {
            let shared = self.device(&jobs[indices[0]].graph, fp);
            self.schedule_group(engine, &jobs, &indices, &shared, &mut slots, &mut report);
        }
        let results = slots
            .into_iter()
            .map(|s| s.expect("every job answered"))
            .collect();
        ResidentBatch { results, report }
    }

    /// Runs one device group to completion: rounds of assign → compile →
    /// release until every job has a result.
    fn schedule_group(
        &self,
        engine: &Engine,
        jobs: &[CompileJob],
        indices: &[usize],
        shared: &DeviceShared,
        slots: &mut [Option<JobResult>],
        report: &mut ResidentReport,
    ) {
        let graph = Arc::clone(&jobs[indices[0]].graph);
        let n = graph.n_qubits();
        let mut pending: Vec<PendingJob> = Vec::new();
        let mut leftover: Vec<usize> = Vec::new();
        for &i in indices {
            let width = jobs[i].hamiltonian.n_qubits;
            if width > n {
                // Wider than the device: the whole-chip fallback reports
                // the compiler's own error.
                leftover.push(i);
                report.leftover += 1;
            } else {
                pending.push(PendingJob {
                    index: i,
                    width,
                    ticket: None,
                    starved: 0,
                });
            }
        }

        while !pending.is_empty() || !leftover.is_empty() {
            report.rounds += 1;
            let mut wave: Vec<(usize, u64, Region)> = Vec::new();
            {
                let mut st = shared.state.lock().expect("device state lock");
                self.assign_round(&mut st, &mut pending, &mut wave, &mut leftover, report);
                report.peak_queue_depth = report.peak_queue_depth.max(st.queue_depth());
                push_gauges(&st);
                if wave.is_empty() && leftover.is_empty() {
                    // Nothing runnable this round: every pending job is
                    // waiting on a region another batch holds. Park until
                    // a release; the timeout guards against a missed
                    // notification.
                    let _ = shared
                        .released
                        .wait_timeout(st, Duration::from_millis(50))
                        .expect("device state lock");
                    continue;
                }
            }
            let round_leftover = std::mem::take(&mut leftover);
            self.compile_wave(engine, jobs, &graph, shared, wave, round_leftover, slots);
        }
    }

    /// One assignment round under the device lock. Order matters for
    /// determinism: ticket claims first (FIFO heads onto freed regions),
    /// then free-list reuse, then one whole-group carve, then
    /// queue/starve/defrag for whatever is left.
    fn assign_round(
        &self,
        st: &mut DeviceState,
        pending: &mut Vec<PendingJob>,
        wave: &mut Vec<(usize, u64, Region)>,
        leftover: &mut Vec<usize>,
        report: &mut ResidentReport,
    ) {
        let graph = Arc::clone(&st.graph);
        let n = graph.n_qubits();

        // (a) Ticket holders claim their region once it is free and their
        // ticket reached the head of the FIFO.
        let mut k = 0;
        while k < pending.len() {
            let job = &mut pending[k];
            let mut assigned = None;
            if let Some((rid, ticket)) = job.ticket {
                match st.regions.iter_mut().find(|r| r.id == rid) {
                    // Defrag released the region since we queued: fall
                    // back to ordinary placement below.
                    None => job.ticket = None,
                    Some(r) => {
                        if !r.busy && r.queue.front() == Some(&ticket) {
                            r.queue.pop_front();
                            r.busy = true;
                            assigned = Some((job.index, r.id, r.region.clone()));
                        }
                    }
                }
            }
            match assigned {
                Some(entry) => {
                    wave.push(entry);
                    report.carves_skipped += 1;
                    self.totals.carves_skipped.fetch_add(1, Ordering::Relaxed);
                    pending.remove(k);
                }
                None => k += 1,
            }
        }

        // (b) Free-list reuse: an idle, unqueued region whose size sits in
        // the grant window serves the job with no carve. Largest size
        // first (what a fresh full-slack carve would produce), then
        // creation order — reproducing the cold carve's positional
        // mapping on repeat-shape traffic, which keeps warm artifacts
        // digest-identical to cold ones.
        let mut k = 0;
        while k < pending.len() {
            if pending[k].ticket.is_some() {
                k += 1;
                continue;
            }
            let width = pending[k].width;
            let grant_hi = (width + slack_for_width(width)).min(n);
            let pick = st
                .regions
                .iter_mut()
                .filter(|r| !r.busy && r.queue.is_empty())
                .filter(|r| r.region.len() >= width && r.region.len() <= grant_hi)
                .max_by_key(|r| (r.region.len(), std::cmp::Reverse(r.id)));
            match pick {
                Some(r) => {
                    r.busy = true;
                    wave.push((pending[k].index, r.id, r.region.clone()));
                    report.carves_skipped += 1;
                    self.totals.carves_skipped.fetch_add(1, Ordering::Relaxed);
                    pending.remove(k);
                }
                None => k += 1,
            }
        }

        // (c) One whole-group carve for everything still unplaced, so a
        // fresh device yields exactly the regions of a direct carve of the
        // batch's grant sizes. On failure the widest candidate is deferred
        // to queueing/defrag instead of shed whole-chip, and the rest
        // retry.
        let drained: Vec<PendingJob> = std::mem::take(pending);
        let (mut group, rest): (Vec<_>, Vec<_>) =
            drained.into_iter().partition(|j| j.ticket.is_none());
        let mut deferred: Vec<PendingJob> = Vec::new();
        while !group.is_empty() {
            let widths: Vec<usize> = group.iter().map(|j| j.width).collect();
            match timed_carve(&graph, &widths, &st.carved) {
                Some(regions) => {
                    for (job, region) in group.drain(..).zip(regions) {
                        st.carved.union_with(region.mask());
                        let id = st.next_region_id;
                        st.next_region_id += 1;
                        st.regions.push(ResidentRegion {
                            id,
                            region: region.clone(),
                            busy: true,
                            queue: VecDeque::new(),
                            jobs_served: 0,
                        });
                        wave.push((job.index, id, region));
                        report.carves_performed += 1;
                        self.totals.carves_performed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    let widest = group
                        .iter()
                        .enumerate()
                        .max_by_key(|(pos, j)| (j.width, *pos))
                        .map(|(pos, _)| pos)
                        .expect("non-empty group");
                    deferred.push(group.remove(widest));
                }
            }
        }
        let mut back = rest;
        back.extend(deferred);
        back.sort_by_key(|j| j.index);

        // (d) Whatever remains either queues on a size-compatible region
        // or is starved by fragmentation (defrag past the threshold).
        for mut job in back {
            if job.ticket.is_some() {
                pending.push(job);
                continue;
            }
            let width = job.width;
            let grant_hi = (width + slack_for_width(width)).min(n);
            let target = st
                .regions
                .iter_mut()
                .filter(|r| r.region.len() >= width && r.region.len() <= grant_hi)
                .min_by_key(|r| (r.queue.len(), std::cmp::Reverse(r.region.len()), r.id));
            if let Some(r) = target {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                r.queue.push_back(ticket);
                job.ticket = Some((r.id, ticket));
                pending.push(job);
                continue;
            }
            job.starved += 1;
            // On an idle chip waiting never helps: the free set cannot
            // grow without a release, and nothing is in flight.
            let idle = !st.any_busy();
            if job.starved >= STARVE_ROUNDS || idle {
                if let Some((id, region)) = self.defrag_for(st, width, report) {
                    wave.push((job.index, id, region));
                    continue;
                }
                if !st.any_busy() {
                    // Even an empty chip cannot host the grant: compile
                    // whole-chip.
                    leftover.push(job.index);
                    report.leftover += 1;
                    continue;
                }
            }
            pending.push(job);
        }
    }

    /// Releases every idle region (displacing their queued tickets back
    /// to ordinary placement) and re-carves for the starving `width` on
    /// the compacted chip. Returns the new busy region on success.
    fn defrag_for(
        &self,
        st: &mut DeviceState,
        width: usize,
        report: &mut ResidentReport,
    ) -> Option<(u64, Region)> {
        let mut released = 0u64;
        let mut displaced = 0u64;
        st.regions.retain(|r| {
            if r.busy {
                return true;
            }
            displaced += r.queue.len() as u64;
            released += 1;
            false
        });
        let mut carved = QubitMask::empty(st.graph.n_qubits());
        for r in &st.regions {
            carved.union_with(r.region.mask());
        }
        st.carved = carved;
        report.defrags += 1;
        report.displaced += displaced;
        self.totals.defrags.fetch_add(1, Ordering::Relaxed);
        self.totals
            .displaced
            .fetch_add(displaced, Ordering::Relaxed);
        self.totals
            .regions_released
            .fetch_add(released, Ordering::Relaxed);

        let regions = timed_carve(&st.graph, &[width], &st.carved)?;
        let region = regions.into_iter().next().expect("one size, one region");
        st.carved.union_with(region.mask());
        let id = st.next_region_id;
        st.next_region_id += 1;
        st.regions.push(ResidentRegion {
            id,
            region: region.clone(),
            busy: true,
            queue: VecDeque::new(),
            jobs_served: 0,
        });
        report.carves_performed += 1;
        self.totals.carves_performed.fetch_add(1, Ordering::Relaxed);
        Some((id, region))
    }

    /// Compiles one round's wave (plus any whole-chip leftovers) on the
    /// engine pool, relabels into global coordinates, then releases the
    /// wave's regions back to the free-list and wakes waiters.
    #[allow(clippy::too_many_arguments)]
    fn compile_wave(
        &self,
        engine: &Engine,
        jobs: &[CompileJob],
        graph: &Arc<CouplingGraph>,
        shared: &DeviceShared,
        wave: Vec<(usize, u64, Region)>,
        leftover: Vec<usize>,
        slots: &mut [Option<JobResult>],
    ) {
        let on = tetris_obs::enabled();
        let mut sub_jobs: Vec<CompileJob> = Vec::new();
        let mut origin: Vec<(usize, Option<(Region, u64)>)> = Vec::new();
        for (index, _, region) in &wave {
            let job = &jobs[*index];
            // Resident fast path: the relabeled artifact itself is
            // content-addressed without building the induced subgraph, so
            // repeat traffic skips induction, compile AND relabel.
            let t0 = Instant::now();
            let rkey = resident_key(job, region);
            match engine.cache().get(rkey) {
                Some(hit) => {
                    let mut stages = StageTimings::default();
                    if on {
                        stages.add(Stage::CacheLookup, t0.elapsed().as_secs_f64());
                    }
                    let result = JobResult {
                        index: *index,
                        name: job.name.clone(),
                        compiler: hit.compiler.clone(),
                        cache_key: rkey,
                        cached: true,
                        engine_seconds: t0.elapsed().as_secs_f64(),
                        error: None,
                        region: Some(region.clone()),
                        stages,
                        output: hit,
                    };
                    // A hit never reaches a pool worker, so it is recorded
                    // here exactly as a worker records its jobs.
                    engine.observe(&result);
                    slots[*index] = Some(result);
                }
                None => {
                    let induced = Arc::new(graph.induced(region));
                    let induced_fp = induced.fingerprint();
                    sub_jobs.push(CompileJob::with_fingerprints(
                        job.name.clone(),
                        job.backend,
                        (job.hamiltonian.clone(), job.content_fingerprints().0),
                        (induced, induced_fp),
                    ));
                    origin.push((*index, Some((region.clone(), rkey))));
                }
            }
        }
        for &i in &leftover {
            sub_jobs.push(jobs[i].clone());
            origin.push((i, None));
        }

        if !sub_jobs.is_empty() {
            let sub_results = engine.compile_batch(sub_jobs);
            for (mut result, (index, placed)) in sub_results.into_iter().zip(origin) {
                result.index = index;
                if let Some((region, rkey)) = placed {
                    if result.error.is_none() {
                        let relabeled = relabel_output(&result.output, &region);
                        result.output = engine.cache().insert(rkey, relabeled);
                    }
                    result.cache_key = rkey;
                    result.region = Some(region);
                }
                slots[index] = Some(result);
            }
        }

        let mut st = shared.state.lock().expect("device state lock");
        for (_, rid, _) in &wave {
            if let Some(r) = st.regions.iter_mut().find(|r| r.id == *rid) {
                r.busy = false;
                r.jobs_served += 1;
            }
        }
        push_gauges(&st);
        shared.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_follows_measured_heuristic() {
        // The region_slack bench: no slack pays off below ~18 qubits,
        // slack 4 wins from ~20 up.
        assert_eq!(slack_for_width(3), 0);
        assert_eq!(slack_for_width(16), 0);
        assert_eq!(slack_for_width(18), 4);
        assert_eq!(slack_for_width(20), 4);
        assert_eq!(slack_for_width(24), 4);
    }

    #[test]
    fn slack_ladder_tries_intermediate_slacks_at_the_perwidth_boundary() {
        // Two 18-qubit jobs on a 40-qubit line. Full slack wants
        // 22 + 22 = 44 > 40 and fails; dropping straight to zero slack
        // (18 + 18 = 36) would waste 4 qubits of routing freedom. The
        // ladder lands at cap 2: 20 + 20 = 40 exactly.
        let graph = CouplingGraph::line(40);
        let regions = carve_with_slack_ladder(&graph, &[18, 18], &QubitMask::empty(40))
            .expect("the ladder finds a fit");
        assert_eq!(regions.len(), 2);
        for region in &regions {
            assert_eq!(region.len(), 20, "intermediate slack 2, not 0 or 4");
            assert!(graph.is_region_connected(region));
        }
        assert!(regions[0].is_disjoint_from(&regions[1]));
    }
}

//! Per-job stage tracing.
//!
//! A compile job flows through well-known stages — queue wait, cache
//! lookup, the compiler's scheduling/clustering/synthesis/routing phases,
//! disk IO, region carving — and this module attributes wall time to
//! them without threading a context object through every signature: the
//! engine worker opens a thread-local *scope* ([`begin_scope`]), deep
//! pipeline code records into it ([`record`], [`StageTimer`], [`timed`]),
//! and the worker closes it ([`take_scope`]) to obtain the job's
//! [`StageTimings`]. With the layer disabled ([`crate::set_enabled`])
//! scopes never open and every recording helper is a thread-local read
//! plus one branch.
//!
//! Completed jobs are additionally pushed into a bounded process-wide
//! ring of [`TraceEvent`]s ([`push_event`] / [`recent`]) — the server's
//! `GET /trace` endpoint and `--trace-log` JSONL writer drain it-adjacent
//! data from the job results themselves; the ring exists so the last
//! moments before an incident are inspectable without any log configured.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of stages in [`Stage::ALL`] (and slots in [`StageTimings`]).
pub const N_STAGES: usize = 11;

/// A compile-pipeline stage wall time can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in the engine queue between submission and a worker
    /// dequeuing the job.
    QueueWait,
    /// Result-cache lookup (memory tier bookkeeping; disk decode time is
    /// attributed to [`Stage::DiskIo`]).
    CacheLookup,
    /// Block scheduling — choosing the order blocks are synthesized in:
    /// Tetris's lookahead scoring, PCOAST's greedy block chain.
    Scheduling,
    /// Placement: Tetris's cluster formation (tree center, gathering,
    /// leaf attachment, SWAP insertion — Algorithm 1's placement half),
    /// Paulihedral's connected-component tree growth with its SWAPs, and
    /// the QAOA pass's and 2QAN's initial layout search.
    Clustering,
    /// Circuit synthesis: ordering strings and emitting blocks onto a tree
    /// (Tetris, Paulihedral), or the whole logical circuit of the
    /// hardware-oblivious baselines (TKet, max_cancel, PCOAST).
    Synthesis,
    /// SWAP routing: the SABRE-style router of TKet, max_cancel and
    /// PCOAST, and the executable-first emission loops of the QAOA pass
    /// (bridging) and 2QAN.
    Routing,
    /// Gate cancellation passes: the shared peephole of every compiler's
    /// finishing step, plus the logical pre-routing pass of the routed
    /// baselines.
    Optimize,
    /// Disk-cache tier IO: encode+write on store, read+decode on load.
    DiskIo,
    /// Region placement — carving the device into disjoint regions.
    Carve,
    /// Reserved: nothing records it. The slot keeps its index so the
    /// TEOC v2 stage section (and its golden digest) stays unchanged.
    Merge,
    /// Instrumented-region remainder: wall time inside a measured span not
    /// claimed by any finer stage.
    Other,
}

impl Stage {
    /// Every stage, in canonical (wire and storage) order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::Scheduling,
        Stage::Clustering,
        Stage::Synthesis,
        Stage::Routing,
        Stage::Optimize,
        Stage::DiskIo,
        Stage::Carve,
        Stage::Merge,
        Stage::Other,
    ];

    /// The stage's snake_case wire name (JSON keys, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::Scheduling => "scheduling",
            Stage::Clustering => "clustering",
            Stage::Synthesis => "synthesis",
            Stage::Routing => "routing",
            Stage::Optimize => "optimize",
            Stage::DiskIo => "disk_io",
            Stage::Carve => "carve",
            Stage::Merge => "merge",
            Stage::Other => "other",
        }
    }

    /// The stage's slot in [`Stage::ALL`] / [`StageTimings`].
    pub fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("in ALL")
    }
}

/// Wall seconds attributed to each [`Stage`] — one job's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    secs: [f64; N_STAGES],
}

impl StageTimings {
    /// Adds `secs` to `stage`'s slot.
    pub fn add(&mut self, stage: Stage, secs: f64) {
        self.secs[stage.index()] += secs;
    }

    /// Seconds attributed to `stage`.
    pub fn get(&self, stage: Stage) -> f64 {
        self.secs[stage.index()]
    }

    /// Adds every slot of `other` into `self` (aggregation across jobs or
    /// sub-spans).
    pub fn merge(&mut self, other: &StageTimings) {
        for i in 0..N_STAGES {
            self.secs[i] += other.secs[i];
        }
    }

    /// Iterates `(stage, seconds)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, f64)> + '_ {
        Stage::ALL.iter().map(move |&s| (s, self.secs[s.index()]))
    }

    /// Sum over every stage, including queue wait.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Sum over the stages a worker actually executes — everything except
    /// [`Stage::QueueWait`]. By construction this tracks the engine's
    /// per-job `engine_seconds` wall.
    pub fn busy_total(&self) -> f64 {
        self.total() - self.get(Stage::QueueWait)
    }

    /// Whether every slot is exactly zero (nothing was recorded).
    pub fn is_zero(&self) -> bool {
        self.secs.iter().all(|&s| s == 0.0)
    }

    /// The raw per-stage values in canonical order (codec use).
    pub fn values(&self) -> &[f64; N_STAGES] {
        &self.secs
    }

    /// Rebuilds timings from canonical-order values (codec use).
    pub fn from_values(secs: [f64; N_STAGES]) -> Self {
        StageTimings { secs }
    }
}

thread_local! {
    static SCOPE: Cell<Option<StageTimings>> = const { Cell::new(None) };
}

/// Opens a fresh stage-timing scope on the calling thread, discarding any
/// previous one. No-op (no scope opens) while the observability layer is
/// disabled, which turns every downstream [`record`] into a cheap branch.
pub fn begin_scope() {
    SCOPE.with(|s| {
        s.set(if crate::metrics::enabled() {
            Some(StageTimings::default())
        } else {
            None
        })
    });
}

/// Closes the calling thread's scope, returning what was recorded (all
/// zeros when no scope was open).
pub fn take_scope() -> StageTimings {
    SCOPE.with(|s| s.take()).unwrap_or_default()
}

/// Whether a scope is open on the calling thread.
pub fn scope_active() -> bool {
    SCOPE.with(|s| {
        let v = s.get();
        s.set(v);
        v.is_some()
    })
}

/// Attributes `secs` to `stage` in the calling thread's open scope (no-op
/// without one).
pub fn record(stage: Stage, secs: f64) {
    SCOPE.with(|s| {
        if let Some(mut t) = s.get() {
            t.add(stage, secs);
            s.set(Some(t));
        }
    });
}

/// A started span: measures from construction to [`StageTimer::stop`] and
/// records into the open scope. Constructed un-started (`None`) when no
/// scope is open, so an inactive timer costs two branches and no clock
/// reads — the property the <5 % overhead gate relies on.
#[derive(Debug)]
pub struct StageTimer {
    stage: Stage,
    start: Option<Instant>,
}

impl StageTimer {
    /// Starts timing `stage` (inert when no scope is open).
    pub fn start(stage: Stage) -> StageTimer {
        StageTimer {
            stage,
            start: scope_active().then(Instant::now),
        }
    }

    /// Stops the span, records it, and returns the measured seconds (0
    /// when the timer was inert).
    pub fn stop(self) -> f64 {
        match self.start {
            None => 0.0,
            Some(t0) => {
                let secs = t0.elapsed().as_secs_f64();
                record(self.stage, secs);
                secs
            }
        }
    }
}

/// Runs `f`, attributing its wall time to `stage` in the open scope.
pub fn timed<T>(stage: Stage, f: impl FnOnce() -> T) -> T {
    let timer = StageTimer::start(stage);
    let out = f();
    timer.stop();
    out
}

// ------------------------------------------------------------- trace ring

/// Capacity of the in-process ring of recent trace events.
pub const RING_CAPACITY: usize = 1024;

/// One completed job, as remembered by the trace ring.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Milliseconds since the Unix epoch at completion.
    pub unix_ms: u64,
    /// The job's label.
    pub job: String,
    /// The backend's report name.
    pub compiler: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Whether the backend failed.
    pub error: bool,
    /// Wall seconds the job spent in the engine.
    pub engine_seconds: f64,
    /// The job's stage timeline.
    pub stages: StageTimings,
}

fn ring() -> &'static Mutex<VecDeque<TraceEvent>> {
    static RING: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

/// Appends an event to the bounded ring (oldest events drop first). No-op
/// while the observability layer is disabled.
pub fn push_event(event: TraceEvent) {
    if !crate::metrics::enabled() {
        return;
    }
    let mut ring = ring().lock().expect("trace ring lock");
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(event);
}

/// The most recent `n` events, oldest first.
pub fn recent(n: usize) -> Vec<TraceEvent> {
    let ring = ring().lock().expect("trace ring lock");
    ring.iter().rev().take(n).rev().cloned().collect()
}

/// Builds a [`TraceEvent`] stamped with the current wall clock.
pub fn event_now(
    job: impl Into<String>,
    compiler: impl Into<String>,
    cached: bool,
    error: bool,
    engine_seconds: f64,
    stages: StageTimings,
) -> TraceEvent {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    TraceEvent {
        unix_ms,
        job: job.into(),
        compiler: compiler.into(),
        cached,
        error,
        engine_seconds,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_collect_and_reset() {
        begin_scope();
        record(Stage::Synthesis, 0.5);
        record(Stage::Synthesis, 0.25);
        record(Stage::Routing, 1.0);
        let t = take_scope();
        assert_eq!(t.get(Stage::Synthesis), 0.75);
        assert_eq!(t.get(Stage::Routing), 1.0);
        assert_eq!(t.total(), 1.75);
        // The scope is consumed: further records go nowhere.
        record(Stage::Synthesis, 9.0);
        assert!(take_scope().is_zero());
    }

    #[test]
    fn timers_are_inert_without_a_scope() {
        assert!(!scope_active());
        let timer = StageTimer::start(Stage::Clustering);
        assert_eq!(timer.stop(), 0.0);
        let out = timed(Stage::Routing, || 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn busy_total_excludes_queue_wait() {
        let mut t = StageTimings::default();
        t.add(Stage::QueueWait, 5.0);
        t.add(Stage::Synthesis, 1.0);
        t.add(Stage::Other, 0.5);
        assert_eq!(t.total(), 6.5);
        assert_eq!(t.busy_total(), 1.5);
    }

    #[test]
    fn stage_names_and_indices_are_canonical() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "queue_wait",
                "cache_lookup",
                "scheduling",
                "clustering",
                "synthesis",
                "routing",
                "optimize",
                "disk_io",
                "carve",
                "merge",
                "other"
            ]
        );
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        for i in 0..(RING_CAPACITY + 10) {
            push_event(event_now(
                format!("job{i}"),
                "Tetris",
                false,
                false,
                0.1,
                StageTimings::default(),
            ));
        }
        let tail = recent(5);
        assert_eq!(tail.len(), 5);
        assert_eq!(
            tail.last().unwrap().job,
            format!("job{}", RING_CAPACITY + 9)
        );
        let all = recent(usize::MAX);
        assert!(all.len() <= RING_CAPACITY);
    }
}

//! `mixed-open`: misses and writes beside hits. An open loop at a fixed
//! rate on two connections, against a server with a disk tier: most
//! requests are warm stats-only resubmits of heavy molecule names, the
//! rest cold resident-region batches on a wide device. Cold compiles on
//! the workers, inserts and disk write-through contend with reactor-bound
//! warm requests, and the region scheduler carves and defragments.

use crate::check::{self, Tally};
use crate::client::{Conn, Record};
use crate::server::Server;
use crate::spec::{self, JobSpec, Planned};
use crate::stats::{self, ms};
use crate::{finish, Opts, Outcome, Phase, Report};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Requests per second the generator sends.
pub const RATE: f64 = 6.0;

/// Latency limit of one request, from when it was due to its last byte.
pub const LIMIT_MS: f64 = 250.0;

/// Set-ups per run (server start plus pre-seeding); the median is
/// reported.
const SETUP_REPS: usize = 3;

/// A traced client probes `/healthz` after every this many requests.
const HEALTHZ_EVERY: usize = 4;

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let heavy = spec::heavy_set(opts.scale);
    let mut tally = Tally::new(opts.corrupt_digest);
    let disk = |rep: usize| Some(opts.workdir.join(format!("disk-{rep}")));
    let (server, secs) = Server::seeded(disk(0), opts.max_inflight, &heavy, &mut tally)?;
    let mut setup_s = vec![secs];
    let n_base = requests(opts.base_seconds());
    let n_traced = if opts.trace {
        requests(opts.seconds / 2.0)
    } else {
        0
    };
    let plan = spec::mixed_schedule(opts.seed, n_base + n_traced, opts.scale);
    let mut conns = [server.connect()?, server.connect()?];
    let base = measure(&server, &plan[..n_base], &mut conns, false, &mut tally);
    let traced = opts
        .trace
        .then(|| measure(&server, &plan[n_base..], &mut conns, true, &mut tally));
    let peak_rss_mb = stats::peak_rss_mb();
    drop(conns);
    drop(server);
    // The other set-ups run after the memory reading (see `warm`).
    for rep in 1..SETUP_REPS {
        setup_s.push(Server::seeded(disk(rep), opts.max_inflight, &heavy, &mut tally)?.1);
    }
    let quality = tally.quality(|k| k.region.is_none() && heavy.contains(&k.spec));
    let first_region = plan.iter().find_map(|p| match p {
        Planned::Region(jobs) => Some(jobs.clone()),
        Planned::Warm(_) => None,
    });
    let region_jobs = first_region.unwrap_or_default();
    let out = Outcome {
        setup_s,
        base,
        traced,
        primary: |p| stats::median(&p.latencies_ms),
        quality,
        peak_rss_mb,
        post_body: spec::batch_body(&region_jobs, true, true),
        jobs: heavy.iter().cloned().chain(region_jobs).collect(),
    };
    finish(opts, tally, out)
}

fn requests(seconds: f64) -> usize {
    ((RATE * seconds).ceil() as usize).max(1)
}

type Served = Vec<(JobSpec, Option<Record>)>;

/// Sends `plan` on schedule: request `i` is due `i / RATE` seconds after
/// the start, whichever connection is free takes it, and its latency runs
/// from when it was due.
fn measure(
    server: &Server,
    plan: &[Planned],
    conns: &mut [Conn; 2],
    traced: bool,
    tally: &mut Tally,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let results: Vec<(Phase, Served, Instant)> = std::thread::scope(|s| {
        let senders: Vec<_> = conns
            .iter_mut()
            .map(|conn| s.spawn(|| sender(conn, plan, start, &next, traced)))
            .collect();
        senders
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut last = start;
    for (p, served, done) in results {
        phase.absorb(p);
        last = last.max(done);
        for (job, rec) in served {
            match rec {
                Some(rec) => tally.served(&job, &rec),
                None => tally.failed(1),
            }
        }
    }
    phase.elapsed_s = (last - start).as_secs_f64();
    phase.walls_s.push(phase.elapsed_s);
    phase.hit_ratio = server.state.engine().cache_stats().hit_ratio();
    phase
}

/// One connection's share of the schedule.
fn sender(
    conn: &mut Conn,
    plan: &[Planned],
    start: Instant,
    next: &AtomicUsize,
    traced: bool,
) -> (Phase, Served, Instant) {
    let mut phase = Phase::default();
    let mut served = Vec::new();
    let mut last = start;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(planned) = plan.get(i) else { break };
        let due = start + Duration::from_secs_f64(i as f64 / RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (jobs, resident) = match planned {
            Planned::Warm(job) => (vec![job.clone()], false),
            Planned::Region(jobs) => (jobs.clone(), true),
        };
        let result = conn.call("POST", "/batch", &spec::batch_body(&jobs, true, resident));
        let Ok((sent, r)) = result else {
            phase.request(None, LIMIT_MS);
            served.extend(jobs.into_iter().map(|j| (j, None)));
            break;
        };
        last = r.done;
        phase.late_ms.push(ms(sent.saturating_duration_since(due)));
        phase.responses += 1;
        phase.response_bytes += r.bytes as u64;
        phase.shed += u64::from(r.status == 503);
        let records = match r.status {
            200 => check::stream_records(&r.frames, jobs.len()),
            _ => vec![None; jobs.len()],
        };
        if let (200, Some((ack, _))) = (r.status, r.frames.first()) {
            phase.ack_ms.push(ms(*ack - sent));
            phase.result_ms.push(ms(r.done - *ack));
        }
        let all_ok = records
            .iter()
            .all(|rec| matches!(rec, Some((_, rec)) if !rec.error));
        phase.request(all_ok.then(|| ms(r.done - due)), LIMIT_MS);
        served.extend(
            jobs.into_iter()
                .zip(records.into_iter().map(|rec| rec.map(|(_, rec)| rec))),
        );
        if traced {
            phase.sample_threads();
            if i.is_multiple_of(HEALTHZ_EVERY) {
                if let Ok((sent, h)) = conn.call("GET", "/healthz", "") {
                    phase.healthz_ms.push(ms(h.done - sent));
                }
            }
        }
    }
    (phase, served, last)
}

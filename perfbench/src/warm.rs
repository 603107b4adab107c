//! `warm-resubmit`: the VQA client loop. A closed loop on two keep-alive
//! connections resubmits names from a pre-seeded set: each request POSTs
//! a one-job batch, then long-polls `GET /job/<id>?wait=1&qasm=1`. No
//! compile runs; the server's parse, JSON, registry rebuild, cache lookup
//! and QASM render on the reactor thread do the work.

use crate::check::Tally;
use crate::client::{self, Conn, Record};
use crate::server::Server;
use crate::spec::{self, JobSpec};
use crate::stats::{self, ms};
use crate::{finish, Opts, Outcome, Phase, Report};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Latency limit of one resubmit, from the POST to the last result byte.
pub const LIMIT_MS: f64 = 500.0;

/// Set-ups per run (server start plus pre-seeding); the median is
/// reported.
const SETUP_REPS: usize = 3;

/// A traced client probes `/healthz` before every this many requests.
const HEALTHZ_EVERY: usize = 8;

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let set = spec::warm_set(opts.seed, opts.scale);
    let mut tally = Tally::new(opts.corrupt_digest);
    let (server, secs) = Server::seeded(None, opts.max_inflight, &set, &mut tally)?;
    let mut setup_s = vec![secs];
    let mut conns = [server.connect()?, server.connect()?];
    let base = measure(
        opts,
        &server,
        &set,
        &mut conns,
        false,
        opts.base_seconds(),
        &mut tally,
    );
    let traced = opts.trace.then(|| {
        measure(
            opts,
            &server,
            &set,
            &mut conns,
            true,
            opts.seconds / 2.0,
            &mut tally,
        )
    });
    let peak_rss_mb = stats::peak_rss_mb();
    drop(conns);
    drop(server);
    // The other set-ups run after the memory reading: heaps freed by one
    // server and not reused by the next would otherwise inflate the peak.
    for _ in 1..SETUP_REPS {
        setup_s.push(Server::seeded(None, opts.max_inflight, &set, &mut tally)?.1);
    }
    let quality = tally.quality(|k| set.contains(&k.spec));
    let out = Outcome {
        setup_s,
        base,
        traced,
        primary: |p| stats::median(&p.latencies_ms),
        quality,
        peak_rss_mb,
        post_body: spec::batch_body(&set[..1], false, false),
        jobs: set,
    };
    finish(opts, tally, out)
}

/// Each served set index with its record (`None` when it failed).
type Served = Vec<(usize, Option<Record>)>;

/// Passes over the set in seeded order, both connections pulling from
/// one deck, until `seconds` have passed. A pass's wall is the time to
/// resubmit the whole set once.
fn measure(
    opts: &Opts,
    server: &Server,
    set: &[JobSpec],
    conns: &mut [Conn; 2],
    traced: bool,
    seconds: f64,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    for pass in 0u64.. {
        let order = spec::permutation(set.len(), opts.seed ^ (pass << 32) ^ u64::from(traced));
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let results: Vec<(Phase, Served)> = std::thread::scope(|s| {
            let clients: Vec<_> = conns
                .iter_mut()
                .map(|conn| s.spawn(|| client_loop(conn, set, &order, &next, traced)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        phase.walls_s.push(t0.elapsed().as_secs_f64());
        for (p, served) in results {
            phase.absorb(p);
            for (i, rec) in served {
                match rec {
                    Some(rec) => tally.served(&set[i], &rec),
                    None => tally.failed(1),
                }
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase.hit_ratio = server.state.engine().cache_stats().hit_ratio();
    phase
}

/// One client's share of a pass.
fn client_loop(
    conn: &mut Conn,
    set: &[JobSpec],
    order: &[usize],
    next: &AtomicUsize,
    traced: bool,
) -> (Phase, Served) {
    let mut phase = Phase::default();
    let mut served = Vec::new();
    for n in 0.. {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&i) = order.get(k) else { break };
        if traced && n % HEALTHZ_EVERY == 0 {
            if let Ok((sent, r)) = conn.call("GET", "/healthz", "") {
                phase.healthz_ms.push(ms(r.done - sent));
            }
        }
        let outcome = resubmit(conn, &set[i], &mut phase);
        let broken = outcome.is_err();
        let outcome = outcome
            .ok()
            .flatten()
            .filter(|(_, rec)| rec.qasm && !rec.error);
        phase.request(outcome.as_ref().map(|(lat, _)| *lat), LIMIT_MS);
        served.push((i, outcome.map(|(_, rec)| rec)));
        if traced {
            phase.sample_threads();
        }
        if broken {
            break;
        }
    }
    (phase, served)
}

/// POST one job, then long-poll its result with QASM. Returns the
/// latency and the record, `None` when the server refused or answered
/// without a result.
fn resubmit(
    conn: &mut Conn,
    job: &JobSpec,
    phase: &mut Phase,
) -> io::Result<Option<(f64, Record)>> {
    let body = spec::batch_body(std::slice::from_ref(job), false, false);
    let (sent, ack) = conn.call("POST", "/batch", &body)?;
    phase.responses += 1;
    phase.response_bytes += ack.bytes as u64;
    phase.shed += u64::from(ack.status == 503);
    let id = match client::job_ids(ack.text()) {
        Some(ids) if ack.status == 200 && ids.len() == 1 => ids[0],
        _ => return Ok(None),
    };
    let (_, r) = conn.call("GET", &format!("/job/{id}?wait=1&qasm=1"), "")?;
    phase.responses += 1;
    phase.response_bytes += r.bytes as u64;
    phase.ack_ms.push(ms(ack.done - sent));
    phase.result_ms.push(ms(r.done - ack.done));
    if r.status != 200 {
        return Ok(None);
    }
    Ok(Record::parse(r.text()).map(|rec| (ms(r.done - sent), rec)))
}

//! `compile-cold`: the full Table I evaluation suite, streamed as one
//! `POST /batch {"stream": true}` to a fresh server per pass, so every job
//! is a cache miss and the compilers and the worker pool do the work.

use crate::check::{self, Tally};
use crate::client::Conn;
use crate::server::Server;
use crate::spec::{self, JobSpec};
use crate::stats::{self, ms};
use crate::{finish, Opts, Outcome, Phase, Report};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Latency limit of one job, from the POST to its streamed result.
pub const LIMIT_MS: f64 = 10_000.0;

/// Extra server starts after measuring: one start takes well under a
/// millisecond, so `setup_s` is the median of many.
const EXTRA_STARTS: usize = 30;

/// Pause between `/healthz` probes during a traced pass.
const HEALTHZ_EVERY: Duration = Duration::from_millis(20);

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let suite = spec::cold_suite(opts.seed, opts.scale);
    let body = spec::batch_body(&suite, true, false);
    let mut run = Run {
        opts,
        suite: &suite,
        body: &body,
        tally: Tally::new(opts.corrupt_digest),
        setup_s: Vec::new(),
        peak_rss_mb: None,
    };
    let base = run.measure(false, opts.base_seconds())?;
    let traced = match opts.trace {
        true => Some(run.measure(true, opts.seconds / 2.0)?),
        false => None,
    };
    let Run {
        tally,
        mut setup_s,
        peak_rss_mb,
        ..
    } = run;
    for _ in 0..EXTRA_STARTS {
        let t0 = Instant::now();
        let server = Server::start(None, opts.max_inflight)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(server);
    }
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(stats::peak_rss_mb);
    let quality = tally.quality(|k| suite.contains(&k.spec));
    let out = Outcome {
        setup_s,
        base,
        traced,
        primary: |p| stats::median(&p.walls_s),
        quality,
        peak_rss_mb,
        post_body: body,
        jobs: suite,
    };
    finish(opts, tally, out)
}

/// What the passes of one run share.
struct Run<'a> {
    opts: &'a Opts,
    suite: &'a [JobSpec],
    body: &'a str,
    tally: Tally,
    setup_s: Vec<f64>,
    /// `VmHWM` after the first pass: later fresh servers reuse freed heap
    /// unevenly, so later readings do not repeat.
    peak_rss_mb: Option<f64>,
}

impl Run<'_> {
    /// Streams the suite to fresh servers, pass after pass, until
    /// `seconds` have passed. Server start-up is the set-up time.
    fn measure(&mut self, traced: bool, seconds: f64) -> Result<Phase, String> {
        let (suite, body) = (self.suite, self.body);
        let mut phase = Phase::default();
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            let server = Server::start(None, self.opts.max_inflight)?;
            self.setup_s.push(t0.elapsed().as_secs_f64());
            let mut conn = server.connect()?;
            let done = AtomicBool::new(false);
            let (result, healthz) = std::thread::scope(|s| {
                let prober = traced.then(|| s.spawn(|| healthz_loop(server.addr, &done)));
                let result = conn.call("POST", "/batch", body);
                done.store(true, Ordering::Relaxed);
                let healthz = prober.map(|h| h.join().expect("healthz prober"));
                (result, healthz.unwrap_or_default())
            });
            phase.healthz_ms.extend(healthz);
            let records = match &result {
                Ok((sent, r)) => {
                    phase.responses += 1;
                    phase.response_bytes += r.bytes as u64;
                    phase.shed += u64::from(r.status == 503);
                    if r.status == 200 {
                        let wall = (r.done - *sent).as_secs_f64();
                        phase.walls_s.push(wall);
                        phase.elapsed_s += wall;
                        if let Some((ack, _)) = r.frames.first() {
                            phase.ack_ms.push(ms(*ack - *sent));
                            phase.result_ms.push(ms(r.done - *ack));
                        }
                        check::stream_records(&r.frames, suite.len())
                    } else {
                        vec![None; suite.len()]
                    }
                }
                Err(_) => vec![None; suite.len()],
            };
            let mut latencies = Vec::new();
            for (job, rec) in suite.iter().zip(records) {
                match (rec, &result) {
                    (Some((at, rec)), Ok((sent, _))) => {
                        self.tally.served(job, &rec);
                        let latency = (!rec.error).then(|| ms(at - *sent));
                        latencies.extend(latency);
                        phase.request(latency, LIMIT_MS);
                    }
                    _ => {
                        self.tally.failed(1);
                        phase.request(None, LIMIT_MS);
                    }
                }
            }
            if !latencies.is_empty() {
                phase.pass_quantiles.push((
                    stats::quantile(&latencies, 0.50),
                    stats::quantile(&latencies, 0.99),
                ));
            }
            self.peak_rss_mb.get_or_insert_with(stats::peak_rss_mb);
            phase.sample_threads();
            phase.hit_ratio = server.state.engine().cache_stats().hit_ratio();
            if started.elapsed().as_secs_f64() >= seconds {
                return Ok(phase);
            }
        }
    }
}

/// Probes `/healthz` on its own connection until `done`.
fn healthz_loop(addr: SocketAddr, done: &AtomicBool) -> Vec<f64> {
    let mut out = Vec::new();
    let Ok(mut conn) = Conn::open(addr) else {
        return out;
    };
    while !done.load(Ordering::Relaxed) {
        match conn.call("GET", "/healthz", "") {
            Ok((sent, r)) if r.status == 200 => out.push(ms(r.done - sent)),
            _ => break,
        }
        std::thread::sleep(HEALTHZ_EVERY);
    }
    out
}

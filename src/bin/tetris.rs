//! `tetris` — command-line front end of the Tetris compiler.
//!
//! ```sh
//! tetris compile --molecule BeH2 --encoder bk --backend sycamore --qasm out.qasm
//! tetris qaoa --nodes 18 --degree 3 --qasm out.qasm
//! tetris compare --molecule LiH
//! tetris bench-suite --quick --threads 4 --out report.json
//! ```

use std::process::ExitCode;
use std::str::FromStr;
use tetris::baselines::{max_cancel, paulihedral, pcoast_like, qaoa_2qan};
use tetris::circuit::qasm::to_qasm;
use tetris::core::{CompileStats, TetrisCompiler, TetrisConfig};
use tetris::pauli::encoder::Encoding;
use tetris::pauli::molecules::Molecule;
use tetris::pauli::qaoa::{maxcut_hamiltonian, Graph};
use tetris::pauli::Hamiltonian;
use tetris::topology::CouplingGraph;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  tetris compile [--molecule NAME] [--encoder jw|bk] [--backend heavy-hex|sycamore]
                 [--swap-weight W] [--lookahead K] [--no-bridging] [--qasm FILE]
  tetris qaoa    [--nodes N] [--degree D | --edges M] [--seed S] [--qasm FILE]
  tetris compare [--molecule NAME] [--encoder jw|bk] [--backend heavy-hex|sycamore]
  tetris bench-suite [--quick] [--threads N] [--passes P] [--backend heavy-hex|sycamore]
                     [--cache-dir DIR] [--cache-max-bytes B] [--resident] [--profile]
                     [--connections [N]] [--out FILE]
  tetris serve   [--addr HOST:PORT] [--threads N] [--cache-dir DIR] [--cache-capacity N]
                 [--cache-max-bytes B] [--job-ttl-secs S] [--trace-log FILE]
                 [--max-connections N] [--max-inflight N]
                 [--wait-timeout-ms MS]

molecules: LiH BeH2 CH4 MgH2 LiCl CO2"
    );
    ExitCode::FAILURE
}

/// Every flag `tetris serve` accepts (each takes a value) — the ones its
/// usage line lists.
const SERVE_FLAGS: [&str; 10] = [
    "--addr",
    "--threads",
    "--cache-dir",
    "--cache-capacity",
    "--cache-max-bytes",
    "--job-ttl-secs",
    "--trace-log",
    "--max-connections",
    "--max-inflight",
    "--wait-timeout-ms",
];

/// The flags of `tetris bench-suite` that take a value.
const BENCH_SUITE_FLAGS: [&str; 6] = [
    "--threads",
    "--passes",
    "--backend",
    "--cache-dir",
    "--cache-max-bytes",
    "--out",
];

/// The flags of `tetris bench-suite` that stand alone. The optional count
/// after `--connections` is not a `--flag`, so it needs no skipping.
const BENCH_SUITE_BARE: [&str; 4] = ["--quick", "--resident", "--profile", "--connections"];

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    /// The value after `name` parsed as a `T`: `Ok(None)` when the flag is
    /// absent, an error naming the flag when its value is missing or does
    /// not parse. A malformed value is refused, never replaced by a
    /// default.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        if !self.flag(name) {
            return Ok(None);
        }
        let v = self.value(name).ok_or(format!("`{name}` takes a value"))?;
        v.parse()
            .map(Some)
            .map_err(|_| format!("invalid value `{v}` for `{name}`"))
    }

    /// The first `--flag` after the subcommand that is in neither
    /// `valued` (flags whose value is skipped over) nor `bare`.
    fn unknown_flag(&self, valued: &[&str], bare: &[&str]) -> Option<&str> {
        let mut rest = self.0.iter().skip(1);
        while let Some(arg) = rest.next() {
            if valued.contains(&arg.as_str()) {
                rest.next();
            } else if arg.starts_with("--") && !bare.contains(&arg.as_str()) {
                return Some(arg);
            }
        }
        None
    }
}

/// A command's reading of [`Args::parsed`]: an error is printed and
/// becomes `None`, so `main` prints the usage and exits 1.
fn reported<T>(parsed: Result<T, String>) -> Option<T> {
    parsed.map_err(|e| eprintln!("tetris: {e}")).ok()
}

fn molecule(args: &Args) -> Option<Molecule> {
    match args.value("--molecule").unwrap_or("LiH") {
        "LiH" => Some(Molecule::LiH),
        "BeH2" => Some(Molecule::BeH2),
        "CH4" => Some(Molecule::CH4),
        "MgH2" => Some(Molecule::MgH2),
        "LiCl" => Some(Molecule::LiCl),
        "CO2" => Some(Molecule::CO2),
        other => {
            eprintln!("unknown molecule `{other}`");
            None
        }
    }
}

fn encoding(args: &Args) -> Option<Encoding> {
    match args.value("--encoder").unwrap_or("jw") {
        "jw" => Some(Encoding::JordanWigner),
        "bk" => Some(Encoding::BravyiKitaev),
        other => {
            eprintln!("unknown encoder `{other}` (jw|bk)");
            None
        }
    }
}

fn backend(args: &Args) -> Option<CouplingGraph> {
    match args.value("--backend").unwrap_or("heavy-hex") {
        "heavy-hex" => Some(CouplingGraph::heavy_hex_65()),
        "sycamore" => Some(CouplingGraph::sycamore_64()),
        other => {
            eprintln!("unknown backend `{other}` (heavy-hex|sycamore)");
            None
        }
    }
}

fn config(args: &Args) -> Option<TetrisConfig> {
    let mut cfg = TetrisConfig::default();
    if let Some(w) = reported(args.parsed("--swap-weight"))? {
        cfg = cfg.with_swap_weight(w);
    }
    if let Some(k) = reported(args.parsed("--lookahead"))? {
        cfg = cfg.with_lookahead(k);
    }
    if args.flag("--no-bridging") {
        cfg = cfg.with_bridging(false);
    }
    Some(cfg)
}

fn print_stats(label: &str, stats: &CompileStats) {
    println!(
        "{label:<18} CNOTs={:<8} swaps={:<6} depth={:<8} duration={:<10} cancel={:.1}% ({:.3}s)",
        stats.total_cnots(),
        stats.swaps_final,
        stats.metrics.depth,
        stats.metrics.duration,
        100.0 * stats.cancel_ratio(),
        stats.compile_seconds,
    );
}

fn write_qasm(args: &Args, circuit: &tetris::circuit::Circuit) {
    if let Some(path) = args.value("--qasm") {
        std::fs::write(path, to_qasm(circuit)).expect("write qasm file");
        println!("wrote {path}");
    }
}

fn cmd_compile(args: &Args) -> Option<ExitCode> {
    let m = molecule(args)?;
    let enc = encoding(args)?;
    let graph = backend(args)?;
    let config = config(args)?;
    eprintln!("building {m} ({enc})…");
    let h = m.uccsd_hamiltonian(enc);
    let result = TetrisCompiler::new(config).compile(&h, &graph);
    assert!(result.circuit.is_hardware_compliant(&graph));
    print_stats("tetris", &result.stats);
    write_qasm(args, &result.circuit);
    Some(ExitCode::SUCCESS)
}

fn cmd_qaoa(args: &Args) -> Option<ExitCode> {
    let n: usize = reported(args.parsed("--nodes"))?.unwrap_or(16);
    let seed: u64 = reported(args.parsed("--seed"))?.unwrap_or(7);
    let edges: Option<usize> = reported(args.parsed("--edges"))?;
    let degree: usize = reported(args.parsed("--degree"))?.unwrap_or(3);
    let graph = backend(args)?;
    let config = config(args)?;
    let g = match edges {
        Some(m) => Graph::random_gnm(n, m, seed),
        None => Graph::random_regular(n, degree, seed),
    };
    let h = maxcut_hamiltonian(&g, "qaoa");
    let result = TetrisCompiler::new(config).compile(&h, &graph);
    print_stats("tetris", &result.stats);
    let two_qan = qaoa_2qan::compile(&h, &graph, seed);
    print_stats("2qan-lite", &two_qan.stats);
    write_qasm(args, &result.circuit);
    Some(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Option<ExitCode> {
    let m = molecule(args)?;
    let enc = encoding(args)?;
    let graph = backend(args)?;
    eprintln!("building {m} ({enc})…");
    let h: Hamiltonian = m.uccsd_hamiltonian(enc);
    eprintln!("compiling with every compiler…");
    print_stats("paulihedral", &paulihedral::compile(&h, &graph, true).stats);
    print_stats("max-cancel", &max_cancel::compile(&h, &graph).stats);
    print_stats("pcoast-like", &pcoast_like::compile(&h, &graph).stats);
    print_stats(
        "tetris",
        &TetrisCompiler::new(TetrisConfig::without_lookahead())
            .compile(&h, &graph)
            .stats,
    );
    print_stats(
        "tetris+lookahead",
        &TetrisCompiler::new(TetrisConfig::default())
            .compile(&h, &graph)
            .stats,
    );
    Some(ExitCode::SUCCESS)
}

/// Drives the full workload suite through the batch-compilation engine and
/// prints a JSON report: per-job timings plus the engine's cache counters.
/// With `--passes 2` (the default) the suite runs twice in-process; the
/// second pass is served from the content-addressed cache, which the
/// report's `cached_fraction` makes visible. With `--resident` the report
/// gains a `"resident"` section: a batch of small workloads on a 130-node
/// heavy-hex chip, its cold region batch against a sequential whole-chip
/// pass, then one long-lived region scheduler against a fresh scheduler
/// per submission on repeat traffic (carve-skip ratio, wall-clock speedup
/// and digest pinning). With `--profile` the report gains a `"profile"`
/// section measuring the observability layer's overhead (median of
/// recording disabled/enabled pairs) plus per-stage wall-time aggregates.
/// With `--connections [N]` (default 400) the report gains a
/// `"connections"` section stress-testing the reactor front-end with N
/// concurrent long-poll + streaming clients, its digests checked against
/// direct compiles and its wall reported over one direct anchor compile.
/// After writing the report, every pass and section is checked by its
/// gate (the `check` methods); any failed condition, a job error
/// included, is printed and the command exits 1. Any other `--flag` is
/// refused with the usage text before any pass runs, so a typo never drops
/// a section and its gate, and so is a malformed flag value.
fn cmd_bench_suite(args: &Args) -> Option<ExitCode> {
    use std::sync::Arc;
    use std::time::Instant;
    use tetris::bench::connstress::{run_conn_stress, ConnStress};
    use tetris::bench::suite::{
        json_report, run_resident_comparison, run_suite_profile, suite_jobs, ResidentComparison,
        SuitePass, SuiteProfile,
    };
    use tetris::engine::{Engine, EngineConfig};

    if let Some(flag) = args.unknown_flag(&BENCH_SUITE_FLAGS, &BENCH_SUITE_BARE) {
        eprintln!("tetris bench-suite: unknown flag `{flag}`");
        return None;
    }
    let quick = args.flag("--quick");
    let graph = Arc::new(backend(args)?);
    let threads: usize = reported(args.parsed("--threads"))?.unwrap_or_else(default_threads);
    let passes: usize = reported(args.parsed("--passes"))?.unwrap_or(2).max(1);
    let cache_max_bytes = reported(args.parsed("--cache-max-bytes"))?;
    // `--connections` takes an optional count: the next argument, unless
    // it is the next flag.
    let connections: usize = match args.value("--connections") {
        Some(n) if !n.starts_with("--") => reported(args.parsed("--connections"))?.unwrap_or(400),
        _ => 400,
    };

    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: 1024,
        cache_dir: args.value("--cache-dir").map(std::path::PathBuf::from),
        cache_max_bytes,
    });
    let mut report_passes = Vec::with_capacity(passes);
    for pass in 1..=passes {
        let jobs = suite_jobs(quick, &graph);
        eprintln!(
            "[bench-suite] pass {pass}/{passes}: {} jobs on {} workers…",
            jobs.len(),
            engine.threads()
        );
        let t0 = Instant::now();
        let results = engine.compile_batch(jobs);
        let wall = t0.elapsed().as_secs_f64();
        let cached = results.iter().filter(|r| r.cached).count();
        eprintln!(
            "[bench-suite] pass {pass}: {:.2}s wall, {cached}/{} from cache",
            wall,
            results.len()
        );
        report_passes.push(SuitePass {
            pass,
            wall_seconds: wall,
            results,
            cache: engine.cache_stats(),
        });
    }

    let resident = args
        .flag("--resident")
        .then(|| run_resident_comparison(quick, threads));
    let profile = args
        .flag("--profile")
        .then(|| run_suite_profile(quick, threads, &graph));
    let connections = args
        .flag("--connections")
        .then(|| run_conn_stress(connections, threads));
    let report = json_report(
        engine.threads(),
        &report_passes,
        resident.as_ref(),
        profile.as_ref(),
        connections.as_ref(),
    );
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &report).expect("write report file");
            println!("wrote {path}");
        }
        None => println!("{report}"),
    }

    let failures: Vec<String> = report_passes
        .iter()
        .flat_map(SuitePass::check)
        .chain(resident.iter().flat_map(ResidentComparison::check))
        .chain(profile.iter().flat_map(SuiteProfile::check))
        .chain(connections.iter().flat_map(ConnStress::check))
        .collect();
    for failure in &failures {
        eprintln!("[bench-suite] FAIL {failure}");
    }
    Some(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the HTTP compilation service until killed. With `--cache-dir` the
/// engine's result cache gains a persistent disk tier (bounded by
/// `--cache-max-bytes`), so a restarted server answers previously compiled
/// batches from disk; `--job-ttl-secs` bounds the in-memory job table;
/// `--trace-log FILE` appends one JSONL record per completed job (labels,
/// engine wall, per-stage timeline). Admission knobs:
/// `--max-connections` caps live sockets and `--max-inflight` caps queued
/// jobs (both shed with `503 + Retry-After` past the cap);
/// `--wait-timeout-ms` bounds long-poll parks (`GET /job/<id>?wait=1`).
/// Any other `--flag`, and any malformed value, is refused with the usage
/// text, so a typo never starts a server with a default in its place.
fn cmd_serve(args: &Args) -> Option<ExitCode> {
    use tetris::engine::EngineConfig;
    use tetris::server::{CompileServer, ServerConfig};

    if let Some(flag) = args.unknown_flag(&SERVE_FLAGS, &[]) {
        eprintln!("tetris serve: unknown flag `{flag}`");
        return None;
    }

    let addr = args.value("--addr").unwrap_or("127.0.0.1:7421");
    let config = EngineConfig {
        threads: reported(args.parsed("--threads"))?.unwrap_or_else(default_threads),
        cache_capacity: reported(args.parsed("--cache-capacity"))?.unwrap_or(1024),
        cache_dir: args.value("--cache-dir").map(std::path::PathBuf::from),
        cache_max_bytes: reported(args.parsed("--cache-max-bytes"))?,
    };
    let mut server_config = ServerConfig::default();
    if let Some(secs) = reported(args.parsed("--job-ttl-secs"))? {
        server_config.job_ttl = std::time::Duration::from_secs(secs);
    }
    server_config.trace_log = args.value("--trace-log").map(std::path::PathBuf::from);
    if let Some(n) = reported(args.parsed("--max-connections"))? {
        server_config.max_connections = n;
    }
    if let Some(n) = reported(args.parsed("--max-inflight"))? {
        server_config.max_inflight = n;
    }
    if let Some(ms) = reported(args.parsed("--wait-timeout-ms"))? {
        server_config.wait_timeout = std::time::Duration::from_millis(ms);
    }
    match CompileServer::bind_with(addr, config, server_config) {
        Ok(server) => {
            println!("listening on http://{}", server.local_addr());
            server.serve_forever()
        }
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            Some(ExitCode::FAILURE)
        }
    }
}

/// One worker per available core.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return usage();
    };
    let args = Args(argv);
    let result = match cmd.as_str() {
        "compile" => cmd_compile(&args),
        "qaoa" => cmd_qaoa(&args),
        "compare" => cmd_compare(&args),
        "bench-suite" => cmd_bench_suite(&args),
        "serve" => cmd_serve(&args),
        _ => None,
    };
    result.unwrap_or_else(usage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn serve_refuses_flags_outside_its_usage() {
        let typo = args("serve --addr 127.0.0.1:99999 --max-inflght 1");
        assert_eq!(typo.unknown_flag(&SERVE_FLAGS, &[]), Some("--max-inflght"));
        // Refused before binding: `None` makes `main` print the usage and
        // exit non-zero (the out-of-range port would otherwise fail the
        // bind with `Some(FAILURE)`, never serve).
        assert!(cmd_serve(&typo).is_none());
        let removed = args("serve --addr 127.0.0.1:99999 --blocking-front-end");
        assert_eq!(
            removed.unknown_flag(&SERVE_FLAGS, &[]),
            Some("--blocking-front-end")
        );
        assert!(cmd_serve(&removed).is_none());
        // Every listed flag passes, values included — even a value that
        // looks like a flag.
        let all = SERVE_FLAGS
            .iter()
            .map(|f| format!("{f} --v"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(
            args(&format!("serve {all}")).unknown_flag(&SERVE_FLAGS, &[]),
            None
        );
    }

    #[test]
    fn malformed_values_are_refused_not_defaulted() {
        for (line, flag) in [
            ("bench-suite --quick --passes x", "--passes"),
            ("serve --addr 127.0.0.1:99999 --threads -1", "--threads"),
            (
                "serve --addr 127.0.0.1:99999 --max-inflight x",
                "--max-inflight",
            ),
            (
                "serve --addr 127.0.0.1:99999 --wait-timeout-ms x",
                "--wait-timeout-ms",
            ),
            (
                "serve --addr 127.0.0.1:99999 --max-inflight",
                "--max-inflight",
            ),
        ] {
            let bad = args(line);
            let err = bad.parsed::<usize>(flag).expect_err(line);
            assert!(err.contains(flag), "{err}");
            // Refused before any pass runs or any socket is bound: `None`
            // makes `main` print the usage and exit 1.
            let refused = match line.split(' ').next() {
                Some("serve") => cmd_serve(&bad),
                _ => cmd_bench_suite(&bad),
            };
            assert!(refused.is_none(), "{line}");
        }
        let good = args("serve --max-inflight 8 --wait-timeout-ms 250");
        assert_eq!(good.parsed::<usize>("--max-inflight"), Ok(Some(8)));
        assert_eq!(good.parsed::<u64>("--wait-timeout-ms"), Ok(Some(250)));
        assert_eq!(good.parsed::<usize>("--threads"), Ok(None));
        assert_eq!(
            args("qaoa --nodes 12").parsed::<usize>("--nodes"),
            Ok(Some(12))
        );
        assert!(cmd_qaoa(&args("qaoa --nodes x")).is_none());
        assert!(cmd_compile(&args("compile --lookahead x")).is_none());
        assert!(cmd_bench_suite(&args("bench-suite --quick --connections x")).is_none());
    }

    #[test]
    fn bench_suite_refuses_flags_outside_its_usage() {
        let typo = args("bench-suite --quick --passes 1 --resdent");
        assert_eq!(
            typo.unknown_flag(&BENCH_SUITE_FLAGS, &BENCH_SUITE_BARE),
            Some("--resdent")
        );
        // Refused before any pass runs: `None` prints the usage, exits 1.
        assert!(cmd_bench_suite(&typo).is_none());
        // `--connections` takes its count or none.
        for line in [
            "bench-suite --connections --out F",
            "bench-suite --quick --threads 2 --passes 1 --backend sycamore --cache-dir D \
             --cache-max-bytes 9 --resident --profile --connections 400 --out F",
        ] {
            let known = args(line);
            assert_eq!(
                known.unknown_flag(&BENCH_SUITE_FLAGS, &BENCH_SUITE_BARE),
                None
            );
        }
    }
}

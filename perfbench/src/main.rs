//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against an in-process compile server and prints the
//! result as one JSON object on the last line of standard output. Exits
//! non-zero, without a result, when the run cannot be made.

use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(String, perfbench::Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed: u64 = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .ok_or("--seconds must be a positive number")?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    // Scratch space stays inside the working directory and is removed
    // after the run.
    let workdir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    Ok((
        workload,
        perfbench::Opts::new(seed, seconds, trace, workdir),
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.workdir.display());
        return ExitCode::FAILURE;
    }
    let result = perfbench::run(&workload, &opts);
    let _ = std::fs::remove_dir_all(&opts.workdir);
    if let Some(parent) = opts.workdir.parent() {
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

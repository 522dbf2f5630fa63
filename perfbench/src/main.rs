//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! sns-perfbench --workload <dse_sweep|serve_warm|selftrain> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last stdout line is the result object. See README.md.

mod dse;
mod model;
mod report;
mod selftrain;
mod serve_warm;
mod stats;
mod trace;

use std::process::ExitCode;

const USAGE: &str =
    "usage: sns-perfbench --workload <dse_sweep|serve_warm|selftrain> --seed <n> --seconds <n> --trace <0|1>";

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = stats::cpu_jiffies();
    let mut outcome = match args.workload.as_str() {
        "dse_sweep" => dse::run(&args),
        "serve_warm" => serve_warm::run(&args),
        "selftrain" => selftrain::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steal = stats::steal_pct(&cpu, &stats::cpu_jiffies());
    outcome
        .env
        .push(("steal_pct", sns_rt::json::Json::Num(steal)));
    outcome.print(&args);
    ExitCode::SUCCESS
}

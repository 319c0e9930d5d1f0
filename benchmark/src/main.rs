//! `kalstream-benchmark`: four workloads on one pinned core.
//!
//! ```text
//! kalstream-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` beside this crate for what is measured and why, and
//! `../BENCHMARK.json` for the metric names and bounds.

mod fleet;
mod host;
mod layers;
mod query;
mod report;
mod stats;
mod tcp;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Budget;
use workloads::{Scale, Workload};

/// Where traces and durable stores go: inside the checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("kalstream-benchmark: {err}");
            eprintln!(
                "usage: kalstream-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Before anything spawns a thread: children inherit the mask.
    let nproc = host::nproc();
    let pinned_cpu = host::pin_to_one_cpu();
    if pinned_cpu < 0 {
        eprintln!("kalstream-benchmark: could not pin to one CPU; timings will be noisier");
    }
    let nice = host::raise_priority();
    host::steady_malloc();
    let host = workloads::Host {
        pinned_cpu,
        nproc,
        nice,
    };
    let outcome = if args.trace {
        traced::run_traced(args.workload, args.seed, &Scale::FULL, &host)
    } else {
        workloads::run_timed(
            args.workload,
            args.seed,
            &Scale::FULL,
            Budget::Seconds(args.seconds),
        )
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("kalstream-benchmark: {err}");
            ExitCode::FAILURE
        }
    }
}

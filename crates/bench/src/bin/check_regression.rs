//! CI bench-regression gate.
//!
//! ```text
//! check_regression --baseline BENCH_net.json --current ci-artifacts/bench_net.json \
//!                  [--summary-out "$GITHUB_STEP_SUMMARY"]
//! ```
//!
//! The gate table is chosen by the two documents' own `"schema"` string
//! (see `kalstream_bench::regression`); documents that carry none, disagree,
//! or name a schema without a table are a usage error (exit 2), never a
//! pass. Prints an aligned comparison table and exits 1 when any row fails.
//! `--summary-out <path>` additionally *appends* the report as a markdown
//! section — pass `$GITHUB_STEP_SUMMARY` to surface the gate on the CI
//! run page (appending, because every gate in the job shares that file).

use std::process::ExitCode;

use kalstream_bench::regression::evaluate;

struct Args {
    baseline: String,
    current: String,
    summary_out: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: check_regression --baseline <json> --current <json> [--summary-out <path>]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut baseline = None;
    let mut current = None;
    let mut summary_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--baseline" => &mut baseline,
            "--current" => &mut current,
            "--summary-out" => &mut summary_out,
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        };
        *slot = Some(args.next().unwrap_or_else(|| {
            eprintln!("{arg} requires a value");
            usage()
        }));
    }
    match (baseline, current) {
        (Some(baseline), Some(current)) => Args {
            baseline,
            current,
            summary_out,
        },
        _ => usage(),
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let report = match evaluate(&read(&args.baseline), &read(&args.current)) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("{} vs {}: {why}", args.baseline, args.current);
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    if let Some(path) = &args.summary_out {
        use std::io::Write as _;
        let section = report.render_markdown(&format!("check-regression {}", args.baseline));
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(section.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot append summary to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `cargo run -p xtask -- <command>` — repo automation.
//!
//! Commands:
//!
//! * `bench-gate [--root DIR] [--tolerance FRACTION] [--latest FILE]` —
//!   validate every `BENCH_*.json` manifest at the repo root against
//!   the shared schema (version 1) and fail on any perf regression
//!   beyond the noise band (default ±25%) between consecutive PRs of
//!   the same bench. `--latest` additionally compares a
//!   freshly-generated manifest against the newest committed one of the
//!   same bench.
//! * `trace-report FILE [FILE...]` — validate request-trace JSONL dumps
//!   (as written by `export_traces` / `export_slow_log`) against the
//!   `RequestTrace` schema and print a per-stage latency breakdown
//!   (count / p50 / p99 / max) per file. Any schema violation fails the
//!   run after listing every offending line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gate;
mod json;
mod trace_report;

use gate::DEFAULT_TOLERANCE;

fn usage() -> ! {
    eprintln!(
        "usage: cargo run -p xtask -- bench-gate [--root DIR] [--tolerance FRACTION] [--latest FILE]\n       cargo run -p xtask -- trace-report FILE [FILE...]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-gate") => bench_gate(&args[1..]),
        Some("trace-report") => trace_report_cmd(&args[1..]),
        _ => usage(),
    }
}

fn trace_report_cmd(paths: &[String]) {
    if paths.is_empty() {
        usage();
    }
    let mut failed = false;
    for path in paths {
        match trace_report::run_report(path) {
            Ok(report) => println!("{report}"),
            Err(violations) => {
                failed = true;
                eprintln!("trace-report: {path}: FAILED");
                for v in violations {
                    eprintln!("  {v}");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn bench_gate(args: &[String]) {
    // Default root: the workspace this xtask was compiled in, so the
    // gate works from any working directory.
    let mut root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut latest: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().cloned().unwrap_or_else(|| usage()),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|t| (0.0..1.0).contains(t))
                    .unwrap_or_else(|| usage())
            }
            "--latest" => latest = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    match gate::run_gate(&root, tolerance, latest.as_deref()) {
        Ok(report) => print!("{report}"),
        Err(violations) => {
            eprintln!("bench-gate: FAILED");
            for v in violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}

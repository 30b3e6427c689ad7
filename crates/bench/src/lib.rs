//! # causality-bench — experiment harnesses and Criterion benches
//!
//! One regenerating artifact per figure/table of the paper (the
//! paper-to-code map in `docs/ARCHITECTURE.md` indexes them):
//!
//! * the `experiments` binary prints paper-style tables
//!   (`cargo run -p causality_bench --bin experiments -- all`);
//! * the Criterion benches under `benches/` measure the *shapes* the
//!   paper claims: polynomial scaling of Algorithm 1, exponential
//!   exact-solver growth on h1*/h2* instances, flat data-complexity for
//!   Why-No responsibility.
//!
//! This crate's library part holds the shared helpers: timing, table
//! rendering, and the experiment implementations reused by both the
//! binary and the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod manifest;

pub use manifest::{BenchManifest, BenchResult, Direction};

use std::time::{Duration, Instant};

/// Wall-clock one invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Criterion group preset shared by all benches: few samples and short
/// measurement windows so the full suite completes in minutes while still
/// showing the asymptotic shapes.
pub fn bench_group<'a>(
    c: &'a mut criterion::Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    group
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long header"],
            &[
                vec!["x".into(), "y".into()],
                vec!["wider cell".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long header"));
        assert!(lines[3].starts_with("wider cell"));
    }

    #[test]
    fn timing_returns_value() {
        let (v, d) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}

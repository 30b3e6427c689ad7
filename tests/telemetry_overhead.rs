//! Tracing overhead guard: the serving path with full sampling must stay
//! within a generous factor of the tracing-disabled path, and disabling
//! sampling must really disable the per-request work.
//!
//! The band is deliberately wide (debug builds, shared CI runners): this
//! test catches catastrophic regressions — a lock on the hot path, an
//! allocation per unsampled request — not single-digit-percent drift.
//! Nothing gates that drift; perfbench's traced run (`--trace 1`)
//! reports it in release mode as `telemetry.overhead_share`.

use causality::prelude::*;
use causality_engine::database::example_2_2;
use std::time::{Duration, Instant};

const OPS: usize = 400;

fn run_requests(sample_rate: f64) -> (Duration, u64) {
    let svc = CausalityService::with_config(
        example_2_2(),
        ServiceConfig {
            workers: 2,
            telemetry: TelemetryConfig {
                sample_rate,
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
    let answers = ["a2", "a3", "a4"];
    // Warm the caches so the measured window is the serving overhead,
    // not the first-call index builds.
    for a in answers {
        svc.explain(ExplainRequest::why_so(q.clone(), vec![Value::str(a)]))
            .unwrap();
    }
    let started = Instant::now();
    for i in 0..OPS {
        let a = answers[i % answers.len()];
        let resp = svc
            .explain(ExplainRequest::why_so(q.clone(), vec![Value::str(a)]))
            .unwrap();
        assert!(resp.result.is_ok());
    }
    let elapsed = started.elapsed();
    let sampled = svc
        .tier()
        .recent_traces()
        .len()
        .max(svc.tier().slow_log_records().len()) as u64;
    let prom = svc.tier().export_metrics();
    let traced_total: u64 = prom
        .lines()
        .find(|l| l.starts_with("causality_traces_sampled_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    svc.shutdown();
    let _ = sampled;
    (elapsed, traced_total)
}

#[test]
fn tracing_disabled_does_no_per_request_work() {
    let (_, sampled) = run_requests(0.0);
    assert_eq!(sampled, 0, "rate 0 must never allocate a trace");
}

#[test]
fn full_tracing_stays_within_the_overhead_band() {
    let (off, sampled_off) = run_requests(0.0);
    let (on, sampled_on) = run_requests(1.0);
    assert_eq!(sampled_off, 0);
    assert_eq!(
        sampled_on as usize,
        OPS + 3,
        "warmup + measured all sampled"
    );
    // Generous band: tracing-on may cost up to 2.5x tracing-off plus an
    // absolute 150ms slack to absorb scheduler noise on small totals.
    let ceiling = off
        .checked_mul(5)
        .map(|x| x / 2 + Duration::from_millis(150))
        .unwrap_or(Duration::MAX);
    assert!(
        on <= ceiling,
        "tracing overhead out of band: off={off:?} on={on:?} ceiling={ceiling:?}"
    );
}

//! End-to-end request tracing through the serving tier: sampling rates,
//! stage chains, ring-buffer bounds, slow-log capture, and exporter
//! output — driven through the public service APIs only.

use causality::prelude::*;
use causality_engine::database::example_2_2;
use std::time::Duration;

fn query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
}

fn traced_config(telemetry: TelemetryConfig) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        telemetry,
        ..ServiceConfig::default()
    }
}

/// Satellite: sampling rate 0 must allocate no trace at all — the
/// sampled counter stays 0, the ring stays empty, and the Prometheus
/// export says so.
#[test]
fn rate_zero_samples_nothing_and_allocates_nothing() {
    let svc = CausalityService::with_config(
        example_2_2(),
        traced_config(TelemetryConfig {
            sample_rate: 0.0,
            ..TelemetryConfig::default()
        }),
    );
    for _ in 0..20 {
        let resp = svc
            .explain(ExplainRequest::why_so(query(), vec![Value::str("a2")]))
            .unwrap();
        assert!(resp.result.is_ok());
    }
    assert!(svc.tier().recent_traces().is_empty(), "no traces retained");
    assert!(svc.tier().slow_log_records().is_empty());
    let prom = svc.tier().export_metrics();
    assert!(
        prom.contains("causality_traces_sampled_total{shard=\"0\"} 0"),
        "sampled counter must be zero:\n{prom}"
    );
    svc.shutdown();
}

/// Full sampling: a cold request's trace carries the complete ordered
/// stage chain, `ok` outcome, and the dichotomy attributes; a warm
/// (cache-hit) request's trace skips the lineage/kernel stages.
#[test]
fn full_sampling_records_the_complete_stage_chain() {
    let svc =
        CausalityService::with_config(example_2_2(), traced_config(TelemetryConfig::default()));
    let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
    assert!(!svc.explain(req.clone()).unwrap().cache_hit);
    assert!(svc.explain(req).unwrap().cache_hit);

    let traces = svc.tier().recent_traces();
    assert_eq!(traces.len(), 2, "both requests sampled");
    let cold = &traces[0];
    let warm = &traces[1];

    let cold_chain: Vec<&str> = cold.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        cold_chain,
        vec![
            "admission",
            "dispatch",
            "shard_queue",
            "worker_dequeue",
            "snapshot_pin",
            "lineage_intern",
            "kernel_solve",
            "respond",
        ],
        "cold request passes every stage in order"
    );
    for pair in cold.stages.windows(2) {
        assert!(pair[0].start_us <= pair[1].start_us, "starts are monotone");
    }
    assert_eq!(cold.outcome, "ok");
    assert_eq!(cold.kind, "why_so");
    assert!(!cold.cache_hit);
    assert_eq!(cold.relations, 2);
    assert_eq!(cold.dichotomy, "PTIME", "weakly linear per Cor. 4.14");
    assert!(cold.lineage_conjuncts > 0);
    assert!((cold.rho_max - 0.5).abs() < 1e-12);
    assert_eq!(cold.snapshot_version, 1);
    assert_eq!(cold.deadline_slack_us, None, "no deadline was set");

    let warm_chain: Vec<&str> = warm.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        warm_chain,
        vec![
            "admission",
            "dispatch",
            "shard_queue",
            "worker_dequeue",
            "snapshot_pin",
            "respond",
        ],
        "cache hit never touches lineage or kernels"
    );
    assert!(warm.cache_hit);
    assert!(warm.seq > cold.seq, "per-shard seq increases");
    svc.shutdown();
}

/// Satellite: the trace ring is bounded — pushing past capacity
/// overwrites the oldest traces and counts the evictions.
#[test]
fn trace_ring_overwrites_oldest_at_capacity() {
    let svc = CausalityService::with_config(
        example_2_2(),
        traced_config(TelemetryConfig {
            trace_ring: 4,
            ..TelemetryConfig::default()
        }),
    );
    for _ in 0..10 {
        svc.explain(ExplainRequest::why_so(query(), vec![Value::str("a2")]))
            .unwrap();
    }
    let traces = svc.tier().recent_traces();
    assert_eq!(traces.len(), 4, "ring holds exactly its capacity");
    let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
    let newest: Vec<u64> = (6..10).collect();
    assert_eq!(seqs, newest, "the oldest six traces were overwritten");
    let prom = svc.tier().export_metrics();
    assert!(
        prom.contains("causality_traces_overwritten_total{shard=\"0\"} 6"),
        "evictions counted:\n{prom}"
    );
    svc.shutdown();
}

/// A request with a generous deadline reports positive slack in its
/// trace.
#[test]
fn deadline_slack_is_positive_under_a_generous_budget() {
    let svc =
        CausalityService::with_config(example_2_2(), traced_config(TelemetryConfig::default()));
    let resp = svc
        .submit_with_deadline(
            ExplainRequest::why_so(query(), vec![Value::str("a3")]),
            Duration::from_secs(30),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert!(resp.result.is_ok());
    let traces = svc.tier().recent_traces();
    assert_eq!(traces.len(), 1);
    let slack = traces[0].deadline_slack_us.expect("deadline was stamped");
    assert!(slack > 0, "30s budget leaves positive slack, got {slack}");
    svc.shutdown();
}

/// A latency threshold of zero puts every request in the slow-log, with
/// the full span breakdown attached.
#[test]
fn slow_log_captures_requests_over_the_latency_threshold() {
    let svc = CausalityService::with_config(
        example_2_2(),
        traced_config(TelemetryConfig {
            slow_latency: Some(Duration::ZERO),
            ..TelemetryConfig::default()
        }),
    );
    svc.explain(ExplainRequest::why_so(query(), vec![Value::str("a2")]))
        .unwrap();
    let slow = svc.tier().slow_log_records();
    assert_eq!(slow.len(), 1, "zero threshold catches everything");
    assert!(
        !slow[0].stages.is_empty(),
        "slow record keeps the breakdown"
    );
    let jsonl = svc.tier().export_slow_log();
    assert!(jsonl.contains("\"outcome\":\"ok\""));
    svc.shutdown();
}

/// The slow-log keeps the outlier with what explains it. On a one-worker
/// tier with a 5 ms threshold, an unstalled PTIME request stays out,
/// while a triangle request (NP-hard, Cor. 4.14) stalled 20 ms lands in
/// it with its kind, dichotomy class and `kernel_solve` span.
#[test]
fn slow_log_keeps_the_np_hard_outlier_with_its_class() {
    let tier = ShardedService::new(TierConfig {
        shards: 1,
        shard: traced_config(TelemetryConfig {
            slow_latency: Some(Duration::from_millis(5)),
            ..TelemetryConfig::default()
        }),
        ..TierConfig::default()
    });
    let easy = tier.add_tenant("easy", example_2_2()).unwrap();
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z", "x"]));
    db.insert_endo(r, vec![Value::int(1), Value::int(2)]);
    db.insert_endo(s, vec![Value::int(2), Value::int(3)]);
    db.insert_endo(t, vec![Value::int(3), Value::int(1)]);
    let hard = tier.add_tenant("triangle", db).unwrap();

    tier.explain(
        easy,
        ExplainRequest::why_so(query(), vec![Value::str("a2")]),
    )
    .unwrap()
    .result
    .unwrap();
    tier.inject_delay(|_| Some(Duration::from_millis(20)));
    let triangle = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();
    tier.explain(hard, ExplainRequest::why_so(triangle, vec![]))
        .unwrap()
        .result
        .expect("the Boolean triangle has causes");

    let traces = tier.recent_traces();
    assert_eq!(traces.len(), 2);
    assert_eq!(traces[0].dichotomy, "PTIME", "the easy request is traced");
    let slow = tier.slow_log_records();
    assert_eq!(slow.len(), 1, "only the stalled request is slow: {slow:?}");
    let outlier = &slow[0];
    assert_eq!(outlier.kind, "why_so");
    assert!(
        outlier.dichotomy.starts_with("NP-hard"),
        "the outlier carries its class: {:?}",
        outlier.dichotomy
    );
    assert!(
        outlier.stage(Stage::KernelSolve).is_some(),
        "the outlier keeps its kernel-stage timing"
    );
    assert!(
        outlier.total_us >= 5_000,
        "the outlier overran the 5 ms threshold: {} µs",
        outlier.total_us
    );
    tier.shutdown();
}

/// The sharded tier samples across shards: exports aggregate every
/// shard's ring, and per-shard Prometheus series stay distinct.
#[test]
fn sharded_tier_exports_traces_and_metrics_across_shards() {
    let tier = ShardedService::new(TierConfig {
        shards: 2,
        shard: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    });
    let alice = tier.add_tenant("alice", example_2_2()).unwrap();
    let bob = tier.add_tenant("bob", example_2_2()).unwrap();
    for tenant in [alice, bob] {
        tier.explain(
            tenant,
            ExplainRequest::why_so(query(), vec![Value::str("a2")]),
        )
        .unwrap();
    }
    let traces = tier.recent_traces();
    assert_eq!(traces.len(), 2);
    for trace in &traces {
        assert_eq!(trace.outcome, "ok");
        assert!(trace.shard < 2, "shard index recorded");
    }
    let jsonl = tier.export_traces();
    assert_eq!(jsonl.lines().count(), 2, "one JSON object per trace");
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
    let prom = tier.export_metrics();
    assert!(prom.contains("shard=\"0\"") && prom.contains("shard=\"1\""));
    assert_eq!(
        prom.matches("# TYPE causality_requests_total").count(),
        1,
        "one TYPE line per metric, not per shard"
    );
    tier.shutdown();
}

/// A request rejected by admission control still finishes its trace,
/// with the `overloaded` outcome.
#[test]
fn rejected_requests_finish_their_traces() {
    let tier = ShardedService::new(TierConfig {
        shards: 1,
        admission_limit: 1,
        shard: ServiceConfig {
            workers: 1,
            batch_max: 1,
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    });
    let t = tier.add_tenant("hot", example_2_2()).unwrap();
    tier.inject_delay(|_| Some(Duration::from_millis(50)));
    let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..16 {
        match tier.submit(t, req.clone()) {
            Ok(pending) => accepted.push(pending),
            Err(ServiceError::Overloaded { .. }) => rejected += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(rejected > 0);
    for pending in accepted {
        pending.wait().unwrap();
    }
    let overloaded: Vec<_> = tier
        .recent_traces()
        .into_iter()
        .filter(|t| t.outcome == "overloaded")
        .collect();
    assert_eq!(overloaded.len() as u64, rejected, "every reject is traced");
    for trace in &overloaded {
        let chain: Vec<&str> = trace.stages.iter().map(|s| s.stage.as_str()).collect();
        assert!(
            !chain.contains(&"worker_dequeue"),
            "a rejected job never reaches a worker: {chain:?}"
        );
    }
    tier.shutdown();
}

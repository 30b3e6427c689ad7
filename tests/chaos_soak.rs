//! Seeded chaos soak, sized for the standard test job. A deterministic
//! [`FaultPlan`] — panic bursts, worker stalls, cache poisoning,
//! submission bursts, clock skew — is replayed against a two-shard tier
//! driven entirely through `explain` under a two-attempt, hedged retry
//! policy, and the run asserts the self-healing contract: zero silent
//! drops (every submission comes back as an answer or a retryable
//! reject with a retry-after hint), every answer is the right one (the
//! soak's writes join nothing, so each must equal the `Explainer`'s
//! answer on the seed database), the wedged shards are quarantined and
//! restarted by the supervisor, and the tier converges back to
//! `Healthy` once the faults stop.

#[path = "common/timeout.rs"]
mod timeout;

use causality::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timeout::with_timeout;

const HARD_TIMEOUT: Duration = Duration::from_secs(120);
const TIMED_OUT: &str = "chaos soak timed out — self-healing deadlock?";

fn seed_database() -> Database {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for (x, y) in [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3")] {
        db.insert_endo(r, vec![Value::str(x), Value::str(y)]);
    }
    for y in ["a1", "a2", "a3", "a4"] {
        db.insert_endo(s, vec![Value::str(y)]);
    }
    db
}

fn query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
}

/// Silence only the planned chaos panics so the soak output stays
/// readable; anything else still prints through the original hook.
fn install_quiet_panic_hook() {
    let default_hook = std::panic::take_hook();
    let delegate = Arc::new(default_hook);
    std::panic::set_hook(Box::new(move |info| {
        let planned = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|msg| msg.contains("chaos hook") || msg.contains("fault plan"));
        if !planned {
            delegate(info);
        }
    }));
}

const SEED: u64 = 0xC4A0_5011;

#[test]
fn seeded_chaos_soak_heals_with_zero_silent_drops() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        const SHARDS: usize = 2;
        const OPS: u64 = 80;
        const HORIZON: u64 = 30;
        let tick = Duration::from_millis(3);
        let open_for = Duration::from_millis(30);
        let clock = Arc::new(ManualClock::new());
        let tier = ShardedService::with_clock(
            TierConfig {
                shards: SHARDS,
                admission_limit: 32,
                retry: RetryPolicy {
                    max_attempts: 2,
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(40),
                    jitter_seed: SEED,
                    hedge_after: Some(Duration::from_millis(15)),
                },
                breaker: BreakerConfig {
                    failure_threshold: 4,
                    open_for,
                    half_open_probes: 1,
                },
                supervisor: SupervisorConfig {
                    tick,
                    panic_quarantine: 4,
                    stall_ticks: 8,
                    miss_rate: 0.9,
                    miss_window_min: 8,
                    probe_ticks: 2,
                },
                shard: ServiceConfig {
                    workers: 1,
                    batch_max: 4,
                    queue_capacity: 64,
                    ..ServiceConfig::default()
                },
                ..TierConfig::default()
            },
            clock.clone(),
        );

        // Two tenants on different shards for a deterministic 50/50
        // ordinal split.
        let first = tier.add_tenant("chaos-0", seed_database()).unwrap();
        let mut pair = [first, first];
        for i in 1..64 {
            let id = tier
                .add_tenant(&format!("chaos-{i}"), seed_database())
                .unwrap();
            if id.shard() != first.shard() {
                pair = [first, id];
                break;
            }
        }
        assert_ne!(pair[0].shard(), pair[1].shard(), "both shards covered");
        let by_shard = |s: usize| {
            if pair[0].shard() == s {
                pair[0]
            } else {
                pair[1]
            }
        };

        let plan = FaultPlan::generate(SEED, SHARDS, HORIZON);
        assert_eq!(
            plan.render(),
            FaultPlan::generate(SEED, SHARDS, HORIZON).render(),
            "the plan itself replays bit-identically"
        );
        tier.install_fault_plan(&plan);
        install_quiet_panic_hook();

        // Every write adds an `S` row that joins no `R` row, so each
        // answer the soak gets, retried or not, must be this one.
        let expected = Explainer::new(&seed_database(), &query())
            .why(&[Value::str("a2")])
            .unwrap();
        let mut events: Vec<_> = plan.harness_events().copied().collect();
        let mut burst_handles = Vec::new();
        let mut submitted = 0u64;
        let mut answered = 0u64;
        let mut rejected = 0u64;
        for i in 0..OPS {
            clock.advance(Duration::from_millis(1));
            let tenant = pair[(i % 2) as usize];
            // Invalidate the cache so each read is a fresh computation
            // and advances the shard's fault ordinal.
            tier.update(tenant, |db| {
                let s = db.relation_id("S").expect("seed schema");
                db.insert_endo(s, vec![Value::str(format!("chaos_w{i}"))]);
            })
            .unwrap();
            let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
            submitted += 1;
            let was_rejected = match tier.explain(tenant, req) {
                Ok(resp) => match resp.result {
                    Ok(explanation) => {
                        assert_eq!(explanation, expected, "wrong answer to request {i}");
                        answered += 1;
                        false
                    }
                    Err(e) => {
                        assert!(e.is_retryable(), "terminal in-band error in soak: {e}");
                        rejected += 1;
                        true
                    }
                },
                Err(e) => {
                    assert!(e.is_retryable(), "terminal submit error in soak: {e}");
                    if let Some(hint) = e.retry_after_hint() {
                        assert!(hint > Duration::ZERO, "reject hints are usable");
                    }
                    rejected += 1;
                    true
                }
            };
            if was_rejected {
                // Let the breaker window elapse on the injected clock
                // and give the supervisor a few wall-clock ticks to see
                // the panic streak while it is still live.
                clock.advance(open_for);
                std::thread::sleep(3 * tick);
            }
            let progressed: Vec<u64> = (0..SHARDS).map(|s| tier.shard_progress(s)).collect();
            events.retain(|e| {
                if progressed[e.shard] < e.at_ordinal {
                    return true;
                }
                match e.kind {
                    FaultKind::Burst(n) => {
                        let burst_req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
                        for _ in 0..n {
                            submitted += 1;
                            match tier.submit(by_shard(e.shard), burst_req.clone()) {
                                Ok(handle) => burst_handles.push(handle),
                                Err(err) => {
                                    assert!(
                                        err.is_retryable(),
                                        "burst overrun must reject retryably: {err}"
                                    );
                                    assert!(
                                        err.retry_after_hint().unwrap_or_default() > Duration::ZERO,
                                        "burst rejects carry a retry-after hint"
                                    );
                                    rejected += 1;
                                }
                            }
                        }
                    }
                    FaultKind::ClockSkew(d) => clock.rewind(d),
                    _ => unreachable!("harness_events yields only bursts and skews"),
                }
                false
            });
        }
        assert!(
            events.is_empty(),
            "every scheduled harness event fired before the soak ended: {events:?}"
        );
        for handle in burst_handles {
            let resp = handle
                .wait()
                .expect("restarted pools never lose a queued request");
            match resp.result {
                Ok(explanation) => {
                    assert_eq!(explanation, expected, "wrong answer to a burst request");
                    answered += 1;
                }
                Err(e) => {
                    assert!(e.is_retryable(), "terminal burst error in soak: {e}");
                    rejected += 1;
                }
            }
        }
        assert_eq!(
            answered + rejected,
            submitted,
            "zero silent drops: every submission is answered or visibly rejected"
        );

        // Convergence: with the plan cleared, both shards probe back to
        // Healthy.
        tier.clear_faults();
        let drain_start = Instant::now();
        while !(0..SHARDS).all(|s| tier.shard_health(s) == Some(HealthState::Healthy)) {
            assert!(
                drain_start.elapsed() < Duration::from_secs(10),
                "tier failed to return to Healthy after the faults stopped"
            );
            std::thread::sleep(tick);
        }

        let stats = tier.stats();
        let agg = stats.aggregate();
        assert_eq!(agg.queue_depth, 0, "soak fully drained");
        assert!(
            agg.panics_caught >= 5,
            "the plan's panic bursts really fired: {} panics",
            agg.panics_caught
        );
        assert!(
            agg.shard_quarantines >= 1,
            "a wedged shard was quarantined by the supervisor"
        );
        assert!(
            agg.shard_restarts >= 1,
            "the quarantined shard's worker pool was restarted"
        );
        assert!(stats.frontend.retries >= 1, "retry/backoff really engaged");

        // The healed tier serves normally again.
        let resp = tier
            .explain(
                pair[0],
                ExplainRequest::why_so(query(), vec![Value::str("a2")]),
            )
            .unwrap();
        assert_eq!(
            resp.expect_explanation(),
            expected,
            "healed tier serves exact answers"
        );
        tier.shutdown();
    });
}

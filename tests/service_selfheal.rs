//! Self-healing serving tier (PR 9), end to end through the public
//! APIs: the supervisor quarantines and restarts a wedged shard without
//! losing a single queued request, brownout mode serves certified
//! zero-budget answers instead of shedding NP-hard traffic, per-tenant
//! circuit breakers trip and recover on an injected clock, and the
//! seeded fault-plan / backoff machinery replays bit-identically. All
//! scenarios run under hard timeouts so a supervision deadlock fails
//! fast instead of hanging CI.

#[path = "common/timeout.rs"]
mod timeout;

use causality::prelude::*;
use causality::service::retry::{backoff, JitterRng};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timeout::with_timeout;

const HARD_TIMEOUT: Duration = Duration::from_secs(120);
const TIMED_OUT: &str = "self-heal scenario timed out — supervision deadlock?";

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

/// A 3-tuple triangle instance whose Why-So is NP-hard (non-weakly
/// linear per Cor. 4.14) — the request shape the brownout path and the
/// hardness router act on.
fn triangle_tenant() -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z", "x"]));
    db.insert_endo(r, vec![Value::int(1), Value::int(2)]);
    db.insert_endo(s, vec![Value::int(2), Value::int(3)]);
    db.insert_endo(t, vec![Value::int(3), Value::int(1)]);
    let q = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();
    (db, q)
}

/// An aggressive supervisor for tests: quarantine decisions inside a
/// few milliseconds instead of the conservative production default.
fn aggressive_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        tick: Duration::from_millis(2),
        panic_quarantine: 3,
        stall_ticks: 3,
        miss_rate: 0.9,
        miss_window_min: 8,
        probe_ticks: 2,
    }
}

/// Tentpole: a shard wedged behind a stalled worker is quarantined and
/// its pool restarted on the *same* queue — the stuck request and the
/// queued one both still get their answers (zero loss), and the shard
/// probes back to `Healthy`.
#[test]
fn supervisor_restarts_a_wedged_shard_without_losing_requests() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            supervisor: aggressive_supervisor(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let tenant = tier.add_tenant("t", seed_database()).unwrap();
        assert_eq!(tier.shard_health(0), Some(HealthState::Healthy));

        // The blocker wedges the only worker for 100ms; the victim sits
        // in the queue with zero completions — the stall signature.
        tier.inject_delay(|req| {
            (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(100))
        });
        let blocker = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a2")]),
            )
            .unwrap();
        let victim = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
            )
            .unwrap();

        // Zero loss: the restarted pool drains the victim off the same
        // channel, and the wedged worker still delivers its answer.
        victim.wait().unwrap().result.unwrap();
        blocker.wait().unwrap().result.unwrap();

        let stats = tier.stats().aggregate();
        assert!(
            stats.shard_quarantines >= 1,
            "the stall was classified and quarantined: {stats:?}"
        );
        assert!(
            stats.shard_restarts >= 1,
            "the worker pool was restarted: {stats:?}"
        );
        assert_eq!(stats.queue_depth, 0, "nothing left behind");

        // Re-admission: the shard probes back to Healthy and serves.
        let deadline = Instant::now() + Duration::from_secs(5);
        while tier.shard_health(0) != Some(HealthState::Healthy) {
            assert!(Instant::now() < deadline, "shard never re-admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        tier.clear_faults();
        tier.explain(
            tenant,
            ExplainRequest::why_so(query(), vec![Value::str("a4")]),
        )
        .unwrap()
        .result
        .unwrap();
        tier.shutdown();
    });
}

/// Brownout: with the tier's queues past the high-water mark, a
/// routable NP-hard request is served *inline* with the certified
/// zero-budget greedy bracket — never `Overloaded`, never queued — and
/// the mode recovers hysteretically once the depth falls to the
/// low-water mark.
#[test]
fn brownout_serves_certified_answers_inline_and_recovers() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            admission_limit: 64,
            brownout_high_water: 2,
            brownout_low_water: 0,
            supervisor: SupervisorConfig::disabled(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let easy = tier.add_tenant("easy", seed_database()).unwrap();
        let (tri_db, tri_query) = triangle_tenant();
        let hard = tier.add_tenant("triangle", tri_db).unwrap();

        // Pile three stalled blockers onto the single worker so the
        // tier-wide queue depth crosses the high-water mark of 2.
        tier.inject_delay(|req| {
            (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(40))
        });
        let easy_req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let blockers: Vec<_> = (0..3)
            .map(|_| tier.submit(easy, easy_req.clone()).unwrap())
            .collect();

        // Browned out: the NP-hard request is answered inline with the
        // certified zero-budget bracket instead of joining the queue.
        let resp = tier
            .explain(hard, ExplainRequest::why_so(tri_query.clone(), vec![]))
            .unwrap();
        let explanation = resp.result.expect("brownout degrades, never rejects");
        assert!(
            matches!(explanation.mode, ExplainMode::Approximate { .. }),
            "brownout answers carry the approximate mode: {:?}",
            explanation.mode
        );
        if let ExplainMode::Approximate { bounds, .. } = explanation.mode {
            assert!(bounds.lower <= bounds.upper && bounds.upper <= 1.0 + 1e-12);
        }
        assert!(!explanation.causes.is_empty());
        assert!(!resp.cache_hit);
        assert_eq!(tier.stats().frontend.brownout_served, 1);
        assert_eq!(
            tier.stats().aggregate().approx_requests,
            0,
            "approx_requests counts worker answers only"
        );

        // The brownout answer is the zero-budget anytime answer on the
        // same snapshot: same causes, same brackets, no refinement.
        let snapshot = tier.snapshot(hard).unwrap();
        assert_eq!(resp.snapshot_version, snapshot.version());
        let (zero, _timing) = Explainer::new(snapshot.database(), &tri_query)
            .why_anytime(&[], ApproxBudget::zero())
            .unwrap();
        assert_eq!(
            explanation.causes, zero.causes,
            "the same tuples, rho, bounds and contingencies"
        );
        let (
            ExplainMode::Approximate {
                bounds,
                refinements,
                ..
            },
            ExplainMode::Approximate {
                bounds: zero_bounds,
                ..
            },
        ) = (explanation.mode, zero.mode)
        else {
            panic!("expected two approximate answers");
        };
        assert_eq!(bounds, zero_bounds, "the same rho_max bracket");
        assert_eq!(refinements, 0, "a passed deadline refines nothing");
        // The answer was sent as a worker's is: the trace ring holds it,
        // with its computation's spans and no queue wait.
        let traces = tier.recent_traces();
        let inline = traces
            .iter()
            .find(|t| t.stage(Stage::ApproxRefine).is_some())
            .expect("the brownout answer is traced");
        assert_eq!(inline.outcome, "ok");
        assert!(inline.stage(Stage::KernelSolve).is_some());
        assert!(inline.stage(Stage::ShardQueue).is_none());

        for blocker in blockers {
            blocker.wait().unwrap().result.unwrap();
        }
        tier.clear_faults();

        // Hysteresis: with the queues drained to the low-water mark the
        // next submit leaves brownout, the mode's duration is accounted,
        // and the same NP-hard request runs the normal exact path again.
        let recovered = tier
            .explain(hard, ExplainRequest::why_so(tri_query, vec![]))
            .unwrap();
        assert_eq!(
            recovered.result.unwrap().mode,
            ExplainMode::Exact,
            "deadline-free NP-hard traffic is exact once brownout lifts"
        );
        let fe = tier.stats().frontend;
        assert_eq!(
            fe.brownout_served, 1,
            "only the browned-out request degraded"
        );
        assert!(fe.brownout_us > 0, "the brownout window was accounted");
        tier.shutdown();
    });
}

/// A brownout computation is the shard's panic-isolated computation: a
/// fault armed on the hard request fires on the submitting thread, comes
/// back as `Panicked`, is counted, and leaves the caller serving.
#[test]
fn a_panic_in_a_brownout_computation_is_caught_and_returned() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            brownout_high_water: 2,
            brownout_low_water: 0,
            supervisor: SupervisorConfig::disabled(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let easy = tier.add_tenant("easy", seed_database()).unwrap();
        let (tri_db, tri_query) = triangle_tenant();
        let hard = tier.add_tenant("triangle", tri_db).unwrap();

        // One hook does both jobs: it stalls the blockers inside the
        // hook, which keeps the queue past the high-water mark, and it
        // panics the hard request, whose answer is empty.
        tier.inject_fault(|req| {
            if req.answer == vec![Value::str("a2")] {
                std::thread::sleep(Duration::from_millis(100));
            }
            req.answer.is_empty()
        });
        let easy_req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let blockers: Vec<_> = (0..3)
            .map(|_| tier.submit(easy, easy_req.clone()).unwrap())
            .collect();

        let hard_req = ExplainRequest::why_so(tri_query, vec![]);
        match tier.explain(hard, hard_req.clone()) {
            Err(ServiceError::Panicked(msg)) => {
                assert!(msg.contains("fault injected"), "got: {msg}")
            }
            other => panic!("expected Panicked from the submit, got {other:?}"),
        }
        let stats = tier.stats();
        assert_eq!(stats.aggregate().panics_caught, 1);
        assert_eq!(stats.frontend.brownout_served, 0, "no answer was served");

        // The calling thread survived, and the next request is served.
        for blocker in blockers {
            blocker.wait().unwrap().result.unwrap();
        }
        tier.clear_faults();
        let served = tier.explain(hard, hard_req).unwrap();
        assert_eq!(served.result.unwrap().mode, ExplainMode::Exact);
        tier.shutdown();
    });
}

/// A chaos hook that blocks holds up only its own computation: the
/// shard's hook lock is released before the hook runs, so while one
/// worker's hook sleeps for 500 ms, the other worker answers a second
/// question, whose hook call returns at once.
#[test]
fn a_blocking_chaos_hook_stalls_only_its_own_computation() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            shard: ServiceConfig {
                workers: 2,
                batch_max: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let tenant = tier.add_tenant("t", seed_database()).unwrap();
        let (entered, in_hook) = std::sync::mpsc::sync_channel(1);
        tier.inject_fault(move |req| {
            if req.answer == vec![Value::str("a2")] {
                let _ = entered.send(());
                std::thread::sleep(Duration::from_millis(500));
            }
            false
        });
        let blocker = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a2")]),
            )
            .unwrap();
        in_hook.recv().unwrap();
        let asked = Instant::now();
        let other = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
            )
            .unwrap();
        other.wait().unwrap().result.unwrap();
        let waited = asked.elapsed();
        assert!(
            waited < Duration::from_millis(250),
            "the second question waited {waited:?} for the blocker's hook"
        );
        blocker.wait().unwrap().result.unwrap();
        tier.shutdown();
    });
}

/// Brownout failures reach the tenant's circuit breaker: with
/// `failure_threshold: 2`, two panicking brownout computations trip it,
/// and the tenant's next submit is shed with `CircuitOpen`.
#[test]
fn panicking_brownout_computations_trip_the_tenant_breaker() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let open_for = Duration::from_secs(60);
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            brownout_high_water: 2,
            brownout_low_water: 0,
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_for,
                half_open_probes: 1,
            },
            supervisor: SupervisorConfig::disabled(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let easy = tier.add_tenant("easy", seed_database()).unwrap();
        let (tri_db, tri_query) = triangle_tenant();
        let hard = tier.add_tenant("triangle", tri_db).unwrap();

        // The first blocker stalls the worker, outside the chaos lock,
        // long enough that the two blockers queued behind it hold the
        // tier in brownout for the whole scenario. Once the worker is in
        // that stall, the hook is swapped for one that panics the hard
        // request (its answer is empty) every time it is computed.
        tier.inject_delay(|req| {
            (req.answer == vec![Value::str("a2")]).then_some(Duration::from_secs(1))
        });
        let easy_req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let blockers: Vec<_> = (0..3)
            .map(|_| tier.submit(easy, easy_req.clone()).unwrap())
            .collect();
        while tier.shard_progress(0) < 1 {
            std::thread::yield_now();
        }
        tier.inject_fault(|req| req.answer.is_empty());

        let hard_req = ExplainRequest::why_so(tri_query, vec![]);
        for attempt in 0..2 {
            match tier.submit(hard, hard_req.clone()).err() {
                Some(ServiceError::Panicked(_)) => {}
                other => panic!("attempt {attempt}: expected Panicked, got {other:?}"),
            }
        }
        match tier.submit(hard, hard_req).err() {
            Some(ServiceError::CircuitOpen { retry_after }) => {
                assert!(retry_after > Duration::ZERO && retry_after <= open_for);
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        let stats = tier.stats();
        assert_eq!(stats.frontend.breaker_trips, 1);
        assert_eq!(stats.aggregate().panics_caught, 2);
        assert_eq!(stats.frontend.brownout_served, 0);

        // The other tenant's breaker stays closed: its blockers are served.
        for blocker in blockers {
            blocker.wait().unwrap().result.unwrap();
        }
        tier.shutdown();
    });
}

/// Brownout answers are not worker progress: a shard whose workers keep
/// wedging is quarantined and its pool restarted again and again while
/// the tier answers a stream of NP-hard requests inline, many per
/// supervisor tick, and every queued request is still answered.
#[test]
fn a_wedged_shard_is_restarted_while_brownout_answers_inline() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        const WEDGE: Duration = Duration::from_secs(1);
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            brownout_high_water: 2,
            brownout_low_water: 0,
            supervisor: aggressive_supervisor(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let easy = tier.add_tenant("easy", seed_database()).unwrap();
        let (tri_db, tri_query) = triangle_tenant();
        let hard = tier.add_tenant("triangle", tri_db).unwrap();

        // Every blocker wedges the worker that takes it, so each restarted
        // pool wedges on the next one, and the blockers still queued hold
        // the tier in brownout through a dozen restarts or more.
        tier.inject_delay(|req| (req.answer == vec![Value::str("a2")]).then_some(WEDGE));
        let easy_req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let blockers: Vec<_> = (0..16)
            .map(|_| tier.submit(easy, easy_req.clone()).unwrap())
            .collect();

        // After the first inline answer, inline answers arrive back to
        // back until the supervisor restarts the pool once more.
        let hard_req = ExplainRequest::why_so(tri_query, vec![]);
        tier.explain(hard, hard_req.clone())
            .unwrap()
            .result
            .unwrap();
        let stats = tier.stats();
        assert_eq!(stats.frontend.brownout_served, 1, "{stats:?}");
        let restarts = stats.aggregate().shard_restarts;
        let started = Instant::now();
        while tier.stats().aggregate().shard_restarts == restarts {
            assert!(
                started.elapsed() < WEDGE / 2,
                "the wedged shard was not restarted: {:?}",
                tier.stats()
            );
            tier.explain(hard, hard_req.clone())
                .unwrap()
                .result
                .unwrap();
        }
        assert!(tier.stats().aggregate().shard_quarantines >= 1);

        for blocker in blockers {
            blocker.wait().unwrap().result.unwrap();
        }
        assert_eq!(tier.stats().aggregate().queue_depth, 0);
        tier.shutdown();
    });
}

/// Per-tenant circuit breaker through the public tier API on an
/// injected clock: repeated panics trip the tenant open (requests shed
/// with a retry-after hint before touching a queue), the open window
/// elapses on the `ManualClock`, and a half-open probe closes it again.
#[test]
fn circuit_breaker_trips_and_recovers_on_an_injected_clock() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let clock = Arc::new(ManualClock::new());
        let open_for = Duration::from_millis(200);
        let tier = ShardedService::with_clock(
            TierConfig {
                shards: 1,
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    open_for,
                    half_open_probes: 1,
                },
                supervisor: SupervisorConfig::disabled(),
                shard: ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
                ..TierConfig::default()
            },
            clock.clone(),
        );
        let tenant = tier.add_tenant("flaky", seed_database()).unwrap();
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);

        // Three panicking requests in a row: threshold reached, open.
        tier.inject_fault(|_| true);
        for _ in 0..3 {
            let resp = tier.explain(tenant, req.clone()).unwrap();
            assert!(matches!(resp.result, Err(ServiceError::Panicked(_))));
        }
        match tier.explain(tenant, req.clone()) {
            Err(ServiceError::CircuitOpen { retry_after }) => {
                assert!(retry_after > Duration::ZERO && retry_after <= open_for);
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        let fe = tier.stats().frontend;
        assert_eq!(fe.breaker_trips, 1);
        assert!(fe.breaker_rejects >= 1);

        // Recovery: the open window elapses on the injected clock, the
        // half-open probe succeeds, and the tenant serves again.
        tier.clear_faults();
        clock.advance(open_for + Duration::from_millis(1));
        tier.explain(tenant, req.clone())
            .unwrap()
            .result
            .expect("half-open probe closes the breaker");
        tier.explain(tenant, req)
            .unwrap()
            .result
            .expect("closed again — traffic flows");
        assert_eq!(tier.stats().frontend.breaker_trips, 1, "no re-trip");
        tier.shutdown();
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: a seeded fault plan replays bit-identically — same
    /// seed, same shard count, same horizon ⇒ the same events in the
    /// same order, witnessed by the stable rendering — and every plan
    /// is structurally sound (events target real shards, every shard
    /// gets a quarantine-grade panic burst).
    #[test]
    fn fault_plans_replay_bit_identically(
        seed in any::<u64>(),
        shards in 1usize..5,
        horizon in 16u64..512,
    ) {
        let a = FaultPlan::generate(seed, shards, horizon);
        let b = FaultPlan::generate(seed, shards, horizon);
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(&a, &b);
        for event in &a.events {
            prop_assert!(event.shard < shards);
        }
        for shard in 0..shards {
            let panics = a
                .events
                .iter()
                .filter(|e| e.shard == shard && e.kind == FaultKind::Panic)
                .count();
            prop_assert!(panics >= 5, "shard {} has only {} panics", shard, panics);
        }
    }

    /// Satellite: the jittered backoff schedule is a pure function of
    /// its seed — equal seeds replay equal waits — and every wait
    /// respects the cap and any retry-after floor.
    #[test]
    fn backoff_schedules_replay_and_respect_cap_and_floor(
        seed in any::<u64>(),
        attempts in 1u32..8,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            jitter_seed: seed,
            ..RetryPolicy::default()
        };
        let mut a = JitterRng::new(seed);
        let mut b = JitterRng::new(seed);
        for attempt in 1..=attempts {
            let wait = backoff(&policy, &mut a, attempt, None);
            prop_assert_eq!(wait, backoff(&policy, &mut b, attempt, None));
            prop_assert!(wait <= policy.cap);
        }
        let floor = Duration::from_millis(3);
        let floored = backoff(&policy, &mut a, 1, Some(floor));
        prop_assert!(floored >= floor && floored <= policy.cap);
    }
}

//! The hardness router under deadline pressure, end to end through the
//! serving tier: NP-hard Why-So requests carrying a deadline must come
//! back `Ok` with `ExplainMode::Approximate` and certified bounds —
//! never `DeadlineExceeded`, never a stalled worker — while PTIME
//! traffic stays bit-identical to the deadline-free exact path. Runs
//! under a hard timeout (and in CI's timeout-guarded matrix), so a
//! routing bug that stalls a worker fails fast instead of hanging.

#[path = "common/tier.rs"]
mod tier;
#[path = "common/timeout.rs"]
mod timeout;

use causality::datagen::hard_instances::{dense_triangles, triangle_fan};
use causality::prelude::*;
use causality_core::explain::ExplainMode;
use std::time::{Duration, Instant};
use tier::one_tenant;
use timeout::with_timeout;

const HARD_TIMEOUT: Duration = Duration::from_secs(120);
const TIMED_OUT: &str = "deadline scenario timed out — worker stall?";

/// Every cause of an approximate explanation must carry a sane bracket.
fn assert_sound_brackets(explanation: &Explanation) {
    assert!(matches!(explanation.mode, ExplainMode::Approximate { .. }));
    if let ExplainMode::Approximate { bounds, .. } = explanation.mode {
        assert!(bounds.lower <= bounds.upper, "{bounds:?}");
        assert!(bounds.upper <= 1.0 + 1e-12, "{bounds:?}");
    }
    for cause in &explanation.causes {
        let bounds = cause.bounds.expect("approximate causes carry bounds");
        assert!(
            0.0 < bounds.lower && bounds.lower <= bounds.upper && bounds.upper <= 1.0 + 1e-12,
            "{:?} for {}",
            bounds,
            cause.relation
        );
        assert_eq!(cause.rho, bounds.lower, "ρ reports the certified lower");
    }
}

/// Tentpole: a dense NP-hard instance under a tight deadline is
/// answered approximately within budget — `Ok` every time, zero
/// `DeadlineExceeded`, and the route is counted.
#[test]
fn hard_instance_under_tight_deadline_is_answered_approximately() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let inst = dense_triangles(6, 150, 42);
        let (tier, t) = one_tenant(
            inst.db.clone(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        for _ in 0..4 {
            let req = ExplainRequest::why_so(inst.query.clone(), vec![]);
            let response = tier
                .submit_with_deadline(t, req, Duration::from_millis(2))
                .unwrap()
                .wait()
                .unwrap();
            let explanation = response
                .result
                .expect("hard + deadline ⇒ anytime, not error");
            assert_sound_brackets(&explanation);
            assert!(!explanation.causes.is_empty());
        }
        let stats = tier.stats().aggregate();
        assert_eq!(stats.deadline_misses, 0, "the anytime tier absorbs them");
        assert_eq!(stats.approx_requests, 4);
        tier.shutdown();
    });
}

/// Budget zero is still sound: a deadline that expires while the job is
/// queued behind a stalled worker degrades to the greedy bracket — not
/// to `DeadlineExceeded` — and the known-ρ probe stays inside it.
#[test]
fn expired_deadline_still_yields_sound_greedy_bounds() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let k = 5;
        let inst = triangle_fan(k);
        let (tier, t) = one_tenant(
            inst.db.clone(),
            ServiceConfig {
                workers: 1,
                batch_max: 1,
                ..ServiceConfig::default()
            },
        );
        // Stall the worker on a deadline-free blocker so the hard job's
        // budget expires before it is even dequeued.
        let blocker_query = ConjunctiveQuery::parse("blocker :- R(x, y)").unwrap();
        let blocker_req = ExplainRequest::why_so(blocker_query, vec![]);
        tier.inject_delay({
            let marker = blocker_req.clone();
            move |req| (*req == marker).then_some(Duration::from_millis(120))
        });

        let blocker = tier.submit(t, blocker_req).unwrap();
        let doomed = tier
            .submit_with_deadline(
                t,
                ExplainRequest::why_so(inst.query.clone(), vec![]),
                Duration::from_millis(5),
            )
            .unwrap();

        let explanation = doomed
            .wait()
            .unwrap()
            .result
            .expect("expired hard job is rescued, not errored");
        assert_sound_brackets(&explanation);
        let probe = explanation
            .causes
            .iter()
            .find(|c| c.tuple == inst.probe)
            .expect("probe is a cause");
        let bounds = probe.bounds.unwrap();
        assert!(
            bounds.contains(inst.rho),
            "known ρ {} outside {bounds:?}",
            inst.rho
        );
        blocker.wait().unwrap().result.unwrap();

        let stats = tier.stats().aggregate();
        assert_eq!(stats.deadline_misses, 0, "rescued, not missed");
        assert_eq!(stats.approx_requests, 1);
        tier.shutdown();
    });
}

/// A database for the weakly linear (PTIME) query [`ptime_query`].
fn ptime_database() -> Database {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for (x, y) in [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3")] {
        db.insert_endo(r, vec![Value::str(x), Value::str(y)]);
    }
    for y in ["a1", "a3"] {
        db.insert_endo(s, vec![Value::str(y)]);
    }
    db
}

fn ptime_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
}

/// PTIME traffic is untouched by the router: with or without a
/// deadline, the answer is the exact explanation, bit for bit.
#[test]
fn ptime_route_with_deadline_is_bit_identical_to_exact() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let (tier, t) = one_tenant(
            ptime_database(),
            ServiceConfig {
                workers: 1,
                // No caching between the two submissions: both compute.
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let req = ExplainRequest::why_so(ptime_query(), vec![Value::str("a2")]);

        let exact = tier.explain(t, req.clone()).unwrap().expect_explanation();
        let deadlined = tier
            .submit_with_deadline(t, req, Duration::from_secs(5))
            .unwrap()
            .wait()
            .unwrap()
            .expect_explanation();

        assert_eq!(exact.mode, ExplainMode::Exact);
        assert_eq!(exact, deadlined, "PTIME route ignores the deadline");
        assert!(deadlined.causes.iter().all(|c| c.bounds.is_none()));
        let stats = tier.stats().aggregate();
        assert_eq!(
            stats.approx_requests, 0,
            "no PTIME request took the anytime path"
        );
        assert_eq!(stats.deadline_misses, 0);
        tier.shutdown();
    });
}

/// Mixed traffic takes each request's own route. One in four requests
/// is an NP-hard `dense_triangles` question under a 2 ms deadline; the
/// rest are deadline-free PTIME questions. Both tenants share the one
/// worker of a one-shard tier. Every hard answer is approximate, every
/// PTIME answer exact, no deadline is missed, and the queue drains.
/// Identical hard requests in flight together coalesce into one
/// computation, so the anytime counter may be lower than the number of
/// approximate answers, but never zero.
#[test]
fn mixed_hard_and_ptime_traffic_takes_each_route() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        const ROUNDS: usize = 60;
        let inst = dense_triangles(5, 40, 200);
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            admission_limit: ROUNDS,
            shard: ServiceConfig {
                workers: 1,
                queue_capacity: ROUNDS,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let easy = tier.add_tenant("easy", ptime_database()).unwrap();
        let hard = tier.add_tenant("hard", inst.db.clone()).unwrap();
        let easy_req = ExplainRequest::why_so(ptime_query(), vec![Value::str("a2")]);
        let hard_req = ExplainRequest::why_so(inst.query.clone(), vec![]);

        let pending: Vec<(bool, _)> = (0..ROUNDS)
            .map(|i| {
                let is_hard = i % 4 == 0;
                let submitted = if is_hard {
                    tier.submit_with_deadline(hard, hard_req.clone(), Duration::from_millis(2))
                } else {
                    tier.submit(easy, easy_req.clone())
                };
                (is_hard, submitted.expect("sized for zero rejects"))
            })
            .collect();
        let mut approximate = 0u64;
        for (is_hard, handle) in pending {
            let explanation = handle.wait().unwrap().expect_explanation();
            if is_hard {
                assert_sound_brackets(&explanation);
                approximate += 1;
            } else {
                assert_eq!(explanation.mode, ExplainMode::Exact, "PTIME never degrades");
            }
        }
        let stats = tier.stats().aggregate();
        assert_eq!(stats.deadline_misses, 0);
        assert!(
            (1..=approximate).contains(&stats.approx_requests),
            "{} anytime computations for {approximate} approximate answers",
            stats.approx_requests
        );
        assert_eq!(stats.queue_depth, 0, "the mixed stream drained");
        tier.shutdown();
    });
}

/// The anytime route is observable: the trace grows an `approx_refine`
/// stage, and the approx counters/export surface the route. The trace
/// names the phases: `kernel_solve` is the brackets (non-zero on a
/// dense triangle tenant), and `approx_refine` the time after them, the
/// answer's `budget_spent_us`.
#[test]
fn approx_route_is_visible_in_telemetry() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let inst = dense_triangles(4, 64, 7);
        let (tier, t) = one_tenant(
            inst.db.clone(),
            ServiceConfig {
                workers: 1,
                telemetry: TelemetryConfig::default(), // sample everything
                ..ServiceConfig::default()
            },
        );
        let explanation = tier
            .submit_with_deadline(
                t,
                ExplainRequest::why_so(inst.query.clone(), vec![]),
                Duration::from_secs(5),
            )
            .unwrap()
            .wait()
            .unwrap()
            .expect_explanation();
        let ExplainMode::Approximate {
            budget_spent_us, ..
        } = explanation.mode
        else {
            panic!("expected an approximate answer: {:?}", explanation.mode);
        };

        let traces = tier.recent_traces();
        assert_eq!(traces.len(), 1);
        let chain: Vec<&str> = traces[0].stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            chain,
            vec![
                "admission",
                "dispatch",
                "shard_queue",
                "worker_dequeue",
                "snapshot_pin",
                "lineage_intern",
                "kernel_solve",
                "approx_refine",
                "respond",
            ],
            "the anytime route records its refinement stage in order"
        );
        let span = |stage| traces[0].stage(stage).expect("anytime stage").dur_us;
        assert!(span(Stage::KernelSolve) > 0, "the brackets are timed");
        assert_eq!(span(Stage::ApproxRefine), budget_spent_us);
        assert_eq!(tier.stats().aggregate().approx_requests, 1);
        let prom = tier.export_metrics();
        assert!(
            prom.contains("approx_requests_total"),
            "approx counters exported:\n{prom}"
        );
        tier.shutdown();
    });
}

/// ROADMAP's deadline contract (anytime answers return within budget +
/// one refinement step), as a ratio so it holds in debug and release
/// alike. Z is the zero-budget `why_anytime` time (median of 5): the
/// lineage plus every cause's bracket. A call given a deadline Z after
/// its start should therefore spend its slack on refinement only and
/// return close to Z: the median over six dense triangle instances of
/// elapsed ÷ Z must stay ≤ 1.35. Interleaving brackets with refinement
/// lets the first causes' refinement use up the deadline before the
/// later brackets are computed, which lands near 2.
#[test]
fn anytime_answers_return_within_the_deadline_plus_one_step() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let mut ratios: Vec<f64> = (1..=6)
            .map(|seed| {
                let inst = dense_triangles(4, 64, seed);
                let explainer = Explainer::new(&inst.db, &inst.query);
                // Zero budget without a slack, else a deadline `slack`
                // after the call starts.
                let timed = |slack: Option<Duration>| {
                    let started = Instant::now();
                    let budget =
                        slack.map_or(ApproxBudget::zero(), |z| ApproxBudget::until(started + z));
                    let (explanation, _) = explainer.why_anytime(&[], budget).unwrap();
                    assert_sound_brackets(&explanation);
                    started.elapsed()
                };
                timed(None); // builds the join indexes
                let mut zero: Vec<Duration> = (0..5).map(|_| timed(None)).collect();
                zero.sort();
                let z = zero[2];
                timed(Some(z)).as_secs_f64() / z.as_secs_f64()
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = (ratios[2] + ratios[3]) / 2.0;
        assert!(
            median <= 1.35,
            "elapsed ÷ zero-budget time, per instance: {ratios:?}"
        );
    });
}

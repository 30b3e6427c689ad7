//! Panic-isolation regression test for the explanation service: a
//! panicking job must cost exactly one response — never a worker, and
//! never the pool.
//!
//! Before the `catch_unwind` boundary, a panic inside a worker died with
//! the thread and poisoned the shared request-queue / cache mutexes:
//! every later request then either panicked on the poisoned lock or
//! hung forever on a dead pool. This test drives more panicking jobs
//! than there are workers (so an un-isolated pool would be fully dead),
//! then proves every worker still serves, under a hard timeout so a
//! regression fails fast instead of hanging CI.

#[path = "common/tier.rs"]
mod tier;
#[path = "common/timeout.rs"]
mod timeout;

use causality::prelude::*;
use std::time::Duration;
use tier::one_tenant;
use timeout::with_timeout;

const HARD_TIMEOUT: Duration = Duration::from_secs(120);
const TIMED_OUT: &str = "panic isolation scenario timed out — dead pool?";

fn query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
}

fn seed_database() -> Database {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for (x, y) in [("a2", "a1"), ("a3", "a3"), ("a4", "a3"), ("a4", "a2")] {
        db.insert_endo(r, vec![Value::str(x), Value::str(y)]);
    }
    for y in ["a1", "a2", "a3"] {
        db.insert_endo(s, vec![Value::str(y)]);
    }
    db
}

#[test]
fn pool_survives_panicking_requests() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        const WORKERS: usize = 3;
        let (tier, t) = one_tenant(
            seed_database(),
            ServiceConfig {
                workers: WORKERS,
                queue_capacity: 16,
                batch_max: 4,
                ..ServiceConfig::default()
            },
        );
        // Chaos hook: every request for the marker answer panics inside
        // the worker that computes it.
        tier.inject_fault(|req| req.answer == vec![Value::str("a3")]);

        // Twice as many panicking jobs as workers: without isolation the
        // whole pool would be dead after the first wave. Distinct `k`s
        // keep the requests from coalescing into one computation, so
        // every single one panics in some worker.
        let poisoned: Vec<_> = (0..2 * WORKERS)
            .map(|k| {
                tier.submit(
                    t,
                    ExplainRequest::rank_top_k(query(), vec![Value::str("a3")], k + 1),
                )
                .expect("submit accepts the request")
            })
            .collect();
        for pending in poisoned {
            let resp = pending.wait().expect("a response arrives — not a hangup");
            match resp.result {
                Err(ServiceError::Panicked(msg)) => {
                    assert!(msg.contains("fault injected"), "panic message: {msg}")
                }
                other => panic!("expected ServiceError::Panicked, got {other:?}"),
            }
        }

        // All workers are still alive and serving: flood the pool with
        // more concurrent healthy requests than workers, from multiple
        // submitter threads (panics must not have poisoned the queue
        // mutex either).
        tier.clear_faults();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let tier = &tier;
                scope.spawn(move || {
                    for _ in 0..3 * WORKERS {
                        for answer in ["a2", "a4"] {
                            let resp = tier
                                .explain(
                                    t,
                                    ExplainRequest::why_so(query(), vec![Value::str(answer)]),
                                )
                                .expect("pool accepts work after the panics");
                            let explanation =
                                resp.result.expect("healthy requests compute cleanly");
                            assert!(!explanation.causes.is_empty());
                        }
                    }
                });
            }
        });

        let stats = tier.stats().aggregate();
        assert_eq!(
            stats.panics_caught,
            2 * WORKERS as u64,
            "every injected panic was caught, none escaped"
        );
        // The poisoned requests produced no cache entries; the healthy
        // ones were computed once each and then served warm.
        assert!(stats.cache_hits > 0, "cache still works after the panics");

        // A panicking job mixed into a batch with healthy ones only
        // takes down its own response.
        tier.inject_fault(|req| req.answer == vec![Value::str("a3")]);
        let mixed: Vec<_> = ["a2", "a3", "a4", "a2"]
            .iter()
            .map(|a| {
                tier.submit(t, ExplainRequest::why_so(query(), vec![Value::str(a)]))
                    .expect("submit")
            })
            .collect();
        let results: Vec<_> = mixed.into_iter().map(|p| p.wait().unwrap()).collect();
        assert!(matches!(results[1].result, Err(ServiceError::Panicked(_))));
        for i in [0usize, 2, 3] {
            assert!(
                results[i].result.is_ok(),
                "batch-mate {i} unaffected by the panicking job"
            );
        }

        // Clean shutdown still drains and joins.
        tier.shutdown();
    });
}

#[test]
fn rank_top_k_served_in_parallel_is_bit_identical() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        // The served RankTopK path (parallel, pruned) must agree with a
        // direct sequential library ranking.
        let (tier, t) = one_tenant(
            seed_database(),
            ServiceConfig {
                workers: 2,
                rank_parallelism: 4,
                ..ServiceConfig::default()
            },
        );
        let db = seed_database();
        let q = query();
        for answer in ["a2", "a3", "a4"] {
            for k in 1..=3usize {
                let served = tier
                    .explain(
                        t,
                        ExplainRequest::rank_top_k(q.clone(), vec![Value::str(answer)], k),
                    )
                    .unwrap()
                    .expect_explanation();
                let full = Explainer::new(&db, &q).why(&[Value::str(answer)]).unwrap();
                let reference = Explanation {
                    causes: full.causes.iter().take(k).cloned().collect(),
                    ..full
                };
                assert_eq!(
                    served, reference,
                    "served top-{k} for {answer} is bit-identical to sequential"
                );
            }
        }
        let stats = tier.stats().aggregate();
        assert!(stats.rank_tasks >= 1, "fresh rankings were computed");
    });
}

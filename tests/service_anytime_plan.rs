//! The anytime plan in the responsibility LRU, through a live tier.
//!
//! An NP-hard Why-So question under a deadline is answered from its
//! `AnytimePlan`: the lineage, the causes and phase one, which read no
//! clock. Each shard keeps the plan in its responsibility LRU under the
//! same (relation fingerprint, request) key as an exact answer, so a
//! repeat of the question runs only phase two and assembly. These
//! scenarios check the key and the invalidation: a repeat reuses the
//! plan and still equals a fresh `why_anytime`; a write to a relation
//! the query reads rebuilds it, and one to any other relation does not;
//! two tenants with the same query never share a plan; an exact answer
//! is served before the plan; and brownout answers read and fill the
//! same entries, beside an exact answer too.

#[path = "common/tier.rs"]
mod tier;
#[path = "common/timeout.rs"]
mod timeout;

use causality::datagen::hard_instances::dense_triangles;
use causality::prelude::*;
use causality::service::PendingExplain;
use std::collections::HashMap;
use std::time::Duration;
use tier::one_tenant;
use timeout::with_timeout;

const HARD_TIMEOUT: Duration = Duration::from_secs(120);
const TIMED_OUT: &str = "anytime-plan scenario timed out — a waiter was never answered?";

/// A deadline no computation here comes near: refinement runs until
/// every bracket collapses, as under an unlimited budget.
const SLACK: Duration = Duration::from_secs(60);

fn hard_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap()
}

fn why_so() -> ExplainRequest {
    ExplainRequest::why_so(hard_query(), vec![])
}

/// `dense_triangles(4, 64, seed)` with one more relation, `U`, which the
/// query does not read.
fn hard_database(seed: u64) -> Database {
    let mut db = dense_triangles(4, 64, seed).db;
    db.add_relation(Schema::new("U", &["a"]));
    db
}

/// An explanation with its one timing field zeroed, so explanations
/// compare bit for bit.
fn untimed(mut explanation: Explanation) -> Explanation {
    if let ExplainMode::Approximate {
        budget_spent_us, ..
    } = &mut explanation.mode
    {
        *budget_spent_us = 0;
    }
    explanation
}

/// `why_anytime` on `db` at `budget`, untimed.
fn fresh(db: &Database, budget: ApproxBudget) -> Explanation {
    let query = hard_query();
    untimed(
        Explainer::new(db, &query)
            .why_anytime(&[], budget)
            .unwrap()
            .0,
    )
}

/// Submit the question under `deadline` and wait for its response.
fn ask(tier: &ShardedService, tenant: TenantId, deadline: Duration) -> ExplainResponse {
    tier.submit_with_deadline(tenant, why_so(), deadline)
        .unwrap()
        .wait()
        .unwrap()
}

/// An approximate response checked against `db`: not an LRU hit, the
/// `Explainer`'s cause set, every bracket containing the exact ρ of
/// `resp::exact`, and equal to `why_anytime` at an unlimited budget.
fn assert_answers(response: ExplainResponse, db: &Database) -> Explanation {
    assert!(
        !response.cache_hit,
        "an answer from a plan is not an LRU hit"
    );
    let explanation = response.expect_explanation();
    assert!(
        matches!(explanation.mode, ExplainMode::Approximate { .. }),
        "{:?}",
        explanation.mode
    );
    let query = hard_query();
    let exact = Explainer::new(db, &query).why(&[]).unwrap();
    let rho: HashMap<TupleRef, f64> = exact.causes.iter().map(|c| (c.tuple, c.rho)).collect();
    let mut tuples: Vec<TupleRef> = explanation.causes.iter().map(|c| c.tuple).collect();
    tuples.sort();
    let mut want: Vec<TupleRef> = rho.keys().copied().collect();
    want.sort();
    assert_eq!(tuples, want, "the Explainer's cause set");
    for cause in &explanation.causes {
        let bounds = cause.bounds.expect("anytime causes carry brackets");
        assert!(bounds.contains(rho[&cause.tuple]), "{cause:?}");
    }
    let explanation = untimed(explanation);
    assert_eq!(explanation, fresh(db, ApproxBudget::unlimited()));
    explanation
}

/// A second identical deadline request answers from the plan the first
/// one built: one more plan hit and approx request, no LRU hit, and the
/// same answer as a fresh `why_anytime`.
#[test]
fn a_repeated_question_answers_from_its_plan() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let db = hard_database(7);
        let (tier, tenant) = one_tenant(db.clone(), ServiceConfig::default());

        let first = assert_answers(ask(&tier, tenant, SLACK), &db);
        let stats = tier.stats().aggregate();
        assert_eq!(
            (
                stats.approx_requests,
                stats.approx_plan_hits,
                stats.cache_misses
            ),
            (1, 0, 1),
            "the first occurrence builds the plan"
        );

        let second = assert_answers(ask(&tier, tenant, SLACK), &db);
        let stats = tier.stats().aggregate();
        assert_eq!(
            (
                stats.approx_requests,
                stats.approx_plan_hits,
                stats.cache_misses
            ),
            (2, 1, 2),
            "the repeat answers from the plan, as a miss"
        );
        assert_eq!(stats.cache_hits, 0, "an answer from a plan is no LRU hit");
        assert_eq!(first, second);
        tier.shutdown();
    });
}

/// A write that adds a triangle to the relations the query reads makes
/// the next request build a new plan on the new snapshot; a write to a
/// relation the query does not read keeps the plan.
#[test]
fn a_write_to_a_read_relation_rebuilds_the_plan() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let (tier, tenant) = one_tenant(hard_database(7), ServiceConfig::default());
        let plan_hits = || tier.stats().aggregate().approx_plan_hits;
        ask(&tier, tenant, SLACK).expect_explanation();

        tier.update(tenant, |db| {
            let [r, s, t] = ["R", "S", "T"].map(|name| db.relation_id(name).unwrap());
            db.insert_endo(r, vec![Value::str("x9"), Value::str("y9")]);
            db.insert_endo(s, vec![Value::str("y9"), Value::str("z9")]);
            db.insert_endo(t, vec![Value::str("z9"), Value::str("x9")]);
        })
        .unwrap();
        let grown = tier.snapshot(tenant).unwrap();
        let rebuilt = assert_answers(ask(&tier, tenant, SLACK), grown.database());
        assert_eq!(plan_hits(), 0, "a write to R, S and T invalidates the plan");
        assert!(
            rebuilt
                .causes
                .iter()
                .any(|c| c.values == vec![Value::str("x9"), Value::str("y9")].into()),
            "the new triangle's tuples are causes"
        );

        tier.update(tenant, |db| {
            let u = db.relation_id("U").unwrap();
            db.insert_endo(u, vec![Value::int(1)]);
        })
        .unwrap();
        let unrelated = tier.snapshot(tenant).unwrap();
        assert!(unrelated.version() > grown.version());
        let kept = assert_answers(ask(&tier, tenant, SLACK), unrelated.database());
        assert_eq!(plan_hits(), 1, "a write to U keeps the plan");
        assert_eq!(kept, rebuilt);
        tier.shutdown();
    });
}

/// Two tenants on one shard ask the same question of different
/// databases: each answer is its own database's, first occurrence and
/// repeat alike. The relation fingerprint in the key keeps the plans
/// apart.
#[test]
fn tenants_with_the_same_query_never_share_a_plan() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let (a_db, b_db) = (hard_database(7), hard_database(1));
        let (tier, a) = one_tenant(a_db.clone(), ServiceConfig::default());
        let b = tier.add_tenant("b", b_db.clone()).unwrap();
        assert_ne!(
            fresh(&a_db, ApproxBudget::unlimited()).causes,
            fresh(&b_db, ApproxBudget::unlimited()).causes,
            "the two databases differ in their causes"
        );
        for _ in 0..2 {
            assert_answers(ask(&tier, a, SLACK), &a_db);
            assert_answers(ask(&tier, b, SLACK), &b_db);
        }
        let stats = tier.stats().aggregate();
        assert_eq!((stats.approx_requests, stats.approx_plan_hits), (4, 2));
        tier.shutdown();
    });
}

/// A deadline-free request of the question is answered exactly, and
/// its answer takes the plan's place for worker requests: a later
/// deadline request is an LRU hit with that exact answer.
#[test]
fn an_exact_answer_replaces_the_plan() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let db = hard_database(7);
        let (tier, tenant) = one_tenant(db.clone(), ServiceConfig::default());
        ask(&tier, tenant, SLACK).expect_explanation();

        let exact = tier.explain(tenant, why_so()).unwrap();
        assert!(!exact.cache_hit, "a plan is no exact answer");
        let exact = exact.expect_explanation();
        assert_eq!(exact.mode, ExplainMode::Exact);
        assert_eq!(exact, Explainer::new(&db, &hard_query()).why(&[]).unwrap());

        let later = ask(&tier, tenant, SLACK);
        assert!(later.cache_hit, "the exact answer is served from the LRU");
        assert_eq!(later.expect_explanation(), exact);
        let stats = tier.stats().aggregate();
        assert_eq!(
            (
                stats.cache_hits,
                stats.approx_requests,
                stats.approx_plan_hits
            ),
            (1, 1, 0)
        );
        tier.shutdown();
    });
}

/// Brownout answers equal the zero-budget `why_anytime` answer, whether
/// the plan is built inline, was memoized, or has collapsed under a
/// worker's slack; a plan built in brownout is hit by the next worker
/// request; and beside an exact answer, which worker requests still hit,
/// brownout answers from a plan without rebuilding it.
#[test]
fn brownout_reads_and_fills_the_plan_entries() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            admission_limit: 64,
            brownout_high_water: 2,
            brownout_low_water: 0,
            breaker: BreakerConfig::disabled(),
            supervisor: SupervisorConfig::disabled(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let mut easy_db = Database::new();
        let r = easy_db.add_relation(Schema::new("R", &["x", "y"]));
        let s = easy_db.add_relation(Schema::new("S", &["y"]));
        for x in ["a", "c", "e"] {
            easy_db.insert_endo(r, vec![Value::str(x), Value::str("b")]);
        }
        easy_db.insert_endo(s, vec![Value::str("b")]);
        let easy = tier.add_tenant("easy", easy_db).unwrap();
        let db = hard_database(7);
        let hard = tier.add_tenant("hard", db.clone()).unwrap();
        let easy_query = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        // Stall the one worker behind three blockers asking about `x`
        // (the first computes, the others wait behind it), so the queue
        // depth crosses the high-water mark and stays above the low one.
        let stall = |x: &str| {
            tier.inject_delay(|req| (!req.answer.is_empty()).then_some(Duration::from_millis(150)));
            let blocker = ExplainRequest::why_so(easy_query.clone(), vec![Value::str(x)]);
            (0..3)
                .map(|_| tier.submit(easy, blocker.clone()).unwrap())
                .collect::<Vec<_>>()
        };
        let release = |blockers: Vec<PendingExplain>| {
            for blocker in blockers {
                blocker.wait().unwrap().result.unwrap();
            }
            tier.clear_faults();
        };
        let zero = fresh(&db, ApproxBudget::zero());
        let brownout = |at: &str| {
            let response = tier.explain(hard, why_so()).unwrap();
            assert!(!response.cache_hit, "{at}");
            assert_eq!(untimed(response.expect_explanation()), zero, "{at}");
        };

        let blockers = stall("a");
        brownout("building the plan");
        brownout("from the plan");
        assert_eq!(tier.stats().frontend.brownout_served, 2, "both inline");
        let stats = tier.stats().aggregate();
        assert_eq!(
            (stats.approx_requests, stats.approx_plan_hits),
            (0, 0),
            "the counters count worker computations only"
        );
        release(blockers);
        // Out of brownout, the worker answers from the plan brownout built,
        // and its slack collapses every bracket of the plan.
        assert_answers(ask(&tier, hard, SLACK), &db);
        let stats = tier.stats().aggregate();
        assert_eq!((stats.approx_requests, stats.approx_plan_hits), (1, 1));
        // A passed deadline never reads the plan's collapsed outcome.
        let blockers = stall("e");
        brownout("from the collapsed plan");
        assert_eq!(tier.stats().frontend.brownout_served, 3);
        release(blockers);

        // An exact answer is what worker requests get from now on; the
        // plan stays beside it, and brownout answers from the plan.
        let exact = tier.explain(hard, why_so()).unwrap().expect_explanation();
        assert_eq!(exact.mode, ExplainMode::Exact);
        let blockers = stall("c");
        brownout("beside an exact answer");
        brownout("again beside an exact answer");
        assert_eq!(tier.stats().frontend.brownout_served, 5);
        let last_hard = tier
            .recent_traces()
            .into_iter()
            .filter(|trace| trace.relations == 3)
            .max_by_key(|trace| trace.seq)
            .expect("the brownout is traced");
        assert_eq!(
            last_hard
                .stage(Stage::LineageIntern)
                .map(|span| span.dur_us),
            Some(0),
            "the second brownout beside the exact answer builds no plan"
        );
        release(blockers);
        let later = ask(&tier, hard, SLACK);
        assert!(later.cache_hit, "the exact answer is still memoized");
        assert_eq!(later.expect_explanation(), exact);
        tier.shutdown();
    });
}

//! Property tests for the explanation service: end-to-end responsibility
//! invariants on random instances, served through the full worker-pool /
//! snapshot / cache stack.
//!
//! * ρ ∈ (0, 1] for every served cause;
//! * ρ = 1 **iff** the cause is counterfactual (empty minimum
//!   contingency), cross-checked against Theorem 3.2's counterfactual
//!   set computed by the library directly;
//! * cache-hit answers are bit-identical to the cold answers.

#[path = "common/tier.rs"]
mod tier;

use causality::prelude::*;
use causality_core::causes::{why_no_causes, why_so_causes};
use proptest::prelude::*;
use tier::one_tenant;

/// A small random database for q(x) :- R(x,y), S(y) with mixed natures.
fn rs_database(r_rows: &[(u8, u8, bool)], s_rows: &[(u8, bool)]) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for &(x, y, endo) in r_rows {
        db.insert(
            r,
            vec![Value::from(i64::from(x)), Value::from(i64::from(y))],
            endo,
        );
    }
    for &(y, endo) in s_rows {
        db.insert(s, vec![Value::from(i64::from(y))], endo);
    }
    let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
    (db, q)
}

fn small_service(db: Database) -> (ShardedService, TenantId) {
    one_tenant(
        db,
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            batch_max: 4,
            cache_capacity: 64,
            cached_versions: 2,
            rank_parallelism: 1,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Why-So through the service: ρ ∈ (0,1], ρ = 1 iff counterfactual,
    /// and a cache hit is bit-identical to the cold answer.
    #[test]
    fn served_why_so_responsibility_invariants(
        r_rows in prop::collection::vec((0u8..3, 0u8..3, any::<bool>()), 0..6),
        s_rows in prop::collection::vec((0u8..3, any::<bool>()), 0..4),
    ) {
        let (db, q) = rs_database(&r_rows, &s_rows);
        let answers = evaluate(&db, &q).unwrap().answers;
        let (tier, t) = small_service(db.clone());
        for answer in answers {
            let answer: Vec<Value> = answer.values().to_vec();
            let request = ExplainRequest::why_so(q.clone(), answer.clone());
            let cold = tier.explain(t, request.clone()).unwrap();
            prop_assert!(!cold.cache_hit);
            let cold = cold.result.expect("why-so computes");

            // Theorem 3.2 reference: the counterfactual set of q[ā/x̄].
            let reference = why_so_causes(&db, &q.ground(&answer)).unwrap();
            prop_assert_eq!(cold.causes.len(), reference.actual.len());
            for cause in &cold.causes {
                prop_assert!(cause.rho > 0.0 && cause.rho <= 1.0,
                    "ρ = {} out of (0,1]", cause.rho);
                let is_cf = reference.counterfactual.contains(&cause.tuple);
                prop_assert_eq!(cause.rho == 1.0, is_cf,
                    "ρ = 1 iff the cause is counterfactual (ρ = {})", cause.rho);
                prop_assert_eq!(cause.counterfactual, is_cf);
                prop_assert_eq!(cause.contingency.is_empty(), is_cf,
                    "counterfactual iff empty contingency");
            }

            let warm = tier.explain(t, request).unwrap();
            prop_assert!(warm.cache_hit);
            prop_assert_eq!(warm.result.expect("cache hit"), cold,
                "cache-hit answer bit-identical to cold");
        }
    }

    /// Why-No through the service: same invariants on non-answers, with
    /// exogenous rows as the real database and endogenous rows as the
    /// candidate insertions (Theorem 4.17 is PTIME, so every case runs).
    #[test]
    fn served_why_no_responsibility_invariants(
        r_rows in prop::collection::vec((0u8..3, 0u8..3, any::<bool>()), 1..6),
        s_rows in prop::collection::vec((0u8..3, any::<bool>()), 1..4),
        probe in 0u8..3,
    ) {
        let (db, q) = rs_database(&r_rows, &s_rows);
        let answer = vec![Value::from(i64::from(probe))];
        let (tier, t) = small_service(db.clone());
        let request = ExplainRequest::why_no(q.clone(), answer.clone());
        let cold = tier.explain(t, request.clone()).unwrap();
        let cold = cold.result.expect("why-no computes");

        let reference = why_no_causes(&db, &q.ground(&answer)).unwrap();
        prop_assert_eq!(cold.causes.len(), reference.actual.len());
        for cause in &cold.causes {
            prop_assert!(cause.rho > 0.0 && cause.rho <= 1.0);
            let is_cf = reference.counterfactual.contains(&cause.tuple);
            prop_assert_eq!(cause.rho == 1.0, is_cf);
            prop_assert_eq!(cause.counterfactual, is_cf);
        }

        let warm = tier.explain(t, request).unwrap();
        prop_assert!(warm.cache_hit);
        prop_assert_eq!(warm.result.expect("cache hit"), cold);
    }

    /// Publishing a snapshot invalidates by key: the service recomputes
    /// and the fresh answer matches a fresh library computation.
    #[test]
    fn served_answers_track_published_snapshots(
        r_rows in prop::collection::vec((0u8..3, 0u8..3, any::<bool>()), 1..5),
        s_rows in prop::collection::vec((0u8..3, any::<bool>()), 1..4),
        extra in (0u8..3, 0u8..3),
    ) {
        let (db, q) = rs_database(&r_rows, &s_rows);
        let answers = evaluate(&db, &q).unwrap().answers;
        let (tier, t) = small_service(db);
        if let Some(answer) = answers.first() {
            let answer: Vec<Value> = answer.values().to_vec();
            let request = ExplainRequest::why_so(q.clone(), answer.clone());
            tier.explain(t, request.clone()).unwrap();
            tier.update(t, |db| {
                let r = db.relation_id("R").unwrap();
                let s = db.relation_id("S").unwrap();
                db.insert_endo(r, vec![
                    Value::from(i64::from(extra.0)),
                    Value::from(i64::from(extra.1)),
                ]);
                db.insert_endo(s, vec![Value::from(i64::from(extra.1))]);
            }).unwrap();
            let fresh = tier.explain(t, request).unwrap();
            prop_assert!(!fresh.cache_hit, "new version misses the cache");
            prop_assert_eq!(fresh.snapshot_version, 2);
            let fresh = fresh.result.expect("computes on new snapshot");
            let snap = tier.snapshot(t).unwrap();
            let reference = Explainer::new(snap.database(), &q).why(&answer).unwrap();
            prop_assert_eq!(fresh, reference);
        }
    }
}

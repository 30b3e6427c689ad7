//! Property tests for structurally-shared snapshots: per-relation `Arc`
//! sharing, per-relation version stamps, and the cache layers built on
//! them.
//!
//! The invariants under test are the ones the serving architecture leans
//! on (docs/ARCHITECTURE.md):
//!
//! * an update touching a subset of relations leaves every *untouched*
//!   relation pointer-equal (`Arc::ptr_eq`) between the old and new
//!   snapshots — publication cost is O(touched), not O(database);
//! * per-relation versions bump **exactly** for the touched relations and
//!   are strictly monotone;
//! * the service's responsibility cache, keyed on the query's relations'
//!   content stamps, keeps serving hits across writes to relations the
//!   query never reads.

#[path = "common/tier.rs"]
mod tier;

use causality::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use tier::one_tenant;

/// Build a store over `n_rels` single-column relations `T0..T{n-1}`,
/// each seeded with a few endogenous tuples.
fn store_with_relations(n_rels: usize) -> SnapshotStore {
    let mut db = Database::new();
    for i in 0..n_rels {
        let rel = db.add_relation(Schema::new(format!("T{i}"), &["x"]));
        for v in 0..3i64 {
            db.insert_endo(rel, vec![Value::from(v)]);
        }
    }
    SnapshotStore::new(db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One update touching an arbitrary subset of relations: untouched
    /// relations stay pointer-equal and keep their stamps; touched ones
    /// diverge and re-stamp monotonically.
    #[test]
    fn untouched_relations_are_pointer_equal_across_versions(
        n_rels in 2usize..7,
        touch_raw in prop::collection::vec(0usize..7, 1..5),
    ) {
        let touched: Vec<usize> = {
            let mut t: Vec<usize> = touch_raw.iter().map(|i| i % n_rels).collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let store = store_with_relations(n_rels);
        let before = store.current();
        let stamps_before = before.relation_versions();

        let to_touch = touched.clone();
        let after = store.update(move |db| {
            for &i in &to_touch {
                let rel = RelId(i as u32);
                db.insert_endo(rel, vec![Value::from(100 + i as i64)]);
            }
        });
        prop_assert_eq!(after.version(), before.version() + 1);

        let stamps_after = after.relation_versions();
        for i in 0..n_rels {
            let rel = RelId(i as u32);
            let shared = Arc::ptr_eq(before.relation_arc(rel), after.relation_arc(rel));
            if touched.contains(&i) {
                prop_assert!(!shared, "touched T{} must be copied, not shared", i);
                prop_assert!(
                    stamps_after[i].1 > stamps_before[i].1,
                    "touched T{} must re-stamp monotonically", i
                );
            } else {
                prop_assert!(shared, "untouched T{} must stay pointer-equal", i);
                prop_assert_eq!(
                    stamps_after[i], stamps_before[i],
                    "untouched T{} must keep its stamp", i
                );
            }
        }
    }

    /// A chain of single-relation updates: each published version shares
    /// all but one relation with its predecessor, and a reader pinned at
    /// version 1 still sees the original contents at the end.
    #[test]
    fn single_touch_chains_share_all_but_one_relation(
        n_rels in 3usize..6,
        touches in prop::collection::vec(0usize..6, 1..6),
    ) {
        let store = store_with_relations(n_rels);
        let pinned = store.current();
        let mut prev = store.current();
        for (step, raw) in touches.iter().enumerate() {
            let hit = raw % n_rels;
            let next = store.update(move |db| {
                let rel = RelId(hit as u32);
                db.insert_endo(rel, vec![Value::from(1000 + step as i64)]);
            });
            let shared = (0..n_rels)
                .filter(|&i| {
                    Arc::ptr_eq(
                        prev.relation_arc(RelId(i as u32)),
                        next.relation_arc(RelId(i as u32)),
                    )
                })
                .count();
            prop_assert_eq!(shared, n_rels - 1, "exactly one relation copied per step");
            prev = next;
        }
        // The pinned version-1 reader never saw any of it.
        prop_assert_eq!(pinned.tuple_count(), n_rels * 3);
    }

    /// Service responsibility-cache hits survive writes to relations the
    /// query does not read, and are bit-identical to the cold answer.
    #[test]
    fn service_cache_hits_survive_unrelated_writes(
        unrelated_writes in 1usize..4,
        values in prop::collection::vec(0i64..5, 1..4),
    ) {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.add_relation(Schema::new("Unrelated", &["z"]));
        for &v in &values {
            db.insert_endo(r, vec![Value::from(v), Value::from(v + 1)]);
            db.insert_endo(s, vec![Value::from(v + 1)]);
        }
        let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        let answer = vec![Value::from(values[0])];
        let (tier, t) = one_tenant(db, ServiceConfig::default());

        let req = ExplainRequest::why_so(q, answer);
        let cold = tier.explain(t, req.clone()).unwrap();
        prop_assert!(!cold.cache_hit);

        for i in 0..unrelated_writes {
            tier.update(t, move |db| {
                let u = db.relation_id("Unrelated").unwrap();
                db.insert_endo(u, vec![Value::from(i as i64)]);
            }).unwrap();
        }
        let warm = tier.explain(t, req.clone()).unwrap();
        prop_assert!(warm.cache_hit, "unrelated writes must not evict the answer");
        prop_assert_eq!(
            warm.result.clone().unwrap(),
            cold.result.clone().unwrap(),
            "hit is bit-identical to the cold answer"
        );
        prop_assert_eq!(warm.snapshot_version, 1 + unrelated_writes as u64);

        // A write to a relation the query *does* read must miss.
        tier.update(t, |db| {
            let s = db.relation_id("S").unwrap();
            db.insert_endo(s, vec![Value::from(999)]);
        }).unwrap();
        let miss = tier.explain(t, req).unwrap();
        prop_assert!(!miss.cache_hit, "touching S moves the fingerprint");
    }
}

/// The engine-level contract the service keying relies on: evaluating
/// through one shared cache across a write to an unrelated relation
/// rebuilds nothing.
#[test]
fn shared_index_cache_needs_no_rebuild_after_unrelated_write() {
    let store = store_with_relations(3);
    let cache = SharedIndexCache::new();
    let q = ConjunctiveQuery::parse("q(x) :- T0(x), T1(x)").unwrap();

    let v1 = store.current();
    let cold = evaluate_with_cache(&v1, &q, &cache).unwrap();
    let built = cache.len();
    assert!(built > 0);

    let v2 = store.update(|db| {
        let t2 = db.relation_id("T2").unwrap();
        db.insert_endo(t2, vec![Value::from(41)]);
    });
    let warm = evaluate_with_cache(&v2, &q, &cache).unwrap();
    assert_eq!(cache.len(), built, "T0/T1 indexes stayed warm");
    assert_eq!(cold.answers, warm.answers);

    // Writing T0 invalidates exactly T0's entries once evicted; T1's
    // index (and correctness) are untouched.
    let v3 = store.update(|db| {
        let t0 = db.relation_id("T0").unwrap();
        db.insert_endo(t0, vec![Value::from(7)]);
    });
    evaluate_with_cache(&v3, &q, &cache).unwrap();
    let evicted = cache.retain_versions(&v3.relation_versions());
    assert_eq!(evicted, 1, "only T0's stale index dies");
    let again = evaluate_with_cache(&v3, &q, &cache).unwrap();
    assert_eq!(again.answers, warm.answers, "7 ∉ T1: same answers");
}

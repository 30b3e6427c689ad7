//! Differential tests for Algorithm 1's one network per query
//! (`resp::flow`) against the seed per-tuple implementation retained in
//! `resp::flow::oracle`:
//!
//! * for **every** tuple of a random database (causes, non-causes and
//!   exogenous tuples), `why_so_responsibility_flow_with` returns the
//!   oracle's `(Responsibility, FlowStats)` or the same error, under both
//!   max-flow algorithms, and `why_so_responsibility_flow_cached` the
//!   oracle's responsibility;
//! * `rank_why_so_parallel` under `Auto` and `Flow`, at parallelism 1
//!   and 2, full and top-2, returns the tuples, ρ and Γ (in order) of a
//!   reference that solves each cause with the oracle (with the exact
//!   solver under `Auto` where the oracle refuses the query), sorts by ρ
//!   descending then tuple, and truncates;
//! * three fixed cases pin the ranker's once-per-ranking decisions.
//!
//! The random instances are 2-chains (grounded answers and a grounded
//! non-answer), 3-chains with an exogenous middle, Example 4.12's
//! triangle with exogenous `S`, and 2-chains with per-tuple natures, so
//! some relations are mixed and `Auto` falls back. Counterfactual causes
//! are read off the lineage without a solve, so each sweep prints how
//! many of its cases rank a cause that is *not* counterfactual on a flow
//! network, and fails if none does: the suite is known to reach the
//! per-cause solve, not only the read-off.

use causality::prelude::*;
use causality_core::error::CoreError;
use causality_core::ranking::RankedCause;
use causality_core::resp::{exact, flow};
use causality_graph::maxflow::FlowAlgorithm;
use proptest::prelude::*;
use proptest::TestRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Cases per sweep unless `PROPTEST_CASES` overrides it.
const CASES: u32 = 48;

/// Every tuple of the database, endogenous or not, in tuple order.
fn all_tuples(db: &Database) -> Vec<TupleRef> {
    db.relations()
        .flat_map(|(rel, relation)| {
            (0..relation.len()).map(move |row| TupleRef::new(rel.0, row as u32))
        })
        .collect()
}

/// The oracle's Algorithm 1 for one tuple.
fn oracle(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
    algo: FlowAlgorithm,
) -> Result<(Responsibility, flow::FlowStats), CoreError> {
    flow::oracle::why_so_responsibility_flow_with(db, q, t, algo)
}

/// Whether `Auto` answers this oracle error with the exact solver.
fn falls_back(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::NotWeaklyLinear { .. }
            | CoreError::SelfJoin { .. }
            | CoreError::UnmarkedAtom { .. }
            | CoreError::TooLarge { .. }
            | CoreError::BudgetExceeded { .. }
    )
}

/// The reference ranking: every actual cause solved alone by the oracle
/// (by the exact solver under `Auto` where the oracle refuses the
/// query), sorted by ρ descending, then by tuple. The first error in
/// tuple order is the ranking's.
fn reference_ranking(
    db: &Database,
    q: &ConjunctiveQuery,
    method: Method,
) -> Result<Vec<RankedCause>, CoreError> {
    let mut ranked = Vec::new();
    for t in why_so_causes(db, q).unwrap().actual {
        let responsibility = match oracle(db, q, t, FlowAlgorithm::Dinic) {
            Ok((r, _)) => r,
            Err(e) if method == Method::Auto && falls_back(&e) => {
                exact::why_so_responsibility_exact(db, q, t)?
            }
            Err(e) => return Err(e),
        };
        ranked.push(RankedCause {
            tuple: t,
            responsibility,
        });
    }
    ranked.sort_by(|a, b| {
        b.responsibility
            .rho
            .total_cmp(&a.responsibility.rho)
            .then(a.tuple.cmp(&b.tuple))
    });
    Ok(ranked)
}

/// Runs every check on one instance. Returns whether the instance has a
/// cause that is not counterfactual and that Algorithm 1 solves, i.e.
/// one that reached the plan's per-cause solve in the rankings.
fn check_instance(db: &Database, q: &ConjunctiveQuery) -> bool {
    let cache = SharedIndexCache::new();
    for t in all_tuples(db) {
        for algo in [FlowAlgorithm::Dinic, FlowAlgorithm::EdmondsKarp] {
            let ours = flow::why_so_responsibility_flow_with(db, q, t, algo);
            let seed = oracle(db, q, t, algo);
            match (&ours, &seed) {
                (Ok(ours), Ok(seed)) => assert_eq!(ours, seed, "{t:?} under {algo:?}"),
                _ => assert_eq!(format!("{ours:?}"), format!("{seed:?}"), "{t:?}"),
            }
        }
        let cached = flow::why_so_responsibility_flow_cached(db, q, t, Some(&cache));
        let seed = oracle(db, q, t, FlowAlgorithm::Dinic).map(|(r, _)| r);
        assert_eq!(format!("{cached:?}"), format!("{seed:?}"), "{t:?} cached");
    }

    for method in [Method::Auto, Method::Flow] {
        let reference = reference_ranking(db, q, method);
        for parallelism in [1usize, 2] {
            for top_k in [None, Some(2)] {
                let cfg = RankConfig {
                    method,
                    parallelism,
                    top_k,
                };
                let out = rank_why_so_parallel(db, q, &cfg, Some(&cache));
                match (&reference, out) {
                    (Ok(reference), Ok(out)) => {
                        let k = top_k.unwrap_or(reference.len()).min(reference.len());
                        assert_eq!(out.causes, reference[..k], "{cfg:?}");
                    }
                    (reference, out) => assert_eq!(
                        format!("{:?}", out.map(|o| o.causes)),
                        format!("{reference:?}"),
                        "{cfg:?}"
                    ),
                }
            }
        }
    }

    let causes = why_so_causes(db, q).unwrap();
    causes
        .actual
        .difference(&causes.counterfactual)
        .any(|&t| oracle(db, q, t, FlowAlgorithm::Dinic).is_ok())
}

/// Draws `CASES` instances (or `PROPTEST_CASES`) from `strategy` with the
/// seeded per-name RNG the `proptest!` runner uses, checks every query
/// `instances` builds from each, prints how many cases reached the
/// per-cause solve, and fails if none did. A failing case reports its
/// drawn inputs.
fn sweep<S: Strategy>(
    name: &str,
    strategy: S,
    instances: impl Fn(&S::Value) -> (Database, Vec<ConjunctiveQuery>),
) {
    let cases = ProptestConfig::with_cases(CASES).resolved_cases();
    let mut rng = TestRng::from_name(name);
    let mut reached_solve = 0u32;
    for case in 0..cases {
        let drawn = strategy.generate(&mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (db, queries) = instances(&drawn);
            // Count, not `any`: every query must be checked.
            queries.iter().filter(|q| check_instance(&db, q)).count() > 0
        }));
        match outcome {
            Ok(reached) => reached_solve += u32::from(reached),
            Err(panic) => {
                eprintln!("{name}: case {}/{cases} failed with {drawn:?}", case + 1);
                resume_unwind(panic);
            }
        }
    }
    println!(
        "{name}: {reached_solve} of {cases} cases rank a non-counterfactual cause on a flow network"
    );
    assert!(
        cases == 0 || reached_solve > 0,
        "{name} never reaches the per-cause solve"
    );
}

fn value(v: u8) -> Value {
    Value::from(i64::from(v))
}

/// Adds a relation and inserts each row with its own nature.
fn relation(db: &mut Database, name: &str, attrs: &[&str], rows: &[(Vec<u8>, bool)]) {
    let rel = db.add_relation(Schema::new(name, attrs));
    for (row, endo) in rows {
        db.insert(
            rel,
            row.iter().map(|&v| value(v)).collect::<Vec<_>>(),
            *endo,
        );
    }
}

/// Rows of one relation, all of one nature.
fn uniform(rows: &[(u8, u8)], endo: bool) -> Vec<(Vec<u8>, bool)> {
    rows.iter().map(|&(a, b)| (vec![a, b], endo)).collect()
}

/// `q(x) :- R(x, y), S(y)` with endogenous `R` and a drawn nature for
/// `S`, grounded to every answer and to the non-answer `x = 9`.
#[test]
fn two_chains_match_the_oracle() {
    sweep(
        "two_chains_match_the_oracle",
        (
            prop::collection::vec((0u8..3, 0u8..4), 1..10),
            prop::collection::vec(0u8..4, 1..5),
            any::<bool>(),
        ),
        |(r_rows, s_rows, s_endo)| {
            let mut db = Database::new();
            relation(&mut db, "R", &["x", "y"], &uniform(r_rows, true));
            let s: Vec<(Vec<u8>, bool)> = s_rows.iter().map(|&y| (vec![y], *s_endo)).collect();
            relation(&mut db, "S", &["y"], &s);
            let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
            let mut queries: Vec<ConjunctiveQuery> = evaluate(&db, &q)
                .unwrap()
                .answers
                .iter()
                .map(|answer| q.ground(answer.values()))
                .collect();
            queries.push(q.ground(&[value(9)]));
            (db, queries)
        },
    );
}

/// `q :- R(x, y), S(y, z), T(z, w)` with an exogenous middle.
#[test]
fn three_chains_with_exogenous_middle_match_the_oracle() {
    sweep(
        "three_chains_with_exogenous_middle_match_the_oracle",
        (
            prop::collection::vec((0u8..3, 0u8..3), 1..6),
            prop::collection::vec((0u8..3, 0u8..3), 1..6),
            prop::collection::vec((0u8..3, 0u8..3), 1..5),
        ),
        |(r_rows, s_rows, t_rows)| {
            let mut db = Database::new();
            relation(&mut db, "R", &["x", "y"], &uniform(r_rows, true));
            relation(&mut db, "S", &["y", "z"], &uniform(s_rows, false));
            relation(&mut db, "T", &["z", "w"], &uniform(t_rows, true));
            let q = ConjunctiveQuery::parse("q :- R(x, y), S(y, z), T(z, w)").unwrap();
            (db, vec![q])
        },
    );
}

/// Example 4.12's weakly linear triangle: `S` exogenous.
#[test]
fn triangles_with_exogenous_side_match_the_oracle() {
    sweep(
        "triangles_with_exogenous_side_match_the_oracle",
        (
            prop::collection::vec((0u8..3, 0u8..3), 1..6),
            prop::collection::vec((0u8..3, 0u8..3), 1..6),
            prop::collection::vec((0u8..3, 0u8..3), 1..6),
        ),
        |(r_rows, s_rows, t_rows)| {
            let mut db = Database::new();
            relation(&mut db, "R", &["x", "y"], &uniform(r_rows, true));
            relation(&mut db, "S", &["y", "z"], &uniform(s_rows, false));
            relation(&mut db, "T", &["z", "x"], &uniform(t_rows, true));
            let q = ConjunctiveQuery::parse("q :- R(x, y), S(y, z), T(z, x)").unwrap();
            (db, vec![q])
        },
    );
}

/// `q :- R(x, y), S(y)` with a drawn nature per tuple (0 is exogenous,
/// anything else endogenous): mixed relations make Algorithm 1 refuse
/// the query, and `Auto` falls back to the exact solver.
#[test]
fn mixed_nature_chains_match_the_oracle() {
    sweep(
        "mixed_nature_chains_match_the_oracle",
        (
            prop::collection::vec((0u8..3, 0u8..2, 0u8..4), 1..7),
            prop::collection::vec((0u8..2, 0u8..4), 1..3),
        ),
        |(r_rows, s_rows)| {
            let mut db = Database::new();
            let r: Vec<(Vec<u8>, bool)> = r_rows
                .iter()
                .map(|&(x, y, nature)| (vec![x, y], nature != 0))
                .collect();
            let s: Vec<(Vec<u8>, bool)> = s_rows
                .iter()
                .map(|&(y, nature)| (vec![y], nature != 0))
                .collect();
            relation(&mut db, "R", &["x", "y"], &r);
            relation(&mut db, "S", &["y"], &s);
            let q = ConjunctiveQuery::parse("q :- R(x, y), S(y)").unwrap();
            (db, vec![q])
        },
    );
}

/// The h2* triangle over `rows`, every tuple endogenous.
fn triangle(rows: [(u8, u8); 3]) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    for ((name, attrs), row) in [("R", ["x", "y"]), ("S", ["y", "z"]), ("T", ["z", "x"])]
        .into_iter()
        .zip(rows)
    {
        relation(&mut db, name, &attrs, &uniform(&[row], true));
    }
    let q = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();
    (db, q)
}

/// A `Flow` ranking of `q`, without an index cache.
fn flow_ranking(
    db: &Database,
    q: &ConjunctiveQuery,
    parallelism: usize,
    top_k: Option<usize>,
) -> Result<RankedTopK, CoreError> {
    let cfg = RankConfig {
        method: Method::Flow,
        parallelism,
        top_k,
    };
    rank_why_so_parallel(db, q, &cfg, None)
}

/// `Flow` on one h2* triangle: every cause is counterfactual, so no
/// cause needs a solve, yet the ranking still reports that the query is
/// not weakly linear. With `top_k: Some(0)` nothing is solved and
/// nothing fails.
#[test]
fn flow_ranking_of_counterfactual_causes_still_checks_the_query() {
    let (db, q) = triangle([(1, 2), (2, 3), (3, 1)]);
    let causes = why_so_causes(&db, &q).unwrap();
    assert_eq!(causes.actual.len(), 3);
    assert_eq!(causes.counterfactual, causes.actual);
    for parallelism in [1, 2] {
        for top_k in [None, Some(1)] {
            let err = flow_ranking(&db, &q, parallelism, top_k).unwrap_err();
            assert!(matches!(err, CoreError::NotWeaklyLinear { .. }), "{err:?}");
        }
        let none = flow_ranking(&db, &q, parallelism, Some(0)).unwrap();
        assert!(none.causes.is_empty());
        assert_eq!(none.stats.pruned, 3);
    }
}

/// `Flow` on a false query ranks nothing, and so fails on nothing, even
/// when the query is not weakly linear.
#[test]
fn flow_ranking_of_a_false_query_is_empty() {
    let (db, q) = triangle([(1, 2), (2, 3), (3, 9)]);
    for parallelism in [1, 2] {
        let out = flow_ranking(&db, &q, parallelism, None).unwrap();
        assert!(out.causes.is_empty());
        assert_eq!(out.stats.candidates, 0);
    }
}

/// `Auto` on a self-join query whose causes are all counterfactual
/// reads them off at ρ = 1 with Γ = ∅, as the exact solver has them.
#[test]
fn auto_ranks_counterfactual_self_join_causes_at_one() {
    let mut db = Database::new();
    relation(&mut db, "R", &["x", "y"], &uniform(&[(1, 2), (2, 3)], true));
    let q = ConjunctiveQuery::parse("q :- R(x, y), R(y, z)").unwrap();
    let ranked = rank_why_so_parallel(&db, &q, &RankConfig::default(), None).unwrap();
    assert_eq!(ranked.causes.len(), 2);
    for rc in &ranked.causes {
        assert_eq!(
            rc.responsibility,
            Responsibility::from_contingency(Vec::new())
        );
        assert_eq!(
            exact::why_so_responsibility_exact(&db, &q, rc.tuple).unwrap(),
            rc.responsibility
        );
    }
}

//! Differential property tests for responsibility ranking:
//!
//! * `resp::exact` (branch-and-bound over the lineage) and `resp::flow`
//!   (Algorithm 1 via max-flow) must agree on ρ for every cause of a
//!   random weakly-linear, self-join-free instance — the two sides of
//!   the dichotomy meet on the PTIME cases;
//! * the ranker must return a **bit-identical** order to the reference
//!   ranking (each cause solved alone, then sorted) for every
//!   `parallelism ∈ {1, 2, 8}`, with and without top-k truncation
//!   (pruning included);
//! * the rankers must agree with the paper's definitions by brute
//!   force: the ranked tuples are the Def. 2.1 causes, each ρ is
//!   Def. 2.3's `1 / (1 + min |Γ|)`, and each witness Γ is a
//!   contingency — on mixed-nature chains, on small h2* triangles, and
//!   for Why-No.

use causality::prelude::*;
use causality_core::causes::{
    brute_force_why_so, smallest_whyno_contingency, smallest_whyso_contingency,
};
use causality_core::error::CoreError;
use causality_core::ranking::{rank_why_so_parallel, RankConfig, RankedCause};
use causality_core::resp;
use causality_engine::holds_masked;
use causality_graph::maxflow::FlowAlgorithm;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The reference ranking, sharing none of the ranker's code: every
/// actual cause solved alone by its method's single-tuple function
/// (each call derives its own lineage), with Algorithm 1 taken from the
/// seed `resp::flow::oracle` and `Auto` falling back to the exact solver
/// where the oracle refuses the query, sorted by ρ descending, then by
/// tuple.
fn reference_ranking(db: &Database, q: &ConjunctiveQuery, method: Method) -> Vec<RankedCause> {
    let flow = |t| {
        resp::flow::oracle::why_so_responsibility_flow_with(db, q, t, FlowAlgorithm::Dinic)
            .map(|(r, _)| r)
    };
    let mut ranked: Vec<RankedCause> = why_so_causes(db, q)
        .unwrap()
        .actual
        .into_iter()
        .map(|t| RankedCause {
            tuple: t,
            responsibility: match method {
                Method::Auto => match flow(t) {
                    Err(
                        CoreError::NotWeaklyLinear { .. }
                        | CoreError::SelfJoin { .. }
                        | CoreError::UnmarkedAtom { .. }
                        | CoreError::TooLarge { .. }
                        | CoreError::BudgetExceeded { .. },
                    ) => resp::exact::why_so_responsibility_exact(db, q, t),
                    other => other,
                },
                Method::Exact => resp::exact::why_so_responsibility_exact(db, q, t),
                Method::Flow => flow(t),
            }
            .unwrap(),
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.responsibility
            .rho
            .total_cmp(&a.responsibility.rho)
            .then(a.tuple.cmp(&b.tuple))
    });
    ranked
}

/// Def. 2.1 and 2.3 by brute force: every actual cause of the Boolean
/// query with the size of its smallest contingency.
fn brute_force_whyso_sizes(db: &Database, q: &ConjunctiveQuery) -> BTreeMap<TupleRef, usize> {
    let endo = db.endogenous_tuples();
    brute_force_why_so(db, q)
        .unwrap()
        .actual
        .into_iter()
        .map(|t| {
            let others: Vec<TupleRef> = endo.iter().copied().filter(|&u| u != t).collect();
            let gamma = smallest_whyso_contingency(db, q, t, &others)
                .unwrap()
                .expect("an actual cause has a contingency");
            (t, gamma.len())
        })
        .collect()
}

/// The ranked tuples are exactly the causes in `sizes`, each with
/// `ρ = 1 / (1 + min |Γ|)`.
fn assert_ranked_by_definition(ranked: &[RankedCause], sizes: &BTreeMap<TupleRef, usize>) {
    let tuples: BTreeSet<TupleRef> = ranked.iter().map(|rc| rc.tuple).collect();
    assert_eq!(tuples.len(), ranked.len(), "a tuple is ranked twice");
    assert_eq!(&tuples, &sizes.keys().copied().collect(), "ranked ≠ causes");
    for rc in ranked {
        let rho = 1.0 / (1.0 + sizes[&rc.tuple] as f64);
        assert!(
            (rc.responsibility.rho - rho).abs() < 1e-12,
            "{:?}: ρ = {}, by definition {rho}",
            rc.tuple,
            rc.responsibility.rho
        );
    }
}

/// Each ranked Why-So witness Γ is a contingency for its tuple `t`:
/// `q` holds on `D − Γ` and fails on `D − Γ − {t}`.
fn assert_whyso_witnesses(db: &Database, q: &ConjunctiveQuery, ranked: &[RankedCause]) {
    for rc in ranked {
        let gamma = rc.responsibility.min_contingency.as_ref().expect("witness");
        let mut gone: HashSet<TupleRef> = gamma.iter().copied().collect();
        assert!(
            holds_masked(db, q, EndoMask::Except(&gone)).unwrap(),
            "{rc:?}"
        );
        gone.insert(rc.tuple);
        assert!(
            !holds_masked(db, q, EndoMask::Except(&gone)).unwrap(),
            "{rc:?}"
        );
    }
}

/// Ranks every Why-So cause with `Auto` and `Exact` at parallelism 1
/// and 2, and checks each ranking against the definitions.
fn assert_why_so_rankings_match_definitions(db: &Database, q: &ConjunctiveQuery) {
    let sizes = brute_force_whyso_sizes(db, q);
    for method in [Method::Auto, Method::Exact] {
        for parallelism in [1usize, 2] {
            let cfg = RankConfig {
                method,
                parallelism,
                top_k: None,
            };
            let ranked = rank_why_so_parallel(db, q, &cfg, None).unwrap().causes;
            assert_ranked_by_definition(&ranked, &sizes);
            assert_whyso_witnesses(db, q, &ranked);
        }
    }
}

/// Inserts a row of small integers with a drawn nature: 0 is
/// exogenous, anything else endogenous. Drawing from `0..4` makes one
/// tuple in four exogenous, so most instances have causes (an
/// all-exogenous witness would leave none) and many relations are
/// mixed.
fn insert_drawn(db: &mut Database, rel: RelId, values: &[u8], nature: u8) {
    let tuple: Vec<Value> = values.iter().map(|&v| Value::from(i64::from(v))).collect();
    db.insert(rel, tuple, nature != 0);
}

/// `q :- R(x, y), S(y)` with a drawn nature per tuple.
fn mixed_chain_database(
    r_rows: &[(u8, u8, u8)],
    s_rows: &[(u8, u8)],
) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for &(x, y, nature) in r_rows {
        insert_drawn(&mut db, r, &[x, y], nature);
    }
    for &(y, nature) in s_rows {
        insert_drawn(&mut db, s, &[y], nature);
    }
    (db, ConjunctiveQuery::parse("q :- R(x, y), S(y)").unwrap())
}

/// `q :- R(x, y), S(y, z), T(z)` with a drawn nature per tuple. With
/// three atoms a candidate insertion can sit in minimal conjuncts of
/// different sizes, which a 2-atom query never produces.
fn mixed_chain3_database(
    r_rows: &[(u8, u8, u8)],
    s_rows: &[(u8, u8, u8)],
    t_rows: &[(u8, u8)],
) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z"]));
    for &(x, y, nature) in r_rows {
        insert_drawn(&mut db, r, &[x, y], nature);
    }
    for &(y, z, nature) in s_rows {
        insert_drawn(&mut db, s, &[y, z], nature);
    }
    for &(z, nature) in t_rows {
        insert_drawn(&mut db, t, &[z], nature);
    }
    (
        db,
        ConjunctiveQuery::parse("q :- R(x, y), S(y, z), T(z)").unwrap(),
    )
}

/// The h2* triangle `h2 :- R(x, y), S(y, z), T(z, x)`, all endogenous.
fn triangle_database(
    r_rows: &[(u8, u8)],
    s_rows: &[(u8, u8)],
    t_rows: &[(u8, u8)],
) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    for (name, attrs, rows) in [
        ("R", ["x", "y"], r_rows),
        ("S", ["y", "z"], s_rows),
        ("T", ["z", "x"], t_rows),
    ] {
        let rel = db.add_relation(Schema::new(name, &attrs));
        for &(a, b) in rows {
            db.insert_endo(
                rel,
                vec![Value::from(i64::from(a)), Value::from(i64::from(b))],
            );
        }
    }
    let q = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();
    (db, q)
}

/// A random instance for the linear chain q(x) :- R(x,y), S(y).
/// Relations are *uniformly* endogenous or exogenous (Algorithm 1's
/// relation-level natures); R stays endogenous so causes exist.
fn chain_database(
    r_rows: &[(u8, u8)],
    s_rows: &[u8],
    s_endo: bool,
) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for &(x, y) in r_rows {
        db.insert_endo(
            r,
            vec![Value::from(i64::from(x)), Value::from(i64::from(y))],
        );
    }
    for &y in s_rows {
        db.insert(s, vec![Value::from(i64::from(y))], s_endo);
    }
    let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
    (db, q)
}

/// A random 3-atom weakly-linear chain q :- R(x,y), S(y,z), T(z).
fn chain3_database(
    r_rows: &[(u8, u8)],
    s_rows: &[(u8, u8)],
    t_rows: &[u8],
) -> (Database, ConjunctiveQuery) {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z"]));
    for &(x, y) in r_rows {
        db.insert_endo(
            r,
            vec![Value::from(i64::from(x)), Value::from(i64::from(y))],
        );
    }
    for &(y, z) in s_rows {
        db.insert_endo(
            s,
            vec![Value::from(i64::from(y)), Value::from(i64::from(z))],
        );
    }
    for &z in t_rows {
        db.insert_endo(t, vec![Value::from(i64::from(z))]);
    }
    let q = ConjunctiveQuery::parse("q :- R(x, y), S(y, z), T(z)").unwrap();
    (db, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact and flow agree on ρ (and counterfactual-ness) for every
    /// cause of every answer of a random weakly-linear instance.
    #[test]
    fn exact_and_flow_agree_on_weakly_linear_instances(
        r_rows in prop::collection::vec((0u8..4, 0u8..4), 1..8),
        s_rows in prop::collection::vec(0u8..4, 1..5),
        s_endo in any::<bool>(),
    ) {
        let (db, q) = chain_database(&r_rows, &s_rows, s_endo);
        for answer in evaluate(&db, &q).unwrap().answers {
            let grounded = q.ground(answer.values());
            for t in why_so_causes(&db, &grounded).unwrap().actual {
                let exact = resp::exact::why_so_responsibility_exact(&db, &grounded, t).unwrap();
                let flow = resp::flow::why_so_responsibility_flow(&db, &grounded, t).unwrap();
                prop_assert!(
                    (exact.rho - flow.rho).abs() < 1e-12,
                    "exact ρ = {} vs flow ρ = {} for {t:?}", exact.rho, flow.rho
                );
                prop_assert_eq!(exact.is_counterfactual(), flow.is_counterfactual());
                // Both witness the same minimum contingency *size*.
                prop_assert_eq!(
                    exact.min_contingency.as_ref().map(Vec::len),
                    flow.min_contingency.as_ref().map(Vec::len)
                );
            }
        }
    }

    /// Parallel ranking is bit-identical to the reference for every
    /// parallelism level, full and top-k, on 2-atom chains.
    #[test]
    fn parallel_ranking_matches_sequential(
        r_rows in prop::collection::vec((0u8..4, 0u8..4), 1..8),
        s_rows in prop::collection::vec(0u8..4, 1..5),
        s_endo in any::<bool>(),
        k in 1usize..6,
    ) {
        let (db, q) = chain_database(&r_rows, &s_rows, s_endo);
        let cache = SharedIndexCache::new();
        for answer in evaluate(&db, &q).unwrap().answers {
            let grounded = q.ground(answer.values());
            let reference = reference_ranking(&db, &grounded, Method::Auto);
            for parallelism in [1usize, 2, 8] {
                let full = rank_why_so_parallel(
                    &db,
                    &grounded,
                    &RankConfig::with_parallelism(parallelism),
                    Some(&cache),
                )
                .unwrap();
                assert_eq!(
                    full.causes, reference,
                    "full ranking at parallelism {parallelism}"
                );
                prop_assert_eq!(full.stats.pruned, 0);

                let topk = rank_why_so_parallel(
                    &db,
                    &grounded,
                    &RankConfig::with_parallelism(parallelism).top_k(k),
                    Some(&cache),
                )
                .unwrap();
                assert_eq!(
                    topk.causes,
                    reference[..k.min(reference.len())],
                    "top-{k} at parallelism {parallelism}"
                );
                prop_assert_eq!(
                    topk.stats.computed + topk.stats.pruned,
                    topk.stats.candidates,
                    "every candidate is either solved or provably out"
                );
            }
        }
    }

    /// Same bit-identity on 3-atom chains (deeper flow networks, larger
    /// contingencies — and the Boolean query exercises ranking without
    /// grounding).
    #[test]
    fn parallel_ranking_matches_sequential_on_3_chains(
        r_rows in prop::collection::vec((0u8..3, 0u8..3), 1..6),
        s_rows in prop::collection::vec((0u8..3, 0u8..3), 1..6),
        t_rows in prop::collection::vec(0u8..3, 1..4),
        k in 1usize..4,
    ) {
        let (db, q) = chain3_database(&r_rows, &s_rows, &t_rows);
        let reference = reference_ranking(&db, &q, Method::Auto);
        for parallelism in [1usize, 2, 8] {
            let full =
                rank_why_so_parallel(&db, &q, &RankConfig::with_parallelism(parallelism), None)
                    .unwrap();
            assert_eq!(full.causes, reference, "3-chain full");
            let topk = rank_why_so_parallel(
                &db,
                &q,
                &RankConfig::with_parallelism(parallelism).top_k(k),
                None,
            )
            .unwrap();
            assert_eq!(
                topk.causes,
                reference[..k.min(reference.len())],
                "3-chain top-k"
            );
        }
    }

    /// Why-So ranking ≡ Def. 2.1/2.3 on 2-chains whose tuples carry
    /// their own natures: `Auto` takes Algorithm 1 when both relations
    /// are uniformly marked and falls back to the exact solver when one
    /// is not.
    #[test]
    fn ranking_matches_definitions_on_mixed_nature_chains(
        r_rows in prop::collection::vec((0u8..3, 0u8..2, 0u8..4), 2..7),
        s_rows in prop::collection::vec((0u8..2, 0u8..4), 1..3),
    ) {
        let (db, q) = mixed_chain_database(&r_rows, &s_rows);
        assert_why_so_rankings_match_definitions(&db, &q);
    }

    /// Why-So ranking ≡ Def. 2.1/2.3 on small h2* triangles, where
    /// `Auto` always falls back to the exact solver.
    #[test]
    fn ranking_matches_definitions_on_small_triangles(
        r_rows in prop::collection::vec((0u8..2, 0u8..2), 2..4),
        s_rows in prop::collection::vec((0u8..2, 0u8..2), 2..4),
        t_rows in prop::collection::vec((0u8..2, 0u8..2), 2..4),
    ) {
        let (db, q) = triangle_database(&r_rows, &s_rows, &t_rows);
        assert_why_so_rankings_match_definitions(&db, &q);
    }

    /// Why-No ranking ≡ the dual definition: the ranked tuples are the
    /// candidate insertions with a smallest Why-No contingency Γ, each
    /// with ρ = 1 / (1 + |Γ|), and each ranked witness is a Why-No
    /// contingency (`q` fails on `Dx ∪ Γ` and holds on `Dx ∪ Γ ∪ {t}`).
    #[test]
    fn why_no_ranking_matches_definitions(
        r_rows in prop::collection::vec((0u8..2, 0u8..2, 0u8..4), 2..4),
        s_rows in prop::collection::vec((0u8..2, 0u8..2, 0u8..4), 2..4),
        t_rows in prop::collection::vec((0u8..2, 0u8..4), 1..3),
    ) {
        let (db, q) = mixed_chain3_database(&r_rows, &s_rows, &t_rows);
        let mut sizes = BTreeMap::new();
        for t in db.endogenous_tuples() {
            if let Some(gamma) = smallest_whyno_contingency(&db, &q, t).unwrap() {
                sizes.insert(t, gamma.len());
            }
        }
        let out = rank_why_no(&db, &q, None).unwrap();
        assert_ranked_by_definition(&out.causes, &sizes);
        for rc in &out.causes {
            let gamma = rc.responsibility.min_contingency.as_ref().expect("witness");
            let mut present: HashSet<TupleRef> = gamma.iter().copied().collect();
            prop_assert!(!holds_masked(&db, &q, EndoMask::Only(&present)).unwrap());
            present.insert(rc.tuple);
            prop_assert!(holds_masked(&db, &q, EndoMask::Only(&present)).unwrap());
        }
        prop_assert_eq!(out.stats.candidates, out.causes.len());
        prop_assert_eq!(out.stats.computed, out.causes.len());
        prop_assert_eq!(out.stats.pruned, 0);
    }
}

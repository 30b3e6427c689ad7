//! Differential tests for the evaluator's one search with a sink and the
//! arena built straight from its emission:
//!
//! * `evaluate_masked{,_with_cache}` return the valuations of the
//!   allocating search it replaced (kept in `common/eval_oracle.rs`), in
//!   the same order, with the same answers and errors, and build the same
//!   indexes; `holds_masked{,_with_cache}` agree on truth. Under
//!   `EndoMask::{All, Except, Only}`, on random databases with mixed
//!   endogenous/exogenous tuples and on queries with constants, a
//!   variable repeated inside one atom, self-joins, marked atoms, a
//!   cartesian product and two malformed queries.
//! * `minimized_n_lineage` equals `LineageArena::from_dnf` of the
//!   `BTreeSet` n-lineage, then `minimized()` — the same arena order and
//!   the same conjuncts — both for `n_lineage_cached` and for the
//!   n-lineage the replaced search's valuations give. On grounded answers
//!   and non-answers (false queries), on Why-So databases (with
//!   all-exogenous valuations, Φⁿ = true) and Why-No databases
//!   (`non_answer_lineage_cached`).
//! * On weakly linear queries, Algorithm 1 on the network built from the
//!   emission returns the seed's `(Responsibility, FlowStats)` for every
//!   tuple, and the ranking (whose network comes from the lineage's own
//!   search) the reference ranking solved with the seed.

#[path = "common/eval_oracle.rs"]
mod eval_oracle;

use causality::prelude::*;
use causality_core::ranking::RankedCause;
use causality_core::resp::flow;
use causality_engine::{
    evaluate_masked, evaluate_masked_with_cache, holds_masked, holds_masked_with_cache, EngineError,
};
use causality_graph::maxflow::FlowAlgorithm;
use causality_lineage::{
    minimized_n_lineage, n_lineage_cached, non_answer_lineage_cached, BitDnf, Conjunct, Dnf,
    LineageArena,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

/// Queries over `R(a, b)`, `S(b)`, `T(b, c)`.
const QUERIES: [&str; 14] = [
    "q(x) :- R(x, y), S(y)",
    "q :- R(x, y), S(y)",
    "q :- R(x, 1), S(1)",
    "q(x) :- R(x, x)",
    "q(x) :- R(x, x), S(x)",
    "q(x, z) :- R(x, y), R(y, z)",
    "q :- R(x, y), T(y, z), R(z, x)",
    "q(x) :- R(x, y), S(y), T(y, z)",
    "q :- R^n(x, y), S^x(y)",
    "q(y) :- S(y), T(y, y)",
    "q :- R(x, y), S(z)",
    "q(x) :- R(x, y), S(y), R(y, 2)",
    "q :- Nope(x)",
    "q :- R(x)",
];

fn value(v: u8) -> Value {
    Value::from(i64::from(v))
}

/// A database over `R(a, b)`, `S(b)`, `T(b, c)`, each row with its own
/// nature (duplicate rows collapse).
fn database(r: &[(u8, u8, bool)], s: &[(u8, bool)], t: &[(u8, u8, bool)]) -> Database {
    let mut db = Database::new();
    let rr = db.add_relation(Schema::new("R", &["a", "b"]));
    let ss = db.add_relation(Schema::new("S", &["b"]));
    let tt = db.add_relation(Schema::new("T", &["b", "c"]));
    for &(a, b, endo) in r {
        db.insert(rr, vec![value(a), value(b)], endo);
    }
    for &(b, endo) in s {
        db.insert(ss, vec![value(b)], endo);
    }
    for &(b, c, endo) in t {
        db.insert(tt, vec![value(b), value(c)], endo);
    }
    db
}

/// The endogenous tuples whose bit is set in `bits` (in tuple order).
fn subset(db: &Database, bits: u64) -> HashSet<TupleRef> {
    db.endogenous_tuples()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| bits >> (i % 64) & 1 == 1)
        .map(|(_, t)| t)
        .collect()
}

/// Evaluation and truth under one mask agree with the replaced search,
/// with and without a shared index cache, and build the same indexes.
fn check_search(db: &Database, q: &ConjunctiveQuery, mask: EndoMask<'_>) {
    let seed = eval_oracle::evaluate(db, q, mask, None);
    let ours = evaluate_masked(db, q, mask);
    match (&seed, &ours) {
        (Ok(seed), Ok(ours)) => {
            assert_eq!(ours.answers, seed.answers, "{q} under {mask:?}");
            assert_eq!(ours.valuations, seed.valuations, "{q} under {mask:?}");
        }
        _ => assert_eq!(
            format!("{ours:?}"),
            format!("{seed:?}"),
            "{q} under {mask:?}"
        ),
    }
    let (seed_cache, our_cache) = (SharedIndexCache::new(), SharedIndexCache::new());
    let seed_cached = eval_oracle::evaluate(db, q, mask, Some(&seed_cache));
    let cached = evaluate_masked_with_cache(db, q, mask, &our_cache);
    assert_eq!(
        format!("{cached:?}"),
        format!("{seed_cached:?}"),
        "{q} cached under {mask:?}"
    );
    assert_eq!(our_cache.len(), seed_cache.len(), "{q}: indexes built");

    let seed_holds = eval_oracle::holds(db, q, mask, None);
    let (seed_holds_cache, our_holds_cache) = (SharedIndexCache::new(), SharedIndexCache::new());
    assert_eq!(
        format!("{:?}", holds_masked(db, q, mask)),
        format!("{seed_holds:?}"),
        "{q} holds under {mask:?}"
    );
    assert_eq!(
        format!(
            "{:?}",
            holds_masked_with_cache(db, q, mask, &our_holds_cache)
        ),
        format!(
            "{:?}",
            eval_oracle::holds(db, q, mask, Some(&seed_holds_cache))
        ),
        "{q} holds cached under {mask:?}"
    );
    assert_eq!(
        our_holds_cache.len(),
        seed_holds_cache.len(),
        "{q}: early exit"
    );
}

/// Every id of an arena, resolved: its interning order.
fn arena_order(arena: &LineageArena) -> Vec<TupleRef> {
    (0..arena.len() as u32)
        .map(|id| arena.resolve(id))
        .collect()
}

/// Interned and minimized the `BTreeSet` way.
fn from_dnf_minimized(phi: &Dnf) -> (LineageArena, BitDnf) {
    let (arena, bits) = LineageArena::from_dnf(phi);
    (arena, bits.minimized())
}

/// The n-lineage of a Boolean query as the replaced path built it: one
/// conjunct per valuation of the replaced search, then every exogenous
/// variable set to `true`.
fn seed_n_lineage(db: &Database, q: &ConjunctiveQuery) -> Result<Dnf, EngineError> {
    let result = eval_oracle::evaluate(db, q, EndoMask::All, None)?;
    let phi = Dnf::new(
        result
            .valuations
            .iter()
            .map(|v| Conjunct::new(v.atom_tuples.iter().copied()))
            .collect(),
    );
    let exo: BTreeSet<TupleRef> = phi
        .variables()
        .into_iter()
        .filter(|&t| !db.is_endogenous(t))
        .collect();
    Ok(phi.assign_true(&exo))
}

/// `minimized_n_lineage` against both `BTreeSet` pipelines, for one
/// Boolean query (or the same error for a non-Boolean or malformed one).
fn check_lineage(db: &Database, q: &ConjunctiveQuery, cache: &SharedIndexCache) {
    let ours = minimized_n_lineage(db, q, Some(cache));
    let btree = n_lineage_cached(db, q, Some(cache)).map(|phi| from_dnf_minimized(&phi));
    let whyno = non_answer_lineage_cached(db, q, None).map(|phi| from_dnf_minimized(&phi));
    match (&ours, &btree, &whyno) {
        (Ok((arena, bits)), Ok((b_arena, b_bits)), Ok((n_arena, n_bits))) => {
            assert_eq!(arena_order(arena), arena_order(b_arena), "{q}: arena order");
            assert_eq!(bits, b_bits, "{q}: conjuncts");
            assert_eq!(
                arena_order(arena),
                arena_order(n_arena),
                "{q}: Why-No arena"
            );
            assert_eq!(bits, n_bits, "{q}: Why-No conjuncts");
            let seed = seed_n_lineage(db, q).expect("the replaced search agrees");
            let (s_arena, s_bits) = from_dnf_minimized(&seed);
            assert_eq!(arena_order(arena), arena_order(&s_arena), "{q}: seed arena");
            assert_eq!(bits, &s_bits, "{q}: seed conjuncts");
            assert_eq!(arena.dnf_of(bits), seed.minimized(), "{q}: as a Dnf");
            assert_eq!(bits.is_tautology(), seed.is_tautology(), "{q}: Φⁿ = true");
        }
        _ => {
            let err = |r: &Result<(LineageArena, BitDnf), EngineError>| {
                r.as_ref().err().map(ToString::to_string)
            };
            assert_eq!(err(&ours), err(&btree), "{q}");
            assert_eq!(err(&ours), err(&whyno), "{q}");
            assert!(err(&ours).is_some(), "{q}: some path failed alone");
        }
    }
}

/// The grounded instances of `q`: every answer, plus one value that is
/// not one (a false query), or `q` itself when it is Boolean.
fn groundings(db: &Database, q: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    if q.is_boolean() {
        return vec![q.clone()];
    }
    let Ok(result) = evaluate(db, q) else {
        return vec![q.clone()];
    };
    let mut out: Vec<ConjunctiveQuery> = result
        .answers
        .iter()
        .map(|a| q.ground(a.values()))
        .collect();
    out.push(q.ground(&vec![value(9); q.head().len()]));
    // The ungrounded query itself: a `NotBoolean` on every path.
    out.push(q.clone());
    out
}

/// Whether Φⁿ = true (an all-exogenous valuation) occurred, for the
/// coverage line.
fn has_tautology(db: &Database, q: &ConjunctiveQuery) -> bool {
    minimized_n_lineage(db, q, None).is_ok_and(|(_, bits)| bits.is_tautology())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one search against the replaced one, under the three masks.
    #[test]
    fn search_matches_the_replaced_search(
        r in prop::collection::vec((0u8..4, 0u8..4, any::<bool>()), 0..9),
        s in prop::collection::vec((0u8..4, any::<bool>()), 0..4),
        t in prop::collection::vec((0u8..4, 0u8..4, any::<bool>()), 0..6),
        bits in any::<u64>(),
    ) {
        let db = database(&r, &s, &t);
        let chosen = subset(&db, bits);
        for text in QUERIES {
            let q = ConjunctiveQuery::parse(text).unwrap();
            for g in groundings(&db, &q) {
                for mask in [EndoMask::All, EndoMask::Except(&chosen), EndoMask::Only(&chosen)] {
                    check_search(&db, &g, mask);
                }
            }
        }
    }

    /// The emitted arena against the `BTreeSet` pipelines, on every
    /// grounding of every query.
    #[test]
    fn emitted_arena_matches_from_dnf(
        r in prop::collection::vec((0u8..4, 0u8..4, any::<bool>()), 0..9),
        s in prop::collection::vec((0u8..4, any::<bool>()), 0..4),
        t in prop::collection::vec((0u8..4, 0u8..4, any::<bool>()), 0..6),
    ) {
        let db = database(&r, &s, &t);
        let cache = SharedIndexCache::new();
        for text in QUERIES {
            let q = ConjunctiveQuery::parse(text).unwrap();
            for g in groundings(&db, &q) {
                check_lineage(&db, &g, &cache);
            }
        }
    }

    /// Why-No databases: the real tuples are exogenous, the candidate
    /// insertions endogenous, and the non-answer's lineage is built from
    /// the emission as a Why-So one is.
    #[test]
    fn emitted_arena_matches_on_why_no_databases(
        real in prop::collection::vec((0u8..4, 0u8..4), 0..5),
        missing in prop::collection::vec((0u8..4, 0u8..4), 0..5),
        s_real in prop::collection::vec(0u8..4, 0..3),
        s_missing in prop::collection::vec(0u8..4, 0..3),
    ) {
        let r: Vec<_> = real.iter().map(|&(a, b)| (a, b, false))
            .chain(missing.iter().map(|&(a, b)| (a, b, true))).collect();
        let s: Vec<_> = s_real.iter().map(|&b| (b, false))
            .chain(s_missing.iter().map(|&b| (b, true))).collect();
        let db = database(&r, &s, &[]);
        let cache = SharedIndexCache::new();
        for text in ["q(x) :- R(x, y), S(y)", "q(x, z) :- R(x, y), R(y, z)", "q :- R(x, 1), S(1)"] {
            let q = ConjunctiveQuery::parse(text).unwrap();
            for g in groundings(&db, &q) {
                check_lineage(&db, &g, &cache);
            }
        }
    }

    /// Algorithm 1 on the emission-built network: every tuple's
    /// `(Responsibility, FlowStats)` under both max-flow algorithms, and
    /// the ranking, against the seed per-tuple implementation.
    #[test]
    fn emission_flow_plan_matches_the_seed(
        r in prop::collection::vec((0u8..4, 0u8..4), 1..8),
        s in prop::collection::vec(0u8..4, 1..4),
        t in prop::collection::vec((0u8..4, 0u8..4), 0..5),
        natures in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        // Each relation all-endogenous or all-exogenous, as Algorithm 1
        // requires; R stays endogenous so there are causes.
        let (_, s_endo, t_endo) = natures;
        let r: Vec<_> = r.iter().map(|&(a, b)| (a, b, true)).collect();
        let s: Vec<_> = s.iter().map(|&b| (b, s_endo)).collect();
        let t: Vec<_> = t.iter().map(|&(b, c)| (b, c, t_endo)).collect();
        let db = database(&r, &s, &t);
        let cache = SharedIndexCache::new();
        for text in ["q(x) :- R(x, y), S(y)", "q :- R(x, y), S(y), T(y, z)", "q(x) :- R(x, y), T(y, z)"] {
            let q = ConjunctiveQuery::parse(text).unwrap();
            for g in groundings(&db, &q).into_iter().filter(ConjunctiveQuery::is_boolean) {
                check_flow(&db, &g, &cache);
            }
        }
    }
}

/// Every tuple's Algorithm 1 answer and the ranking, against the seed.
fn check_flow(db: &Database, q: &ConjunctiveQuery, cache: &SharedIndexCache) {
    let tuples: Vec<TupleRef> = db
        .relations()
        .flat_map(|(rel, relation)| {
            (0..relation.len()).map(move |row| TupleRef::new(rel.0, row as u32))
        })
        .collect();
    for &t in &tuples {
        for algo in [FlowAlgorithm::Dinic, FlowAlgorithm::EdmondsKarp] {
            let ours = flow::why_so_responsibility_flow_with(db, q, t, algo);
            let seed = flow::oracle::why_so_responsibility_flow_with(db, q, t, algo);
            assert_eq!(format!("{ours:?}"), format!("{seed:?}"), "{q}: {t:?}");
        }
        let cached = flow::why_so_responsibility_flow_cached(db, q, t, Some(cache));
        let seed = flow::oracle::why_so_responsibility_flow_with(db, q, t, FlowAlgorithm::Dinic)
            .map(|(r, _)| r);
        assert_eq!(format!("{cached:?}"), format!("{seed:?}"), "{q}: {t:?}");
    }
    let mut reference: Vec<RankedCause> = why_so_causes(db, q)
        .unwrap()
        .actual
        .into_iter()
        .map(|t| RankedCause {
            tuple: t,
            responsibility: flow::oracle::why_so_responsibility_flow_with(
                db,
                q,
                t,
                FlowAlgorithm::Dinic,
            )
            .expect("weakly linear")
            .0,
        })
        .collect();
    reference.sort_by(|a, b| {
        b.responsibility
            .rho
            .total_cmp(&a.responsibility.rho)
            .then(a.tuple.cmp(&b.tuple))
    });
    for method in [Method::Flow, Method::Auto] {
        let cfg = RankConfig {
            method,
            ..RankConfig::default()
        };
        let out = rank_why_so_parallel(db, q, &cfg, Some(cache)).expect("weakly linear");
        assert_eq!(out.causes, reference, "{q} under {method:?}");
    }
}

/// Fixed cases the random draws may miss: an all-exogenous valuation
/// (Φⁿ = true, no causes), a self-join grounding one tuple twice, and a
/// variable repeated inside an atom with a constant elsewhere.
#[test]
fn fixed_corner_cases_match() {
    let db = database(
        &[(1, 1, false), (1, 2, true), (2, 1, true)],
        &[(1, false), (2, true)],
        &[(1, 1, true)],
    );
    let cache = SharedIndexCache::new();
    let tautology = ConjunctiveQuery::parse("q :- R(1, 1), S(1)").unwrap();
    assert!(has_tautology(&db, &tautology), "Φⁿ = true is drawn");
    for text in [
        "q :- R(1, 1), S(1)",
        "q :- R(x, y), R(y, x)",
        "q :- R(x, x), T(x, 1)",
        "q(x) :- R(x, y), S(y)",
    ] {
        let q = ConjunctiveQuery::parse(text).unwrap();
        let none = HashSet::new();
        for g in groundings(&db, &q) {
            check_lineage(&db, &g, &cache);
            for mask in [EndoMask::All, EndoMask::Only(&none)] {
                check_search(&db, &g, mask);
            }
        }
    }
}

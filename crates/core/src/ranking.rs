//! Ranking causes by responsibility (the Fig. 2b table).
//!
//! "In applications involving large datasets, it is critical to rank the
//! candidate causes by their responsibility" (Sect. 1). This module
//! combines the cause computation (Theorem 3.2) with per-cause
//! responsibility (Algorithm 1 or the exact solver) and sorts descending —
//! counterfactual causes (ρ = 1) first.
//!
//! Each question has one ranker: [`rank_why_so_parallel`] ranks Why-So
//! causes (all of them or the top k, on one thread or many), and
//! [`rank_why_no`] ranks Why-No causes. Both report [`RankStats`].

pub mod parallel;

use crate::error::CoreError;
use crate::resp::whyno::why_no_responsibility_from_bits;
use crate::resp::Responsibility;
use causality_engine::{ConjunctiveQuery, Database, SharedIndexCache, TupleRef};
use causality_lineage::minimized_n_lineage;

pub use parallel::{rank_why_so_parallel, RankConfig, RankStats, RankedTopK};

use std::time::Instant;

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Which responsibility algorithm to use while ranking.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Method {
    /// Algorithm 1 when the query qualifies, exact otherwise.
    #[default]
    Auto,
    /// Always the exact branch-and-bound solver.
    Exact,
    /// Always Algorithm 1 (errors on non-weakly-linear queries).
    Flow,
}

/// A cause with its responsibility.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedCause {
    /// The causing tuple.
    pub tuple: TupleRef,
    /// Its responsibility (with a witnessing minimum contingency).
    pub responsibility: Responsibility,
}

/// Rank the Why-No causes of a Boolean non-answer by responsibility,
/// descending (always PTIME, Theorem 4.17). The optional
/// [`SharedIndexCache`] lets the lineage evaluation reuse join indexes.
///
/// One non-answer lineage is interned and minimized in arena form, and
/// every candidate's responsibility (the cheapest conjunct containing
/// it) is read off that shared `BitDnf`. Every candidate is solved, so
/// the stats report `candidates = computed = causes`, nothing pruned, on
/// one thread.
pub fn rank_why_no(
    db: &Database,
    q: &ConjunctiveQuery,
    cache: Option<&SharedIndexCache>,
) -> Result<RankedTopK, CoreError> {
    let lineage_started = Instant::now();
    let (arena, phin) = minimized_n_lineage(db, q, cache)?;
    let lineage_us = elapsed_us(lineage_started);
    let solve_started = Instant::now();
    let mut ranked = Vec::new();
    // A tautology means the query is already an answer on Dx: no Why-No
    // causes to rank.
    if !phin.is_tautology() {
        for t in arena.tuples_of(&phin.variables()) {
            ranked.push(RankedCause {
                tuple: t,
                responsibility: why_no_responsibility_from_bits(&arena, &phin, t),
            });
        }
        sort_ranked(&mut ranked);
    }
    Ok(RankedTopK {
        stats: RankStats {
            candidates: ranked.len(),
            computed: ranked.len(),
            pruned: 0,
            threads: 1,
            lineage_conjuncts: phin.conjuncts().len(),
            lineage_us,
            solve_us: elapsed_us(solve_started),
        },
        causes: ranked,
    })
}

/// Descending by ρ, ties broken by tuple identity. `f64::total_cmp`
/// makes the comparator total by construction: ranking can never panic,
/// even if a responsibility algorithm ever produced a NaN (a NaN would
/// sort first under the IEEE 754 total order rather than abort serving).
fn sort_ranked(ranked: &mut [RankedCause]) {
    ranked.sort_by(|a, b| {
        b.responsibility
            .rho
            .total_cmp(&a.responsibility.rho)
            .then_with(|| a.tuple.cmp(&b.tuple))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::Explainer;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, Schema, Value};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// Every Why-So cause ranked with `method` on one thread.
    fn full_ranking(
        db: &Database,
        q: &ConjunctiveQuery,
        method: Method,
    ) -> Result<Vec<RankedCause>, CoreError> {
        let cfg = RankConfig {
            method,
            ..RankConfig::default()
        };
        rank_why_so_parallel(db, q, &cfg, None).map(|out| out.causes)
    }

    #[test]
    fn ranking_orders_by_responsibility() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let ranked = full_ranking(&db, &query, Method::Auto).unwrap();
        assert_eq!(ranked.len(), 4, "R(a4,a3), R(a4,a2), S(a3), S(a2)");
        // All have ρ = 1/2 here (each needs one removal).
        for rc in &ranked {
            assert!((rc.responsibility.rho - 0.5).abs() < 1e-12);
        }
        // Descending and deterministic.
        for w in ranked.windows(2) {
            assert!(w[0].responsibility.rho >= w[1].responsibility.rho);
        }
    }

    #[test]
    fn counterfactual_ranks_first() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a3")]);
        let ranked = full_ranking(&db, &query, Method::Auto).unwrap();
        assert_eq!(ranked[0].responsibility.rho, 1.0);
        assert!(ranked[0].responsibility.is_counterfactual());
    }

    #[test]
    fn methods_agree_on_linear_queries() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let auto = full_ranking(&db, &query, Method::Auto).unwrap();
        let exact = full_ranking(&db, &query, Method::Exact).unwrap();
        let flow = full_ranking(&db, &query, Method::Flow).unwrap();
        let rhos = |v: &[RankedCause]| {
            v.iter()
                .map(|rc| (rc.tuple, rc.responsibility.rho))
                .collect::<Vec<_>>()
        };
        assert_eq!(rhos(&auto), rhos(&exact));
        assert_eq!(rhos(&auto), rhos(&flow));
    }

    #[test]
    fn auto_falls_back_to_exact_on_hard_queries() {
        // Triangle h2*: flow must refuse, auto must succeed via exact.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let t = db.add_relation(Schema::new("T", &["z", "x"]));
        db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        db.insert_endo(t, tup![3, 1]);
        let query = q("h2 :- R(x, y), S(y, z), T(z, x)");
        assert!(full_ranking(&db, &query, Method::Flow).is_err());
        let ranked = full_ranking(&db, &query, Method::Auto).unwrap();
        assert_eq!(ranked.len(), 3);
        assert!(ranked.iter().all(|rc| rc.responsibility.rho == 1.0));
    }

    #[test]
    fn why_no_ranking() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        let s2 = db.insert_endo(s, tup![2]);
        db.insert_endo(r, tup![5, 3]);
        db.insert_endo(s, tup![3]);
        let query = q("q :- R(x, y), S(y)");
        let out = rank_why_no(&db, &query, None).unwrap();
        let ranked = &out.causes;
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].tuple, s2, "single-insertion repair first");
        assert_eq!(ranked[0].responsibility.rho, 1.0);
        assert!((ranked[1].responsibility.rho - 0.5).abs() < 1e-12);

        // Every candidate is solved, on one thread; none is pruned.
        assert_eq!(out.stats.candidates, 3);
        assert_eq!(out.stats.computed, 3);
        assert_eq!(out.stats.pruned, 0);
        assert_eq!(out.stats.threads, 1);
        // The stats describe the lineage the explainer reports.
        let explained = Explainer::new(&db, &query).why_not(&[]).unwrap();
        assert_eq!(out.stats.lineage_conjuncts, explained.lineage_conjuncts);
    }

    #[test]
    fn why_no_ranking_of_an_answer_is_empty() {
        // R(1) is real (exogenous): the query already holds on Dx.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_exo(r, tup![1]);
        db.insert_endo(r, tup![2]);
        let out = rank_why_no(&db, &q("q :- R(x)"), None).unwrap();
        assert!(out.causes.is_empty());
        assert_eq!(out.stats.candidates, 0);
        assert_eq!(out.stats.computed, 0);
    }

    #[test]
    fn empty_ranking_for_false_query() {
        let db = example_2_2();
        let ranked = full_ranking(&db, &q("q :- R(x, 'a6'), S('a6')"), Method::Auto).unwrap();
        assert!(ranked.is_empty());
    }

    #[test]
    fn sort_is_total_even_with_nan() {
        // rho is never NaN in practice; the comparator must still be
        // total so a hypothetical NaN ranks (first, per the IEEE 754
        // total order) instead of panicking mid-serve.
        let rc = |row: u32, rho: f64| RankedCause {
            tuple: TupleRef::new(0, row),
            responsibility: Responsibility {
                rho,
                min_contingency: Some(vec![]),
            },
        };
        let mut ranked = vec![rc(0, 0.5), rc(1, f64::NAN), rc(2, 1.0), rc(3, 0.5)];
        sort_ranked(&mut ranked);
        assert!(ranked[0].responsibility.rho.is_nan());
        assert_eq!(ranked[1].responsibility.rho, 1.0);
        // Equal ρ ties break by tuple identity.
        assert_eq!(ranked[2].tuple, TupleRef::new(0, 0));
        assert_eq!(ranked[3].tuple, TupleRef::new(0, 3));
    }
}

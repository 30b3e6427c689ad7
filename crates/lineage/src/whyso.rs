//! Lineage and n-lineage of Boolean queries (Def. 3.1).
//!
//! The lineage of `q` over `D` is `Φ = ∨_θ c_θ` with one conjunct per
//! valuation. The **n-lineage** substitutes `true` for every exogenous
//! tuple's variable: `Φⁿ = Φ[X_t := true, ∀t ∈ Dx]` — the expression then
//! depends only on endogenous tuples, and Theorem 3.2 reads the actual
//! causes straight off its non-redundant conjuncts.

use crate::arena::{BitDnf, LineageArena};
use crate::dnf::{Conjunct, Dnf};
use causality_engine::{
    evaluate_masked, evaluate_masked_with_cache, for_each_valuation, Database, EndoMask,
    EngineError, SharedIndexCache,
};
use causality_engine::{ConjunctiveQuery, TupleRef};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Compute the full lineage `Φ` of a Boolean query over `D` (exogenous and
/// endogenous variables both appear).
///
/// # Errors
/// Propagates evaluation errors; rejects non-Boolean queries.
pub fn lineage(db: &Database, q: &ConjunctiveQuery) -> Result<Dnf, EngineError> {
    lineage_cached(db, q, None)
}

/// [`lineage`] with an optional [`SharedIndexCache`], so successive
/// lineage computations reuse their join indexes. Cache entries are keyed
/// on per-relation content stamps, so sharing one cache across snapshots
/// (or any databases) is sound: only relations that were actually touched
/// since the index was built miss.
pub fn lineage_cached(
    db: &Database,
    q: &ConjunctiveQuery,
    cache: Option<&SharedIndexCache>,
) -> Result<Dnf, EngineError> {
    require_boolean(q)?;
    let result = match cache {
        Some(c) => evaluate_masked_with_cache(db, q, EndoMask::All, c)?,
        None => evaluate_masked(db, q, EndoMask::All)?,
    };
    let mut dnf = Dnf::unsatisfiable();
    for v in &result.valuations {
        dnf.push(Conjunct::new(v.atom_tuples.iter().copied()));
    }
    Ok(dnf)
}

/// Compute the n-lineage `Φⁿ` (Def. 3.1): the lineage with every exogenous
/// variable set to `true`. **Not** minimized; apply [`Dnf::minimized`] to
/// obtain the cause-revealing form of Theorem 3.2.
pub fn n_lineage(db: &Database, q: &ConjunctiveQuery) -> Result<Dnf, EngineError> {
    n_lineage_cached(db, q, None)
}

/// [`n_lineage`] with an optional [`SharedIndexCache`].
pub fn n_lineage_cached(
    db: &Database,
    q: &ConjunctiveQuery,
    cache: Option<&SharedIndexCache>,
) -> Result<Dnf, EngineError> {
    let phi = lineage_cached(db, q, cache)?;
    let exo: BTreeSet<TupleRef> = phi
        .variables()
        .into_iter()
        .filter(|&t| !db.is_endogenous(t))
        .collect();
    Ok(phi.assign_true(&exo))
}

/// The n-lineage in the form every cause and responsibility computation
/// reads: `Φⁿ` interned into a [`LineageArena`] and minimized (Theorem
/// 3.2's non-redundant conjuncts). The same arena and conjuncts as
/// [`LineageArena::from_dnf`] on [`n_lineage_cached`], then
/// [`BitDnf::minimized`].
///
/// It is built straight from the evaluator's emission
/// ([`for_each_valuation`]), with no `Valuation` and no `BTreeSet`:
/// each valuation's endogenous tuples go onto one flat list as the
/// search emits them (exogenous tuples are set to `true` right there, so
/// an all-exogenous valuation is the empty conjunct), the distinct
/// tuples are interned in ascending `TupleRef` order, and the packed
/// conjuncts are minimized.
///
/// It serves Why-No questions as well: the non-answer lineage
/// ([`non_answer_lineage_cached`](crate::non_answer_lineage_cached)) is
/// structurally the n-lineage of the completed database `Dx ∪ Dn`, and
/// differs only by a second, redundant Boolean check.
pub fn minimized_n_lineage(
    db: &Database,
    q: &ConjunctiveQuery,
    cache: Option<&SharedIndexCache>,
) -> Result<(LineageArena, BitDnf), EngineError> {
    minimized_n_lineage_tee(db, q, cache, |_| {})
}

/// [`minimized_n_lineage`], also handing each valuation's atom tuples
/// (in body-atom order, exogenous tuples included) to `tap` as the search
/// emits them: one evaluation feeds the lineage and whatever else the
/// caller builds from the valuations.
pub fn minimized_n_lineage_tee(
    db: &Database,
    q: &ConjunctiveQuery,
    cache: Option<&SharedIndexCache>,
    mut tap: impl FnMut(&[TupleRef]),
) -> Result<(LineageArena, BitDnf), EngineError> {
    require_boolean(q)?;
    let mut tuples: Vec<TupleRef> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    for_each_valuation(db, q, EndoMask::All, cache, |atom_tuples, _| {
        tap(atom_tuples);
        tuples.extend(atom_tuples.iter().filter(|&&t| db.is_endogenous(t)));
        ends.push(tuples.len());
        ControlFlow::Continue(())
    })?;
    let (arena, phin) = LineageArena::from_flat(&tuples, &ends);
    Ok((arena, phin.into_minimized()))
}

pub(crate) fn require_boolean(q: &ConjunctiveQuery) -> Result<(), EngineError> {
    if q.is_boolean() {
        Ok(())
    } else {
        Err(EngineError::NotBoolean(q.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, Schema, Value};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    fn tref(db: &Database, rel: &str, tuple: causality_engine::Tuple) -> TupleRef {
        let rid = db.relation_id(rel).unwrap();
        TupleRef {
            rel: rid,
            row: db.relation(rid).find(&tuple).unwrap(),
        }
    }

    /// Example 3.3: q :- R(x,y), S(y), y = 'a3' has lineage
    /// X_R(a3,a3)·X_S(a3) ∨ X_R(a4,a3)·X_S(a3).
    #[test]
    fn example_3_3_lineage() {
        let db = example_2_2();
        let query = q("q :- R(x, 'a3'), S('a3')");
        let phi = lineage(&db, &query).unwrap();
        assert_eq!(phi.len(), 2);
        let r33 = tref(&db, "R", tup!["a3", "a3"]);
        let r43 = tref(&db, "R", tup!["a4", "a3"]);
        let s3 = tref(&db, "S", tup!["a3"]);
        let expected: Vec<Conjunct> = vec![Conjunct::new([r33, s3]), Conjunct::new([r43, s3])];
        for c in expected {
            assert!(phi.conjuncts().contains(&c), "missing conjunct {c:?}");
        }
    }

    /// Example 3.3 continued: with R(a4,a3) exogenous, the n-lineage is
    /// X_R(a3,a3)·X_S(a3) ∨ X_S(a3), which minimizes to X_S(a3).
    #[test]
    fn example_3_3_n_lineage() {
        let mut db = example_2_2();
        let r = db.relation_id("R").unwrap();
        let row = db.relation(r).find(&tup!["a4", "a3"]).unwrap();
        db.relation_mut(r).set_endogenous(row, false);

        let query = q("q :- R(x, 'a3'), S('a3')");
        let phin = n_lineage(&db, &query).unwrap();
        assert_eq!(phin.len(), 2);
        let min = phin.minimized();
        assert_eq!(min.len(), 1);
        let s3 = tref(&db, "S", tup!["a3"]);
        assert_eq!(min.conjuncts()[0], Conjunct::new([s3]));
        // The arena form the cause and responsibility code reads.
        let (arena, bits) = minimized_n_lineage(&db, &query, None).unwrap();
        assert_eq!(arena.dnf_of(&bits), min);
    }

    #[test]
    fn false_query_has_unsatisfiable_lineage() {
        let db = example_2_2();
        let query = q("q :- R(x, 'a6'), S('a6')");
        let phi = lineage(&db, &query).unwrap();
        assert!(!phi.is_satisfiable());
    }

    #[test]
    fn non_boolean_query_rejected() {
        let db = example_2_2();
        let err = lineage(&db, &q("q(x) :- R(x, y), S(y)")).unwrap_err();
        assert!(matches!(err, EngineError::NotBoolean(_)));
    }

    #[test]
    fn all_exogenous_lineage_is_tautological() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_exo(r, tup![1]);
        let phin = n_lineage(&db, &q("q :- R(x)")).unwrap();
        assert!(phin.is_tautology(), "query already true on Dx");
        assert!(phin.minimized().variables().is_empty(), "no causes");
    }

    #[test]
    fn lineage_of_grounded_answer() {
        // Ground q(x) :- R(x,y),S(y) with answer a4: two valuations
        // (via S(a3) and S(a2)).
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let phi = lineage(&db, &query).unwrap();
        assert_eq!(phi.len(), 2);
        let min = phi.minimized();
        assert_eq!(min.len(), 2, "no redundancy among the two witnesses");
    }

    #[test]
    fn self_join_lineage_uses_distinct_tuples() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        db.insert_endo(r, tup![1, 2]);
        db.insert_endo(r, tup![2, 3]);
        let phi = lineage(&db, &q("q :- R(x, y), R(y, z)")).unwrap();
        assert_eq!(phi.len(), 1);
        assert_eq!(phi.conjuncts()[0].len(), 2);
    }

    #[test]
    fn repeated_tuple_in_valuation_collapses_in_conjunct() {
        // q :- R(x,y), R(y,x) over R = {(1,1)}: the single tuple grounds
        // both atoms; the conjunct has one variable.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        db.insert_endo(r, tup![1, 1]);
        let phi = lineage(&db, &q("q :- R(x, y), R(y, x)")).unwrap();
        assert_eq!(phi.len(), 1);
        assert_eq!(phi.conjuncts()[0].len(), 1);
    }
}

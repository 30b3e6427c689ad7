//! Causality: counterfactual and actual causes (Def. 2.1, Theorem 3.2).
//!
//! * `t` is a **counterfactual cause** for the answer if `D ⊨ q` and
//!   `D − {t} ⊭ q`.
//! * `t` is an **actual cause** if some contingency `Γ ⊆ Dn` makes it
//!   counterfactual in `D − Γ`.
//!
//! Theorem 3.2 turns the (in general NP-complete \[Eiter-Lukasiewicz\])
//! actual-cause check into a PTIME lineage computation for conjunctive
//! queries: `t` is an actual cause **iff** a non-redundant conjunct of the
//! n-lineage `Φⁿ` contains `X_t`. The same statement covers Why-No
//! causality over the non-answer lineage.
//!
//! [`brute_force_why_so`] implements Def. 2.1 literally (exponential
//! contingency enumeration with counterfactual re-evaluation) and serves as
//! the cross-validation oracle in the test suite.

use crate::error::CoreError;
use causality_engine::{holds_masked, ConjunctiveQuery, Database, EndoMask, TupleRef};
use causality_lineage::{minimized_n_lineage, BitDnf, LineageArena};
use std::collections::{BTreeSet, HashSet};

/// The causes of one (non-)answer.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CauseSet {
    /// Actual causes (includes every counterfactual cause).
    pub actual: BTreeSet<TupleRef>,
    /// Counterfactual causes (`ρ = 1`).
    pub counterfactual: BTreeSet<TupleRef>,
}

impl CauseSet {
    /// Whether `t` is an actual cause.
    pub fn is_cause(&self, t: TupleRef) -> bool {
        self.actual.contains(&t)
    }

    /// Number of actual causes.
    pub fn len(&self) -> usize {
        self.actual.len()
    }

    /// Whether there are no causes.
    pub fn is_empty(&self) -> bool {
        self.actual.is_empty()
    }
}

/// Compute the Why-So causes of a Boolean query via Theorem 3.2: the
/// actual causes are exactly the variables of the minimized n-lineage; the
/// counterfactual causes are those appearing in *every* conjunct.
pub fn why_so_causes(db: &Database, q: &ConjunctiveQuery) -> Result<CauseSet, CoreError> {
    let (arena, phin) = minimized_n_lineage(db, q, None)?;
    Ok(causes_from_minimized_whyso(&arena, &phin))
}

/// Causes of a specific answer `ā` of a non-Boolean query: grounds
/// `q[ā/x̄]` and applies [`why_so_causes`] (Sect. 2's reduction to Boolean
/// queries).
pub fn why_so_causes_of_answer(
    db: &Database,
    q: &ConjunctiveQuery,
    answer: &[causality_engine::Value],
) -> Result<CauseSet, CoreError> {
    why_so_causes(db, &q.try_ground(answer)?)
}

/// Theorem 3.2 read off the arena-form minimized n-lineage: actual
/// causes are the variables (word-wise OR of the conjuncts),
/// counterfactual causes the variables in *every* conjunct (word-wise
/// AND), resolved back to `TupleRef`s at the boundary.
pub(crate) fn causes_from_minimized_whyso(arena: &LineageArena, phin: &BitDnf) -> CauseSet {
    let actual: BTreeSet<TupleRef> = arena.tuples_of(&phin.variables()).into_iter().collect();
    let counterfactual: BTreeSet<TupleRef> = arena
        .tuples_of(&phin.common_variables())
        .into_iter()
        .collect();
    CauseSet {
        actual,
        counterfactual,
    }
}

/// Compute the Why-No causes of a Boolean non-answer (Sect. 2's dual
/// definition): actual causes are the variables of the minimized
/// non-answer lineage; counterfactual causes are tuples whose insertion
/// alone makes the query true — the singleton conjuncts.
pub fn why_no_causes(db: &Database, q: &ConjunctiveQuery) -> Result<CauseSet, CoreError> {
    let (arena, phin) = minimized_n_lineage(db, q, None)?;
    if phin.is_tautology() {
        // q is already true on Dx: not a non-answer, no causes.
        return Ok(CauseSet::default());
    }
    let actual: BTreeSet<TupleRef> = arena.tuples_of(&phin.variables()).into_iter().collect();
    let counterfactual: BTreeSet<TupleRef> = phin
        .conjuncts()
        .iter()
        .filter(|c| c.len() == 1)
        .flat_map(|c| arena.tuples_of(c))
        .collect();
    Ok(CauseSet {
        actual,
        counterfactual,
    })
}

/// Brute-force Why-So causes straight from Def. 2.1: for each endogenous
/// tuple `t`, search all contingency sets `Γ ⊆ Dn − {t}` (by increasing
/// size) for one making `t` counterfactual. Exponential — test oracle only.
pub fn brute_force_why_so(db: &Database, q: &ConjunctiveQuery) -> Result<CauseSet, CoreError> {
    let endo = db.endogenous_tuples();
    let mut set = CauseSet::default();
    if !holds_masked(db, q, EndoMask::All)? {
        return Ok(set);
    }
    for &t in &endo {
        let others: Vec<TupleRef> = endo.iter().copied().filter(|&u| u != t).collect();
        if let Some(gamma) = smallest_whyso_contingency(db, q, t, &others)? {
            set.actual.insert(t);
            if gamma.is_empty() {
                set.counterfactual.insert(t);
            }
        }
    }
    Ok(set)
}

/// Brute-force minimal Why-So contingency for `t` (Def. 2.3's `min |Γ|`),
/// or `None` if `t` is not a cause. Exponential — test oracle only.
pub fn smallest_whyso_contingency(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
    others: &[TupleRef],
) -> Result<Option<Vec<TupleRef>>, CoreError> {
    if !db.is_endogenous(t) {
        return Err(CoreError::NotEndogenous);
    }
    for size in 0..=others.len() {
        let mut found: Option<Vec<TupleRef>> = None;
        for combo in combinations(others, size) {
            let mut gone: HashSet<TupleRef> = combo.iter().copied().collect();
            // q true on D − Γ …
            if !holds_masked(db, q, EndoMask::Except(&gone))? {
                continue;
            }
            // … and false on D − Γ − {t}.
            gone.insert(t);
            if !holds_masked(db, q, EndoMask::Except(&gone))? {
                found = Some(combo);
                break;
            }
        }
        if found.is_some() {
            return Ok(found);
        }
    }
    Ok(None)
}

/// Brute-force minimal Why-No contingency for `t`: smallest `Γ ⊆ Dn` with
/// `Dx ∪ Γ ⊭ q` and `Dx ∪ Γ ∪ {t} ⊨ q`. Exponential — test oracle only.
pub fn smallest_whyno_contingency(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
) -> Result<Option<Vec<TupleRef>>, CoreError> {
    if !db.is_endogenous(t) {
        return Err(CoreError::NotEndogenous);
    }
    let others: Vec<TupleRef> = db
        .endogenous_tuples()
        .into_iter()
        .filter(|&u| u != t)
        .collect();
    for size in 0..=others.len() {
        for combo in combinations(&others, size) {
            let mut present: HashSet<TupleRef> = combo.iter().copied().collect();
            if holds_masked(db, q, EndoMask::Only(&present))? {
                continue; // q must be false on Dx ∪ Γ
            }
            present.insert(t);
            if holds_masked(db, q, EndoMask::Only(&present))? {
                return Ok(Some(combo));
            }
        }
    }
    Ok(None)
}

/// All `size`-subsets of `items`, in lexicographic order.
pub(crate) fn combinations(items: &[TupleRef], size: usize) -> Vec<Vec<TupleRef>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn rec(
        items: &[TupleRef],
        start: usize,
        size: usize,
        current: &mut Vec<TupleRef>,
        out: &mut Vec<Vec<TupleRef>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        let needed = size - current.len();
        for i in start..=items.len().saturating_sub(needed) {
            current.push(items[i]);
            rec(items, i + 1, size, current, out);
            current.pop();
        }
    }
    if size <= items.len() {
        rec(items, 0, size, &mut current, &mut out);
    }
    out
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

    /// Example 2.2: for answer a2, S(a1) is a counterfactual cause.
    #[test]
    fn example_2_2_counterfactual() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a2")]);
        let causes = why_so_causes(&db, &query).unwrap();
        let s_a1 = tref(&db, "S", tup!["a1"]);
        let r_21 = tref(&db, "R", tup!["a2", "a1"]);
        assert!(causes.counterfactual.contains(&s_a1));
        assert!(causes.counterfactual.contains(&r_21));
        assert_eq!(causes.actual.len(), 2);
    }

    /// Example 2.2: for answer a4, S(a3) is an actual (not counterfactual)
    /// cause with contingency {S(a2)}.
    #[test]
    fn example_2_2_actual_cause() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let causes = why_so_causes(&db, &query).unwrap();
        let s_a3 = tref(&db, "S", tup!["a3"]);
        let s_a2 = tref(&db, "S", tup!["a2"]);
        assert!(causes.actual.contains(&s_a3));
        assert!(causes.actual.contains(&s_a2));
        assert!(causes.counterfactual.is_empty(), "two disjoint witnesses");
        // Brute-force Def. 2.1 contingency for S(a3) is exactly {S(a2)}.
        let others: Vec<TupleRef> = db
            .endogenous_tuples()
            .into_iter()
            .filter(|&u| u != s_a3)
            .collect();
        let gamma = smallest_whyso_contingency(&db, &query, s_a3, &others)
            .unwrap()
            .unwrap();
        // Two minimum contingencies exist: {S(a2)} and {R(a4,a2)}.
        let r_42 = tref(&db, "R", tup!["a4", "a2"]);
        assert_eq!(gamma.len(), 1);
        assert!(gamma == vec![s_a2] || gamma == vec![r_42], "got {gamma:?}");
    }

    /// Example 2.2 (second part): with Rx = {(a4,a3),(a4,a2)},
    /// Rn(a3,a3) is NOT an actual cause of q :- R(x,'a3'), S('a3').
    #[test]
    fn example_2_2_exogenous_blocks_cause() {
        let mut db = example_2_2();
        let r = db.relation_id("R").unwrap();
        for t in [tup!["a4", "a3"], tup!["a4", "a2"]] {
            let row = db.relation(r).find(&t).unwrap();
            db.relation_mut(r).set_endogenous(row, false);
        }
        let query = q("q :- R(x, 'a3'), S('a3')");
        let causes = why_so_causes(&db, &query).unwrap();
        let r33 = tref(&db, "R", tup!["a3", "a3"]);
        let s3 = tref(&db, "S", tup!["a3"]);
        assert!(!causes.is_cause(r33), "R(a3,a3) makes no difference");
        assert!(causes.is_cause(s3));
        assert!(causes.counterfactual.contains(&s3));
    }

    #[test]
    fn theorem_3_2_agrees_with_brute_force_on_example() {
        let db = example_2_2();
        for answer in ["a2", "a3", "a4"] {
            let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str(answer)]);
            let fast = why_so_causes(&db, &query).unwrap();
            let brute = brute_force_why_so(&db, &query).unwrap();
            assert_eq!(fast, brute, "answer {answer}");
        }
    }

    #[test]
    fn false_query_has_no_causes() {
        let db = example_2_2();
        let causes = why_so_causes(&db, &q("q :- R(x, 'a6'), S('a6')")).unwrap();
        assert!(causes.is_empty());
        let brute = brute_force_why_so(&db, &q("q :- R(x, 'a6'), S('a6')")).unwrap();
        assert!(brute.is_empty());
    }

    #[test]
    fn exogenously_true_query_has_no_causes() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_exo(r, tup![1]);
        db.insert_endo(r, tup![2]);
        let causes = why_so_causes(&db, &q("q :- R(x)")).unwrap();
        assert!(
            causes.is_empty(),
            "R(1) keeps q true under every contingency"
        );
        assert_eq!(causes, brute_force_why_so(&db, &q("q :- R(x)")).unwrap());
    }

    #[test]
    fn why_no_causes_basics() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        let s2 = db.insert_endo(s, tup![2]); // lone missing tuple: counterfactual
        let r53 = db.insert_endo(r, tup![5, 3]);
        let s3 = db.insert_endo(s, tup![3]);

        let causes = why_no_causes(&db, &q("q :- R(x, y), S(y)")).unwrap();
        assert!(causes.counterfactual.contains(&s2));
        assert!(causes.actual.contains(&r53));
        assert!(causes.actual.contains(&s3));
        assert!(!causes.counterfactual.contains(&s3));

        // Cross-check with the brute-force Def. 2.1 dual.
        let gamma = smallest_whyno_contingency(&db, &q("q :- R(x, y), S(y)"), s3)
            .unwrap()
            .unwrap();
        assert_eq!(gamma, vec![r53]);
        let gamma = smallest_whyno_contingency(&db, &q("q :- R(x, y), S(y)"), s2)
            .unwrap()
            .unwrap();
        assert!(gamma.is_empty(), "counterfactual: empty contingency");
    }

    #[test]
    fn why_no_on_actual_answer_is_empty() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_exo(r, tup![1]);
        db.insert_endo(r, tup![2]);
        let causes = why_no_causes(&db, &q("q :- R(x)")).unwrap();
        assert!(causes.is_empty());
    }

    #[test]
    fn exogenous_tuple_rejected_by_contingency_search() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        let t = db.insert_exo(r, tup![1]);
        let err = smallest_whyso_contingency(&db, &q("q :- R(x)"), t, &[]).unwrap_err();
        assert!(matches!(err, CoreError::NotEndogenous));
    }

    #[test]
    fn combinations_enumerate_correctly() {
        let items: Vec<TupleRef> = (0..4).map(|i| TupleRef::new(0, i)).collect();
        assert_eq!(combinations(&items, 0), vec![Vec::<TupleRef>::new()]);
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 4).len(), 1);
        assert!(combinations(&items, 5).is_empty());
    }

    #[test]
    fn answer_grounding_helper() {
        let db = example_2_2();
        let base = q("q(x) :- R(x, y), S(y)");
        let causes = why_so_causes_of_answer(&db, &base, &[Value::str("a2")]).unwrap();
        assert_eq!(causes.actual.len(), 2);
    }
}

//! Responsibility (Def. 2.3): `ρ_t = 1 / (1 + min_Γ |Γ|)`.
//!
//! * [`exact`] — exact minimum contingency by branch-and-bound over the
//!   n-lineage, running entirely on interned bitsets
//!   ([`causality_lineage::arena`]). Works for *every* conjunctive query
//!   (self-joins, mixed relations); worst-case exponential, as it must
//!   be for the NP-hard side of the dichotomy.
//! * [`flow`] — Algorithm 1: PTIME responsibility for weakly linear
//!   queries via repeated max-flow/min-cut (Example 4.2, Theorem 4.5).
//! * [`whyno`] — Theorem 4.17: Why-No responsibility in PTIME (contingency
//!   sets are bounded by the number of subgoals).
//! * [`approx`] — anytime certified `[lower, upper]` bounds on ρ for the
//!   NP-hard side: greedy hitting set with the ln(n)+1 guarantee plus a
//!   budgeted iterative-deepening refinement.
//!
//! [`why_so_responsibility`] picks the right algorithm automatically:
//! flow when the query (with natures derived from the database partition)
//! is self-join-free and weakly linear, exact otherwise.

pub mod approx;
pub mod exact;
pub mod flow;
pub mod whyno;

use crate::error::CoreError;
use causality_engine::{ConjunctiveQuery, Database, TupleRef};

pub use whyno::why_no_responsibility;

/// The responsibility of one tuple for a (non-)answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Responsibility {
    /// `ρ_t ∈ [0, 1]`; `0` means "not a cause", `1` "counterfactual".
    pub rho: f64,
    /// A minimum contingency set witnessing `ρ` (empty for counterfactual
    /// causes, `None` when the tuple is not a cause).
    pub min_contingency: Option<Vec<TupleRef>>,
}

impl Responsibility {
    /// The "not a cause" value (`ρ = 0` by the paper's convention).
    pub fn not_a_cause() -> Self {
        Responsibility {
            rho: 0.0,
            min_contingency: None,
        }
    }

    /// Build from a witnessed minimum contingency.
    pub fn from_contingency(gamma: Vec<TupleRef>) -> Self {
        Responsibility {
            rho: 1.0 / (1.0 + gamma.len() as f64),
            min_contingency: Some(gamma),
        }
    }

    /// Whether the tuple is a cause at all.
    pub fn is_cause(&self) -> bool {
        self.min_contingency.is_some()
    }

    /// Whether the tuple is a counterfactual cause (`ρ = 1`).
    pub fn is_counterfactual(&self) -> bool {
        self.min_contingency.as_ref().is_some_and(Vec::is_empty)
    }
}

/// Compute Why-So responsibility with automatic algorithm selection:
/// Algorithm 1 (max-flow) when applicable, exact branch-and-bound
/// otherwise.
pub fn why_so_responsibility(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
) -> Result<Responsibility, CoreError> {
    match flow::why_so_responsibility_flow(db, q, t) {
        Ok(r) => Ok(r),
        Err(e) if flow_inapplicable(&e) => exact::why_so_responsibility_exact(db, q, t),
        Err(e) => Err(e),
    }
}

/// Whether Algorithm 1 refused the query for a reason the automatic
/// method treats as "fall back to the exact solver" rather than a real
/// error: the query is outside the flow algorithm's dichotomy class
/// (not weakly linear, has a self-join), its relations are not
/// uniformly marked, or the certificate could not be derived at all
/// (more than 64 variables or atoms, or the weakening search gave up).
/// The exact solver needs none of these, so every one of them is a
/// fallback. One predicate shared by both Auto dispatches
/// ([`why_so_responsibility`] and the ranker,
/// [`crate::ranking::rank_why_so_parallel`]), so the fallback set cannot
/// drift between them.
pub(crate) fn flow_inapplicable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::NotWeaklyLinear { .. }
            | CoreError::SelfJoin { .. }
            | CoreError::UnmarkedAtom { .. }
            | CoreError::TooLarge { .. }
            | CoreError::BudgetExceeded { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::Explainer;
    use crate::ranking::{rank_why_so_parallel, RankConfig};
    use causality_engine::{Schema, Value};

    #[test]
    fn responsibility_values() {
        let none = Responsibility::not_a_cause();
        assert_eq!(none.rho, 0.0);
        assert!(!none.is_cause());
        assert!(!none.is_counterfactual());

        let counter = Responsibility::from_contingency(vec![]);
        assert_eq!(counter.rho, 1.0);
        assert!(counter.is_counterfactual());

        let gamma = vec![TupleRef::new(0, 0), TupleRef::new(0, 1)];
        let actual = Responsibility::from_contingency(gamma);
        assert!((actual.rho - 1.0 / 3.0).abs() < 1e-12);
        assert!(actual.is_cause());
        assert!(!actual.is_counterfactual());
    }

    /// `q :- R(x0, …, x64)` over one endogenous row per entry of `rows`:
    /// 65 variables is one past what `AQuery` (and so Algorithm 1's
    /// certificate) can represent.
    fn wide_instance(rows: &[i64]) -> (Database, ConjunctiveQuery, Vec<TupleRef>) {
        let columns: Vec<String> = (0..65).map(|i| format!("c{i}")).collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &columns));
        let tuples = rows
            .iter()
            .map(|&row| db.insert_endo(r, vec![Value::from(row); 65]))
            .collect();
        let vars: Vec<String> = (0..65).map(|i| format!("x{i}")).collect();
        let q = ConjunctiveQuery::parse(&format!("q :- R({})", vars.join(", "))).unwrap();
        (db, q, tuples)
    }

    /// Algorithm 1 cannot certify a 65-variable query (`TooLarge`), so
    /// every `Auto` entry point falls back to the exact solver instead
    /// of erroring: one row is counterfactual, two rows are each other's
    /// contingency.
    #[test]
    fn auto_falls_back_when_the_certificate_is_too_large() {
        for (rows, rho) in [(&[1][..], 1.0), (&[1, 2][..], 0.5)] {
            let (db, q, tuples) = wide_instance(rows);
            assert!(matches!(
                flow::why_so_responsibility_flow(&db, &q, tuples[0]),
                Err(CoreError::TooLarge { what: "variables" })
            ));
            let exact = exact::why_so_responsibility_exact(&db, &q, tuples[0]).unwrap();
            assert_eq!(exact.rho, rho);
            assert_eq!(why_so_responsibility(&db, &q, tuples[0]).unwrap(), exact);

            let ranked = rank_why_so_parallel(&db, &q, &RankConfig::default(), None).unwrap();
            assert_eq!(ranked.causes.len(), rows.len());
            assert_eq!(ranked.causes[0].tuple, tuples[0]);
            assert_eq!(ranked.causes[0].responsibility, exact);

            let explanation = Explainer::new(&db, &q).why(&[]).unwrap();
            assert_eq!(explanation.causes.len(), rows.len());
            assert_eq!(explanation.causes[0].rho, rho);
        }
    }
}

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
/// (not weakly linear, has a self-join) or its relations are not
/// uniformly marked. One predicate shared by both Auto dispatches
/// ([`why_so_responsibility`] and the ranker,
/// [`crate::ranking::rank_why_so_parallel`]), so the fallback set cannot
/// drift between them.
pub(crate) fn flow_inapplicable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::NotWeaklyLinear { .. }
            | CoreError::SelfJoin { .. }
            | CoreError::UnmarkedAtom { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

//! # causality-core — causality and responsibility for query answers
//!
//! The primary contribution of *Meliou, Gatterbauer, Moore, Suciu: "The
//! Complexity of Causality and Responsibility for Query Answers and
//! non-Answers"*, implemented end to end:
//!
//! * [`causes`] — Why-So and Why-No **causality** (Def. 2.1): counterfactual
//!   and actual causes, computed in PTIME from the non-redundant conjuncts
//!   of the n-lineage (Theorem 3.2), plus a brute-force contingency-search
//!   oracle implementing Def. 2.1 literally (for cross-validation).
//! * [`fo`] — Theorem 3.4: the non-recursive stratified Datalog program
//!   (two strata, one negation level) that computes all causes inside the
//!   database, with Corollary 3.7's negation-free special case.
//! * [`resp`] — **responsibility** (Def. 2.3): the max-flow algorithm for
//!   (weakly) linear queries (Algorithm 1 / Theorem 4.5), an exact
//!   branch-and-bound solver for the NP-hard cases, and the PTIME Why-No
//!   computation (Theorem 4.17).
//! * [`dichotomy`] — the complexity dichotomy (Corollary 4.14): linearity
//!   (Def. 4.4), weakening (Def. 4.9), rewriting (Def. 4.6), recognition of
//!   the canonical hard queries h1*, h2*, h3* (Theorem 4.1), and the
//!   classifier that returns a PTIME or NP-hardness *certificate* for any
//!   self-join-free conjunctive query.
//! * [`ranking`] / [`explain`] — the user-facing API of the introduction:
//!   rank the causes of a (non-)answer by responsibility (Fig. 2b).
//! * [`whyno_candidates`] — generating the Why-No candidate set `Dn`
//!   (the substrate the paper delegates to Huang et al. \[15\]).
//!
//! # Quickstart
//!
//! ```
//! use causality_core::explain::Explainer;
//! use causality_engine::{database::example_2_2, ConjunctiveQuery, Value};
//!
//! let db = example_2_2();
//! let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
//! let explanation = Explainer::new(&db, &q).why(&[Value::str("a4")]).unwrap();
//! // S(a3) and S(a2) are actual causes with responsibility 1/2, etc.
//! assert!(!explanation.causes.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causes;
pub mod dichotomy;
pub mod error;
pub mod explain;
pub mod fo;
pub mod ranking;
pub mod resp;
pub mod whyno_candidates;

pub use causes::{why_no_causes, why_so_causes, CauseSet};
pub use dichotomy::classify::{classify_why_so, Complexity, DichotomyTag};
pub use error::CoreError;
pub use explain::{ExplainMode, ExplainTiming, Explainer};
pub use ranking::{rank_why_so_parallel, RankConfig, RankStats, RankedTopK};
pub use resp::approx::{anytime_min_contingency, AnytimeOutcome, ApproxBudget, RhoBounds};
pub use resp::{why_no_responsibility, why_so_responsibility, Responsibility};
pub use whyno_candidates::{
    install_candidates, screen_candidates, suggest_candidates, CandidateConfig,
};

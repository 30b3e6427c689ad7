//! # causality-lineage — Boolean lineage and provenance
//!
//! Lineage machinery for the causality reproduction (paper Sect. 3):
//!
//! * [`dnf`] — positive Boolean expressions in DNF over tuple variables
//!   `X_t`, with the operations the paper's Theorem 3.2 needs: restriction
//!   `Φ[X := true/false]`, satisfiability (a positive DNF is satisfiable
//!   iff it has at least one conjunct), and **redundant-conjunct removal**
//!   (a conjunct is redundant if another conjunct is a strict subset).
//! * [`whyso`] — the lineage `Φ` of a Boolean query (one conjunct
//!   `c_θ = X_{t1} ∧ … ∧ X_{tm}` per valuation `θ`, Def. 3.1) and the
//!   **n-lineage** `Φⁿ = Φ[X_t := true, ∀t ∈ Dx]`; [`minimized_n_lineage`]
//!   returns it interned and minimized, the form every cause and
//!   responsibility computation reads.
//! * [`whyno`] — the non-answer lineage over `Dx ∪ Dn`, where `Dn` holds
//!   the *potentially missing* tuples (Sect. 2's Why-No setting; computing
//!   `Dn` itself is delegated to the data generator / caller, as the paper
//!   delegates it to Huang et al. \[15\]).
//! * [`witness`] — why-provenance (minimal witness basis), for the Sect. 5
//!   comparison between provenance and causality.
//! * [`semiring`] — provenance semirings (Green et al. \[12\]) evaluated
//!   over the same valuation stream: Boolean, counting, tropical and
//!   how-polynomials.
//! * [`arena`] — interned lineage: [`LineageArena`] maps `TupleRef`s to
//!   dense `u32` variable ids and [`BitDnf`]/[`VarSet`] run the hot
//!   kernels (minimize, restrict, subset/intersection) on packed `u64`
//!   bitsets. Every responsibility solver operates on this form; `Dnf`
//!   remains the construction-time API and translates at the boundary.
//! * [`oracle`] — the seed `BTreeSet` kernels, verbatim, for
//!   differential tests and before/after benchmarking only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod dnf;
pub mod oracle;
pub mod semiring;
pub mod whyno;
pub mod whyso;
pub mod witness;

pub use arena::{BitDnf, LineageArena, VarSet};
pub use dnf::{Conjunct, Dnf};
pub use whyno::{non_answer_lineage, non_answer_lineage_cached};
pub use whyso::{lineage, lineage_cached, minimized_n_lineage, n_lineage, n_lineage_cached};
pub use witness::why_provenance;

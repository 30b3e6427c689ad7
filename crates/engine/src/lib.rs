//! # causality-engine — relational substrate
//!
//! The in-memory relational engine underpinning the reproduction of
//! *Meliou, Gatterbauer, Moore, Suciu: "The Complexity of Causality and
//! Responsibility for Query Answers and non-Answers"*.
//!
//! The paper (Sect. 2) assumes a standard relational setting:
//!
//! * a database instance `D` of named relations holding tuples,
//! * a partition of `D` into *endogenous* tuples `Dn` (potential causes)
//!   and *exogenous* tuples `Dx` (context),
//! * conjunctive queries `q :- g1, …, gm` whose *valuations*
//!   `θ : Var(q) → Adom(D)` ground every atom to a database tuple.
//!
//! This crate provides exactly that substrate:
//!
//! * [`Value`], [`Tuple`], [`TupleRef`] — data model; a [`TupleRef`] is the
//!   Boolean variable `X_t` of Def. 3.1.
//! * [`Schema`], [`Relation`], [`Database`] — storage with per-tuple
//!   endogenous flags and flexible partitioning.
//! * [`ConjunctiveQuery`], [`Atom`], [`Term`] — query ASTs with a text
//!   [parser](query::parser), homomorphism / core machinery (needed by the
//!   paper's Theorem 3.4 image minimization) and isomorphism tests (needed
//!   to recognise the canonical hard queries h1*, h2*, h3*).
//! * [`eval`] — a backtracking join evaluator whose one search hands each
//!   valuation to a caller's sink ([`eval::for_each_valuation`]), and
//!   collects answers *and* valuations on top of it, under counterfactual
//!   [`EndoMask`]s (tuple removals for
//!   Why-So, tuple insertions for Why-No), with a thread-safe
//!   [`SharedIndexCache`] keyed on per-relation content stamps
//!   ([`RelVersion`]) so repeated evaluations over unchanged relations
//!   build their hash indexes once — even across writes to *other*
//!   relations.
//! * [`snapshot`] — immutable, structurally shared [`Snapshot`]s and a
//!   versioned [`SnapshotStore`]: each [`Database`] holds one `Arc` per
//!   relation, so publishing an update clones only the relations it
//!   touches while concurrent readers keep their pinned views.
//!
//! # Example
//!
//! ```
//! use causality_engine::{Database, Schema, Value, ConjunctiveQuery, eval::evaluate};
//!
//! let mut db = Database::new();
//! let r = db.add_relation(Schema::new("R", &["x", "y"]));
//! let s = db.add_relation(Schema::new("S", &["y"]));
//! db.insert_endo(r, vec![Value::from("a2"), Value::from("a1")]);
//! db.insert_endo(s, vec![Value::from("a1")]);
//!
//! let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
//! let result = evaluate(&db, &q).unwrap();
//! assert_eq!(result.answers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod error;
pub mod eval;
pub mod query;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod tuple;
pub mod value;

pub use database::{Database, EndoMask};
pub use error::EngineError;
pub use eval::{
    evaluate, evaluate_masked, evaluate_masked_with_cache, evaluate_with_cache, for_each_valuation,
    holds_masked, holds_masked_with_cache, EvalResult, SharedIndexCache, Valuation,
};
pub use query::{Atom, ConjunctiveQuery, Nature, Term, VarId};
pub use relation::{RelVersion, Relation};
pub use schema::Schema;
pub use snapshot::{Snapshot, SnapshotStore};
pub use tuple::{RelId, RowId, Tuple, TupleRef};
pub use value::Value;

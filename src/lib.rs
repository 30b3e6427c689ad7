//! # causality — query answers explained by causes and responsibilities
//!
//! A complete, from-scratch Rust reproduction of
//!
//! > Alexandra Meliou, Wolfgang Gatterbauer, Katherine F. Moore, Dan Suciu.
//! > *The Complexity of Causality and Responsibility for Query Answers and
//! > non-Answers.* (VLDB 2010 / arXiv:1009.2021)
//!
//! Given a database partitioned into *endogenous* (suspect) and
//! *exogenous* (context) tuples, this library answers **Why-So** ("why is
//! this tuple an answer?") and **Why-No** ("why is it not?") questions by
//! computing the *causes* of the (non-)answer and ranking them by
//! *responsibility* `ρ = 1/(1 + |Γ|)`, where `Γ` is a minimum contingency
//! set (Def. 2.1/2.3 of the paper).
//!
//! The workspace implements every system the paper touches:
//!
//! | crate | contents |
//! |---|---|
//! | [`engine`] | relational storage, conjunctive queries, valuations, counterfactual masks |
//! | [`lineage`] | DNF lineage, n-lineage, why-provenance, provenance semirings |
//! | [`datalog`] | stratified Datalog with negation + SQL rendering (Theorem 3.4's target language) |
//! | [`graph`] | max-flow (Edmonds–Karp, Dinic), hypergraphs, consecutive-ones, vertex-cover oracles |
//! | [`core`] | causes (Thm. 3.2), FO cause programs (Thm. 3.4), responsibility (Algorithm 1, exact, Why-No), the dichotomy classifier (Cor. 4.14) |
//! | [`reductions`] | executable hardness proofs: 3SAT rings, vertex cover, the LOGSPACE chain |
//! | [`datagen`] | IMDB-schema synthesis (Fig. 1/2), chain/triangle workloads, Zipf |
//! | [`service`] | sharded explanation serving: admission control, deadlines, per-shard worker pools and caches, latency histograms |
//! | [`telemetry`] | std-only observability: request-trace spans, a named metrics registry (Prometheus-text exporter), JSONL trace export, trace rings, slow-log |
//!
//! # Quickstart
//!
//! ```
//! use causality::prelude::*;
//!
//! // A database: R(x,y) and S(y), all tuples endogenous.
//! let mut db = Database::new();
//! let r = db.add_relation(Schema::new("R", &["x", "y"]));
//! let s = db.add_relation(Schema::new("S", &["y"]));
//! db.insert_endo(r, vec![Value::from("a2"), Value::from("a1")]);
//! db.insert_endo(s, vec![Value::from("a1")]);
//!
//! // Why is a2 an answer of q(x) :- R(x,y), S(y)?
//! let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
//! let explanation = Explainer::new(&db, &q).why(&[Value::from("a2")]).unwrap();
//! assert_eq!(explanation.causes.len(), 2);
//! assert!(explanation.causes.iter().all(|c| c.rho == 1.0));
//! ```
//!
//! See `examples/` for the paper's IMDB scenario, a Why-No scenario, and
//! an interactive complexity classifier, and `crates/bench` for the
//! experiment harnesses regenerating every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Compiles and runs README.md's `rust` blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use causality_core as core;
pub use causality_datagen as datagen;
pub use causality_datalog as datalog;
pub use causality_engine as engine;
pub use causality_graph as graph;
pub use causality_lineage as lineage;
pub use causality_reductions as reductions;
pub use causality_service as service;
pub use causality_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use causality_core::causes::{why_no_causes, why_so_causes, CauseSet};
    pub use causality_core::dichotomy::classify::{classify_why_so, Complexity};
    pub use causality_core::explain::{ExplainMode, Explainer, Explanation};
    pub use causality_core::ranking::{
        rank_why_no, rank_why_so_parallel, Method, RankConfig, RankStats, RankedTopK,
    };
    pub use causality_core::resp::approx::{
        anytime_min_contingency, AnytimeOutcome, ApproxBudget, RhoBounds,
    };
    pub use causality_core::resp::{why_no_responsibility, why_so_responsibility, Responsibility};
    pub use causality_engine::{
        evaluate, evaluate_with_cache, ConjunctiveQuery, Database, EndoMask, RelId, RelVersion,
        Schema, SharedIndexCache, Snapshot, SnapshotStore, Tuple, TupleRef, Value,
    };
    pub use causality_lineage::{lineage, n_lineage};
    pub use causality_service::{
        BreakerConfig, BreakerState, Clock, ExplainKind, ExplainRequest, ExplainResponse,
        FaultKind, FaultPlan, FrontendStats, HealthState, ManualClock, RetryPolicy, ServiceConfig,
        ServiceError, ServiceStats, ShardedService, SupervisorConfig, SystemClock, TenantId,
        TierConfig, TierStats,
    };
    pub use causality_telemetry::{RequestTrace, Stage, TelemetryConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let db = causality_engine::database::example_2_2();
        let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        let result = evaluate(&db, &q).unwrap();
        assert_eq!(result.answers.len(), 3);
        let grounded = q.ground(&[Value::from("a3")]);
        let causes = why_so_causes(&db, &grounded).unwrap();
        assert!(!causes.is_empty());
        let c = classify_why_so(
            &ConjunctiveQuery::parse("h2 :- R^n(x, y), S^n(y, z), T^n(z, x)").unwrap(),
        )
        .unwrap();
        assert!(!c.is_ptime());
    }
}

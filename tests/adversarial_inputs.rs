//! Typed errors and answers on adversarial input, through the entry
//! points a request reaches: `Explainer::{why, why_not, why_anytime}`
//! and the serving tier (`explain`, and `submit_with_deadline` for the
//! anytime route). Each case pins its outcome: an unknown relation, an
//! arity mismatch, an unsafe query, an empty database, an all-exogenous
//! lineage (Φⁿ = true, no causes), and 30 000-valuation lineages whose
//! n-lineage minimizes to 200 conjuncts (PTIME) or one (NP-hard). None
//! may panic or hang.

#[path = "common/tier.rs"]
mod tier;
#[path = "common/timeout.rs"]
mod timeout;

use causality::prelude::*;
use causality_core::error::CoreError;
use causality_engine::{Atom, EngineError, Nature, Term};
use std::time::Duration;

/// The outcome of one call, reduced to what the cases pin: the error,
/// or the number of causes and the ρ of the first.
#[derive(Debug, PartialEq)]
enum Outcome {
    Causes(usize, f64),
    Unknown(String),
    Arity(String),
    Other(String),
}

fn outcome(result: Result<Explanation, CoreError>) -> Outcome {
    match result {
        Ok(e) => Outcome::Causes(e.causes.len(), e.rho_max()),
        Err(CoreError::Engine(EngineError::UnknownRelation(r))) => Outcome::Unknown(r),
        Err(CoreError::Engine(EngineError::ArityMismatch { relation, .. })) => {
            Outcome::Arity(relation)
        }
        Err(e) => Outcome::Other(format!("{e:?}")),
    }
}

fn served(result: Result<Explanation, ServiceError>) -> Outcome {
    match result {
        Ok(e) => outcome(Ok(e)),
        Err(ServiceError::Core(e)) => outcome(Err(e)),
        Err(e) => Outcome::Other(format!("{e:?}")),
    }
}

/// One adversarial question and the outcome every path must give.
struct Case {
    name: &'static str,
    db: Database,
    query: ConjunctiveQuery,
    answer: Vec<Value>,
    why: Outcome,
    why_not: Outcome,
}

fn q(text: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::parse(text).unwrap()
}

fn unary(db: &mut Database, name: &str, values: impl IntoIterator<Item = i64>, endo: bool) {
    let rel = db.add_relation(Schema::new(name, &["a"]));
    for v in values {
        db.insert(rel, vec![Value::int(v)], endo);
    }
}

/// h2* with one endogenous `R(1, 2)` closing `n` exogenous triangles.
fn triangle_fan_exo(n: i64) -> Database {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z", "x"]));
    db.insert_endo(r, vec![Value::int(1), Value::int(2)]);
    for z in 0..n {
        db.insert_exo(s, vec![Value::int(2), Value::int(100 + z)]);
        db.insert_exo(t, vec![Value::int(100 + z), Value::int(1)]);
    }
    db
}

fn cases() -> Vec<Case> {
    let example = causality_engine::database::example_2_2;
    // `q(y) :- R(x, x)`: y never occurs in the body. The parser refuses
    // it; the builder does not. Grounding substitutes y nowhere, so the
    // grounded question is the safe `q :- R(x, x)`.
    let mut unsafe_q = ConjunctiveQuery::boolean("q");
    let x = unsafe_q.var("x");
    let y = unsafe_q.var("y");
    unsafe_q.push_atom(Atom::new(
        "R",
        Nature::Any,
        vec![Term::Var(x), Term::Var(x)],
    ));
    unsafe_q.set_head(vec![Term::Var(y)]);

    let mut all_exo = Database::new();
    unary(&mut all_exo, "R", [1, 2], false);
    unary(&mut all_exo, "S", [1], false);

    let mut wide = Database::new();
    unary(&mut wide, "R", 0..200, true);
    unary(&mut wide, "S", 0..150, false);

    vec![
        Case {
            name: "unknown relation",
            db: example(),
            query: q("q(x) :- R(x, y), Nope(y)"),
            answer: vec![Value::str("a2")],
            why: Outcome::Unknown("Nope".into()),
            why_not: Outcome::Unknown("Nope".into()),
        },
        Case {
            name: "arity mismatch",
            db: example(),
            query: q("q(x) :- R(x, y), S(y, x)"),
            answer: vec![Value::str("a2")],
            why: Outcome::Arity("S".into()),
            why_not: Outcome::Arity("S".into()),
        },
        Case {
            name: "unsafe query",
            db: example(),
            query: unsafe_q,
            answer: vec![Value::str("a3")],
            why: Outcome::Causes(1, 1.0),
            why_not: Outcome::Causes(1, 1.0),
        },
        Case {
            name: "empty database",
            db: Database::new(),
            query: q("q(x) :- R(x, y), S(y)"),
            answer: vec![Value::int(1)],
            why: Outcome::Unknown("R".into()),
            why_not: Outcome::Unknown("R".into()),
        },
        Case {
            name: "all-exogenous lineage",
            db: all_exo,
            query: q("q(x) :- R(x), S(x)"),
            answer: vec![Value::int(1)],
            why: Outcome::Causes(0, 0.0),
            why_not: Outcome::Causes(0, 0.0),
        },
        Case {
            name: "30k valuations, 200 conjuncts",
            db: wide,
            query: q("q :- R(x), S(y)"),
            answer: vec![],
            why: Outcome::Causes(200, 1.0 / 200.0),
            why_not: Outcome::Causes(200, 1.0),
        },
        Case {
            name: "30k valuations of h2*, one conjunct",
            db: triangle_fan_exo(30_000),
            query: q("h2 :- R(x, y), S(y, z), T(z, x)"),
            answer: vec![],
            why: Outcome::Causes(1, 1.0),
            why_not: Outcome::Causes(1, 1.0),
        },
    ]
}

#[test]
fn explainer_paths_give_typed_outcomes() {
    timeout::with_timeout(Duration::from_secs(120), "explainer paths hang", || {
        for case in cases() {
            let explainer = Explainer::new(&case.db, &case.query);
            assert_eq!(
                outcome(explainer.why(&case.answer)),
                case.why,
                "{}",
                case.name
            );
            assert_eq!(
                outcome(explainer.why_not(&case.answer)),
                case.why_not,
                "{}",
                case.name
            );
            let anytime = explainer
                .why_anytime(&case.answer, ApproxBudget::zero())
                .map(|(e, _)| e);
            assert_eq!(outcome(anytime), case.why, "{} (anytime)", case.name);
        }
    });
}

#[test]
fn tier_paths_give_typed_outcomes() {
    timeout::with_timeout(Duration::from_secs(120), "tier paths hang", || {
        for case in cases() {
            let (tier, t) = tier::one_tenant(case.db, ServiceConfig::default());
            let why = ExplainRequest::why_so(case.query.clone(), case.answer.clone());
            let served_why = tier.explain(t, why.clone()).unwrap().result;
            assert_eq!(served(served_why), case.why, "{}", case.name);
            let why_not = ExplainRequest::why_no(case.query.clone(), case.answer.clone());
            let served_why_not = tier.explain(t, why_not).unwrap().result;
            assert_eq!(served(served_why_not), case.why_not, "{}", case.name);
            // Under a deadline an NP-hard question takes the anytime
            // route; every other one stays exact.
            let pending = tier
                .submit_with_deadline(t, why, Duration::from_secs(60))
                .unwrap();
            let deadlined = pending.wait().unwrap().result;
            assert_eq!(served(deadlined), case.why, "{} (deadline)", case.name);
            tier.shutdown();
        }
        // An answer that does not ground the query is refused at submit.
        let (tier, t) = tier::one_tenant(Database::new(), ServiceConfig::default());
        let bad = ExplainRequest::why_so(q("q(x) :- R(x, y)"), vec![]);
        assert!(matches!(
            tier.submit(t, bad),
            Err(ServiceError::InvalidRequest(_))
        ));
    });
}

/// The evaluator itself still refuses the unsafe query before grounding.
#[test]
fn the_evaluator_refuses_an_unsafe_query() {
    let case = cases().swap_remove(2);
    assert_eq!(case.name, "unsafe query");
    assert!(matches!(
        evaluate(&case.db, &case.query),
        Err(EngineError::UnsafeQuery { .. })
    ));
    assert!(matches!(
        causality_lineage::minimized_n_lineage(&case.db, &case.query, None),
        Err(EngineError::NotBoolean(_))
    ));
}

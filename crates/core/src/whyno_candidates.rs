//! Generating the candidate missing tuples `Dn` for Why-No questions.
//!
//! The paper assumes the Why-No endogenous set `Dn` (the *potentially
//! missing* tuples) is given: "We do not discuss in this paper how to
//! compute Dn: this has been addressed in recent work \[Huang et al.,
//! 15\]". This module supplies that missing substrate, in the spirit of
//! \[15\]'s provenance of non-answers: enumerate the valuations of the
//! query over the active domain that *would* derive the missing answer,
//! and collect the tuples each valuation needs beyond the existing
//! database.
//!
//! Two practical guards keep the enumeration tractable and the output
//! useful:
//!
//! * `max_new_per_derivation` — a derivation requiring many brand-new
//!   tuples is a poor explanation; `1` yields only counterfactual
//!   insertions, `m` everything.
//! * trusted relations — relations the user does not consider repairable
//!   (e.g. reference data) contribute no candidates; their atoms must be
//!   satisfied by existing tuples.

use crate::error::CoreError;
use causality_engine::{
    ConjunctiveQuery, Database, EngineError, SharedIndexCache, Term, Tuple, TupleRef, Value, VarId,
};
use causality_lineage::minimized_n_lineage;
use std::collections::BTreeSet;

/// Configuration for candidate generation.
#[derive(Clone, Debug)]
pub struct CandidateConfig {
    /// Maximum number of *new* tuples one derivation may require.
    pub max_new_per_derivation: usize,
    /// Relations that must not be repaired (no candidates generated).
    pub trusted_relations: Vec<String>,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_new_per_derivation: usize::MAX,
            trusted_relations: Vec::new(),
        }
    }
}

/// Enumerate candidate missing tuples for a Boolean non-answer: for every
/// assignment of the query's variables to active-domain values, ground
/// each atom; if the grounded tuple is absent, it is a candidate. The
/// union over all derivations within budget is returned, grouped by
/// relation name.
///
/// The result is suitable for insertion as endogenous tuples (via
/// [`install_candidates`]) followed by the Why-No machinery of
/// [`crate::causes::why_no_causes`] / [`crate::resp::whyno`].
pub fn suggest_candidates(
    db: &Database,
    q: &ConjunctiveQuery,
    config: &CandidateConfig,
) -> Result<Vec<(String, Tuple)>, CoreError> {
    if !q.is_boolean() {
        return Err(CoreError::Engine(EngineError::NotBoolean(q.to_string())));
    }
    // Resolve relations up front.
    for atom in q.atoms() {
        let rel = db.require_relation(&atom.relation)?;
        let arity = db.relation(rel).schema().arity();
        if arity != atom.arity() {
            return Err(CoreError::Engine(EngineError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: arity,
                found: atom.arity(),
            }));
        }
    }
    let adom = db.active_domain();
    let vars: Vec<VarId> = q.body_vars().into_iter().collect();
    if adom.is_empty() && !vars.is_empty() {
        return Ok(Vec::new());
    }

    let mut found: BTreeSet<(String, Tuple)> = BTreeSet::new();
    let mut assignment: Vec<Option<Value>> = vec![None; q.var_count()];
    enumerate(db, q, config, &adom, &vars, 0, &mut assignment, &mut found);
    Ok(found.into_iter().collect())
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    db: &Database,
    q: &ConjunctiveQuery,
    config: &CandidateConfig,
    adom: &[Value],
    vars: &[VarId],
    depth: usize,
    assignment: &mut Vec<Option<Value>>,
    found: &mut BTreeSet<(String, Tuple)>,
) {
    if depth == vars.len() {
        // Ground every atom; collect the missing tuples of this derivation.
        let mut missing: Vec<(String, Tuple)> = Vec::new();
        for atom in q.atoms() {
            let rel = db.relation_id(&atom.relation).expect("validated");
            let tuple: Tuple = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => assignment[v.0 as usize]
                        .clone()
                        .expect("all variables assigned"),
                    Term::Const(c) => c.clone(),
                })
                .collect();
            if db.relation(rel).find(&tuple).is_none() {
                if config.trusted_relations.contains(&atom.relation) {
                    return; // derivation needs repairing a trusted relation
                }
                if !missing.contains(&(atom.relation.clone(), tuple.clone())) {
                    missing.push((atom.relation.clone(), tuple));
                }
                if missing.len() > config.max_new_per_derivation {
                    return;
                }
            }
        }
        if !missing.is_empty() {
            found.extend(missing);
        }
        return;
    }
    // Prune: if some atom is already fully grounded and is neither present
    // nor repairable within budget, deeper assignments cannot help — but
    // budget interacts across atoms, so we only prune on trusted atoms.
    let var = vars[depth];
    for value in adom {
        assignment[var.0 as usize] = Some(value.clone());
        let mut viable = true;
        for atom in q.atoms() {
            if !config.trusted_relations.contains(&atom.relation) {
                continue;
            }
            // A trusted atom whose terms are all grounded must exist.
            let grounded: Option<Tuple> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => assignment[v.0 as usize].clone(),
                    Term::Const(c) => Some(c.clone()),
                })
                .collect();
            if let Some(tuple) = grounded {
                let rel = db.relation_id(&atom.relation).expect("validated");
                if db.relation(rel).find(&tuple).is_none() {
                    viable = false;
                    break;
                }
            }
        }
        if viable {
            enumerate(db, q, config, adom, vars, depth + 1, assignment, found);
        }
    }
    assignment[var.0 as usize] = None;
}

/// Screen installed Why-No candidates against **one** shared non-answer
/// lineage: returns the subset of `installed` that are actual causes
/// (Theorem 3.2 over the minimized lineage). The lineage is interned and
/// minimized once in arena form; each candidate check is a single bitset
/// membership test — the per-tuple alternative
/// ([`crate::causes::why_no_causes`]) recomputes nothing either, but
/// materialises full cause sets where a serving layer often only wants
/// "which of *these* repairs matter".
pub fn screen_candidates(
    db: &Database,
    q: &ConjunctiveQuery,
    installed: &[TupleRef],
    cache: Option<&SharedIndexCache>,
) -> Result<Vec<TupleRef>, CoreError> {
    let (arena, phin) = minimized_n_lineage(db, q, cache)?;
    if phin.is_tautology() {
        // Already an answer on Dx: no repair matters.
        return Ok(Vec::new());
    }
    let vars = phin.variables();
    Ok(installed
        .iter()
        .copied()
        .filter(|&t| arena.id(t).is_some_and(|v| vars.contains(v as usize)))
        .collect())
}

/// Insert candidates as endogenous tuples (the Why-No `Dn`), returning
/// their refs. Existing tuples are left untouched.
pub fn install_candidates(
    db: &mut Database,
    candidates: &[(String, Tuple)],
) -> Result<Vec<TupleRef>, CoreError> {
    let mut refs = Vec::with_capacity(candidates.len());
    for (rel_name, tuple) in candidates {
        let rel = db.require_relation(rel_name)?;
        refs.push(db.insert_endo(rel, tuple.clone()));
    }
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::why_no_causes;
    use crate::resp::whyno::why_no_responsibility;
    use causality_engine::{tup, Schema};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// R(1,2) exists; S is empty. The only way to satisfy q with adom
    /// values is inserting S(2) (plus derivations via other values that
    /// need 2 new tuples).
    #[test]
    fn single_missing_tuple_candidates() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);

        let config = CandidateConfig {
            max_new_per_derivation: 1,
            ..Default::default()
        };
        let candidates = suggest_candidates(&db, &q("q :- R(x, y), S(y)"), &config).unwrap();
        assert_eq!(candidates, vec![("S".to_string(), tup![2])]);
    }

    #[test]
    fn budget_two_adds_joint_repairs() {
        let mut db = Database::new();
        db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(s, tup![7]);

        let config = CandidateConfig {
            max_new_per_derivation: 2,
            ..Default::default()
        };
        // With S(7) present, repairing R(x,7) suffices; budget 2 also
        // allows R(x,y)+S(y) pairs over the active domain {7}.
        let candidates = suggest_candidates(&db, &q("q :- R(x, y), S(y)"), &config).unwrap();
        assert!(candidates.contains(&("R".to_string(), tup![7, 7])));
    }

    #[test]
    fn trusted_relations_are_never_repaired() {
        let mut db = Database::new();
        db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(s, tup![1]);
        let config = CandidateConfig {
            max_new_per_derivation: 3,
            trusted_relations: vec!["S".to_string()],
        };
        let candidates = suggest_candidates(&db, &q("q :- R(x, y), S(y)"), &config).unwrap();
        assert!(candidates.iter().all(|(rel, _)| rel == "R"));
        // Only derivations through the existing S(1) survive.
        assert!(candidates.contains(&("R".to_string(), tup![1, 1])));
        assert_eq!(candidates.len(), 1);
    }

    /// End-to-end: generate candidates, install them, and run the Why-No
    /// machinery — the counterfactual repair surfaces with ρ = 1.
    #[test]
    fn candidates_feed_why_no_pipeline() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);

        let query = q("q :- R(x, y), S(y)");
        let config = CandidateConfig {
            max_new_per_derivation: 1,
            ..Default::default()
        };
        let candidates = suggest_candidates(&db, &query, &config).unwrap();
        let refs = install_candidates(&mut db, &candidates).unwrap();
        assert_eq!(refs.len(), 1);

        let causes = why_no_causes(&db, &query).unwrap();
        assert!(causes.counterfactual.contains(&refs[0]));
        let resp = why_no_responsibility(&db, &query, refs[0]).unwrap();
        assert_eq!(resp.rho, 1.0);

        // The bitset screen agrees: the installed candidate matters.
        let screened = screen_candidates(&db, &query, &refs, None).unwrap();
        assert_eq!(screened, refs);
    }

    /// The screen keeps exactly the installed candidates the full cause
    /// computation would report, and drops irrelevant insertions.
    #[test]
    fn screen_filters_irrelevant_candidates() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        let useful = db.insert_endo(s, tup![2]);
        let dangling = db.insert_endo(s, tup![9]); // joins nothing
        let query = q("q :- R(x, y), S(y)");
        let screened = screen_candidates(&db, &query, &[useful, dangling], None).unwrap();
        assert_eq!(screened, vec![useful]);
        let causes = why_no_causes(&db, &query).unwrap();
        assert!(causes.is_cause(useful) && !causes.is_cause(dangling));
    }

    /// A query already true on Dx screens every candidate out.
    #[test]
    fn screen_on_actual_answer_is_empty() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_exo(r, tup![1]);
        let t = db.insert_endo(r, tup![2]);
        let screened = screen_candidates(&db, &q("q :- R(x)"), &[t], None).unwrap();
        assert!(screened.is_empty());
    }

    #[test]
    fn constants_restrict_candidates() {
        let mut db = Database::new();
        db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(s, tup!["a"]);
        let config = CandidateConfig {
            max_new_per_derivation: 1,
            ..Default::default()
        };
        let candidates = suggest_candidates(&db, &q("q :- R('k', y), S(y)"), &config).unwrap();
        assert_eq!(candidates, vec![("R".to_string(), tup!["k", "a"])]);
    }

    #[test]
    fn empty_domain_yields_nothing() {
        let mut db = Database::new();
        db.add_relation(Schema::new("R", &["x"]));
        let candidates =
            suggest_candidates(&db, &q("q :- R(x)"), &CandidateConfig::default()).unwrap();
        assert!(candidates.is_empty());
    }

    #[test]
    fn non_boolean_rejected() {
        let mut db = Database::new();
        db.add_relation(Schema::new("R", &["x"]));
        let err =
            suggest_candidates(&db, &q("q(x) :- R(x)"), &CandidateConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::Engine(EngineError::NotBoolean(_))));
    }

    #[test]
    fn already_true_query_yields_existing_only_derivations() {
        // If the query is already satisfied, derivations needing zero new
        // tuples contribute no candidates; others may still appear.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_exo(r, tup![5]);
        let config = CandidateConfig {
            max_new_per_derivation: 1,
            ..Default::default()
        };
        let candidates = suggest_candidates(&db, &q("q :- R(x)"), &config).unwrap();
        assert!(
            candidates.is_empty(),
            "single atom over adom {{5}} already present"
        );
    }
}

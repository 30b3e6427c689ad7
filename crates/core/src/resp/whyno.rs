//! Why-No responsibility (Theorem 4.17).
//!
//! "For any query q with m subgoals and non-answer ā, any contingency set
//! for a tuple t will have at most m−1 tuples" — so the minimum is found
//! among the (constant-size) conjuncts of the non-answer lineage. In a
//! *minimized* lineage, every conjunct `c ∋ t` immediately yields the
//! valid contingency `Γ = c − {t}`: inserting `Γ` cannot complete another
//! conjunct (that conjunct would have made `c` redundant), and inserting
//! `t` afterwards completes `c`. Hence
//!
//! ```text
//! ρ_t = 1 / (1 + min_{c ∋ t} |c − {t}|) = 1 / min_{c ∋ t} |c|
//! ```

use crate::error::CoreError;
use crate::resp::Responsibility;
use causality_engine::{ConjunctiveQuery, Database, TupleRef};
use causality_lineage::{minimized_n_lineage, BitDnf, LineageArena};

/// Why-No responsibility of the candidate insertion `t` for a Boolean
/// non-answer. PTIME in the size of the database (Theorem 4.17).
pub fn why_no_responsibility(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
) -> Result<Responsibility, CoreError> {
    if !db.is_endogenous(t) {
        return Err(CoreError::NotEndogenous);
    }
    let (arena, phin) = minimized_n_lineage(db, q, None)?;
    Ok(why_no_responsibility_from_bits(&arena, &phin, t))
}

/// Theorem 4.17 read off the arena-form *minimized* non-answer lineage:
/// `ρ_t = 1 / min_{c ∋ t} |c|`, one popcount per conjunct. Shared by the
/// single-tuple entry point above and the Why-No ranking (which scans
/// all candidates over one lineage instead of recomputing it per tuple).
pub(crate) fn why_no_responsibility_from_bits(
    arena: &LineageArena,
    phin: &BitDnf,
    t: TupleRef,
) -> Responsibility {
    if phin.is_tautology() {
        // Already an answer on Dx: no Why-No causes.
        return Responsibility::not_a_cause();
    }
    let Some(v) = arena.id(t) else {
        return Responsibility::not_a_cause();
    };
    let best = phin
        .conjuncts()
        .iter()
        .filter(|c| c.contains(v as usize))
        .min_by_key(|c| c.len());
    match best {
        Some(c) => {
            let gamma: Vec<TupleRef> = c
                .iter()
                .filter(|&u| u != v as usize)
                .map(|u| arena.resolve(u as u32))
                .collect();
            Responsibility::from_contingency(gamma)
        }
        None => Responsibility::not_a_cause(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::smallest_whyno_contingency;
    use causality_engine::{tup, Schema};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn counterfactual_insertion() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        let s2 = db.insert_endo(s, tup![2]);
        let resp = why_no_responsibility(&db, &q("q :- R(x, y), S(y)"), s2).unwrap();
        assert_eq!(resp.rho, 1.0);
        assert!(resp.is_counterfactual());
    }

    #[test]
    fn joint_insertion_halves_responsibility() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        let r12 = db.insert_endo(r, tup![1, 2]);
        let s2 = db.insert_endo(s, tup![2]);
        let query = q("q :- R(x, y), S(y)");
        for t in [r12, s2] {
            let resp = why_no_responsibility(&db, &query, t).unwrap();
            assert!((resp.rho - 0.5).abs() < 1e-12);
            assert_eq!(resp.min_contingency.as_ref().unwrap().len(), 1);
        }
    }

    #[test]
    fn takes_cheapest_conjunct() {
        // t completes the answer either together with two other missing
        // tuples, or with one: ρ = 1/2, not 1/3.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let tt = db.add_relation(Schema::new("T", &["z"]));
        // Derivation A: R(1,2), S(2,3), T(3) — all three missing.
        db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        let t3 = db.insert_endo(tt, tup![3]);
        // Derivation B: R(5,6) exists (exo), S(6,3) missing, T(3) missing.
        db.insert_exo(r, tup![5, 6]);
        db.insert_endo(s, tup![6, 3]);
        let query = q("q :- R(x, y), S(y, z), T(z)");
        let resp = why_no_responsibility(&db, &query, t3).unwrap();
        assert!(
            (resp.rho - 0.5).abs() < 1e-12,
            "cheapest conjunct has 2 tuples"
        );
    }

    #[test]
    fn agrees_with_brute_force_dual() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        db.insert_endo(s, tup![2]);
        db.insert_endo(r, tup![5, 3]);
        db.insert_endo(s, tup![3]);
        let query = q("q :- R(x, y), S(y)");
        for t in db.endogenous_tuples() {
            let fast = why_no_responsibility(&db, &query, t).unwrap();
            let brute = smallest_whyno_contingency(&db, &query, t).unwrap();
            match brute {
                Some(gamma) => {
                    assert!(fast.is_cause());
                    assert_eq!(fast.min_contingency.unwrap().len(), gamma.len());
                }
                None => assert!(!fast.is_cause()),
            }
        }
    }

    #[test]
    fn non_cause_insertion() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        db.insert_endo(s, tup![2]);
        let dangling = db.insert_endo(s, tup![9]);
        let resp = why_no_responsibility(&db, &q("q :- R(x, y), S(y)"), dangling).unwrap();
        assert_eq!(resp.rho, 0.0);
    }

    #[test]
    fn already_answer_has_no_causes() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_exo(r, tup![1]);
        let t = db.insert_endo(r, tup![2]);
        let resp = why_no_responsibility(&db, &q("q :- R(x)"), t).unwrap();
        assert_eq!(resp.rho, 0.0);
    }

    #[test]
    fn contingency_bounded_by_query_size() {
        // Theorem 4.17's bound: |Γ| ≤ m − 1 (= 2 here) regardless of how
        // many candidate tuples exist.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let tt = db.add_relation(Schema::new("T", &["z"]));
        let mut first = None;
        for i in 0..20i64 {
            let rt = db.insert_endo(r, tup![i, 100 + i]);
            db.insert_endo(s, tup![100 + i, 200 + i]);
            db.insert_endo(tt, tup![200 + i]);
            first.get_or_insert(rt);
        }
        let query = q("q :- R(x, y), S(y, z), T(z)");
        let resp = why_no_responsibility(&db, &query, first.unwrap()).unwrap();
        assert_eq!(resp.min_contingency.unwrap().len(), 2);
    }
}

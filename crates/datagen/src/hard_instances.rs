//! NP-hard responsibility instances with *known* exact answers.
//!
//! The dichotomy (Cor. 4.14) says Why-So responsibility is NP-hard for
//! non-linear queries like the triangle `h2 :- R(x,y), S(y,z), T(z,x)`
//! and open for most self-joins. Testing an anytime solver against
//! those queries needs instances where the exact responsibility is
//! known *by construction*, not by running another solver:
//!
//! * [`triangle_fan`] — `k` triangles sharing one `R` tuple. The shared
//!   `R` tuple is counterfactual (`ρ = 1`); the probe `S` tuple of the
//!   first triangle needs a contingency hitting the other `k − 1`
//!   triangles, so `ρ = 1/k` exactly.
//! * [`selfjoin_star`] — the same fan shape expressed through a single
//!   self-joined edge relation `q :- E(x, y), E(y, z)`: a hub edge
//!   (`ρ = 1`) feeding `k` leaf edges (probe `ρ = 1/k`).
//! * [`dense_triangles`] — a small-domain, high-density random triangle
//!   database (no closed-form ρ) whose heavily overlapping witnesses
//!   make exact min-contingency search genuinely expensive: the
//!   traffic of perfbench's `hard_triangles` tenants.
//!
//! All generators are deterministic: the fan/star families use no
//! randomness at all, and the dense family is seeded.

use crate::workloads::{self, TriangleInstance};
use causality_engine::{ConjunctiveQuery, Database, Schema, TupleRef, Value};

/// A generated hard instance whose probe responsibility is known exactly.
#[derive(Clone, Debug)]
pub struct HardInstance {
    /// The database (all tuples endogenous).
    pub db: Database,
    /// The Boolean non-linear query.
    pub query: ConjunctiveQuery,
    /// A tuple whose exact Why-So responsibility is [`HardInstance::rho`].
    pub probe: TupleRef,
    /// The exact responsibility of [`HardInstance::probe`].
    pub rho: f64,
    /// A tuple shared by every witness — counterfactual, `ρ = 1`.
    pub counterfactual: TupleRef,
}

/// `k` triangles fanned out of one shared `R` tuple.
///
/// The database is `R(x0, y0)` plus `S(y0, zi), T(zi, x0)` for
/// `i in 0..k`, so the query has exactly `k` witnesses, all through the
/// shared `R` tuple. Removing `R(x0, y0)` alone falsifies the query
/// (`ρ = 1`); the probe `S(y0, z0)` needs one tuple from each of the
/// other `k − 1` triangles in its contingency, so `|Γ_min| = k − 1` and
/// `ρ = 1/k` exactly.
pub fn triangle_fan(k: usize) -> HardInstance {
    assert!(k >= 1, "a fan needs at least one triangle");
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z", "x"]));
    let zv = |i: usize| Value::str(format!("z{i}"));

    let counterfactual = db.insert_endo(r, vec![Value::str("x0"), Value::str("y0")]);
    let mut probe = None;
    for i in 0..k {
        let st = db.insert_endo(s, vec![Value::str("y0"), zv(i)]);
        db.insert_endo(t, vec![zv(i), Value::str("x0")]);
        if i == 0 {
            probe = Some(st);
        }
    }
    HardInstance {
        db,
        query: ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").expect("static"),
        probe: probe.expect("k >= 1"),
        rho: 1.0 / k as f64,
        counterfactual,
    }
}

/// The fan shape expressed through one self-joined relation:
/// `q :- E(x, y), E(y, z)` over a hub edge `E(h, c)` and `k` leaf edges
/// `E(c, li)`.
///
/// Every witness is `{E(h, c), E(c, li)}`, so the hub edge is
/// counterfactual (`ρ = 1`) and the probe leaf `E(c, l0)` needs the
/// other `k − 1` leaves in its contingency (`ρ = 1/k`). The query
/// self-joins, so the dichotomy classifier routes it through the hard
/// (or open) self-join tier — the anytime kernel itself is
/// query-agnostic and sees only the lineage.
pub fn selfjoin_star(k: usize) -> HardInstance {
    assert!(k >= 1, "a star needs at least one leaf");
    let mut db = Database::new();
    let e = db.add_relation(Schema::new("E", &["from", "to"]));
    let counterfactual = db.insert_endo(e, vec![Value::str("h"), Value::str("c")]);
    let mut probe = None;
    for i in 0..k {
        let leaf = db.insert_endo(e, vec![Value::str("c"), Value::str(format!("l{i}"))]);
        if i == 0 {
            probe = Some(leaf);
        }
    }
    HardInstance {
        db,
        query: ConjunctiveQuery::parse("q :- E(x, y), E(y, z)").expect("static"),
        probe: probe.expect("k >= 1"),
        rho: 1.0 / k as f64,
        counterfactual,
    }
}

/// A dense random triangle database for perfbench's `hard_triangles`
/// tenants.
///
/// Small domain + many draws ⇒ most of the `nodes³` possible triangles
/// exist and share tuples, so the exact min-contingency search branches
/// over heavily overlapping witness sets instead of collapsing via the
/// packing bound (which is what makes [`triangle_fan`] easy for exact
/// solvers). No closed-form ρ — this family exists to burn deadline
/// budget, not to check answers.
pub fn dense_triangles(nodes: usize, tuples_per_relation: usize, seed: u64) -> TriangleInstance {
    workloads::triangles(nodes, tuples_per_relation, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_engine::{evaluate, holds_masked, EndoMask};
    use std::collections::HashSet;

    fn counterfactual_flips(inst: &HardInstance) {
        let result = evaluate(&inst.db, &inst.query).unwrap();
        assert!(result.holds(), "the query must hold before removal");
        let gone: HashSet<TupleRef> = [inst.counterfactual].into_iter().collect();
        assert!(
            !holds_masked(&inst.db, &inst.query, EndoMask::Except(&gone)).unwrap(),
            "removing the shared tuple alone must falsify the query"
        );
    }

    #[test]
    fn fan_counterfactual_is_counterfactual() {
        for k in 1..=6 {
            counterfactual_flips(&triangle_fan(k));
        }
    }

    #[test]
    fn star_counterfactual_is_counterfactual() {
        for k in 1..=6 {
            counterfactual_flips(&selfjoin_star(k));
        }
    }

    #[test]
    fn fan_probe_needs_the_other_triangles() {
        let k = 5;
        let inst = triangle_fan(k);
        let result = evaluate(&inst.db, &inst.query).unwrap();
        assert_eq!(result.valuations.len(), k, "one witness per triangle");
        // The S tuple of every triangle the probe is not part of: a
        // feasible contingency of size k − 1 (removing it plus the probe
        // falsifies the query).
        let others: Vec<TupleRef> = result
            .valuations
            .iter()
            .filter(|v| !v.atom_tuples.contains(&inst.probe))
            .map(|v| v.atom_tuples[1])
            .collect();
        assert_eq!(others.len(), k - 1);
        let mut gone: HashSet<TupleRef> = others.iter().copied().collect();
        gone.insert(inst.probe);
        assert!(!holds_masked(&inst.db, &inst.query, EndoMask::Except(&gone)).unwrap());
        // Removing the probe plus only k − 2 of them leaves one triangle
        // alive, so no smaller contingency exists on this S-only support.
        let mut partial: HashSet<TupleRef> = others.iter().copied().take(k - 2).collect();
        partial.insert(inst.probe);
        assert!(holds_masked(&inst.db, &inst.query, EndoMask::Except(&partial)).unwrap());
    }

    #[test]
    fn dense_family_has_many_overlapping_witnesses() {
        let inst = dense_triangles(5, 80, 11);
        let result = evaluate(&inst.db, &inst.query).unwrap();
        assert!(result.holds());
        assert!(
            result.valuations.len() >= 20,
            "density too low to be a hard instance: {} witnesses",
            result.valuations.len()
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = triangle_fan(4);
        let b = triangle_fan(4);
        assert_eq!(a.probe, b.probe);
        assert_eq!(a.counterfactual, b.counterfactual);
        assert_eq!(a.db.tuple_count(), b.db.tuple_count());

        let c = dense_triangles(5, 40, 9);
        let d = dense_triangles(5, 40, 9);
        assert_eq!(c.db.tuple_count(), d.db.tuple_count());
        assert_eq!(c.probe, d.probe);

        let e = selfjoin_star(3);
        let f = selfjoin_star(3);
        assert_eq!(e.db.tuple_count(), f.db.tuple_count());
        assert_eq!(e.probe, f.probe);
    }
}

//! Vertex cover in 3-partite 3-uniform hypergraphs → h1* (Fig. 6).
//!
//! For `h1* :- A(x), B(y), C(z), W(x,y,z)`: partition vertices map to the
//! unary relations `A`, `B`, `C`, hyperedges to `W`, and a fresh witness
//! row is added to each relation. The responsibility of the witness
//! `A(x₀)` is `1/(1+|cover|)` for a minimum vertex cover — because a
//! minimum contingency may w.l.o.g. avoid `W` (any `W`-tuple in it can be
//! swapped for one of its three vertices).

use causality_engine::{ConjunctiveQuery, Database, Schema, TupleRef, Value};

/// A 3-partite 3-uniform hypergraph: partition sizes and edges given as
/// `(a, b, c)` indices into the three partitions.
#[derive(Clone, Debug)]
pub struct TripartiteHypergraph {
    /// Sizes of the three partitions.
    pub sizes: (usize, usize, usize),
    /// Edges: one vertex per partition.
    pub edges: Vec<(usize, usize, usize)>,
}

/// The generated h1* instance.
#[derive(Clone, Debug)]
pub struct H1Instance {
    /// Database with relations `A`, `B`, `C` (endogenous) and `W`.
    pub db: Database,
    /// `h1 :- A(x), B(y), C(z), W(x, y, z)`.
    pub query: ConjunctiveQuery,
    /// The witness tuple `A(x₀)`.
    pub witness: TupleRef,
}

/// Build the Fig. 6 database from a tripartite hypergraph. `W` is made
/// endogenous, matching Theorem 4.1's statement that h1* is hard for
/// either nature of `W`.
pub fn reduce_vc_to_h1(h: &TripartiteHypergraph) -> H1Instance {
    let mut db = Database::new();
    let a = db.add_relation(Schema::new("A", &["x"]));
    let b = db.add_relation(Schema::new("B", &["y"]));
    let c = db.add_relation(Schema::new("C", &["z"]));
    let w = db.add_relation(Schema::new("W", &["x", "y", "z"]));
    for i in 0..h.sizes.0 {
        db.insert_endo(a, vec![Value::str(format!("x{i}"))]);
    }
    for j in 0..h.sizes.1 {
        db.insert_endo(b, vec![Value::str(format!("y{j}"))]);
    }
    for k in 0..h.sizes.2 {
        db.insert_endo(c, vec![Value::str(format!("z{k}"))]);
    }
    for &(i, j, k) in &h.edges {
        assert!(
            i < h.sizes.0 && j < h.sizes.1 && k < h.sizes.2,
            "edge out of range"
        );
        db.insert_endo(
            w,
            vec![
                Value::str(format!("x{i}")),
                Value::str(format!("y{j}")),
                Value::str(format!("z{k}")),
            ],
        );
    }
    // Witness row in every relation (x0/y0/z0 are fresh values).
    let witness = db.insert_endo(a, vec![Value::str("w_x0")]);
    db.insert_endo(b, vec![Value::str("w_y0")]);
    db.insert_endo(c, vec![Value::str("w_z0")]);
    db.insert_endo(
        w,
        vec![Value::str("w_x0"), Value::str("w_y0"), Value::str("w_z0")],
    );
    H1Instance {
        db,
        query: ConjunctiveQuery::parse("h1 :- A(x), B(y), C(z), W(x, y, z)").expect("static query"),
        witness,
    }
}

/// The hypergraph's vertices renumbered into a single 0-based space for
/// the exact cover oracle: partition offsets `(0, sizes.0, sizes.0 +
/// sizes.1)`.
pub fn flat_triples(h: &TripartiteHypergraph) -> (usize, Vec<(usize, usize, usize)>) {
    let n = h.sizes.0 + h.sizes.1 + h.sizes.2;
    let triples = h
        .edges
        .iter()
        .map(|&(i, j, k)| (i, h.sizes.0 + j, h.sizes.0 + h.sizes.1 + k))
        .collect();
    (n, triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_core::resp::approx::{anytime_min_contingency, ApproxBudget, RhoBounds};
    use causality_core::resp::exact::why_so_responsibility_exact;
    use causality_graph::cover::min_hypergraph_cover_3p;
    use causality_lineage::minimized_n_lineage;

    /// The Fig. 6 example hypergraph: R={r1,r2,r3}, S={s1,s2,s3},
    /// T={t1,t2}, edges per the W relation of Fig. 6(b).
    fn fig6() -> TripartiteHypergraph {
        TripartiteHypergraph {
            sizes: (3, 3, 2),
            edges: vec![(0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, 1)],
        }
    }

    #[test]
    fn instance_shape() {
        let h = fig6();
        let inst = reduce_vc_to_h1(&h);
        // 3+1 A rows, 3+1 B, 2+1 C, 4+1 W.
        assert_eq!(inst.db.tuple_count(), 4 + 4 + 3 + 5);
        assert_eq!(inst.db.endogenous_count(), inst.db.tuple_count());
    }

    /// The core correctness property: min contingency of the witness
    /// equals the minimum vertex cover size.
    #[test]
    fn witness_responsibility_encodes_min_cover() {
        let h = fig6();
        let inst = reduce_vc_to_h1(&h);
        let (n, triples) = flat_triples(&h);
        let cover = min_hypergraph_cover_3p(n, &triples);
        let resp = why_so_responsibility_exact(&inst.db, &inst.query, inst.witness).unwrap();
        let gamma = resp.min_contingency.expect("witness is a cause");
        assert_eq!(gamma.len(), cover.len(), "min contingency = min cover");
        assert!((resp.rho - 1.0 / (1.0 + cover.len() as f64)).abs() < 1e-12);
    }

    #[test]
    fn empty_hypergraph_makes_witness_counterfactual_after_zero_removals() {
        let h = TripartiteHypergraph {
            sizes: (2, 2, 2),
            edges: vec![],
        };
        let inst = reduce_vc_to_h1(&h);
        let resp = why_so_responsibility_exact(&inst.db, &inst.query, inst.witness).unwrap();
        assert_eq!(
            resp.rho, 1.0,
            "no other triangles: witness is counterfactual"
        );
    }

    /// Theorem 4.1 end to end, exactly and anytime: on random
    /// hypergraphs the witness's minimum contingency is a minimum cover,
    /// its zero-budget anytime bracket contains `1/(1 + |cover|)`, and an
    /// unlimited budget collapses the bracket onto that value. Up to 8
    /// edges over 3 + 3 + 3 vertices overlap, so vertices of degree > 1
    /// exercise the degree bound.
    #[test]
    fn random_instances_match_cover_oracle() {
        let mut seed = 0xABCDu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let sizes = (3, 3, 3);
            let m = 1 + (next() % 8) as usize;
            let edges: Vec<(usize, usize, usize)> = (0..m)
                .map(|_| {
                    (
                        (next() as usize) % sizes.0,
                        (next() as usize) % sizes.1,
                        (next() as usize) % sizes.2,
                    )
                })
                .collect();
            let h = TripartiteHypergraph { sizes, edges };
            let inst = reduce_vc_to_h1(&h);
            let (n, triples) = flat_triples(&h);
            let cover = min_hypergraph_cover_3p(n, &triples);
            let resp = why_so_responsibility_exact(&inst.db, &inst.query, inst.witness).unwrap();
            assert_eq!(
                resp.min_contingency.unwrap().len(),
                cover.len(),
                "edges {:?}",
                h.edges
            );
            let rho = 1.0 / (1.0 + cover.len() as f64);
            let (arena, phin) = minimized_n_lineage(&inst.db, &inst.query, None).unwrap();
            let v = arena
                .id(inst.witness)
                .expect("the witness is in the lineage");
            let zero = anytime_min_contingency(&phin, v, ApproxBudget::zero());
            assert!(
                zero.bounds.contains(rho),
                "edges {:?}: {rho} outside {:?}",
                h.edges,
                zero.bounds
            );
            let full = anytime_min_contingency(&phin, v, ApproxBudget::unlimited());
            assert_eq!(full.bounds, RhoBounds::exact(rho), "edges {:?}", h.edges);
        }
    }
}

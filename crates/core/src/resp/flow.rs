//! Algorithm 1: responsibility of (weakly) linear queries via max-flow.
//!
//! Example 4.2's construction, generalised per the paper's Algorithm 1:
//! after weakening the query to a linear form, lay the atoms out along a
//! witness linear order `g_{σ(0)}, …, g_{σ(m-1)}`. Between consecutive
//! atoms sits a *junction* layer with one node per value combination of
//! the shared (weakened) variables; every database tuple becomes an edge
//! between its two junction nodes — capacity 1 if endogenous, ∞ if
//! exogenous, 0 for the tuple `t` under scrutiny.
//!
//! Linearity makes junction merging sound: a variable alive across a
//! boundary must occur in both adjacent atoms (its span is consecutive),
//! so every source–sink path corresponds to a real valuation and
//! vice-versa. Hence a min-cut is exactly a minimum set of tuples whose
//! removal falsifies the query.
//!
//! Responsibility then follows the paper's per-path scheme: for every
//! valuation path `p` through `t`, set `p − {t}` to ∞ (the witness that
//! keeps `q` true once `t` is restored), compute the min-cut `Γ_p`, and
//! take `ρ_t = 1 / (1 + min_p |Γ_p|)`.
//!
//! The network depends only on the query and the database: nodes and
//! edges are created in valuation order, never in an order that depends
//! on `t`, and `t` changes only capacities (its own edge to 0, the rest
//! of each witness path to ∞). So a `FlowShape` marks the query and
//! certifies weak linearity once, a `FlowPlan` builds the network once
//! from the valuations' atom tuples, and the plan then solves any number
//! of tuples on per-call copies of the capacities. The ranker shares one
//! plan across all of a ranking's causes, and builds it from the same
//! evaluation as the lineage (its lineage step keeps every valuation's
//! atom tuples); a junction's key is read from the tuples, each boundary
//! variable at a body position that holds it. The single-tuple functions
//! below are a plan of one, fed by their own evaluation. The seed
//! per-tuple implementation survives in [`oracle`] as the differential
//! baseline.

pub mod oracle;

use crate::dichotomy::aquery::AQuery;
use crate::dichotomy::weaken::weakly_linear_certificate;
use crate::error::CoreError;
use crate::resp::Responsibility;
use causality_engine::{
    for_each_valuation, ConjunctiveQuery, Database, EndoMask, Nature, SharedIndexCache, TupleRef,
    Value, VarId,
};
use causality_graph::maxflow::{EdgeHandle, FlowAlgorithm, FlowNetwork, INF};
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;

/// Diagnostic statistics of one Algorithm 1 run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Junction + terminal nodes in the network.
    pub nodes: usize,
    /// Edges (tuples + merged exogenous edges).
    pub edges: usize,
    /// Distinct witness paths through `t` that were evaluated.
    pub paths: usize,
    /// Max-flow invocations.
    pub flow_runs: usize,
}

/// Why-So responsibility via Algorithm 1. Requires a Boolean,
/// self-join-free, weakly linear query over relations that are fully
/// endogenous or fully exogenous.
pub fn why_so_responsibility_flow(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
) -> Result<Responsibility, CoreError> {
    why_so_responsibility_flow_with(db, q, t, FlowAlgorithm::Dinic).map(|(r, _)| r)
}

/// [`why_so_responsibility_flow`] with an optional [`SharedIndexCache`].
pub fn why_so_responsibility_flow_cached(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
    cache: Option<&SharedIndexCache>,
) -> Result<Responsibility, CoreError> {
    solve_one(db, q, t, FlowAlgorithm::Dinic, cache).map(|(r, _)| r)
}

/// As [`why_so_responsibility_flow`], with algorithm choice and stats
/// (used by the ablation benches).
pub fn why_so_responsibility_flow_with(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
    algo: FlowAlgorithm,
) -> Result<(Responsibility, FlowStats), CoreError> {
    solve_one(db, q, t, algo, None)
}

/// A plan of one: the query-level checks, then one evaluation through
/// the sink, then the network. A self-join is reported before
/// `NotEndogenous` ([`FlowShape::of`] checks it first), which is before
/// every other query-level error; evaluation errors come last.
fn solve_one(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
    algo: FlowAlgorithm,
    cache: Option<&SharedIndexCache>,
) -> Result<(Responsibility, FlowStats), CoreError> {
    if !q.has_self_join() && !db.is_endogenous(t) {
        return Err(CoreError::NotEndogenous);
    }
    let shape = FlowShape::of(db, q)?;
    let mut valuations = ValuationTuples::new(q.atoms().len());
    for_each_valuation(db, q, EndoMask::All, cache, |atom_tuples, _| {
        valuations.push(atom_tuples);
        ControlFlow::Continue(())
    })?;
    Ok(shape.plan(db, algo, &valuations).solve(t))
}

/// Every valuation's atom tuples, flat and in valuation order, exogenous
/// tuples included: the evaluator's emission as Algorithm 1's network
/// reads it. The ranking fills it from the same search that builds the
/// lineage, so a ranking evaluates its query once.
#[derive(Debug, Default)]
pub(crate) struct ValuationTuples {
    /// Atoms per valuation.
    atoms: usize,
    /// Valuations pushed (a body of no atoms still has one).
    count: usize,
    tuples: Vec<TupleRef>,
}

impl ValuationTuples {
    /// An empty list for a body of `atoms` atoms.
    pub(crate) fn new(atoms: usize) -> Self {
        ValuationTuples {
            atoms,
            ..ValuationTuples::default()
        }
    }

    /// Append one valuation's atom tuples, in body-atom order.
    pub(crate) fn push(&mut self, atom_tuples: &[TupleRef]) {
        debug_assert_eq!(atom_tuples.len(), self.atoms);
        self.tuples.extend_from_slice(atom_tuples);
        self.count += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &[TupleRef]> {
        (0..self.count).map(|i| &self.tuples[i * self.atoms..(i + 1) * self.atoms])
    }
}

/// Everything of Algorithm 1 that depends only on the query (and the
/// database's endo/exo partition): the self-join check, marking, the
/// weak-linearity certificate's linear order, and where each junction
/// key's values are read. Errors are query-level: they hold for every
/// tuple.
pub(crate) struct FlowShape {
    /// The witness linear order, as body-atom indices.
    order: Vec<usize>,
    /// Per junction between consecutive atoms of the order: each shared
    /// (weakened) variable's source, the first body atom holding it and
    /// its position there. A valuation binds the variable to that
    /// atom's tuple's value at that position.
    boundaries: Vec<Vec<(usize, usize)>>,
}

impl FlowShape {
    pub(crate) fn of(db: &Database, q: &ConjunctiveQuery) -> Result<FlowShape, CoreError> {
        if q.has_self_join() {
            return Err(CoreError::SelfJoin {
                query: q.to_string(),
            });
        }
        let marked = mark_query(db, q)?;
        let aq = AQuery::from_query(&marked)?;
        let cert = weakly_linear_certificate(&aq)?.ok_or_else(|| CoreError::NotWeaklyLinear {
            query: q.to_string(),
        })?;
        let order = cert.linear_order;
        let weakened = cert.weakened;
        let source = |v: VarId| {
            q.atoms()
                .iter()
                .enumerate()
                .find_map(|(a, atom)| {
                    let pos = atom.terms.iter().position(|t| t.as_var() == Some(v))?;
                    Some((a, pos))
                })
                .expect("a weakened variable occurs in the body")
        };
        let boundaries = (0..order.len().saturating_sub(1))
            .map(|k| {
                let shared = weakened.atoms[order[k]].vars & weakened.atoms[order[k + 1]].vars;
                (0..64u32)
                    .filter(|v| shared & (1u64 << v) != 0)
                    .map(|v| source(VarId(v)))
                    .collect()
            })
            .collect();
        Ok(FlowShape { order, boundaries })
    }

    /// The junction network over `valuations`, one path per valuation in
    /// order, with nodes and edges created in valuation order.
    pub(crate) fn plan(
        &self,
        db: &Database,
        algo: FlowAlgorithm,
        valuations: &ValuationTuples,
    ) -> FlowPlan {
        let order = &self.order;
        let m = order.len();
        let mut net = FlowNetwork::new(2); // 0 = source, 1 = sink
        let mut nodes: HashMap<(usize, Vec<&Value>), usize> = HashMap::new();
        let mut exo_edges: HashMap<(usize, usize, usize), EdgeHandle> = HashMap::new();
        let mut edge_tuple: Vec<Option<TupleRef>> = Vec::new();
        let mut by_tuple: HashMap<TupleRef, (EdgeHandle, Vec<usize>)> = HashMap::new();
        let mut paths: Vec<Vec<EdgeHandle>> = Vec::with_capacity(valuations.count);

        for val in valuations.iter() {
            let mut path = Vec::with_capacity(m);
            let mut left = 0usize;
            for k in 0..m {
                let tuple = val[order[k]];
                let right = if k + 1 == m {
                    1
                } else {
                    let key: Vec<&Value> = self.boundaries[k]
                        .iter()
                        .map(|&(atom, pos)| &db.tuple(val[atom])[pos])
                        .collect();
                    *nodes.entry((k, key)).or_insert_with(|| net.add_node())
                };
                let handle = if db.is_endogenous(tuple) {
                    let (handle, through) = by_tuple.entry(tuple).or_insert_with(|| {
                        edge_tuple.push(Some(tuple));
                        (net.add_edge(left, right, 1), Vec::new())
                    });
                    through.push(paths.len());
                    *handle
                } else {
                    *exo_edges.entry((k, left, right)).or_insert_with(|| {
                        edge_tuple.push(None);
                        net.add_edge(left, right, INF)
                    })
                };
                path.push(handle);
                left = right;
            }
            path.sort();
            path.dedup();
            paths.push(path);
        }
        FlowPlan {
            algo,
            net,
            edge_tuple,
            by_tuple,
            paths,
        }
    }
}

/// Algorithm 1's junction network for one query over one database,
/// built once ([`FlowShape::plan`]) and solved for any number of tuples.
///
/// The network holds every endogenous edge at capacity 1 and every
/// exogenous edge at ∞; [`FlowPlan::solve`] applies one tuple's
/// capacities to its own copy, so concurrent solves can share one
/// `&FlowPlan`.
pub(crate) struct FlowPlan {
    algo: FlowAlgorithm,
    net: FlowNetwork,
    /// The endogenous tuple of each edge, by handle (`None` for a merged
    /// exogenous edge); translates a min-cut back into tuples.
    edge_tuple: Vec<Option<TupleRef>>,
    /// Each endogenous tuple's edge and the indices of the valuation
    /// paths through it.
    by_tuple: HashMap<TupleRef, (EdgeHandle, Vec<usize>)>,
    /// Every valuation's path as sorted edge handles, in valuation
    /// order. Empty exactly when the query is false.
    paths: Vec<Vec<EdgeHandle>>,
}

impl FlowPlan {
    /// Algorithm 1 for one tuple on the shared network: `t`'s edge goes
    /// to 0; for each witness path through `t`, in ascending order, the
    /// rest of the path goes to ∞, max-flow runs, and the capacities are
    /// restored. The first minimum cut wins.
    pub(crate) fn solve(&self, t: TupleRef) -> (Responsibility, FlowStats) {
        if self.paths.is_empty() {
            // The query is false: nothing is a cause.
            return (Responsibility::not_a_cause(), FlowStats::default());
        }
        let mut stats = FlowStats {
            nodes: self.net.node_count(),
            edges: self.net.edge_count(),
            paths: 0,
            flow_runs: 0,
        };
        let Some((t_edge, through)) = self.by_tuple.get(&t) else {
            // t grounds no valuation: not a cause.
            return (Responsibility::not_a_cause(), stats);
        };
        let t_edge = *t_edge;
        // Paths through t, deduplicated by edge set. A path has at most m
        // edges, so a sorted m-element slice is both the compact dedup key
        // and the deterministic (element-sequence ordered) iteration
        // source for the per-witness min-cut loop below.
        let witness_paths: BTreeSet<&[EdgeHandle]> =
            through.iter().map(|&i| self.paths[i].as_slice()).collect();
        stats.paths = witness_paths.len();
        let mut net = self.net.clone();
        net.set_capacity(t_edge, 0);

        let mut best: Option<(u64, Vec<TupleRef>)> = None;
        for path in &witness_paths {
            // Protect the witness path: everything on it except t becomes ∞.
            let saved: Vec<(EdgeHandle, u64)> = path
                .iter()
                .filter(|&&h| h != t_edge)
                .map(|&h| (h, net.capacity(h)))
                .collect();
            for &(h, _) in &saved {
                net.set_capacity(h, INF);
            }
            let flow = net.max_flow(0, 1, self.algo);
            stats.flow_runs += 1;
            for &(h, cap) in &saved {
                net.set_capacity(h, cap);
            }
            if best.as_ref().is_none_or(|(b, _)| flow.value < *b) {
                let gamma: Vec<TupleRef> = flow
                    .min_cut
                    .iter()
                    .filter_map(|h| self.edge_tuple[h.0])
                    .collect();
                debug_assert_eq!(
                    gamma.len() as u64,
                    flow.value,
                    "cut is unit-capacity tuples"
                );
                best = Some((flow.value, gamma));
            }
        }
        let (_, gamma) = best.expect("witness path exists for t");
        (Responsibility::from_contingency(gamma), stats)
    }
}

/// Mark every atom with the nature of its relation as partitioned in the
/// database; errors on mixed relations (Algorithm 1's "w.l.o.g." setup).
/// Atoms already marked are kept as-is.
fn mark_query(db: &Database, q: &ConjunctiveQuery) -> Result<ConjunctiveQuery, CoreError> {
    let mut marked = q.clone();
    for i in 0..marked.atoms().len() {
        if marked.atoms()[i].nature != Nature::Any {
            continue;
        }
        let rel = db.require_relation(&marked.atoms()[i].relation)?;
        let relation = db.relation(rel);
        let endo_count = relation.endogenous_count();
        let nature = if endo_count == relation.len() {
            Nature::Endo
        } else if endo_count == 0 {
            Nature::Exo
        } else {
            return Err(CoreError::UnmarkedAtom {
                relation: marked.atoms()[i].relation.clone(),
            });
        };
        marked.atom_mut(i).nature = nature;
    }
    Ok(marked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::exact::why_so_responsibility_exact;
    use causality_engine::{tup, Schema};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// Example 4.2's query R(x,y), S(y,z), both endogenous, on a small
    /// instance with a shared y value.
    #[test]
    fn example_4_2_shape() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let r_x1y2 = db.insert_endo(r, tup!["x1", "y2"]);
        db.insert_endo(r, tup!["x2", "y1"]);
        db.insert_endo(s, tup!["y2", "z1"]);
        db.insert_endo(s, tup!["y2", "z2"]);
        db.insert_endo(s, tup!["y1", "z1"]);
        let query = q("q :- R(x, y), S(y, z)");

        // R(x1,y2): witness path via S(y2,z1) or S(y2,z2). The rest of the
        // query is killed by removing R(x2,y1) (cheaper than both S
        // tuples) and the other S tuple on y2 is... let's just compare to
        // the exact solver.
        let flow = why_so_responsibility_flow(&db, &query, r_x1y2).unwrap();
        let exact = why_so_responsibility_exact(&db, &query, r_x1y2).unwrap();
        assert_eq!(flow.rho, exact.rho);
        assert!(flow.is_cause());
    }

    /// Flow and exact agree on every endogenous tuple of Example 2.2's
    /// grounded answers.
    #[test]
    fn flow_matches_exact_on_example_2_2() {
        use causality_engine::database::example_2_2;
        let db = example_2_2();
        for answer in ["a2", "a3", "a4"] {
            let query = q("q(x) :- R(x, y), S(y)").ground(&[causality_engine::Value::str(answer)]);
            for t in db.endogenous_tuples() {
                let flow = why_so_responsibility_flow(&db, &query, t).unwrap();
                let exact = why_so_responsibility_exact(&db, &query, t).unwrap();
                assert_eq!(flow.rho, exact.rho, "answer {answer} tuple {t:?}");
            }
        }
    }

    /// Weakly linear (but not linear) query: triangle with exogenous S —
    /// Example 4.12's first weakening. Flow must agree with exact.
    #[test]
    fn weakly_linear_triangle_with_exogenous_side() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let tt = db.add_relation(Schema::new("T", &["z", "x"]));
        for (x, y) in [(1, 2), (1, 3), (4, 2)] {
            db.insert_endo(r, tup![x, y]);
        }
        for (y, z) in [(2, 5), (3, 5), (2, 6)] {
            db.insert_exo(s, tup![y, z]);
        }
        for (z, x) in [(5, 1), (6, 4), (6, 1)] {
            db.insert_endo(tt, tup![z, x]);
        }
        let query = q("q :- R(x, y), S(y, z), T(z, x)");
        for t in db.endogenous_tuples() {
            let flow = why_so_responsibility_flow(&db, &query, t).unwrap();
            let exact = why_so_responsibility_exact(&db, &query, t).unwrap();
            assert_eq!(flow.rho, exact.rho, "tuple {t:?}");
        }
    }

    /// Chain of length 3 with a middle exogenous relation.
    #[test]
    fn chain3_mixed_natures() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let tt = db.add_relation(Schema::new("T", &["z", "w"]));
        for (a, b) in [(1, 10), (2, 10), (3, 11)] {
            db.insert_endo(r, tup![a, b]);
        }
        for (a, b) in [(10, 20), (11, 20), (11, 21)] {
            db.insert_exo(s, tup![a, b]);
        }
        for (a, b) in [(20, 30), (21, 30)] {
            db.insert_endo(tt, tup![a, b]);
        }
        let query = q("q :- R(x, y), S(y, z), T(z, w)");
        for t in db.endogenous_tuples() {
            let flow = why_so_responsibility_flow(&db, &query, t).unwrap();
            let exact = why_so_responsibility_exact(&db, &query, t).unwrap();
            assert_eq!(flow.rho, exact.rho, "tuple {t:?}");
        }
    }

    /// The ranking's lineage search emits the evaluator's valuations,
    /// and a plan built from them solves every tuple as a plan of one.
    #[test]
    fn a_plan_from_the_lineage_emission_is_a_plan_of_one() {
        use causality_engine::database::example_2_2;
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let mut teed = ValuationTuples::new(query.atoms().len());
        causality_lineage::minimized_n_lineage_tee(&db, &query, None, |t| teed.push(t)).unwrap();
        let evaluated = causality_engine::evaluate(&db, &query).unwrap();
        let emitted: Vec<&[TupleRef]> = teed.iter().collect();
        let valuations: Vec<&[TupleRef]> = evaluated
            .valuations
            .iter()
            .map(|v| v.atom_tuples.as_slice())
            .collect();
        assert_eq!(emitted, valuations);

        let plan = FlowShape::of(&db, &query)
            .unwrap()
            .plan(&db, FlowAlgorithm::Dinic, &teed);
        for t in db.endogenous_tuples() {
            assert_eq!(
                plan.solve(t),
                why_so_responsibility_flow_with(&db, &query, t, FlowAlgorithm::Dinic).unwrap(),
                "{t:?}"
            );
        }
    }

    #[test]
    fn counterfactual_and_non_cause_cases() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        let r1 = db.insert_endo(r, tup![1, 2]);
        let s2 = db.insert_endo(s, tup![2]);
        let dangling = db.insert_endo(s, tup![9]); // joins nothing
        let query = q("q :- R(x, y), S(y)");
        assert_eq!(
            why_so_responsibility_flow(&db, &query, r1).unwrap().rho,
            1.0
        );
        assert_eq!(
            why_so_responsibility_flow(&db, &query, s2).unwrap().rho,
            1.0
        );
        assert_eq!(
            why_so_responsibility_flow(&db, &query, dangling)
                .unwrap()
                .rho,
            0.0
        );
    }

    #[test]
    fn single_atom_query() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        let t1 = db.insert_endo(r, tup![1]);
        db.insert_endo(r, tup![2]);
        db.insert_endo(r, tup![3]);
        let query = q("q :- R(x)");
        let resp = why_so_responsibility_flow(&db, &query, t1).unwrap();
        // Remove the two other tuples, then t1 is counterfactual: ρ = 1/3.
        assert!((resp.rho - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(resp.min_contingency.unwrap().len(), 2);
    }

    #[test]
    fn rejects_non_weakly_linear_and_self_joins() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let tt = db.add_relation(Schema::new("T", &["z", "x"]));
        let t0 = db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        db.insert_endo(tt, tup![3, 1]);
        let err =
            why_so_responsibility_flow(&db, &q("h2 :- R(x, y), S(y, z), T(z, x)"), t0).unwrap_err();
        assert!(matches!(err, CoreError::NotWeaklyLinear { .. }));

        let err = why_so_responsibility_flow(&db, &q("q :- R(x, y), R(y, z)"), t0).unwrap_err();
        assert!(matches!(err, CoreError::SelfJoin { .. }));
    }

    #[test]
    fn rejects_mixed_relations() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        let t0 = db.insert_endo(r, tup![1]);
        db.insert_exo(r, tup![2]);
        let err = why_so_responsibility_flow(&db, &q("q :- R(x)"), t0).unwrap_err();
        assert!(matches!(err, CoreError::UnmarkedAtom { .. }));
    }

    #[test]
    fn edmonds_karp_and_dinic_agree() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        for i in 0..6i64 {
            db.insert_endo(r, tup![i % 3, i]);
            db.insert_endo(s, tup![i, i / 2]);
        }
        let query = q("q :- R(x, y), S(y, z)");
        for t in db.endogenous_tuples() {
            let (a, _) =
                why_so_responsibility_flow_with(&db, &query, t, FlowAlgorithm::Dinic).unwrap();
            let (b, _) =
                why_so_responsibility_flow_with(&db, &query, t, FlowAlgorithm::EdmondsKarp)
                    .unwrap();
            assert_eq!(a.rho, b.rho);
        }
    }

    #[test]
    fn stats_reflect_network_shape() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let t0 = db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        db.insert_endo(s, tup![2, 4]);
        let (resp, stats) = why_so_responsibility_flow_with(
            &db,
            &q("q :- R(x, y), S(y, z)"),
            t0,
            FlowAlgorithm::Dinic,
        )
        .unwrap();
        assert_eq!(resp.rho, 1.0);
        assert!(stats.nodes >= 3); // source, sink, junction y=2
        assert_eq!(stats.edges, 3);
        assert_eq!(stats.paths, 2);
        assert_eq!(stats.flow_runs, 2);
    }
}

//! The seed Algorithm 1, retained as a differential oracle.
//!
//! The production path lives in [`super`]: one `FlowPlan` per
//! query, solved for any number of tuples on one junction network. This
//! module preserves the original per-tuple implementation **verbatim**:
//! every call re-marks the query, re-derives the weak-linearity
//! certificate, re-evaluates the query and rebuilds the network, then
//! collects the witness paths through `t` only. It is the test baseline
//! of `tests/flow_differential.rs` and of the ranking references, which
//! assert that the plan returns exactly its `(Responsibility, FlowStats)`
//! (or the same error).
//!
//! Nothing on a serving path calls into this module; do not optimise it.

use super::FlowStats;
use crate::dichotomy::aquery::AQuery;
use crate::dichotomy::weaken::weakly_linear_certificate;
use crate::error::CoreError;
use crate::resp::Responsibility;
use causality_engine::{
    evaluate, evaluate_with_cache, ConjunctiveQuery, Database, Nature, SharedIndexCache, TupleRef,
    Value, VarId,
};
use causality_graph::maxflow::{EdgeHandle, FlowAlgorithm, FlowNetwork, INF};
use std::collections::{BTreeSet, HashMap};

/// The seed [`super::why_so_responsibility_flow_with`]: Algorithm 1 for
/// one tuple, with algorithm choice and stats, on a network built for
/// this call alone.
pub fn why_so_responsibility_flow_with(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
    algo: FlowAlgorithm,
) -> Result<(Responsibility, FlowStats), CoreError> {
    flow_impl(db, q, t, algo, None)
}

fn flow_impl(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
    algo: FlowAlgorithm,
    cache: Option<&SharedIndexCache>,
) -> Result<(Responsibility, FlowStats), CoreError> {
    if q.has_self_join() {
        return Err(CoreError::SelfJoin {
            query: q.to_string(),
        });
    }
    if !db.is_endogenous(t) {
        return Err(CoreError::NotEndogenous);
    }
    let marked = mark_query(db, q)?;
    let aq = AQuery::from_query(&marked)?;
    let cert = weakly_linear_certificate(&aq)?.ok_or_else(|| CoreError::NotWeaklyLinear {
        query: q.to_string(),
    })?;
    let order = cert.linear_order;
    let weakened = cert.weakened;

    let result = match cache {
        Some(c) => evaluate_with_cache(db, q, c)?,
        None => evaluate(db, q)?,
    };
    if result.valuations.is_empty() {
        return Ok((Responsibility::not_a_cause(), FlowStats::default()));
    }
    let m = order.len();

    // Boundary variables between consecutive atoms of the linear order.
    let boundaries: Vec<Vec<VarId>> = (0..m.saturating_sub(1))
        .map(|k| {
            let shared = weakened.atoms[order[k]].vars & weakened.atoms[order[k + 1]].vars;
            (0..64u32)
                .filter(|v| shared & (1u64 << v) != 0)
                .map(VarId)
                .collect()
        })
        .collect();

    let mut net = FlowNetwork::new(2); // 0 = source, 1 = sink
    let mut nodes: HashMap<(usize, Vec<Value>), usize> = HashMap::new();
    #[derive(PartialEq, Eq, Hash)]
    enum EdgeKey {
        Tuple(TupleRef),
        Exo(usize, usize, usize),
    }
    let mut edges: HashMap<EdgeKey, EdgeHandle> = HashMap::new();
    let mut handle_tuple: HashMap<EdgeHandle, TupleRef> = HashMap::new();
    // Paths through t, deduplicated by edge set. A path has at most m
    // edges, so a sorted m-element vec is both the compact dedup key
    // and the deterministic (element-sequence ordered) iteration
    // source for the per-witness min-cut loop below.
    let mut witness_paths: BTreeSet<Vec<EdgeHandle>> = BTreeSet::new();
    let mut t_edge: Option<EdgeHandle> = None;

    for val in &result.valuations {
        let mut path = Vec::with_capacity(m);
        let mut contains_t = false;
        let mut left = 0usize;
        for k in 0..m {
            let atom_idx = order[k];
            let tuple = val.atom_tuples[atom_idx];
            let right = if k + 1 == m {
                1
            } else {
                let key: Vec<Value> = boundaries[k]
                    .iter()
                    .map(|&v| val.value(v).expect("boundary variable bound").clone())
                    .collect();
                match nodes.entry((k, key)) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let id = net.add_node();
                        e.insert(id);
                        id
                    }
                }
            };
            let endo = db.is_endogenous(tuple);
            let key = if endo {
                EdgeKey::Tuple(tuple)
            } else {
                EdgeKey::Exo(k, left, right)
            };
            let handle = *edges.entry(key).or_insert_with(|| {
                let h = net.add_edge(left, right, if endo { 1 } else { INF });
                if endo {
                    handle_tuple.insert(h, tuple);
                }
                h
            });
            if endo && tuple == t {
                contains_t = true;
                t_edge = Some(handle);
            }
            path.push(handle);
            left = right;
        }
        if contains_t {
            path.sort();
            path.dedup();
            witness_paths.insert(path);
        }
    }

    let Some(t_edge) = t_edge else {
        // t grounds no valuation: not a cause.
        return Ok((
            Responsibility::not_a_cause(),
            FlowStats {
                nodes: net.node_count(),
                edges: net.edge_count(),
                paths: 0,
                flow_runs: 0,
            },
        ));
    };
    net.set_capacity(t_edge, 0);

    let mut stats = FlowStats {
        nodes: net.node_count(),
        edges: net.edge_count(),
        paths: witness_paths.len(),
        flow_runs: 0,
    };

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
        let flow = net.max_flow(0, 1, algo);
        stats.flow_runs += 1;
        for &(h, cap) in &saved {
            net.set_capacity(h, cap);
        }
        if best.as_ref().is_none_or(|(b, _)| flow.value < *b) {
            let gamma: Vec<TupleRef> = flow
                .min_cut
                .iter()
                .filter_map(|h| handle_tuple.get(h).copied())
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
    Ok((Responsibility::from_contingency(gamma), stats))
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

//! The allocating backtracking search that `engine::eval` ran before it
//! became one search with a sink, kept as a differential oracle.
//!
//! Every search node allocates its key, clones the index's row list and
//! each candidate tuple, and every valuation clones the bindings into a
//! [`Valuation`]. Nothing but tests calls it; do not optimise it.

use causality_engine::{
    Atom, ConjunctiveQuery, Database, EndoMask, EngineError, EvalResult, Nature, RelId, RowId,
    SharedIndexCache, Term, TupleRef, Valuation, Value, VarId,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

type PositionIndex = HashMap<Vec<Value>, Vec<RowId>>;

type LocalKey = (RelId, Vec<usize>);

/// Every valuation of `q` under `mask`, and the distinct answers sorted.
pub fn evaluate(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
    cache: Option<&SharedIndexCache>,
) -> Result<EvalResult, EngineError> {
    Evaluator::new(db, q, mask, cache)?.run(false)
}

/// Whether `q` has a valuation under `mask` (early exit).
pub fn holds(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
    cache: Option<&SharedIndexCache>,
) -> Result<bool, EngineError> {
    Ok(Evaluator::new(db, q, mask, cache)?.run(true)?.holds())
}

fn build_index(db: &Database, rel: RelId, positions: &[usize]) -> PositionIndex {
    let relation = db.relation(rel);
    let mut index: PositionIndex = HashMap::new();
    for (row, tuple, _) in relation.iter() {
        let key: Vec<Value> = positions.iter().map(|&p| tuple[p].clone()).collect();
        index.entry(key).or_default().push(row);
    }
    index
}

struct ResolvedAtom {
    rel: RelId,
    nature: Nature,
    terms: Vec<Term>,
}

struct Evaluator<'a> {
    db: &'a Database,
    q: &'a ConjunctiveQuery,
    mask: EndoMask<'a>,
    atoms: Vec<ResolvedAtom>,
    plan: Vec<usize>,
    local: HashMap<LocalKey, Arc<PositionIndex>>,
    shared: Option<&'a SharedIndexCache>,
}

impl<'a> Evaluator<'a> {
    fn new(
        db: &'a Database,
        q: &'a ConjunctiveQuery,
        mask: EndoMask<'a>,
        shared: Option<&'a SharedIndexCache>,
    ) -> Result<Self, EngineError> {
        let body_vars = q.body_vars();
        for hv in q.head_vars() {
            if !body_vars.contains(&hv) {
                return Err(EngineError::UnsafeQuery {
                    query: q.to_string(),
                    var: q.var_name(hv).to_string(),
                });
            }
        }
        let mut atoms = Vec::with_capacity(q.atoms().len());
        for atom in q.atoms() {
            let rel = db.require_relation(&atom.relation)?;
            let schema_arity = db.relation(rel).schema().arity();
            if schema_arity != atom.arity() {
                return Err(EngineError::ArityMismatch {
                    relation: atom.relation.clone(),
                    expected: schema_arity,
                    found: atom.arity(),
                });
            }
            atoms.push(ResolvedAtom {
                rel,
                nature: atom.nature,
                terms: atom.terms.clone(),
            });
        }
        let plan = plan_order(db, q.atoms(), &atoms);
        Ok(Evaluator {
            db,
            q,
            mask,
            atoms,
            plan,
            local: HashMap::new(),
            shared,
        })
    }

    fn run(&mut self, stop_at_first: bool) -> Result<EvalResult, EngineError> {
        let mut result = EvalResult::default();
        let mut bindings: Vec<Option<Value>> = vec![None; self.q.var_count()];
        let mut chosen: Vec<TupleRef> = Vec::with_capacity(self.atoms.len());
        self.search(0, &mut bindings, &mut chosen, stop_at_first, &mut result);

        let mut seen = BTreeSet::new();
        for v in &result.valuations {
            seen.insert(v.head_values(self.q));
        }
        result.answers = seen.into_iter().collect();
        Ok(result)
    }

    fn search(
        &mut self,
        depth: usize,
        bindings: &mut Vec<Option<Value>>,
        chosen: &mut Vec<TupleRef>,
        stop_at_first: bool,
        result: &mut EvalResult,
    ) -> bool {
        if depth == self.plan.len() {
            let mut atom_tuples = vec![TupleRef::new(0, 0); self.plan.len()];
            for (step, &atom_idx) in self.plan.iter().enumerate() {
                atom_tuples[atom_idx] = chosen[step];
            }
            result.valuations.push(Valuation {
                assignment: bindings.clone(),
                atom_tuples,
            });
            return stop_at_first;
        }
        let atom_idx = self.plan[depth];

        let (positions, key, unbound): (Vec<usize>, Vec<Value>, Vec<(usize, VarId)>) = {
            let atom = &self.atoms[atom_idx];
            let mut positions = Vec::new();
            let mut key = Vec::new();
            let mut unbound = Vec::new();
            for (i, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        positions.push(i);
                        key.push(c.clone());
                    }
                    Term::Var(v) => match &bindings[v.0 as usize] {
                        Some(val) => {
                            positions.push(i);
                            key.push(val.clone());
                        }
                        None => unbound.push((i, *v)),
                    },
                }
            }
            (positions, key, unbound)
        };

        let rel = self.atoms[atom_idx].rel;
        let nature = self.atoms[atom_idx].nature;
        let rows: Vec<RowId> = self
            .index_for(rel, positions)
            .get(&key)
            .cloned()
            .unwrap_or_default();

        for row in rows {
            let tref = TupleRef { rel, row };
            let relation = self.db.relation(rel);
            let endo = relation.is_endogenous(row);
            match nature {
                Nature::Endo if !endo => continue,
                Nature::Exo if endo => continue,
                _ => {}
            }
            if !self.mask.active(tref, endo) {
                continue;
            }
            let tuple = relation.tuple(row).clone();
            let mut newly_bound: Vec<VarId> = Vec::new();
            let mut ok = true;
            for &(pos, var) in &unbound {
                match &bindings[var.0 as usize] {
                    Some(existing) => {
                        if existing != &tuple[pos] {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        bindings[var.0 as usize] = Some(tuple[pos].clone());
                        newly_bound.push(var);
                    }
                }
            }
            if ok {
                chosen.push(tref);
                let stop = self.search(depth + 1, bindings, chosen, stop_at_first, result);
                chosen.pop();
                if stop {
                    for v in newly_bound {
                        bindings[v.0 as usize] = None;
                    }
                    return true;
                }
            }
            for v in newly_bound {
                bindings[v.0 as usize] = None;
            }
        }
        false
    }

    fn index_for(&mut self, rel: RelId, positions: Vec<usize>) -> Arc<PositionIndex> {
        let cache_key = (rel, positions);
        if let Some(idx) = self.local.get(&cache_key) {
            return Arc::clone(idx);
        }
        let idx = match self.shared {
            Some(cache) => cache.get_or_build(self.db, cache_key.0, &cache_key.1),
            None => Arc::new(build_index(self.db, cache_key.0, &cache_key.1)),
        };
        self.local.insert(cache_key, Arc::clone(&idx));
        idx
    }
}

fn plan_order(db: &Database, atoms: &[Atom], resolved: &[ResolvedAtom]) -> Vec<usize> {
    let n = atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut bound_vars: BTreeSet<VarId> = BTreeSet::new();
    for _ in 0..n {
        let mut best: Option<(usize, usize, usize)> = None;
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let bound = atoms[i]
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound_vars.contains(v),
                })
                .count();
            let size = db.relation(resolved[i].rel).len();
            let better = match best {
                None => true,
                Some((_, b, s)) => bound > b || (bound == b && size < s),
            };
            if better {
                best = Some((i, bound, size));
            }
        }
        let (idx, _, _) = best.expect("unplaced atom exists");
        placed[idx] = true;
        bound_vars.extend(atoms[idx].vars());
        order.push(idx);
    }
    order
}

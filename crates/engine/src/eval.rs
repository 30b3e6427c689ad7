//! Conjunctive query evaluation.
//!
//! The evaluator enumerates **valuations** `θ : Var(q) → Adom(D)` — the
//! mappings of Def. 3.1 that ground every atom to a stored tuple. A
//! valuation is exactly one conjunct `c_θ = X_{t1} ∧ … ∧ X_{tm}` of the
//! lineage, so the lineage crate consumes the valuation stream directly.
//!
//! Evaluation is a backtracking join: atoms are greedily reordered so that
//! each step binds against already-bound variables, and per-binding-pattern
//! hash indexes are built lazily. Counterfactual evaluation (over `D − Γ`
//! or `Dx ∪ Γ`) is supported through [`EndoMask`] without copying the
//! database.
//!
//! There is **one search**, [`for_each_valuation`], and it hands each
//! valuation to a caller's sink instead of materializing it. The join
//! plan is fixed per evaluation, so each step's key pattern, binding
//! recipe and index are worked out once; a search node fills a reused
//! key buffer, borrows the index's rows and the stored tuple, and binds
//! `&Value`s. The sink sees the atom tuples (in body order) and the
//! bindings as borrowed slices, and can stop the search. The lineage
//! crate builds its interned n-lineage straight from this emission;
//! [`evaluate`] and its variants collect it into [`Valuation`]s, and the
//! `holds_*` checks stop at the first valuation.

use crate::database::{Database, EndoMask};
use crate::error::EngineError;
use crate::query::{Atom, ConjunctiveQuery, Nature, Term, VarId};
use crate::relation::RelVersion;
use crate::tuple::{RelId, RowId, Tuple, TupleRef};
use crate::value::Value;
use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::{Arc, RwLock};

/// One hash index over a relation: key (values at the bound positions) →
/// rows holding those values.
pub type PositionIndex = HashMap<Vec<Value>, Vec<RowId>>;

/// The key a [`SharedIndexCache`] entry lives under: the binding pattern
/// plus the relation's content stamp, so an index can never be served
/// against content it was not built from.
type SharedKey = (RelId, RelVersion, Vec<usize>);

/// Build the hash index for one binding pattern by scanning the relation.
fn build_index(db: &Database, rel: RelId, positions: &[usize]) -> PositionIndex {
    let relation = db.relation(rel);
    let mut index: PositionIndex = HashMap::new();
    for (row, tuple, _) in relation.iter() {
        let key: Vec<Value> = positions.iter().map(|&p| tuple[p].clone()).collect();
        index.entry(key).or_default().push(row);
    }
    index
}

/// A thread-safe, build-once cache of per-binding-pattern hash indexes,
/// keyed by **relation content** — `(RelId, RelVersion, positions)`.
///
/// Indexes depend only on the stored tuples — not on the [`EndoMask`] —
/// so one cache serves every counterfactual evaluation over the same
/// relation content: plain evaluation, `D − Γ` removals and `Dx ∪ Γ`
/// insertions all share it. Because [`RelVersion`] stamps are
/// process-wide unique and re-issued on every mutable access, **one
/// cache is sound across arbitrarily many databases and snapshot
/// versions**: a write to one relation leaves every other relation's
/// indexes valid (same stamp), and a stale index can never be served
/// (the stamp moved). Stale entries are garbage, not hazards — reclaim
/// them with [`SharedIndexCache::retain_versions`] or
/// [`SharedIndexCache::clear`].
///
/// Entries are `Arc`-shared so concurrent readers clone a pointer, not
/// the index. Building races are benign: the first insert wins and the
/// duplicate is dropped.
#[derive(Debug, Default)]
pub struct SharedIndexCache {
    inner: RwLock<HashMap<SharedKey, Arc<PositionIndex>>>,
}

impl SharedIndexCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        SharedIndexCache::default()
    }

    /// Number of distinct (relation, version, binding-pattern) indexes held.
    pub fn len(&self) -> usize {
        self.inner.read().expect("index cache lock").len()
    }

    /// Whether no index has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached index.
    pub fn clear(&self) {
        self.inner.write().expect("index cache lock").clear();
    }

    /// Drop indexes for relation versions outside the `live` set and
    /// return how many entries were evicted. A serving layer passes the
    /// union of [`Database::relation_versions`] over the snapshots it
    /// still serves; everything else is unreachable garbage.
    pub fn retain_versions(&self, live: &[(RelId, RelVersion)]) -> usize {
        let live: HashSet<(RelId, RelVersion)> = live.iter().copied().collect();
        let mut w = self.inner.write().expect("index cache lock");
        let before = w.len();
        w.retain(|(rel, version, _), _| live.contains(&(*rel, *version)));
        before - w.len()
    }

    /// Fetch the index for a binding pattern over `rel`'s current content
    /// in `db`, building it on first use.
    pub fn get_or_build(
        &self,
        db: &Database,
        rel: RelId,
        positions: &[usize],
    ) -> Arc<PositionIndex> {
        let version = db.relation_version(rel);
        if let Some(idx) =
            self.inner
                .read()
                .expect("index cache lock")
                .get(&(rel, version, positions.to_vec()))
        {
            return Arc::clone(idx);
        }
        let built = Arc::new(build_index(db, rel, positions));
        let mut w = self.inner.write().expect("index cache lock");
        Arc::clone(w.entry((rel, version, positions.to_vec())).or_insert(built))
    }
}

/// One valuation `θ` of the query body: a value for every bound variable
/// and the tuple grounding each atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Valuation {
    /// Per-[`VarId`] assignment (`None` for interned-but-unused variables).
    pub assignment: Vec<Option<Value>>,
    /// The tuple each body atom was grounded to, in atom order.
    pub atom_tuples: Vec<TupleRef>,
}

impl Valuation {
    /// Value bound to a variable.
    pub fn value(&self, v: VarId) -> Option<&Value> {
        self.assignment.get(v.0 as usize).and_then(Option::as_ref)
    }

    /// Project the valuation onto the query head, producing an answer tuple.
    pub fn head_values(&self, q: &ConjunctiveQuery) -> Tuple {
        q.head()
            .iter()
            .map(|t| match t {
                Term::Var(v) => self
                    .value(*v)
                    .expect("head variable bound by safe query")
                    .clone(),
                Term::Const(c) => c.clone(),
            })
            .collect()
    }

    /// The distinct tuples grounding the atoms (a lineage conjunct's
    /// variable set, before endo/exo substitution).
    pub fn tuple_set(&self) -> BTreeSet<TupleRef> {
        self.atom_tuples.iter().copied().collect()
    }
}

/// The result of evaluating a query: distinct answers plus all valuations.
#[derive(Clone, Debug, Default)]
pub struct EvalResult {
    /// Distinct answer tuples, sorted.
    pub answers: Vec<Tuple>,
    /// Every valuation of the body.
    pub valuations: Vec<Valuation>,
}

impl EvalResult {
    /// For a Boolean query: whether the query is true.
    pub fn holds(&self) -> bool {
        !self.valuations.is_empty()
    }

    /// The valuations producing a given answer.
    pub fn valuations_for<'a>(
        &'a self,
        q: &'a ConjunctiveQuery,
        answer: &'a Tuple,
    ) -> impl Iterator<Item = &'a Valuation> + 'a {
        self.valuations
            .iter()
            .filter(move |v| &v.head_values(q) == answer)
    }
}

/// Evaluate `q` over the full database (all endogenous tuples present).
pub fn evaluate(db: &Database, q: &ConjunctiveQuery) -> Result<EvalResult, EngineError> {
    evaluate_masked(db, q, EndoMask::All)
}

/// Like [`evaluate`], reusing indexes from a [`SharedIndexCache`].
pub fn evaluate_with_cache(
    db: &Database,
    q: &ConjunctiveQuery,
    cache: &SharedIndexCache,
) -> Result<EvalResult, EngineError> {
    evaluate_masked_with_cache(db, q, EndoMask::All, cache)
}

/// Evaluate `q` under a counterfactual [`EndoMask`].
pub fn evaluate_masked(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
) -> Result<EvalResult, EngineError> {
    collect(db, q, mask, None)
}

/// Like [`evaluate_masked`], reusing indexes from a [`SharedIndexCache`]:
/// binding-pattern indexes missing from the cache are built once and
/// published for subsequent evaluations over the same database contents.
pub fn evaluate_masked_with_cache(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
    cache: &SharedIndexCache,
) -> Result<EvalResult, EngineError> {
    collect(db, q, mask, Some(cache))
}

/// Boolean check with early exit: is `q` (treated as Boolean) true under
/// the mask? Faster than [`evaluate_masked`] when only truth is needed.
pub fn holds_masked(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
) -> Result<bool, EngineError> {
    holds(db, q, mask, None)
}

/// Like [`holds_masked`], reusing indexes from a [`SharedIndexCache`].
pub fn holds_masked_with_cache(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
    cache: &SharedIndexCache,
) -> Result<bool, EngineError> {
    holds(db, q, mask, Some(cache))
}

/// The `evaluate*` wrappers: every valuation materialized, in search
/// order, and the distinct answers sorted.
fn collect(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
    cache: Option<&SharedIndexCache>,
) -> Result<EvalResult, EngineError> {
    let mut valuations = Vec::new();
    for_each_valuation(db, q, mask, cache, |atom_tuples, bindings| {
        valuations.push(Valuation {
            assignment: bindings.iter().map(|b| b.cloned()).collect(),
            atom_tuples: atom_tuples.to_vec(),
        });
        ControlFlow::Continue(())
    })?;
    let answers: BTreeSet<Tuple> = valuations.iter().map(|v| v.head_values(q)).collect();
    Ok(EvalResult {
        answers: answers.into_iter().collect(),
        valuations,
    })
}

/// The `holds_*` wrappers: stop at the first valuation.
fn holds(
    db: &Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
    cache: Option<&SharedIndexCache>,
) -> Result<bool, EngineError> {
    let mut found = false;
    for_each_valuation(db, q, mask, cache, |_, _| {
        found = true;
        ControlFlow::Break(())
    })?;
    Ok(found)
}

/// The one search: enumerate the valuations of `q`'s body under `mask`
/// and hand each one to `sink`, until the sink breaks or the search is
/// exhausted.
///
/// The sink sees a valuation as two borrowed slices: the tuple grounding
/// each body atom, in **atom order** (not join order), and the value
/// bound to each [`VarId`] (`None` for interned-but-unused variables).
/// Both are only valid for the call; nothing is allocated per valuation.
/// Valuations arrive in a fixed order — the greedy join plan's, each
/// step's rows in index order — which every `evaluate*` result keeps.
///
/// # Errors
/// An unknown relation, an atom whose arity disagrees with its
/// relation's schema, or a head variable absent from the body.
pub fn for_each_valuation<'db, F>(
    db: &'db Database,
    q: &ConjunctiveQuery,
    mask: EndoMask<'_>,
    cache: Option<&SharedIndexCache>,
    mut sink: F,
) -> Result<(), EngineError>
where
    F: FnMut(&[TupleRef], &[Option<&'db Value>]) -> ControlFlow<()>,
{
    let plan = Plan::new(db, q, cache)?;
    let mut state = State {
        bindings: vec![None; q.var_count()],
        chosen: vec![TupleRef::new(0, 0); q.atoms().len()],
        keys: vec![Vec::new(); plan.steps.len()],
    };
    let _ = plan.search(0, mask, &mut state, &mut sink);
    Ok(())
}

/// Where one value of an index key comes from.
enum KeyPart<'q> {
    /// A constant of the atom.
    Const(&'q Value),
    /// A variable bound by an earlier step.
    Var(VarId),
}

/// One step of the join plan: an atom, and everything about its lookup
/// that the plan fixes before the search starts.
struct Step<'q> {
    /// The atom's position in the query body.
    atom: usize,
    rel: RelId,
    nature: Nature,
    /// The atom's bound positions (constants, and variables an earlier
    /// step binds), ascending: the index's key pattern.
    positions: Vec<usize>,
    /// The source of each key value, in `positions` order.
    key: Vec<KeyPart<'q>>,
    /// Positions whose variable this step binds, first occurrence each.
    binds: Vec<(usize, VarId)>,
    /// Later occurrences of a variable bound in this same atom: the row
    /// must repeat the value there.
    repeats: Vec<(usize, VarId)>,
    /// The step's index, fetched the first time the search reaches it.
    index: OnceCell<Arc<PositionIndex>>,
}

/// The evaluation's fixed part, shared by every search node.
struct Plan<'db, 'q, 'c> {
    db: &'db Database,
    steps: Vec<Step<'q>>,
    /// Cross-evaluation cache consulted (and fed) before building locally.
    shared: Option<&'c SharedIndexCache>,
}

/// The search's mutable part: one slot per variable, per atom and per
/// step, reused by every node.
struct State<'db> {
    bindings: Vec<Option<&'db Value>>,
    /// The tuple each atom is grounded to on the current path, in atom
    /// order.
    chosen: Vec<TupleRef>,
    /// Each step's key buffer.
    keys: Vec<Vec<Value>>,
}

impl<'db, 'q, 'c> Plan<'db, 'q, 'c> {
    fn new(
        db: &'db Database,
        q: &'q ConjunctiveQuery,
        shared: Option<&'c SharedIndexCache>,
    ) -> Result<Self, EngineError> {
        // Safety check: head variables must occur in the body. The
        // smallest offending variable is reported.
        let mut in_body = vec![false; q.var_count()];
        for term in q.atoms().iter().flat_map(|a| &a.terms) {
            if let Term::Var(v) = term {
                in_body[v.0 as usize] = true;
            }
        }
        let unsafe_var = q
            .head()
            .iter()
            .filter_map(Term::as_var)
            .filter(|v| !in_body[v.0 as usize])
            .min();
        if let Some(hv) = unsafe_var {
            return Err(EngineError::UnsafeQuery {
                query: q.to_string(),
                var: q.var_name(hv).to_string(),
            });
        }
        let mut rels = Vec::with_capacity(q.atoms().len());
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
            rels.push(rel);
        }
        let mut bound = vec![false; q.var_count()];
        let steps = plan_order(db, q.atoms(), &rels)
            .into_iter()
            .map(|atom_idx| {
                let atom = &q.atoms()[atom_idx];
                let mut step = Step {
                    atom: atom_idx,
                    rel: rels[atom_idx],
                    nature: atom.nature,
                    positions: Vec::new(),
                    key: Vec::new(),
                    binds: Vec::new(),
                    repeats: Vec::new(),
                    index: OnceCell::new(),
                };
                for (pos, term) in atom.terms.iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            step.positions.push(pos);
                            step.key.push(KeyPart::Const(c));
                        }
                        Term::Var(v) if bound[v.0 as usize] => {
                            step.positions.push(pos);
                            step.key.push(KeyPart::Var(*v));
                        }
                        Term::Var(v) if step.binds.iter().any(|&(_, b)| b == *v) => {
                            step.repeats.push((pos, *v));
                        }
                        Term::Var(v) => step.binds.push((pos, *v)),
                    }
                }
                for &(_, v) in &step.binds {
                    bound[v.0 as usize] = true;
                }
                step
            })
            .collect();
        Ok(Plan { db, steps, shared })
    }

    fn search<F>(
        &self,
        depth: usize,
        mask: EndoMask<'_>,
        state: &mut State<'db>,
        sink: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&[TupleRef], &[Option<&'db Value>]) -> ControlFlow<()>,
    {
        let Some(step) = self.steps.get(depth) else {
            return sink(&state.chosen, &state.bindings);
        };
        let key = &mut state.keys[depth];
        key.clear();
        key.extend(step.key.iter().map(|part| {
            match part {
                KeyPart::Const(c) => (*c).clone(),
                KeyPart::Var(v) => state.bindings[v.0 as usize]
                    .expect("bound by an earlier step")
                    .clone(),
            }
        }));
        let Some(rows) = self.index_at(depth).get(key.as_slice()) else {
            return ControlFlow::Continue(());
        };
        let relation = self.db.relation(step.rel);
        'rows: for &row in rows {
            let tref = TupleRef { rel: step.rel, row };
            let endo = relation.is_endogenous(row);
            match step.nature {
                Nature::Endo if !endo => continue,
                Nature::Exo if endo => continue,
                _ => {}
            }
            if !mask.active(tref, endo) {
                continue;
            }
            let tuple = relation.tuple(row);
            for &(pos, v) in &step.binds {
                state.bindings[v.0 as usize] = Some(&tuple[pos]);
            }
            for &(pos, v) in &step.repeats {
                if state.bindings[v.0 as usize] != Some(&tuple[pos]) {
                    continue 'rows;
                }
            }
            state.chosen[step.atom] = tref;
            self.search(depth + 1, mask, state, sink)?;
        }
        ControlFlow::Continue(())
    }

    /// The index serving step `depth`: shared with an earlier step of
    /// the same binding pattern, fetched from the shared cache, or built
    /// on the spot (and published if shared).
    fn index_at(&self, depth: usize) -> &PositionIndex {
        let step = &self.steps[depth];
        step.index.get_or_init(|| {
            let earlier = self.steps[..depth].iter().find(|s| {
                s.rel == step.rel && s.positions == step.positions && s.index.get().is_some()
            });
            match (earlier.and_then(|s| s.index.get()), self.shared) {
                (Some(idx), _) => Arc::clone(idx),
                (None, Some(cache)) => cache.get_or_build(self.db, step.rel, &step.positions),
                (None, None) => Arc::new(build_index(self.db, step.rel, &step.positions)),
            }
        })
    }
}

/// Greedy join-order planning: repeatedly pick the atom with the most bound
/// terms (constants count as bound), tie-breaking by smaller relation.
fn plan_order(db: &Database, atoms: &[Atom], rels: &[RelId]) -> Vec<usize> {
    let n = atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut bound_vars: BTreeSet<VarId> = BTreeSet::new();
    for _ in 0..n {
        let mut best: Option<(usize, usize, usize)> = None; // (idx, bound count, rel size)
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
            let size = db.relation(rels[i]).len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::example_2_2;
    use crate::schema::Schema;
    use crate::tup;
    use std::collections::HashSet;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// Example 2.2: q(x) :- R(x,y), S(y) has answers {a2, a3, a4}.
    #[test]
    fn example_2_2_answers() {
        let db = example_2_2();
        let result = evaluate(&db, &q("q(x) :- R(x, y), S(y)")).unwrap();
        let answers: Vec<String> = result.answers.iter().map(|t| t[0].to_string()).collect();
        assert_eq!(answers, vec!["a2", "a3", "a4"]);
    }

    #[test]
    fn valuations_carry_tuple_provenance() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let result = evaluate(&db, &query).unwrap();
        // a4 joins through both S(a3) and S(a2): two valuations.
        let a4 = tup!["a4"];
        let vals: Vec<_> = result.valuations_for(&query, &a4).collect();
        assert_eq!(vals.len(), 2);
        for v in vals {
            assert_eq!(v.atom_tuples.len(), 2);
            let x = v.value(query.find_var("x").unwrap()).unwrap();
            assert_eq!(x, &Value::str("a4"));
        }
    }

    #[test]
    fn boolean_query_with_constant() {
        let db = example_2_2();
        // q :- R(x, 'a3'), S('a3') — true via R(a3,a3) and R(a4,a3).
        let query = q("q :- R(x, 'a3'), S('a3')");
        let result = evaluate(&db, &query).unwrap();
        assert!(result.holds());
        assert_eq!(result.valuations.len(), 2);
        assert_eq!(result.answers, vec![Tuple::new(vec![])]);
    }

    #[test]
    fn masked_removal_changes_answers() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let s = db.relation_id("S").unwrap();
        let s_a1 = TupleRef {
            rel: s,
            row: db.relation(s).find(&tup!["a1"]).unwrap(),
        };
        let mut gone = HashSet::new();
        gone.insert(s_a1);
        let result = evaluate_masked(&db, &query, EndoMask::Except(&gone)).unwrap();
        // Removing S(a1) kills answer a2 (counterfactual cause, Example 2.2).
        let answers: Vec<String> = result.answers.iter().map(|t| t[0].to_string()).collect();
        assert_eq!(answers, vec!["a3", "a4"]);
    }

    #[test]
    fn only_mask_models_why_no_insertions() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        let missing = db.insert_endo(r, tup![1]); // potential tuple in Dn
        db.insert_exo(r, tup![2]);

        let query = q("q :- R(1)");
        let none = HashSet::new();
        assert!(!holds_masked(&db, &query, EndoMask::Only(&none)).unwrap());
        let mut ins = HashSet::new();
        ins.insert(missing);
        assert!(holds_masked(&db, &query, EndoMask::Only(&ins)).unwrap());
    }

    #[test]
    fn nature_restrictions_filter_tuples() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_endo(r, tup![1]);
        db.insert_exo(r, tup![2]);

        let all = evaluate(&db, &q("q(x) :- R(x)")).unwrap();
        assert_eq!(all.answers.len(), 2);
        let endo = evaluate(&db, &q("q(x) :- R^n(x)")).unwrap();
        assert_eq!(endo.answers, vec![tup![1]]);
        let exo = evaluate(&db, &q("q(x) :- R^x(x)")).unwrap();
        assert_eq!(exo.answers, vec![tup![2]]);
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        db.insert_endo(r, tup![1, 1]);
        db.insert_endo(r, tup![1, 2]);
        let result = evaluate(&db, &q("q(x) :- R(x, x)")).unwrap();
        assert_eq!(result.answers, vec![tup![1]]);
    }

    #[test]
    fn self_join_evaluation() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        db.insert_endo(r, tup![1, 2]);
        db.insert_endo(r, tup![2, 3]);
        let result = evaluate(&db, &q("q(x, z) :- R(x, y), R(y, z)")).unwrap();
        assert_eq!(result.answers, vec![tup![1, 3]]);
        // The valuation uses two distinct tuples of the same relation.
        assert_eq!(result.valuations[0].tuple_set().len(), 2);
    }

    #[test]
    fn triangle_query() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let t = db.add_relation(Schema::new("T", &["z", "x"]));
        db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        db.insert_endo(t, tup![3, 1]);
        db.insert_endo(t, tup![3, 9]); // does not close the triangle
        let result = evaluate(&db, &q("h2 :- R(x, y), S(y, z), T(z, x)")).unwrap();
        assert_eq!(result.valuations.len(), 1);
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let db = Database::new();
        let err = evaluate(&db, &q("q :- Nope(x)")).unwrap_err();
        assert_eq!(err, EngineError::UnknownRelation("Nope".into()));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let mut db = Database::new();
        db.add_relation(Schema::new("R", &["x", "y"]));
        let err = evaluate(&db, &q("q :- R(x)")).unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
    }

    #[test]
    fn unsafe_query_is_an_error() {
        // The parser rejects unbound head vars up front; build through the
        // API to prove the evaluator still guards against them.
        let mut db = Database::new();
        db.add_relation(Schema::new("R", &["x"]));
        let mut query = ConjunctiveQuery::boolean("q");
        let x = query.var("x");
        let y = query.var("y");
        query.push_atom(Atom::new("R", Nature::Any, vec![Term::Var(x)]));
        query.set_head(vec![Term::Var(y)]);
        let err = evaluate(&db, &query).unwrap_err();
        assert!(matches!(err, EngineError::UnsafeQuery { .. }));
    }

    #[test]
    fn holds_early_exit_agrees_with_full_eval() {
        let db = example_2_2();
        let query = q("q :- R(x, y), S(y)");
        assert!(holds_masked(&db, &query, EndoMask::All).unwrap());
        let all: HashSet<TupleRef> = db.endogenous_tuples().into_iter().collect();
        assert!(
            !holds_masked(&db, &query, EndoMask::Only(&HashSet::new())).unwrap() || all.is_empty()
        );
    }

    #[test]
    fn shared_cache_reuses_indexes_across_evaluations() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let cache = SharedIndexCache::new();
        assert!(cache.is_empty());
        let cold = evaluate_with_cache(&db, &query, &cache).unwrap();
        let built = cache.len();
        assert!(built > 0, "evaluation populates the cache");
        let warm = evaluate_with_cache(&db, &query, &cache).unwrap();
        assert_eq!(cache.len(), built, "second run builds nothing new");
        assert_eq!(cold.answers, warm.answers);
        assert_eq!(cold.valuations, warm.valuations);
    }

    #[test]
    fn shared_cache_agrees_under_masks() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let cache = SharedIndexCache::new();
        let s = db.relation_id("S").unwrap();
        let s_a1 = TupleRef {
            rel: s,
            row: db.relation(s).find(&tup!["a1"]).unwrap(),
        };
        let mut gone = HashSet::new();
        gone.insert(s_a1);
        let masked = evaluate_masked_with_cache(&db, &query, EndoMask::Except(&gone), &cache)
            .unwrap()
            .answers;
        let plain = evaluate_masked(&db, &query, EndoMask::Except(&gone))
            .unwrap()
            .answers;
        assert_eq!(masked, plain, "indexes are mask-independent");
        assert!(holds_masked_with_cache(&db, &query, EndoMask::All, &cache).unwrap());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn index_cache_survives_writes_to_other_relations() {
        let mut db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let cache = SharedIndexCache::new();
        evaluate_with_cache(&db, &query, &cache).unwrap();
        let built = cache.len();
        assert!(built >= 2, "indexes over both R and S");

        // Touch S only: R's indexes keep their (rel, version) keys.
        let s = db.relation_id("S").unwrap();
        db.insert_endo(s, tup!["a9"]);
        let warm = evaluate_with_cache(&db, &query, &cache).unwrap();
        let r_answers: Vec<String> = warm.answers.iter().map(|t| t[0].to_string()).collect();
        assert_eq!(r_answers, vec!["a2", "a3", "a4"], "still correct");
        // New entries were built only for S's new version, none for R.
        let rebuilt = cache.len() - built;
        assert!(rebuilt >= 1, "S's index was rebuilt");
        let live = db.relation_versions();
        let evicted = cache.retain_versions(&live);
        assert_eq!(
            evicted, 1,
            "exactly the stale S index dies; R's survives untouched"
        );
        // And the surviving entries still serve the current database.
        let again = evaluate_with_cache(&db, &query, &cache).unwrap();
        assert_eq!(again.answers, warm.answers);
    }

    #[test]
    fn stale_indexes_are_never_served() {
        // The pre-versioning footgun: reuse one cache across *different*
        // contents. With (rel, version) keys this is now simply correct.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        db.insert_endo(r, tup![1]);
        let cache = SharedIndexCache::new();
        let before = evaluate_with_cache(&db, &q("q(x) :- R(x)"), &cache).unwrap();
        assert_eq!(before.answers.len(), 1);
        db.insert_endo(r, tup![2]);
        let after = evaluate_with_cache(&db, &q("q(x) :- R(x)"), &cache).unwrap();
        assert_eq!(after.answers.len(), 2, "new content, new index");
    }

    #[test]
    fn cartesian_product_when_no_shared_vars() {
        let mut db = Database::new();
        let a = db.add_relation(Schema::new("A", &["x"]));
        let b = db.add_relation(Schema::new("B", &["y"]));
        db.insert_endo(a, tup![1]);
        db.insert_endo(a, tup![2]);
        db.insert_endo(b, tup![10]);
        db.insert_endo(b, tup![20]);
        db.insert_endo(b, tup![30]);
        let result = evaluate(&db, &q("q(x, y) :- A(x), B(y)")).unwrap();
        assert_eq!(result.answers.len(), 6);
        assert_eq!(result.valuations.len(), 6);
    }
}

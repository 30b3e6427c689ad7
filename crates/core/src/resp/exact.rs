//! Exact minimum contingency via branch-and-bound.
//!
//! The contingency condition of Def. 2.1/2.3, read off the minimized
//! n-lineage `Φⁿ` (Theorem 3.2's characterisation): `Γ` is a contingency
//! for `t` iff
//!
//! 1. some conjunct containing `t` survives `Γ` (so `q` is true on `D−Γ`
//!    and `t` makes the difference), and
//! 2. every conjunct **not** containing `t` is hit by `Γ` (so `q` turns
//!    false once `t` is also removed).
//!
//! Choosing the surviving *witness* conjunct `c ∋ t` turns the problem
//! into a **minimum hitting set** over the residual sets `c' ∖ c` (for
//! conjuncts `c' ∌ t`) — NP-hard in general, exactly as the dichotomy
//! (Sect. 4) predicts for non-weakly-linear queries.
//!
//! # Bitset kernels
//!
//! The solver operates on the interned arena form
//! ([`BitDnf`]/[`VarSet`]): witness residuals are word-wise differences,
//! "is this set hit by Γ" is a word-wise AND, the greedy seed counts
//! frequencies over dense ids, and the branch-and-bound branches on the
//! smallest uncovered set with a greedy-packing lower bound — pruning
//! from the **first** node because the greedy solution seeds the
//! (exclusive) bound `cap` before branching. Every choice point mirrors
//! the seed `BTreeSet` implementation (retained verbatim in [`oracle`])
//! bit for bit: ascending-id iteration equals ascending-`TupleRef`
//! iteration, so the two return *identical* contingency vectors, not
//! just equal sizes.

use crate::error::CoreError;
use crate::resp::Responsibility;
use causality_engine::{ConjunctiveQuery, Database, TupleRef};
use causality_lineage::{minimized_n_lineage, BitDnf, Dnf, LineageArena, VarSet};
use std::collections::BTreeSet;

/// Exact Why-So responsibility of `t` (any conjunctive query).
pub fn why_so_responsibility_exact(
    db: &Database,
    q: &ConjunctiveQuery,
    t: TupleRef,
) -> Result<Responsibility, CoreError> {
    if !db.is_endogenous(t) {
        return Err(CoreError::NotEndogenous);
    }
    let (arena, phin) = minimized_n_lineage(db, q, None)?;
    Ok(responsibility_from_bits(&arena, &phin, t))
}

/// Responsibility of `t` over a *minimized* arena-form n-lineage: the
/// per-candidate unit of work of [`why_so_responsibility_exact`] and of
/// the ranker, which solves every candidate over one shared arena (zero
/// per-candidate lineage recomputation).
pub fn responsibility_from_bits(
    arena: &LineageArena,
    phin: &BitDnf,
    t: TupleRef,
) -> Responsibility {
    let Some(v) = arena.id(t) else {
        return Responsibility::not_a_cause();
    };
    match min_contingency_bits(phin, v) {
        Some(gamma) => Responsibility::from_contingency(
            gamma.into_iter().map(|id| arena.resolve(id)).collect(),
        ),
        None => Responsibility::not_a_cause(),
    }
}

/// Minimum Why-So contingency for `t` over a *minimized* n-lineage.
/// Returns `None` when `t` is not an actual cause.
///
/// Compatibility wrapper: interns `phin` and delegates to
/// [`min_contingency_bits`].
pub fn min_contingency_from_lineage(phin: &Dnf, t: TupleRef) -> Option<Vec<TupleRef>> {
    let (arena, bits) = LineageArena::from_dnf(phin);
    let v = arena.id(t)?;
    min_contingency_bits(&bits, v)
        .map(|gamma| gamma.into_iter().map(|id| arena.resolve(id)).collect())
}

/// Minimum Why-So contingency in arena form: variable ids in the order
/// the branch-and-bound chose them (identical to the seed solver's).
/// `None` when `v` is not an actual cause.
pub fn min_contingency_bits(phin: &BitDnf, v: u32) -> Option<Vec<u32>> {
    if !phin.mentions(v) || phin.is_tautology() {
        return None;
    }
    let witnesses: Vec<&VarSet> = phin
        .conjuncts()
        .iter()
        .filter(|c| c.contains(v as usize))
        .collect();
    let others: Vec<&VarSet> = phin
        .conjuncts()
        .iter()
        .filter(|c| !c.contains(v as usize))
        .collect();

    let mut best: Option<Vec<u32>> = None;
    let mut sets: Vec<VarSet> = Vec::with_capacity(others.len());
    let mut scratch = Scratch::new();
    for witness in witnesses {
        // Γ must avoid the witness entirely and hit every other conjunct:
        // the residuals are one word-wise difference per conjunct. The
        // residual vector and the solver scratch are reused across
        // witnesses — no per-witness allocation churn.
        sets.clear();
        sets.extend(others.iter().map(|c| c.without(witness)));
        if sets.iter().any(VarSet::is_empty) {
            // Some conjunct is inside the witness — cannot happen in a
            // minimized DNF, but guard anyway: this witness is infeasible.
            continue;
        }
        let bound = best.as_ref().map(Vec::len);
        if let Some(hit) = min_hitting_set_scratch(&sets, bound, &mut scratch) {
            if best.as_ref().is_none_or(|b| hit.len() < b.len()) {
                best = Some(hit);
            }
        }
    }
    best
}

/// Exact minimum hitting set: the smallest set of elements intersecting
/// every input set. `upper` is an exclusive bound — solutions of size
/// `≥ upper` are not returned. Returns `None` when no solution beats the
/// bound (or an empty input set makes hitting impossible).
///
/// Compatibility wrapper over [`min_hitting_set_bits`]: interns the
/// elements (in ascending `TupleRef` order, so results are identical to
/// the seed solver's) and translates back.
pub fn min_hitting_set(sets: &[BTreeSet<TupleRef>], upper: Option<usize>) -> Option<Vec<TupleRef>> {
    // Sorted-vec interning: ids in ascending TupleRef order (the
    // determinism contract), binary-search lookups, no hash map.
    let mut universe: Vec<TupleRef> = sets.iter().flatten().copied().collect();
    universe.sort_unstable();
    universe.dedup();
    let bit_sets: Vec<VarSet> = sets
        .iter()
        .map(|s| {
            s.iter()
                .map(|t| universe.binary_search(t).expect("element of universe"))
                .collect()
        })
        .collect();
    min_hitting_set_bits(&bit_sets, upper)
        .map(|hit| hit.into_iter().map(|id| universe[id as usize]).collect())
}

/// [`min_hitting_set`] on arena-form sets. The branch-and-bound is
/// seeded with the greedy solution, so `cap` (the exclusive bound merged
/// from `upper` and the best solution so far) prunes from the first
/// node; the search tree mirrors the seed solver's exactly.
pub fn min_hitting_set_bits(sets: &[VarSet], upper: Option<usize>) -> Option<Vec<u32>> {
    min_hitting_set_scratch(sets, upper, &mut Scratch::new())
}

/// The solver body behind [`min_hitting_set_bits`], with caller-owned
/// scratch so the per-witness loop of [`min_contingency_bits`] (and any
/// other repeated solver) allocates its buffers once.
fn min_hitting_set_scratch(
    sets: &[VarSet],
    upper: Option<usize>,
    scratch: &mut Scratch,
) -> Option<Vec<u32>> {
    if sets.iter().any(VarSet::is_empty) {
        return None;
    }
    scratch.prepare(sets);
    // Greedy upper bound: always pick the most frequent element.
    let greedy = greedy_hitting_set_bits(sets, scratch);
    let mut best: Option<Vec<u32>> = match upper {
        Some(u) if greedy.len() >= u => None,
        _ => Some(greedy),
    };
    let sizes: Vec<usize> = sets.iter().map(VarSet::len).collect();
    let mut chosen: Vec<u32> = Vec::new();
    branch(sets, &sizes, &mut chosen, &mut best, upper, scratch);
    best
}

/// Reusable buffers for the greedy pass and the branch-and-bound: a
/// frequency table over the dense id universe, a chosen-elements mask,
/// and a packing mask. [`Scratch::prepare`] grows them to the current
/// set system's width; uses clear by word fill, never by realloc.
#[derive(Default)]
struct Scratch {
    counts: Vec<u32>,
    chosen_mask: VarSet,
    blocked: VarSet,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch::default()
    }

    /// Grow the frequency table to cover every id the set system can
    /// mention (the masks grow on demand via `VarSet::insert`).
    fn prepare(&mut self, sets: &[VarSet]) {
        let words = sets.iter().map(VarSet::word_count).max().unwrap_or(0);
        if self.counts.len() < words * 64 {
            self.counts.resize(words * 64, 0);
        }
    }
}

fn greedy_hitting_set_bits(sets: &[VarSet], scratch: &mut Scratch) -> Vec<u32> {
    let mut chosen: Vec<u32> = Vec::new();
    let mut uncovered: Vec<&VarSet> = sets.iter().collect();
    while !uncovered.is_empty() {
        // Most frequent element among uncovered sets; ties break toward
        // the smallest id (= smallest TupleRef), as in the seed.
        scratch.counts.fill(0);
        for s in &uncovered {
            for v in s.iter() {
                scratch.counts[v] += 1;
            }
        }
        let (pick, _) = scratch
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .max_by_key(|&(v, &c)| (c, std::cmp::Reverse(v)))
            .expect("uncovered sets are non-empty");
        chosen.push(pick as u32);
        uncovered.retain(|s| !s.contains(pick));
    }
    chosen
}

fn branch(
    sets: &[VarSet],
    sizes: &[usize],
    chosen: &mut Vec<u32>,
    best: &mut Option<Vec<u32>>,
    upper: Option<usize>,
    scratch: &mut Scratch,
) {
    // Exclusive cap: the greedy seed is already in `best`, so this
    // prunes from the first node rather than after the first full
    // descent.
    let cap = match (best.as_ref().map(Vec::len), upper) {
        (Some(b), Some(u)) => Some(b.min(u)),
        (Some(b), None) => Some(b),
        (None, u) => u,
    };
    // Uncovered sets: one word-wise intersection test each.
    scratch.chosen_mask.clear();
    for &v in chosen.iter() {
        scratch.chosen_mask.insert(v as usize);
    }
    let uncovered: Vec<usize> = (0..sets.len())
        .filter(|&i| !sets[i].intersects(&scratch.chosen_mask))
        .collect();
    if uncovered.is_empty() {
        if best.as_ref().is_none_or(|b| chosen.len() < b.len()) {
            *best = Some(chosen.clone());
        }
        return;
    }
    // Lower bound: greedy packing of pairwise-disjoint uncovered sets.
    let mut lb = 0usize;
    scratch.blocked.clear();
    for &i in &uncovered {
        if !sets[i].intersects(&scratch.blocked) {
            lb += 1;
            scratch.blocked.union_with(&sets[i]);
        }
    }
    if let Some(cap) = cap {
        if chosen.len() + lb >= cap {
            return;
        }
    }
    // Branch on the smallest uncovered set (first minimum, as in the
    // seed's `min_by_key`).
    let pivot = *uncovered
        .iter()
        .min_by_key(|&&i| sizes[i])
        .expect("uncovered non-empty");
    let pivot_elems: Vec<usize> = sets[pivot].iter().collect();
    for v in pivot_elems {
        chosen.push(v as u32);
        branch(sets, sizes, chosen, best, upper, scratch);
        chosen.pop();
    }
}

pub mod oracle {
    //! The seed `BTreeSet` contingency and hitting-set solvers, retained
    //! verbatim as the differential oracle for the bitset kernels (and
    //! as the "before" side of the `lineage_kernels` bench). Nothing on
    //! a serving path calls these; do not optimise them.

    use causality_engine::TupleRef;
    use causality_lineage::Dnf;
    use std::collections::BTreeSet;

    /// Seed minimum Why-So contingency over a minimized n-lineage.
    pub fn min_contingency_from_lineage(phin: &Dnf, t: TupleRef) -> Option<Vec<TupleRef>> {
        if !phin.mentions(t) || phin.is_tautology() {
            return None;
        }
        let witnesses: Vec<&causality_lineage::Conjunct> =
            phin.conjuncts().iter().filter(|c| c.contains(t)).collect();
        let others: Vec<&causality_lineage::Conjunct> =
            phin.conjuncts().iter().filter(|c| !c.contains(t)).collect();

        let mut best: Option<Vec<TupleRef>> = None;
        for witness in witnesses {
            let sets: Vec<BTreeSet<TupleRef>> = others
                .iter()
                .map(|c| c.vars().filter(|v| !witness.contains(*v)).collect())
                .collect();
            if sets.iter().any(BTreeSet::is_empty) {
                continue;
            }
            let bound = best.as_ref().map(Vec::len);
            if let Some(hit) = min_hitting_set(&sets, bound) {
                if best.as_ref().is_none_or(|b| hit.len() < b.len()) {
                    best = Some(hit);
                }
            }
        }
        best
    }

    /// Seed exact minimum hitting set (exclusive `upper` bound).
    pub fn min_hitting_set(
        sets: &[BTreeSet<TupleRef>],
        upper: Option<usize>,
    ) -> Option<Vec<TupleRef>> {
        if sets.iter().any(BTreeSet::is_empty) {
            return None;
        }
        let greedy = greedy_hitting_set(sets);
        let mut best: Option<Vec<TupleRef>> = match upper {
            Some(u) if greedy.len() >= u => None,
            _ => Some(greedy),
        };
        let mut chosen: Vec<TupleRef> = Vec::new();
        branch(sets, &mut chosen, &mut best, upper);
        best
    }

    fn greedy_hitting_set(sets: &[BTreeSet<TupleRef>]) -> Vec<TupleRef> {
        let mut chosen: Vec<TupleRef> = Vec::new();
        let mut uncovered: Vec<&BTreeSet<TupleRef>> = sets.iter().collect();
        while !uncovered.is_empty() {
            let mut counts: std::collections::HashMap<TupleRef, usize> =
                std::collections::HashMap::new();
            for s in &uncovered {
                for v in s.iter() {
                    *counts.entry(*v).or_insert(0) += 1;
                }
            }
            let (&pick, _) = counts
                .iter()
                .max_by_key(|(v, c)| (**c, std::cmp::Reverse(**v)))
                .expect("uncovered sets are non-empty");
            chosen.push(pick);
            uncovered.retain(|s| !s.contains(&pick));
        }
        chosen
    }

    fn branch(
        sets: &[BTreeSet<TupleRef>],
        chosen: &mut Vec<TupleRef>,
        best: &mut Option<Vec<TupleRef>>,
        upper: Option<usize>,
    ) {
        let cap = match (best.as_ref().map(Vec::len), upper) {
            (Some(b), Some(u)) => Some(b.min(u)),
            (Some(b), None) => Some(b),
            (None, u) => u,
        };
        let uncovered: Vec<&BTreeSet<TupleRef>> = sets
            .iter()
            .filter(|s| !s.iter().any(|v| chosen.contains(v)))
            .collect();
        if uncovered.is_empty() {
            if best.as_ref().is_none_or(|b| chosen.len() < b.len()) {
                *best = Some(chosen.clone());
            }
            return;
        }
        let mut lb = 0usize;
        let mut blocked: BTreeSet<TupleRef> = BTreeSet::new();
        for s in &uncovered {
            if s.iter().all(|v| !blocked.contains(v)) {
                lb += 1;
                blocked.extend(s.iter().copied());
            }
        }
        if let Some(cap) = cap {
            if chosen.len() + lb >= cap {
                return;
            }
        }
        let pivot = uncovered
            .iter()
            .min_by_key(|s| s.len())
            .expect("uncovered non-empty");
        for v in pivot.iter() {
            chosen.push(*v);
            branch(sets, chosen, best, upper);
            chosen.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::smallest_whyso_contingency;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, Schema, Value};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    fn tref(db: &Database, rel: &str, tuple: causality_engine::Tuple) -> TupleRef {
        let rid = db.relation_id(rel).unwrap();
        TupleRef {
            rel: rid,
            row: db.relation(rid).find(&tuple).unwrap(),
        }
    }

    #[test]
    fn hitting_set_basics() {
        let t = |i: u32| TupleRef::new(0, i);
        let set = |xs: &[u32]| xs.iter().map(|&i| t(i)).collect::<BTreeSet<_>>();
        // Single set: pick any one element.
        assert_eq!(min_hitting_set(&[set(&[1, 2, 3])], None).unwrap().len(), 1);
        // Disjoint sets need one element each.
        let sets = [set(&[1, 2]), set(&[3, 4]), set(&[5, 6])];
        assert_eq!(min_hitting_set(&sets, None).unwrap().len(), 3);
        // A shared element hits everything.
        let sets = [set(&[1, 2]), set(&[1, 3]), set(&[1, 4])];
        let hit = min_hitting_set(&sets, None).unwrap();
        assert_eq!(hit, vec![t(1)]);
        // Empty set: impossible.
        assert!(min_hitting_set(&[BTreeSet::new()], None).is_none());
        // No sets: empty hitting set.
        assert_eq!(min_hitting_set(&[], None).unwrap().len(), 0);
        // Exclusive upper bound.
        let sets = [set(&[1]), set(&[2])];
        assert!(min_hitting_set(&sets, Some(2)).is_none());
        assert!(min_hitting_set(&sets, Some(3)).is_some());
    }

    #[test]
    fn hitting_set_vertex_cover_instance() {
        // Triangle as 2-element sets: minimum hitting set = min VC = 2.
        let t = |i: u32| TupleRef::new(0, i);
        let set = |xs: &[u32]| xs.iter().map(|&i| t(i)).collect::<BTreeSet<_>>();
        let sets = [set(&[0, 1]), set(&[1, 2]), set(&[2, 0])];
        assert_eq!(min_hitting_set(&sets, None).unwrap().len(), 2);
    }

    #[test]
    fn bitset_hitting_set_is_identical_to_oracle() {
        let t = |i: u32| TupleRef::new(i % 3, i / 3);
        let set = |xs: &[u32]| xs.iter().map(|&i| t(i)).collect::<BTreeSet<_>>();
        let instances: Vec<Vec<BTreeSet<TupleRef>>> = vec![
            vec![set(&[1, 2, 3])],
            vec![set(&[1, 2]), set(&[3, 4]), set(&[5, 6])],
            vec![set(&[1, 2]), set(&[1, 3]), set(&[1, 4])],
            vec![set(&[0, 1]), set(&[1, 2]), set(&[2, 0])],
            vec![set(&[0, 5, 9]), set(&[5, 7]), set(&[9, 7]), set(&[0, 7])],
            vec![],
        ];
        for sets in &instances {
            for upper in [None, Some(1), Some(2), Some(3), Some(10)] {
                assert_eq!(
                    min_hitting_set(sets, upper),
                    oracle::min_hitting_set(sets, upper),
                    "sets {sets:?} upper {upper:?}"
                );
            }
        }
    }

    /// Example 2.2 answer a4: responsibility of S(a3) is 1/2 with
    /// contingency {S(a2)}.
    #[test]
    fn example_2_2_responsibility() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let s_a3 = tref(&db, "S", tup!["a3"]);
        let r = why_so_responsibility_exact(&db, &query, s_a3).unwrap();
        assert!((r.rho - 0.5).abs() < 1e-12);
        assert_eq!(r.min_contingency.as_ref().unwrap().len(), 1);
    }

    /// Counterfactual cause: responsibility 1.
    #[test]
    fn counterfactual_has_rho_one() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a2")]);
        let s_a1 = tref(&db, "S", tup!["a1"]);
        let r = why_so_responsibility_exact(&db, &query, s_a1).unwrap();
        assert_eq!(r.rho, 1.0);
        assert!(r.is_counterfactual());
    }

    /// Non-cause: responsibility 0.
    #[test]
    fn non_cause_has_rho_zero() {
        let mut db = example_2_2();
        let r = db.relation_id("R").unwrap();
        for t in [tup!["a4", "a3"], tup!["a4", "a2"]] {
            let row = db.relation(r).find(&t).unwrap();
            db.relation_mut(r).set_endogenous(row, false);
        }
        let query = q("q :- R(x, 'a3'), S('a3')");
        let r33 = tref(&db, "R", tup!["a3", "a3"]);
        let resp = why_so_responsibility_exact(&db, &query, r33).unwrap();
        assert_eq!(resp.rho, 0.0);
        assert!(!resp.is_cause());
    }

    /// Cross-validate the lineage-based solver against the literal
    /// Def. 2.1 brute force on every endogenous tuple of Example 2.2.
    #[test]
    fn exact_matches_brute_force_on_example_2_2() {
        let db = example_2_2();
        for answer in ["a2", "a3", "a4"] {
            let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str(answer)]);
            for t in db.endogenous_tuples() {
                let others: Vec<TupleRef> = db
                    .endogenous_tuples()
                    .into_iter()
                    .filter(|&u| u != t)
                    .collect();
                let brute = smallest_whyso_contingency(&db, &query, t, &others).unwrap();
                let fast = why_so_responsibility_exact(&db, &query, t).unwrap();
                match brute {
                    Some(gamma) => {
                        assert!(fast.is_cause(), "answer {answer}, tuple {t:?}");
                        assert_eq!(
                            fast.min_contingency.unwrap().len(),
                            gamma.len(),
                            "answer {answer}, tuple {t:?}"
                        );
                    }
                    None => assert!(!fast.is_cause(), "answer {answer}, tuple {t:?}"),
                }
            }
        }
    }

    /// The bitset contingency solver must return exactly what the seed
    /// solver returned — same tuples, same order — on every tuple of the
    /// worked examples.
    #[test]
    fn contingency_is_identical_to_oracle_on_examples() {
        let db = example_2_2();
        for answer in ["a2", "a3", "a4"] {
            let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str(answer)]);
            let phin = causality_lineage::n_lineage(&db, &query)
                .unwrap()
                .minimized();
            for t in db.endogenous_tuples() {
                assert_eq!(
                    min_contingency_from_lineage(&phin, t),
                    oracle::min_contingency_from_lineage(&phin, t),
                    "answer {answer}, tuple {t:?}"
                );
            }
        }
    }

    /// A triangle (h2*) instance: the exact solver handles the NP-hard
    /// query shape on small data.
    #[test]
    fn triangle_query_exact() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let tt = db.add_relation(Schema::new("T", &["z", "x"]));
        // Two triangles sharing the R edge.
        let r12 = db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        db.insert_endo(tt, tup![3, 1]);
        db.insert_endo(s, tup![2, 4]);
        db.insert_endo(tt, tup![4, 1]);
        let query = q("h2 :- R(x, y), S(y, z), T(z, x)");
        let resp = why_so_responsibility_exact(&db, &query, r12).unwrap();
        assert_eq!(resp.rho, 1.0, "R(1,2) is in every triangle");

        let s23 = tref(&db, "S", tup![2, 3]);
        let resp = why_so_responsibility_exact(&db, &query, s23).unwrap();
        assert!(
            (resp.rho - 0.5).abs() < 1e-12,
            "must break the other triangle"
        );
    }

    #[test]
    fn exogenous_tuple_rejected() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        let t = db.insert_exo(r, tup![1]);
        let err = why_so_responsibility_exact(&db, &q("q :- R(x)"), t).unwrap_err();
        assert!(matches!(err, CoreError::NotEndogenous));
    }

    /// Self-joins are fine for the exact solver (Prop. 4.16 pattern).
    #[test]
    fn self_join_exact() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x"]));
        let s = db.add_relation(Schema::new("S", &["x", "y"]));
        let r0 = db.insert_endo(r, tup![0]);
        db.insert_endo(r, tup![1]);
        db.insert_endo(r, tup![2]);
        db.insert_exo(s, tup![0, 0]);
        db.insert_exo(s, tup![1, 2]);
        let query = q("q :- R(x), S(x, y), R(y)");
        // r0 joins with itself via S(0,0); the other derivation is R(1),R(2).
        let resp = why_so_responsibility_exact(&db, &query, r0).unwrap();
        assert!(
            (resp.rho - 0.5).abs() < 1e-12,
            "cut R(1) or R(2), then r0 counterfactual"
        );
    }
}

//! Interned lineage: dense variable ids and bitset DNF kernels.
//!
//! Every responsibility computation — Algorithm 1's screening, the exact
//! hitting-set solver, Why-No ranking, the parallel top-k ranker —
//! funnels through DNF manipulation over tuple variables. With
//! [`TupleRef`]-keyed `BTreeSet`s, each kernel step (subset test in
//! minimization, restriction, intersection in the branch-and-bound) is a
//! pointer-chasing, allocation-per-call tree walk. The arena fixes the
//! unit of work instead of the call sites:
//!
//! * [`LineageArena`] interns the `TupleRef`s of one query's lineage into
//!   dense `u32` variable ids, **in ascending `TupleRef` order**, so that
//!   ascending-id iteration of a bitset reproduces exactly the iteration
//!   order of the original `BTreeSet`s — algorithms mirrored onto bitsets
//!   stay *result-identical* to the set-based originals, determinism
//!   included.
//! * [`VarSet`] (a [`FixedBitSet`] of variable ids) replaces `Conjunct`'s
//!   `BTreeSet<TupleRef>`: subset = masked AND compare, restriction =
//!   word-wise difference, intersection tests = word-wise AND — no
//!   allocation, no tree walk.
//! * [`BitDnf`] is the DNF in arena form, with the three kernels the
//!   paper's Sect. 3 needs (restriction with true/false, satisfiability,
//!   redundancy removal) plus the derived queries the responsibility
//!   solvers ask (variables, counterfactuals, per-variable conjunct
//!   scans).
//!
//! The public [`Dnf`] API is unchanged — construction still
//! speaks `TupleRef` — but its minimization routes through this module,
//! and the hot solvers in `causality_core` operate on `BitDnf` directly,
//! translating back to `TupleRef`s only at the result boundary. The
//! original `BTreeSet` implementations survive verbatim in
//! [`crate::oracle`] as the differential-testing baseline.

use crate::dnf::{Conjunct, Dnf};
use causality_engine::TupleRef;
use std::collections::HashMap;

pub use causality_graph::bitset::FixedBitSet;

/// A set of interned variable ids — the bitset form of a
/// [`Conjunct`] or contingency set.
pub type VarSet = FixedBitSet;

/// Interner mapping the [`TupleRef`]s of one lineage to dense `u32` ids.
///
/// Ids are assigned in ascending `TupleRef` order by
/// [`LineageArena::from_dnf`], which makes ascending-id order and
/// ascending-`TupleRef` order coincide — the property every mirrored
/// kernel relies on for bit-identical results.
#[derive(Clone, Debug, Default)]
pub struct LineageArena {
    vars: Vec<TupleRef>,
    index: HashMap<TupleRef, u32>,
}

impl LineageArena {
    /// An empty arena.
    pub fn new() -> Self {
        LineageArena::default()
    }

    /// Intern a lineage: collects the DNF's variables (sorted), assigns
    /// dense ids in `TupleRef` order, and packs every conjunct into a
    /// [`VarSet`]. Conjunct order is preserved.
    pub fn from_dnf(phi: &Dnf) -> (Self, BitDnf) {
        let mut arena = LineageArena::new();
        for t in phi.variables() {
            // `Dnf::variables` yields a BTreeSet: ascending TupleRef
            // order, hence ascending ids.
            arena.intern(t);
        }
        let conjuncts = phi
            .conjuncts()
            .iter()
            .map(|c| {
                // Width on demand: each conjunct's buffer spans only up
                // to its own highest id, so a sparse low-id conjunct
                // stays narrow instead of paying full arena width
                // (every word-wise op tolerates mixed widths).
                let mut set = VarSet::new();
                for t in c.vars() {
                    set.insert(arena.id(t).expect("interned above") as usize);
                }
                set
            })
            .collect();
        (arena, BitDnf { conjuncts })
    }

    /// Intern a lineage given flat, as the evaluator emits it: conjunct
    /// `i` is `tuples[ends[i - 1]..ends[i]]` (from 0 for the first), and
    /// a tuple may repeat within a conjunct. The same arena and `BitDnf`
    /// as [`LineageArena::from_dnf`] on the equivalent [`Dnf`]: ids in
    /// ascending `TupleRef` order, conjunct order preserved.
    pub(crate) fn from_flat(tuples: &[TupleRef], ends: &[usize]) -> (Self, BitDnf) {
        let mut vars = tuples.to_vec();
        vars.sort_unstable();
        vars.dedup();
        let mut start = 0;
        let conjuncts = ends
            .iter()
            .map(|&end| {
                let mut set = VarSet::new();
                for t in &tuples[start..end] {
                    set.insert(vars.binary_search(t).expect("interned above"));
                }
                start = end;
                set
            })
            .collect();
        let index = vars
            .iter()
            .enumerate()
            .map(|(id, &t)| (t, id as u32))
            .collect();
        (LineageArena { vars, index }, BitDnf { conjuncts })
    }

    /// Intern one tuple variable, returning its id. Idempotent.
    pub fn intern(&mut self, t: TupleRef) -> u32 {
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let id = self.vars.len() as u32;
        self.vars.push(t);
        self.index.insert(t, id);
        id
    }

    /// The id of `t`, if it was interned.
    pub fn id(&self, t: TupleRef) -> Option<u32> {
        self.index.get(&t).copied()
    }

    /// The tuple behind an id.
    ///
    /// # Panics
    /// If the id was not produced by this arena.
    pub fn resolve(&self, id: u32) -> TupleRef {
        self.vars[id as usize]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variables were interned.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Resolve a [`VarSet`] back to tuples, in ascending id order (which
    /// is ascending `TupleRef` order for [`LineageArena::from_dnf`]
    /// arenas).
    pub fn tuples_of(&self, set: &VarSet) -> Vec<TupleRef> {
        set.iter().map(|id| self.resolve(id as u32)).collect()
    }

    /// Rebuild a [`Conjunct`] from a [`VarSet`].
    pub fn conjunct_of(&self, set: &VarSet) -> Conjunct {
        Conjunct::new(set.iter().map(|id| self.resolve(id as u32)))
    }

    /// Rebuild a full [`Dnf`] from arena form (conjunct order preserved).
    pub fn dnf_of(&self, phi: &BitDnf) -> Dnf {
        Dnf::new(phi.conjuncts.iter().map(|c| self.conjunct_of(c)).collect())
    }
}

/// A positive DNF in arena form: one [`VarSet`] per conjunct. The empty
/// DNF is `false`; a DNF containing the empty conjunct is `true`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitDnf {
    conjuncts: Vec<VarSet>,
}

impl BitDnf {
    /// Build from conjunct bitsets (kept as given; call
    /// [`BitDnf::minimized`] to remove redundancy).
    pub fn new(conjuncts: Vec<VarSet>) -> Self {
        BitDnf { conjuncts }
    }

    /// The conjuncts, in order.
    pub fn conjuncts(&self) -> &[VarSet] {
        &self.conjuncts
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// Whether there are no conjuncts (the constant `false`).
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Satisfiability of a positive DNF: at least one conjunct.
    pub fn is_satisfiable(&self) -> bool {
        !self.conjuncts.is_empty()
    }

    /// Whether the DNF is the constant `true` (has an empty conjunct).
    pub fn is_tautology(&self) -> bool {
        self.conjuncts.iter().any(VarSet::is_empty)
    }

    /// All variables mentioned, as one bitset (word-wise OR).
    pub fn variables(&self) -> VarSet {
        let mut all = VarSet::new();
        for c in &self.conjuncts {
            all.union_with(c);
        }
        all
    }

    /// The variables occurring in *every* conjunct (word-wise AND) — the
    /// counterfactual causes of Theorem 3.2. Empty when there are no
    /// conjuncts.
    pub fn common_variables(&self) -> VarSet {
        let Some(first) = self.conjuncts.first() else {
            return VarSet::new();
        };
        let mut common = first.clone();
        for c in &self.conjuncts[1..] {
            common.intersect_with(c);
        }
        common
    }

    /// Whether variable `v` occurs anywhere.
    pub fn mentions(&self, v: u32) -> bool {
        self.conjuncts.iter().any(|c| c.contains(v as usize))
    }

    /// Evaluate under a truth assignment on variable ids.
    pub fn evaluate(&self, truth: impl Fn(usize) -> bool) -> bool {
        self.conjuncts.iter().any(|c| c.iter().all(&truth))
    }

    /// Restriction `Φ[X_v := true, ∀v ∈ set]`: word-wise difference on
    /// every conjunct (possibly creating the empty conjunct = `true`).
    pub fn assign_true(&self, set: &VarSet) -> BitDnf {
        BitDnf {
            conjuncts: self.conjuncts.iter().map(|c| c.without(set)).collect(),
        }
    }

    /// Restriction `Φ[X_v := false, ∀v ∈ set]`: drop every conjunct
    /// intersecting `set` (one word-wise AND test per conjunct).
    pub fn assign_false(&self, set: &VarSet) -> BitDnf {
        BitDnf {
            conjuncts: self
                .conjuncts
                .iter()
                .filter(|c| !c.intersects(set))
                .cloned()
                .collect(),
        }
    }

    /// Remove redundant conjuncts (Sect. 3): duplicates collapse, and a
    /// conjunct strictly containing another is dropped. Result sorted by
    /// element sequence — the same order `Dnf::minimized` produces — so
    /// downstream scans are deterministic.
    ///
    /// The absorption scan sorts by cardinality first and probes a
    /// candidate only against *strictly smaller* kept conjuncts: after
    /// dedup, an equal-cardinality subset would have to be an equal set,
    /// so equal-size probes are skipped entirely. An already-minimal
    /// DNF of same-size conjuncts (every self-join-free lineage) thus
    /// performs **zero** subset tests instead of the seed's n²/2
    /// tree-walking ones; mixed sizes early-exit on the first differing
    /// word.
    pub fn minimized(&self) -> BitDnf {
        BitDnf {
            conjuncts: self
                .minimal_order()
                .into_iter()
                .map(|i| self.conjuncts[i].clone())
                .collect(),
        }
    }

    /// [`BitDnf::minimized`] on an owned DNF: the surviving conjuncts
    /// move out instead of being copied.
    pub(crate) fn into_minimized(self) -> BitDnf {
        let keep = self.minimal_order();
        let mut slots: Vec<Option<VarSet>> = self.conjuncts.into_iter().map(Some).collect();
        BitDnf {
            conjuncts: keep
                .into_iter()
                .map(|i| slots[i].take().expect("a conjunct is kept once"))
                .collect(),
        }
    }

    /// The indices of the minimal form's conjuncts, in its output order.
    fn minimal_order(&self) -> Vec<usize> {
        // Sort *indices*, not clones: only the surviving conjuncts are
        // ever copied out of `self`.
        let sizes: Vec<usize> = self.conjuncts.iter().map(VarSet::len).collect();
        let mut order: Vec<usize> = (0..self.conjuncts.len()).collect();
        order.sort_by(|&a, &b| {
            sizes[a]
                .cmp(&sizes[b])
                .then_with(|| self.conjuncts[a].cmp_elements(&self.conjuncts[b]))
        });

        let mut kept: Vec<usize> = Vec::new();
        let mut kept_sizes: Vec<usize> = Vec::new();
        let mut prev: Option<usize> = None;
        'outer: for &i in &order {
            // Adjacent-equal dedup (duplicates are neighbours in the
            // sorted order).
            if let Some(p) = prev {
                if sizes[p] == sizes[i] && self.conjuncts[p] == self.conjuncts[i] {
                    continue;
                }
            }
            prev = Some(i);
            // Only kept conjuncts with strictly fewer variables can be
            // strict subsets; `partition_point` finds the boundary in
            // the size-sorted kept list.
            let boundary = kept_sizes.partition_point(|&s| s < sizes[i]);
            for &k in &kept[..boundary] {
                if self.conjuncts[k].is_subset(&self.conjuncts[i]) {
                    continue 'outer;
                }
            }
            kept.push(i);
            kept_sizes.push(sizes[i]);
        }
        // Kept conjuncts are distinct sets, so this order is total.
        kept.sort_by(|&a, &b| self.conjuncts[a].cmp_elements(&self.conjuncts[b]));
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn t(rel: u32, row: u32) -> TupleRef {
        TupleRef::new(rel, row)
    }

    fn c(vars: &[(u32, u32)]) -> Conjunct {
        Conjunct::new(vars.iter().map(|&(r, w)| t(r, w)))
    }

    fn vs(ids: &[usize]) -> VarSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn interning_is_tupleref_ordered_and_idempotent() {
        let phi = Dnf::new(vec![c(&[(1, 5), (0, 2)]), c(&[(0, 9), (0, 2)])]);
        let (arena, bits) = LineageArena::from_dnf(&phi);
        assert_eq!(arena.len(), 3);
        // Ids follow TupleRef order: (0,2) < (0,9) < (1,5).
        assert_eq!(arena.id(t(0, 2)), Some(0));
        assert_eq!(arena.id(t(0, 9)), Some(1));
        assert_eq!(arena.id(t(1, 5)), Some(2));
        assert_eq!(arena.resolve(2), t(1, 5));
        assert_eq!(arena.id(t(7, 7)), None);
        assert_eq!(bits.conjuncts()[0], vs(&[0, 2]));
        assert_eq!(bits.conjuncts()[1], vs(&[0, 1]));
        // Round trip preserves the DNF.
        assert_eq!(arena.dnf_of(&bits), phi);
        let mut arena2 = arena.clone();
        assert_eq!(arena2.intern(t(0, 2)), 0, "re-interning returns same id");
    }

    #[test]
    fn paper_redundancy_example_in_bits() {
        // Φ = X1X3 ∨ X1X2X3 ∨ X1X4 minimizes to X1X3 ∨ X1X4.
        let phi = Dnf::new(vec![
            c(&[(0, 1), (0, 3)]),
            c(&[(0, 1), (0, 2), (0, 3)]),
            c(&[(0, 1), (0, 4)]),
        ]);
        let (arena, bits) = LineageArena::from_dnf(&phi);
        let min = bits.minimized();
        assert_eq!(min.len(), 2);
        assert_eq!(arena.dnf_of(&min), oracle::minimized(&phi));
    }

    #[test]
    fn minimized_matches_oracle_order_exactly() {
        // Mixed sizes, duplicates, an absorbing small conjunct, and the
        // classic sequence-order witness {1,5} vs {2}.
        let phi = Dnf::new(vec![
            c(&[(0, 2)]),
            c(&[(0, 1), (0, 5)]),
            c(&[(0, 2), (0, 7)]),
            c(&[(0, 1), (0, 5)]),
            c(&[(0, 3), (0, 4), (0, 6)]),
        ]);
        let (arena, bits) = LineageArena::from_dnf(&phi);
        assert_eq!(arena.dnf_of(&bits.minimized()), oracle::minimized(&phi));
    }

    #[test]
    fn tautology_and_unsatisfiable() {
        let (_, empty) = LineageArena::from_dnf(&Dnf::unsatisfiable());
        assert!(!empty.is_satisfiable());
        assert!(empty.variables().is_empty());
        assert!(empty.common_variables().is_empty());

        let phi = Dnf::new(vec![Conjunct::empty(), c(&[(0, 1)])]);
        let (_, bits) = LineageArena::from_dnf(&phi);
        assert!(bits.is_tautology());
        let min = bits.minimized();
        assert_eq!(min.len(), 1, "empty conjunct subsumes everything");
        assert!(min.is_tautology());
    }

    #[test]
    fn assign_true_and_false_mirror_dnf() {
        let phi = Dnf::new(vec![
            c(&[(0, 1), (1, 0)]),
            c(&[(0, 2), (1, 0)]),
            c(&[(0, 2)]),
        ]);
        let (arena, bits) = LineageArena::from_dnf(&phi);
        let mask: VarSet = [arena.id(t(1, 0)).unwrap() as usize].into_iter().collect();

        let set: std::collections::BTreeSet<TupleRef> = [t(1, 0)].into_iter().collect();
        assert_eq!(
            arena.dnf_of(&bits.assign_true(&mask)),
            phi.assign_true(&set)
        );
        assert_eq!(
            arena.dnf_of(&bits.assign_false(&mask)),
            phi.assign_false(&set)
        );
    }

    #[test]
    fn variable_queries() {
        let phi = Dnf::new(vec![c(&[(0, 1), (0, 2)]), c(&[(0, 1), (0, 3)])]);
        let (arena, bits) = LineageArena::from_dnf(&phi);
        let x1 = arena.id(t(0, 1)).unwrap();
        let x3 = arena.id(t(0, 3)).unwrap();
        assert!(bits.mentions(x1) && bits.mentions(x3));
        assert!(!bits.mentions(99));
        assert_eq!(bits.variables().len(), 3);
        let common = bits.common_variables();
        assert!(common.contains(x1 as usize));
        assert_eq!(common.len(), 1, "only X1 is in every conjunct");
        assert!(bits.evaluate(|v| v == x1 as usize || v == x3 as usize));
        assert!(!bits.evaluate(|v| v == x3 as usize));
    }

    #[test]
    fn minimized_same_size_conjuncts_skip_all_probes() {
        // 100 distinct size-2 conjuncts: already minimal; output equals
        // the oracle's (correctness of the zero-probe fast path).
        let phi = Dnf::new((0..100).map(|i| c(&[(0, i), (1, i)])).collect::<Vec<_>>());
        let (arena, bits) = LineageArena::from_dnf(&phi);
        assert_eq!(arena.dnf_of(&bits.minimized()), oracle::minimized(&phi));
    }
}

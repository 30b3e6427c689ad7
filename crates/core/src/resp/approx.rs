//! Anytime Why-So responsibility: certified `[lower, upper]` bounds on
//! ρ for the NP-hard side of the dichotomy.
//!
//! Exact responsibility reduces to a minimum hitting set over witness
//! residuals (see [`super::exact`]); for non-weakly-linear queries that
//! problem is NP-hard (Sect. 4 of the paper), so a deadline-bound
//! serving tier cannot always afford the exact branch-and-bound. This
//! module trades exactness for *certified* bounds:
//!
//! - Any **feasible** contingency of size `g` proves `ρ ≥ 1/(1+g)` —
//!   the greedy hitting set supplies one in polynomial time, so a
//!   sound lower bound exists even at budget zero.
//! - Any **lower bound** `b ≤ |Γ_min|` proves `ρ ≤ 1/(1+b)`. Three such
//!   bounds are always available without search, where `n` counts the
//!   residual sets of the witness: a greedy packing of pairwise-disjoint
//!   residual sets; the **degree bound** `⌈n/Δ⌉`, since no element lies
//!   in more than `Δ` of the sets; and the classic set-cover guarantee
//!   `g ≤ (ln n + 1)·|Γ_min|` (so `|Γ_min| ≥ ⌈g/(ln n+1)⌉`) for a
//!   witness whose greedy set `g` was computed. The search prunes every
//!   node on the larger of the packing and degree bounds over the sets
//!   still open.
//!
//! Whether `t` is a cause *at all* is decided exactly — membership in
//! the minimized lineage and witness feasibility are polynomial checks
//! — so `[0, 0]` ("not a cause") and `[1, 1]` ("counterfactual") are
//! never approximate.
//!
//! The anytime refinement then runs **iterative deepening** on the
//! decision problem "is there a hitting set of size ≤ m", from the
//! certified minimum upward, under a step/deadline budget:
//!
//! - a level `m` that completes with no solution certifies
//!   `|Γ_min| ≥ m + 1`, tightening `upper`;
//! - the first level that finds a solution pins `|Γ_min| = m` exactly
//!   (all smaller sizes were already refuted) and the bounds collapse;
//! - budget exhaustion mid-level keeps the bounds from the last
//!   completed level — still sound.
//!
//! Bounds therefore tighten **monotonically**: `lower` never decreases,
//! `upper` never increases, and `lower ≤ ρ ≤ upper` holds at every
//! intermediate step (property-tested differentially against the exact
//! oracle in `tests/approx_differential.rs`).
//!
//! The work is split in two phases on a per-request packed kernel
//! (`AnytimeKernel`). The lineage is packed once into contiguous `u64`
//! rows, padded to the widest conjunct; residual sets are computed into
//! reused buffers, the greedy keeps incremental element counts, and the
//! search runs on word slices with no per-node allocation.
//!
//! 1. **Bracket** (budget-free): the certified size floor and a greedy
//!    contingency for one cause. Every witness gets its packing and
//!    degree floor; one whose floor already reaches the best contingency
//!    so far cannot beat it and skips its greedy. When the best
//!    contingency is no larger than the smallest floor the bracket has
//!    collapsed without search.
//! 2. **Refine** (budgeted): the iterative deepening above. A refinement
//!    whose budget is already spent returns its bracket at once.
//!
//! [`anytime_min_contingency`] runs both phases for one cause;
//! [`crate::explain::Explainer::why_anytime`] brackets every cause
//! before it refines any, so a deadline is spent on refinement only.
//! The seed per-witness kernel survives in [`oracle`] as the
//! differential baseline, with its packing and `ln n + 1` floors only.
//! At every clock-free budget the packed kernel's bracket lies inside
//! the seed kernel's, at budget zero both return the same greedy
//! contingency, and at an unlimited budget both reach the same certified
//! minimum while the packed kernel expands no more search nodes.

pub mod oracle;

use causality_lineage::{BitDnf, VarSet};
use std::time::Instant;

/// Certified bracket on a responsibility value: `lower ≤ ρ ≤ upper`.
///
/// Produced by [`anytime_min_contingency`]; `lower` is witnessed by a
/// feasible contingency, `upper` by a proven lower bound on the minimum
/// contingency size. `lower == upper` means ρ is known exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhoBounds {
    /// Certified lower bound on ρ (a feasible contingency exists).
    pub lower: f64,
    /// Certified upper bound on ρ (no smaller contingency can exist).
    pub upper: f64,
}

impl RhoBounds {
    /// A collapsed bracket: ρ is known exactly.
    pub fn exact(rho: f64) -> RhoBounds {
        RhoBounds {
            lower: rho,
            upper: rho,
        }
    }

    /// Bounds from contingency *sizes*: a feasible contingency of
    /// `feasible` tuples and a certified minimum size of `certified`.
    pub fn from_sizes(feasible: usize, certified: usize) -> RhoBounds {
        RhoBounds {
            lower: 1.0 / (1.0 + feasible as f64),
            upper: 1.0 / (1.0 + certified as f64),
        }
    }

    /// Whether the bracket has collapsed to a point.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// Bracket width `upper - lower` (0 when exact).
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether `rho` lies inside the bracket.
    pub fn contains(&self, rho: f64) -> bool {
        self.lower <= rho && rho <= self.upper
    }
}

/// Work budget for the anytime refinement: a step cap (one step per
/// search node) and an optional wall-clock deadline. The greedy bounds
/// are computed regardless — only *refinement* consumes budget, so
/// [`ApproxBudget::zero`] still yields a sound bracket.
#[derive(Debug, Clone, Copy)]
pub struct ApproxBudget {
    /// Maximum number of search nodes the refinement may expand.
    pub max_steps: u64,
    /// Hard wall-clock cutoff for refinement work.
    pub deadline: Option<Instant>,
}

impl ApproxBudget {
    /// No refinement at all: the greedy set and the search-free floors only.
    pub fn zero() -> ApproxBudget {
        ApproxBudget {
            max_steps: 0,
            deadline: None,
        }
    }

    /// Unbounded refinement — runs until the bounds collapse (exact).
    pub fn unlimited() -> ApproxBudget {
        ApproxBudget {
            max_steps: u64::MAX,
            deadline: None,
        }
    }

    /// A pure step budget (deterministic, clock-free).
    pub fn steps(max_steps: u64) -> ApproxBudget {
        ApproxBudget {
            max_steps,
            deadline: None,
        }
    }

    /// A pure wall-clock budget: refine until `deadline`.
    pub fn until(deadline: Instant) -> ApproxBudget {
        ApproxBudget {
            max_steps: u64::MAX,
            deadline: Some(deadline),
        }
    }
}

/// Result of an anytime responsibility computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeOutcome {
    /// Certified bracket on ρ. `[0, 0]` when `v` is not a cause.
    pub bounds: RhoBounds,
    /// Best feasible contingency found (arena variable ids, in the
    /// order chosen); witnesses `bounds.lower`. `None` iff not a cause.
    pub contingency: Option<Vec<u32>>,
    /// Certified lower bound on the minimum contingency size
    /// (meaningful only when `v` is a cause).
    pub certified_min_size: usize,
    /// Completed refinement levels (each one tightened a bound).
    pub refinements: u32,
    /// Search nodes expanded by the refinement.
    pub steps_used: u64,
    /// Bracket after the greedy pass and after each refinement — the
    /// monotone-tightening trail the differential tests check.
    pub history: Vec<RhoBounds>,
}

impl AnytimeOutcome {
    /// Whether the bracket collapsed (ρ known exactly).
    pub fn is_exact(&self) -> bool {
        self.bounds.is_exact()
    }

    fn not_a_cause() -> AnytimeOutcome {
        AnytimeOutcome {
            bounds: RhoBounds::exact(0.0),
            contingency: None,
            certified_min_size: 0,
            refinements: 0,
            steps_used: 0,
            history: vec![RhoBounds::exact(0.0)],
        }
    }
}

/// The set-cover/hitting-set greedy guarantee for `n` sets:
/// `greedy ≤ (ln n + 1) · optimum`.
pub fn harmonic_bound(n: usize) -> f64 {
    if n == 0 {
        1.0
    } else {
        (n as f64).ln() + 1.0
    }
}

/// Step/deadline accounting for the refinement search. The deadline is
/// polled every 64 steps to keep `Instant::now` off the hot path.
struct BudgetTracker {
    max_steps: u64,
    deadline: Option<Instant>,
    steps: u64,
    expired: bool,
}

impl BudgetTracker {
    fn new(budget: ApproxBudget) -> BudgetTracker {
        let expired = budget.deadline.is_some_and(|d| Instant::now() >= d);
        BudgetTracker {
            max_steps: budget.max_steps,
            deadline: budget.deadline,
            steps: 0,
            expired,
        }
    }

    /// Whether the budget is gone, so the next step would fail.
    fn spent(&self) -> bool {
        self.expired || self.steps >= self.max_steps
    }

    /// Consume one step; `false` once the budget is gone.
    fn step(&mut self) -> bool {
        if self.spent() {
            self.expired = true;
            return false;
        }
        self.steps += 1;
        if self.steps.is_multiple_of(64) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.expired = true;
                    return false;
                }
            }
        }
        true
    }
}

/// A cause's budget-free bracket: the output of
/// [`AnytimeKernel::bracket`] and the input of [`AnytimeKernel::refine`].
pub(crate) struct Bracket {
    /// The cause's arena variable.
    v: u32,
    /// The shortest per-witness greedy contingency (the first one on
    /// ties); witnesses the bracket's `lower`.
    best: Vec<u32>,
    /// Certified lower bound on `|Γ_min|`.
    certified: usize,
    /// The feasible witnesses in conjunct order, each with the certified
    /// lower bound on its own minimum hitting set.
    witnesses: Vec<(usize, usize)>,
}

/// The per-request packed anytime kernel.
///
/// The lineage is packed once into contiguous `u64` rows, one per
/// conjunct and all as wide as the widest conjunct. A witness's
/// residual sets `c ∖ w` are written into a reused buffer, the greedy
/// keeps incremental element counts, and the search runs on word
/// slices, so neither phase allocates per residual set or per search
/// node. Its brackets lie inside the seed kernel's in [`oracle`].
pub(crate) struct AnytimeKernel {
    /// `u64` words per row.
    words: usize,
    /// The lineage, one `words`-wide row per conjunct, in conjunct order.
    rows: Vec<u64>,
    // Scratch, reused across causes and witnesses.
    others: Vec<usize>,
    residuals: Vec<u64>,
    sizes: Vec<u32>,
    counts: Vec<u32>,
    covered: Vec<bool>,
    chosen: Vec<u32>,
    mask: Vec<u64>,
    blocked: Vec<u64>,
}

impl AnytimeKernel {
    /// Pack a *minimized* arena-form n-lineage.
    pub(crate) fn new(phin: &BitDnf) -> AnytimeKernel {
        let words = phin
            .conjuncts()
            .iter()
            .map(VarSet::word_count)
            .max()
            .unwrap_or(0)
            .max(1);
        let mut rows = vec![0u64; phin.len() * words];
        for (row, c) in rows.chunks_exact_mut(words).zip(phin.conjuncts()) {
            for e in c.iter() {
                row[e / 64] |= 1 << (e % 64);
            }
        }
        AnytimeKernel {
            words,
            rows,
            others: Vec::new(),
            residuals: Vec::new(),
            sizes: Vec::new(),
            counts: vec![0; words * 64],
            covered: Vec::new(),
            chosen: Vec::new(),
            mask: vec![0; words],
            blocked: vec![0; words],
        }
    }

    fn contains(&self, row: usize, v: u32) -> bool {
        let w = v as usize / 64;
        w < self.words && self.rows[row * self.words + w] >> (v % 64) & 1 == 1
    }

    /// Collect the rows that do not contain `v` into `others`.
    fn split(&mut self, v: u32) {
        self.others.clear();
        for row in 0..self.rows.len() / self.words {
            if !self.contains(row, v) {
                self.others.push(row);
            }
        }
    }

    /// The budget-free phase: greedy feasible contingency plus certified
    /// size lower bound per witness, decided exactly for cause-ness. A
    /// witness whose floor already reaches the best contingency skips its
    /// greedy. `None` iff `v` is not a cause.
    pub(crate) fn bracket(&mut self, v: u32) -> Option<Bracket> {
        let words = self.words;
        self.split(v);
        let n = self.others.len();
        self.residuals.resize(n * words, 0);
        let mut best: Option<Vec<u32>> = None;
        let mut witnesses = Vec::new();
        for w in 0..self.rows.len() / words {
            if !self.contains(w, v) {
                continue;
            }
            let sets = &mut self.residuals;
            if !fill_residuals(&self.rows, words, &self.others, w, sets) {
                // A conjunct lies inside the witness — infeasible (cannot
                // happen in a minimized DNF, mirrored from `exact`).
                continue;
            }
            self.counts.fill(0);
            let most = sets
                .chunks_exact(words)
                .map(|s| tally(&mut self.counts, s))
                .max()
                .unwrap_or(0);
            let floor = packing_bound(sets, words, &mut self.blocked).max(degree_bound(n, most));
            // The witness's greedy set is at least its minimum, hence its
            // floor: one whose floor reaches the best cannot beat it.
            if best.as_ref().is_some_and(|b| floor >= b.len()) {
                witnesses.push((w, floor));
                continue;
            }
            greedy_hitting_set(
                sets,
                words,
                &mut self.counts,
                &mut self.covered,
                &mut self.chosen,
            );
            let harmonic = (self.chosen.len() as f64 / harmonic_bound(n)).ceil() as usize;
            witnesses.push((w, floor.max(harmonic)));
            if best.as_ref().is_none_or(|b| self.chosen.len() < b.len()) {
                best = Some(self.chosen.clone());
            }
        }
        let best = best?;
        // |Γ_min| is the min over witnesses, so only the *smallest*
        // per-witness lower bound is certified globally.
        let certified = witnesses
            .iter()
            .map(|&(_, lower)| lower)
            .min()
            .expect("a feasible witness")
            .min(best.len());
        Some(Bracket {
            v,
            best,
            certified,
            witnesses,
        })
    }

    /// The budgeted phase: iterative deepening from the certified floor.
    /// Each completed level either refutes size m everywhere (upper
    /// tightens) or finds a solution of size exactly m (bounds collapse
    /// — every smaller size was already refuted).
    pub(crate) fn refine(
        &mut self,
        bracket: Option<Bracket>,
        budget: ApproxBudget,
    ) -> AnytimeOutcome {
        let Some(Bracket {
            v,
            mut best,
            mut certified,
            witnesses,
        }) = bracket
        else {
            return AnytimeOutcome::not_a_cause();
        };
        let mut history = vec![RhoBounds::from_sizes(best.len(), certified)];
        let mut refinements = 0u32;
        let mut tracker = BudgetTracker::new(budget);
        // A budget spent before the first step would fail that step:
        // return the bracket without rebuilding the residual sets.
        if certified < best.len() && !tracker.spent() {
            let words = self.words;
            self.split(v);
            let n = self.others.len();
            self.residuals.resize(n * words, 0);
            self.sizes.resize(n, 0);
            'refine: while certified < best.len() {
                let level = certified;
                let mut found = false;
                for &(w, lower) in &witnesses {
                    if lower > level {
                        continue; // this witness cannot beat the level — already certified
                    }
                    // One witness's residuals at a time: memory stays at
                    // one lineage's worth however many witnesses there are.
                    let sets = &mut self.residuals;
                    fill_residuals(&self.rows, words, &self.others, w, sets);
                    for (size, s) in self.sizes.iter_mut().zip(sets.chunks_exact(words)) {
                        *size = s.iter().map(|w| w.count_ones()).sum();
                    }
                    self.chosen.clear();
                    self.mask.fill(0);
                    let mut search = Search {
                        sets: &self.residuals,
                        sizes: &self.sizes,
                        words,
                        limit: level,
                        mask: &mut self.mask,
                        blocked: &mut self.blocked,
                        counts: &mut self.counts,
                        chosen: &mut self.chosen,
                        tracker: &mut tracker,
                    };
                    match search.run() {
                        Ok(true) => {
                            best.clone_from(&self.chosen);
                            found = true;
                            break;
                        }
                        Ok(false) => {}
                        Err(()) => break 'refine, // budget gone mid-level: keep last certified bounds
                    }
                }
                certified = if found { best.len() } else { level + 1 };
                refinements += 1;
                history.push(RhoBounds::from_sizes(best.len(), certified));
            }
        }
        AnytimeOutcome {
            bounds: RhoBounds::from_sizes(best.len(), certified),
            contingency: Some(best),
            certified_min_size: certified,
            refinements,
            steps_used: tracker.steps,
            history,
        }
    }
}

/// Write `c ∖ witness` for every row `c` in `others` into `out`, one
/// `words`-wide row each; `false` as soon as one comes out empty.
fn fill_residuals(
    rows: &[u64],
    words: usize,
    others: &[usize],
    witness: usize,
    out: &mut [u64],
) -> bool {
    let w = &rows[witness * words..(witness + 1) * words];
    for (dst, &c) in out.chunks_exact_mut(words).zip(others) {
        let mut any = 0;
        for ((d, &a), &b) in dst.iter_mut().zip(&rows[c * words..(c + 1) * words]).zip(w) {
            *d = a & !b;
            any |= *d;
        }
        if any == 0 {
            return false;
        }
    }
    true
}

/// The elements of a packed row, ascending.
fn elems(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(i, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + bit
            })
        })
    })
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

fn or_into(acc: &mut [u64], s: &[u64]) {
    for (a, &b) in acc.iter_mut().zip(s) {
        *a |= b;
    }
}

/// Greedy hitting set: repeatedly pick the most frequent element among
/// uncovered sets (ties toward the smallest id, as in the exact
/// solver's seed), keeping the counts incrementally. `counts` enters
/// holding every element's count over `sets` (the degree bound's tally)
/// and is used up. Feasibility is guaranteed for non-empty input sets.
fn greedy_hitting_set(
    sets: &[u64],
    words: usize,
    counts: &mut [u32],
    covered: &mut Vec<bool>,
    chosen: &mut Vec<u32>,
) {
    let mut uncovered = sets.len() / words;
    covered.clear();
    covered.resize(uncovered, false);
    chosen.clear();
    while uncovered > 0 {
        let (mut pick, mut most) = (0, 0);
        for (e, &c) in counts.iter().enumerate() {
            if c > most {
                (pick, most) = (e, c);
            }
        }
        chosen.push(pick as u32);
        let (w, bit) = (pick / 64, 1u64 << (pick % 64));
        for (s, done) in sets.chunks_exact(words).zip(covered.iter_mut()) {
            if !*done && s[w] & bit != 0 {
                *done = true;
                uncovered -= 1;
                for e in elems(s) {
                    counts[e] -= 1;
                }
            }
        }
    }
}

/// Add the elements of `s` to `counts`; the largest count it touched.
fn tally(counts: &mut [u32], s: &[u64]) -> u32 {
    elems(s)
        .map(|e| {
            counts[e] += 1;
            counts[e]
        })
        .max()
        .unwrap_or(0)
}

/// The degree bound: when no element lies in more than `most` of `n`
/// sets, every hitting set needs at least `⌈n / most⌉` elements.
fn degree_bound(n: usize, most: u32) -> usize {
    n.div_ceil(most.max(1) as usize)
}

/// Greedy packing of pairwise-disjoint sets: each packed set needs its
/// own element, so the count lower-bounds the hitting-set size.
fn packing_bound(sets: &[u64], words: usize, blocked: &mut [u64]) -> usize {
    blocked.fill(0);
    let mut lb = 0usize;
    for s in sets.chunks_exact(words) {
        if !intersects(s, blocked) {
            lb += 1;
            or_into(blocked, s);
        }
    }
    lb
}

/// One witness's depth-limited search: is there a hitting set of size
/// ≤ `limit`? `Ok(true)` leaves the solution in `chosen`; `Err(())`
/// means the budget expired mid-search (the level is *not* refuted).
struct Search<'a> {
    sets: &'a [u64],
    sizes: &'a [u32],
    words: usize,
    limit: usize,
    mask: &'a mut [u64],
    blocked: &'a mut [u64],
    counts: &'a mut [u32],
    chosen: &'a mut Vec<u32>,
    tracker: &'a mut BudgetTracker,
}

impl Search<'_> {
    fn run(&mut self) -> Result<bool, ()> {
        if !self.tracker.step() {
            return Err(());
        }
        // One pass finds the uncovered sets, the first smallest of them
        // (the pivot), and the packing and degree bounds over them.
        let sets = self.sets;
        self.blocked.fill(0);
        self.counts.fill(0);
        let (mut packing, mut open, mut most) = (0usize, 0usize, 0u32);
        let mut pivot: Option<usize> = None;
        for (i, s) in sets.chunks_exact(self.words).enumerate() {
            if intersects(s, self.mask) {
                continue;
            }
            if pivot.is_none_or(|p| self.sizes[i] < self.sizes[p]) {
                pivot = Some(i);
            }
            if !intersects(s, self.blocked) {
                packing += 1;
                or_into(self.blocked, s);
            }
            open += 1;
            most = most.max(tally(self.counts, s));
        }
        let Some(pivot) = pivot else {
            return Ok(true);
        };
        let lb = packing.max(degree_bound(open, most));
        if self.chosen.len() + lb > self.limit {
            return Ok(false);
        }
        // Pivot elements are disjoint from `mask` (the set is uncovered),
        // so setting/clearing below never clobbers an earlier choice.
        for e in elems(&sets[pivot * self.words..(pivot + 1) * self.words]) {
            self.chosen.push(e as u32);
            self.mask[e / 64] |= 1 << (e % 64);
            if self.run()? {
                return Ok(true);
            }
            self.mask[e / 64] &= !(1 << (e % 64));
            self.chosen.pop();
        }
        Ok(false)
    }
}

/// Anytime minimum-contingency bounds for variable `v` over a
/// *minimized* arena-form n-lineage (the approximate counterpart of
/// [`super::exact::min_contingency_bits`]). Packs the lineage for this
/// one call; [`crate::explain::Explainer::why_anytime`] packs it once
/// per request instead.
///
/// Always returns a sound bracket; with [`ApproxBudget::unlimited`] the
/// bracket collapses and `contingency` is a true minimum contingency.
pub fn anytime_min_contingency(phin: &BitDnf, v: u32, budget: ApproxBudget) -> AnytimeOutcome {
    let mut kernel = AnytimeKernel::new(phin);
    let bracket = kernel.bracket(v);
    kernel.refine(bracket, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::exact;
    use causality_engine::TupleRef;
    use causality_lineage::{Dnf, LineageArena};

    fn dnf_of(conjuncts: &[&[(u32, u32)]]) -> Dnf {
        Dnf::new(
            conjuncts
                .iter()
                .map(|c| c.iter().map(|&(r, i)| TupleRef::new(r, i)).collect())
                .collect(),
        )
    }

    /// The triangle-fan lineage: witness {R, S0, T0} plus k-1 disjoint
    /// pairs to hit — |Γ_min| = k-1 for S0, counterfactual for R.
    fn fan(k: u32) -> Dnf {
        let conjuncts: Vec<Vec<(u32, u32)>> =
            (0..k).map(|i| vec![(0, 0), (1, i), (2, i)]).collect();
        let slices: Vec<&[(u32, u32)]> = conjuncts.iter().map(Vec::as_slice).collect();
        dnf_of(&slices)
    }

    fn outcome_for(phi: &Dnf, t: TupleRef, budget: ApproxBudget) -> AnytimeOutcome {
        let (arena, bits) = LineageArena::from_dnf(phi);
        let phin = bits.minimized();
        let v = arena.id(t).expect("tuple interned");
        anytime_min_contingency(&phin, v, budget)
    }

    #[test]
    fn counterfactual_is_exact_even_at_budget_zero() {
        let out = outcome_for(&fan(5), TupleRef::new(0, 0), ApproxBudget::zero());
        assert_eq!(out.bounds, RhoBounds::exact(1.0));
        assert!(out.is_exact());
        assert_eq!(out.contingency.as_deref(), Some(&[][..]));
    }

    #[test]
    fn not_a_cause_is_exact_zero() {
        let phi = dnf_of(&[&[(0, 0), (1, 0)]]);
        let (arena, bits) = LineageArena::from_dnf(&phi);
        let phin = bits.minimized();
        assert!(arena.id(TupleRef::new(9, 9)).is_none());
        // A mentioned id that minimization dropped is impossible here;
        // use an out-of-range id to exercise the not-mentioned path.
        let out = anytime_min_contingency(&phin, 7, ApproxBudget::unlimited());
        assert_eq!(out.bounds, RhoBounds::exact(0.0));
        assert!(out.contingency.is_none());
    }

    #[test]
    fn fan_probe_brackets_and_collapses() {
        let phi = fan(6);
        let probe = TupleRef::new(1, 0); // S0: |Γ_min| = 5, ρ = 1/6
        let zero = outcome_for(&phi, probe, ApproxBudget::zero());
        let exact_rho = 1.0 / 6.0;
        assert!(zero.bounds.contains(exact_rho), "{:?}", zero.bounds);

        let full = outcome_for(&phi, probe, ApproxBudget::unlimited());
        assert!(full.is_exact());
        assert!((full.bounds.lower - exact_rho).abs() < 1e-12);
        assert_eq!(full.contingency.expect("cause").len(), 5);
    }

    #[test]
    fn history_tightens_monotonically() {
        let phi = dnf_of(&[
            &[(0, 0), (1, 1), (1, 2)],
            &[(0, 0), (1, 3)],
            &[(1, 1), (1, 4), (1, 5)],
            &[(1, 2), (1, 5), (1, 6)],
            &[(1, 3), (1, 6), (1, 7)],
            &[(1, 4), (1, 7)],
        ]);
        let out = outcome_for(&phi, TupleRef::new(0, 0), ApproxBudget::unlimited());
        for pair in out.history.windows(2) {
            assert!(pair[1].lower >= pair[0].lower, "{:?}", out.history);
            assert!(pair[1].upper <= pair[0].upper, "{:?}", out.history);
        }
        assert!(out.is_exact());
        // Differential: collapse point equals the exact kernel.
        let (arena, bits) = LineageArena::from_dnf(&phi);
        let phin = bits.minimized();
        let v = arena.id(TupleRef::new(0, 0)).unwrap();
        let exact_len = exact::min_contingency_bits(&phin, v).expect("cause").len();
        assert!((out.bounds.lower - 1.0 / (1.0 + exact_len as f64)).abs() < 1e-12);
    }

    #[test]
    fn step_budget_is_respected_and_bounds_stay_sound() {
        let phi = fan(12);
        let probe = TupleRef::new(1, 0);
        let exact_rho = 1.0 / 12.0;
        for steps in [0u64, 1, 2, 5, 10, 50] {
            let out = outcome_for(&phi, probe, ApproxBudget::steps(steps));
            assert!(out.steps_used <= steps);
            assert!(
                out.bounds.contains(exact_rho),
                "steps={steps}: {:?}",
                out.bounds
            );
        }
    }

    /// The degree bound prunes where packing cannot: the ten pairs over
    /// five elements pack only two disjoint pairs, but no element lies
    /// in more than four of them, so the search for a hitting set of
    /// size 2 is refuted at its root, in one step.
    #[test]
    fn degree_bound_refutes_a_level_at_the_search_root() {
        let sets: Vec<u64> = (0..5)
            .flat_map(|a| (a + 1..5).map(move |b| 1 << a | 1 << b))
            .collect();
        let sizes = vec![2; sets.len()];
        let (mut mask, mut blocked, mut counts) = (vec![0], vec![0], vec![0; 64]);
        let mut chosen = Vec::new();
        let mut tracker = BudgetTracker::new(ApproxBudget::unlimited());
        let found = Search {
            sets: &sets,
            sizes: &sizes,
            words: 1,
            limit: 2,
            mask: &mut mask,
            blocked: &mut blocked,
            counts: &mut counts,
            chosen: &mut chosen,
            tracker: &mut tracker,
        }
        .run();
        assert_eq!(found, Ok(false));
        assert_eq!(tracker.steps, 1);
    }

    #[test]
    fn expired_deadline_still_yields_greedy_bounds() {
        let phi = fan(8);
        let probe = TupleRef::new(1, 0);
        let out = outcome_for(&phi, probe, ApproxBudget::until(Instant::now()));
        assert!(out.bounds.contains(1.0 / 8.0), "{:?}", out.bounds);
        assert!(out.contingency.is_some(), "greedy set is budget-free");
    }
}

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
//! rows, padded to the widest conjunct, and residual sets are computed
//! into reused buffers. The greedy and the search keep **open lists**,
//! the indices of the sets still unhit, in set order: the greedy drops
//! the sets each pick covers, with incremental element counts, and a
//! search node scans only the sets its parent left open, testing each
//! against the one element just chosen. The lists live on one reused
//! stack, so no search node allocates. Every hot loop is written once
//! over the row width and instantiated for one-word rows, two-word rows
//! and the width read at run time; the kernel's width picks one at each
//! entry point. Because the lists keep set order, the pivot, the bounds
//! and so the whole traversal are those of a scan over every set.
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
//! Phase one reads no clock, so its result (`SharedBrackets`: the
//! packed rows, the floor, every bracket and the repair table) is kept
//! in an [`crate::explain::AnytimePlan`], and each answer refines a copy
//! of its table. A refinement cut short by its budget leaves its bracket
//! open, so a phase two that collapses every bracket ran each refinement
//! to completion: its outcome is the unlimited-budget one, counts
//! included. The plan keeps the first such answer, assembled, and an
//! answer with no step cap whose deadline is still ahead returns it,
//! its causes shared, without refining or assembling.
//!
//! Within one request the causes share their work through the lineage's
//! hitting sets (Bertossi & Salimi, arXiv 1412.4311 and 1507.00257): a
//! contingency `Γ` of `t` makes `H = Γ ∪ {t}` hit every conjunct
//! (Def. 2.3), and `ρ(t) = 1/min{|H| : H a minimal hitting set, t ∈ H}`.
//!
//! - **Global floor.** The packing and degree bounds over *all* rows
//!   give `B ≤ |H|` for every hitting set, so every contingency of every
//!   cause has at least `B − 1` members. Each bracket's certified floor
//!   is raised to it.
//! - **Repair table.** When a row meets `H` in exactly one member `s`,
//!   `s` is necessary in `H`, and `H ∖ {s}` is a contingency of `s`: it
//!   misses that row, which contains `s`, and with `s` it hits every row.
//!   The kernel offers every bracket's best contingency and every
//!   refinement's solution this way, and keeps per variable the shortest
//!   such contingency. Each offered set is stored once, and only if it
//!   improved an entry; nothing is stored per member.
//! - **Settled and seeded brackets.** In phase one a cause whose table
//!   entry already has `B − 1` members is *settled*: its bracket is
//!   exact at `1/B` with no per-cause work. Every other cause is
//!   bracketed *seeded* with its table contingency as the best so far,
//!   so a witness whose floor reaches it skips its greedy. In phase two
//!   a cause first takes the table's contingency when it is shorter,
//!   which may collapse its bracket before any search.
//!
//! The seed per-witness kernel survives in [`oracle`] as the
//! differential baseline, with its packing and `ln n + 1` floors only.
//! At every clock-free budget the packed kernel's per-cause bracket lies
//! inside the seed kernel's, at budget zero both return the same greedy
//! contingency, and at an unlimited budget both reach the same certified
//! minimum while the packed kernel expands no more search nodes. In
//! turn, each bracket `why_anytime` returns under `steps(N)` lies inside
//! the per-cause [`anytime_min_contingency`] bracket under
//! `steps(N / causes)`. A seed can only shorten the best contingency, a
//! higher floor only skips levels, and a witness skipped in a seeded
//! bracket has a floor no level below the best contingency reaches. So
//! each refinement level searches a subset of the per-cause witnesses,
//! in the same order, and reaches every level with no more steps spent.

pub mod oracle;

use causality_lineage::{BitDnf, VarSet};
use std::sync::Arc;
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
    /// The shortest contingency found: the seed, or a per-witness greedy
    /// set shorter than everything before it (the first one on ties);
    /// witnesses the bracket's `lower`.
    best: Vec<u32>,
    /// Certified lower bound on `|Γ_min|`.
    certified: usize,
    /// The feasible witnesses in conjunct order, each with the certified
    /// lower bound on its own minimum hitting set. Empty iff the repair
    /// table settled the bracket.
    witnesses: Vec<(usize, usize)>,
}

impl Bracket {
    /// Whether the repair table closed this bracket with no per-cause
    /// work (see [`AnytimeKernel::shared_bracket`]).
    pub(crate) fn is_settled(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// A borrowed [`Bracket`]: what phase two reads of one, wherever it is
/// stored.
#[derive(Clone, Copy)]
pub(crate) struct BracketRef<'a> {
    v: u32,
    best: &'a [u32],
    certified: usize,
    witnesses: &'a [(usize, usize)],
}

impl<'a> From<&'a Bracket> for BracketRef<'a> {
    fn from(b: &'a Bracket) -> Self {
        BracketRef {
            v: b.v,
            best: &b.best,
            certified: b.certified,
            witnesses: &b.witnesses,
        }
    }
}

/// Many causes' brackets, end to end in flat arrays: bracket `i`'s best
/// contingency and witnesses start where bracket `i − 1`'s end.
struct Brackets {
    /// Per bracket, its cause and certified floor; `None` where the
    /// variable is not a cause.
    heads: Vec<Option<(u32, usize)>>,
    /// Where each bracket starts in `best` and `witnesses`, and, last,
    /// where the final one ends.
    at: Vec<(usize, usize)>,
    best: Vec<u32>,
    witnesses: Vec<(usize, usize)>,
}

impl Brackets {
    fn new() -> Brackets {
        Brackets {
            heads: Vec::new(),
            at: vec![(0, 0)],
            best: Vec::new(),
            witnesses: Vec::new(),
        }
    }

    fn push(&mut self, bracket: Option<Bracket>) {
        self.heads
            .push(bracket.as_ref().map(|b| (b.v, b.certified)));
        if let Some(b) = bracket {
            self.best.extend_from_slice(&b.best);
            self.witnesses.extend_from_slice(&b.witnesses);
        }
        self.at.push((self.best.len(), self.witnesses.len()));
    }

    fn get(&self, i: usize) -> Option<BracketRef<'_>> {
        let (v, certified) = self.heads[i]?;
        let ((best, witnesses), (best_end, witnesses_end)) = (self.at[i], self.at[i + 1]);
        Some(BracketRef {
            v,
            best: &self.best[best..best_end],
            certified,
            witnesses: &self.witnesses[witnesses..witnesses_end],
        })
    }
}

/// A row width in `u64` words. Each hot loop of the kernel is written
/// once over a `Width` and instantiated three times: for one-word rows
/// (`Words<1>`), two-word rows (`Words<2>`), and any width read at run
/// time (`usize`). A fixed width is a constant, so its word loops
/// unroll and its row slices need no length arithmetic: through the
/// run-time width, `why_anytime` ran 8–49 % slower on one-word lineages
/// and 15–40 % slower on two-word ones.
trait Width: Copy {
    /// The width in words.
    fn words(self) -> usize;
}

/// A width fixed at compile time.
#[derive(Clone, Copy)]
struct Words<const W: usize>;

impl<const W: usize> Width for Words<W> {
    #[inline(always)]
    fn words(self) -> usize {
        W
    }
}

impl Width for usize {
    #[inline(always)]
    fn words(self) -> usize {
        self
    }
}

/// Row `i` of the packed `rows`.
#[inline(always)]
fn row<W: Width>(rows: &[u64], width: W, i: usize) -> &[u64] {
    let words = width.words();
    &rows[i * words..(i + 1) * words]
}

/// Evaluate `$body` with `$w` bound to the instantiation for a kernel
/// whose rows are `$words` wide: one word, two words, or any other.
macro_rules! by_width {
    ($words:expr, |$w:ident| $body:expr) => {
        match $words {
            1 => {
                let $w = Words::<1>;
                $body
            }
            2 => {
                let $w = Words::<2>;
                $body
            }
            words => {
                let $w = words;
                $body
            }
        }
    };
}

/// The per-request packed anytime kernel.
///
/// The lineage is packed once into contiguous `u64` rows, one per
/// conjunct and all as wide as the widest conjunct. A witness's
/// residual sets `c ∖ w` are written into a reused buffer. The greedy
/// and the search keep **open lists**, the indices of the sets not yet
/// hit, in set order: the greedy drops the sets each pick covers, and a
/// search node scans only the sets its parent left open, testing each
/// against the one element just chosen. The search's lists live on one
/// reused stack, so neither phase allocates per residual set or per
/// search node. Every hot loop is written once over the row [`Width`],
/// and each entry point ([`anytime_min_contingency`] and the shared
/// phases) picks the instantiation from the kernel's `words`: one-word
/// rows, two-word rows, or the width read at run time. Its per-cause brackets lie
/// inside the seed kernel's in [`oracle`].
///
/// Beside the rows the kernel keeps the request's **global floor** and
/// **repair table**, which [`AnytimeKernel::shared_bracket`] and
/// [`AnytimeKernel::shared_refine`] read and feed; the per-cause
/// [`AnytimeKernel::bracket`] and [`AnytimeKernel::refine`] ignore them.
pub(crate) struct AnytimeKernel {
    /// `u64` words per row.
    words: usize,
    /// The lineage, one `words`-wide row per conjunct, in conjunct order.
    /// Shared: the kernels that answer one plan read the same rows.
    rows: Arc<[u64]>,
    /// The global floor `B`: the larger of the packing and degree bounds
    /// over every row, so every hitting set of the lineage has at least
    /// `B` members and every contingency of every cause at least `B − 1`.
    floor: usize,
    /// The repair table: per arena variable, the shortest contingency an
    /// offered hitting set certifies, as its size and the index of that
    /// set in `starts`.
    table: Vec<Option<(usize, usize)>>,
    /// The offered hitting sets that improved some table entry, end to
    /// end; set `i` is `repairs[starts[i]..starts[i + 1]]`.
    repairs: Vec<u32>,
    starts: Vec<usize>,
    // Scratch, reused across causes and witnesses.
    others: Vec<usize>,
    residuals: Vec<u64>,
    sizes: Vec<u32>,
    counts: Vec<u32>,
    /// The greedy's open list, and the search's stack of open lists.
    open: Vec<u32>,
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
        let table = vec![None; words * 64];
        let mut kernel =
            AnytimeKernel::with_table(words, rows.into(), 0, table, Vec::new(), vec![0]);
        kernel.floor = by_width!(words, |w| floor_of(
            &kernel.rows,
            w,
            &mut kernel.counts,
            &mut kernel.blocked
        ));
        kernel
    }

    /// A kernel over `rows` with this floor and repair table, and fresh
    /// scratch.
    fn with_table(
        words: usize,
        rows: Arc<[u64]>,
        floor: usize,
        table: Vec<Option<(usize, usize)>>,
        repairs: Vec<u32>,
        starts: Vec<usize>,
    ) -> AnytimeKernel {
        AnytimeKernel {
            words,
            rows,
            floor,
            table,
            repairs,
            starts,
            others: Vec::new(),
            residuals: Vec::new(),
            sizes: Vec::new(),
            counts: vec![0; words * 64],
            open: Vec::new(),
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
    /// size lower bound per witness, decided exactly for cause-ness. The
    /// best contingency starts at `seed` (a contingency of `v`, if one is
    /// known), and a witness whose floor already reaches the best
    /// contingency skips its greedy. `None` iff `v` is not a cause.
    fn bracket<W: Width>(&mut self, width: W, v: u32, seed: Option<Vec<u32>>) -> Option<Bracket> {
        self.split(v);
        let n = self.others.len();
        self.residuals.resize(n * width.words(), 0);
        let mut best = seed;
        let mut witnesses = Vec::new();
        for w in 0..self.rows.len() / width.words() {
            if !self.contains(w, v) {
                continue;
            }
            let sets = &mut self.residuals;
            if !fill_residuals(&self.rows, width, &self.others, w, sets) {
                // A conjunct lies inside the witness — infeasible (cannot
                // happen in a minimized DNF, mirrored from `exact`).
                continue;
            }
            let floor = floor_of(sets, width, &mut self.counts, &mut self.blocked);
            // The witness's greedy set is at least its minimum, hence its
            // floor: one whose floor reaches the best cannot beat it.
            if best.as_ref().is_some_and(|b| floor >= b.len()) {
                witnesses.push((w, floor));
                continue;
            }
            greedy_hitting_set(
                sets,
                width,
                &mut self.counts,
                &mut self.open,
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

    /// The budgeted phase: iterative deepening from the certified floor
    /// of `bracket`, starting from the contingency `best`, which stands
    /// in for the bracket's own (a copy of it, or a shorter one); the
    /// witnesses are read in place. Each completed level either refutes
    /// size m everywhere (upper tightens) or finds a solution of size
    /// exactly m (bounds collapse — every smaller size was already
    /// refuted).
    fn refine<W: Width>(
        &mut self,
        width: W,
        bracket: BracketRef<'_>,
        mut best: Vec<u32>,
        budget: ApproxBudget,
    ) -> AnytimeOutcome {
        let BracketRef {
            v,
            mut certified,
            witnesses,
            ..
        } = bracket;
        let mut history = vec![RhoBounds::from_sizes(best.len(), certified)];
        let mut refinements = 0u32;
        let mut tracker = BudgetTracker::new(budget);
        // A budget spent before the first step would fail that step:
        // return the bracket without rebuilding the residual sets.
        if certified < best.len() && !tracker.spent() {
            self.split(v);
            let n = self.others.len();
            self.residuals.resize(n * width.words(), 0);
            self.sizes.resize(n, 0);
            'refine: while certified < best.len() {
                let level = certified;
                let mut found = false;
                for &(w, lower) in witnesses {
                    if lower > level {
                        continue; // this witness cannot beat the level — already certified
                    }
                    // One witness's residuals at a time: memory stays at
                    // one lineage's worth however many witnesses there are.
                    let sets = &mut self.residuals;
                    fill_residuals(&self.rows, width, &self.others, w, sets);
                    for (i, size) in self.sizes.iter_mut().enumerate() {
                        *size = row(sets, width, i).iter().map(|x| x.count_ones()).sum();
                    }
                    self.chosen.clear();
                    let mut search = Search {
                        sets: &self.residuals,
                        sizes: &self.sizes,
                        width,
                        limit: level,
                        open: &mut self.open,
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

    /// Phase one for one cause of a request. A cause whose repair-table
    /// contingency already meets the global floor `B − 1` is settled: its
    /// bracket is exact with no per-cause work. Any other cause runs
    /// [`AnytimeKernel::bracket`] seeded with the table's contingency,
    /// its certified floor is raised to `B − 1`, and a contingency
    /// shorter than the seed is offered to the table.
    pub(crate) fn shared_bracket(&mut self, v: u32) -> Option<Bracket> {
        by_width!(self.words, |w| self.shared_bracket_in(w, v))
    }

    fn shared_bracket_in<W: Width>(&mut self, width: W, v: u32) -> Option<Bracket> {
        let floor = self.floor.saturating_sub(1);
        let seed = match self.repair(v) {
            Some(best) if best.len() == floor => {
                return Some(Bracket {
                    v,
                    best,
                    certified: floor,
                    witnesses: Vec::new(),
                });
            }
            seed => seed,
        };
        let seeded = seed.as_ref().map(Vec::len);
        let mut bracket = self.bracket(width, v, seed)?;
        bracket.certified = bracket.certified.max(floor);
        if seeded.is_none_or(|len| bracket.best.len() < len) {
            self.offer(width, v, &bracket.best);
        }
        Some(bracket)
    }

    /// Phase two for one cause of a request: start from the repair
    /// table's contingency when it is shorter than the bracket's, which
    /// may collapse the bracket, then [`AnytimeKernel::refine`] and offer
    /// a solution the search found to the table. The bracket is only
    /// read: the starting contingency is the one thing copied.
    pub(crate) fn shared_refine<'b>(
        &mut self,
        bracket: Option<impl Into<BracketRef<'b>>>,
        budget: ApproxBudget,
    ) -> AnytimeOutcome {
        by_width!(self.words, |w| self.shared_refine_in(w, bracket, budget))
    }

    fn shared_refine_in<'b, W: Width>(
        &mut self,
        width: W,
        bracket: Option<impl Into<BracketRef<'b>>>,
        budget: ApproxBudget,
    ) -> AnytimeOutcome {
        let Some(b) = bracket.map(Into::into) else {
            return AnytimeOutcome::not_a_cause();
        };
        let v = b.v;
        let best = match self.table[v as usize] {
            Some((len, _)) if len < b.best.len() => self.repair(v).expect("a table entry"),
            _ => b.best.to_vec(),
        };
        let before = best.len();
        let out = self.refine(width, b, best, budget);
        if let Some(gamma) = out.contingency.as_deref().filter(|g| g.len() < before) {
            self.offer(width, v, gamma);
        }
        out
    }

    /// The contingency of `v` that the repair table holds: the offered
    /// hitting set with `v` taken out.
    fn repair(&self, v: u32) -> Option<Vec<u32>> {
        let (_, set) = (*self.table.get(v as usize)?)?;
        let members = &self.repairs[self.starts[set]..self.starts[set + 1]];
        Some(members.iter().copied().filter(|&e| e != v).collect())
    }

    /// Offer the hitting set `H = gamma ∪ {v}`, where `gamma` is a
    /// contingency of `v`. The single member `s` of a row that `H` hits
    /// exactly once is necessary in `H`, so `H ∖ {s}` is a contingency of
    /// `s`: it misses that row, and with `s` it hits every row. One pass
    /// over the rows records each such `s` whose table entry is longer;
    /// `H` is stored once, and only if it improved an entry.
    fn offer<W: Width>(&mut self, width: W, v: u32, gamma: &[u32]) {
        self.mask.fill(0);
        for &e in gamma.iter().chain([&v]) {
            self.mask[e as usize / 64] |= 1 << (e % 64);
        }
        let (len, set) = (gamma.len(), self.starts.len() - 1);
        let mask = row(&self.mask, width, 0);
        let mut improved = false;
        for i in 0..self.rows.len() / width.words() {
            let Some(s) = single_hit(row(&self.rows, width, i), mask) else {
                continue;
            };
            if self.table[s].is_none_or(|(best, _)| len < best) {
                self.table[s] = Some((len, set));
                improved = true;
            }
        }
        if improved {
            self.repairs.extend_from_slice(gamma);
            self.repairs.push(v);
            self.starts.push(self.repairs.len());
        }
    }
}

/// Phase one of a request, kept for phase two: the packed lineage, its
/// global floor, every cause's shared bracket, and the repair table as
/// the last bracket left it. It holds no scratch buffers, and
/// [`SharedBrackets::refine`] runs phase two on a copy of the table, so
/// every refinement starts from this same state, however many ran
/// before it.
pub(crate) struct SharedBrackets {
    words: usize,
    rows: Arc<[u64]>,
    floor: usize,
    table: Vec<Option<(usize, usize)>>,
    repairs: Vec<u32>,
    starts: Vec<usize>,
    brackets: Brackets,
    /// Brackets the repair table settled.
    settled: u32,
}

impl SharedBrackets {
    /// Pack the *minimized* `phin` and run [`AnytimeKernel::shared_bracket`]
    /// for each arena variable of `causes`, in order.
    pub(crate) fn new(phin: &BitDnf, causes: impl IntoIterator<Item = u32>) -> SharedBrackets {
        let mut kernel = AnytimeKernel::new(phin);
        let (mut brackets, mut settled) = (Brackets::new(), 0);
        for v in causes {
            let bracket = kernel.shared_bracket(v);
            settled += u32::from(bracket.as_ref().is_some_and(Bracket::is_settled));
            brackets.push(bracket);
        }
        let AnytimeKernel {
            words,
            rows,
            floor,
            table,
            repairs,
            starts,
            ..
        } = kernel;
        SharedBrackets {
            words,
            rows,
            floor,
            table,
            repairs,
            starts,
            brackets,
            settled,
        }
    }

    /// Causes the repair table settled in phase one.
    pub(crate) fn settled(&self) -> u32 {
        self.settled
    }

    /// Phase two: [`AnytimeKernel::shared_refine`] for every bracket in
    /// order, each under `budget`, on a kernel over these rows with a
    /// copy of the repair table; `f` gets each bracket's outcome, in
    /// order. This state is left as it was.
    pub(crate) fn refine(&self, budget: ApproxBudget, mut f: impl FnMut(AnytimeOutcome)) {
        let mut kernel = AnytimeKernel::with_table(
            self.words,
            Arc::clone(&self.rows),
            self.floor,
            self.table.clone(),
            self.repairs.clone(),
            self.starts.clone(),
        );
        for i in 0..self.brackets.heads.len() {
            f(kernel.shared_refine(self.brackets.get(i), budget));
        }
    }
}

/// The one element of `row ∩ set` when there is exactly one.
#[inline]
fn single_hit(row: &[u64], set: &[u64]) -> Option<usize> {
    let mut hit = None;
    for (i, (&r, &s)) in row.iter().zip(set).enumerate() {
        let both = r & s;
        if both == 0 {
            continue;
        }
        if hit.is_some() || both & (both - 1) != 0 {
            return None;
        }
        hit = Some(i * 64 + both.trailing_zeros() as usize);
    }
    hit
}

/// Write `c ∖ witness` for every row `c` in `others` into `out`, one
/// row each; `false` as soon as one comes out empty.
fn fill_residuals<W: Width>(
    rows: &[u64],
    width: W,
    others: &[usize],
    witness: usize,
    out: &mut [u64],
) -> bool {
    let w = row(rows, width, witness);
    for (dst, &c) in out.chunks_exact_mut(width.words()).zip(others) {
        let mut any = 0;
        for ((d, &a), &b) in dst.iter_mut().zip(row(rows, width, c)).zip(w) {
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

/// Call `f` on each element of a packed row, ascending. The hot loops
/// use this rather than [`elems`]: through the iterator they ran
/// 10–25 % slower.
#[inline(always)]
fn for_elems(row: &[u64], mut f: impl FnMut(usize)) {
    for (i, &word) in row.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(i * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

#[inline(always)]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

#[inline(always)]
fn or_into(acc: &mut [u64], s: &[u64]) {
    for (a, &b) in acc.iter_mut().zip(s) {
        *a |= b;
    }
}

/// Greedy hitting set: repeatedly pick the most frequent element among
/// the open sets (ties toward the smallest id, as in the exact solver's
/// seed), dropping the sets each pick covers from the open list and
/// their elements from the counts. `counts` enters holding every
/// element's count over `sets` (the degree bound's tally) and is used
/// up. Feasibility is guaranteed for non-empty input sets.
fn greedy_hitting_set<W: Width>(
    sets: &[u64],
    width: W,
    counts: &mut [u32],
    open: &mut Vec<u32>,
    chosen: &mut Vec<u32>,
) {
    open.clear();
    open.extend(0..(sets.len() / width.words()) as u32);
    chosen.clear();
    while !open.is_empty() {
        let (mut pick, mut most) = (0, 0);
        for (e, &c) in counts.iter().enumerate() {
            if c > most {
                (pick, most) = (e, c);
            }
        }
        chosen.push(pick as u32);
        // Keep the open sets the pick misses, in order. (A hand-written
        // compaction: `Vec::retain` with this body ran phase one a third
        // to a half slower.)
        let (w, bit) = (pick / 64, 1u64 << (pick % 64));
        let mut kept = 0;
        for k in 0..open.len() {
            let i = open[k];
            let s = row(sets, width, i as usize);
            if s[w] & bit == 0 {
                open[kept] = i;
                kept += 1;
            } else {
                for_elems(s, |e| counts[e] -= 1);
            }
        }
        open.truncate(kept);
    }
}

/// Add the elements of `s` to `counts`; the largest count it touched.
#[inline(always)]
fn tally(counts: &mut [u32], s: &[u64]) -> u32 {
    let mut most = 0;
    for_elems(s, |e| {
        counts[e] += 1;
        most = most.max(counts[e]);
    });
    most
}

/// The degree bound: when no element lies in more than `most` of `n`
/// sets, every hitting set needs at least `⌈n / most⌉` elements.
fn degree_bound(n: usize, most: u32) -> usize {
    n.div_ceil(most.max(1) as usize)
}

/// The larger of the packing and degree bounds over every set of
/// `sets`, leaving each element's count over them in `counts`.
fn floor_of<W: Width>(sets: &[u64], width: W, counts: &mut [u32], blocked: &mut [u64]) -> usize {
    counts.fill(0);
    let most = sets
        .chunks_exact(width.words())
        .map(|s| tally(counts, s))
        .max()
        .unwrap_or(0);
    let n = sets.len() / width.words();
    packing_bound(sets, width, blocked).max(degree_bound(n, most))
}

/// Greedy packing of pairwise-disjoint sets: each packed set needs its
/// own element, so the count lower-bounds the hitting-set size.
fn packing_bound<W: Width>(sets: &[u64], width: W, blocked: &mut [u64]) -> usize {
    let blocked = &mut blocked[..width.words()];
    blocked.fill(0);
    let mut lb = 0usize;
    for s in sets.chunks_exact(width.words()) {
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
///
/// `open` is a stack of open lists, one per node on the current path:
/// each lists, in set order, the sets its node has not hit yet, and a
/// child's list follows its parent's.
struct Search<'a, W: Width> {
    sets: &'a [u64],
    sizes: &'a [u32],
    width: W,
    limit: usize,
    open: &'a mut Vec<u32>,
    blocked: &'a mut [u64],
    counts: &'a mut [u32],
    chosen: &'a mut Vec<u32>,
    tracker: &'a mut BudgetTracker,
}

impl<W: Width> Search<'_, W> {
    /// Search from the root, where every set is open.
    fn run(&mut self) -> Result<bool, ()> {
        self.open.clear();
        self.open.extend(0..self.sizes.len() as u32);
        self.node(0, None)
    }

    /// One search node. The parent's open list is `open[from..]`, and
    /// `hit` is the element the parent just chose (`None` at the root);
    /// the node's own open list is the parent's sets that miss `hit`.
    fn node(&mut self, from: usize, hit: Option<usize>) -> Result<bool, ()> {
        if !self.tracker.step() {
            return Err(());
        }
        // One pass over the parent's list builds this node's list, and
        // finds the first smallest open set (the pivot) and the packing
        // bound over the open sets.
        let (sets, width) = (self.sets, self.width);
        let blocked = &mut self.blocked[..width.words()];
        blocked.fill(0);
        let start = self.open.len();
        let mut packing = 0usize;
        let mut pivot: Option<usize> = None;
        for k in from..start {
            let i = self.open[k] as usize;
            let s = row(sets, width, i);
            if hit.is_some_and(|e| s[e / 64] >> (e % 64) & 1 == 1) {
                continue;
            }
            self.open.push(i as u32);
            if pivot.is_none_or(|p| self.sizes[i] < self.sizes[p]) {
                pivot = Some(i);
            }
            if !intersects(s, blocked) {
                packing += 1;
                or_into(blocked, s);
            }
        }
        let Some(pivot) = pivot else {
            return Ok(true);
        };
        let end = self.open.len();
        // The node is pruned on the larger of the packing and degree
        // bounds; the degree bound's tally is only needed when packing
        // alone does not prune.
        if self.chosen.len() + packing > self.limit {
            return Ok(false);
        }
        self.counts.fill(0);
        let mut most = 0u32;
        for &i in &self.open[start..end] {
            most = most.max(tally(self.counts, row(sets, width, i as usize)));
        }
        if self.chosen.len() + degree_bound(end - start, most) > self.limit {
            return Ok(false);
        }
        // The pivot is open, so none of its elements is chosen yet: each
        // child adds a new one.
        for e in elems(row(sets, width, pivot)) {
            self.chosen.push(e as u32);
            if self.node(start, Some(e))? {
                return Ok(true);
            }
            self.open.truncate(end);
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
    by_width!(kernel.words, |w| match kernel.bracket(w, v, None) {
        Some(mut bracket) => {
            let best = std::mem::take(&mut bracket.best);
            kernel.refine(w, (&bracket).into(), best, budget)
        }
        None => AnytimeOutcome::not_a_cause(),
    })
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
        let (mut open, mut blocked, mut counts) = (Vec::new(), vec![0], vec![0; 64]);
        let mut chosen = Vec::new();
        let mut tracker = BudgetTracker::new(ApproxBudget::unlimited());
        let found = Search {
            sets: &sets,
            sizes: &sizes,
            width: Words::<1>,
            limit: 2,
            open: &mut open,
            blocked: &mut blocked,
            counts: &mut counts,
            chosen: &mut chosen,
            tracker: &mut tracker,
        }
        .run();
        assert_eq!(found, Ok(false));
        assert_eq!(tracker.steps, 1);
    }

    /// Shared brackets over three disjoint pairs {a_i, b_i}: the global
    /// floor is 3, so every contingency has 2 members. The greedy set of
    /// the first cause, a0, makes a hitting set that meets each pair once,
    /// in a0, a1 and a2, which settles a1 and a2 at exactly 2 with no
    /// per-cause work; the b's are bracketed. On the other lineages every
    /// shared bracket contains the exact minimum, and a settled one
    /// equals it.
    #[test]
    fn the_repair_table_settles_exact_brackets() {
        let pairs = dnf_of(&[&[(0, 0), (1, 0)], &[(0, 1), (1, 1)], &[(0, 2), (1, 2)]]);
        let history = dnf_of(&[
            &[(0, 0), (1, 1), (1, 2)],
            &[(0, 0), (1, 3)],
            &[(1, 1), (1, 4), (1, 5)],
            &[(1, 2), (1, 5), (1, 6)],
            &[(1, 3), (1, 6), (1, 7)],
            &[(1, 4), (1, 7)],
        ]);
        let a = |i| TupleRef::new(0, i);
        let cases = [
            (pairs, vec![a(1), a(2)]),
            (fan(6), vec![]),
            (history, vec![]),
        ];
        for (phi, want) in cases {
            let (arena, bits) = LineageArena::from_dnf(&phi);
            let phin = bits.minimized();
            let mut kernel = AnytimeKernel::new(&phin);
            let mut settled = Vec::new();
            for v in 0..arena.len() as u32 {
                let exact = exact::min_contingency_bits(&phin, v).expect("cause").len();
                let b = kernel.shared_bracket(v).expect("cause");
                assert!(b.certified <= exact && exact <= b.best.len(), "v={v}");
                if b.is_settled() {
                    assert_eq!((b.certified, b.best.len()), (exact, exact), "v={v}");
                    settled.push(arena.resolve(v));
                }
            }
            if !want.is_empty() {
                assert_eq!(settled, want);
            }
        }
    }

    /// A row certifies a member only when the hitting set meets it in
    /// exactly that one member: two members in one word, or one in each
    /// of two words, certify neither.
    #[test]
    fn single_hit_needs_exactly_one_member() {
        assert_eq!(single_hit(&[0b0110], &[0b0100]), Some(2));
        assert_eq!(single_hit(&[0b0110], &[0b0110]), None);
        assert_eq!(single_hit(&[0b0110], &[0b1001]), None);
        assert_eq!(single_hit(&[1, 2], &[0, 2]), Some(65));
        assert_eq!(single_hit(&[1, 2], &[1, 2]), None);
    }

    /// A pseudo-random lineage of `n` conjuncts, each one tuple of each
    /// of three relations of `per` tuples: dense enough that brackets
    /// need search, over at most `3 · per` variables.
    fn dense(n: usize, per: u32, seed: u64) -> Dnf {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u32 % per
        };
        let conjuncts: Vec<Vec<(u32, u32)>> = (0..n)
            .map(|_| (0..3).map(|rel| (rel, next())).collect())
            .collect();
        let slices: Vec<&[(u32, u32)]> = conjuncts.iter().map(Vec::as_slice).collect();
        dnf_of(&slices)
    }

    /// A bracket's fields, for comparing two kernels' brackets.
    type BracketFields = (u32, Vec<u32>, usize, Vec<(usize, usize)>);

    fn fields(b: &Option<Bracket>) -> Option<BracketFields> {
        b.as_ref()
            .map(|b| (b.v, b.best.clone(), b.certified, b.witnesses.clone()))
    }

    /// The instantiation at the width read at run time agrees with the
    /// one-word and two-word ones. Two kernels answer the same request,
    /// phase one for every variable and then phase two under a per-cause
    /// step budget, one through the width dispatch and one at `usize`
    /// width: after every call their brackets, outcomes (bracket,
    /// contingency, refinements, steps and history) and repair tables
    /// are equal, and the search ran and completed levels.
    #[test]
    fn the_runtime_width_matches_the_fixed_widths() {
        for (n, per, seed, words) in [
            (30, 10, 1, 1),
            (50, 16, 7, 1),
            (70, 26, 3, 2),
            (80, 30, 11, 2),
        ] {
            let (arena, bits) = LineageArena::from_dnf(&dense(n, per, seed));
            let phin = bits.minimized();
            for budget in [ApproxBudget::steps(40), ApproxBudget::steps(400)] {
                let at = format!("dense({n}, {per}, {seed}) {budget:?}");
                let mut fixed = AnytimeKernel::new(&phin);
                let mut runtime = AnytimeKernel::new(&phin);
                assert_eq!(fixed.words, words, "{at}");
                let width = runtime.words;
                let tables =
                    |k: &AnytimeKernel| (k.table.clone(), k.repairs.clone(), k.starts.clone());
                let mut brackets = Vec::new();
                for v in 0..arena.len() as u32 {
                    let (a, b) = (fixed.shared_bracket(v), runtime.shared_bracket_in(width, v));
                    assert_eq!(fields(&a), fields(&b), "{at} v={v}");
                    assert_eq!(tables(&fixed), tables(&runtime), "{at} v={v}");
                    brackets.push((a, b));
                }
                let (mut steps, mut levels) = (0, 0);
                for (v, (a, b)) in brackets.into_iter().enumerate() {
                    let out = fixed.shared_refine(a.as_ref(), budget);
                    assert_eq!(
                        out,
                        runtime.shared_refine_in(width, b.as_ref(), budget),
                        "{at} v={v}"
                    );
                    assert_eq!(tables(&fixed), tables(&runtime), "{at} v={v}");
                    steps += out.steps_used;
                    levels += out.refinements;
                }
                assert!(
                    steps > 0 && levels > 0,
                    "{at}: steps {steps}, levels {levels}"
                );
            }
        }
    }

    /// A pseudo-random lineage of `n` conjuncts, each one to four of the
    /// tuples `0..vars` of one relation.
    fn sparse(n: usize, vars: u32, seed: u64) -> Dnf {
        let mut x = seed;
        let mut next = |below: u32| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u32 % below
        };
        let conjuncts: Vec<Vec<(u32, u32)>> = (0..n)
            .map(|_| (0..=next(4)).map(|_| (0, next(vars))).collect())
            .collect();
        let slices: Vec<&[(u32, u32)]> = conjuncts.iter().map(Vec::as_slice).collect();
        dnf_of(&slices)
    }

    /// The identity the repair table rests on, checked against its own
    /// oracle (Bertossi & Salimi, arXiv 1412.4311): a minimal contingency
    /// of `t` with `t` added is a minimal hitting set of Φⁿ, so
    /// `ρ(t) = 1/min{|H| : H a minimal hitting set of Φⁿ, t ∈ H}`, or 0
    /// when no minimal hitting set holds `t`. On random minimized
    /// lineages of at most 12 variables, every minimal hitting set is
    /// enumerated by brute force, and that ρ equals the exact ρ of
    /// `resp::exact` and the unlimited-budget bracket. After phase one
    /// over every variable, each repair-table entry is a feasible
    /// contingency of its variable, of the entry's size and with at least
    /// `B − 1` members.
    #[test]
    fn minimal_hitting_sets_give_rho_and_certify_the_repair_table() {
        let mut entries = 0;
        for seed in 0..300u64 {
            let n = 2 + seed as usize % 8;
            let phi = if seed % 2 == 0 {
                dense(n, 4, seed)
            } else {
                sparse(n, 12, seed)
            };
            let (arena, bits) = LineageArena::from_dnf(&phi);
            let phin = bits.minimized();
            let k = arena.len() as u32;
            assert!(k <= 12, "seed {seed}: {k} variables");
            let rows: Vec<u32> = phin
                .conjuncts()
                .iter()
                .map(|c| c.iter().fold(0, |m, e| m | 1 << e))
                .collect();
            let hits = |h: u32| rows.iter().all(|&r| r & h != 0);
            let minimal: Vec<u32> = (0..1u32 << k)
                .filter(|&h| hits(h) && (0..k).all(|e| h >> e & 1 == 0 || !hits(h & !(1 << e))))
                .collect();
            let mut kernel = AnytimeKernel::new(&phin);
            for v in 0..k {
                let at = format!("seed {seed} v={v}");
                let smallest = minimal
                    .iter()
                    .filter(|&&h| h >> v & 1 == 1)
                    .map(|h| h.count_ones())
                    .min();
                let rho = smallest.map_or(0.0, |size| 1.0 / size as f64);
                let exact = exact::min_contingency_bits(&phin, v)
                    .map_or(0.0, |gamma| 1.0 / (1.0 + gamma.len() as f64));
                assert_eq!(rho, exact, "{at}");
                let unlimited = anytime_min_contingency(&phin, v, ApproxBudget::unlimited());
                assert_eq!(unlimited.bounds, RhoBounds::exact(rho), "{at}");
                kernel.shared_bracket(v);
            }
            for s in 0..k {
                let Some((len, _)) = kernel.table[s as usize] else {
                    continue;
                };
                let gamma = kernel.repair(s).expect("a table entry");
                let at = format!("seed {seed} s={s}: {gamma:?}");
                let hit: u32 = gamma.iter().fold(0, |m, &e| m | 1 << e);
                let (with_s, rest): (Vec<u32>, Vec<u32>) =
                    rows.iter().partition(|&&r| r >> s & 1 == 1);
                assert!(
                    with_s.iter().any(|&r| r & hit == 0),
                    "{at}: hits every row of s"
                );
                assert!(rest.iter().all(|&r| r & hit != 0), "{at}: misses a row");
                assert_eq!(gamma.len(), len, "{at}");
                assert!(len + 1 >= kernel.floor, "{at}: floor {}", kernel.floor);
                entries += 1;
            }
        }
        assert!(entries >= 1000, "only {entries} table entries checked");
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

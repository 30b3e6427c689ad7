//! Parallel top-k responsibility ranking.
//!
//! The paper's headline use case is ranking candidate causes by
//! responsibility over large instances ("it is critical to rank the
//! candidate causes by their responsibility", Sect. 1), and per-cause
//! responsibility runs are *independent*: each one reads the database,
//! the query, and the shared lineage — nothing else. This module
//! exploits that independence twice:
//!
//! * **Fan-out** — the candidate-cause list is sharded across a
//!   configurable number of scoped std threads (no work-stealing
//!   runtime; an atomic cursor over a screened candidate list is
//!   enough). The n-lineage is interned and minimized **once** in arena
//!   form ([`LineageArena`] + [`BitDnf`]); workers borrow the same
//!   conjunct bitsets (`&VarSet` slices) in place — zero per-candidate
//!   cloning — and, when Algorithm 1 ranks the causes, they share one
//!   junction network (one `FlowPlan` per ranking): each cause changes
//!   only capacities, on its own copy.
//! * **Counterfactual read-off** — a candidate that occurs in every
//!   conjunct of the minimized lineage is counterfactual (Theorem 3.2),
//!   and Def. 2.3 fixes its answer: ρ = 1 with Γ = ∅, the only
//!   contingency of size 0. It is read off the lineage under every
//!   method, with no solve; Algorithm 1 and the exact solver return the
//!   same value for it.
//! * **Top-k early termination** — when only the `k` most responsible
//!   causes are wanted (the Fig. 2b table is rarely shown in full),
//!   candidates are screened with a cheap, sound upper bound on ρ and
//!   full Algorithm-1 / branch-and-bound responsibility is computed
//!   only while the candidate could still enter the top k.
//!
//! # The upper bound
//!
//! For a candidate `t` over the minimized n-lineage `Φⁿ` (computed once
//! and shared by every screen):
//!
//! * if `t` occurs in **every** conjunct it is a counterfactual cause —
//!   ρ = 1 exactly (Theorem 3.2), so `ub = 1`;
//! * otherwise any contingency `Γ` must hit every conjunct **not**
//!   containing `t`, hence `|Γ|` is at least the size of any packing of
//!   pairwise-disjoint such conjuncts, and
//!   `ρ_t = 1/(1 + min|Γ|) ≤ 1/(1 + packing)`.
//!
//! The bound is sound for *both* responsibility algorithms (they compute
//! the same Def. 2.3 optimum), so pruning never changes the result: a
//! candidate is skipped only when `k` already-computed causes are
//! **strictly** more responsible than its bound allows, which keeps the
//! returned prefix bit-identical to the full ranking — ties included,
//! since tie-breaking is by tuple identity and strict pruning never
//! discards a potential tie. A full ranking (`top_k: None`) never prunes,
//! so it computes no bound at all: every candidate gets bound 1 and the
//! screen keeps tuple order. With `k = 0` every candidate is provably
//! out.

use crate::causes::causes_from_minimized_whyso;
use crate::error::CoreError;
use crate::ranking::{elapsed_us, sort_ranked, Method, RankedCause};
use crate::resp::exact::responsibility_from_bits;
use crate::resp::flow::FlowPlan;
use crate::resp::{self, Responsibility};
use causality_engine::{ConjunctiveQuery, Database, SharedIndexCache, TupleRef};
use causality_graph::maxflow::FlowAlgorithm;
use causality_lineage::{minimized_n_lineage, BitDnf, LineageArena, VarSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Tuning knobs of a ranking run.
#[derive(Clone, Copy, Debug)]
pub struct RankConfig {
    /// Which responsibility algorithm ranks the causes.
    pub method: Method,
    /// Worker threads sharding the candidate list (min 1; 1 = run on
    /// the calling thread, no spawn).
    pub parallelism: usize,
    /// `Some(k)`: return only the `k` most responsible causes, enabling
    /// upper-bound pruning. `None`: rank every cause.
    pub top_k: Option<usize>,
}

impl Default for RankConfig {
    fn default() -> Self {
        RankConfig {
            method: Method::Auto,
            parallelism: 1,
            top_k: None,
        }
    }
}

impl RankConfig {
    /// A config ranking all causes on `parallelism` threads.
    pub fn with_parallelism(parallelism: usize) -> Self {
        RankConfig {
            parallelism,
            ..RankConfig::default()
        }
    }

    /// Restrict the output (and the computation) to the top `k`.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }
}

/// What a ranking run did: candidate counts and pruning effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Actual causes found by the lineage screen (Theorem 3.2).
    pub candidates: usize,
    /// Candidates whose full responsibility was computed.
    pub computed: usize,
    /// Candidates skipped because their upper bound could no longer
    /// reach the top k.
    pub pruned: usize,
    /// Threads that ran the fan-out (after clamping).
    pub threads: usize,
    /// Conjunct count of the minimized lineage the run was screened
    /// against.
    pub lineage_conjuncts: usize,
    /// µs spent computing, interning, and minimizing the lineage.
    pub lineage_us: u64,
    /// µs spent screening, solving, and merging (everything after the
    /// lineage).
    pub solve_us: u64,
}

/// A ranked (and possibly truncated) explanation with its run stats.
#[derive(Clone, Debug)]
pub struct RankedTopK {
    /// Causes ranked by responsibility descending, ties broken by tuple
    /// identity; truncated to `k` when [`RankConfig::top_k`] is set.
    pub causes: Vec<RankedCause>,
    /// Screening / pruning / fan-out accounting.
    pub stats: RankStats,
}

/// One screened candidate: its tuple, whether it is counterfactual, and
/// a sound upper bound on ρ.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    tuple: TupleRef,
    counterfactual: bool,
    upper_bound: f64,
}

/// Rank the Why-So causes of a Boolean query by responsibility,
/// descending (ties broken by tuple identity), on `cfg.parallelism`
/// threads, optionally truncated (and pruned) to the top `k`. The
/// optional [`SharedIndexCache`] lets the lineage evaluation and the
/// flow network's evaluation reuse one set of join indexes.
///
/// Counterfactual causes are read off the lineage (ρ = 1, Γ = ∅) under
/// every method. The rest are solved on one Algorithm 1 network built
/// before the fan-out and shared by every worker, or by the exact solver
/// on the shared lineage. Whether the ranking builds that network is
/// decided once: never under [`Method::Exact`] or when no candidate can
/// be solved (no causes, or `top_k: Some(0)`); always under
/// [`Method::Flow`], so its query-level errors surface even when every
/// cause is counterfactual; under [`Method::Auto`] only when some cause
/// is not counterfactual, falling back to the exact solver for the whole
/// ranking when Algorithm 1 does not apply. Every Algorithm 1 error is
/// query-level, so this one decision is what a per-cause dispatch would
/// decide for every cause.
///
/// This is the one Why-So ranker. The output is bit-identical at every
/// parallelism level, and with `top_k: Some(k)` it is the first `k`
/// causes of the full ranking. A full ranking on one thread solves
/// every cause in tuple order on the calling thread.
pub fn rank_why_so_parallel(
    db: &Database,
    q: &ConjunctiveQuery,
    cfg: &RankConfig,
    cache: Option<&SharedIndexCache>,
) -> Result<RankedTopK, CoreError> {
    // One lineage computation, interned and minimized once in arena
    // form, feeds the candidate screen, the upper bounds, and (for the
    // exact method) every per-cause solve. Workers borrow the same
    // `BitDnf` conjunct slice — zero per-candidate cloning.
    let lineage_started = std::time::Instant::now();
    let (arena, phin) = minimized_n_lineage(db, q, cache)?;
    let causes = causes_from_minimized_whyso(&arena, &phin);
    let lineage_us = elapsed_us(lineage_started);
    let solve_started = std::time::Instant::now();

    let mut packing_scratch = VarSet::new();
    let mut candidates: Vec<Candidate> = causes
        .actual
        .iter()
        .map(|&tuple| {
            let counterfactual = causes.counterfactual.contains(&tuple);
            Candidate {
                tuple,
                counterfactual,
                // Only pruning reads the bound, and a full ranking never
                // prunes.
                upper_bound: if cfg.top_k.is_none() || counterfactual {
                    1.0
                } else {
                    let v = arena.id(tuple).expect("causes come from the lineage");
                    1.0 / (1.0 + disjoint_packing_bound(&phin, v, &mut packing_scratch) as f64)
                },
            }
        })
        .collect();
    // Screen order: most promising first, ties by tuple identity (the
    // BTreeSet iteration above already yields tuple order, and the sort
    // is stable, so the order is deterministic).
    candidates.sort_by(|a, b| b.upper_bound.total_cmp(&a.upper_bound));

    let plan = flow_plan(db, q, cfg, cache, &candidates)?;
    let threads = cfg.parallelism.max(1).min(candidates.len().max(1));
    let shared = RankShared {
        candidates: &candidates,
        cursor: AtomicUsize::new(0),
        pruned: AtomicUsize::new(0),
        threshold: cfg.top_k.map(|k| Mutex::new(TopKThreshold::new(k))),
        arena: &arena,
        phin: &phin,
        plan: plan.as_ref(),
    };

    let slots: Vec<Option<Responsibility>> = if threads == 1 {
        // Sequential fast path: no spawn overhead, same pruning logic.
        let mut slots = vec![None; candidates.len()];
        rank_worker(&shared, &mut slots);
        slots
    } else {
        let mut merged = vec![None; candidates.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let shared = &shared;
                    scope.spawn(move || {
                        let mut slots = vec![None; shared.candidates.len()];
                        rank_worker(shared, &mut slots);
                        slots
                    })
                })
                .collect();
            for handle in handles {
                let slots = handle.join().expect("rank worker never panics");
                for (slot, filled) in merged.iter_mut().zip(slots) {
                    if filled.is_some() {
                        *slot = filled;
                    }
                }
            }
        });
        merged
    };

    // Unfilled slots were pruned.
    let mut ranked: Vec<RankedCause> = candidates
        .iter()
        .zip(slots)
        .filter_map(|(candidate, slot)| {
            slot.map(|responsibility| RankedCause {
                tuple: candidate.tuple,
                responsibility,
            })
        })
        .collect();
    let computed = ranked.len();
    sort_ranked(&mut ranked);
    if let Some(k) = cfg.top_k {
        ranked.truncate(k);
    }
    Ok(RankedTopK {
        causes: ranked,
        stats: RankStats {
            candidates: candidates.len(),
            computed,
            pruned: shared.pruned.load(Ordering::Relaxed),
            threads,
            lineage_conjuncts: phin.conjuncts().len(),
            lineage_us,
            solve_us: elapsed_us(solve_started),
        },
    })
}

/// State shared by the fan-out workers (all borrows — scoped threads).
struct RankShared<'a> {
    candidates: &'a [Candidate],
    /// Next candidate index to claim.
    cursor: AtomicUsize,
    /// Candidates skipped by the top-k bound.
    pruned: AtomicUsize,
    /// The `k` best ρ values computed so far (absent without `top_k`).
    threshold: Option<Mutex<TopKThreshold>>,
    /// The interner resolving variable ids back to tuples at the result
    /// boundary.
    arena: &'a LineageArena,
    /// The minimized n-lineage in arena form, shared by the exact solves
    /// (workers read the same conjunct bitsets in place).
    phin: &'a BitDnf,
    /// The ranking's one Algorithm 1 network; `None` sends every
    /// non-counterfactual cause to the exact solver.
    plan: Option<&'a FlowPlan>,
}

/// Claims candidates off the shared cursor until the list is drained,
/// writing each computed responsibility into the worker's slot vector
/// (slot `i` belongs to screened candidate `i`; a worker only ever fills
/// slots it claimed, so merging is conflict-free).
fn rank_worker(shared: &RankShared<'_>, slots: &mut [Option<Responsibility>]) {
    loop {
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(candidate) = shared.candidates.get(i) else {
            return;
        };
        if let Some(threshold) = &shared.threshold {
            let prune = threshold
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .proves_out(candidate.upper_bound);
            if prune {
                shared.pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        }
        let responsibility = compute_responsibility(shared, candidate);
        if let Some(threshold) = &shared.threshold {
            threshold
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .record(responsibility.rho);
        }
        slots[i] = Some(responsibility);
    }
}

/// Decides, before the fan-out, whether the ranking solves its causes on
/// one Algorithm 1 network (see [`rank_why_so_parallel`]). Under
/// [`Method::Auto`] an inapplicable query means the exact solver; any
/// other error is the ranking's.
fn flow_plan(
    db: &Database,
    q: &ConjunctiveQuery,
    cfg: &RankConfig,
    cache: Option<&SharedIndexCache>,
    candidates: &[Candidate],
) -> Result<Option<FlowPlan>, CoreError> {
    if candidates.is_empty() || cfg.top_k == Some(0) {
        return Ok(None);
    }
    let plan = || FlowPlan::new(db, q, FlowAlgorithm::Dinic, cache);
    match cfg.method {
        Method::Exact => Ok(None),
        Method::Flow => plan().map(Some),
        Method::Auto if candidates.iter().all(|c| c.counterfactual) => Ok(None),
        Method::Auto => match plan() {
            Ok(plan) => Ok(Some(plan)),
            Err(e) if resp::flow_inapplicable(&e) => Ok(None),
            Err(e) => Err(e),
        },
    }
}

/// One per-cause responsibility: read off for a counterfactual cause
/// (Def. 2.3: ∅ is the only contingency of size 0), else solved on the
/// ranking's flow network, or by the exact solver on the shared
/// minimized lineage when there is none.
fn compute_responsibility(shared: &RankShared<'_>, candidate: &Candidate) -> Responsibility {
    if candidate.counterfactual {
        return Responsibility::from_contingency(Vec::new());
    }
    match shared.plan {
        Some(plan) => plan.solve(candidate.tuple).0,
        None => responsibility_from_bits(shared.arena, shared.phin, candidate.tuple),
    }
}

/// Lower bound on `min |Γ|` for candidate variable `v`: a greedy packing
/// of pairwise tuple-disjoint conjuncts among those not containing `v`
/// (each needs its own tuple in any hitting contingency). Sound for the
/// exact solver and Algorithm 1 alike — both compute the Def. 2.3
/// optimum. In arena form the disjointness test is one word-wise AND
/// against a reused `blocked` scratch mask.
fn disjoint_packing_bound(phin: &BitDnf, v: u32, blocked: &mut VarSet) -> usize {
    let mut packed = 0usize;
    blocked.clear();
    for c in phin.conjuncts().iter().filter(|c| !c.contains(v as usize)) {
        if !c.intersects(blocked) {
            packed += 1;
            blocked.union_with(c);
        }
    }
    packed
}

/// The `k` largest computed ρ values, for strict pruning.
#[derive(Debug)]
struct TopKThreshold {
    k: usize,
    /// Sorted descending; at most `k` entries.
    best: Vec<f64>,
}

impl TopKThreshold {
    fn new(k: usize) -> Self {
        TopKThreshold {
            k,
            best: Vec::new(),
        }
    }

    /// Whether `upper_bound` proves a candidate cannot enter the top k:
    /// `k` computed causes are already *strictly* more responsible than
    /// the bound allows. Strictness keeps potential ties alive, so the
    /// tuple-identity tie-break matches the unpruned ranking exactly.
    /// With `k = 0` nothing can enter, so every candidate is out.
    fn proves_out(&self, upper_bound: f64) -> bool {
        self.best.len() == self.k && self.best.last().is_none_or(|&kth| upper_bound < kth)
    }

    fn record(&mut self, rho: f64) {
        let at = self
            .best
            .partition_point(|&b| b.total_cmp(&rho) != std::cmp::Ordering::Less);
        self.best.insert(at, rho);
        self.best.truncate(self.k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::why_so_causes;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, Schema, Value};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    /// The reference ranking, sharing none of the ranker's code: every
    /// actual cause solved alone by its method's single-tuple function
    /// (each call derives its own lineage), with Algorithm 1 taken from
    /// the seed [`resp::flow::oracle`], sorted by ρ descending, then by
    /// tuple.
    fn reference_ranking(db: &Database, q: &ConjunctiveQuery, method: Method) -> Vec<RankedCause> {
        let flow = |t| {
            resp::flow::oracle::why_so_responsibility_flow_with(db, q, t, FlowAlgorithm::Dinic)
                .map(|(r, _)| r)
        };
        let mut ranked: Vec<RankedCause> = why_so_causes(db, q)
            .unwrap()
            .actual
            .into_iter()
            .map(|t| RankedCause {
                tuple: t,
                responsibility: match method {
                    Method::Auto => match flow(t) {
                        Err(e) if resp::flow_inapplicable(&e) => {
                            resp::exact::why_so_responsibility_exact(db, q, t)
                        }
                        other => other,
                    },
                    Method::Exact => resp::exact::why_so_responsibility_exact(db, q, t),
                    Method::Flow => flow(t),
                }
                .unwrap(),
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.responsibility
                .rho
                .total_cmp(&a.responsibility.rho)
                .then(a.tuple.cmp(&b.tuple))
        });
        ranked
    }

    #[test]
    fn parallel_matches_sequential_all_parallelisms() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let reference = reference_ranking(&db, &query, Method::Auto);
        for parallelism in [1, 2, 8] {
            let out = rank_why_so_parallel(
                &db,
                &query,
                &RankConfig::with_parallelism(parallelism),
                None,
            )
            .unwrap();
            assert_eq!(out.causes, reference);
            assert_eq!(out.stats.candidates, reference.len());
            assert_eq!(out.stats.computed, reference.len());
            assert_eq!(out.stats.pruned, 0);
        }
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_ranking() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let full = reference_ranking(&db, &query, Method::Auto);
        for k in 1..=full.len() + 1 {
            for parallelism in [1, 2, 8] {
                let out = rank_why_so_parallel(
                    &db,
                    &query,
                    &RankConfig::with_parallelism(parallelism).top_k(k),
                    None,
                )
                .unwrap();
                assert_eq!(out.causes, full[..k.min(full.len())]);
            }
        }
    }

    #[test]
    fn pruning_fires_when_counterfactuals_fill_the_top_k() {
        // A(1) is in every witness of q :- A(x), B(y) (counterfactual,
        // ρ = 1); B(1) and B(2) are each ρ = 1/2 with upper bound 1/2.
        // With k = 1, once A(1) is computed both B tuples are provably
        // out (1/2 < 1) and must be pruned, not solved.
        let mut db = Database::new();
        let a = db.add_relation(Schema::new("A", &["x"]));
        let b = db.add_relation(Schema::new("B", &["y"]));
        db.insert_endo(a, tup![1]);
        db.insert_endo(b, tup![1]);
        db.insert_endo(b, tup![2]);
        let query = q("q :- A(x), B(y)");
        for parallelism in [1, 2] {
            let out = rank_why_so_parallel(
                &db,
                &query,
                &RankConfig::with_parallelism(parallelism).top_k(1),
                None,
            )
            .unwrap();
            assert_eq!(out.causes.len(), 1);
            assert_eq!(out.causes[0].responsibility.rho, 1.0);
            if parallelism == 1 {
                // Deterministic with one thread: both B candidates are
                // screened out after A(1) fills the top 1.
                assert_eq!(out.stats.pruned, 2, "stats: {:?}", out.stats);
                assert_eq!(out.stats.computed, 1);
            }
            let full = reference_ranking(&db, &query, Method::Auto);
            assert_eq!(out.causes, full[..1]);
        }
    }

    #[test]
    fn methods_agree_in_parallel() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        for method in [Method::Auto, Method::Exact, Method::Flow] {
            let reference = reference_ranking(&db, &query, method);
            let out = rank_why_so_parallel(
                &db,
                &query,
                &RankConfig {
                    method,
                    parallelism: 4,
                    top_k: None,
                },
                None,
            )
            .unwrap();
            assert_eq!(out.causes, reference);
        }
    }

    #[test]
    fn hard_query_errors_match_sequential() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let t = db.add_relation(Schema::new("T", &["z", "x"]));
        db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        db.insert_endo(t, tup![3, 1]);
        let query = q("h2 :- R(x, y), S(y, z), T(z, x)");
        // Flow refuses the non-weakly-linear triangle on every path.
        for parallelism in [1, 4] {
            let err = rank_why_so_parallel(
                &db,
                &query,
                &RankConfig {
                    method: Method::Flow,
                    parallelism,
                    top_k: None,
                },
                None,
            );
            assert!(err.is_err());
        }
        // Auto falls back to the exact solver and agrees with the reference.
        let reference = reference_ranking(&db, &query, Method::Auto);
        let out =
            rank_why_so_parallel(&db, &query, &RankConfig::with_parallelism(4), None).unwrap();
        assert_eq!(out.causes, reference);
    }

    #[test]
    fn empty_ranking_for_false_query() {
        let db = example_2_2();
        let out = rank_why_so_parallel(
            &db,
            &q("q :- R(x, 'a6'), S('a6')"),
            &RankConfig::with_parallelism(4).top_k(3),
            None,
        )
        .unwrap();
        assert!(out.causes.is_empty());
        assert_eq!(out.stats.candidates, 0);
    }

    #[test]
    fn threshold_strictness_preserves_ties() {
        let mut t = TopKThreshold::new(2);
        t.record(0.5);
        t.record(0.5);
        // A bound *equal* to the kth best must not prune: the candidate
        // could tie and win on tuple identity.
        assert!(!t.proves_out(0.5));
        assert!(t.proves_out(0.4999));
        t.record(1.0);
        assert_eq!(t.best, vec![1.0, 0.5]);
        assert!(!t.proves_out(0.5));
        assert!(t.proves_out(0.25));
    }

    #[test]
    fn threshold_of_zero_proves_every_candidate_out() {
        let t = TopKThreshold::new(0);
        assert!(t.proves_out(1.0));
        assert!(t.proves_out(0.0));
    }

    #[test]
    fn top_zero_prunes_every_candidate() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        for parallelism in [1, 2] {
            let out = rank_why_so_parallel(
                &db,
                &query,
                &RankConfig::with_parallelism(parallelism).top_k(0),
                None,
            )
            .unwrap();
            assert!(out.causes.is_empty());
            assert_eq!(out.stats.candidates, 4, "stats: {:?}", out.stats);
            assert_eq!(out.stats.computed, 0);
            assert_eq!(out.stats.pruned, out.stats.candidates);
        }
    }

    #[test]
    fn packing_bound_is_sound_on_example() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)").ground(&[Value::str("a4")]);
        let (arena, phin) = minimized_n_lineage(&db, &query, None).unwrap();
        let mut scratch = VarSet::new();
        for t in arena.tuples_of(&phin.variables()) {
            let v = arena.id(t).unwrap();
            let lb = disjoint_packing_bound(&phin, v, &mut scratch);
            let ub = 1.0 / (1.0 + lb as f64);
            let actual = resp::why_so_responsibility(&db, &query, t).unwrap();
            assert!(
                actual.rho <= ub + 1e-12,
                "bound {ub} below actual {} for {t:?}",
                actual.rho
            );
        }
    }
}

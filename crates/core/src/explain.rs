//! The user-facing explanation API.
//!
//! The paper's motivating workflow (Fig. 1 / Fig. 2): a user sees a
//! surprising answer (or misses an expected one) and asks *why*. An
//! [`Explainer`] wraps a database and a (non-Boolean) query; [`Explainer::why`]
//! grounds an answer, computes its causes and responsibilities, and
//! returns a ranked, renderable [`Explanation`] — the Fig. 2b table.

use crate::causes::causes_from_minimized_whyso;
use crate::dichotomy::classify::DichotomyTag;
use crate::error::CoreError;
use crate::ranking::{
    rank_why_no, rank_why_so_parallel, Method, RankConfig, RankStats, RankedCause,
};
use crate::resp::approx::{ApproxBudget, RhoBounds, SharedBrackets};
use causality_engine::{ConjunctiveQuery, Database, SharedIndexCache, Tuple, TupleRef, Value};
use causality_lineage::minimized_n_lineage;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Why-So or Why-No.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExplanationKind {
    /// Why is this tuple an answer?
    WhySo,
    /// Why is this tuple *not* an answer?
    WhyNo,
}

/// How an explanation's responsibilities were computed.
///
/// The serving tier's hardness router produces [`ExplainMode::Approximate`]
/// when an NP-hard instance runs under a deadline: every ρ then carries a
/// certified `[lower, upper]` bracket instead of an exact value (the
/// reported `rho` is the certified lower bound).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExplainMode {
    /// Every ρ is exact (the flow/bitset kernels ran to completion).
    Exact,
    /// ρ values are certified anytime bounds from
    /// [`crate::resp::approx`].
    ///
    /// An answer from a plan's collapsed outcome (see
    /// [`AnytimePlan::answer`]) did no refinement of its own: its
    /// `refinements` and `search_nodes` are those of the phase two that
    /// collapsed the plan, and its `budget_spent_us` is this call's time.
    Approximate {
        /// Bracket on the explanation's ρ_max (the per-cause brackets
        /// live on [`ExplainedCause::bounds`]).
        bounds: RhoBounds,
        /// Wall-clock µs of [`AnytimePlan::answer`]: the refinement
        /// phase after the last cause's bracket, with the answer's
        /// assembly. On an answer from a memoized plan it covers the
        /// whole call; through [`Explainer::why_anytime`] the brackets
        /// before it are the rest of [`ExplainTiming::solve_us`].
        budget_spent_us: u64,
        /// Completed refinement levels across all causes. A cause that
        /// takes a shorter contingency from the repair table may need
        /// fewer levels, or none.
        refinements: u32,
        /// Causes whose bracket the request's repair table closed with
        /// no per-cause work: exact at `1/B`, where `B` is the global
        /// floor on every hitting set of the lineage.
        settled: u32,
        /// Search nodes the refinements expanded across all causes: the
        /// sum of their `steps_used`. At a clock-free budget it is a
        /// function of the lineage and the budget alone.
        search_nodes: u64,
    },
}

/// One ranked cause, resolved to displayable tuple values.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainedCause {
    /// The causing tuple's identity.
    pub tuple: TupleRef,
    /// Relation name.
    pub relation: String,
    /// The tuple's values.
    pub values: Tuple,
    /// Responsibility ρ. Under [`ExplainMode::Approximate`] this is the
    /// certified *lower* bound (`bounds.lower`).
    pub rho: f64,
    /// Whether the cause is counterfactual (ρ = 1).
    pub counterfactual: bool,
    /// A witnessing minimum contingency, rendered as `Rel(values)` strings.
    /// Under [`ExplainMode::Approximate`] it is the best *feasible*
    /// contingency found (witnessing `bounds.lower`, not necessarily
    /// minimum). Each tuple is rendered once per call, or on the anytime
    /// route once per [`AnytimePlan`]: every contingency that holds it
    /// shares the one string.
    pub contingency: Vec<Arc<str>>,
    /// Certified `[lower, upper]` bracket on ρ; `None` on exact paths.
    pub bounds: Option<RhoBounds>,
}

/// A ranked explanation of one (non-)answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Explanation {
    /// Which question was asked.
    pub kind: ExplanationKind,
    /// The answer (or non-answer) tuple.
    pub answer: Vec<Value>,
    /// Causes, ranked by responsibility (descending).
    pub causes: Vec<ExplainedCause>,
    /// The dichotomy verdict for the grounded query (Cor. 4.14). Why-No
    /// explanations are always [`DichotomyTag::PTime`] (Theorem 4.17).
    pub dichotomy: DichotomyTag,
    /// Conjunct count of the minimized lineage the causes were ranked
    /// against — the paper's per-request cost driver.
    pub lineage_conjuncts: usize,
    /// Exact or anytime-approximate responsibilities (the hardness
    /// router's verdict; always [`ExplainMode::Exact`] off the anytime
    /// path).
    pub mode: ExplainMode,
}

impl Explanation {
    /// The highest responsibility among the causes (0.0 when none).
    pub fn rho_max(&self) -> f64 {
        self.causes.first().map(|c| c.rho).unwrap_or(0.0)
    }
}

/// Where the time went inside one `why`/`why_not` call, for tracing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExplainTiming {
    /// µs computing, interning, and minimizing the lineage.
    pub lineage_us: u64,
    /// µs in the per-cause responsibility solves.
    pub solve_us: u64,
}

/// Two parts of one answer's time, such as an [`AnytimePlan`]'s build
/// and one answer of it, added field by field.
impl std::ops::Add for ExplainTiming {
    type Output = ExplainTiming;

    fn add(self, other: ExplainTiming) -> ExplainTiming {
        ExplainTiming {
            lineage_us: self.lineage_us + other.lineage_us,
            solve_us: self.solve_us + other.solve_us,
        }
    }
}

impl From<&RankStats> for ExplainTiming {
    fn from(stats: &RankStats) -> Self {
        Self {
            lineage_us: stats.lineage_us,
            solve_us: stats.solve_us,
        }
    }
}

/// Explains answers and non-answers of one query over one database.
///
/// Every ranking an explainer produces runs on the interned lineage
/// arena ([`causality_lineage::arena`]): the (non-)answer's lineage is
/// computed, interned to dense variable ids, and minimized **once** per
/// call, and all per-cause responsibility kernels operate on packed
/// bitsets — `TupleRef`s reappear only in the returned
/// [`ExplainedCause`]s.
///
/// The explainer owns a [`SharedIndexCache`]: the join indexes built for
/// the first `why`/`why_not` call are reused by every later call on the
/// same explainer. A serving layer that maintains a long-lived cache
/// injects it via [`Explainer::with_index_cache`] — cache entries are
/// keyed on per-relation content stamps, so one cache is sound across
/// explainers, databases, and snapshot versions alike.
pub struct Explainer<'a> {
    db: &'a Database,
    query: &'a ConjunctiveQuery,
    method: Method,
    parallelism: usize,
    cache: Arc<SharedIndexCache>,
    /// The query's dichotomy tag, when the caller already knows it.
    dichotomy: Option<DichotomyTag>,
}

impl<'a> Explainer<'a> {
    /// Create an explainer (automatic responsibility algorithm choice).
    pub fn new(db: &'a Database, query: &'a ConjunctiveQuery) -> Self {
        Explainer {
            db,
            query,
            method: Method::Auto,
            parallelism: 1,
            cache: Arc::new(SharedIndexCache::new()),
            dichotomy: None,
        }
    }

    /// Select the responsibility algorithm.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Fan per-cause responsibility runs out over `parallelism` threads
    /// (min 1). The ranked output is bit-identical at every level — see
    /// [`crate::ranking::parallel`].
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Take `tag` as the dichotomy verdict of every Why-So call instead
    /// of classifying the grounded query on each one. The tag is a
    /// function of the ungrounded query: every answer grounds the same
    /// head variables, and the classifier never reads a constant. It must
    /// still come from [`DichotomyTag::of_why_so`] on *a* grounding of
    /// this explainer's query, since grounding changes it; the explainer
    /// does not check. A serving layer that memoizes the tag per query
    /// passes it here.
    pub fn with_dichotomy(mut self, tag: DichotomyTag) -> Self {
        self.dichotomy = Some(tag);
        self
    }

    /// The dichotomy tag of `grounded`, this explainer's query grounded
    /// with some answer: the one [`Explainer::with_dichotomy`] gave, or
    /// the classifier's.
    fn dichotomy_of(&self, grounded: &ConjunctiveQuery) -> DichotomyTag {
        self.dichotomy
            .unwrap_or_else(|| DichotomyTag::of_why_so(grounded))
    }

    /// Share an externally owned index cache (e.g. the one long-lived
    /// cache of a serving layer). Always sound: entries are keyed on
    /// per-relation content stamps, so indexes built from other database
    /// states can never be served against this one.
    pub fn with_index_cache(mut self, cache: Arc<SharedIndexCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The index cache populated by this explainer's calls.
    pub fn index_cache(&self) -> &Arc<SharedIndexCache> {
        &self.cache
    }

    /// Why is `answer` in the result? Ranked causes per Fig. 2b.
    ///
    /// An answer that does not match the query head (arity, constants) is
    /// an error, not a panic.
    pub fn why(&self, answer: &[Value]) -> Result<Explanation, CoreError> {
        self.why_timed(answer).map(|(explanation, _)| explanation)
    }

    /// [`Explainer::why`] plus an [`ExplainTiming`] splitting the cost
    /// into lineage and solve time. The explanation itself is identical
    /// (timings never live on [`Explanation`], which stays comparable
    /// across runs).
    pub fn why_timed(&self, answer: &[Value]) -> Result<(Explanation, ExplainTiming), CoreError> {
        let (explanation, stats) = self.why_ranked(answer, None)?;
        Ok((explanation, ExplainTiming::from(&stats)))
    }

    /// [`Explainer::why`] with certified anytime bounds instead of exact
    /// responsibilities: the NP-hard escape hatch of the dichotomy-aware
    /// serving tier.
    ///
    /// The cause *set* is exact (Theorem 3.2 is PTIME); only the ρ
    /// values are bracketed. Each cause carries a
    /// [`RhoBounds`] with `lower ≤ ρ ≤ upper`, its `rho` field is the
    /// certified lower bound, and causes are ranked by that bound.
    ///
    /// The solve runs in two phases on one packed kernel for the whole
    /// request (see [`crate::resp::approx`]), which keeps the request's
    /// repair table: every hitting set of the lineage found for one
    /// cause certifies a contingency for each of its necessary members.
    /// First every cause gets its budget-free bracket, so each one is
    /// sound whatever the budget: a cause whose table contingency meets
    /// the lineage's global floor is settled exactly with no per-cause
    /// work, and every other bracket starts from its table contingency.
    /// Then what is left of the budget goes to refinement, cause by cause
    /// in order: the step budget is split evenly across the causes and
    /// the deadline (if any) is shared, so a refinement that starts after
    /// the deadline returns its bracket at once. Each cause first takes
    /// the table's contingency when it is shorter, and a solution the
    /// search finds goes back into the table. With
    /// [`ApproxBudget::zero`] the result is the polynomial search-free
    /// bracket; with [`ApproxBudget::unlimited`] every bracket collapses
    /// to the exact ρ. Without a deadline each cause's bracket lies inside
    /// the one [`crate::resp::approx::anytime_min_contingency`] gives
    /// under its share of the steps.
    ///
    /// The call is [`Explainer::plan_anytime`], which does everything
    /// that reads no clock (the lineage, the causes and phase one), then
    /// [`AnytimePlan::answer`] under `budget`; the returned timing sums
    /// the two. [`ExplainTiming::solve_us`] covers both phases, and the
    /// mode's `budget_spent_us` the answer alone: phase two and assembly.
    pub fn why_anytime(
        &self,
        answer: &[Value],
        budget: ApproxBudget,
    ) -> Result<(Explanation, ExplainTiming), CoreError> {
        let (plan, planned) = self.plan_anytime(answer)?;
        let (explanation, answered) = plan.answer(budget);
        Ok((explanation, planned + answered))
    }

    /// The clock-free part of [`Explainer::why_anytime`] for `answer`:
    /// grounding, the dichotomy tag, the minimized lineage Φⁿ, the causes
    /// (Theorem 3.2), and phase one, which packs Φⁿ into the kernel and
    /// brackets every cause against the repair table. The plan also
    /// renders every tuple of the lineage and copies each cause's
    /// relation name and values, so it reads the database no more; every
    /// answer of it is [`AnytimePlan::answer`]. The timing's `lineage_us`
    /// is the lineage and the causes, and its `solve_us` phase one with
    /// the rendering.
    pub fn plan_anytime(
        &self,
        answer: &[Value],
    ) -> Result<(AnytimePlan, ExplainTiming), CoreError> {
        let grounded = self.query.try_ground(answer)?;
        let tag = self.dichotomy_of(&grounded);
        let lineage_started = Instant::now();
        let (arena, phin) = minimized_n_lineage(self.db, &grounded, Some(&self.cache))?;
        let causes = causes_from_minimized_whyso(&arena, &phin);
        let lineage_us = lineage_started.elapsed().as_micros() as u64;

        let solve_started = Instant::now();
        // Phase one: every cause's budget-free bracket, settled from the
        // repair table where it can be.
        let brackets = SharedBrackets::new(
            &phin,
            causes
                .actual
                .iter()
                .map(|&t| arena.id(t).expect("actual cause is interned")),
        );
        let mut buf = String::new();
        let rendered = (0..arena.len() as u32)
            .map(|id| self.render_tuple(&mut buf, arena.resolve(id)))
            .collect();
        let causes = causes
            .actual
            .iter()
            .map(|&t| PlannedCause {
                tuple: t,
                relation: self.db.relation(t.rel).name().to_string(),
                values: self.db.tuple(t).clone(),
            })
            .collect();
        let plan = AnytimePlan {
            answer: answer.to_vec(),
            dichotomy: tag,
            lineage_conjuncts: phin.conjuncts().len(),
            brackets,
            causes,
            rendered,
            collapsed: OnceLock::new(),
        };
        let solve_us = solve_started.elapsed().as_micros() as u64;
        Ok((
            plan,
            ExplainTiming {
                lineage_us,
                solve_us,
            },
        ))
    }

    /// Like [`Explainer::why`], but computes (and returns) only the `k`
    /// most responsible causes: candidates are screened with a cheap
    /// upper bound and full responsibility is only solved while it can
    /// still change the top k (see [`crate::ranking::parallel`]). The
    /// returned causes are bit-identical to the first `k` of
    /// [`Explainer::why`]; the [`RankStats`] report how much work the
    /// screen saved.
    pub fn why_top_k(
        &self,
        answer: &[Value],
        k: usize,
    ) -> Result<(Explanation, RankStats), CoreError> {
        self.why_ranked(answer, Some(k))
    }

    /// The one Why-So ranking behind [`Explainer::why_timed`] (all
    /// causes) and [`Explainer::why_top_k`] (the top `k`).
    fn why_ranked(
        &self,
        answer: &[Value],
        top_k: Option<usize>,
    ) -> Result<(Explanation, RankStats), CoreError> {
        let grounded = self.query.try_ground(answer)?;
        let tag = self.dichotomy_of(&grounded);
        let cfg = RankConfig {
            method: self.method,
            parallelism: self.parallelism,
            top_k,
        };
        let out = rank_why_so_parallel(self.db, &grounded, &cfg, Some(&self.cache))?;
        let conjuncts = out.stats.lineage_conjuncts;
        Ok((
            self.build(ExplanationKind::WhySo, answer, out.causes, tag, conjuncts),
            out.stats,
        ))
    }

    /// Why is `answer` *not* in the result? The database's endogenous
    /// tuples are interpreted as candidate insertions (Sect. 2's Why-No
    /// setting).
    pub fn why_not(&self, answer: &[Value]) -> Result<Explanation, CoreError> {
        self.why_not_timed(answer)
            .map(|(explanation, _)| explanation)
    }

    /// [`Explainer::why_not`] plus an [`ExplainTiming`]. Why-No is
    /// always PTIME (Theorem 4.17), so the dichotomy tag is fixed.
    pub fn why_not_timed(
        &self,
        answer: &[Value],
    ) -> Result<(Explanation, ExplainTiming), CoreError> {
        let grounded = self.query.try_ground(answer)?;
        let out = rank_why_no(self.db, &grounded, Some(&self.cache))?;
        Ok((
            self.build(
                ExplanationKind::WhyNo,
                answer,
                out.causes,
                DichotomyTag::PTime,
                out.stats.lineage_conjuncts,
            ),
            ExplainTiming::from(&out.stats),
        ))
    }

    fn build(
        &self,
        kind: ExplanationKind,
        answer: &[Value],
        ranked: Vec<RankedCause>,
        dichotomy: DichotomyTag,
        lineage_conjuncts: usize,
    ) -> Explanation {
        // Each distinct tuple is rendered at most once per call.
        let mut rendered: HashMap<TupleRef, Arc<str>> = HashMap::new();
        let mut buf = String::new();
        let causes = ranked
            .into_iter()
            .map(|rc| {
                let contingency = rc
                    .responsibility
                    .min_contingency
                    .as_deref()
                    .unwrap_or_default()
                    .iter()
                    .map(|&t| {
                        Arc::clone(
                            rendered
                                .entry(t)
                                .or_insert_with(|| self.render_tuple(&mut buf, t)),
                        )
                    })
                    .collect();
                ExplainedCause {
                    tuple: rc.tuple,
                    relation: self.db.relation(rc.tuple.rel).name().to_string(),
                    values: self.db.tuple(rc.tuple).clone(),
                    rho: rc.responsibility.rho,
                    counterfactual: rc.responsibility.is_counterfactual(),
                    contingency,
                    bounds: None,
                }
            })
            .collect();
        Explanation {
            kind,
            answer: answer.to_vec(),
            causes,
            dichotomy,
            lineage_conjuncts,
            mode: ExplainMode::Exact,
        }
    }

    /// `Rel(values)` for `t`, written into the reused `buf` and copied
    /// once into its shared string.
    fn render_tuple(&self, buf: &mut String, t: TupleRef) -> Arc<str> {
        buf.clear();
        write!(
            buf,
            "{}{}",
            self.db.relation(t.rel).name(),
            self.db.tuple(t)
        )
        .expect("writing to a String cannot fail");
        Arc::from(buf.as_str())
    }
}

/// The clock-free part of an anytime Why-So answer, built once by
/// [`Explainer::plan_anytime`] and answered any number of times by
/// [`AnytimePlan::answer`].
///
/// By Theorem 3.2 a Why-So answer's causes are read off the minimized
/// lineage Φⁿ, and each ρ is fixed by Φⁿ's minimal hitting sets, so
/// everything the anytime route computes before it first reads the clock
/// depends only on the relations the query reads. A plan keeps exactly
/// what answering reads: the packed rows of Φⁿ, the global floor, every
/// cause's phase-one bracket and the repair table after them (in flat
/// arrays), and each cause's tuple, relation name and values, with every
/// lineage tuple rendered once. It holds no database, arena or scratch
/// buffer, and it is `Send + Sync`, so a serving tier can keep it in a
/// cache keyed on the content of the relations the query reads.
///
/// Answering never changes that state. A plan keeps one thing from its
/// answers: the outcome of the first phase two in which every bracket
/// collapsed, which is the unlimited-budget outcome and so, like phase
/// one, a function of the relations alone. It is set once, per cause the
/// bracket and the contingency as arena ids with the refinement and
/// search-node counts, and every thread holding the plan reads it; see
/// [`AnytimePlan::answer`] for the budgets that do.
pub struct AnytimePlan {
    answer: Vec<Value>,
    dichotomy: DichotomyTag,
    lineage_conjuncts: usize,
    /// Phase one: one bracket per cause, in `causes` order.
    brackets: SharedBrackets,
    causes: Vec<PlannedCause>,
    /// Every arena variable as `Rel(values)`, by variable id.
    rendered: Vec<Arc<str>>,
    /// The first phase two in which every bracket collapsed.
    collapsed: OnceLock<Refined>,
}

/// A cause of an [`AnytimePlan`], copied out of the database.
struct PlannedCause {
    tuple: TupleRef,
    relation: String,
    values: Tuple,
}

impl AnytimePlan {
    /// Answer the plan under `budget`: phase two and assembly of
    /// [`Explainer::why_anytime`], on a copy of the plan's repair table.
    ///
    /// Phase two never changes the plan's phase one. The plan keeps one
    /// thing from its answers: the outcome of the first phase two in
    /// which every bracket collapsed, set once. A refinement cut short
    /// by its budget leaves its bracket open, so such a phase two ran
    /// every refinement to completion, and its outcome is the plan's
    /// [`ApproxBudget::unlimited`] outcome, counts included. A `budget`
    /// with no step cap whose deadline is absent or still ahead at entry
    /// answers from that outcome and skips phase two; a step cap or a
    /// deadline already passed (brownout, a rescued request) runs phase
    /// two as on a fresh plan. So at every clock-free budget the
    /// explanation equals the one `why_anytime` gives on the database
    /// the plan was built from, however often and in whatever order the
    /// plan was answered before. The timing has no lineage time, and its
    /// `solve_us`, like the mode's `budget_spent_us`, covers the whole
    /// call.
    pub fn answer(&self, budget: ApproxBudget) -> (Explanation, ExplainTiming) {
        let started = Instant::now();
        let open_ended =
            budget.max_steps == u64::MAX && budget.deadline.is_none_or(|d| started < d);
        let refined;
        let outcome = match self.collapsed.get() {
            Some(collapsed) if open_ended => collapsed,
            _ => {
                refined = self.refine(budget);
                if refined.collapsed() {
                    // Whichever answer sets it, the outcome is the same.
                    self.collapsed.get_or_init(|| refined)
                } else {
                    &refined
                }
            }
        };
        let mut explained: Vec<ExplainedCause> = self
            .causes
            .iter()
            .zip(outcome.per_cause())
            .map(|(cause, (bounds, contingency))| ExplainedCause {
                tuple: cause.tuple,
                relation: cause.relation.clone(),
                values: cause.values.clone(),
                rho: bounds.lower,
                counterfactual: bounds.is_exact() && bounds.lower == 1.0,
                contingency: contingency
                    .iter()
                    .map(|&id| Arc::clone(&self.rendered[id as usize]))
                    .collect(),
                bounds: Some(bounds),
            })
            .collect();
        // Rank by certified lower bound, then tighter upper bound, then
        // tuple id — deterministic like the exact ranker's order.
        explained.sort_by(|a, b| {
            b.rho
                .total_cmp(&a.rho)
                .then(
                    b.bounds
                        .expect("anytime cause")
                        .upper
                        .total_cmp(&a.bounds.expect("anytime cause").upper),
                )
                .then(a.tuple.cmp(&b.tuple))
        });
        let spent_us = started.elapsed().as_micros() as u64;

        // Bracket on ρ_max: the max of the per-cause brackets.
        let bounds =
            explained
                .iter()
                .filter_map(|c| c.bounds)
                .fold(RhoBounds::exact(0.0), |acc, b| RhoBounds {
                    lower: acc.lower.max(b.lower),
                    upper: acc.upper.max(b.upper),
                });
        let explanation = Explanation {
            kind: ExplanationKind::WhySo,
            answer: self.answer.clone(),
            causes: explained,
            dichotomy: self.dichotomy,
            lineage_conjuncts: self.lineage_conjuncts,
            mode: ExplainMode::Approximate {
                bounds,
                budget_spent_us: spent_us,
                refinements: outcome.refinements,
                settled: self.brackets.settled(),
                search_nodes: outcome.search_nodes,
            },
        };
        (
            explanation,
            ExplainTiming {
                lineage_us: 0,
                solve_us: spent_us,
            },
        )
    }

    /// Phase two on what is left of `budget`: the step budget is split
    /// evenly across the causes, and the deadline is shared.
    fn refine(&self, budget: ApproxBudget) -> Refined {
        let per_cause = ApproxBudget {
            max_steps: budget.max_steps / self.causes.len().max(1) as u64,
            deadline: budget.deadline,
        };
        let mut refined = Refined {
            causes: Vec::with_capacity(self.causes.len()),
            contingencies: Vec::new(),
            refinements: 0,
            search_nodes: 0,
        };
        self.brackets.refine(per_cause, |out| {
            refined.refinements += out.refinements;
            refined.search_nodes += out.steps_used;
            refined
                .contingencies
                .extend_from_slice(out.contingency.as_deref().unwrap_or_default());
            refined
                .causes
                .push((out.bounds, refined.contingencies.len()));
        });
        refined
    }
}

/// What one phase two made of an [`AnytimePlan`]'s brackets, compactly:
/// per cause, in the plan's order, its bracket and its contingency as
/// arena ids, with the refinement levels and search nodes of all the
/// causes. Every answer is assembled from one.
struct Refined {
    /// Per cause, its bracket and where its contingency ends in
    /// `contingencies` (each starts where the one before it ends).
    causes: Vec<(RhoBounds, usize)>,
    contingencies: Vec<u32>,
    refinements: u32,
    search_nodes: u64,
}

impl Refined {
    /// Whether every bracket collapsed.
    fn collapsed(&self) -> bool {
        self.causes.iter().all(|(bounds, _)| bounds.is_exact())
    }

    /// Each cause's bracket and contingency, in the plan's order.
    fn per_cause(&self) -> impl Iterator<Item = (RhoBounds, &[u32])> {
        let mut start = 0;
        self.causes.iter().map(move |&(bounds, end)| {
            let contingency = &self.contingencies[start..end];
            start = end;
            (bounds, contingency)
        })
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let answer = self
            .answer
            .iter()
            .map(Value::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        match self.kind {
            ExplanationKind::WhySo => writeln!(f, "Why is ({answer}) an answer?")?,
            ExplanationKind::WhyNo => writeln!(f, "Why is ({answer}) not an answer?")?,
        }
        if let ExplainMode::Approximate {
            bounds,
            refinements,
            ..
        } = self.mode
        {
            writeln!(
                f,
                "(anytime: ρ_max ∈ [{:.3}, {:.3}] after {refinements} refinements)",
                bounds.lower, bounds.upper
            )?;
        }
        writeln!(f, "{:>6}  cause", "ρ")?;
        for c in &self.causes {
            writeln!(f, "{:>6.2}  {}{}", c.rho, c.relation, c.values)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, Schema};

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn why_explains_example_2_2() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let explanation = Explainer::new(&db, &query)
            .why(&[Value::str("a2")])
            .unwrap();
        assert_eq!(explanation.kind, ExplanationKind::WhySo);
        assert_eq!(explanation.causes.len(), 2);
        assert!(explanation.causes.iter().all(|c| c.counterfactual));
        let rendered = explanation.to_string();
        assert!(rendered.contains("Why is (a2) an answer?"));
        assert!(rendered.contains("S(a1)"));
        assert!(rendered.contains("R(a2, a1)"));
    }

    #[test]
    fn contingencies_are_rendered() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let explanation = Explainer::new(&db, &query)
            .why(&[Value::str("a4")])
            .unwrap();
        let s_a3 = explanation
            .causes
            .iter()
            .find(|c| c.relation == "S" && c.values == tup!["a3"])
            .expect("S(a3) is a cause");
        assert_eq!(s_a3.contingency.len(), 1);
        assert!(!s_a3.counterfactual);
    }

    #[test]
    fn why_not_explains_missing_answers() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        db.insert_endo(s, tup![2]); // candidate insertion
        let query = q("q(x) :- R(x, y), S(y)");
        let explanation = Explainer::new(&db, &query)
            .why_not(&[Value::int(1)])
            .unwrap();
        assert_eq!(explanation.kind, ExplanationKind::WhyNo);
        assert_eq!(explanation.causes.len(), 1);
        assert_eq!(explanation.causes[0].rho, 1.0);
        assert!(explanation.to_string().contains("not an answer"));
    }

    #[test]
    fn method_selection_is_respected() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let exact = Explainer::new(&db, &query)
            .with_method(Method::Exact)
            .why(&[Value::str("a3")])
            .unwrap();
        let flow = Explainer::new(&db, &query)
            .with_method(Method::Flow)
            .why(&[Value::str("a3")])
            .unwrap();
        let rhos = |e: &Explanation| e.causes.iter().map(|c| c.rho).collect::<Vec<_>>();
        assert_eq!(rhos(&exact), rhos(&flow));
    }

    #[test]
    fn index_cache_is_reused_across_calls() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let explainer = Explainer::new(&db, &query);
        let cold = explainer.why(&[Value::str("a4")]).unwrap();
        let built = explainer.index_cache().len();
        assert!(built > 0, "first call populates the cache");
        let warm = explainer.why(&[Value::str("a4")]).unwrap();
        assert_eq!(
            explainer.index_cache().len(),
            built,
            "same grounded shape builds no new indexes"
        );
        assert_eq!(cold, warm, "cached indexes do not change the answer");

        // An injected cache is shared between explainer instances.
        let shared = std::sync::Arc::clone(explainer.index_cache());
        let other = Explainer::new(&db, &query).with_index_cache(shared);
        let again = other.why(&[Value::str("a4")]).unwrap();
        assert_eq!(cold, again);
    }

    #[test]
    fn parallel_why_and_top_k_match_sequential() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let sequential = Explainer::new(&db, &query)
            .why(&[Value::str("a4")])
            .unwrap();
        let parallel = Explainer::new(&db, &query)
            .with_parallelism(4)
            .why(&[Value::str("a4")])
            .unwrap();
        assert_eq!(sequential, parallel, "fan-out is bit-identical");

        let (top2, stats) = Explainer::new(&db, &query)
            .with_parallelism(2)
            .why_top_k(&[Value::str("a4")], 2)
            .unwrap();
        assert_eq!(top2.causes.len(), 2);
        assert_eq!(top2.causes, sequential.causes[..2].to_vec());
        assert_eq!(stats.candidates, sequential.causes.len());
    }

    #[test]
    fn explanations_carry_the_dichotomy_and_lineage_size() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let (explanation, timing) = Explainer::new(&db, &query)
            .why_timed(&[Value::str("a4")])
            .unwrap();
        assert_eq!(explanation.dichotomy, DichotomyTag::PTime);
        assert_eq!(explanation.dichotomy.label(), "PTIME");
        assert!(explanation.lineage_conjuncts > 0);
        assert!((explanation.rho_max() - 0.5).abs() < 1e-12);
        // The timed and untimed calls agree on the explanation itself.
        let untimed = Explainer::new(&db, &query)
            .why(&[Value::str("a4")])
            .unwrap();
        assert_eq!(explanation, untimed);
        let _ = timing; // timings are environment-dependent; no assertion

        // The triangle h2* is NP-hard, and the tag says so.
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let t = db.add_relation(Schema::new("T", &["z", "x"]));
        db.insert_endo(r, tup![1, 2]);
        db.insert_endo(s, tup![2, 3]);
        db.insert_endo(t, tup![3, 1]);
        let hard = q("h2 :- R(x, y), S(y, z), T(z, x)");
        let explanation = Explainer::new(&db, &hard).why(&[]).unwrap();
        assert_eq!(explanation.dichotomy, DichotomyTag::NpHard);
        assert_eq!(explanation.rho_max(), 1.0);
    }

    #[test]
    fn why_not_is_tagged_ptime_per_theorem_4_17() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        db.insert_endo(s, tup![2]);
        let query = q("q(x) :- R(x, y), S(y)");
        let (explanation, _timing) = Explainer::new(&db, &query)
            .why_not_timed(&[Value::int(1)])
            .unwrap();
        assert_eq!(explanation.dichotomy, DichotomyTag::PTime);
        assert!(explanation.lineage_conjuncts > 0);
    }

    #[test]
    fn why_anytime_brackets_and_collapses_on_the_triangle() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let t = db.add_relation(Schema::new("T", &["z", "x"]));
        // A fan of 3 triangles sharing R(1,2): Γ_min for S(2,3) is the
        // 2 off-fan triangles, so ρ = 1/3; R(1,2) is counterfactual.
        db.insert_endo(r, tup![1, 2]);
        for i in 0..3 {
            db.insert_endo(s, tup![2, 10 + i]);
            db.insert_endo(t, tup![10 + i, 1]);
        }
        let hard = q("h2 :- R(x, y), S(y, z), T(z, x)");
        let explainer = Explainer::new(&db, &hard);

        let exact = explainer.why(&[]).unwrap();
        assert_eq!(exact.mode, ExplainMode::Exact);

        let (greedy, _) = explainer.why_anytime(&[], ApproxBudget::zero()).unwrap();
        let ExplainMode::Approximate { bounds, .. } = greedy.mode else {
            panic!("anytime path reports Approximate");
        };
        assert_eq!(greedy.dichotomy, DichotomyTag::NpHard);
        assert!(bounds.contains(exact.rho_max()), "{bounds:?}");
        // Same cause set, every cause bracketing its exact ρ.
        assert_eq!(greedy.causes.len(), exact.causes.len());
        for c in &greedy.causes {
            let e = exact.causes.iter().find(|e| e.tuple == c.tuple).unwrap();
            assert!(c.bounds.unwrap().contains(e.rho), "{:?}", c.bounds);
        }

        let (full, _) = explainer
            .why_anytime(&[], ApproxBudget::unlimited())
            .unwrap();
        for c in &full.causes {
            let e = exact.causes.iter().find(|e| e.tuple == c.tuple).unwrap();
            assert!(c.bounds.unwrap().is_exact());
            assert!((c.rho - e.rho).abs() < 1e-12, "collapsed to exact ρ");
            assert_eq!(c.counterfactual, e.counterfactual);
        }
        assert_eq!(full.rho_max(), 1.0, "R(1,2) is counterfactual");
    }

    /// A tag handed to the explainer replaces the classifier on every
    /// Why-So entry point, and the explanations stay the same.
    #[test]
    fn a_given_dichotomy_tag_replaces_the_classifier() {
        use crate::dichotomy::classify::CLASSIFIED;
        let classified = || CLASSIFIED.with(|n| n.get());
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let t = db.add_relation(Schema::new("T", &["z", "x"]));
        db.insert_endo(r, tup![1, 2]);
        for i in 0..3 {
            db.insert_endo(s, tup![2, 10 + i]);
            db.insert_endo(t, tup![10 + i, 1]);
        }
        let hard = q("h2 :- R(x, y), S(y, z), T(z, x)");

        let plain = Explainer::new(&db, &hard);
        let before = classified();
        let (anytime, _) = plain.why_anytime(&[], ApproxBudget::zero()).unwrap();
        let exact = plain.why(&[]).unwrap();
        let (top, _) = plain.why_top_k(&[], 2).unwrap();
        assert_eq!(classified() - before, 3, "one classifier run per call");

        let tagged = Explainer::new(&db, &hard).with_dichotomy(DichotomyTag::NpHard);
        let before = classified();
        let (tagged_anytime, _) = tagged.why_anytime(&[], ApproxBudget::zero()).unwrap();
        assert_eq!(tagged.why(&[]).unwrap(), exact);
        assert_eq!(tagged.why_top_k(&[], 2).unwrap().0, top);
        assert_eq!(classified(), before, "no classifier run");
        assert_eq!(tagged_anytime.causes, anytime.causes);
        assert_eq!(tagged_anytime.dichotomy, DichotomyTag::NpHard);
    }

    #[test]
    fn non_answer_of_why_gives_empty_causes() {
        let db = example_2_2();
        let query = q("q(x) :- R(x, y), S(y)");
        let explanation = Explainer::new(&db, &query)
            .why(&[Value::str("zzz")])
            .unwrap();
        assert!(explanation.causes.is_empty());
    }
}

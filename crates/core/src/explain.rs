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
use crate::resp::approx::{AnytimeKernel, ApproxBudget, RhoBounds};
use causality_engine::{ConjunctiveQuery, Database, SharedIndexCache, Tuple, TupleRef, Value};
use causality_lineage::minimized_n_lineage;
use std::fmt;
use std::sync::Arc;
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
    Approximate {
        /// Bracket on the explanation's ρ_max (the per-cause brackets
        /// live on [`ExplainedCause::bounds`]).
        bounds: RhoBounds,
        /// Wall-clock µs after the last cause's bracket: the refinement
        /// phase, with the answer's assembly. The brackets before it are
        /// the rest of [`ExplainTiming::solve_us`].
        budget_spent_us: u64,
        /// Completed refinement levels across all causes.
        refinements: u32,
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
    /// minimum).
    pub contingency: Vec<String>,
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
    /// request (see [`crate::resp::approx`]). First every cause gets its
    /// budget-free bracket, so each one is sound whatever the budget.
    /// Then what is left of the budget goes to refinement, cause by cause
    /// in order: the step budget is split evenly across the causes and
    /// the deadline (if any) is shared, so a refinement that starts after
    /// the deadline returns its bracket at once. With
    /// [`ApproxBudget::zero`] the result is the polynomial search-free
    /// bracket; with [`ApproxBudget::unlimited`] every bracket collapses
    /// to the exact ρ. Without a deadline each cause's outcome equals
    /// [`crate::resp::approx::anytime_min_contingency`] under its share
    /// of the steps. [`ExplainTiming::solve_us`] covers both phases, and
    /// the mode's `budget_spent_us` the second one alone.
    pub fn why_anytime(
        &self,
        answer: &[Value],
        budget: ApproxBudget,
    ) -> Result<(Explanation, ExplainTiming), CoreError> {
        let grounded = self.query.try_ground(answer)?;
        let tag = DichotomyTag::of_why_so(&grounded);
        let lineage_started = Instant::now();
        let (arena, phin) = minimized_n_lineage(self.db, &grounded, Some(&self.cache))?;
        let causes = causes_from_minimized_whyso(&arena, &phin);
        let lineage_us = lineage_started.elapsed().as_micros() as u64;

        let solve_started = Instant::now();
        // Phase one: every cause's budget-free bracket.
        let mut kernel = AnytimeKernel::new(&phin);
        let brackets: Vec<_> = causes
            .actual
            .iter()
            .map(|&t| kernel.bracket(arena.id(t).expect("actual cause is interned")))
            .collect();
        let refine_started = Instant::now();
        let per_cause = ApproxBudget {
            max_steps: budget.max_steps / causes.actual.len().max(1) as u64,
            deadline: budget.deadline,
        };
        let mut refinements = 0u32;
        let mut explained: Vec<ExplainedCause> = Vec::with_capacity(causes.actual.len());
        // Each arena variable is rendered at most once per call.
        let mut rendered: Vec<Option<String>> = vec![None; arena.len()];
        // Phase two: refinement on what is left of the budget.
        for (&t, bracket) in causes.actual.iter().zip(brackets) {
            let out = kernel.refine(bracket, per_cause);
            refinements += out.refinements;
            let contingency = out
                .contingency
                .as_deref()
                .unwrap_or_default()
                .iter()
                .map(|&id| {
                    rendered[id as usize]
                        .get_or_insert_with(|| self.render_tuple(arena.resolve(id)))
                        .clone()
                })
                .collect();
            explained.push(ExplainedCause {
                tuple: t,
                relation: self.db.relation(t.rel).name().to_string(),
                values: self.db.tuple(t).clone(),
                rho: out.bounds.lower,
                counterfactual: out.is_exact() && out.bounds.lower == 1.0,
                contingency,
                bounds: Some(out.bounds),
            });
        }
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
        let solve_ended = Instant::now();
        let solve_us = (solve_ended - solve_started).as_micros() as u64;
        let refine_us = (solve_ended - refine_started).as_micros() as u64;

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
            answer: answer.to_vec(),
            causes: explained,
            dichotomy: tag,
            lineage_conjuncts: phin.conjuncts().len(),
            mode: ExplainMode::Approximate {
                bounds,
                budget_spent_us: refine_us,
                refinements,
            },
        };
        Ok((
            explanation,
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
        let tag = DichotomyTag::of_why_so(&grounded);
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
        let causes = ranked
            .into_iter()
            .map(|rc| {
                let contingency = rc
                    .responsibility
                    .min_contingency
                    .clone()
                    .unwrap_or_default()
                    .iter()
                    .map(|&t| self.render_tuple(t))
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

    fn render_tuple(&self, t: TupleRef) -> String {
        format!("{}{}", self.db.relation(t.rel).name(), self.db.tuple(t))
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

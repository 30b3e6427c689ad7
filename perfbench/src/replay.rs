//! The per-layer replay: the run's distinct questions, re-asked on one
//! thread through the public entry points of each layer, with a
//! benchmark-side span around every call.
//!
//! Self time = span − child spans. `n_lineage_cached` evaluates the
//! query internally; its child span is an `evaluate_masked_with_cache`
//! call timed right after it on the same warm index cache. The
//! evaluation timed before it is the `engine::eval` span (it pays any
//! index rebuild a write caused, as the tier's first request does).
//! Calls made only to read counters (`FlowStats`) are outside every span.

use crate::inputs::{apply_write, Inputs, Op};
use causality_core::dichotomy::classify::DichotomyTag;
use causality_core::explain::Explainer;
use causality_core::ranking::{rank_why_so_parallel, Method, RankConfig};
use causality_core::resp::approx::{anytime_min_contingency, ApproxBudget};
use causality_core::resp::flow::{
    why_so_responsibility_flow_cached, why_so_responsibility_flow_with,
};
use causality_engine::{evaluate_masked_with_cache, Database, EndoMask, SharedIndexCache};
use causality_graph::maxflow::FlowAlgorithm;
use causality_lineage::{n_lineage_cached, non_answer_lineage_cached, LineageArena};
use causality_service::ExplainKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The core layers a request's compute time is split into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Classify,
    Eval,
    Lineage,
    Intern,
    Minimize,
    Causes,
    Flow,
    Greedy,
    Refine,
    WhyNo,
    Ranking,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Classify,
        Layer::Eval,
        Layer::Lineage,
        Layer::Intern,
        Layer::Minimize,
        Layer::Causes,
        Layer::Flow,
        Layer::Greedy,
        Layer::Refine,
        Layer::WhyNo,
        Layer::Ranking,
    ];

    /// The module the layer's entry point lives in.
    pub fn module(self) -> &'static str {
        match self {
            Layer::Classify => "core::dichotomy",
            Layer::Eval => "engine::eval",
            Layer::Lineage => "lineage::{whyso,whyno}",
            Layer::Intern => "lineage::arena (intern)",
            Layer::Minimize => "lineage::arena (minimize)",
            Layer::Causes => "core::causes",
            Layer::Flow => "core::resp::flow",
            Layer::Greedy => "core::resp::approx (greedy)",
            Layer::Refine => "core::resp::approx (refine)",
            Layer::WhyNo => "core::resp::whyno",
            Layer::Ranking => "core::ranking",
        }
    }
}

/// Calls and self time of one layer.
#[derive(Clone, Copy, Default)]
pub struct LayerAcc {
    pub calls: u64,
    pub self_us: f64,
}

/// Counters read where the work happens.
#[derive(Default)]
pub struct Counters {
    pub valuations: u64,
    pub index_builds: u64,
    pub raw_conjuncts: u64,
    pub kept_conjuncts: u64,
    pub candidates: u64,
    pub flow_runs: u64,
    pub flow_paths: u64,
    pub flow_edges: u64,
    pub approx_causes: u64,
    pub collapsed: u64,
    pub topk_candidates: u64,
    pub topk_pruned: u64,
}

pub struct Replay {
    pub layers: [LayerAcc; Layer::ALL.len()],
    pub counters: Counters,
    /// Requests replayed (passes × distinct questions).
    pub requests: u64,
    /// Mean core compute per distinct question, µs.
    pub compute_us: Vec<f64>,
}

impl Replay {
    fn empty(questions: usize) -> Replay {
        Replay {
            layers: [LayerAcc::default(); Layer::ALL.len()],
            counters: Counters::default(),
            requests: 0,
            compute_us: vec![0.0; questions],
        }
    }

    pub fn layer(&self, layer: Layer) -> LayerAcc {
        self.layers[layer as usize]
    }

    /// Σ self time over every core layer, per replayed request.
    pub fn compute_per_request_us(&self) -> f64 {
        self.layers.iter().map(|l| l.self_us).sum::<f64>() / self.requests.max(1) as f64
    }

    fn add(&mut self, layer: Layer, d: Duration) -> f64 {
        let us = d.as_secs_f64() * 1e6;
        let acc = &mut self.layers[layer as usize];
        acc.calls += 1;
        acc.self_us += us;
        us
    }

    fn add_us(&mut self, layer: Layer, us: f64) {
        let acc = &mut self.layers[layer as usize];
        acc.calls += 1;
        acc.self_us += us.max(0.0);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Replay whole passes of the workload's op script (writes applied to a
/// private copy of each tenant's database): one counting pass, then
/// timed passes until `budget` is spent.
pub fn replay(inputs: &Inputs, budget: Duration) -> Replay {
    let mut out = Replay::empty(inputs.questions.len());
    let mut dbs: Vec<Database> = inputs.tenants.iter().map(|t| t.db.clone()).collect();
    let caches: Vec<Arc<SharedIndexCache>> = dbs
        .iter()
        .map(|_| Arc::new(SharedIndexCache::new()))
        .collect();
    // Warm the index caches as the tier's warm-up pass does.
    for q in &inputs.questions {
        let grounded = q
            .request
            .query
            .try_ground(&q.request.answer)
            .expect("groundable");
        let _ =
            evaluate_masked_with_cache(&dbs[q.tenant], &grounded, EndoMask::All, &caches[q.tenant]);
    }
    // Pass 0 only reads counters (`FlowStats` and friends); its times
    // are discarded, so the counter-only calls cannot disturb a timed
    // span. Timed passes follow until `budget` is spent (at least one).
    let mut writes = 0u64;
    let mut timed_passes = 0u32;
    let mut counting = true;
    let mut started = Instant::now();
    loop {
        let mut done = vec![false; inputs.questions.len()];
        let mut pass = Replay::empty(inputs.questions.len());
        for op in &inputs.ops {
            match *op {
                Op::Write(t) => {
                    writes += 1;
                    apply_write(inputs.kind, &mut dbs[t], writes);
                }
                Op::Ask(q) if !done[q] => {
                    done[q] = true;
                    let question = &inputs.questions[q];
                    let t = question.tenant;
                    let us = replay_one(&mut pass, &dbs[t], &caches[t], question, counting);
                    pass.compute_us[q] += us;
                    pass.requests += 1;
                }
                Op::Ask(_) => {}
            }
        }
        if counting {
            out.counters = pass.counters;
            counting = false;
            started = Instant::now();
            continue;
        }
        for (acc, add) in out.layers.iter_mut().zip(pass.layers) {
            acc.calls += add.calls;
            acc.self_us += add.self_us;
        }
        for (c, add) in out.compute_us.iter_mut().zip(pass.compute_us) {
            *c += add;
        }
        out.requests += pass.requests;
        timed_passes += 1;
        if started.elapsed() >= budget {
            break;
        }
    }
    for c in &mut out.compute_us {
        *c /= f64::from(timed_passes);
    }
    out
}

/// Replay one question; returns its core compute time in µs (Σ self).
fn replay_one(
    out: &mut Replay,
    db: &Database,
    cache: &Arc<SharedIndexCache>,
    question: &crate::inputs::Question,
    count: bool,
) -> f64 {
    let req = &question.request;
    let grounded = req.query.try_ground(&req.answer).expect("groundable");
    let mut total = 0.0;
    let why_so = !matches!(req.kind, ExplainKind::WhyNo);
    if why_so {
        let (tag, d) = timed(|| DichotomyTag::of_why_so(&grounded));
        total += out.add(Layer::Classify, d);
        std::hint::black_box(tag);
    }

    let before = cache.len();
    let (valuations, eval_d) = timed(|| {
        evaluate_masked_with_cache(db, &grounded, EndoMask::All, cache)
            .expect("evaluates")
            .valuations
            .len()
    });
    let eval_us = out.add(Layer::Eval, eval_d);
    total += eval_us;
    if count {
        out.counters.valuations += valuations as u64;
        out.counters.index_builds += cache.len().saturating_sub(before) as u64;
    }

    let (phi, lineage_d) = timed(|| match req.kind {
        ExplainKind::WhyNo => non_answer_lineage_cached(db, &grounded, Some(cache)),
        _ => n_lineage_cached(db, &grounded, Some(cache)),
    });
    let phi = phi.expect("lineage");
    // The evaluation inside the lineage call ran on warm indexes; its
    // child span is a second, equally warm evaluation (the first one
    // above may have rebuilt indexes after a write).
    let (_, warm_eval_d) = timed(|| {
        evaluate_masked_with_cache(db, &grounded, EndoMask::All, cache)
            .expect("evaluates")
            .valuations
            .len()
    });
    let lineage_us = ((lineage_d - warm_eval_d.min(lineage_d)).as_secs_f64() * 1e6).max(0.0);
    out.add_us(Layer::Lineage, lineage_us);
    total += lineage_us;

    let ((arena, bits), d) = timed(|| LineageArena::from_dnf(&phi));
    total += out.add(Layer::Intern, d);
    let (phin, d) = timed(|| bits.minimized());
    total += out.add(Layer::Minimize, d);
    if count {
        out.counters.raw_conjuncts += phi.len() as u64;
        out.counters.kept_conjuncts += phin.len() as u64;
    }

    let (causes, d) = timed(|| arena.tuples_of(&phin.variables()));
    if why_so {
        total += out.add(Layer::Causes, d);
        if count {
            out.counters.candidates += causes.len() as u64;
        }
    }

    match req.kind {
        ExplainKind::WhySo if question.deadline.is_some() => {
            // The anytime path. First the greedy bracket alone (zero
            // budget) for every cause; then, on a fresh deadline, the
            // per-cause budgeted solves exactly as `Explainer::why_anytime`
            // makes them (one shared deadline, the step budget split
            // evenly). Refinement = a budgeted solve − its cause's greedy.
            let ids: Vec<u32> = causes
                .iter()
                .map(|&t| arena.id(t).expect("cause is interned"))
                .collect();
            let greedy: Vec<f64> = ids
                .iter()
                .map(|&v| {
                    let (_, d) = timed(|| anytime_min_contingency(&phin, v, ApproxBudget::zero()));
                    out.add(Layer::Greedy, d)
                })
                .collect();
            let budget = ApproxBudget {
                max_steps: u64::MAX / ids.len().max(1) as u64,
                deadline: Some(Instant::now() + question.deadline.expect("checked")),
            };
            for (&v, greedy_us) in ids.iter().zip(greedy) {
                let (outcome, full_d) = timed(|| anytime_min_contingency(&phin, v, budget));
                let refine_us = (full_d.as_secs_f64() * 1e6 - greedy_us).max(0.0);
                out.add_us(Layer::Refine, refine_us);
                total += greedy_us + refine_us;
                if count {
                    out.counters.approx_causes += 1;
                    out.counters.collapsed += u64::from(outcome.is_exact());
                }
            }
        }
        ExplainKind::WhySo => {
            for &t in &causes {
                let (r, d) =
                    timed(|| why_so_responsibility_flow_cached(db, &grounded, t, Some(cache)));
                r.expect("weakly linear query");
                total += out.add(Layer::Flow, d);
                if count {
                    let (_, stats) =
                        why_so_responsibility_flow_with(db, &grounded, t, FlowAlgorithm::Dinic)
                            .expect("weakly linear query");
                    out.counters.flow_runs += stats.flow_runs as u64;
                    out.counters.flow_paths += stats.paths as u64;
                    out.counters.flow_edges += stats.edges as u64;
                }
            }
        }
        ExplainKind::WhyNo => {
            // Theorem 4.17's solve, as timed by the library itself; the
            // lineage the call recomputes is already counted above.
            let (_, timing) = Explainer::new(db, &req.query)
                .with_index_cache(Arc::clone(cache))
                .why_not_timed(&req.answer)
                .expect("why-no");
            let us = timing.solve_us as f64;
            out.add_us(Layer::WhyNo, us);
            total += us;
        }
        ExplainKind::RankTopK(k) => {
            let cfg = RankConfig {
                method: Method::Auto,
                parallelism: crate::drive::RANK_PARALLELISM,
                top_k: Some(k),
            };
            let (ranked, d) = timed(|| rank_why_so_parallel(db, &grounded, &cfg, Some(cache)));
            let ranked = ranked.expect("top-k ranking");
            // The executor re-derives the lineage (counted above) and
            // times its own solves; the rest is the ranking's self time.
            let solve_us = ranked.stats.solve_us as f64;
            let span_us = d.as_secs_f64() * 1e6;
            let self_us = (span_us - ranked.stats.lineage_us as f64 - solve_us).max(0.0);
            out.add_us(Layer::Flow, solve_us);
            out.add_us(Layer::Ranking, self_us);
            total += solve_us + self_us;
            if count {
                out.counters.topk_candidates += ranked.stats.candidates as u64;
                out.counters.topk_pruned += ranked.stats.pruned as u64;
            }
        }
    }
    total
}

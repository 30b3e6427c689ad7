//! anytime_kernel — the per-request anytime kernel behind
//! `Explainer::why_anytime`, timed at budget zero and at an unlimited
//! budget on the NP-hard triangle h2*.
//!
//! A zero-budget call builds the minimized lineage, packs it into the
//! kernel with its global floor, and brackets every cause against the
//! request's repair table (a settled cause gets no per-cause work), then
//! ranks and renders the causes. An unlimited call also refines every
//! open bracket until it collapses, so it times the search. perfbench's
//! replay packs one kernel per cause, so it cannot see this layer; this
//! bench times the whole call.
//!
//! Instances: `dense_triangles(4, 64, s)` for s ∈ {1, 7, 17}, the shape
//! of perfbench's `hard_triangles` tenants; `(5, 40, 200)`, where the
//! table settles nothing; and `(6, 150, 42)`, the request
//! `examples/service_demo.rs` sends under a 1 ms deadline. The (4, 64)
//! lineages (46–48 variables) and the (5, 40, 200) one (56) pack into
//! one-word rows, and the (6, 150, 42) one (106 variables) into two-word
//! rows. Every instance is timed at budget zero
//! (`zero_budget/<nodes>_<tuples>_<seed>`); all but (6, 150, 42) also at
//! an unlimited budget (`unlimited/…`). On the (4, 64) instances the
//! bench first checks, at both budgets, that every bracket contains the
//! exact ρ of `resp::exact`.
//!
//! Those rows time a fresh plan plus one answer: the serving tier's
//! first occurrence of a question. A repeat answers the question's
//! memoized `AnytimePlan` alone, which is what `repeat/…` times on all
//! but (6, 150, 42): one plan per instance, answered once at an
//! unlimited budget outside the timing, then answered under a fresh
//! 2 ms deadline per iteration, as perfbench's `hard_triangles` does.
//! That first answer collapses every bracket, so the plan keeps it
//! assembled, and each repeat hands out its causes by reference: the
//! row times a reference count and the answer tuple's copy, not a
//! refinement or an assembly. Before timing, the bench checks once that
//! a repeat equals a fresh unlimited `why_anytime` (`budget_spent_us`
//! aside) and that two repeats share one causes allocation.

use causality_bench::bench_group;
use causality_core::explain::{ExplainMode, Explainer, Explanation};
use causality_core::resp::approx::ApproxBudget;
use causality_core::resp::exact::min_contingency_bits;
use causality_datagen::hard_instances::dense_triangles;
use causality_lineage::minimized_n_lineage;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

/// The deadline of each `repeat/…` answer: perfbench's `hard_triangles`
/// deadline.
const REPEAT_DEADLINE: Duration = Duration::from_millis(2);

const INSTANCES: [(usize, usize, u64); 5] = [
    (4, 64, 1),
    (4, 64, 7),
    (4, 64, 17),
    (5, 40, 200),
    (6, 150, 42),
];

fn anytime_kernel(c: &mut Criterion) {
    let mut group = bench_group(c, "anytime_kernel");
    for (nodes, tuples, seed) in INSTANCES {
        let inst = dense_triangles(nodes, tuples, seed);
        let explainer = Explainer::new(&inst.db, &inst.query);
        let mut budgets = vec![("zero_budget", ApproxBudget::zero())];
        if nodes < 6 {
            budgets.push(("unlimited", ApproxBudget::unlimited()));
        }
        if nodes == 4 {
            let (arena, phin) = minimized_n_lineage(&inst.db, &inst.query, None).expect("h2*");
            for &(_, budget) in &budgets {
                let (explanation, _) = explainer.why_anytime(&[], budget).expect("h2*");
                for cause in &explanation.causes {
                    let v = arena.id(cause.tuple).expect("a cause is interned");
                    let gamma = min_contingency_bits(&phin, v).expect("a cause");
                    let rho = 1.0 / (1.0 + gamma.len() as f64);
                    let bounds = cause.bounds.expect("anytime causes carry brackets");
                    assert!(
                        bounds.contains(rho),
                        "dense_triangles({nodes}, {tuples}, {seed}) {budget:?}: \
                         exact ρ {rho} outside {bounds:?}"
                    );
                }
            }
        }
        for (label, budget) in budgets {
            group.bench_function(format!("{label}/{nodes}_{tuples}_{seed}"), |b| {
                b.iter(|| explainer.why_anytime(&[], budget).expect("h2*"));
            });
        }
        if nodes < 6 {
            let (plan, _) = explainer.plan_anytime(&[]).expect("h2*");
            plan.answer(ApproxBudget::unlimited());
            let repeat = || {
                plan.answer(ApproxBudget::until(Instant::now() + REPEAT_DEADLINE))
                    .0
            };
            let (first, second) = (repeat(), repeat());
            let at = format!("dense_triangles({nodes}, {tuples}, {seed})");
            assert!(
                std::ptr::eq(first.causes.as_ptr(), second.causes.as_ptr()),
                "{at}: two repeats share one causes allocation"
            );
            let (unlimited, _) = explainer
                .why_anytime(&[], ApproxBudget::unlimited())
                .expect("h2*");
            assert_eq!(
                untimed(first),
                untimed(unlimited),
                "{at}: a repeat is the unlimited answer"
            );
            group.bench_function(format!("repeat/{nodes}_{tuples}_{seed}"), |b| {
                b.iter(repeat);
            });
        }
    }
    group.finish();
}

/// `explanation` with its one clock-dependent field, `budget_spent_us`,
/// zeroed.
fn untimed(mut explanation: Explanation) -> Explanation {
    if let ExplainMode::Approximate {
        budget_spent_us, ..
    } = &mut explanation.mode
    {
        *budget_spent_us = 0;
    }
    explanation
}

criterion_group!(benches, anytime_kernel);
criterion_main!(benches);

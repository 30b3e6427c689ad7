//! anytime_kernel — the per-request anytime kernel behind
//! `Explainer::why_anytime`, timed at budget zero on the NP-hard
//! triangle h2*.
//!
//! A zero-budget call builds the minimized lineage, packs it into the
//! kernel with its global floor, and brackets every cause against the
//! request's repair table (a settled cause gets no per-cause work), then
//! ranks and renders the causes. perfbench's replay packs one kernel per
//! cause, so it cannot see this layer; this bench times the whole call.
//!
//! Instances: `dense_triangles(4, 64, s)` for s ∈ {1, 7, 17}, the shape
//! of perfbench's `hard_triangles` tenants; `(5, 40, 200)`, where the
//! table settles nothing; and `(6, 150, 42)`, the request
//! `examples/service_demo.rs` sends under a 1 ms deadline. On the
//! (4, 64) instances the bench first checks that every bracket contains
//! the exact ρ of `resp::exact`.

use causality_bench::bench_group;
use causality_core::explain::Explainer;
use causality_core::resp::approx::ApproxBudget;
use causality_core::resp::exact::min_contingency_bits;
use causality_datagen::hard_instances::dense_triangles;
use causality_lineage::minimized_n_lineage;
use criterion::{criterion_group, criterion_main, Criterion};

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
        if nodes == 4 {
            let (arena, phin) = minimized_n_lineage(&inst.db, &inst.query, None).expect("h2*");
            let (explanation, _) = explainer
                .why_anytime(&[], ApproxBudget::zero())
                .expect("h2*");
            for cause in &explanation.causes {
                let v = arena.id(cause.tuple).expect("a cause is interned");
                let gamma = min_contingency_bits(&phin, v).expect("a cause");
                let rho = 1.0 / (1.0 + gamma.len() as f64);
                let bounds = cause.bounds.expect("anytime causes carry brackets");
                assert!(
                    bounds.contains(rho),
                    "dense_triangles({nodes}, {tuples}, {seed}): exact ρ {rho} outside {bounds:?}"
                );
            }
        }
        group.bench_function(format!("zero_budget/{nodes}_{tuples}_{seed}"), |b| {
            b.iter(|| {
                explainer
                    .why_anytime(&[], ApproxBudget::zero())
                    .expect("h2*")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, anytime_kernel);
criterion_main!(benches);

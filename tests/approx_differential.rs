//! Differential property tests for the anytime responsibility layer
//! (`causality_core::resp::approx`) against the exact kernels:
//!
//! * **bracketing** — on every instance small enough for the exact
//!   solver, the certified `RhoBounds` satisfy `lower ≤ ρ_exact ≤ upper`
//!   at *every* budget, including zero;
//! * **greedy guarantee** — the budget-free feasible contingency never
//!   exceeds `(ln n + 1) · |Γ_min|` (the classic set-cover bound);
//! * **monotone tightening** — along the refinement history the lower
//!   bound never decreases and the upper bound never increases;
//! * **collapse** — unlimited budget ends with `lower == upper` equal
//!   to the exact ρ, and the returned contingency is a true minimum;
//! * **known-ρ end to end** — the `datagen::hard_instances` families
//!   (triangle fan, self-join star) route through `Explainer::why_anytime`
//!   and bracket/collapse onto their by-construction responsibilities;
//! * **inside the seed oracle** — against the seed per-witness kernel
//!   (`approx::oracle`, packing and ln n + 1 floors only) at zero, step,
//!   expired-deadline and unlimited budgets, on narrow and multi-word
//!   lineages and on dense triangles: cause-ness agrees, the packed
//!   bracket lies inside the oracle's and its `lower` is witnessed by a
//!   feasible contingency, the zero and expired budgets take no step
//!   and no refinement and return the oracle's greedy contingency, and
//!   at an unlimited budget both reach the same certified minimum and
//!   contingency length with the packed kernel expanding no more search
//!   nodes;
//! * **a count that catches a lost bound** — on the benchmark's dense
//!   triangles a zero-budget `why_anytime` collapses at least 200 of 238
//!   brackets, and at an unlimited budget the packed kernel expands at
//!   most a tenth of the oracle's search nodes;
//! * **the two-phase schedule is invisible without a clock** —
//!   `why_anytime` under a step budget is the explanation assembled
//!   from per-cause `anytime_min_contingency` solves, and under an
//!   expired deadline it is the zero-budget explanation.
//!
//! Same discipline as `tests/lineage_bitset_differential.rs`: random
//! DNFs drawn small, seed oracle retained as the baseline.

use causality::datagen::hard_instances::{dense_triangles, triangle_fan};
use causality::prelude::*;
use causality_core::dichotomy::classify::DichotomyTag;
use causality_core::explain::{ExplainMode, ExplainedCause, ExplanationKind};
use causality_core::resp::approx::{harmonic_bound, oracle};
use causality_core::resp::exact;
use causality_lineage::{BitDnf, Conjunct, Dnf, LineageArena, VarSet};
use proptest::prelude::*;
use std::time::Instant;

/// Build a DNF from raw `(rel, row)` conjunct descriptions.
fn dnf_of(raw: &[Vec<(u32, u32)>]) -> Dnf {
    Dnf::new(
        raw.iter()
            .map(|c| Conjunct::new(c.iter().map(|&(r, w)| TupleRef::new(r, w))))
            .collect(),
    )
}

/// Exact ρ for arena variable `v`: 0 when not a cause, else
/// `1/(1 + |Γ_min|)` via the exact branch-and-bound.
fn exact_rho(phin: &BitDnf, v: u32) -> f64 {
    match exact::min_contingency_bits(phin, v) {
        Some(gamma) => 1.0 / (1.0 + gamma.len() as f64),
        None => 0.0,
    }
}

/// Every clock-free budget, plus a deadline that has already passed
/// (decided before the first step, so still deterministic).
fn identity_budgets() -> [ApproxBudget; 7] {
    [
        ApproxBudget::zero(),
        ApproxBudget::steps(1),
        ApproxBudget::steps(7),
        ApproxBudget::steps(64),
        ApproxBudget::steps(500),
        ApproxBudget::until(Instant::now()),
        ApproxBudget::unlimited(),
    ]
}

/// Whether `gamma` is a contingency for `v`: with `gamma` removed some
/// conjunct still holds and contains `v`, and with `v` removed too none
/// does.
fn is_contingency(phin: &BitDnf, v: u32, gamma: &[u32]) -> bool {
    let hit = |c: &VarSet| gamma.iter().any(|&g| c.contains(g as usize));
    let v = v as usize;
    phin.conjuncts().iter().any(|c| c.contains(v) && !hit(c))
        && phin.conjuncts().iter().all(|c| c.contains(v) || hit(c))
}

/// The packed kernel against the seed kernel (`approx::oracle`) at every
/// identity budget. Cause-ness agrees, the packed bracket lies inside
/// the oracle's, and its `lower` is witnessed by a contingency of the
/// matching size. The zero and expired budgets take no step and no
/// refinement, and return the oracle's greedy contingency. At an
/// unlimited budget both kernels reach the same
/// certified minimum and contingency length, and the packed kernel
/// expands no more search nodes.
fn assert_inside_oracle(phin: &BitDnf, v: u32) {
    for budget in identity_budgets() {
        let packed = anytime_min_contingency(phin, v, budget);
        let seed = oracle::anytime_min_contingency(phin, v, budget);
        let at = format!("v={v} budget={budget:?}\npacked {packed:?}\nseed {seed:?}");
        assert_eq!(
            packed.contingency.is_some(),
            seed.contingency.is_some(),
            "{at}"
        );
        assert!(
            seed.bounds.lower <= packed.bounds.lower && packed.bounds.upper <= seed.bounds.upper,
            "{at}"
        );
        if let Some(gamma) = &packed.contingency {
            assert!(is_contingency(phin, v, gamma), "{at}");
            assert_eq!(
                packed.bounds,
                RhoBounds::from_sizes(gamma.len(), packed.certified_min_size),
                "{at}"
            );
        }
        if budget.max_steps == 0 || budget.deadline.is_some() {
            assert_eq!((packed.steps_used, packed.refinements), (0, 0), "{at}");
            assert_eq!(packed.contingency, seed.contingency, "{at}");
        }
        if budget.max_steps == u64::MAX && budget.deadline.is_none() {
            assert_eq!(packed.certified_min_size, seed.certified_min_size, "{at}");
            assert_eq!(
                packed.contingency.map(|g| g.len()),
                seed.contingency.map(|g| g.len()),
                "{at}"
            );
            assert!(packed.steps_used <= seed.steps_used, "{at}");
        }
    }
}

/// The minimized lineage of a Boolean query, with its arena.
fn minimized_lineage(db: &Database, query: &ConjunctiveQuery) -> (LineageArena, BitDnf) {
    let (arena, bits) = LineageArena::from_dnf(&n_lineage(db, query).unwrap());
    (arena, bits.minimized())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed kernel inside the seed oracle on arena-interned
    /// lineages (at most 30 variables, so one word).
    #[test]
    fn packed_kernel_matches_the_seed_oracle(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..10), 0..4), 0..20),
    ) {
        let (arena, bits) = LineageArena::from_dnf(&dnf_of(&raw));
        let phin = bits.minimized();
        for v in 0..arena.len() as u32 + 2 {
            assert_inside_oracle(&phin, v);
        }
    }

    /// The packed kernel inside the seed oracle on multi-word lineages:
    /// ids up to 129 spread over three words, and conjuncts of different widths, so rows must be
    /// padded to the widest one. Probes every mentioned id plus ids on
    /// and past the word boundaries.
    #[test]
    fn packed_kernel_matches_the_seed_oracle_across_words(
        raw in prop::collection::vec(prop::collection::vec(0usize..130, 1..5), 0..24),
    ) {
        let phin = BitDnf::new(raw.iter().map(|c| c.iter().copied().collect::<VarSet>()).collect())
            .minimized();
        let mentioned = phin.variables();
        for v in mentioned.iter().map(|v| v as u32).chain([63, 64, 129, 300]) {
            assert_inside_oracle(&phin, v);
        }
    }

    /// Soundness at every budget: the bracket always contains the exact
    /// responsibility, and budget zero spends no search steps.
    #[test]
    fn bounds_bracket_exact_rho_at_every_budget(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..10), 0..4), 0..20),
    ) {
        let (arena, bits) = LineageArena::from_dnf(&dnf_of(&raw));
        let phin = bits.minimized();
        for v in 0..arena.len() as u32 {
            let rho = exact_rho(&phin, v);
            for budget in [
                ApproxBudget::zero(),
                ApproxBudget::steps(1),
                ApproxBudget::steps(7),
                ApproxBudget::steps(100),
                ApproxBudget::unlimited(),
            ] {
                let out = anytime_min_contingency(&phin, v, budget);
                prop_assert!(
                    out.bounds.contains(rho),
                    "v={v} budget={budget:?}: exact {rho} outside {:?}",
                    out.bounds
                );
                prop_assert!(out.steps_used <= budget.max_steps);
                if budget.max_steps == 0 {
                    prop_assert_eq!(out.steps_used, 0);
                }
            }
        }
    }

    /// The budget-free greedy contingency respects the ln(n)+1 set-cover
    /// guarantee against the true minimum (n = residual-set count, upper
    /// bounded here by the minimized conjunct count).
    #[test]
    fn greedy_respects_harmonic_guarantee(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..10), 0..4), 0..20),
    ) {
        let (arena, bits) = LineageArena::from_dnf(&dnf_of(&raw));
        let phin = bits.minimized();
        let n = phin.conjuncts().len();
        for v in 0..arena.len() as u32 {
            let Some(gamma) = exact::min_contingency_bits(&phin, v) else {
                continue;
            };
            let out = anytime_min_contingency(&phin, v, ApproxBudget::zero());
            let greedy = out.contingency.expect("cause ⇒ feasible greedy set");
            prop_assert!(
                greedy.len() as f64 <= harmonic_bound(n) * gamma.len() as f64 + 1e-9,
                "v={v}: greedy {} vs (ln {n}+1)·{}",
                greedy.len(),
                gamma.len()
            );
        }
    }

    /// Refinement only ever tightens: along the history the lower bound
    /// is non-decreasing and the upper bound non-increasing, under
    /// truncated budgets too.
    #[test]
    fn history_tightens_monotonically_under_any_budget(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..10), 0..4), 0..20),
        steps in 0u64..60,
    ) {
        let (arena, bits) = LineageArena::from_dnf(&dnf_of(&raw));
        let phin = bits.minimized();
        for v in 0..arena.len() as u32 {
            for budget in [ApproxBudget::steps(steps), ApproxBudget::unlimited()] {
                let out = anytime_min_contingency(&phin, v, budget);
                prop_assert!(!out.history.is_empty());
                for pair in out.history.windows(2) {
                    prop_assert!(
                        pair[1].lower >= pair[0].lower && pair[1].upper <= pair[0].upper,
                        "v={v}: history widens: {:?}",
                        out.history
                    );
                }
                prop_assert_eq!(out.history.last().copied(), Some(out.bounds));
            }
        }
    }

    /// Unlimited budget collapses the bracket onto the exact answer and
    /// returns a genuine minimum contingency (feasibility is implied by
    /// construction; minimality checked against the exact kernel).
    #[test]
    fn unlimited_budget_collapses_to_exact(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..10), 0..4), 0..20),
    ) {
        let (arena, bits) = LineageArena::from_dnf(&dnf_of(&raw));
        let phin = bits.minimized();
        for v in 0..arena.len() as u32 {
            let out = anytime_min_contingency(&phin, v, ApproxBudget::unlimited());
            prop_assert!(out.is_exact(), "v={v}: {:?}", out.bounds);
            let rho = exact_rho(&phin, v);
            prop_assert!(
                (out.bounds.lower - rho).abs() < 1e-12,
                "v={v}: collapsed to {} but exact is {rho}",
                out.bounds.lower
            );
            if let Some(gamma) = exact::min_contingency_bits(&phin, v) {
                let mine = out.contingency.expect("cause ⇒ contingency");
                prop_assert_eq!(mine.len(), gamma.len(), "v={v}");
            } else {
                prop_assert!(out.contingency.is_none(), "v={v}");
            }
        }
    }
}

/// The datagen known-ρ families, end to end through `why_anytime`: the
/// probe's bracket always contains the by-construction ρ, collapses to
/// it at unlimited budget, and the shared tuple stays counterfactual.
#[test]
fn known_rho_families_bracket_and_collapse_end_to_end() {
    for inst in [
        causality::datagen::hard_instances::triangle_fan(5),
        causality::datagen::hard_instances::selfjoin_star(6),
    ] {
        let explainer = Explainer::new(&inst.db, &inst.query);
        let exact_expl = explainer.why(&[]).unwrap();
        assert_eq!(exact_expl.mode, ExplainMode::Exact);

        for budget in [ApproxBudget::zero(), ApproxBudget::steps(5)] {
            let (expl, _) = explainer.why_anytime(&[], budget).unwrap();
            assert!(matches!(expl.mode, ExplainMode::Approximate { .. }));
            let probe = expl
                .causes
                .iter()
                .find(|c| c.tuple == inst.probe)
                .expect("probe is a cause");
            let bounds = probe.bounds.expect("approximate causes carry bounds");
            assert!(
                bounds.contains(inst.rho),
                "known ρ {} outside {:?} at {budget:?}",
                inst.rho,
                bounds
            );
        }

        let (full, _) = explainer
            .why_anytime(&[], ApproxBudget::unlimited())
            .unwrap();
        let probe = full.causes.iter().find(|c| c.tuple == inst.probe).unwrap();
        let bounds = probe.bounds.unwrap();
        assert!(bounds.is_exact(), "{bounds:?}");
        assert!((probe.rho - inst.rho).abs() < 1e-12);
        let shared = full
            .causes
            .iter()
            .find(|c| c.tuple == inst.counterfactual)
            .expect("shared tuple is a cause");
        assert!(shared.counterfactual && shared.rho == 1.0);
    }
}

/// Exact-path answers carry no bounds and keep `ExplainMode::Exact` —
/// the approximate machinery must be invisible unless asked for.
#[test]
fn exact_paths_carry_no_bounds() {
    let inst = causality::datagen::hard_instances::triangle_fan(3);
    let expl = Explainer::new(&inst.db, &inst.query).why(&[]).unwrap();
    assert_eq!(expl.mode, ExplainMode::Exact);
    assert!(expl.causes.iter().all(|c| c.bounds.is_none()));
}

/// The packed kernel inside the seed oracle on the benchmark's NP-hard
/// instances: every cause of `dense_triangles(4, 64, s)` at every
/// identity budget.
#[test]
fn packed_kernel_matches_the_seed_oracle_on_dense_triangles() {
    for seed in [1, 7, 23] {
        let inst = dense_triangles(4, 64, seed);
        let (_, phin) = minimized_lineage(&inst.db, &inst.query);
        for v in phin.variables().iter() {
            assert_inside_oracle(&phin, v as u32);
        }
    }
}

/// A witness whose floor reaches the best contingency skips its greedy
/// but does not end the pass. On this multi-word lineage, for v = 103, a
/// witness with a lower floor and a shorter greedy set comes after a
/// higher-floor one in conjunct order; a pass that stopped at the higher
/// floor would return a contingency one longer than the seed kernel's.
#[test]
fn a_skipped_witness_does_not_end_the_greedy_pass() {
    let raw: [&[usize]; 22] = [
        &[109, 114],
        &[103, 95, 26],
        &[92, 117],
        &[57, 49],
        &[2, 79, 97],
        &[117, 67, 82, 103],
        &[105],
        &[54],
        &[39, 70, 53, 121],
        &[103, 92],
        &[88],
        &[29, 64, 115],
        &[27, 73, 120],
        &[36, 58, 64],
        &[48, 95, 35, 63],
        &[20],
        &[95, 93],
        &[73, 34],
        &[79],
        &[32],
        &[117, 110, 82],
        &[20, 54, 91],
    ];
    let phin = BitDnf::new(raw.iter().map(|c| c.iter().copied().collect()).collect()).minimized();
    assert_inside_oracle(&phin, 103);
}

/// `why_anytime` with its one timing field zeroed, so explanations
/// compare bit for bit.
fn untimed(mut explanation: Explanation) -> Explanation {
    if let ExplainMode::Approximate {
        budget_spent_us, ..
    } = &mut explanation.mode
    {
        *budget_spent_us = 0;
    }
    explanation
}

/// The explanation the one-phase `why_anytime` built: one packed-kernel
/// solve per cause (`anytime_min_contingency`, which packs the lineage
/// for that one call) under an even share of `steps`, rendered and
/// ranked the same way.
fn assembled_explanation(db: &Database, query: &ConjunctiveQuery, steps: u64) -> Explanation {
    let (arena, phin) = minimized_lineage(db, query);
    let causes = arena.tuples_of(&phin.variables());
    let share = ApproxBudget::steps(steps / causes.len().max(1) as u64);
    let mut refinements = 0;
    let mut explained: Vec<ExplainedCause> = causes
        .iter()
        .map(|&t| {
            let out = anytime_min_contingency(&phin, arena.id(t).unwrap(), share);
            refinements += out.refinements;
            let render = |t: TupleRef| format!("{}{}", db.relation(t.rel).name(), db.tuple(t));
            ExplainedCause {
                tuple: t,
                relation: db.relation(t.rel).name().to_string(),
                values: db.tuple(t).clone(),
                rho: out.bounds.lower,
                counterfactual: out.is_exact() && out.bounds.lower == 1.0,
                contingency: out
                    .contingency
                    .unwrap()
                    .iter()
                    .map(|&id| render(arena.resolve(id)))
                    .collect(),
                bounds: Some(out.bounds),
            }
        })
        .collect();
    explained.sort_by(|a, b| {
        let upper = |c: &ExplainedCause| c.bounds.unwrap().upper;
        b.rho
            .total_cmp(&a.rho)
            .then(upper(b).total_cmp(&upper(a)))
            .then(a.tuple.cmp(&b.tuple))
    });
    let bounds = explained.iter().fold(RhoBounds::exact(0.0), |acc, c| {
        let b = c.bounds.unwrap();
        RhoBounds {
            lower: acc.lower.max(b.lower),
            upper: acc.upper.max(b.upper),
        }
    });
    Explanation {
        kind: ExplanationKind::WhySo,
        answer: vec![],
        causes: explained,
        dichotomy: DichotomyTag::NpHard,
        lineage_conjuncts: phin.len(),
        mode: ExplainMode::Approximate {
            bounds,
            budget_spent_us: 0,
            refinements,
        },
    }
}

/// Without a clock the two-phase schedule changes nothing: under a step
/// budget `why_anytime` equals the per-cause solves under an even share
/// of the steps, from the budget-free bracket to full collapse.
#[test]
fn why_anytime_under_a_step_budget_equals_per_cause_solves() {
    for inst in [dense_triangles(4, 64, 2), dense_triangles(4, 64, 5)] {
        let explainer = Explainer::new(&inst.db, &inst.query);
        for steps in [0, 200, 5_000, u64::MAX] {
            let (explanation, _) = explainer
                .why_anytime(&[], ApproxBudget::steps(steps))
                .unwrap();
            assert_eq!(
                untimed(explanation),
                assembled_explanation(&inst.db, &inst.query, steps),
                "steps={steps}"
            );
        }
    }
    let fan = triangle_fan(6);
    let (explanation, _) = Explainer::new(&fan.db, &fan.query)
        .why_anytime(&[], ApproxBudget::steps(40))
        .unwrap();
    assert_eq!(
        untimed(explanation),
        assembled_explanation(&fan.db, &fan.query, 40)
    );
}

/// A deadline that has passed before the call leaves every cause at its
/// budget-free bracket: the zero-budget explanation, bit for bit.
#[test]
fn why_anytime_past_its_deadline_equals_the_zero_budget_answer() {
    for seed in [3, 4] {
        let inst = dense_triangles(4, 64, seed);
        let explainer = Explainer::new(&inst.db, &inst.query);
        let (zero, _) = explainer.why_anytime(&[], ApproxBudget::zero()).unwrap();
        let (expired, _) = explainer
            .why_anytime(&[], ApproxBudget::until(Instant::now()))
            .unwrap();
        assert!(
            matches!(
                expired.mode,
                ExplainMode::Approximate { refinements: 0, .. }
            ),
            "{:?}",
            expired.mode
        );
        assert_eq!(untimed(expired), untimed(zero));
    }
}

/// The degree bound and the skipped greedy runs, counted on the
/// benchmark's instances `dense_triangles(4, 64, s)`: a zero-budget
/// `why_anytime` collapses at least 200 of the 238 brackets (8 with
/// only the packing and ln n + 1 floors), and at an unlimited budget the
/// packed kernel expands at most a tenth of the seed oracle's search
/// nodes (equal, 47 360, without the degree bound).
#[test]
fn dense_triangle_brackets_collapse_with_few_search_nodes() {
    let (mut brackets, mut collapsed) = (0, 0);
    let (mut packed_steps, mut seed_steps) = (0u64, 0u64);
    for seed in [1, 2, 5, 7, 23] {
        let inst = dense_triangles(4, 64, seed);
        let (explanation, _) = Explainer::new(&inst.db, &inst.query)
            .why_anytime(&[], ApproxBudget::zero())
            .unwrap();
        brackets += explanation.causes.len();
        collapsed += explanation
            .causes
            .iter()
            .filter(|c| c.bounds.expect("anytime cause").is_exact())
            .count();
        let (_, phin) = minimized_lineage(&inst.db, &inst.query);
        for v in phin.variables().iter().map(|v| v as u32) {
            packed_steps += anytime_min_contingency(&phin, v, ApproxBudget::unlimited()).steps_used;
            seed_steps +=
                oracle::anytime_min_contingency(&phin, v, ApproxBudget::unlimited()).steps_used;
        }
    }
    assert_eq!(brackets, 238, "causes over the five instances");
    assert!(
        collapsed >= 200,
        "{collapsed} of {brackets} brackets collapsed at budget zero"
    );
    assert!(
        packed_steps * 10 <= seed_steps,
        "search nodes at an unlimited budget: packed {packed_steps}, seed {seed_steps}"
    );
}

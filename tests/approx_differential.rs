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
//! * **the repair table never loosens a bracket** — under a step budget
//!   each cause's `why_anytime` bracket lies inside its per-cause
//!   `anytime_min_contingency` bracket under an even share of the steps,
//!   with a feasible contingency, the per-cause ρ at an unlimited budget,
//!   the ranking order and equal explanations across calls; under an
//!   expired deadline it is the zero-budget explanation;
//! * **a count that catches a lost table** — on the benchmark's dense
//!   triangles the table settles at least 150 of 238 causes at budget
//!   zero and holds refinement to at most 67 levels at an unlimited
//!   budget;
//! * **the repair table is sound** — on random and multi-word dense
//!   triangles every bracket contains the exact ρ at every budget;
//! * **a pinned traversal** — on one- and two-word dense triangles and
//!   the triangle fan, `why_anytime`'s completed levels, settled causes
//!   and search nodes at `steps(0)`, `steps(500)` and an unlimited budget
//!   equal fixed counts, and so do those of one `AnytimePlan` answered
//!   twice per budget, in budget order, whose every answer equals
//!   `why_anytime`'s.
//!
//! Same discipline as `tests/lineage_bitset_differential.rs`: random
//! DNFs drawn small, seed oracle retained as the baseline.

use causality::datagen::hard_instances::{dense_triangles, triangle_fan};
use causality::prelude::*;
use causality_core::explain::{ExplainMode, ExplainedCause};
use causality_core::resp::approx::{harmonic_bound, oracle};
use causality_core::resp::exact;
use causality_lineage::{BitDnf, Conjunct, Dnf, LineageArena, VarSet};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

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

/// A `why_anytime` explanation checked against its lineage: the causes
/// are the lineage's variables, each ρ is its bracket's `lower`,
/// witnessed by a feasible contingency of `1/lower − 1` members, the
/// causes are ranked by (lower ↓, upper ↓, tuple), ρ_max's bracket is
/// the max of theirs, and no more causes are settled than are exact.
/// Returns each cause's variable and bracket, in rank order.
fn checked_causes(
    db: &Database,
    arena: &LineageArena,
    phin: &BitDnf,
    explanation: &Explanation,
) -> Vec<(u32, RhoBounds)> {
    let render = |t: TupleRef| format!("{}{}", db.relation(t.rel).name(), db.tuple(t));
    let ids: HashMap<String, u32> = (0..arena.len() as u32)
        .map(|id| (render(arena.resolve(id)), id))
        .collect();
    let mut tuples: Vec<TupleRef> = explanation.causes.iter().map(|c| c.tuple).collect();
    tuples.sort();
    assert_eq!(tuples, arena.tuples_of(&phin.variables()), "cause set");
    let rank = |a: &ExplainedCause, b: &ExplainedCause| {
        let upper = |c: &ExplainedCause| c.bounds.unwrap().upper;
        b.rho
            .total_cmp(&a.rho)
            .then(upper(b).total_cmp(&upper(a)))
            .then(a.tuple.cmp(&b.tuple))
    };
    for pair in explanation.causes.windows(2) {
        assert_eq!(rank(&pair[0], &pair[1]), Ordering::Less, "{pair:?}");
    }
    let mut causes = Vec::new();
    for c in &explanation.causes {
        let v = arena.id(c.tuple).expect("a cause is interned");
        let bounds = c.bounds.expect("anytime causes carry brackets");
        let gamma: Vec<u32> = c.contingency.iter().map(|g| ids[&**g]).collect();
        assert!(is_contingency(phin, v, &gamma), "{c:?}");
        assert_eq!(bounds.lower, 1.0 / (1.0 + gamma.len() as f64), "{c:?}");
        assert!(bounds.lower <= bounds.upper, "{c:?}");
        assert_eq!(c.rho, bounds.lower, "{c:?}");
        assert_eq!(c.counterfactual, bounds == RhoBounds::exact(1.0), "{c:?}");
        causes.push((v, bounds));
    }
    let ExplainMode::Approximate {
        bounds, settled, ..
    } = explanation.mode
    else {
        panic!("the anytime route reports Approximate");
    };
    let max = causes
        .iter()
        .fold(RhoBounds::exact(0.0), |acc, &(_, b)| RhoBounds {
            lower: acc.lower.max(b.lower),
            upper: acc.upper.max(b.upper),
        });
    assert_eq!(bounds, max, "ρ_max bracket");
    let exact = causes.iter().filter(|(_, b)| b.is_exact()).count();
    assert!(
        settled as usize <= exact,
        "{settled} settled, {exact} exact"
    );
    causes
}

/// The repair table never loosens a bracket the per-cause schedule
/// gives. Under `steps(N)` each cause's bracket lies inside the bracket
/// of `anytime_min_contingency` under an even share `N / causes`, with a
/// feasible contingency of `1/lower − 1` members; at an unlimited budget
/// each ρ is the per-cause ρ; the causes are ranked by (lower ↓, upper ↓,
/// tuple); and two calls give equal explanations.
#[test]
fn why_anytime_under_a_step_budget_equals_per_cause_solves() {
    let fan = triangle_fan(6);
    let mut instances = vec![(fan.db, fan.query)];
    for seed in [2, 5] {
        let inst = dense_triangles(4, 64, seed);
        instances.push((inst.db, inst.query));
    }
    for (db, query) in &instances {
        let explainer = Explainer::new(db, query);
        let (arena, phin) = minimized_lineage(db, query);
        let causes = phin.variables().len() as u64;
        for steps in [0, 200, 5_000, u64::MAX] {
            let budget = ApproxBudget::steps(steps);
            let (explanation, _) = explainer.why_anytime(&[], budget).unwrap();
            let (again, _) = explainer.why_anytime(&[], budget).unwrap();
            assert_eq!(
                untimed(explanation.clone()),
                untimed(again),
                "steps={steps}"
            );
            let share = ApproxBudget::steps(steps / causes.max(1));
            for (v, bounds) in checked_causes(db, &arena, &phin, &explanation) {
                let solo = anytime_min_contingency(&phin, v, share).bounds;
                let at = format!("steps={steps} v={v}: {bounds:?}, per cause {solo:?}");
                assert!(
                    solo.lower <= bounds.lower && bounds.upper <= solo.upper,
                    "{at}"
                );
                if steps == u64::MAX {
                    assert!(bounds.is_exact() && bounds == solo, "{at}");
                }
            }
        }
    }
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

/// The repair table, counted on the benchmark's instances
/// `dense_triangles(4, 64, s)`. At budget zero it settles at least 150
/// of the 238 causes of s ∈ {1, 2, 5, 7, 23} (none without it). At an
/// unlimited budget the causes of s ∈ {4, 6, 8, 9, 10, 17, 21} take at
/// most 67 refinement levels in all (134 without it).
#[test]
fn the_repair_table_settles_brackets_and_saves_refinements() {
    let mode = |seed, budget| {
        let inst = dense_triangles(4, 64, seed);
        let (explanation, _) = Explainer::new(&inst.db, &inst.query)
            .why_anytime(&[], budget)
            .unwrap();
        match explanation.mode {
            ExplainMode::Approximate {
                refinements,
                settled,
                ..
            } => (explanation.causes.len(), refinements, settled),
            ExplainMode::Exact => panic!("the anytime route reports Approximate"),
        }
    };
    let (mut causes, mut settled) = (0, 0);
    for seed in [1, 2, 5, 7, 23] {
        let (n, _, s) = mode(seed, ApproxBudget::zero());
        causes += n;
        settled += s;
    }
    assert_eq!(causes, 238, "causes over the five instances");
    assert!(
        settled >= 150,
        "{settled} of {causes} brackets settled at budget zero"
    );
    let refinements: u32 = [4, 6, 8, 9, 10, 17, 21]
        .into_iter()
        .map(|seed| mode(seed, ApproxBudget::unlimited()).1)
        .sum();
    assert!(
        refinements <= 67,
        "{refinements} refinement levels at an unlimited budget"
    );
}

/// The refinement traversal, pinned: `why_anytime`'s completed levels,
/// settled causes and search nodes at budgets `steps(0)`, `steps(500)`
/// and unlimited, on the one-word `dense_triangles(4, 64, s)` for
/// s ∈ {1, 7, 17} and `(5, 40, 200)`, the two-word `(5, 64, 3)` and
/// `triangle_fan(12)`. A change to the kernel's loops that keeps every
/// answer keeps these counts too. One `plan_anytime` per instance,
/// answered twice at each budget in budget order, gives the same counts
/// and `why_anytime`'s explanation every time, so answering a plan never
/// changes its answers.
#[test]
fn why_anytime_refinements_and_search_nodes_are_pinned() {
    let dense = |nodes, tuples, seed| {
        let inst = dense_triangles(nodes, tuples, seed);
        (
            format!("dense_triangles({nodes}, {tuples}, {seed})"),
            inst.db,
            inst.query,
        )
    };
    let fan = triangle_fan(12);
    #[rustfmt::skip]
    let instances = [
        (dense(4, 64, 1), 1, [(0, 39, 0), (0, 39, 0), (0, 39, 0)]),
        (dense(4, 64, 7), 1, [(0, 32, 0), (0, 32, 80), (5, 32, 154)]),
        (dense(4, 64, 17), 1, [(0, 19, 0), (0, 19, 200), (18, 19, 969)]),
        (dense(5, 40, 200), 1, [(0, 0, 0), (30, 0, 448), (151, 0, 27_617)]),
        (dense(5, 64, 3), 2, [(0, 0, 0), (6, 0, 476), (141, 0, 32_202)]),
        ((String::from("triangle_fan(12)"), fan.db, fan.query), 1, [(0, 0, 0); 3]),
    ];
    let budgets = [
        ApproxBudget::steps(0),
        ApproxBudget::steps(500),
        ApproxBudget::unlimited(),
    ];
    let counts = |explanation: &Explanation| match explanation.mode {
        ExplainMode::Approximate {
            refinements,
            settled,
            search_nodes,
            ..
        } => (refinements, settled, search_nodes),
        ExplainMode::Exact => panic!("a plan's answer reports Approximate"),
    };
    for ((name, db, query), words, pinned) in &instances {
        let (_, phin) = minimized_lineage(db, query);
        let widest = phin.variables().iter().max().expect("a cause");
        assert_eq!(widest / 64 + 1, *words, "{name}: row width");
        let explainer = Explainer::new(db, query);
        // One plan for the instance, answered twice per budget in budget
        // order: answering leaves the plan as phase one left it.
        let (plan, _) = explainer.plan_anytime(&[]).unwrap();
        for (budget, want) in budgets.iter().zip(pinned) {
            let (explanation, _) = explainer.why_anytime(&[], *budget).unwrap();
            let ExplainMode::Approximate {
                refinements,
                settled,
                search_nodes,
                ..
            } = explanation.mode
            else {
                panic!("the anytime route reports Approximate");
            };
            assert_eq!(
                (refinements, settled, search_nodes),
                *want,
                "{name} {budget:?}: (refinements, settled, search nodes)"
            );
            for round in 1..=2 {
                let (answer, _) = plan.answer(*budget);
                let at = format!("{name} {budget:?}: plan answer {round}");
                assert_eq!(counts(&answer), *want, "{at}");
                assert_eq!(untimed(answer), untimed(explanation.clone()), "{at}");
            }
        }
    }
}

/// A plan keeps the outcome of its first phase two that collapsed every
/// bracket, and answers a live deadline from it. On the two-word
/// `dense_triangles(5, 64, 3)`, whose refinement takes 32 202 search
/// nodes (tens of ms even in release), a plan answered once at an
/// unlimited budget then answers under a deadline 2 ms away with the
/// unlimited explanation. A step cap or a deadline already passed still
/// runs phase two: the same plan answers `steps(0)`, `steps(500)` and a
/// passed deadline as `why_anytime` does, the passed deadline with the
/// zero-budget answer. A fresh plan answered from two threads at once
/// at an unlimited budget gives both the same explanation. On the
/// pinned instances, every plan answer whose brackets all collapsed, at
/// a clock-free budget or under a deadline, is the unlimited answer.
#[test]
fn a_plan_answers_a_live_deadline_from_its_collapsed_outcome() {
    let inst = dense_triangles(5, 64, 3);
    let explainer = Explainer::new(&inst.db, &inst.query);
    let fresh = |budget| untimed(explainer.why_anytime(&[], budget).unwrap().0);
    let unlimited = fresh(ApproxBudget::unlimited());
    let (plan, _) = explainer.plan_anytime(&[]).unwrap();
    assert_eq!(untimed(plan.answer(ApproxBudget::unlimited()).0), unlimited);
    let live = ApproxBudget::until(Instant::now() + Duration::from_millis(2));
    assert_eq!(
        untimed(plan.answer(live).0),
        unlimited,
        "a live deadline answers from the collapsed outcome"
    );

    let passed = ApproxBudget::until(Instant::now());
    let zero = fresh(ApproxBudget::zero());
    assert_eq!(fresh(passed), zero, "a passed deadline refines nothing");
    for (budget, want) in [
        (ApproxBudget::steps(0), fresh(ApproxBudget::steps(0))),
        (ApproxBudget::steps(500), fresh(ApproxBudget::steps(500))),
        (passed, zero),
    ] {
        assert_eq!(untimed(plan.answer(budget).0), want, "{budget:?}");
    }

    let (plan, _) = explainer.plan_anytime(&[]).unwrap();
    let start = Barrier::new(2);
    let answers = std::thread::scope(|s| {
        let answer = || {
            s.spawn(|| {
                start.wait();
                untimed(plan.answer(ApproxBudget::unlimited()).0)
            })
        };
        [answer(), answer()].map(|thread| thread.join().unwrap())
    });
    assert_eq!(answers[0], answers[1], "two threads, one explanation");
    assert_eq!(answers[0], unlimited);

    let fan = triangle_fan(12);
    let mut instances: Vec<(String, Database, ConjunctiveQuery)> = [
        (4, 64, 1),
        (4, 64, 7),
        (4, 64, 17),
        (5, 40, 200),
        (5, 64, 3),
    ]
    .into_iter()
    .map(|(nodes, tuples, seed)| {
        let inst = dense_triangles(nodes, tuples, seed);
        (
            format!("dense_triangles({nodes}, {tuples}, {seed})"),
            inst.db,
            inst.query,
        )
    })
    .collect();
    instances.push((String::from("triangle_fan(12)"), fan.db, fan.query));
    // Deadlines are set as each answer starts, so the live ones are live.
    let live = || ApproxBudget::until(Instant::now() + Duration::from_millis(2));
    let budgets: [fn() -> ApproxBudget; 7] = [
        || ApproxBudget::steps(0),
        || ApproxBudget::until(Instant::now()),
        || ApproxBudget::steps(500),
        live,
        ApproxBudget::unlimited,
        live,
        || ApproxBudget::steps(500),
    ];
    for (name, db, query) in &instances {
        let explainer = Explainer::new(db, query);
        let unlimited = untimed(
            explainer
                .why_anytime(&[], ApproxBudget::unlimited())
                .unwrap()
                .0,
        );
        let (plan, _) = explainer.plan_anytime(&[]).unwrap();
        let mut collapsed = 0;
        for budget in budgets {
            let budget = budget();
            let (answer, _) = plan.answer(budget);
            if answer
                .causes
                .iter()
                .all(|c| c.bounds.expect("anytime cause").is_exact())
            {
                collapsed += 1;
                assert_eq!(untimed(answer), unlimited, "{name} {budget:?}");
            }
        }
        assert!(collapsed >= 2, "{name}: {collapsed} collapsed answers");
    }
}

/// The repair table's soundness on one `dense_triangles` instance. At
/// budget zero, under `steps(steps)` and at an unlimited budget, every
/// bracket contains the exact ρ of `resp::exact` and is witnessed by a
/// feasible contingency of `1/lower − 1` members, no more causes are
/// settled than are exact, and an unlimited budget collapses every
/// bracket.
fn assert_repair_table_sound(nodes: usize, tuples: usize, seed: u64, steps: u64) {
    let inst = dense_triangles(nodes, tuples, seed);
    let explainer = Explainer::new(&inst.db, &inst.query);
    let (arena, phin) = minimized_lineage(&inst.db, &inst.query);
    let rho: HashMap<u32, f64> = phin
        .variables()
        .iter()
        .map(|v| (v as u32, exact_rho(&phin, v as u32)))
        .collect();
    for budget in [
        ApproxBudget::zero(),
        ApproxBudget::steps(steps),
        ApproxBudget::unlimited(),
    ] {
        let (explanation, _) = explainer.why_anytime(&[], budget).unwrap();
        for (v, bounds) in checked_causes(&inst.db, &arena, &phin, &explanation) {
            let at = format!("dense_triangles({nodes}, {tuples}, {seed}) v={v} {budget:?}");
            assert!(
                bounds.contains(rho[&v]),
                "{at}: exact {} outside {bounds:?}",
                rho[&v]
            );
            if budget.max_steps == u64::MAX {
                assert!(bounds.is_exact(), "{at}: {bounds:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The repair table is sound on random dense triangles of three to
    /// five nodes (up to 47 tuples per relation, so a five-node lineage
    /// now and then spans two words).
    #[test]
    fn repair_table_brackets_contain_the_exact_rho(
        nodes in 3usize..6,
        tuples in 4usize..48,
        seed in 0u64..1_000_000,
        steps in 0u64..300,
    ) {
        assert_repair_table_sound(nodes, tuples, seed, steps);
    }
}

/// The same soundness on multi-word lineages, every time: five nodes and
/// 64 tuples per relation intern more than 64 variables, so rows span two
/// words. (Drawn at random, such instances cost seconds each in a debug
/// build, so the property above keeps them rare.)
#[test]
fn repair_table_brackets_contain_the_exact_rho_across_words() {
    for (seed, steps) in [(3, 0), (11, 40)] {
        let inst = dense_triangles(5, 64, seed);
        let (_, phin) = minimized_lineage(&inst.db, &inst.query);
        assert!(phin.variables().iter().any(|v| v >= 64), "seed {seed}");
        assert_repair_table_sound(5, 64, seed, steps);
    }
}

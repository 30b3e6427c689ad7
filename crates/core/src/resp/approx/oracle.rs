//! The seed per-witness anytime kernel, retained as a differential
//! oracle.
//!
//! The production kernel lives in [`super`] (one packed lineage per
//! request, residual sets computed into reused word buffers, the degree
//! bound, and no greedy on a witness whose floor cannot beat the best).
//! This module preserves the original implementation **verbatim** — one
//! heap [`VarSet`] per residual set, a greedy on every witness that
//! recounts element frequencies on every pick, three buffers per search
//! node, and only the packing and `ln n + 1` floors — so that
//! `tests/approx_differential.rs` can check the packed kernel against
//! it at every clock-free budget: the packed bracket lies inside this
//! one, at budget zero both return the same greedy contingency, and at
//! an unlimited budget both reach the same certified minimum and
//! contingency length, the packed kernel expanding no more search
//! nodes.
//!
//! Nothing on a serving path calls into this module; do not optimise it.

use super::{harmonic_bound, AnytimeOutcome, ApproxBudget, BudgetTracker, RhoBounds};
use causality_lineage::{BitDnf, VarSet};

/// One witness's hitting-set instance: the residual sets plus the
/// greedy/packing certificates computed up front (budget-free).
struct WitnessInstance {
    sets: Vec<VarSet>,
    sizes: Vec<usize>,
    greedy: Vec<u32>,
    /// Certified lower bound on this witness's minimum hitting set:
    /// `max(packing, ⌈greedy/(ln n + 1)⌉)`.
    lower_size: usize,
}

impl WitnessInstance {
    fn build(others: &[&VarSet], witness: &VarSet) -> Option<WitnessInstance> {
        let sets: Vec<VarSet> = others.iter().map(|c| c.without(witness)).collect();
        if sets.iter().any(VarSet::is_empty) {
            // A conjunct lies inside the witness — infeasible (cannot
            // happen in a minimized DNF, mirrored from `exact`).
            return None;
        }
        let greedy = greedy_hitting_set(&sets);
        let packing = packing_lower_bound(&sets, &VarSet::new());
        let harmonic = (greedy.len() as f64 / harmonic_bound(sets.len())).ceil() as usize;
        let lower_size = packing.max(harmonic).max(usize::from(!sets.is_empty()));
        let sizes = sets.iter().map(VarSet::len).collect();
        Some(WitnessInstance {
            sets,
            sizes,
            greedy,
            lower_size,
        })
    }
}

/// Greedy hitting set: repeatedly pick the most frequent element among
/// uncovered sets (ties toward the smallest id, as in the exact
/// solver's seed). Feasibility is guaranteed for non-empty input sets.
fn greedy_hitting_set(sets: &[VarSet]) -> Vec<u32> {
    let words = sets.iter().map(VarSet::word_count).max().unwrap_or(0);
    let mut counts = vec![0u32; words * 64];
    let mut chosen: Vec<u32> = Vec::new();
    let mut uncovered: Vec<&VarSet> = sets.iter().collect();
    while !uncovered.is_empty() {
        counts.fill(0);
        for s in &uncovered {
            for v in s.iter() {
                counts[v] += 1;
            }
        }
        let (pick, _) = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .max_by_key(|&(v, &c)| (c, std::cmp::Reverse(v)))
            .expect("uncovered sets are non-empty");
        chosen.push(pick as u32);
        uncovered.retain(|s| !s.contains(pick));
    }
    chosen
}

/// Greedy packing of pairwise-disjoint sets not yet hit by `mask`:
/// each packed set needs its own element, so the count lower-bounds the
/// remaining hitting-set size.
fn packing_lower_bound(sets: &[VarSet], mask: &VarSet) -> usize {
    let mut blocked = VarSet::new();
    let mut lb = 0usize;
    for s in sets {
        if !s.intersects(mask) && !s.intersects(&blocked) {
            lb += 1;
            blocked.union_with(s);
        }
    }
    lb
}

/// Depth-limited search: is there a hitting set of size ≤ `limit`?
/// `Ok(true)` leaves the solution in `chosen`; `Err(())` means the
/// budget expired mid-search (the level is *not* refuted).
fn depth_limited(
    inst: &WitnessInstance,
    chosen: &mut Vec<u32>,
    mask: &mut VarSet,
    limit: usize,
    tracker: &mut BudgetTracker,
) -> Result<bool, ()> {
    if !tracker.step() {
        return Err(());
    }
    let uncovered: Vec<usize> = (0..inst.sets.len())
        .filter(|&i| !inst.sets[i].intersects(mask))
        .collect();
    if uncovered.is_empty() {
        return Ok(true);
    }
    let lb = packing_lower_bound(&inst.sets, mask);
    if chosen.len() + lb > limit {
        return Ok(false);
    }
    let pivot = *uncovered
        .iter()
        .min_by_key(|&&i| inst.sizes[i])
        .expect("uncovered non-empty");
    // Pivot elements are disjoint from `mask` (the set is uncovered),
    // so insert/remove below never clobbers an earlier choice.
    let pivot_elems: Vec<usize> = inst.sets[pivot].iter().collect();
    for v in pivot_elems {
        chosen.push(v as u32);
        mask.insert(v);
        let found = depth_limited(inst, chosen, mask, limit, tracker)?;
        if found {
            return Ok(true);
        }
        mask.remove(v);
        chosen.pop();
    }
    Ok(false)
}

/// The seed [`super::anytime_min_contingency`]: the same contract, with
/// brackets no tighter than the packed kernel's at every clock-free
/// budget.
pub fn anytime_min_contingency(phin: &BitDnf, v: u32, budget: ApproxBudget) -> AnytimeOutcome {
    if !phin.mentions(v) || phin.is_tautology() {
        return AnytimeOutcome::not_a_cause();
    }
    let witnesses: Vec<&VarSet> = phin
        .conjuncts()
        .iter()
        .filter(|c| c.contains(v as usize))
        .collect();
    let others: Vec<&VarSet> = phin
        .conjuncts()
        .iter()
        .filter(|c| !c.contains(v as usize))
        .collect();

    // Budget-free certificates: greedy feasible set + size lower bound
    // per witness. Feasibility decides cause-ness exactly.
    let instances: Vec<WitnessInstance> = witnesses
        .iter()
        .filter_map(|w| WitnessInstance::build(&others, w))
        .collect();
    if instances.is_empty() {
        return AnytimeOutcome::not_a_cause();
    }

    let mut best: Vec<u32> = instances
        .iter()
        .map(|i| i.greedy.clone())
        .min_by_key(Vec::len)
        .expect("at least one feasible witness");
    // |Γ_min| is the min over witnesses, so only the *smallest*
    // per-witness lower bound is certified globally.
    let mut certified = instances
        .iter()
        .map(|i| i.lower_size)
        .min()
        .expect("at least one feasible witness")
        .min(best.len());

    let mut history = vec![RhoBounds::from_sizes(best.len(), certified)];
    let mut refinements = 0u32;
    let mut tracker = BudgetTracker::new(budget);

    // Iterative deepening from the certified floor: each completed
    // level either refutes size m everywhere (upper tightens) or finds
    // a solution of size exactly m (bounds collapse — every smaller
    // size was already refuted).
    'refine: while certified < best.len() {
        let m = certified;
        let mut chosen: Vec<u32> = Vec::new();
        let mut mask = VarSet::new();
        let mut found = false;
        for inst in &instances {
            if inst.lower_size > m {
                continue; // this witness cannot beat m — already certified
            }
            chosen.clear();
            mask.clear();
            match depth_limited(inst, &mut chosen, &mut mask, m, &mut tracker) {
                Ok(true) => {
                    best = chosen.clone();
                    found = true;
                    break;
                }
                Ok(false) => {}
                Err(()) => break 'refine, // budget gone mid-level: keep last certified bounds
            }
        }
        if found {
            certified = best.len();
        } else {
            certified = m + 1;
        }
        refinements += 1;
        history.push(RhoBounds::from_sizes(best.len(), certified));
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

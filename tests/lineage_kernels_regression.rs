//! CI guard for the lineage-kernel complexity class.
//!
//! The bitset kernels make DNF minimization of an already-minimal
//! same-size lineage effectively linear (size-sort + zero subset
//! probes) and keep the hitting-set greedy at word-op cost per scan. An
//! accidental reintroduction of the seed's quadratic full-subset-test
//! scan (or per-pick `HashMap` rebuilds) turns the workloads below from
//! fractions of a second into minutes — so this test runs the kernel
//! suite at a size where O(n²) tree-walking cannot finish inside the
//! hard deadline. CI runs it in release (like the service concurrency
//! guards); the debug-profile deadline is proportionally looser so
//! plain `cargo test` stays reliable.

#[path = "common/timeout.rs"]
mod timeout;

use causality_core::resp::exact::{min_contingency_from_lineage, min_hitting_set};
use causality_engine::TupleRef;
use causality_lineage::{Conjunct, Dnf};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use timeout::with_timeout;

const RELEASE_TIMEOUT: Duration = Duration::from_secs(20);
const DEBUG_TIMEOUT: Duration = Duration::from_secs(180);
const TIMED_OUT: &str =
    "lineage kernel suite timed out — quadratic scan reintroduced on the hot path?";

fn hard_timeout() -> Duration {
    if cfg!(debug_assertions) {
        DEBUG_TIMEOUT
    } else {
        RELEASE_TIMEOUT
    }
}

/// A large already-minimal lineage in the shape every self-join-free
/// query produces: n distinct same-size conjuncts. The seed minimizer
/// performs n²/2 full subset walks here; the bitset minimizer performs
/// zero.
fn large_minimal_lineage(n: u32) -> Dnf {
    Dnf::new(
        (0..n)
            .map(|i| Conjunct::new([TupleRef::new(0, i), TupleRef::new(1, i % 977)]))
            .collect(),
    )
}

/// A clustered hitting-set instance (hub-and-spoke): greedy is optimal
/// and the branch-and-bound prunes at the root, so runtime is pure
/// frequency-scan cost — the part the bitsets accelerate.
fn clustered_sets(hubs: u32, spokes_per_hub: u32) -> Vec<BTreeSet<TupleRef>> {
    let mut sets = Vec::new();
    for hub in 0..hubs {
        for s in 0..spokes_per_hub {
            sets.push(
                [
                    TupleRef::new(0, hub),
                    TupleRef::new(1, hub * spokes_per_hub + s),
                ]
                .into(),
            );
        }
    }
    sets
}

#[test]
fn kernel_suite_completes_under_hard_deadline() {
    with_timeout(hard_timeout(), TIMED_OUT, || {
        let started = Instant::now();

        // 1. Minimization at 30k conjuncts (seed: ~450M subset walks).
        let phi = large_minimal_lineage(30_000);
        let phin = phi.minimized();
        assert_eq!(phin.len(), 30_000, "already minimal: nothing absorbed");

        // 2. Restriction kernels over a large mask.
        let mask: BTreeSet<TupleRef> = (0..977).map(|i| TupleRef::new(1, i)).collect();
        let restricted = phin.assign_true(&mask);
        assert_eq!(restricted.len(), 30_000);
        assert!(restricted.minimized().len() <= 30_000);
        assert_eq!(phin.assign_false(&mask).len(), 0);

        // 3. Hitting set over 3000 clustered sets (600 optimal picks).
        let sets = clustered_sets(600, 5);
        let hit = min_hitting_set(&sets, None).expect("feasible");
        assert_eq!(hit.len(), 600, "one hub per cluster");

        // 4. Exact contingency on a two-witness lineage over the large
        //    instance: the solver must hit every other conjunct.
        let t = TupleRef::new(0, 0);
        let small = large_minimal_lineage(900);
        let gamma = min_contingency_from_lineage(&small.minimized(), t)
            .expect("t is a cause of its own conjunct");
        assert_eq!(gamma.len(), 899, "hit each of the other conjuncts");

        println!(
            "lineage kernel suite finished in {:?} (deadline {:?})",
            started.elapsed(),
            hard_timeout()
        );
    });
}

//! Differential property tests for the interned-arena bitset kernels:
//! on random DNFs, the `BitDnf`/`VarSet` implementations of minimize,
//! assign-true/false, minimum contingency, and minimum hitting set must
//! be **result-identical** — same tuples, same order — to the seed
//! `BTreeSet` implementations retained in `causality_lineage::oracle`
//! and `causality_core::resp::exact::oracle`. A final pair of
//! properties re-runs the ranking bit-identity guarantee on top of the
//! arena path: exact ranking matches the per-cause oracle, and the
//! ranker stays bit-identical to the reference ranking (each cause
//! solved alone, then sorted) at every parallelism level.

use causality::prelude::*;
use causality_core::ranking::{rank_why_so_parallel, RankConfig, RankedCause};
use causality_core::resp::exact;
use causality_lineage::{oracle as lineage_oracle, Conjunct, Dnf, LineageArena};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The reference `Auto` ranking, sharing none of the ranker's code:
/// every actual cause solved alone by `why_so_responsibility` (each call
/// derives its own lineage), sorted by ρ descending, then by tuple.
fn reference_ranking(db: &Database, q: &ConjunctiveQuery) -> Vec<RankedCause> {
    let mut ranked: Vec<RankedCause> = why_so_causes(db, q)
        .unwrap()
        .actual
        .into_iter()
        .map(|t| RankedCause {
            tuple: t,
            responsibility: why_so_responsibility(db, q, t).unwrap(),
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

/// Build a DNF from raw `(rel, row)` conjunct descriptions. Empty inner
/// vectors become the empty conjunct (the tautology case).
fn dnf_of(raw: &[Vec<(u32, u32)>]) -> Dnf {
    Dnf::new(
        raw.iter()
            .map(|c| Conjunct::new(c.iter().map(|&(r, w)| TupleRef::new(r, w))))
            .collect(),
    )
}

fn refs_of(raw: &[(u32, u32)]) -> BTreeSet<TupleRef> {
    raw.iter().map(|&(r, w)| TupleRef::new(r, w)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Minimization: bitset absorption (size-sorted, equal-size probes
    /// skipped) returns exactly the seed's unique minimal sorted DNF.
    #[test]
    fn minimize_matches_oracle(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..12), 0..5), 0..30),
    ) {
        let phi = dnf_of(&raw);
        prop_assert_eq!(phi.minimized(), lineage_oracle::minimized(&phi));
    }

    /// Restriction kernels: `BitDnf::assign_true/false` agree with the
    /// `Dnf` originals conjunct-for-conjunct after arena round-trip.
    #[test]
    fn assign_matches_dnf(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..12), 0..5), 0..30),
        mask_raw in prop::collection::vec((0u32..3, 0u32..12), 0..8),
    ) {
        let phi = dnf_of(&raw);
        let mask = refs_of(&mask_raw);
        let (arena, bits) = LineageArena::from_dnf(&phi);
        // Only interned variables can appear in a bit mask; variables
        // outside the lineage are no-ops on both sides.
        let bit_mask: causality_lineage::VarSet = mask
            .iter()
            .filter_map(|&t| arena.id(t).map(|v| v as usize))
            .collect();
        prop_assert_eq!(
            arena.dnf_of(&bits.assign_true(&bit_mask)),
            phi.assign_true(&mask)
        );
        prop_assert_eq!(
            arena.dnf_of(&bits.assign_false(&bit_mask)),
            phi.assign_false(&mask)
        );
    }

    /// Minimum contingency: for every variable of a random minimized
    /// DNF, the bitset branch-and-bound returns the *identical* witness
    /// (same tuples, same order) as the seed solver.
    #[test]
    fn contingency_matches_oracle(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..10), 0..4), 0..20),
    ) {
        let phin = dnf_of(&raw).minimized();
        for t in phin.variables() {
            prop_assert_eq!(
                exact::min_contingency_from_lineage(&phin, t),
                exact::oracle::min_contingency_from_lineage(&phin, t),
                "tuple {:?} of {:?}", t, &phin
            );
        }
    }

    /// Minimum hitting set: identical output (order included) across
    /// random set systems and every upper-bound regime, including
    /// instances made infeasible by an empty set.
    #[test]
    fn hitting_set_matches_oracle(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..2, 0u32..10), 0..4), 0..12),
        upper in 0usize..6,
    ) {
        let sets: Vec<BTreeSet<TupleRef>> = raw.iter().map(|s| refs_of(s)).collect();
        for bound in [None, Some(upper)] {
            prop_assert_eq!(
                exact::min_hitting_set(&sets, bound),
                exact::oracle::min_hitting_set(&sets, bound),
                "sets {:?} bound {:?}", &sets, bound
            );
        }
    }

    /// Ranking on the arena path: every exact-ranked responsibility
    /// (ρ *and* contingency witness) equals what the seed per-cause
    /// pipeline — oracle minimize + oracle contingency — derives.
    #[test]
    fn exact_ranking_matches_oracle_pipeline(
        r_rows in prop::collection::vec((0u8..4, 0u8..4), 1..7),
        s_rows in prop::collection::vec(0u8..4, 1..5),
    ) {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        for &(x, y) in &r_rows {
            db.insert_endo(r, vec![Value::from(i64::from(x)), Value::from(i64::from(y))]);
        }
        for &y in &s_rows {
            db.insert_endo(s, vec![Value::from(i64::from(y))]);
        }
        let q = ConjunctiveQuery::parse("q :- R(x, y), S(y)").unwrap();
        let phin = lineage_oracle::minimized(&causality_lineage::n_lineage(&db, &q).unwrap());
        let cfg = RankConfig { method: Method::Exact, ..RankConfig::default() };
        for rc in rank_why_so_parallel(&db, &q, &cfg, None).unwrap().causes {
            let gamma = exact::oracle::min_contingency_from_lineage(&phin, rc.tuple)
                .expect("ranked causes are causes");
            prop_assert_eq!(
                rc.responsibility.min_contingency.as_deref(),
                Some(gamma.as_slice()),
                "tuple {:?}", rc.tuple
            );
            prop_assert!(
                (rc.responsibility.rho - 1.0 / (1.0 + gamma.len() as f64)).abs() < 1e-12
            );
        }
    }

    /// Parallel top-k bit-identity, re-run on the arena path: the
    /// sharded `&VarSet` lineage must not perturb order or pruning.
    #[test]
    fn parallel_ranking_bit_identical_on_arena_path(
        r_rows in prop::collection::vec((0u8..4, 0u8..4), 1..7),
        s_rows in prop::collection::vec(0u8..4, 1..5),
        k in 1usize..5,
    ) {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        for &(x, y) in &r_rows {
            db.insert_endo(r, vec![Value::from(i64::from(x)), Value::from(i64::from(y))]);
        }
        for &y in &s_rows {
            db.insert_endo(s, vec![Value::from(i64::from(y))]);
        }
        let q = ConjunctiveQuery::parse("q :- R(x, y), S(y)").unwrap();
        let reference = reference_ranking(&db, &q);
        for parallelism in [1usize, 2, 8] {
            let full = rank_why_so_parallel(
                &db, &q, &RankConfig::with_parallelism(parallelism), None).unwrap();
            prop_assert_eq!(&full.causes, &reference);
            let topk = rank_why_so_parallel(
                &db, &q, &RankConfig::with_parallelism(parallelism).top_k(k), None).unwrap();
            prop_assert_eq!(&topk.causes, &reference[..k.min(reference.len())]);
        }
    }
}

/// A deterministic spot check that the differential surface includes
/// the tautology and unsatisfiable corners (cheap to pin exactly).
#[test]
fn corner_cases_match_oracle() {
    for phi in [
        Dnf::unsatisfiable(),
        Dnf::new(vec![Conjunct::empty()]),
        Dnf::new(vec![
            Conjunct::empty(),
            Conjunct::new([TupleRef::new(0, 1)]),
        ]),
    ] {
        assert_eq!(phi.minimized(), lineage_oracle::minimized(&phi));
        for t in phi.variables() {
            assert_eq!(
                exact::min_contingency_from_lineage(&phi.minimized(), t),
                exact::oracle::min_contingency_from_lineage(&phi.minimized(), t)
            );
        }
    }
}

//! lineage_path — the PTIME half of a request: evaluating the grounded
//! query into the interned, minimized n-lineage every cause and
//! responsibility computation reads.
//!
//! `emitted/<instance>` times `minimized_n_lineage`, which builds the
//! arena straight from the evaluator's one search. `btree/<instance>`
//! times the `BTreeSet` path perfbench's replay still calls:
//! `n_lineage_cached` (which materializes every valuation and builds a
//! `Dnf`), `LineageArena::from_dnf`, then `minimized`. Both run on a warm
//! index cache, as in serving.
//!
//! Instances:
//! * `dense_triangles(4, 64, s)` for s ∈ {1, 7, 17}: the NP-hard h2*
//!   shape of perfbench's `hard_triangles` tenants;
//! * `imdb_whyso`: the Fig. 2 Burton query grounded on the most popular
//!   genre, over a generated IMDB instance of 4 000 movies;
//! * `imdb_whyno`: the Why-No lineage (`non_answer_lineage_cached` on the
//!   `btree` side) of the same question at `imdb_whyno`'s 20 000 movies.
//!
//! Before timing, each instance asserts that the two paths give the
//! same arena (ids in ascending `TupleRef` order) and the same
//! conjuncts, so `-- --test` checks them without timing.

use causality_bench::bench_group;
use causality_datagen::hard_instances::dense_triangles;
use causality_datagen::imdb::{burton_genre_query, generate, ImdbConfig};
use causality_engine::{ConjunctiveQuery, Database, EngineError, SharedIndexCache, Value};
use causality_lineage::{
    minimized_n_lineage, n_lineage_cached, non_answer_lineage_cached, BitDnf, Dnf, LineageArena,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// One Boolean question and the `BTreeSet` lineage function it is
/// checked against.
struct Instance {
    name: String,
    db: Database,
    query: ConjunctiveQuery,
    btree: fn(&Database, &ConjunctiveQuery, Option<&SharedIndexCache>) -> Result<Dnf, EngineError>,
}

fn imdb(movies: usize) -> Database {
    generate(&ImdbConfig {
        directors: movies / 5,
        movies,
        ..ImdbConfig::default()
    })
    .0
}

fn instances() -> Vec<Instance> {
    let mut out: Vec<Instance> = [1, 7, 17]
        .into_iter()
        .map(|seed| {
            let inst = dense_triangles(4, 64, seed);
            Instance {
                name: format!("dense_triangles/4_64_{seed}"),
                db: inst.db,
                query: inst.query,
                btree: n_lineage_cached,
            }
        })
        .collect();
    let drama = burton_genre_query().ground(&[Value::from("Drama")]);
    out.push(Instance {
        name: "imdb_whyso/4000".to_string(),
        db: imdb(4_000),
        query: drama.clone(),
        btree: n_lineage_cached,
    });
    out.push(Instance {
        name: "imdb_whyno/20000".to_string(),
        db: imdb(20_000),
        query: drama,
        btree: non_answer_lineage_cached,
    });
    out
}

/// The `BTreeSet` path: materialized valuations, a `Dnf`, then interned
/// and minimized.
fn btree_path(inst: &Instance, cache: &SharedIndexCache) -> (LineageArena, BitDnf) {
    let phi = (inst.btree)(&inst.db, &inst.query, Some(cache)).expect("lineage");
    let (arena, bits) = LineageArena::from_dnf(&phi);
    (arena, bits.minimized())
}

fn lineage_path(c: &mut Criterion) {
    let mut group = bench_group(c, "lineage_path");
    for inst in instances() {
        let cache = SharedIndexCache::new();
        let (arena, bits) = minimized_n_lineage(&inst.db, &inst.query, Some(&cache)).expect("Φⁿ");
        let (b_arena, b_bits) = btree_path(&inst, &cache);
        let order = |a: &LineageArena| (0..a.len() as u32).map(|id| a.resolve(id)).collect();
        let (ours, theirs): (Vec<_>, Vec<_>) = (order(&arena), order(&b_arena));
        assert_eq!(ours, theirs, "{}: arena order", inst.name);
        assert_eq!(bits, b_bits, "{}: conjuncts", inst.name);
        assert!(!bits.is_empty(), "{}: a true question", inst.name);

        group.bench_function(format!("emitted/{}", inst.name), |b| {
            b.iter(|| {
                black_box(minimized_n_lineage(&inst.db, &inst.query, Some(&cache)).expect("Φⁿ"))
            });
        });
        group.bench_function(format!("btree/{}", inst.name), |b| {
            b.iter(|| black_box(btree_path(&inst, &cache)));
        });
    }
    group.finish();
}

criterion_group!(benches, lineage_path);
criterion_main!(benches);

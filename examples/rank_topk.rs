//! Parallel top-k responsibility ranking at the library level: the
//! Fig. 2 IMDB workload through `causality_core::ranking::parallel`.
//!
//! ```sh
//! cargo run --release --example rank_topk
//! ```
//!
//! Ranks the causes of the Musical answer on a scaled IMDB instance
//! three ways — on one thread, fanned out over four, and through the
//! pruned top-k screen — and shows all three agreeing bit for bit while
//! doing decreasing amounts of work.

use causality::prelude::*;
use causality_core::ranking::{rank_why_so_parallel, RankConfig};
use causality_datagen::imdb::{burton_genre_query, generate, ImdbConfig};
use std::time::Instant;

fn main() {
    // A few thousand movies around the Fig. 2a micro-instance: enough
    // data that each per-cause Algorithm-1 solve has real work to do.
    let (db, _) = generate(&ImdbConfig {
        directors: 400,
        movies: 2000,
        ..ImdbConfig::default()
    });
    let query = burton_genre_query().ground(&[Value::from("Musical")]);
    let cache = SharedIndexCache::new();
    let one_thread = RankConfig::default();
    // Prime the shared join indexes so the three timings below compare
    // ranking compute, not first-touch index builds.
    rank_why_so_parallel(&db, &query, &one_thread, Some(&cache)).unwrap();

    // One thread: every candidate solved on the calling thread.
    let t0 = Instant::now();
    let full = rank_why_so_parallel(&db, &query, &one_thread, Some(&cache))
        .unwrap()
        .causes;
    let t_seq = t0.elapsed();
    println!("one thread: ranked {} causes in {t_seq:?}", full.len());

    // Fan-out: same candidates, sharded over 4 threads, same output.
    let cfg = RankConfig::with_parallelism(4);
    let t0 = Instant::now();
    let fanout = rank_why_so_parallel(&db, &query, &cfg, Some(&cache)).unwrap();
    let t_par = t0.elapsed();
    assert_eq!(fanout.causes, full, "bit-identical order");
    println!(
        "fan-out:    ranked {} causes on {} threads in {t_par:?}",
        fanout.causes.len(),
        fanout.stats.threads
    );

    // Top-k: only causes that can still enter the top 3 are solved.
    let cfg = RankConfig::with_parallelism(4).top_k(3);
    let t0 = Instant::now();
    let top3 = rank_why_so_parallel(&db, &query, &cfg, Some(&cache)).unwrap();
    let t_top = t0.elapsed();
    assert_eq!(top3.causes, full[..3], "top-3 is the same prefix");
    println!(
        "top-3:      solved {} of {} candidates ({} pruned by the upper-bound \
         screen) in {t_top:?}\n",
        top3.stats.computed, top3.stats.candidates, top3.stats.pruned
    );

    println!("ρ      cause (top 3 of the Fig. 2b-style table)");
    for rc in &top3.causes {
        let rel = db.relation(rc.tuple.rel);
        println!(
            "{:<6.3} {}{}{}",
            rc.responsibility.rho,
            rel.name(),
            db.tuple(rc.tuple),
            if rc.responsibility.is_counterfactual() {
                "  (counterfactual)"
            } else {
                ""
            }
        );
    }
}

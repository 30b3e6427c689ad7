//! Serving explanations concurrently: the Fig. 1/2 IMDB scenario through
//! `causality_service`.
//!
//! ```sh
//! cargo run --example service_demo
//! ```
//!
//! Starts a one-tenant, 4-worker tier over the Fig. 2a instance, asks
//! the paper's question ("why is Musical an answer of the Burton-genre
//! query?") from several client threads, shows the responsibility cache warming up,
//! then publishes a new snapshot (Tim Burton's *Sweeney Todd* removed)
//! and shows the explanation tracking the new version while the old one
//! keeps serving pinned readers. A later section turns on the
//! explanation slow-log and contrasts the per-stage trace of an easy
//! (weakly linear, PTIME) request with a hard (non-weakly-linear,
//! NP-hard) triangle request. The final section shows the hardness
//! router in action: a dense NP-hard instance under a 1 ms deadline is
//! answered approximately, with certified `[lower, upper]` brackets on
//! every cause's responsibility instead of a deadline error.

use causality::prelude::*;
use causality_datagen::imdb::{burton_genre_query, fig2a_instance};
use std::time::Duration;

/// Serve `db` as the only tenant of a one-shard tier, with circuit
/// breakers and the supervisor off.
fn one_tenant(db: Database, shard: ServiceConfig) -> (ShardedService, TenantId) {
    let tier = ShardedService::new(TierConfig {
        shards: 1,
        breaker: BreakerConfig::disabled(),
        supervisor: SupervisorConfig::disabled(),
        shard,
        ..TierConfig::default()
    });
    let tenant = tier
        .add_tenant("default", db)
        .expect("a fresh tier has no tenants");
    (tier, tenant)
}

fn main() {
    let (db, refs) = fig2a_instance();
    let query = burton_genre_query();
    let musical = vec![Value::from("Musical")];

    let (svc, imdb) = one_tenant(
        db,
        ServiceConfig {
            workers: 4,
            // Fresh top-k rankings fan their per-cause responsibility
            // solves over 2 threads each.
            rank_parallelism: 2,
            ..ServiceConfig::default()
        },
    );

    // --- 1. A burst of identical questions from concurrent clients. ----
    println!("== Why is (Musical) an answer? — 8 concurrent clients ==\n");
    std::thread::scope(|scope| {
        for client in 0..8 {
            let svc = &svc;
            let query = query.clone();
            let musical = musical.clone();
            scope.spawn(move || {
                let resp = svc
                    .explain(imdb, ExplainRequest::why_so(query, musical))
                    .expect("service is running");
                let explanation = resp.result.expect("query explains");
                if client == 0 {
                    println!("{explanation}");
                }
            });
        }
    });
    let stats = svc.stats().aggregate();
    println!(
        "served {} requests in {} batches: {} computed, {} cache hits, {} coalesced ({}% hit rate)\n",
        stats.requests,
        stats.batches,
        stats.cache_misses,
        stats.cache_hits,
        stats.coalesced,
        (stats.hit_rate() * 100.0).round(),
    );

    // --- 2. Rank-top-k and Why-No requests share the same pool. --------
    let top2 = svc
        .explain(
            imdb,
            ExplainRequest::rank_top_k(query.clone(), musical.clone(), 2),
        )
        .unwrap()
        .expect_explanation();
    println!("== Top-2 causes by responsibility ==\n{top2}");

    // --- 2b. Failure isolation: a panicking job costs one response. ----
    // Chaos hook: the next Why-No request panics inside its worker; the
    // pool catches it, answers with an error, and keeps serving.
    svc.inject_fault(|req| matches!(req.kind, ExplainKind::WhyNo));
    let blast = svc
        .explain(imdb, ExplainRequest::why_no(query.clone(), musical.clone()))
        .unwrap();
    println!(
        "== Injected fault: Why-No request answered with an error, pool alive ==\n{}\n",
        blast
            .result
            .expect_err("the chaos hook panicked this request")
    );
    svc.clear_faults();

    // --- 3. Publish a new snapshot: Sweeney Todd becomes exogenous -----
    // (context rather than suspect), so it can no longer be a cause.
    let sweeney = refs.sweeney;
    let version = svc
        .update(imdb, move |db| {
            let movie = sweeney.rel;
            let tuple = db.relation(movie).tuple(sweeney.row).clone();
            db.relation_mut(movie)
                .set_endogenous_where(|t| t == &tuple, false);
        })
        .expect("the tenant is registered");
    println!("== Published snapshot v{version}: Sweeney Todd now exogenous ==\n");

    let fresh = svc
        .explain(imdb, ExplainRequest::why_so(query.clone(), musical.clone()))
        .unwrap();
    println!(
        "fresh explanation against v{} (cache hit: {}):\n",
        fresh.snapshot_version, fresh.cache_hit
    );
    println!("{}", fresh.expect_explanation());

    let stats = svc.stats().aggregate();
    println!(
        "final stats: version {}, {} requests, hit rate {:.0}%, \
         {} join indexes held, {} evicted (per-relation keying: only the \
         touched relation's indexes can ever be invalidated); \
         {} top-k rankings computed, {} candidates pruned by the top-k \
         screen, {} panics caught without losing a worker",
        stats.snapshot_version,
        stats.requests,
        stats.hit_rate() * 100.0,
        stats.index_entries,
        stats.index_evictions,
        stats.rank_tasks,
        stats.topk_pruned,
        stats.panics_caught,
    );

    // --- 4. Observability: per-stage traces and the slow-log. ----------
    // An easy (weakly linear → PTIME responsibility) request next to a
    // hard one (the non-weakly-linear triangle of Cor. 4.14 → NP-hard),
    // with the hard request's worker artificially stalled so it
    // overruns the 5 ms slow threshold.
    println!("\n== Request tracing: easy (PTIME) vs hard (NP-hard) ==\n");
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y", "z"]));
    let t = db.add_relation(Schema::new("T", &["z", "x"]));
    db.insert_endo(r, vec![Value::int(1), Value::int(2)]);
    db.insert_endo(s, vec![Value::int(2), Value::int(3)]);
    db.insert_endo(t, vec![Value::int(3), Value::int(1)]);
    let (obs, triangle) = one_tenant(
        db,
        ServiceConfig {
            workers: 1,
            telemetry: TelemetryConfig {
                slow_latency: Some(Duration::from_millis(5)),
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
    );

    let easy = ConjunctiveQuery::parse("e(x) :- R(x, y)").unwrap();
    obs.explain(triangle, ExplainRequest::why_so(easy, vec![Value::int(1)]))
        .unwrap()
        .result
        .expect("single-atom query explains");

    let hard = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();
    obs.inject_delay(|_| Some(Duration::from_millis(20)));
    obs.explain(triangle, ExplainRequest::why_so(hard, vec![]))
        .unwrap()
        .result
        .expect("the triangle has a satisfying valuation");

    for trace in obs.recent_traces() {
        println!(
            "{} · dichotomy {} · {} relations · ρ_max {:.2} · total {} µs",
            trace.kind, trace.dichotomy, trace.relations, trace.rho_max, trace.total_us
        );
        for span in &trace.stages {
            println!(
                "    {:<16} +{:>6} µs   {:>6} µs",
                span.stage.as_str(),
                span.start_us,
                span.dur_us
            );
        }
        println!();
    }

    let slow = obs.slow_log_records();
    println!(
        "slow-log: {} record(s) over the 5 ms threshold (the stalled \
         NP-hard request; the PTIME request stayed under it)",
        slow.len()
    );
    for rec in &slow {
        let solve = rec
            .stage(Stage::KernelSolve)
            .map(|span| span.dur_us)
            .unwrap_or(0);
        println!(
            "    seq {} · {} · dichotomy {} · total {} µs · kernel_solve {} µs",
            rec.seq, rec.outcome, rec.dichotomy, rec.total_us, solve
        );
    }

    // --- 5. Hardness-aware routing: NP-hard under a 1 ms deadline. -----
    // A dense non-weakly-linear triangle instance whose exact min
    // hitting set would blow any interactive budget. With a deadline on
    // the request, the router sends it to the anytime tier: the answer
    // arrives inside the budget as certified [lower, upper] brackets on
    // ρ instead of a DeadlineExceeded error.
    println!("\n== Hardness-aware routing: NP-hard request, 1 ms deadline ==\n");
    let inst = causality_datagen::hard_instances::dense_triangles(6, 150, 42);
    let (anytime, dense) = one_tenant(
        inst.db.clone(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let answer = anytime
        .submit_with_deadline(
            dense,
            ExplainRequest::why_so(inst.query.clone(), vec![]),
            Duration::from_millis(1),
        )
        .unwrap()
        .wait()
        .unwrap()
        .expect_explanation();
    match answer.mode {
        ExplainMode::Approximate {
            bounds,
            budget_spent_us,
            refinements,
            settled,
            search_nodes,
        } => println!(
            "answered approximately: {} cause(s) bracketed ({settled} settled \
             by the repair table), then {budget_spent_us} µs of refinement \
             ({refinements} level(s), {search_nodes} search node(s)) and \
             assembly; max-ρ cause certified in [{:.4}, {:.4}]",
            answer.causes.len(),
            bounds.lower,
            bounds.upper
        ),
        ExplainMode::Exact => unreachable!("hard + deadline routes to the anytime tier"),
    }
    for cause in answer.causes.iter().take(3) {
        let bounds = cause.bounds.expect("approximate causes carry bounds");
        println!(
            "    {}{:?} · ρ ∈ [{:.4}, {:.4}]{}",
            cause.relation,
            cause.tuple,
            bounds.lower,
            bounds.upper,
            if bounds.is_exact() {
                " (collapsed)"
            } else {
                ""
            }
        );
    }
    let stats = anytime.stats().aggregate();
    println!(
        "\nstats: {} approximate answer(s), {} cause(s) settled by the \
         repair table, {} search node(s), {} deadline miss(es) — the anytime \
         tier absorbs what would otherwise be a timeout",
        stats.approx_requests,
        stats.approx_settled,
        stats.approx_search_nodes,
        stats.deadline_misses
    );
    anytime.shutdown();
}

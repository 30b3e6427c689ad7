//! The single-tenant handle on a one-shard tier (the PR 2 API).
//!
//! [`CausalityService`] serves one database. It registers that database
//! as the only tenant of a one-shard [`ShardedService`] with circuit
//! breakers and the supervisor switched off, hides the tenant id, and
//! sends every request down the tier's one submission path. What the
//! handle adds is the queueing contract of the original API — `submit`
//! blocks while the queue is full (backpressure, no admission control)
//! and `try_submit` reports [`ServiceError::QueueFull`] — and writes that
//! cannot name a foreign tenant. Fault injection and telemetry export
//! live on the tier, reached through [`CausalityService::tier`].

use crate::breaker::BreakerConfig;
use crate::dispatch::TenantId;
use crate::frontend::{ShardedService, TierConfig};
use crate::request::{ExplainRequest, ExplainResponse, PendingExplain, ServiceError};
use crate::shard::Enqueue;
use crate::stats::ServiceStats;
use crate::supervisor::SupervisorConfig;
use causality_engine::{Database, Snapshot, SnapshotStore};
use std::sync::Arc;
use std::time::Duration;

pub use crate::shard::ServiceConfig;

/// A concurrent explanation service over one logical database.
///
/// ```
/// use causality_service::{CausalityService, ExplainRequest};
/// use causality_engine::{database::example_2_2, ConjunctiveQuery, Value};
///
/// let svc = CausalityService::new(example_2_2());
/// let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
/// let resp = svc
///     .explain(ExplainRequest::why_so(q, vec![Value::str("a2")]))
///     .unwrap();
/// assert_eq!(resp.expect_explanation().causes.len(), 2);
/// ```
pub struct CausalityService {
    tier: ShardedService,
    tenant: TenantId,
    store: Arc<SnapshotStore>,
}

impl CausalityService {
    /// Start a service over `db` with the default configuration.
    pub fn new(db: Database) -> Self {
        CausalityService::with_config(db, ServiceConfig::default())
    }

    /// Start a service with explicit tuning knobs.
    pub fn with_config(db: Database, cfg: ServiceConfig) -> Self {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            breaker: BreakerConfig::disabled(),
            supervisor: SupervisorConfig::disabled(),
            shard: cfg,
            ..TierConfig::default()
        });
        let tenant = tier
            .add_tenant("default", db)
            .expect("a fresh tier has no tenants");
        let store = tier.store(tenant).expect("the tenant was just added");
        CausalityService {
            tier,
            tenant,
            store,
        }
    }

    /// Enqueue a request, blocking while the queue is full (backpressure).
    pub fn submit(&self, request: ExplainRequest) -> Result<PendingExplain, ServiceError> {
        self.tier
            .submit_inner(self.tenant, request, None, Enqueue::Block)
    }

    /// Enqueue a request without blocking; [`ServiceError::QueueFull`]
    /// when the bounded queue has no room.
    pub fn try_submit(&self, request: ExplainRequest) -> Result<PendingExplain, ServiceError> {
        self.tier
            .submit_inner(self.tenant, request, None, Enqueue::Try)
    }

    /// Enqueue a request with a per-request **deadline budget**: if the
    /// budget expires before a worker picks the job up, it resolves to
    /// [`ServiceError::DeadlineExceeded`] (counted in
    /// [`ServiceStats::deadline_misses`]) instead of occupying a worker.
    pub fn submit_with_deadline(
        &self,
        request: ExplainRequest,
        budget: Duration,
    ) -> Result<PendingExplain, ServiceError> {
        self.tier
            .submit_inner(self.tenant, request, Some(budget), Enqueue::Block)
    }

    /// Submit and wait: the blocking convenience call.
    pub fn explain(&self, request: ExplainRequest) -> Result<ExplainResponse, ServiceError> {
        self.submit(request)?.wait()
    }

    /// Pin the current snapshot (for ad-hoc reads outside the pool).
    pub fn snapshot(&self) -> Snapshot {
        self.store.current()
    }

    /// Publish a whole new database as the next snapshot version.
    pub fn publish(&self, db: Database) -> u64 {
        self.store.publish(db).version()
    }

    /// Copy-on-write update of the current snapshot; returns the new
    /// version. In-flight requests keep their pinned older snapshots.
    pub fn update(&self, f: impl FnOnce(&mut Database)) -> u64 {
        self.store.update(f).version()
    }

    /// A point-in-time view of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.tier.stats().aggregate()
    }

    /// Like [`CausalityService::stats`], but also zeroes every monotone
    /// counter and the latency histogram (the queue-depth gauge stays
    /// live), so successive measurement phases — a warmup and the timed
    /// window after it — never bleed together.
    pub fn snapshot_and_reset(&self) -> ServiceStats {
        self.tier.snapshot_and_reset().aggregate()
    }

    /// The one-shard tier behind the handle, for fault injection
    /// ([`ShardedService::inject_fault`], [`ShardedService::inject_delay`],
    /// [`ShardedService::clear_faults`]) and telemetry export
    /// ([`ShardedService::export_metrics`],
    /// [`ShardedService::recent_traces`],
    /// [`ShardedService::slow_log_records`] and their JSONL forms).
    pub fn tier(&self) -> &ShardedService {
        &self.tier
    }

    /// Stop accepting work, drain the queue, and join the workers.
    pub fn shutdown(self) {
        self.tier.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, ConjunctiveQuery, Schema, Value};

    fn query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
    }

    #[test]
    fn service_matches_direct_explainer() {
        use causality_core::explain::Explainer;
        let svc = CausalityService::new(example_2_2());
        let q = query();
        let resp = svc
            .explain(ExplainRequest::why_so(q.clone(), vec![Value::str("a4")]))
            .unwrap();
        assert_eq!(resp.snapshot_version, 1);
        assert!(!resp.cache_hit);
        let served = resp.expect_explanation();

        let db = example_2_2();
        let direct = Explainer::new(&db, &q).why(&[Value::str("a4")]).unwrap();
        assert_eq!(served, direct, "service output is bit-identical");
        svc.shutdown();
    }

    #[test]
    fn responsibility_cache_hits_are_identical() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        let cold = svc.explain(req.clone()).unwrap();
        let warm = svc.explain(req).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(
            cold.expect_explanation(),
            warm.expect_explanation(),
            "cache hit is bit-identical to the cold answer"
        );
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(
            stats.latency_samples(),
            2,
            "every response is a latency sample"
        );
        assert!(stats.p99_us() >= stats.p50_us());
    }

    #[test]
    fn why_no_and_top_k_kinds() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y"]));
        db.insert_exo(r, tup![1, 2]);
        db.insert_endo(s, tup![2]);
        let svc = CausalityService::new(db);
        let q = query();

        let whyno = svc
            .explain(ExplainRequest::why_no(q.clone(), vec![Value::int(1)]))
            .unwrap()
            .expect_explanation();
        assert_eq!(whyno.causes.len(), 1);
        assert_eq!(whyno.causes[0].rho, 1.0);

        let svc2 = CausalityService::new(example_2_2());
        let top1 = svc2
            .explain(ExplainRequest::rank_top_k(q, vec![Value::str("a4")], 1))
            .unwrap()
            .expect_explanation();
        assert_eq!(top1.causes.len(), 1, "truncated to k");
    }

    #[test]
    fn publish_serves_new_version_and_keys_cache_by_version() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let v1 = svc.explain(req.clone()).unwrap();
        assert_eq!(v1.snapshot_version, 1);

        // Remove S(a1): answer a2 loses its only witness.
        let version = svc.update(|db| {
            let s = db.relation_id("S").unwrap();
            let row = db.relation(s).find(&tup!["a1"]).unwrap();
            db.relation_mut(s).set_endogenous(row, false);
        });
        assert_eq!(version, 2);

        let v2 = svc.explain(req).unwrap();
        assert_eq!(v2.snapshot_version, 2);
        assert!(!v2.cache_hit, "the write touched S, so the key moved");
        // S(a1) now exogenous: it can no longer be a cause; only R(a2,a1)
        // remains, and with S(a1) always present it is counterfactual.
        let explanation = v2.expect_explanation();
        assert_eq!(explanation.causes.len(), 1);
        assert_eq!(explanation.causes[0].relation, "R");
    }

    #[test]
    fn invalid_requests_are_rejected_without_killing_workers() {
        let svc = CausalityService::new(example_2_2());
        let q = query();
        let bad = ExplainRequest::why_so(q.clone(), Vec::<Value>::new());
        assert!(matches!(
            svc.submit(bad),
            Err(ServiceError::InvalidRequest(_))
        ));
        // Head constants must agree with the answer.
        let qc = ConjunctiveQuery::parse("p('fixed') :- S(y)").unwrap();
        let bad = ExplainRequest::why_so(qc, vec![Value::str("other")]);
        assert!(matches!(
            svc.submit(bad),
            Err(ServiceError::InvalidRequest(_))
        ));
        // The pool is still alive and serving.
        let ok = svc
            .explain(ExplainRequest::why_so(q, vec![Value::str("a2")]))
            .unwrap();
        assert_eq!(ok.expect_explanation().causes.len(), 2);
    }

    #[test]
    fn many_concurrent_submitters_all_get_answers() {
        let svc = Arc::new(CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                workers: 4,
                queue_capacity: 8,
                batch_max: 4,
                ..ServiceConfig::default()
            },
        ));
        let answers = ["a2", "a3", "a4"];
        std::thread::scope(|scope| {
            for i in 0..8 {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for j in 0..10 {
                        let a = answers[(i + j) % answers.len()];
                        let resp = svc
                            .explain(ExplainRequest::why_so(query(), vec![Value::str(a)]))
                            .unwrap();
                        let explanation = resp.expect_explanation();
                        assert!(!explanation.causes.is_empty(), "answer {a}");
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.requests, 80);
        assert_eq!(stats.batched_requests, 80, "every request was served");
        assert_eq!(
            stats.cache_hits + stats.cache_misses + stats.coalesced,
            80,
            "every request is a hit, a fresh computation, or a rider"
        );
        assert!(stats.cache_misses >= 3, "three distinct keys computed");
        assert!(
            stats.cache_hits + stats.coalesced >= 80 - stats.cache_misses,
            "the rest were served without recomputation"
        );
        assert_eq!(stats.latency_samples(), 80, "one sample per response");
        assert_eq!(stats.queue_depth, 0, "nothing left enqueued");
    }

    #[test]
    fn cache_hits_survive_writes_to_unrelated_relations() {
        // The query reads R and S; T is unrelated write traffic.
        let mut db = example_2_2();
        let t = db.add_relation(Schema::new("T", &["z"]));
        db.insert_endo(t, tup![0]);
        let svc = CausalityService::new(db);
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);

        let cold = svc.explain(req.clone()).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.snapshot_version, 1);

        let version = svc.update(|db| {
            let t = db.relation_id("T").unwrap();
            db.insert_endo(t, tup![1]);
        });
        assert_eq!(version, 2);

        // New snapshot version — but R and S kept their content stamps,
        // so both cache layers stay warm.
        let warm = svc.explain(req).unwrap();
        assert_eq!(warm.snapshot_version, 2);
        assert!(warm.cache_hit, "unrelated write must not evict the answer");
        assert_eq!(cold.expect_explanation(), warm.expect_explanation());
        let stats = svc.stats();
        assert_eq!(
            stats.index_evictions, 0,
            "no touched relation left the window, nothing to evict"
        );
    }

    #[test]
    fn index_retention_evicts_only_stale_relation_versions() {
        let svc = CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                cached_versions: 2,
                ..ServiceConfig::default()
            },
        );
        let req = |a: &str| ExplainRequest::why_so(query(), vec![Value::str(a)]);
        svc.explain(req("a2")).unwrap();
        let baseline = svc.stats().index_entries;
        assert!(baseline > 0, "cold call built indexes");

        // Each round rewrites S, pushing its previous content stamp out
        // of the 2-version retention window; R is never touched.
        for i in 0..3 {
            svc.update(|db| {
                let s = db.relation_id("S").unwrap();
                db.insert_endo(s, tup![format!("b{i}")]);
            });
            svc.explain(req("a2")).unwrap();
        }
        let stats = svc.stats();
        assert!(stats.index_evictions > 0, "stale S indexes were evicted");
        assert!(
            stats.index_entries <= baseline + 2,
            "cache holds R's one live index plus at most the retained S versions, \
             got {} entries",
            stats.index_entries
        );
    }

    #[test]
    fn panicking_job_gets_an_error_and_the_pool_survives() {
        let svc = CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        svc.tier()
            .inject_fault(|req| req.answer == vec![Value::str("a3")]);
        let poisoned = svc
            .explain(ExplainRequest::why_so(query(), vec![Value::str("a3")]))
            .unwrap();
        match poisoned.result {
            Err(ServiceError::Panicked(msg)) => {
                assert!(msg.contains("fault injected"), "got: {msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Every worker still serves, including the one that caught the
        // panic (more requests than workers).
        svc.tier().clear_faults();
        for _ in 0..4 {
            let ok = svc
                .explain(ExplainRequest::why_so(query(), vec![Value::str("a2")]))
                .unwrap();
            assert!(ok.result.is_ok());
        }
        assert_eq!(svc.stats().panics_caught, 1);
    }

    #[test]
    fn panicked_results_are_not_cached() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        svc.tier().inject_fault(|_| true);
        assert!(matches!(
            svc.explain(req.clone()).unwrap().result,
            Err(ServiceError::Panicked(_))
        ));
        svc.tier().clear_faults();
        let healed = svc.explain(req).unwrap();
        assert!(healed.result.is_ok(), "the request recomputes cleanly");
        assert!(!healed.cache_hit, "the panicked attempt left no entry");
    }

    #[test]
    fn poisoned_caches_are_recovered_not_fatal() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        svc.explain(req.clone()).unwrap();
        // Poison resp_cache and live_snapshots by panicking mid-hold.
        let core = Arc::clone(&svc.tier.shards[0].core);
        let _ = std::thread::spawn(move || {
            let _cache = core.resp_cache.lock().unwrap();
            let _live = core.live_snapshots.lock().unwrap();
            panic!("poison the service mutexes");
        })
        .join();
        assert!(
            svc.tier.shards[0].core.resp_cache.lock().is_err(),
            "cache is poisoned"
        );
        // Serving continues: lock recovery hands back the intact state.
        let warm = svc.explain(req).unwrap();
        assert!(warm.result.is_ok());
        assert!(warm.cache_hit, "recovered cache still serves its entries");
    }

    #[test]
    fn rank_top_k_reports_pruning_stats() {
        // q :- A(x), B(y): A(1) is counterfactual; B(1), B(2) are ρ =
        // 1/2 and provably out of the top 1 once A(1) is computed.
        let mut db = Database::new();
        let a = db.add_relation(Schema::new("A", &["x"]));
        let b = db.add_relation(Schema::new("B", &["y"]));
        db.insert_endo(a, tup![1]);
        db.insert_endo(b, tup![1]);
        db.insert_endo(b, tup![2]);
        // rank_parallelism: 1 keeps the pruned count deterministic —
        // with concurrent solvers a B candidate can finish before A(1)
        // and legitimately escape the screen (tests/ covers the
        // parallel-served path; the output is identical either way).
        let svc = CausalityService::with_config(
            db,
            ServiceConfig {
                rank_parallelism: 1,
                ..ServiceConfig::default()
            },
        );
        let q = ConjunctiveQuery::parse("q :- A(x), B(y)").unwrap();
        let top1 = svc
            .explain(ExplainRequest::rank_top_k(q, Vec::<Value>::new(), 1))
            .unwrap()
            .expect_explanation();
        assert_eq!(top1.causes.len(), 1);
        assert_eq!(top1.causes[0].rho, 1.0);
        let stats = svc.stats();
        assert_eq!(stats.rank_tasks, 1);
        assert!(stats.topk_pruned >= 1, "stats: {stats:?}");
    }

    #[test]
    fn try_submit_and_pending_timeout() {
        let svc = CausalityService::new(example_2_2());
        let pending = svc
            .try_submit(ExplainRequest::why_so(query(), vec![Value::str("a3")]))
            .unwrap();
        let resp = pending
            .wait_timeout(std::time::Duration::from_secs(30))
            .unwrap();
        assert!(resp.result.is_ok());
    }

    #[test]
    fn expired_deadline_yields_an_error_not_a_computation() {
        let svc = CausalityService::with_config(
            example_2_2(),
            ServiceConfig {
                workers: 1,
                // One job per pull: the blocker is drained (and stalls
                // the sole worker) strictly before the doomed request is
                // even looked at, making the expiry deterministic.
                batch_max: 1,
                ..ServiceConfig::default()
            },
        );
        // Stall the worker on a blocker request so the deadlined request
        // sits in the queue past its budget.
        svc.tier().inject_delay(|req| {
            (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(120))
        });
        let blocker = svc
            .submit(ExplainRequest::why_so(query(), vec![Value::str("a2")]))
            .unwrap();
        let doomed = svc
            .submit_with_deadline(
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
                Duration::from_millis(10),
            )
            .unwrap();
        assert!(matches!(
            doomed.wait().unwrap().result,
            Err(ServiceError::DeadlineExceeded)
        ));
        assert!(blocker.wait().unwrap().result.is_ok());
        let stats = svc.stats();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(
            stats.cache_misses, 1,
            "the expired request never reached a computation"
        );
        // A generous budget is met.
        svc.tier().clear_faults();
        let fine = svc
            .submit_with_deadline(
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
                Duration::from_secs(30),
            )
            .unwrap();
        assert!(fine.wait().unwrap().result.is_ok());
    }

    #[test]
    fn snapshot_and_reset_separates_phases() {
        let svc = CausalityService::new(example_2_2());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        svc.explain(req.clone()).unwrap();
        let warmup = svc.snapshot_and_reset();
        assert_eq!(warmup.requests, 1);
        assert_eq!(warmup.cache_misses, 1);
        assert_eq!(warmup.latency_samples(), 1);

        // The measurement phase starts from zero — but the *caches* are
        // still warm: resetting counters must not cool the service.
        svc.explain(req).unwrap();
        let measured = svc.stats();
        assert_eq!(measured.requests, 1);
        assert_eq!(measured.cache_hits, 1, "cache survived the reset");
        assert_eq!(measured.cache_misses, 0);
        assert_eq!(measured.latency_samples(), 1);
    }
}

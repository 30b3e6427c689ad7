//! # causality-service — a concurrent explanation service
//!
//! The paper's central message is that the explanation workloads which
//! matter in practice are *cheap*: Why-So causes are PTIME for all
//! conjunctive queries (Theorem 3.2), Why-No responsibility is PTIME
//! outright (Theorem 4.17), and the dichotomy of Corollary 4.14 tells us
//! exactly when Why-So responsibility is too. Cheap enough, that is, to
//! serve interactively — the "explain this answer" workload sketched in
//! the companion paper *Why so? or Why no?* (arXiv:0912.5340).
//!
//! This crate turns the `causality` workspace from a single-threaded
//! library into that serving layer (std-only — no async runtime),
//! structured as a tier of three layers:
//!
//! * **front end** ([`ShardedService`]) — validates requests, stamps
//!   per-request deadline budgets, and applies bounded admission: a
//!   submit that finds its target shard's queue full is rejected with
//!   [`ServiceError::Overloaded`] instead of queueing, so tail latency
//!   stays flat when an open-loop client outruns the tier;
//! * **dispatch** ([`TenantId`], `dispatch` module) — routes each
//!   tenant, stably by name, to one of [`TierConfig::shards`] shards;
//! * **shards** (`shard` + `worker` modules) — each shard owns its
//!   tenants' snapshot stores, a worker pool pulling typed
//!   [`ExplainRequest`]s (Why-So, Why-No, rank-top-k) off one bounded
//!   queue with batch draining per pull, its own
//!   [`SharedIndexCache`](causality_engine::SharedIndexCache), and its
//!   own responsibility LRU — so one tenant's writes or traffic can
//!   never evict, queue behind, or crash another shard's tenants.
//!
//! One database served to one client is a one-tenant tier: one shard,
//! with [`BreakerConfig::disabled`] and [`SupervisorConfig::disabled`]
//! (see the example below).
//!
//! Mechanisms of the tier:
//! * snapshots — writers [`ShardedService::update`] a tenant's database
//!   into new immutable versions while readers keep evaluating
//!   against the snapshot they pinned (see
//!   [`causality_engine::snapshot`]). Snapshots are structurally shared:
//!   the database holds one `Arc` per relation, so publishing an update
//!   clones only the relations it touches — O(touched data), not
//!   O(database);
//! * index reuse — one
//!   [`SharedIndexCache`](causality_engine::SharedIndexCache) serves
//!   every snapshot version: its entries are keyed on per-relation
//!   content stamps (`(RelId, RelVersion, pattern)`), so the evaluator's
//!   hash indexes are built once per relation content — a write to one
//!   relation leaves every other relation's indexes warm;
//! * a responsibility cache — finished explanations are memoized in an
//!   LRU keyed on (the query's relations' content stamps, request), so a
//!   cached answer survives writes to relations the query never reads;
//!   duplicate in-batch requests are coalesced into one computation, and
//!   hit/miss/coalesce/eviction counters are exposed via
//!   [`ServiceStats`];
//! * parallel top-k ranking — [`ExplainKind::RankTopK`] requests run
//!   the parallel executor (`causality_core::ranking::parallel`):
//!   candidates screened by a cheap responsibility upper bound, solved
//!   on [`ServiceConfig::rank_parallelism`] scoped threads, pruned once
//!   they provably cannot enter the top k — bit-identical to the first
//!   k of the full ranking, with [`ServiceStats::rank_tasks`] /
//!   [`ServiceStats::topk_pruned`] accounting;
//! * failure isolation — every fresh computation, a worker's or a
//!   brownout one on the submitting thread, runs behind a
//!   `catch_unwind` boundary, so a panicking job resolves to
//!   [`ServiceError::Panicked`] instead of killing its thread (counted
//!   in [`ServiceStats::panics_caught`]); service mutexes recover from
//!   poisoning, and [`ShardedService::inject_fault`] /
//!   [`ShardedService::inject_delay`] let tests panic or stall chosen
//!   requests on purpose (one chaos hook per shard; the latest install
//!   wins);
//! * observability — [`ServiceStats`] carries request/cache/coalesce
//!   counters, admission rejects, deadline misses, a live queue-depth
//!   gauge, and a fixed-bucket submit→response latency histogram
//!   ([`ServiceStats::p50_us`]/[`ServiceStats::p99_us`]);
//!   `snapshot_and_reset` separates measurement phases without
//!   restarting the tier. Since PR 7 every counter lives in a per-shard
//!   [`causality_telemetry`] registry exported verbatim — full histogram
//!   buckets included — via
//!   [`ShardedService::export_metrics`] (Prometheus text);
//! * request tracing — sampled requests (rate set by
//!   [`TelemetryConfig::sample_rate`]) carry a span builder through
//!   admission → dispatch → shard queue → worker dequeue → snapshot pin
//!   → lineage/intern → kernel solve → respond, stamped with causal
//!   attributes (dichotomy class, minimized lineage size, ρ_max, cache
//!   hit/coalesce flags, deadline slack). Finished traces land in a
//!   bounded per-shard ring ([`ShardedService::recent_traces`] /
//!   [`ShardedService::export_traces`]), and requests crossing the
//!   configured latency or slack thresholds are duplicated into an
//!   explanation slow-log ([`ShardedService::slow_log_records`]);
//! * hardness-aware routing (PR 8) — workers classify each Why-So
//!   request with the dichotomy tag before solving: PTIME instances run
//!   the exact kernels exactly as before, while NP-hard instances that
//!   carry a deadline are routed to the anytime responsibility kernel
//!   (`causality_core::resp::approx`). The anytime path spends the
//!   remaining deadline slack refining certified `[lower, upper]`
//!   responsibility bounds and always returns an
//!   [`ExplainMode::Approximate`] answer with sound [`RhoBounds`] — a
//!   hard instance under a tight deadline degrades to a coarser bracket
//!   instead of a [`ServiceError::DeadlineExceeded`] error. An
//!   approximate answer is never cached as such, but its clock-free plan
//!   is: the question's
//!   [`AnytimePlan`](causality_core::explain::AnytimePlan) (lineage,
//!   causes and every budget-free bracket) sits in the responsibility
//!   LRU under the same (relation fingerprint, request) key as an exact
//!   answer, and beside it, so a repeat over unchanged relations runs
//!   only refinement and assembly. The plan also keeps the answer of
//!   its first refinement that collapsed every bracket, assembled, which
//!   is a function of the relations alone: a repeat whose deadline is
//!   still ahead gets that answer with its causes shared, with no
//!   refinement and no assembly, and an expired one (brownout) still
//!   gets the zero-budget bracket. The route is
//!   visible in telemetry
//!   ([`ServiceStats::approx_requests`],
//!   [`ServiceStats::approx_plan_hits`], the `bound_width_ppm`
//!   histogram, and the `approx_refine` trace stage);
//! * self-healing (PR 9) — a supervisor thread classifies each shard
//!   [`HealthState::Healthy`]/[`HealthState::Degraded`]/[`HealthState::Quarantined`]
//!   from live signals (panic streaks, queue stalls, deadline-miss
//!   rate), restarts a quarantined shard's worker pool **on the same
//!   queue** (loss-free by construction) and probes it back to healthy;
//!   [`ShardedService::explain`] follows the tier's [`RetryPolicy`]
//!   (one attempt by default), retrying transient failures
//!   ([`ServiceError::is_retryable`]) under seeded full-jitter backoff
//!   with optional tail-latency hedging, re-routing away from unhealthy
//!   shards; per-tenant circuit breakers ([`BreakerConfig`]) shed a
//!   tenant whose requests keep dying before they can occupy queues;
//!   and past a configurable high-water mark the tier *browns out*,
//!   computing routable NP-hard requests on the submitting thread with
//!   the certified zero-budget bracket instead of queueing them — the
//!   same panic-isolated computation a worker runs, chaos hook
//!   included, delivered as a worker's answer is (breaker, trace ring;
//!   the latency histogram the supervisor reads as worker progress
//!   counts worker answers only), while a caught panic counts against
//!   the tenant's breaker and comes back from the submit as
//!   [`ServiceError::Panicked`]. Deterministic chaos soaks drive all of
//!   it via seeded [`FaultPlan`]s ([`ShardedService::install_fault_plan`]).
//!
//! # Example
//!
//! ```
//! use causality_service::{
//!     BreakerConfig, ExplainRequest, ServiceConfig, ShardedService, SupervisorConfig, TierConfig,
//! };
//! use causality_engine::{database::example_2_2, ConjunctiveQuery, Value};
//!
//! let tier = ShardedService::new(TierConfig {
//!     shards: 1,
//!     breaker: BreakerConfig::disabled(),
//!     supervisor: SupervisorConfig::disabled(),
//!     shard: ServiceConfig { workers: 2, ..ServiceConfig::default() },
//!     ..TierConfig::default()
//! });
//! let tenant = tier.add_tenant("default", example_2_2()).unwrap();
//! let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
//!
//! // Cold: computed by a worker. Warm: served from the LRU cache.
//! let req = ExplainRequest::why_so(q, vec![Value::str("a2")]);
//! let cold = tier.explain(tenant, req.clone()).unwrap();
//! let warm = tier.explain(tenant, req).unwrap();
//! assert!(!cold.cache_hit && warm.cache_hit);
//! assert_eq!(cold.expect_explanation(), warm.expect_explanation());
//! assert_eq!(tier.stats().aggregate().cache_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod clock;
pub mod dispatch;
pub mod frontend;
pub mod lru;
pub mod request;
pub mod retry;
pub mod shard;
pub mod stats;
pub mod supervisor;
pub(crate) mod worker;

pub use breaker::{BreakerConfig, BreakerState};
pub use chaos::{FaultAction, FaultEvent, FaultKind, FaultPlan};
pub use clock::{Clock, ManualClock, SystemClock};
pub use dispatch::TenantId;
pub use frontend::{ShardedService, TierConfig, TierStats};
pub use lru::LruCache;
pub use request::{ExplainKind, ExplainRequest, ExplainResponse, PendingExplain, ServiceError};
pub use retry::{JitterRng, RetryPolicy};
pub use shard::ServiceConfig;
pub use stats::{FrontendStats, ServiceStats};
pub use supervisor::{HealthState, SupervisorConfig};

// The anytime-answer vocabulary (PR 8): NP-hard Why-So requests carrying a
// deadline are routed to the anytime kernel and come back with
// `ExplainMode::Approximate` and certified `RhoBounds` instead of timing out.
pub use causality_core::explain::ExplainMode;
pub use causality_core::resp::approx::{ApproxBudget, RhoBounds};

// The telemetry vocabulary a service embedder needs: the config knob on
// [`ServiceConfig`] plus the trace types the export APIs return.
pub use causality_telemetry::{RequestTrace, Stage, StageSpan, TelemetryConfig};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_send_sync() {
        assert_send_sync::<ShardedService>();
        assert_send_sync::<TenantId>();
        assert_send_sync::<ExplainRequest>();
        assert_send_sync::<ExplainResponse>();
        assert_send_sync::<ServiceStats>();
        assert_send_sync::<TierStats>();
    }
}

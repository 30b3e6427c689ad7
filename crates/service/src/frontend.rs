//! The front end of the sharded serving tier: bounded admission,
//! per-request deadline budgets, tenant-routed dispatch over N
//! independent [`shard`](crate::shard)s — and, since PR 9, the tier's
//! self-healing machinery (supervision, retries, circuit breakers, and
//! brownout degradation).
//!
//! ```text
//!        submit(tenant, request [, deadline budget])
//!                        │
//!              ┌─────────▼─────────┐
//!              │     front end     │  validate · breaker admit ·
//!              │                   │  brownout check · deadline stamp ·
//!              │                   │  admission (a full shard queue is
//!              │                   │  ServiceError::Overloaded)
//!              └─────────┬─────────┘
//!              ┌─────────▼─────────┐     ┌──────────────┐
//!              │     dispatch      │◀────│  supervisor  │ health ticks,
//!              └──┬───────┬───────┬┘     └──────────────┘ pool restarts
//!            ┌────▼──┐ ┌──▼────┐ ┌▼──────┐
//!            │shard 0│ │shard 1│ │shard N│   each: snapshot stores,
//!            │       │ │       │ │       │   worker pool, index cache,
//!            └───────┘ └───────┘ └───────┘   responsibility LRU, stats
//! ```
//!
//! Every shard is failure- and performance-isolated: a write burst, a
//! cache-evicting workload, or even a panicking job on one shard cannot
//! queue ahead of, evict, or crash another shard's traffic. The
//! supervisor closes the recovery loop on top of that isolation: a shard
//! whose workers wedge is quarantined, its pool restarted on the same
//! queue (loss-free by construction), and probed back to
//! [`HealthState::Healthy`]; retries and hedges route around it in the
//! meantime.

use crate::breaker::{Admit, BreakerConfig, BreakerRegistry};
use crate::chaos::{FaultAction, FaultPlan};
use crate::clock::{Clock, SystemClock};
use crate::dispatch::{Dispatcher, TenantId};
use crate::request::{ExplainRequest, ExplainResponse, PendingExplain, ServiceError};
use crate::retry::{backoff, JitterRng, RetryPolicy};
use crate::shard::{lock_unpoisoned, validate, ServiceConfig, Shard};
use crate::stats::{FrontendStats, ServiceStats, StatsCounters};
use crate::supervisor::{
    assess, HealthState, ShardSignals, ShardTracker, SupervisorConfig, Verdict,
};
use crate::worker::{anytime_routable, serve_expired, Job, Waiter};
use causality_engine::{Database, Snapshot, SnapshotStore};
use causality_telemetry::{
    prometheus_text, traces_jsonl, Counter, MetricsRegistry, RequestTrace, Stage,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the sharded tier.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Number of independent shards (min 1). Tenants are hashed onto
    /// shards by name; each shard runs its own worker pool of
    /// `shard.workers` threads, so total workers = `shards × shard.workers`.
    pub shards: usize,
    /// Per-shard queue bound. Each shard's queue holds the smaller of
    /// this and [`ServiceConfig::queue_capacity`] jobs; a submit finding
    /// it full is rejected with [`ServiceError::Overloaded`] instead of
    /// queueing — bounded admission keeps tail latency flat when an
    /// open-loop client outruns the tier.
    pub admission_limit: usize,
    /// Retry/backoff/hedging policy of [`ShardedService::explain`]. The
    /// default is one attempt without a hedge; [`ShardedService::submit`]
    /// never retries.
    pub retry: RetryPolicy,
    /// Per-tenant circuit breakers, shared across the tier's shards.
    /// [`BreakerConfig::disabled`] switches them off.
    pub breaker: BreakerConfig,
    /// Supervision-loop thresholds; `supervisor.tick == 0` disables the
    /// background health thread entirely.
    pub supervisor: SupervisorConfig,
    /// Tier-wide queued-request count at (or above) which the tier
    /// enters **brownout**: routable NP-hard requests are computed on
    /// the submitting thread, panic-isolated and answered like a
    /// worker's computation, with the zero-budget bracket instead of
    /// queueing — a certified (if coarse) answer, never
    /// [`ServiceError::Overloaded`].
    /// `usize::MAX` (the default) disables brownout.
    pub brownout_high_water: usize,
    /// Tier-wide queued-request count at (or below) which an active
    /// brownout ends. Must sit below `brownout_high_water`; the gap is
    /// the hysteresis band that keeps the mode from flapping.
    pub brownout_low_water: usize,
    /// Per-shard tuning (worker count, queue bound, batch size, caches).
    pub shard: ServiceConfig,
}

impl Default for TierConfig {
    fn default() -> Self {
        let shard = ServiceConfig::default();
        TierConfig {
            shards: 4,
            admission_limit: shard.queue_capacity,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            supervisor: SupervisorConfig::default(),
            brownout_high_water: usize::MAX,
            brownout_low_water: 0,
            shard,
        }
    }
}

/// Per-shard plus aggregate stats of a [`ShardedService`].
#[derive(Clone, Debug)]
pub struct TierStats {
    /// One [`ServiceStats`] per shard, indexed by shard number.
    pub shards: Vec<ServiceStats>,
    /// Tier-level resilience counters (retries, hedges, breaker and
    /// brownout activity) that live in the front end, not in any shard.
    pub frontend: FrontendStats,
}

impl TierStats {
    /// The tier-wide roll-up: counters, queue depths, and latency
    /// histograms summed across shards (so `p50_us`/`p99_us` on the
    /// result are tier-wide percentiles, not averages of per-shard ones).
    /// An empty shard list aggregates to the all-zero identity rather
    /// than panicking.
    pub fn aggregate(&self) -> ServiceStats {
        let mut total = ServiceStats::empty();
        for shard in &self.shards {
            total.merge(shard);
        }
        total
    }
}

/// The front end's own metric counters, registered in the tier-level
/// registry (shard registries hold per-shard serving metrics only).
struct FrontendCounters {
    retries: Arc<Counter>,
    hedges: Arc<Counter>,
    reroutes: Arc<Counter>,
    brownout_served: Arc<Counter>,
    brownout_us: Arc<Counter>,
}

impl FrontendCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        FrontendCounters {
            retries: registry.counter("frontend_retries_total"),
            hedges: registry.counter("frontend_hedges_total"),
            reroutes: registry.counter("frontend_reroutes_total"),
            brownout_served: registry.counter("brownout_served_total"),
            brownout_us: registry.counter("brownout_us_total"),
        }
    }
}

/// A multi-tenant, sharded, admission-controlled explanation service.
///
/// Tenants register a database each and are routed (stably, by name) to
/// one of N shards; each shard owns its snapshot stores, worker pool,
/// join-index cache, and responsibility LRU, so one tenant's write or
/// traffic burst never evicts another shard's warm state.
///
/// ```
/// use causality_service::{ExplainRequest, ShardedService, TierConfig};
/// use causality_engine::{database::example_2_2, ConjunctiveQuery, Value};
///
/// let tier = ShardedService::new(TierConfig::default());
/// let alice = tier.add_tenant("alice", example_2_2()).unwrap();
/// let q = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
/// let resp = tier
///     .explain(alice, ExplainRequest::why_so(q, vec![Value::str("a2")]))
///     .unwrap();
/// assert_eq!(resp.expect_explanation().causes.len(), 2);
/// ```
pub struct ShardedService {
    pub(crate) shards: Arc<Vec<Shard>>,
    dispatcher: Dispatcher,
    cfg: TierConfig,
    breakers: Arc<BreakerRegistry>,
    tier_registry: Arc<MetricsRegistry>,
    fe: FrontendCounters,
    brownout: AtomicBool,
    brownout_entered: Mutex<Option<Instant>>,
    supervisor: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl ShardedService {
    /// Start a tier with `cfg.shards` shards (each a full worker pool).
    pub fn new(cfg: TierConfig) -> Self {
        Self::with_clock(cfg, Arc::new(SystemClock))
    }

    /// [`ShardedService::new`] with an injected [`Clock`] driving the
    /// circuit breakers' open-window timing — the hook the transition
    /// tests use to step time manually instead of sleeping.
    pub fn with_clock(cfg: TierConfig, clock: Arc<dyn Clock>) -> Self {
        let shard_count = cfg.shards.max(1);
        let cfg = TierConfig {
            shards: shard_count,
            admission_limit: cfg.admission_limit.max(1),
            ..cfg
        };
        let tier_registry = Arc::new(MetricsRegistry::new());
        let breakers = Arc::new(BreakerRegistry::new(cfg.breaker, clock, &tier_registry));
        let shard_cfg = ServiceConfig {
            queue_capacity: cfg.shard.queue_capacity.min(cfg.admission_limit),
            ..cfg.shard
        };
        let shards: Arc<Vec<Shard>> = Arc::new(
            (0..shard_count)
                .map(|i| Shard::spawn(shard_cfg, &format!("shard{i}"), Arc::clone(&breakers)))
                .collect(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = (cfg.supervisor.tick > Duration::ZERO)
            .then(|| spawn_supervisor(Arc::clone(&shards), cfg.supervisor, Arc::clone(&stop)));
        ShardedService {
            shards,
            dispatcher: Dispatcher::new(shard_count),
            cfg,
            breakers,
            fe: FrontendCounters::new(&tier_registry),
            tier_registry,
            brownout: AtomicBool::new(false),
            brownout_entered: Mutex::new(None),
            supervisor,
            stop,
        }
    }

    /// Register a tenant and install its database on the shard its name
    /// routes to. Fails with [`ServiceError::InvalidRequest`] if the
    /// name is already registered.
    pub fn add_tenant(&self, name: &str, db: Database) -> Result<TenantId, ServiceError> {
        let id = self.dispatcher.register(name).ok_or_else(|| {
            ServiceError::InvalidRequest(format!("tenant {name:?} is already registered"))
        })?;
        self.shards[id.shard()].install_store(id.key(), Arc::new(SnapshotStore::new(db)));
        Ok(id)
    }

    /// Look up a registered tenant by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.dispatcher.lookup(name)
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.dispatcher.tenant_count()
    }

    /// Live health classification of shard `i` (as last written by the
    /// supervisor), or `None` for an out-of-range index.
    pub fn shard_health(&self, shard: usize) -> Option<HealthState> {
        self.shards.get(shard).map(|s| s.core.health.get())
    }

    /// Submit through admission control, with no deadline.
    ///
    /// Never blocks: with the shard's queue full, the request is
    /// rejected with [`ServiceError::Overloaded`] (and counted), which is
    /// the backpressure signal of an open-loop front end. No retries:
    /// transient rejects surface to the caller, who can use
    /// [`ServiceError::retry_after_hint`] or switch to
    /// [`ShardedService::explain`] with a [`RetryPolicy`].
    pub fn submit(
        &self,
        tenant: TenantId,
        request: ExplainRequest,
    ) -> Result<PendingExplain, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.submit_routed(tenant, request, None, tx, None)?;
        Ok(PendingExplain { rx })
    }

    /// Submit with an explicit per-request deadline budget: if the
    /// budget expires before a worker starts the job, it resolves to
    /// [`ServiceError::DeadlineExceeded`] instead of occupying a worker.
    pub fn submit_with_deadline(
        &self,
        tenant: TenantId,
        request: ExplainRequest,
        budget: Duration,
    ) -> Result<PendingExplain, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.submit_routed(tenant, request, Some(budget), tx, None)?;
        Ok(PendingExplain { rx })
    }

    /// The one submission path every entry point funnels through:
    /// validation, breaker admission, trace start (with a `retry` span
    /// when this is a backed-off retry), the waiter, and then either the
    /// brownout answer or the enqueue onto shard `tenant.shard()` (a
    /// retry or hedge passes a rerouted [`TenantId::on_shard`]).
    fn submit_routed(
        &self,
        tenant: TenantId,
        request: ExplainRequest,
        deadline: Option<Duration>,
        tx: mpsc::Sender<ExplainResponse>,
        retry_span: Option<(Instant, Duration)>,
    ) -> Result<(), ServiceError> {
        validate(&request)?;
        let shard = self
            .shards
            .get(tenant.shard())
            .ok_or_else(|| ServiceError::InvalidRequest("foreign tenant id".to_string()))?;
        // Per-tenant circuit breaker: an open breaker sheds the request
        // before it can touch a queue (and before tracing — like an
        // invalid request, it never reaches a shard).
        if let Admit::No(retry_after) = self.breakers.admit(tenant.key()) {
            return Err(ServiceError::CircuitOpen { retry_after });
        }
        // A retried submission's trace starts at the backoff wait so the
        // `retry` span (the wait itself) fits inside the trace window.
        let t0 = retry_span.map_or_else(Instant::now, |(start, _)| start);
        // The sampling decision (and the trace's Admission stage) belong
        // to the target shard; an invalid request never reaches one and
        // is never traced.
        let mut trace = shard.core.telemetry.start(t0);
        if let Some(tb) = trace.as_deref_mut() {
            tb.set_request(
                tenant.shard(),
                tenant.key(),
                request.kind.label(),
                request.query.atoms().len(),
            );
            if let Some((start, waited)) = retry_span {
                tb.record_span(Stage::Retry, start, waited);
            }
            tb.begin(Stage::Dispatch);
        }
        let enqueued = Instant::now();
        let deadline = deadline.map(|budget| enqueued + budget);
        if let (Some(tb), Some(deadline)) = (trace.as_deref_mut(), deadline) {
            tb.set_deadline(deadline);
        }
        let mut waiter = Waiter {
            tenant: tenant.key(),
            deadline,
            enqueued,
            tx,
            trace,
        };
        // Brownout: with the tier past its high-water mark, a routable
        // NP-hard request skips the backlogged queue and is answered here
        // with the certified zero-budget bracket; a failed computation
        // comes back from the submit.
        if self.brownout_active() && anytime_routable(&shard.core, &request) {
            let snapshot = self.store(tenant)?.current();
            serve_expired(&shard.core, &snapshot, &request, waiter)?;
            self.fe.brownout_served.inc();
            return Ok(());
        }
        if let Some(tb) = waiter.trace.as_deref_mut() {
            tb.begin(Stage::ShardQueue);
        }
        shard.enqueue(Job { request, waiter })
    }

    /// Update and read the brownout state from the tier-wide queued
    /// total, with hysteresis: enter at `high_water`, leave at
    /// `low_water`. Time spent in the mode accrues to the
    /// `brownout_us_total` counter on exit.
    fn brownout_active(&self) -> bool {
        // Brownout off (the default): skip the per-submit gauge sweep.
        if self.cfg.brownout_high_water == usize::MAX {
            return false;
        }
        let depth: u64 = self
            .shards
            .iter()
            .map(|shard| shard.core.stats.queue_depth.get())
            .sum();
        let active = self.brownout.load(Ordering::Relaxed);
        if active && depth as usize <= self.cfg.brownout_low_water {
            self.brownout.store(false, Ordering::Relaxed);
            if let Some(entered) = lock_unpoisoned(&self.brownout_entered).take() {
                self.fe
                    .brownout_us
                    .add(entered.elapsed().as_micros() as u64);
            }
            return false;
        }
        if !active && depth as usize >= self.cfg.brownout_high_water {
            self.brownout.store(true, Ordering::Relaxed);
            *lock_unpoisoned(&self.brownout_entered) = Some(Instant::now());
            return true;
        }
        active
    }

    /// Submit and wait, under the tier's [`RetryPolicy`]. The default
    /// policy makes one attempt. With more, transient failures
    /// ([`ServiceError::is_retryable`]) are retried up to `max_attempts`
    /// times under seeded full-jitter exponential backoff (an
    /// [`ServiceError::Overloaded`] hint floors the wait), and retries
    /// re-route away from unhealthy shards. When
    /// [`RetryPolicy::hedge_after`] is set, a response outstanding past
    /// that budget is hedged onto a healthy sibling shard, first answer
    /// wins. Terminal errors surface immediately, and a job dropped
    /// unanswered comes back as [`ServiceError::Disconnected`].
    pub fn explain(
        &self,
        tenant: TenantId,
        request: ExplainRequest,
    ) -> Result<ExplainResponse, ServiceError> {
        let policy = self.cfg.retry;
        let attempts = policy.max_attempts.max(1);
        // Deterministic per (seed, tenant): replaying the same traffic
        // replays the same backoff schedule.
        let mut rng = JitterRng::new(policy.jitter_seed ^ tenant.key().rotate_left(17));
        let mut retry_span: Option<(Instant, Duration)> = None;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.attempt(tenant, request.clone(), retry_span.take()) {
                Ok(response) => match &response.result {
                    Err(e) if e.is_retryable() && attempt < attempts => e.clone(),
                    _ => return Ok(response),
                },
                Err(e) if e.is_retryable() && attempt < attempts => e,
                Err(e) => return Err(e),
            };
            let wait_start = Instant::now();
            let wait = backoff(&policy, &mut rng, attempt, err.retry_after_hint());
            std::thread::sleep(wait);
            self.fe.retries.inc();
            retry_span = Some((wait_start, wait));
        }
    }

    /// One submit-and-wait attempt of [`ShardedService::explain`]: route
    /// (away from an unhealthy home on retries), submit, and wait —
    /// hedging onto a sibling if the response is slower than
    /// [`RetryPolicy::hedge_after`]. The wait holds no sender, so a job
    /// dropped unanswered disconnects it.
    fn attempt(
        &self,
        tenant: TenantId,
        request: ExplainRequest,
        retry_span: Option<(Instant, Duration)>,
    ) -> Result<ExplainResponse, ServiceError> {
        let home = tenant.shard();
        let mut target = home;
        if retry_span.is_some() && self.shard_health(home) != Some(HealthState::Healthy) {
            if let Some(fallback) = self.reroute_target(tenant, home) {
                target = fallback;
                self.fe.reroutes.inc();
            }
        }
        let (tx, rx) = mpsc::channel();
        let routed = tenant.on_shard(target);
        let Some(hedge_after) = self.cfg.retry.hedge_after else {
            self.submit_routed(routed, request, None, tx, retry_span)?;
            return rx.recv().map_err(|_| ServiceError::Disconnected);
        };
        self.submit_routed(routed, request.clone(), None, tx.clone(), retry_span)?;
        if let Ok(response) = rx.recv_timeout(hedge_after) {
            return Ok(response);
        }
        // Tail hedge: mirror the request onto a healthy sibling sharing
        // the same response channel; first answer wins, the loser's send
        // lands in a dropped receiver. Without a sibling the spare sender
        // is dropped before the wait.
        match self.reroute_target(tenant, target) {
            Some(sibling) => {
                if self
                    .submit_routed(tenant.on_shard(sibling), request, None, tx, None)
                    .is_ok()
                {
                    self.fe.hedges.inc();
                }
            }
            None => drop(tx),
        }
        rx.recv().map_err(|_| ServiceError::Disconnected)
    }

    /// Pick a healthy shard other than `avoid` for a retry or hedge of
    /// `tenant`'s traffic, installing the tenant's snapshot store there
    /// on first use. Sound across shards because both cache layers key
    /// on process-wide-unique relation content stamps (PR 3).
    fn reroute_target(&self, tenant: TenantId, avoid: usize) -> Option<usize> {
        let fallback = self.dispatcher.fallback_route(avoid, |candidate| {
            self.shards[candidate].core.health.get() == HealthState::Healthy
        })?;
        let store = self.shards[tenant.shard()].core.store(tenant.key())?;
        if self.shards[fallback].core.store(tenant.key()).is_none() {
            self.shards[fallback].install_store(tenant.key(), store);
        }
        Some(fallback)
    }

    /// Pin the tenant's current snapshot (for ad-hoc reads outside the
    /// pools).
    pub fn snapshot(&self, tenant: TenantId) -> Result<Snapshot, ServiceError> {
        Ok(self.store(tenant)?.current())
    }

    /// Copy-on-write update of the tenant's current snapshot; returns
    /// the new version. Only the touched relations are cloned, only the
    /// tenant's shard sees any cache movement, and in-flight requests
    /// keep their pinned older snapshots.
    pub fn update(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&mut Database),
    ) -> Result<u64, ServiceError> {
        Ok(self.store(tenant)?.update(f).version())
    }

    pub(crate) fn store(&self, tenant: TenantId) -> Result<Arc<SnapshotStore>, ServiceError> {
        self.shards
            .get(tenant.shard())
            .and_then(|shard| shard.core.store(tenant.key()))
            .ok_or_else(|| ServiceError::InvalidRequest("foreign tenant id".to_string()))
    }

    /// Install a chaos-testing fault on **every** shard: matched
    /// requests panic inside their worker, and each shard must contain
    /// the blast radius — the request resolves to
    /// [`ServiceError::Panicked`], the panic is counted in
    /// [`ServiceStats::panics_caught`], and every worker keeps serving.
    /// To take down a single shard, match on something only that
    /// shard's tenants send. Replaces any chaos hook installed before.
    pub fn inject_fault(&self, hook: impl Fn(&ExplainRequest) -> bool + Send + Sync + 'static) {
        self.arm(move |_, request, _| FaultAction {
            panic: hook(request),
            ..FaultAction::default()
        });
    }

    /// Install a chaos/load-testing stall on every shard: matched
    /// requests sleep for the returned duration before computing —
    /// simulating slow computations (to fill queues, expire deadlines,
    /// or exercise admission control) without burning CPU. Replaces any
    /// chaos hook installed before.
    pub fn inject_delay(
        &self,
        hook: impl Fn(&ExplainRequest) -> Option<Duration> + Send + Sync + 'static,
    ) {
        self.arm(move |_, request, _| FaultAction {
            stall: hook(request),
            ..FaultAction::default()
        });
    }

    /// Arm a seeded [`FaultPlan`]: each shard consults the plan with its
    /// own computation ordinal, so one generated schedule drives every
    /// worker-side fault (panics, stalls, lock poisoning) of a chaos
    /// soak deterministically. Replaces any chaos hook installed before;
    /// disarm via [`ShardedService::clear_faults`].
    pub fn install_fault_plan(&self, plan: &FaultPlan) {
        let plan = plan.clone();
        self.arm(move |shard, _, ordinal| plan.action_for(shard, ordinal));
    }

    /// Install `hook` as every shard's chaos hook, called with the
    /// shard's index, replacing the one before: a shard holds one hook
    /// at a time.
    fn arm(
        &self,
        hook: impl Fn(usize, &ExplainRequest, u64) -> FaultAction + Send + Sync + 'static,
    ) {
        let hook = Arc::new(hook);
        for (i, shard) in self.shards.iter().enumerate() {
            let hook = Arc::clone(&hook);
            *lock_unpoisoned(&shard.core.chaos) =
                Some(Arc::new(move |request, ordinal| hook(i, request, ordinal)));
            shard.core.chaos_armed.store(true, Ordering::Release);
        }
    }

    /// How many computations shard `i` has started while a chaos hook
    /// was armed — the ordinal clock a chaos harness reads to
    /// synchronize plan-external events (bursts, clock skew) with the
    /// plan's worker-side schedule.
    pub fn shard_progress(&self, shard: usize) -> u64 {
        self.shards
            .get(shard)
            .map(|s| s.core.ordinal.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Remove the chaos hook from every shard.
    pub fn clear_faults(&self) {
        for shard in self.shards.iter() {
            *lock_unpoisoned(&shard.core.chaos) = None;
            shard.core.chaos_armed.store(false, Ordering::Release);
        }
    }

    fn frontend_stats(&self) -> FrontendStats {
        // An in-progress brownout reports its live elapsed time without
        // consuming it (the counter is only advanced at mode exit).
        let live_brownout_us = lock_unpoisoned(&self.brownout_entered)
            .as_ref()
            .map(|entered| entered.elapsed().as_micros() as u64)
            .unwrap_or(0);
        FrontendStats {
            retries: self.fe.retries.get(),
            hedges: self.fe.hedges.get(),
            breaker_trips: self.breakers.trips(),
            breaker_rejects: self.breakers.rejects(),
            brownout_served: self.fe.brownout_served.get(),
            brownout_us: self.fe.brownout_us.get() + live_brownout_us,
            reroutes: self.fe.reroutes.get(),
        }
    }

    /// Point-in-time per-shard stats (aggregate via
    /// [`TierStats::aggregate`]) plus the front end's resilience
    /// counters.
    pub fn stats(&self) -> TierStats {
        self.collect_stats(StatsCounters::snapshot)
    }

    /// Like [`ShardedService::stats`], but zeroes every shard's monotone
    /// counters and latency histogram (queue-depth gauges stay live) —
    /// a phase separator between a warmup and the timed window after
    /// it. Front-end resilience counters and the lifecycle
    /// counters (`shard_restarts`, `shard_quarantines`) are reported but
    /// **not** reset: a phase boundary does not undo a restart.
    pub fn snapshot_and_reset(&self) -> TierStats {
        self.collect_stats(StatsCounters::snapshot_and_reset)
    }

    fn collect_stats(
        &self,
        read: fn(&StatsCounters, usize, u64, u64) -> ServiceStats,
    ) -> TierStats {
        TierStats {
            shards: self
                .shards
                .iter()
                .map(|shard| {
                    let core = &shard.core;
                    let index_entries = core.index_cache.len() as u64;
                    read(
                        &core.stats,
                        core.cfg.workers,
                        core.max_version(),
                        index_entries,
                    )
                })
                .collect(),
            frontend: self.frontend_stats(),
        }
    }

    /// Prometheus text exposition of every shard's metrics registry:
    /// one `# TYPE` line per metric, per-shard series labelled
    /// `shard="i"`, histograms with cumulative `_bucket` / `_sum` /
    /// `_count` series.
    pub fn export_metrics(&self) -> String {
        let registries: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.core.registry.as_ref())
            .collect();
        prometheus_text(&registries, "causality_")
    }

    /// Prometheus text exposition of the **tier-level** registry — the
    /// front end's retry/hedge/brownout counters and the shared circuit
    /// breakers — under the `causality_tier_` prefix (one series each;
    /// the `shard="0"` label is an artifact of the exporter's per-slice
    /// labelling).
    pub fn export_frontend_metrics(&self) -> String {
        prometheus_text(&[self.tier_registry.as_ref()], "causality_tier_")
    }

    /// The sampled traces currently retained across all shard rings,
    /// oldest-first within each shard. Non-draining: exporting twice
    /// returns the same traces.
    pub fn recent_traces(&self) -> Vec<RequestTrace> {
        self.shards
            .iter()
            .flat_map(|shard| shard.core.telemetry.traces())
            .collect()
    }

    /// [`ShardedService::recent_traces`] rendered as JSONL.
    pub fn export_traces(&self) -> String {
        traces_jsonl(&self.recent_traces())
    }

    /// The explanation slow-log across all shards: traces whose total
    /// latency or deadline slack crossed the configured thresholds.
    pub fn slow_log_records(&self) -> Vec<RequestTrace> {
        self.shards
            .iter()
            .flat_map(|shard| shard.core.telemetry.slow_log())
            .collect()
    }

    /// [`ShardedService::slow_log_records`] rendered as JSONL.
    pub fn export_slow_log(&self) -> String {
        traces_jsonl(&self.slow_log_records())
    }

    fn stop_supervisor(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }

    /// Stop the supervisor, stop accepting work, drain every shard's
    /// queue, and join all worker pools.
    pub fn shutdown(mut self) {
        self.stop_supervisor();
        for shard in self.shards.iter() {
            shard.shutdown();
        }
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        // Without this, a dropped-but-not-shut-down tier would leak its
        // supervisor thread (which holds the shards alive through its
        // `Arc`). Shard drops then drain and join the pools as usual.
        self.stop_supervisor();
    }
}

/// The supervision loop: every `cfg.tick`, sample each shard's live
/// signals, run the pure [`assess`] transition, and act on the verdict
/// (publish the new health state, or quarantine + restart the pool).
fn spawn_supervisor(
    shards: Arc<Vec<Shard>>,
    cfg: SupervisorConfig,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("tier-supervisor".to_string())
        .spawn(move || {
            let mut trackers = vec![ShardTracker::default(); shards.len()];
            let mut last_completed = vec![0u64; shards.len()];
            let mut last_misses = vec![0u64; shards.len()];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(cfg.tick);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                for (i, shard) in shards.iter().enumerate() {
                    let core = &shard.core;
                    let completed_total: u64 = core.stats.latency.counts(false).iter().sum();
                    let signals = ShardSignals {
                        consecutive_panics: core.consecutive_panics.load(Ordering::Relaxed),
                        queue_depth: core.stats.queue_depth.get(),
                        completed: tick_delta(&mut last_completed[i], completed_total),
                        deadline_misses: tick_delta(
                            &mut last_misses[i],
                            core.stats.deadline_misses.get(),
                        ),
                    };
                    let state = core.health.get();
                    match assess(state, signals, &mut trackers[i], &cfg) {
                        Verdict::Observe(next) => core.health.set(next),
                        Verdict::Restart => {
                            if state != HealthState::Quarantined {
                                core.stats.shard_quarantines.inc();
                            }
                            core.health.set(HealthState::Quarantined);
                            shard.restart_pool();
                            trackers[i].restarted = true;
                        }
                    }
                }
            }
        })
        .expect("spawn supervisor thread")
}

/// Delta of a monotone counter between supervisor ticks, tolerating the
/// counter being reset underneath us (`snapshot_and_reset` phase
/// boundaries): a total below the last observation restarts the baseline
/// and charges the post-reset total to this tick.
fn tick_delta(last: &mut u64, total: u64) -> u64 {
    let delta = total.checked_sub(*last).unwrap_or(total);
    *last = total;
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use crate::clock::ManualClock;
    use causality_core::explain::{AnytimePlan, ExplainMode, Explainer, Explanation};
    use causality_core::DichotomyTag;
    use causality_engine::database::example_2_2;
    use causality_engine::{tup, ConjunctiveQuery, Schema, Term, Value};
    use std::sync::atomic::AtomicBool;

    fn query() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
    }

    /// A one-tenant tier: one shard with breakers and the supervisor off,
    /// serving `db` as its only tenant.
    fn one_tenant(db: Database, shard: ServiceConfig) -> (ShardedService, TenantId) {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            breaker: BreakerConfig::disabled(),
            supervisor: SupervisorConfig::disabled(),
            shard,
            ..TierConfig::default()
        });
        let tenant = tier.add_tenant("default", db).unwrap();
        (tier, tenant)
    }

    fn small_tier() -> ShardedService {
        ShardedService::new(TierConfig {
            shards: 2,
            shard: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        })
    }

    #[test]
    fn tenants_are_isolated_by_content() {
        let tier = small_tier();
        let alice = tier.add_tenant("alice", example_2_2()).unwrap();
        // Bob's S(a1) is exogenous: same query, different answer set.
        let mut bobs = example_2_2();
        let s = bobs.relation_id("S").unwrap();
        let row = bobs.relation(s).find(&tup!["a1"]).unwrap();
        bobs.relation_mut(s).set_endogenous(row, false);
        let bob = tier.add_tenant("bob", bobs).unwrap();

        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let a = tier
            .explain(alice, req.clone())
            .unwrap()
            .expect_explanation();
        let b = tier.explain(bob, req).unwrap().expect_explanation();
        assert_eq!(a.causes.len(), 2);
        assert_eq!(b.causes.len(), 1, "bob's S(a1) cannot be a cause");
        tier.shutdown();
    }

    #[test]
    fn identical_requests_of_different_tenants_never_coalesce() {
        let tier = ShardedService::new(TierConfig {
            shards: 1, // force both tenants onto one shard
            ..TierConfig::default()
        });
        let a = tier.add_tenant("a", example_2_2()).unwrap();
        let b = tier.add_tenant("b", example_2_2()).unwrap();
        assert_eq!(a.shard(), b.shard());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        let ra = tier.explain(a, req.clone()).unwrap();
        let rb = tier.explain(b, req).unwrap();
        // Same query text, same answer — but different databases, so
        // the second must be a fresh computation, not a cache hit (the
        // content fingerprints differ because RelVersion stamps are
        // process-wide unique).
        assert!(!ra.cache_hit);
        assert!(!rb.cache_hit);
        assert_eq!(
            ra.expect_explanation(),
            rb.expect_explanation(),
            "identical content computes identical explanations"
        );
        let stats = tier.stats().aggregate();
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.coalesced, 0);
    }

    #[test]
    fn duplicate_tenant_names_are_rejected() {
        let tier = small_tier();
        tier.add_tenant("dup", example_2_2()).unwrap();
        assert!(matches!(
            tier.add_tenant("dup", example_2_2()),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert_eq!(tier.tenant_count(), 1);
        assert!(tier.tenant_id("dup").is_some());
        assert!(tier.tenant_id("other").is_none());
    }

    #[test]
    fn admission_rejects_past_queue_depth_limit() {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            admission_limit: 2,
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let t = tier.add_tenant("hot", example_2_2()).unwrap();
        // Stall every computation so submissions pile up in the queue.
        tier.inject_delay(|_| Some(Duration::from_millis(80)));
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        // Greatly overrun the limit; everything past depth 2 must be
        // rejected-with-Overloaded, not silently dropped or blocked.
        for _ in 0..32 {
            match tier.submit(t, req.clone()) {
                Ok(pending) => accepted.push(pending),
                Err(ServiceError::Overloaded { retry_after }) => {
                    assert!(retry_after >= Duration::from_millis(1), "usable hint");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected > 0, "open loop overran the limit");
        // Every accepted request still resolves.
        for pending in accepted {
            assert!(pending.wait().unwrap().result.is_ok());
        }
        let stats = tier.stats().aggregate();
        assert_eq!(stats.admission_rejects, rejected);
        assert_eq!(stats.queue_depth, 0, "queue fully drained");
        tier.shutdown();
    }

    #[test]
    fn writes_to_one_tenant_leave_the_other_shard_warm() {
        let tier = small_tier();
        // Find two tenant names on *different* shards.
        let mut names = (0..16).map(|i| format!("tenant-{i}"));
        let first = names.next().unwrap();
        let alice = tier.add_tenant(&first, example_2_2()).unwrap();
        let second = names
            .find(|n| Dispatcher::new(2).route(n) != alice.shard())
            .expect("some name routes elsewhere");
        let bob = tier.add_tenant(&second, example_2_2()).unwrap();
        assert_ne!(alice.shard(), bob.shard());

        // Warm bob's caches.
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        assert!(!tier.explain(bob, req.clone()).unwrap().cache_hit);
        assert!(tier.explain(bob, req.clone()).unwrap().cache_hit);

        // Hammer alice with writes.
        for i in 0..10 {
            tier.update(alice, |db| {
                let s = db.relation_id("S").unwrap();
                db.insert_endo(s, tup![format!("w{i}")]);
            })
            .unwrap();
        }
        // Bob's warm entry survived: different shard, different caches.
        let warm = tier.explain(bob, req).unwrap();
        assert!(warm.cache_hit, "alice's writes cannot cool bob's shard");
        let stats = tier.stats();
        assert_eq!(stats.shards[bob.shard()].index_evictions, 0);
    }

    #[test]
    fn tier_stats_aggregate_sums_shards() {
        let tier = small_tier();
        let a = tier.add_tenant("agg-a", example_2_2()).unwrap();
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        tier.explain(a, req.clone()).unwrap();
        tier.explain(a, req).unwrap();
        let stats = tier.stats();
        assert_eq!(stats.shards.len(), 2);
        let total = stats.aggregate();
        assert_eq!(total.requests, 2);
        assert_eq!(total.cache_hits, 1);
        assert_eq!(total.cache_misses, 1);
        assert_eq!(total.workers, 2, "1 worker per shard");
        assert!(total.p99_us() >= total.p50_us());
        // Reset separates phases tier-wide.
        let reset = tier.snapshot_and_reset();
        assert_eq!(reset.aggregate().requests, 2);
        assert_eq!(tier.stats().aggregate().requests, 0);
    }

    #[test]
    fn aggregate_of_no_shards_is_the_zero_identity() {
        let stats = TierStats {
            shards: Vec::new(),
            frontend: FrontendStats::default(),
        };
        let total = stats.aggregate();
        assert_eq!(total.requests, 0);
        assert_eq!(total.workers, 0);
        assert_eq!(total.p99_us(), 0);
    }

    #[test]
    fn aggregate_merges_two_nonempty_latency_histograms() {
        let mut a = ServiceStats::empty();
        let mut b = ServiceStats::empty();
        // Two samples on one shard, one on the other: the merged
        // histogram must preserve the total count, not average it away.
        a.latency_buckets[3] = 2;
        b.latency_buckets[7] = 1;
        let stats = TierStats {
            shards: vec![a, b],
            frontend: FrontendStats::default(),
        };
        let total = stats.aggregate();
        assert_eq!(total.latency_samples(), 3);
        assert_eq!(total.p50_us(), 8, "p50 comes from the two-sample bucket");
        assert_eq!(total.p99_us(), 128, "p99 reaches the other shard's bucket");
    }

    #[test]
    fn circuit_breaker_opens_sheds_then_recovers() {
        let clock = Arc::new(ManualClock::new());
        let tier = ShardedService::with_clock(
            TierConfig {
                shards: 1,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    open_for: Duration::from_millis(100),
                    half_open_probes: 1,
                },
                ..TierConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let t = tier.add_tenant("flaky", example_2_2()).unwrap();
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);

        // Two consecutive panics trip the tenant's breaker.
        tier.inject_fault(|_| true);
        for _ in 0..2 {
            let resp = tier.explain(t, req.clone()).unwrap();
            assert!(matches!(resp.result, Err(ServiceError::Panicked(_))));
        }
        let shed = tier.explain(t, req.clone());
        match shed {
            Err(ServiceError::CircuitOpen { retry_after }) => {
                assert!(retry_after <= Duration::from_millis(100));
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        let fe = tier.stats().frontend;
        assert_eq!(fe.breaker_trips, 1);
        assert_eq!(fe.breaker_rejects, 1);

        // Open window elapses → half-open probe succeeds → closed again.
        tier.clear_faults();
        clock.advance(Duration::from_millis(150));
        let probe = tier.explain(t, req.clone()).unwrap();
        assert!(probe.result.is_ok(), "half-open probe admitted and served");
        // The probe's success closes the breaker (half_open_probes = 1);
        // wait for the worker's outcome recording via the response above.
        assert_eq!(tier.breakers.state_of(t.key()), BreakerState::Closed);
        assert!(tier.explain(t, req).unwrap().result.is_ok());
        tier.shutdown();
    }

    #[test]
    fn explain_with_retry_survives_a_transient_panic() {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                ..RetryPolicy::default()
            },
            shard: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let t = tier.add_tenant("retry-me", example_2_2()).unwrap();
        // Panic exactly once: the first computation dies, the retry lands.
        let armed = Arc::new(AtomicBool::new(true));
        let hook_armed = Arc::clone(&armed);
        tier.inject_fault(move |_| hook_armed.swap(false, Ordering::Relaxed));
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let resp = tier.explain(t, req).unwrap();
        assert!(resp.result.is_ok(), "retry recovered the answer");
        let fe = tier.stats().frontend;
        assert_eq!(fe.retries, 1, "exactly one backoff-retry");
        tier.shutdown();
    }

    #[test]
    fn single_shot_explain_never_retries() {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            ..TierConfig::default()
        });
        let t = tier.add_tenant("one-shot", example_2_2()).unwrap();
        tier.inject_fault(|_| true);
        let resp = tier
            .explain(t, ExplainRequest::why_so(query(), vec![Value::str("a2")]))
            .unwrap();
        assert!(matches!(resp.result, Err(ServiceError::Panicked(_))));
        assert_eq!(tier.stats().frontend.retries, 0);
        tier.shutdown();
    }

    /// A job dropped unanswered resolves `explain` to `Disconnected`,
    /// with and without a hedge: while it waits, `explain` holds no
    /// sender of its own. On one shard a hedge has no sibling to go to.
    #[test]
    fn explain_never_waits_on_its_own_sender() {
        for hedge_after in [None, Some(Duration::from_millis(5))] {
            let tier = Arc::new(ShardedService::new(TierConfig {
                shards: 1,
                retry: RetryPolicy {
                    max_attempts: 2,
                    hedge_after,
                    ..RetryPolicy::default()
                },
                breaker: BreakerConfig::disabled(),
                supervisor: SupervisorConfig::disabled(),
                shard: ServiceConfig {
                    workers: 1,
                    batch_max: 1,
                    ..ServiceConfig::default()
                },
                ..TierConfig::default()
            }));
            let t = tier.add_tenant("t", example_2_2()).unwrap();
            let req = |a: &str| ExplainRequest::why_so(query(), vec![Value::str(a)]);
            // The only worker stalls inside the hook until released.
            let released = Arc::new(AtomicBool::new(false));
            let hold = Arc::clone(&released);
            tier.inject_fault(move |_| {
                while !hold.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                false
            });
            let blocker = tier.submit(t, req("a2")).unwrap();
            while tier.shard_progress(0) < 1 {
                std::thread::yield_now();
            }
            let (done_tx, done_rx) = mpsc::channel();
            let caller = Arc::clone(&tier);
            let waiting = std::thread::spawn(move || {
                let _ = done_tx.send(caller.explain(t, req("a3")));
            });
            // Take the accepted request off the queue and drop it.
            let job = lock_unpoisoned(tier.shards[0].receiver())
                .recv_timeout(Duration::from_secs(10))
                .expect("the second request was queued");
            drop(job);
            let outcome = done_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("explain still waits (hedge {hedge_after:?})"));
            assert!(
                matches!(outcome, Err(ServiceError::Disconnected)),
                "hedge {hedge_after:?}: {outcome:?}"
            );
            waiting.join().unwrap();
            released.store(true, Ordering::Release);
            assert!(blocker.wait().unwrap().result.is_ok());
        }
    }

    fn one_worker_tier(cache_capacity: usize) -> (ShardedService, TenantId) {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            shard: ServiceConfig {
                workers: 1,
                cache_capacity,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let t = tier.add_tenant("chaos", example_2_2()).unwrap();
        (tier, t)
    }

    #[test]
    fn the_latest_chaos_hook_replaces_the_one_before() {
        let (tier, t) = one_worker_tier(1024);
        tier.inject_fault(|_| true);
        tier.inject_delay(|_| None);
        let resp = tier
            .explain(t, ExplainRequest::why_so(query(), vec![Value::str("a2")]))
            .unwrap();
        assert!(
            resp.result.is_ok(),
            "the delay hook replaced the fault hook"
        );
        tier.shutdown();
    }

    #[test]
    fn the_ordinal_advances_per_computation_only_while_a_hook_is_armed() {
        // One cache slot and alternating answers: every request is a
        // fresh computation.
        let (tier, t) = one_worker_tier(1);
        let mut answers = ["a2", "a3"].into_iter().cycle();
        let mut compute = || {
            let answer = Value::str(answers.next().unwrap());
            let resp = tier
                .explain(t, ExplainRequest::why_so(query(), vec![answer]))
                .unwrap();
            assert!(!resp.cache_hit);
        };
        compute();
        assert_eq!(tier.shard_progress(0), 0, "no hook armed yet");
        tier.install_fault_plan(&FaultPlan {
            seed: 0,
            events: Vec::new(),
        });
        for expected in 1..=3 {
            compute();
            assert_eq!(tier.shard_progress(0), expected);
        }
        tier.inject_delay(|_| None);
        compute();
        assert_eq!(tier.shard_progress(0), 4, "any armed hook draws");
        tier.clear_faults();
        compute();
        compute();
        assert_eq!(tier.shard_progress(0), 4, "cleared: the ordinal stands");
        tier.shutdown();
    }

    #[test]
    fn a_panicking_hook_costs_one_response_not_the_worker() {
        let (tier, t) = one_worker_tier(1024);
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        tier.inject_fault(|_| panic!("the hook itself panicked"));
        match tier.explain(t, req.clone()).unwrap().result {
            Err(ServiceError::Panicked(msg)) => {
                assert!(msg.contains("the hook itself panicked"), "got: {msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        tier.clear_faults();
        let healed = tier.explain(t, req).unwrap();
        assert!(healed.result.is_ok(), "the sole worker still serves");
        assert_eq!(tier.stats().aggregate().panics_caught, 1);
        tier.shutdown();
    }

    #[test]
    fn shard_health_is_visible_and_starts_healthy() {
        let tier = small_tier();
        assert_eq!(tier.shard_health(0), Some(HealthState::Healthy));
        assert_eq!(tier.shard_health(1), Some(HealthState::Healthy));
        assert_eq!(tier.shard_health(2), None);
        tier.shutdown();
    }

    #[test]
    fn frontend_metrics_export_under_tier_prefix() {
        let tier = small_tier();
        let text = tier.export_frontend_metrics();
        assert!(text.contains("causality_tier_frontend_retries_total"));
        assert!(text.contains("causality_tier_breaker_trips_total"));
        assert!(text.contains("causality_tier_brownout_served_total"));
        tier.shutdown();
    }

    #[test]
    fn service_matches_direct_explainer() {
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let q = query();
        let resp = tier
            .explain(t, ExplainRequest::why_so(q.clone(), vec![Value::str("a4")]))
            .unwrap();
        assert_eq!(resp.snapshot_version, 1);
        assert!(!resp.cache_hit);
        let served = resp.expect_explanation();

        let db = example_2_2();
        let direct = Explainer::new(&db, &q).why(&[Value::str("a4")]).unwrap();
        assert_eq!(served, direct, "service output is bit-identical");
        tier.shutdown();
    }

    #[test]
    fn responsibility_cache_hits_are_identical() {
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        let cold = tier.explain(t, req.clone()).unwrap();
        let warm = tier.explain(t, req.clone()).unwrap();
        let again = tier.explain(t, req).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit && again.cache_hit);
        let cold = cold.expect_explanation();
        let (warm, again) = (warm.expect_explanation(), again.expect_explanation());
        assert_eq!(cold, warm, "cache hit is bit-identical to the cold answer");
        assert_eq!(cold, again);
        // A hit shares the cold answer's causes instead of copying them.
        assert!(!cold.causes.is_empty());
        assert!(std::ptr::eq(cold.causes.as_ptr(), warm.causes.as_ptr()));
        assert!(std::ptr::eq(cold.causes.as_ptr(), again.causes.as_ptr()));
        let stats = tier.stats().aggregate();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            stats.latency_samples(),
            3,
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
        let (tier, t) = one_tenant(db, ServiceConfig::default());
        let q = query();

        let whyno = tier
            .explain(t, ExplainRequest::why_no(q.clone(), vec![Value::int(1)]))
            .unwrap()
            .expect_explanation();
        assert_eq!(whyno.causes.len(), 1);
        assert_eq!(whyno.causes[0].rho, 1.0);

        let (tier2, t2) = one_tenant(example_2_2(), ServiceConfig::default());
        let top1 = tier2
            .explain(t2, ExplainRequest::rank_top_k(q, vec![Value::str("a4")], 1))
            .unwrap()
            .expect_explanation();
        assert_eq!(top1.causes.len(), 1, "truncated to k");
    }

    #[test]
    fn publish_serves_new_version_and_keys_cache_by_version() {
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let v1 = tier.explain(t, req.clone()).unwrap();
        assert_eq!(v1.snapshot_version, 1);

        // Remove S(a1): answer a2 loses its only witness.
        let version = tier
            .update(t, |db| {
                let s = db.relation_id("S").unwrap();
                let row = db.relation(s).find(&tup!["a1"]).unwrap();
                db.relation_mut(s).set_endogenous(row, false);
            })
            .unwrap();
        assert_eq!(version, 2);

        let v2 = tier.explain(t, req).unwrap();
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
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let q = query();
        let bad = ExplainRequest::why_so(q.clone(), Vec::<Value>::new());
        assert!(matches!(
            tier.submit(t, bad),
            Err(ServiceError::InvalidRequest(_))
        ));
        // Head constants must agree with the answer.
        let qc = ConjunctiveQuery::parse("p('fixed') :- S(y)").unwrap();
        let bad = ExplainRequest::why_so(qc, vec![Value::str("other")]);
        assert!(matches!(
            tier.submit(t, bad),
            Err(ServiceError::InvalidRequest(_))
        ));
        // The pool is still alive and serving.
        let ok = tier
            .explain(t, ExplainRequest::why_so(q, vec![Value::str("a2")]))
            .unwrap();
        assert_eq!(ok.expect_explanation().causes.len(), 2);
    }

    #[test]
    fn many_concurrent_submitters_all_get_answers() {
        let (tier, t) = one_tenant(
            example_2_2(),
            ServiceConfig {
                workers: 4,
                queue_capacity: 8,
                batch_max: 4,
                ..ServiceConfig::default()
            },
        );
        let answers = ["a2", "a3", "a4"];
        std::thread::scope(|scope| {
            for i in 0..8 {
                let tier = &tier;
                scope.spawn(move || {
                    for j in 0..10 {
                        let a = answers[(i + j) % answers.len()];
                        let resp = tier
                            .explain(t, ExplainRequest::why_so(query(), vec![Value::str(a)]))
                            .unwrap();
                        let explanation = resp.expect_explanation();
                        assert!(!explanation.causes.is_empty(), "answer {a}");
                    }
                });
            }
        });
        let stats = tier.stats().aggregate();
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
        let t_rel = db.add_relation(Schema::new("T", &["z"]));
        db.insert_endo(t_rel, tup![0]);
        let (tier, t) = one_tenant(db, ServiceConfig::default());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);

        let cold = tier.explain(t, req.clone()).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.snapshot_version, 1);

        let version = tier
            .update(t, |db| {
                let t = db.relation_id("T").unwrap();
                db.insert_endo(t, tup![1]);
            })
            .unwrap();
        assert_eq!(version, 2);

        // New snapshot version — but R and S kept their content stamps,
        // so both cache layers stay warm.
        let warm = tier.explain(t, req).unwrap();
        assert_eq!(warm.snapshot_version, 2);
        assert!(warm.cache_hit, "unrelated write must not evict the answer");
        assert_eq!(cold.expect_explanation(), warm.expect_explanation());
        let stats = tier.stats().aggregate();
        assert_eq!(
            stats.index_evictions, 0,
            "no touched relation left the window, nothing to evict"
        );
    }

    #[test]
    fn index_retention_evicts_only_stale_relation_versions() {
        let (tier, t) = one_tenant(
            example_2_2(),
            ServiceConfig {
                cached_versions: 2,
                ..ServiceConfig::default()
            },
        );
        let req = |a: &str| ExplainRequest::why_so(query(), vec![Value::str(a)]);
        tier.explain(t, req("a2")).unwrap();
        let baseline = tier.stats().aggregate().index_entries;
        assert!(baseline > 0, "cold call built indexes");

        // Each round rewrites S, pushing its previous content stamp out
        // of the 2-version retention window; R is never touched.
        for i in 0..3 {
            tier.update(t, |db| {
                let s = db.relation_id("S").unwrap();
                db.insert_endo(s, tup![format!("b{i}")]);
            })
            .unwrap();
            tier.explain(t, req("a2")).unwrap();
        }
        let stats = tier.stats().aggregate();
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
        let (tier, t) = one_tenant(
            example_2_2(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        tier.inject_fault(|req| req.answer == vec![Value::str("a3")]);
        let poisoned = tier
            .explain(t, ExplainRequest::why_so(query(), vec![Value::str("a3")]))
            .unwrap();
        match poisoned.result {
            Err(ServiceError::Panicked(msg)) => {
                assert!(msg.contains("fault injected"), "got: {msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Every worker still serves, including the one that caught the
        // panic (more requests than workers).
        tier.clear_faults();
        for _ in 0..4 {
            let ok = tier
                .explain(t, ExplainRequest::why_so(query(), vec![Value::str("a2")]))
                .unwrap();
            assert!(ok.result.is_ok());
        }
        assert_eq!(tier.stats().aggregate().panics_caught, 1);
    }

    #[test]
    fn panicked_results_are_not_cached() {
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        tier.inject_fault(|_| true);
        assert!(matches!(
            tier.explain(t, req.clone()).unwrap().result,
            Err(ServiceError::Panicked(_))
        ));
        tier.clear_faults();
        let healed = tier.explain(t, req).unwrap();
        assert!(healed.result.is_ok(), "the request recomputes cleanly");
        assert!(!healed.cache_hit, "the panicked attempt left no entry");
    }

    #[test]
    fn poisoned_caches_are_recovered_not_fatal() {
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        tier.explain(t, req.clone()).unwrap();
        // Poison resp_cache and live_snapshots by panicking mid-hold.
        let core = Arc::clone(&tier.shards[0].core);
        let _ = std::thread::spawn(move || {
            let _cache = core.resp_cache.lock().unwrap();
            let _live = core.live_snapshots.lock().unwrap();
            panic!("poison the service mutexes");
        })
        .join();
        assert!(
            tier.shards[0].core.resp_cache.lock().is_err(),
            "cache is poisoned"
        );
        // Serving continues: lock recovery hands back the intact state.
        let warm = tier.explain(t, req).unwrap();
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
        let (tier, t) = one_tenant(
            db,
            ServiceConfig {
                rank_parallelism: 1,
                ..ServiceConfig::default()
            },
        );
        let q = ConjunctiveQuery::parse("q :- A(x), B(y)").unwrap();
        let top1 = tier
            .explain(t, ExplainRequest::rank_top_k(q, Vec::<Value>::new(), 1))
            .unwrap()
            .expect_explanation();
        assert_eq!(top1.causes.len(), 1);
        assert_eq!(top1.causes[0].rho, 1.0);
        let stats = tier.stats().aggregate();
        assert_eq!(stats.rank_tasks, 1);
        assert!(stats.topk_pruned >= 1, "stats: {stats:?}");
    }

    #[test]
    fn submit_and_pending_timeout() {
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let pending = tier
            .submit(t, ExplainRequest::why_so(query(), vec![Value::str("a3")]))
            .unwrap();
        let resp = pending.wait_timeout(Duration::from_secs(30)).unwrap();
        assert!(resp.result.is_ok());
    }

    #[test]
    fn expired_deadline_yields_an_error_not_a_computation() {
        let (tier, t) = one_tenant(
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
        tier.inject_delay(|req| {
            (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(120))
        });
        let blocker = tier
            .submit(t, ExplainRequest::why_so(query(), vec![Value::str("a2")]))
            .unwrap();
        let doomed = tier
            .submit_with_deadline(
                t,
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
                Duration::from_millis(10),
            )
            .unwrap();
        assert!(matches!(
            doomed.wait().unwrap().result,
            Err(ServiceError::DeadlineExceeded)
        ));
        assert!(blocker.wait().unwrap().result.is_ok());
        let stats = tier.stats().aggregate();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(
            stats.cache_misses, 1,
            "the expired request never reached a computation"
        );
        // A generous budget is met.
        tier.clear_faults();
        let fine = tier
            .submit_with_deadline(
                t,
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
                Duration::from_secs(30),
            )
            .unwrap();
        assert!(fine.wait().unwrap().result.is_ok());
    }

    #[test]
    fn snapshot_and_reset_separates_phases() {
        let (tier, t) = one_tenant(example_2_2(), ServiceConfig::default());
        let req = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        tier.explain(t, req.clone()).unwrap();
        let warmup = tier.snapshot_and_reset().aggregate();
        assert_eq!(warmup.requests, 1);
        assert_eq!(warmup.cache_misses, 1);
        assert_eq!(warmup.latency_samples(), 1);

        // The measurement phase starts from zero — but the *caches* are
        // still warm: resetting counters must not cool the service.
        tier.explain(t, req).unwrap();
        let measured = tier.stats().aggregate();
        assert_eq!(measured.requests, 1);
        assert_eq!(measured.cache_hits, 1, "cache survived the reset");
        assert_eq!(measured.cache_misses, 0);
        assert_eq!(measured.latency_samples(), 1);
    }

    /// A seeded LCG draw in `0..bound`.
    fn draw(state: &mut u64, bound: u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 33) % bound
    }

    /// A random conjunctive query over `R/2`, `S/2`, `T/2`, `U/1` (self-
    /// joins, constants and marks included), or `None` when the drawn
    /// text does not parse.
    fn random_query(state: &mut u64) -> Option<ConjunctiveQuery> {
        const RELS: [(&str, usize); 4] = [("R", 2), ("S", 2), ("T", 2), ("U", 1)];
        const MARKS: [&str; 3] = ["", "^n", "^x"];
        let term = |state: &mut u64| match draw(state, 6) {
            0 => "1".to_string(),
            v => ["x", "y", "z", "w", "x"][v as usize - 1].to_string(),
        };
        let mut atoms = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        for _ in 0..1 + draw(state, 3) {
            let (rel, arity) = RELS[draw(state, 4) as usize];
            let terms: Vec<String> = (0..arity).map(|_| term(state)).collect();
            vars.extend(terms.iter().filter(|t| *t != "1").cloned());
            let mark = MARKS[draw(state, 3) as usize];
            atoms.push(format!("{rel}{mark}({})", terms.join(", ")));
        }
        vars.sort();
        vars.dedup();
        let mut head: Vec<String> = vars.into_iter().filter(|_| draw(state, 2) == 0).collect();
        if draw(state, 5) == 0 {
            head.push("7".to_string());
        }
        ConjunctiveQuery::parse(&format!("q({}) :- {}", head.join(", "), atoms.join(", "))).ok()
    }

    /// For random queries and answers, the shard's memoized tag is the
    /// classifier's verdict on the request's own grounding; a failed
    /// grounding gets no tag and leaves no entry.
    #[test]
    fn memoized_tags_equal_the_classifier_on_every_grounding() {
        let (tier, _) = one_tenant(example_2_2(), ServiceConfig::default());
        let core = &tier.shards[0].core;
        let mut state = 0x5EED_u64;
        // The hard shapes, with and without head variables, next to
        // random draws (which are mostly PTIME or open self-joins).
        let mut queries: Vec<ConjunctiveQuery> = [
            "q :- R(x, y), S(y, z), T(z, x)",
            "q(x) :- R(x, y), S(y, z), T(z, x)",
            "q(w) :- R(x, y), S(y, z), T(z, x), U(w)",
            "q :- U(x), S(x, y), U(y)",
            "q(x) :- U(x), S(x, y), U(y)",
            "q(7, y) :- U^n(x), S^x(x, y), U^n(y)",
        ]
        .iter()
        .map(|text| ConjunctiveQuery::parse(text).unwrap())
        .collect();
        while queries.len() < 60 {
            queries.extend(random_query(&mut state));
        }
        let (mut memoized, mut refused) = (0, 0);
        let mut tags = std::collections::HashSet::new();
        for round in 0..400 {
            let q = &queries[draw(&mut state, queries.len() as u64) as usize];
            // Mostly well-formed answers; sometimes one value short, or
            // one that contradicts a head constant.
            let arity = match draw(&mut state, 8) {
                0 => q.head().len() + 1,
                _ => q.head().len(),
            };
            let answer: Vec<Value> = (0..arity)
                .map(|i| match q.head().get(i) {
                    Some(Term::Const(c)) if draw(&mut state, 4) != 0 => c.clone(),
                    _ => Value::int(draw(&mut state, 3) as i64),
                })
                .collect();
            let expected = q
                .try_ground(&answer)
                .ok()
                .map(|g| DichotomyTag::of_why_so(&g));
            let entries = lock_unpoisoned(&core.tags).len();
            let request = ExplainRequest::why_so(q.clone(), answer.clone());
            assert_eq!(
                core.dichotomy(&request),
                expected,
                "round {round}: {q} / {answer:?}"
            );
            match expected {
                Some(tag) => {
                    memoized += 1;
                    tags.insert(tag);
                }
                None => {
                    refused += 1;
                    assert_eq!(lock_unpoisoned(&core.tags).len(), entries, "{q}");
                }
            }
        }
        assert!(
            memoized > 100 && refused > 10,
            "{memoized} memoized, {refused} refused"
        );
        assert!(tags.len() >= 4, "the draws reach most verdicts: {tags:?}");
    }

    /// One LRU slot keeps a question's exact answer and its anytime plan
    /// side by side, whichever arrives first, and a newer entry of either
    /// kind replaces only its own kind. So a plan brownout builds beside
    /// an exact answer stays there, and an exact answer keeps the plan.
    #[test]
    fn a_memo_slot_keeps_an_exact_answer_and_a_plan_side_by_side() {
        let (tier, tenant) = one_tenant(example_2_2(), ServiceConfig::default());
        let core = &tier.shards[0].core;
        let snapshot = tier.snapshot(tenant).unwrap();
        let request = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        let key = crate::shard::memo_key(&snapshot, &request).unwrap();
        let explainer = Explainer::new(snapshot.database(), &request.query);
        let plan = || Arc::new(explainer.plan_anytime(&request.answer).unwrap().0);
        let holds = |exact: &Explanation, plan: &Arc<AnytimePlan>| {
            let memo = core.memo(&key).expect("a memoized slot");
            assert_eq!(memo.exact.as_ref(), Some(exact));
            assert!(memo.plan.is_some_and(|memo| Arc::ptr_eq(&memo, plan)));
            assert!(Arc::ptr_eq(&core.memo(&key).unwrap().plan.unwrap(), plan));
        };

        let exact = explainer.why(&request.answer).unwrap();
        core.memoize(key.clone(), exact.clone().into());
        let first = plan();
        core.memoize(key.clone(), Arc::clone(&first).into());
        holds(&exact, &first);
        let second = plan();
        core.memoize(key.clone(), Arc::clone(&second).into());
        holds(&exact, &second);
        let other = explainer.why(&[Value::str("a3")]).unwrap();
        assert_ne!(other, exact);
        core.memoize(key.clone(), other.clone().into());
        holds(&other, &second);
        tier.shutdown();
    }

    /// The index cache's periodic sweep runs once per 64th batch, not once
    /// per group of it, and a window that did not move sweeps nothing,
    /// whatever the batch counter reads (brownout registers its snapshot
    /// outside any batch).
    #[test]
    fn the_periodic_index_sweep_runs_once_per_batch() {
        let (tier, t) = one_tenant(
            example_2_2(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let core = &tier.shards[0].core;
        let sweeps = || core.sweeps.load(Ordering::Relaxed);
        let req = |a: &str| ExplainRequest::why_so(query(), vec![Value::str(a)]);
        // Registering the tenant's snapshot moves its window: one sweep.
        assert!(tier.explain(t, req("a2")).unwrap().result.is_ok());
        assert_eq!(sweeps(), 1);

        // The only worker stalls inside the hook until released, so the
        // three questions queued meanwhile make one batch.
        let released = Arc::new(AtomicBool::new(false));
        let hold = Arc::clone(&released);
        tier.inject_fault(move |_| {
            while !hold.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            false
        });
        let blocker = tier.submit(t, req("a1")).unwrap();
        while tier.shard_progress(0) < 1 {
            std::thread::yield_now();
        }
        let batch: Vec<_> = ["a2", "a3", "a4"]
            .into_iter()
            .map(|a| tier.submit(t, req(a)).unwrap())
            .collect();
        // The next batch is the 64th.
        core.stats.batches.add(63 - core.stats.batches.get());
        released.store(true, Ordering::Release);
        assert!(blocker.wait().unwrap().result.is_ok());
        for pending in batch {
            assert!(pending.wait().unwrap().result.is_ok());
        }
        assert_eq!(core.stats.batches.get(), 64, "the three made one batch");
        assert_eq!(sweeps(), 2, "one cadence sweep for three groups");

        core.stats.batches.take();
        core.index_cache_for(t.key(), &tier.snapshot(t).unwrap());
        assert_eq!(sweeps(), 2, "an unchanged window at counter 0");
        tier.shutdown();
    }

    /// Grounding changes the tag, so the memo computes it on a grounded
    /// instance: the triangle with a head variable grounds to PTIME while
    /// its Boolean form is h2* (NP-hard), and Prop. 4.16's hard self-join
    /// grounds to an open one.
    #[test]
    fn grounding_sensitive_tags_are_memoized_grounded() {
        let (tier, _) = one_tenant(example_2_2(), ServiceConfig::default());
        let core = &tier.shards[0].core;
        let tag = |text: &str, answer: Vec<Value>| {
            let q = ConjunctiveQuery::parse(text).unwrap();
            core.dichotomy(&ExplainRequest::why_so(q, answer))
        };
        let triangle = "q(x) :- R(x, y), S(y, z), T(z, x)";
        assert_eq!(
            tag(triangle, vec![Value::int(1)]),
            Some(DichotomyTag::PTime)
        );
        assert_eq!(
            tag(triangle, vec![Value::int(2)]),
            Some(DichotomyTag::PTime)
        );
        assert_eq!(
            tag("q :- R(x, y), S(y, z), T(z, x)", vec![]),
            Some(DichotomyTag::NpHard)
        );
        let selfjoin = "q(x) :- R(x), S(x, y), R(y)";
        assert_eq!(
            tag(selfjoin, vec![Value::int(1)]),
            Some(DichotomyTag::OpenSelfJoin)
        );
        assert_eq!(
            tag("q :- R(x), S(x, y), R(y)", vec![]),
            Some(DichotomyTag::HardSelfJoin)
        );
        assert_eq!(lock_unpoisoned(&core.tags).len(), 4);
        assert_eq!(core.classified.load(Ordering::Relaxed), 4);
    }

    /// The classifier runs once per memo miss: a second request with the
    /// same query classifies zero times, on the anytime route (the
    /// router and `why_anytime` share the verdict) and on the exact one.
    /// An answer that does not ground the query is refused at submit and
    /// leaves no entry; Why-No never classifies.
    #[test]
    fn a_query_is_classified_once_per_memo_miss() {
        let mut db = Database::new();
        let r = db.add_relation(Schema::new("R", &["x", "y"]));
        let s = db.add_relation(Schema::new("S", &["y", "z"]));
        let tt = db.add_relation(Schema::new("T", &["z", "x"]));
        db.insert_endo(r, tup![1, 2]);
        for i in 0..3 {
            db.insert_endo(s, tup![2, 10 + i]);
            db.insert_endo(tt, tup![10 + i, 1]);
        }
        let (tier, t) = one_tenant(
            db,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let core = &tier.shards[0].core;
        let classified = || core.classified.load(Ordering::Relaxed);
        let hard = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();

        let bad = ExplainRequest::why_so(hard.clone(), vec![Value::int(1)]);
        assert!(matches!(
            tier.submit(t, bad),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert_eq!((classified(), lock_unpoisoned(&core.tags).len()), (0, 0));

        for round in 1..=3 {
            let pending = tier
                .submit_with_deadline(
                    t,
                    ExplainRequest::why_so(hard.clone(), Vec::<Value>::new()),
                    Duration::from_secs(30),
                )
                .unwrap();
            let explanation = pending.wait().unwrap().expect_explanation();
            assert!(matches!(explanation.mode, ExplainMode::Approximate { .. }));
            assert_eq!(explanation.dichotomy, DichotomyTag::NpHard);
            assert_eq!(classified(), 1, "round {round}");
        }

        let ptime = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y, z)").unwrap();
        for answer in [1, 1, 2] {
            let request = ExplainRequest::why_so(ptime.clone(), vec![Value::int(answer)]);
            let explanation = tier.explain(t, request).unwrap().expect_explanation();
            assert_eq!(explanation.dichotomy, DichotomyTag::PTime);
            assert_eq!(classified(), 2, "answer {answer}");
        }
        let why_no = ExplainRequest::why_no(ptime, vec![Value::int(3)]);
        assert!(tier.explain(t, why_no).unwrap().result.is_ok());
        assert_eq!(classified(), 2, "Why-No is PTIME without classifying");
    }
}

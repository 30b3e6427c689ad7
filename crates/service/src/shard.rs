//! One serving **shard**: the self-contained execution cell of the tier.
//!
//! A shard owns everything a slice of the traffic needs — its own
//! snapshot stores (one per tenant mapped to it), its own worker pool,
//! its own [`SharedIndexCache`], its own responsibility LRU, and its own
//! `StatsCounters` — so writes to one
//! tenant's relations can never evict another shard's warm caches or
//! queue behind another shard's traffic. The one layer above is thin:
//! [`ShardedService`](crate::ShardedService) routes tenants onto N shards
//! via the [`dispatch`](crate::dispatch) layer and applies admission
//! control and deadline budgets at the front end.
//!
//! A request enters a shard through one function, `Shard::enqueue`. The
//! shard's one bounded channel holds the smaller of the tier's
//! [`admission_limit`](crate::TierConfig::admission_limit) and
//! [`ServiceConfig::queue_capacity`]; a full channel rejects the request
//! with a counted [`ServiceError::Overloaded`].
//!
//! Within a shard, multiple tenants can coexist soundly because both
//! cache layers are keyed on per-relation `(RelId, RelVersion)` content
//! stamps and `RelVersion` stamps are **process-wide unique** (PR 3):
//! two tenants' relations can never alias a cache entry.

use crate::breaker::BreakerRegistry;
use crate::chaos::FaultAction;
use crate::lru::LruCache;
use crate::request::{ExplainRequest, ServiceError};
use crate::stats::StatsCounters;
use crate::supervisor::HealthCell;
use crate::worker::{worker_loop, Job, Waiter};
use causality_core::explain::{AnytimePlan, Explanation};
use causality_core::DichotomyTag;
use causality_engine::{
    ConjunctiveQuery, RelId, RelVersion, SharedIndexCache, Snapshot, SnapshotStore,
};
use causality_telemetry::{MetricsRegistry, Telemetry, TelemetryConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Lock a mutex, recovering from poisoning. Workers convert panics into
/// error responses ([`ServiceError::Panicked`]) before they can unwind
/// through a held lock, so poisoning is already unreachable from the
/// serving path — but if a lock is ever poisoned anyway (e.g. by a
/// panicking test hook or a future code path), serving degrades to
/// using the last-written state instead of cascading the panic into
/// every worker that touches the mutex afterwards. All state behind
/// these locks is valid at every step (caches and registries are
/// updated by single self-contained calls), so recovery is safe.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The chaos hook: maps a request and the shard-local ordinal of its
/// computation (its position in this shard's processing order) to the
/// fault to inject — a stall, a panic, or a panic that poisons the
/// responsibility-cache lock. One hook sees one ordinal exactly once, so
/// the fault kinds a seeded [`FaultPlan`](crate::FaultPlan) schedules for
/// one request cannot drift apart. Built by
/// [`ShardedService::inject_fault`](crate::ShardedService::inject_fault),
/// [`ShardedService::inject_delay`](crate::ShardedService::inject_delay)
/// and [`ShardedService::install_fault_plan`](crate::ShardedService::install_fault_plan).
///
/// Shared, so a computation clones it out of the shard's lock and calls
/// it with the lock released.
pub(crate) type ChaosHook = Arc<dyn Fn(&ExplainRequest, u64) -> FaultAction + Send + Sync>;

/// Identifies one tenant's snapshot store within a shard.
pub(crate) type TenantKey = u64;

/// The relation-content fingerprint a cached explanation depends on: the
/// (id, version) stamps of exactly the relations the request's query
/// mentions, sorted and deduplicated. Writes to other relations leave the
/// fingerprint — and therefore the cache entry — intact.
pub(crate) type RelFingerprint = Vec<(RelId, RelVersion)>;

/// The responsibility LRU's key: the relation fingerprint of the
/// request's query, and the request.
pub(crate) type MemoKey = (RelFingerprint, ExplainRequest);

/// One entry of the responsibility LRU: a question's exact explanation,
/// its anytime plan, or both. Cloning one costs two reference counts and
/// the exact answer's tuple: the explanation shares its causes.
#[derive(Clone)]
pub(crate) struct Memo {
    /// An exact explanation, served to every later worker request of the
    /// question as an LRU hit, with or without a deadline.
    pub(crate) exact: Option<Explanation>,
    /// The clock-free part of an NP-hard question's anytime answer. With
    /// no exact answer beside it, a later deadline request still computes
    /// its answer, from the plan under its own budget, so it counts as a
    /// miss (once the plan has collapsed, that answer shares the plan's
    /// kept causes). Brownout answers from it at budget zero even beside
    /// an exact answer.
    pub(crate) plan: Option<Arc<AnytimePlan>>,
}

/// An entry holding an exact explanation only.
impl From<Explanation> for Memo {
    fn from(exact: Explanation) -> Self {
        Memo {
            exact: Some(exact),
            plan: None,
        }
    }
}

/// An entry holding a plan only.
impl From<Arc<AnytimePlan>> for Memo {
    fn from(plan: Arc<AnytimePlan>) -> Self {
        Memo {
            exact: None,
            plan: Some(plan),
        }
    }
}

/// Tuning knobs of one shard.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads evaluating requests.
    pub workers: usize,
    /// Bound of the request queue. The smaller of this and
    /// [`TierConfig::admission_limit`](crate::TierConfig::admission_limit)
    /// bounds the queue; past it, a
    /// [`ShardedService`](crate::ShardedService) submit is rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum requests a worker drains into one batch.
    pub batch_max: usize,
    /// Entries held by the responsibility LRU cache.
    pub cache_capacity: usize,
    /// How many recent snapshot versions (per tenant) keep their
    /// relations' join indexes alive in the shared index cache; relation
    /// versions reachable from none of them are evicted.
    pub cached_versions: usize,
    /// Threads each fresh [`ExplainKind::RankTopK`](crate::ExplainKind::RankTopK)
    /// computation fans its per-cause responsibility runs over (min 1;
    /// 1 = rank on the worker thread). Total ranking threads can reach
    /// `workers × rank_parallelism`, so size the two together against
    /// the machine.
    pub rank_parallelism: usize,
    /// Request tracing and slow-log configuration (sampling rate,
    /// trace-ring capacity, slow thresholds). Sampling defaults to 1.0 —
    /// every request traced; set `sample_rate: 0.0` to disable tracing
    /// entirely (no per-request allocation).
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 128,
            batch_max: 16,
            cache_capacity: 1024,
            cached_versions: 4,
            rank_parallelism: 1,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Clamp every knob to its minimum viable value.
    pub(crate) fn sanitized(self) -> Self {
        ServiceConfig {
            workers: self.workers.max(1),
            queue_capacity: self.queue_capacity.max(1),
            batch_max: self.batch_max.max(1),
            cached_versions: self.cached_versions.max(1),
            rank_parallelism: self.rank_parallelism.max(1),
            telemetry: self.telemetry.sanitized(),
            ..self
        }
    }
}

/// State shared between a shard's handle and its workers.
pub(crate) struct ShardCore {
    pub(crate) cfg: ServiceConfig,
    /// Snapshot stores of the tenants routed to this shard.
    pub(crate) tenants: RwLock<HashMap<TenantKey, Arc<SnapshotStore>>>,
    pub(crate) stats: StatsCounters,
    /// The shard's metric registry: every [`StatsCounters`] entry and the
    /// telemetry bookkeeping counters live here, named, for export.
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Request tracing hub: sampler, trace ring, and slow-log.
    pub(crate) telemetry: Telemetry,
    /// The responsibility LRU: (query's relation fingerprint, request) →
    /// an exact explanation, an anytime plan, or both ([`Memo`]). Keyed on
    /// relation content, not snapshot version, so entries survive writes
    /// to unrelated relations — including every write belonging to a
    /// *different* tenant.
    pub(crate) resp_cache: Mutex<LruCache<MemoKey, Memo>>,
    /// Memoized dichotomy tags, by request query: the router, the
    /// deadline gate, brownout and the explainer all read one verdict per
    /// query. Keyed on the *ungrounded* query, because every answer
    /// grounds the same head variables and the classifier never reads a
    /// constant; computed on a grounded instance, because grounding
    /// changes the tag. Bounded like the responsibility cache.
    pub(crate) tags: Mutex<LruCache<ConjunctiveQuery, DichotomyTag>>,
    /// Classifier runs on memo misses, for tests.
    #[cfg(test)]
    pub(crate) classified: AtomicU64,
    /// Index-cache sweeps, for tests.
    #[cfg(test)]
    pub(crate) sweeps: AtomicU64,
    /// The one join-index cache serving every snapshot version of every
    /// tenant on this shard — sound because its entries are keyed on
    /// process-wide-unique per-relation content stamps.
    pub(crate) index_cache: Arc<SharedIndexCache>,
    /// Per-tenant relation fingerprints of recently served snapshot
    /// versions, newest last; the union of their stamps is the index
    /// cache's live set, everything else gets evicted.
    pub(crate) live_snapshots: Mutex<HashMap<TenantKey, Vec<(u64, RelFingerprint)>>>,
    /// The shard's one chaos hook, consulted once per fresh computation.
    /// Installing a hook replaces the previous one.
    pub(crate) chaos: Mutex<Option<ChaosHook>>,
    /// Shard-local computation ordinal feeding the chaos hook; it
    /// advances once per fresh computation while a hook is armed.
    pub(crate) ordinal: AtomicU64,
    /// True while a chaos hook is installed. Workers check this one
    /// atomic before touching the hook mutex, so chaos-free serving
    /// never pays for the injection point.
    pub(crate) chaos_armed: AtomicBool,
    /// Current run of panicking worker computations without an
    /// intervening completion; the supervisor quarantines past a
    /// threshold. Brownout computations do not count.
    pub(crate) consecutive_panics: AtomicU64,
    /// Live health classification, written by the supervisor and read by
    /// routing (fallback selection avoids unhealthy shards).
    pub(crate) health: HealthCell,
    /// Worker-pool generation: bumped by [`Shard::restart_pool`]; a
    /// worker retires after its current batch once its spawn generation
    /// is stale.
    pub(crate) generation: AtomicU64,
    /// The tier's per-tenant circuit breakers, shared across every shard
    /// (a tenant's failures are a property of the tenant, not of the
    /// shard its retries land on).
    pub(crate) breakers: Arc<BreakerRegistry>,
}

impl ShardCore {
    /// The tenant's snapshot store, if this shard hosts it.
    pub(crate) fn store(&self, tenant: TenantKey) -> Option<Arc<SnapshotStore>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&tenant)
            .cloned()
    }

    /// Highest published snapshot version across this shard's tenants.
    pub(crate) fn max_version(&self) -> u64 {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|store| store.version())
            .max()
            .unwrap_or(0)
    }

    /// The responsibility LRU's entry under `key`, marked most recently
    /// used.
    pub(crate) fn memo(&self, key: &MemoKey) -> Option<Memo> {
        lock_unpoisoned(&self.resp_cache).get(key).cloned()
    }

    /// Keep what `memo` holds under `key`, beside what the slot already
    /// holds: an exact explanation replaces the slot's exact explanation,
    /// and a plan its plan.
    pub(crate) fn memoize(&self, key: MemoKey, memo: Memo) {
        let mut cache = lock_unpoisoned(&self.resp_cache);
        match cache.get_mut(&key) {
            Some(slot) => {
                slot.exact = memo.exact.or(slot.exact.take());
                slot.plan = memo.plan.or(slot.plan.take());
            }
            None => cache.insert(key, memo),
        }
    }

    /// The dichotomy tag of `request`'s query, from the shard's memo: on
    /// a miss the query is grounded with the request's answer and
    /// classified once. `None` when the answer does not ground the query;
    /// that answer is checked on a hit too, and a failed grounding is
    /// never memoized.
    pub(crate) fn dichotomy(&self, request: &ExplainRequest) -> Option<DichotomyTag> {
        request.query.check_answer(&request.answer).ok()?;
        if let Some(&tag) = lock_unpoisoned(&self.tags).get(&request.query) {
            return Some(tag);
        }
        let grounded = request.query.try_ground(&request.answer).ok()?;
        let tag = DichotomyTag::of_why_so(&grounded);
        #[cfg(test)]
        self.classified.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.tags).insert(request.query.clone(), tag);
        Some(tag)
    }

    /// Register `snapshot` of `tenant` as served and return the shared
    /// index cache.
    ///
    /// The first time a (tenant, version) pair is seen, its
    /// relation-version fingerprint joins that tenant's retained window
    /// ([`ServiceConfig::cached_versions`] entries), and the index cache
    /// is swept ([`ShardCore::sweep_index_cache`]). Otherwise the call
    /// takes no lock but the window map's.
    pub(crate) fn index_cache_for(
        &self,
        tenant: TenantKey,
        snapshot: &Snapshot,
    ) -> Arc<SharedIndexCache> {
        let version = snapshot.version();
        let mut live = lock_unpoisoned(&self.live_snapshots);
        let window = live.entry(tenant).or_default();
        if !window.iter().any(|(v, _)| *v == version) {
            window.push((version, snapshot.relation_versions()));
            window.sort_by_key(|(v, _)| *v);
            if window.len() > self.cfg.cached_versions {
                let excess = window.len() - self.cfg.cached_versions;
                window.drain(0..excess);
            }
            self.sweep(&live);
        }
        Arc::clone(&self.index_cache)
    }

    /// Evict, and count, the index entries of every relation version no
    /// tenant's retained window reaches. Runs when a window moves, and
    /// once every 64 batches: a worker still evaluating an
    /// already-dropped older snapshot may re-insert stamps from outside
    /// the window *after* the sweep that dropped them, and without the
    /// cadence those would linger until the next version arrives
    /// (forever, if the write stream stops). The cadence keeps the
    /// steady read-only path free of the index cache's write lock.
    pub(crate) fn sweep_index_cache(&self) {
        self.sweep(&lock_unpoisoned(&self.live_snapshots));
    }

    /// [`ShardCore::sweep_index_cache`] over the windows in `live`.
    fn sweep(&self, live: &HashMap<TenantKey, Vec<(u64, RelFingerprint)>>) {
        #[cfg(test)]
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        let mut retained: RelFingerprint = live
            .values()
            .flat_map(|w| w.iter())
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        retained.sort();
        retained.dedup();
        let evicted = self.index_cache.retain_versions(&retained);
        self.stats.index_evictions.add(evicted as u64);
    }

    /// Refuse a job that never made it into the queue (admission reject
    /// or disconnected shard) or whose brownout computation failed:
    /// finalize its trace with the error's outcome label, so refused
    /// requests show up in the trace ring and slow-log too, and return
    /// the error.
    pub(crate) fn refuse(&self, waiter: Waiter, err: ServiceError) -> Result<(), ServiceError> {
        if let Some(mut tb) = waiter.trace {
            tb.set_outcome(err.outcome_label());
            self.telemetry.record(tb.finish());
        }
        Err(err)
    }

    /// A counted admission reject ([`ServiceError::Overloaded`]) carrying
    /// a retry-after hint.
    fn overloaded(&self) -> ServiceError {
        self.stats.admission_rejects.inc();
        ServiceError::Overloaded {
            retry_after: self.retry_after_hint(),
        }
    }

    /// How long a rejected caller should wait before retrying: the time
    /// this shard needs to drain its current queue, estimated from the
    /// observed mean response latency (which already folds in queue
    /// wait) divided across the worker pool. Clamped to `[1ms, 2s]` so
    /// a cold histogram or a pathological backlog still yields a usable
    /// hint.
    fn retry_after_hint(&self) -> Duration {
        let depth = self.stats.queue_depth.get().max(1);
        let samples: u64 = self.stats.latency.counts(false).iter().sum();
        let mean_us = self
            .stats
            .latency
            .sum_us(false)
            .checked_div(samples)
            .map_or(1_000, |mean| mean.max(1));
        let drain_us = depth
            .saturating_mul(mean_us)
            .checked_div(self.cfg.workers as u64)
            .unwrap_or(mean_us);
        Duration::from_micros(drain_us.clamp(1_000, 2_000_000))
    }
}

/// The responsibility-LRU key of `request` on `snapshot`: the relation
/// fingerprint its answer depends on, and the request. `None` if the
/// query names a relation the snapshot does not have (the computation
/// will surface the error; it just cannot be cached).
pub(crate) fn memo_key(snapshot: &Snapshot, request: &ExplainRequest) -> Option<MemoKey> {
    let mut rels: RelFingerprint = Vec::with_capacity(request.query.atoms().len());
    for atom in request.query.atoms() {
        let id = snapshot.relation_id(&atom.relation)?;
        rels.push((id, snapshot.relation_version(id)));
    }
    rels.sort();
    rels.dedup();
    Some((rels, request.clone()))
}

/// Reject malformed requests at submit time: grounding must succeed, so a
/// worker can never hit an answer/head mismatch mid-computation.
pub(crate) fn validate(request: &ExplainRequest) -> Result<(), ServiceError> {
    request
        .query
        .check_answer(&request.answer)
        .map_err(|e| ServiceError::InvalidRequest(e.to_string()))
}

/// One running shard: the shared core, the job queue, and the worker
/// pool draining it.
///
/// Since PR 9 the pool is *restartable*: [`Shard::restart_pool`] spawns
/// a fresh generation of workers onto the **same** channel and retires
/// the old generation lazily. Keeping the channel fixed is what makes a
/// restart loss-free by construction — no job ever has to migrate
/// between queues, so there is no window in which a submission can land
/// in a queue nobody will drain. A wedged worker never blocks the
/// restart either: workers release the queue mutex before computing, so
/// fresh workers start draining immediately while the wedged one
/// finishes (and still delivers) its in-flight response, then notices
/// its stale generation and exits.
pub(crate) struct Shard {
    pub(crate) core: Arc<ShardCore>,
    /// `None` once the shard is shut down. Dropping the sender is the
    /// shutdown signal: workers drain every buffered job, then exit on
    /// disconnect.
    tx: RwLock<Option<SyncSender<Box<Job>>>>,
    rx: Arc<Mutex<Receiver<Box<Job>>>>,
    name: String,
    /// Every worker thread ever spawned (all generations); joined at
    /// shutdown.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shard {
    /// Spawn a shard with `cfg.workers` threads and a channel of
    /// `cfg.queue_capacity` jobs. `name` labels the worker threads, and
    /// `breakers` are the tier's circuit breakers, which the workers
    /// report outcomes to.
    pub(crate) fn spawn(cfg: ServiceConfig, name: &str, breakers: Arc<BreakerRegistry>) -> Self {
        let cfg = cfg.sanitized();
        let registry = Arc::new(MetricsRegistry::new());
        let core = Arc::new(ShardCore {
            cfg,
            tenants: RwLock::new(HashMap::new()),
            stats: StatsCounters::new(&registry),
            telemetry: Telemetry::new(cfg.telemetry, &registry),
            registry,
            resp_cache: Mutex::new(LruCache::new(cfg.cache_capacity)),
            tags: Mutex::new(LruCache::new(cfg.cache_capacity)),
            #[cfg(test)]
            classified: AtomicU64::new(0),
            #[cfg(test)]
            sweeps: AtomicU64::new(0),
            index_cache: Arc::new(SharedIndexCache::new()),
            live_snapshots: Mutex::new(HashMap::new()),
            chaos: Mutex::new(None),
            ordinal: AtomicU64::new(0),
            chaos_armed: AtomicBool::new(false),
            consecutive_panics: AtomicU64::new(0),
            health: HealthCell::new(),
            generation: AtomicU64::new(0),
            breakers,
        });
        let (tx, rx) = sync_channel::<Box<Job>>(cfg.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let shard = Shard {
            core,
            tx: RwLock::new(Some(tx)),
            rx,
            name: name.to_owned(),
            handles: Mutex::new(Vec::new()),
        };
        shard.spawn_workers(0);
        shard
    }

    /// Spawn `cfg.workers` threads of `generation` onto the shared
    /// channel.
    fn spawn_workers(&self, generation: u64) {
        let mut handles = lock_unpoisoned(&self.handles);
        for i in 0..self.core.cfg.workers {
            let rx = Arc::clone(&self.rx);
            let core = Arc::clone(&self.core);
            let handle = std::thread::Builder::new()
                .name(format!("{}-g{generation}-worker-{i}", self.name))
                .spawn(move || worker_loop(&rx, &core, generation))
                .expect("spawn worker thread");
            handles.push(handle);
        }
    }

    /// Replace the worker pool with a fresh generation (PR 9 recovery
    /// path, driven by the supervisor on a quarantined shard).
    ///
    /// The queue, its contents, and all counters are untouched: new
    /// workers drain the very jobs the old pool was wedged on. Old
    /// workers retire after at most one more batch; ones stuck in a
    /// computation keep running until it completes, still deliver that
    /// response, and then exit — so a restart can never lose or
    /// double-serve a request.
    pub(crate) fn restart_pool(&self) {
        if self.sender().is_none() {
            return; // shut down; nothing to restart
        }
        let generation = self.core.generation.fetch_add(1, Ordering::Relaxed) + 1;
        self.core.stats.shard_restarts.inc();
        self.core.consecutive_panics.store(0, Ordering::Relaxed);
        self.spawn_workers(generation);
    }

    /// Install (or replace) the snapshot store of `tenant`: its home
    /// store at registration, or — on the retry fallback path (PR 9) — a
    /// store shared with the tenant's home shard, which makes the tenant
    /// servable on a sibling. Sound across shards because both cache
    /// layers key on process-wide-unique relation content stamps.
    pub(crate) fn install_store(&self, tenant: TenantKey, store: Arc<SnapshotStore>) {
        self.core
            .tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(tenant, store);
    }

    /// A clone of the queue's sender, or `None` after shutdown.
    fn sender(&self) -> Option<SyncSender<Box<Job>>> {
        self.tx
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Put `job` on the queue: the one way a request enters a shard.
    /// Bounded admission: with the channel full, the job is refused with
    /// a counted [`ServiceError::Overloaded`] carrying a retry-after
    /// hint. A refused job's trace is finalized with the error's outcome
    /// label.
    pub(crate) fn enqueue(&self, job: Job) -> Result<(), ServiceError> {
        let Some(tx) = self.sender() else {
            return self.core.refuse(job.waiter, ServiceError::Disconnected);
        };
        self.core.stats.queue_depth.inc();
        let Err(refused) = tx.try_send(Box::new(job)) else {
            self.core.stats.requests.inc();
            return Ok(());
        };
        self.core.stats.queue_depth.dec(1);
        let (err, job) = match refused {
            TrySendError::Full(job) => (self.core.overloaded(), job),
            TrySendError::Disconnected(job) => (ServiceError::Disconnected, job),
        };
        self.core.refuse(job.waiter, err)
    }

    /// The queue's receiving end, for tests that take a job off the
    /// queue themselves.
    #[cfg(test)]
    pub(crate) fn receiver(&self) -> &Mutex<Receiver<Box<Job>>> {
        &self.rx
    }

    /// Stop accepting work, drain the queue, and join every worker
    /// generation. Idempotent, and callable through a shared reference
    /// (the supervisor holds the shards behind an `Arc`).
    ///
    /// Dropping the sender is the signal: workers finish the buffered
    /// jobs (mpsc delivers everything already queued before reporting
    /// disconnect), then exit.
    pub(crate) fn shutdown(&self) {
        drop(
            self.tx
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = lock_unpoisoned(&self.handles);
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

//! The worker loop shared by every shard: batch draining, coalescing,
//! deadline enforcement, cache lookup, panic isolation, and latency
//! accounting.
//!
//! Workers pull boxed [`Job`]s off their shard's one bounded channel.
//! The channel carries nothing else: shutdown is signalled by dropping
//! the sender, which still drains the buffer, not by an in-band message
//! (a restartable pool cannot know how many sentinels it would need).
//! Each pull drains up to `batch_max` queued jobs into a **batch**;
//! within a batch, jobs are grouped by `(tenant, request)` and each
//! distinct group is evaluated exactly once against a single pinned
//! snapshot of that tenant's store. Every worker response — success,
//! error, deadline miss — is recorded in the shard's submit→response
//! latency histogram, and a sampled job's [`TraceBuilder`] is carried
//! through the batch so the worker-side stages (dequeue, snapshot pin,
//! lineage, kernel solve, respond) land in the same trace the frontend
//! started.
//!
//! Each fresh computation runs behind a panic boundary, and inside it
//! the shard's one chaos hook, when armed, picks the stall, panic or
//! lock poisoning to inject.

use crate::request::{ExplainKind, ExplainRequest, ExplainResponse, ServiceError};
use crate::shard::{lock_unpoisoned, memo_key, Memo, ShardCore, TenantKey};
use causality_core::explain::{AnytimePlan, ExplainMode, ExplainTiming, Explainer, Explanation};
use causality_core::ranking::Method;
use causality_core::resp::approx::ApproxBudget;
use causality_core::DichotomyTag;
use causality_engine::{SharedIndexCache, Snapshot};
use causality_telemetry::{Stage, TraceBuilder};
use std::collections::hash_map::{Entry, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One queued unit of work: a request and the waiter its response goes
/// to.
pub(crate) struct Job {
    /// The request itself.
    pub request: ExplainRequest,
    /// Who waits for the response, and on whose behalf.
    pub waiter: Waiter,
}

/// The per-waiter part of a [`Job`]: it stays whole when coalescing
/// groups jobs by `(tenant, request)`.
pub(crate) struct Waiter {
    /// Which tenant's snapshot store serves this request.
    pub tenant: TenantKey,
    /// If set, the instant past which the job must not *start*: a worker
    /// draining an expired job responds [`ServiceError::DeadlineExceeded`]
    /// instead of computing. (A computation already underway runs to
    /// completion — enforcement is at admission and dequeue, which bounds
    /// the overrun by one batch's compute time.)
    pub deadline: Option<Instant>,
    /// When the job was accepted, for submit→response latency.
    pub enqueued: Instant,
    /// Where the response goes.
    pub tx: Sender<ExplainResponse>,
    /// The trace under construction when the request was sampled;
    /// unsampled requests carry `None` and pay nothing further.
    pub trace: Option<Box<TraceBuilder>>,
}

/// Whether the hardness router may send this request down the anytime
/// path: a Why-So request with automatic method choice whose grounded
/// query the dichotomy classifier (Cor. 4.14 / Prop. 4.16) marks
/// NP-hard. Everything else — PTIME queries, explicit methods, Why-No,
/// top-k — keeps the exact kernels, bit-identical to a deadline-free
/// submission. The verdict comes from the shard's per-query memo
/// ([`ShardCore::dichotomy`]), which only a routable kind consults.
pub(crate) fn anytime_routable(core: &ShardCore, request: &ExplainRequest) -> bool {
    routes_anytime(request, || core.dichotomy(request))
}

/// [`anytime_routable`] with the request's tag from `tag`, which is only
/// called for a routable kind.
fn routes_anytime(request: &ExplainRequest, tag: impl FnOnce() -> Option<DichotomyTag>) -> bool {
    matches!(request.kind, ExplainKind::WhySo)
        && matches!(request.method, Method::Auto)
        && matches!(
            tag(),
            Some(DichotomyTag::NpHard | DichotomyTag::HardSelfJoin)
        )
}

/// Send a worker's `response`, recording its submit→response latency
/// first. The histogram counts worker answers only: the supervisor reads
/// its count as the shard's progress, and the retry-after hint its mean
/// as the shard's drain rate.
fn respond(core: &ShardCore, waiter: Waiter, response: ExplainResponse) {
    core.stats.latency.record(waiter.enqueued.elapsed());
    deliver(core, waiter, response);
}

/// Send `response`, reporting the outcome to the tenant's circuit
/// breaker and finishing the job's trace (outcome label, respond stage,
/// explanation attributes). A requester that dropped its handle is not
/// an error.
fn deliver(core: &ShardCore, waiter: Waiter, response: ExplainResponse) {
    if let Some(mut tb) = waiter.trace {
        tb.begin(Stage::Respond);
        let outcome = match &response.result {
            Ok(_) => "ok",
            Err(e) => e.outcome_label(),
        };
        tb.set_outcome(outcome);
        tb.set_cache_hit(response.cache_hit);
        tb.set_snapshot_version(response.snapshot_version);
        if let Ok(explanation) = &response.result {
            tb.set_explanation(
                explanation.dichotomy.label(),
                explanation.lineage_conjuncts as u64,
                explanation.rho_max(),
            );
        }
        core.telemetry.record(tb.finish());
    }
    let indicted = response.result.as_ref().is_err_and(indicts_tenant);
    core.breakers.record(waiter.tenant, !indicted);
    let _ = waiter.tx.send(response);
}

/// Whether a failed answer counts against its tenant's circuit breaker.
/// Only failures of the tenant's own traffic do; load shedding and
/// deadline misses are tier states, not evidence against the tenant.
fn indicts_tenant(err: &ServiceError) -> bool {
    matches!(err, ServiceError::Panicked(_) | ServiceError::Core(_))
}

/// One worker thread's life: drain batches off the shared queue until
/// the channel disconnects (shutdown) or this worker's `generation`
/// goes stale (a pool restart replaced it).
pub(crate) fn worker_loop(rx: &Mutex<Receiver<Box<Job>>>, core: &ShardCore, generation: u64) {
    loop {
        if core.generation.load(Ordering::Relaxed) != generation {
            return; // retired by a pool restart
        }
        let mut batch: Vec<Job> = Vec::new();
        {
            let rx = lock_unpoisoned(rx);
            match rx.recv() {
                Ok(job) => batch.push(*job),
                Err(_) => return,
            }
            while batch.len() < core.cfg.batch_max {
                match rx.try_recv() {
                    Ok(job) => batch.push(*job),
                    Err(_) => break,
                }
            }
        }
        core.stats.queue_depth.dec(batch.len() as u64);
        process_batch(core, batch);
    }
}

/// Evaluate one batch: enforce deadlines, group identical
/// (tenant, request) pairs, serve them from the responsibility cache
/// when possible, compute each distinct miss exactly once against a
/// snapshot pinned per group, and hand each group's answer to its
/// waiters (the last one takes it by move).
fn process_batch(core: &ShardCore, batch: Vec<Job>) {
    core.stats.batches.inc();
    core.stats.batched_requests.add(batch.len() as u64);

    // Deadline gate at dequeue: an expired job costs a response, never a
    // computation — the worker's budget is spent on requests that can
    // still meet theirs. Beginning `WorkerDequeue` here closes the
    // cross-thread `ShardQueue` stage the frontend opened.
    let now = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for mut job in batch {
        if let Some(tb) = job.waiter.trace.as_deref_mut() {
            tb.begin(Stage::WorkerDequeue);
        }
        match job.waiter.deadline {
            // An expired *hard* instance is rescued rather than failed:
            // the anytime path degrades gracefully to its zero-budget
            // greedy bounds, so a routable request never turns into
            // `DeadlineExceeded` once admitted. PTIME instances keep the
            // strict gate — their exact compute is the whole request, so
            // past the deadline there is nothing useful left to return.
            Some(deadline) if deadline <= now && !anytime_routable(core, &job.request) => {
                core.stats.deadline_misses.inc();
                respond(
                    core,
                    job.waiter,
                    ExplainResponse {
                        result: Err(ServiceError::DeadlineExceeded),
                        snapshot_version: 0,
                        cache_hit: false,
                    },
                );
            }
            _ => live.push(job),
        }
    }

    // Coalesce identical (tenant, request) pairs, preserving first-seen
    // order. Tenants never coalesce with each other: identical queries
    // over different tenants' databases are different computations.
    let mut order: Vec<(TenantKey, ExplainRequest)> = Vec::new();
    let mut groups: HashMap<(TenantKey, ExplainRequest), Vec<Waiter>> = HashMap::new();
    for job in live {
        match groups.entry((job.waiter.tenant, job.request)) {
            Entry::Occupied(mut group) => group.get_mut().push(job.waiter),
            Entry::Vacant(group) => {
                order.push(group.key().clone());
                group.insert(vec![job.waiter]);
            }
        }
    }

    for key in order {
        let mut senders = groups.remove(&key).expect("grouped senders");
        let (tenant, request) = key;
        let Some(store) = core.store(tenant) else {
            // Unreachable through the public API (tenants are registered
            // before their id is handed out and never removed), but a
            // stale id must get an error, not a hang.
            for waiter in senders {
                respond(
                    core,
                    waiter,
                    ExplainResponse {
                        result: Err(ServiceError::InvalidRequest(
                            "unknown tenant for this shard".to_string(),
                        )),
                        snapshot_version: 0,
                        cache_hit: false,
                    },
                );
            }
            continue;
        };
        // The pin block — snapshot pin, index-cache attach, fingerprint,
        // cache probe — runs once per group; its one measurement is
        // charged to every waiter's trace below.
        let pin_started = Instant::now();
        let snapshot = store.current();
        let version = snapshot.version();
        let index_cache = core.index_cache_for(tenant, &snapshot);
        // Key on the content stamps of exactly the relations the query
        // reads: a hit may have been computed under an older snapshot
        // version — sound as long as those relations are untouched.
        let key = memo_key(&snapshot, &request);
        let memo = key.as_ref().and_then(|key| core.memo(key));
        let pin_dur = pin_started.elapsed();
        // Per-request accounting: a hit group is all hits; a miss group is
        // one fresh computation plus coalesced riders. Only an exact
        // entry is a hit: an answer from a plan is assembled fresh.
        let (result, timing, cache_hit) = match memo {
            Some(Memo {
                exact: Some(explanation),
                ..
            }) => {
                core.stats.cache_hits.add(senders.len() as u64);
                (Ok(explanation), None, true)
            }
            memo => {
                let plan = memo.and_then(|memo| memo.plan);
                let from_plan = plan.is_some();
                core.stats.cache_misses.inc();
                core.stats.coalesced.add(senders.len() as u64 - 1);
                // The anytime budget is the *tightest* waiter's remaining
                // slack; a single deadline-free rider keeps the group on
                // the exact path (it was promised an exact answer).
                let deadline = senders
                    .iter()
                    .map(|t| t.deadline)
                    .try_fold(None::<Instant>, |acc, d| {
                        d.map(|d| Some(acc.map_or(d, |a| a.min(d))))
                    })
                    .flatten();
                let computed =
                    compute_isolated(core, &snapshot, &index_cache, &request, deadline, plan);
                let compute_end = Instant::now();
                // Only computations run by workers feed the panic streak
                // that drives quarantine.
                if matches!(computed, Err(ServiceError::Panicked(_))) {
                    core.consecutive_panics.fetch_add(1, Ordering::Relaxed);
                } else {
                    core.consecutive_panics.store(0, Ordering::Relaxed);
                }
                let (computed, timing) = match computed {
                    Ok(Computed {
                        explanation,
                        timing,
                        built,
                    }) => {
                        if let ExplainMode::Approximate {
                            bounds,
                            refinements,
                            settled,
                            search_nodes,
                            ..
                        } = explanation.mode
                        {
                            core.stats.approx_requests.inc();
                            core.stats.approx_plan_hits.add(u64::from(from_plan));
                            core.stats.approx_refinements.add(refinements as u64);
                            core.stats.approx_settled.add(settled as u64);
                            core.stats.approx_search_nodes.add(search_nodes);
                            core.stats
                                .bound_width
                                .record_us((bounds.width() * 1_000_000.0) as u64);
                        }
                        // The LRU keeps an exact explanation, or the plan an
                        // anytime computation built, never an approximate
                        // explanation: a later deadline-free request must
                        // not inherit a bracket, and a later deadline
                        // request answers the plan under its own budget.
                        // An exact answer is served before a plan beside
                        // it, since it is strictly better for every worker
                        // request.
                        if let Some(key) = key {
                            match (built, explanation.mode) {
                                (Some(plan), _) => core.memoize(key, plan.into()),
                                (None, ExplainMode::Exact) => {
                                    core.memoize(key, explanation.clone().into())
                                }
                                (None, ExplainMode::Approximate { .. }) => {}
                            }
                        }
                        (Ok(explanation), Some((compute_end, timing)))
                    }
                    Err(e) => (Err(e), None),
                };
                (computed, timing, false)
            }
        };
        // Fan the answer out: every waiter but the last gets a clone,
        // and the last one takes the answer by move. Only the cache
        // insertion of a fresh exact answer still copies it, so an
        // anytime group of one copies nothing.
        let answer = |i: usize, mut waiter: Waiter, result: Result<Explanation, ServiceError>| {
            if let Some(tb) = waiter.trace.as_deref_mut() {
                if !cache_hit && i > 0 {
                    tb.mark_coalesced();
                }
                tb.record_span(Stage::SnapshotPin, pin_started, pin_dur);
                if let (Some((compute_end, timing)), Ok(explanation)) = (timing, &result) {
                    record_compute_spans(tb, compute_end, timing, explanation.mode);
                }
            }
            let response = ExplainResponse {
                result,
                snapshot_version: version,
                cache_hit,
            };
            respond(core, waiter, response);
        };
        let last = senders.pop().expect("a group has a waiter");
        let last_i = senders.len();
        for (i, waiter) in senders.into_iter().enumerate() {
            answer(i, waiter, result.clone());
        }
        answer(last_i, last, result);
    }
}

/// Charge one computation's reported timing to a trace: the lineage and
/// kernel-solve spans, then on the anytime route the refinement
/// (`budget_spent_us`) as an `approx_refine` span at the tail. The spans
/// are anchored back from `compute_end`, so any untimed overhead
/// (chaos-hook delays, panic recovery) falls in the gap before them and
/// offsets stay monotone.
fn record_compute_spans(
    tb: &mut TraceBuilder,
    compute_end: Instant,
    timing: ExplainTiming,
    mode: ExplainMode,
) {
    let ExplainTiming {
        lineage_us,
        solve_us,
    } = timing;
    let approx_us = match mode {
        ExplainMode::Approximate {
            budget_spent_us, ..
        } => Some(budget_spent_us.min(solve_us)),
        ExplainMode::Exact => None,
    };
    let refine_dur = Duration::from_micros(approx_us.unwrap_or(0));
    let solve_dur = Duration::from_micros(solve_us - approx_us.unwrap_or(0));
    let lineage_dur = Duration::from_micros(lineage_us);
    let refine_start = compute_end.checked_sub(refine_dur).unwrap_or(compute_end);
    let solve_start = refine_start.checked_sub(solve_dur).unwrap_or(refine_start);
    let lineage_start = solve_start.checked_sub(lineage_dur).unwrap_or(solve_start);
    tb.record_span(Stage::LineageIntern, lineage_start, lineage_dur);
    tb.record_span(Stage::KernelSolve, solve_start, solve_dur);
    if approx_us.is_some() {
        tb.record_span(Stage::ApproxRefine, refine_start, refine_dur);
    }
}

/// Serve `request` on the calling thread with a deadline that has
/// already passed, which yields the certified zero-budget bracket: the
/// brownout path. It answers from the question's memoized plan, or
/// builds the plan and memoizes it, as a worker does; beside an exact
/// answer the plan is built once and kept there too. The answer is
/// delivered as a worker's is, with the computation's spans, so the
/// tenant's breaker and the trace ring see it; the shard's latency
/// histogram and counters do not, since no worker made progress. A
/// failed computation counts against the tenant's breaker by the
/// workers' rule and is returned instead of sent.
pub(crate) fn serve_expired(
    core: &ShardCore,
    snapshot: &Snapshot,
    request: &ExplainRequest,
    mut waiter: Waiter,
) -> Result<(), ServiceError> {
    let index_cache = core.index_cache_for(waiter.tenant, snapshot);
    let key = memo_key(snapshot, request);
    let plan = key.as_ref().and_then(|key| core.memo_plan(key));
    let expired = Some(Instant::now());
    match compute_isolated(core, snapshot, &index_cache, request, expired, plan) {
        Ok(Computed {
            explanation,
            timing,
            built,
        }) => {
            if let (Some(key), Some(plan)) = (key, built) {
                core.memoize(key, plan.into());
            }
            if let Some(tb) = waiter.trace.as_deref_mut() {
                record_compute_spans(tb, Instant::now(), timing, explanation.mode);
            }
            let response = ExplainResponse {
                result: Ok(explanation),
                snapshot_version: snapshot.version(),
                cache_hit: false,
            };
            deliver(core, waiter, response);
            Ok(())
        }
        Err(err) => {
            core.breakers.record(waiter.tenant, !indicts_tenant(&err));
            core.refuse(waiter, err)
        }
    }
}

/// One computation's answer, and the anytime plan it built, if any.
pub(crate) struct Computed {
    pub explanation: Explanation,
    pub timing: ExplainTiming,
    /// The plan an anytime computation built because none was memoized,
    /// for the caller to keep in the responsibility LRU.
    pub built: Option<Arc<AnytimePlan>>,
}

impl From<(Explanation, ExplainTiming)> for Computed {
    fn from((explanation, timing): (Explanation, ExplainTiming)) -> Self {
        Computed {
            explanation,
            timing,
            built: None,
        }
    }
}

/// [`compute`] behind a panic boundary, consulting the shard's chaos
/// hook first: the one way a shard computes an answer, on a worker or,
/// in brownout, on the submitting thread. A panicking job must cost
/// exactly one response, not the worker (and with it the whole pool —
/// every worker shares the queue mutex a dying thread would poison):
/// the panic is caught, counted, and converted into
/// [`ServiceError::Panicked`] for the requester.
pub(crate) fn compute_isolated(
    core: &ShardCore,
    snapshot: &Snapshot,
    index_cache: &Arc<SharedIndexCache>,
    request: &ExplainRequest,
    deadline: Option<Instant>,
    plan: Option<Arc<AnytimePlan>>,
) -> Result<Computed, ServiceError> {
    let guarded = catch_unwind(AssertUnwindSafe(|| {
        // Production fast path: with no chaos hook armed, serving skips
        // the hook mutex entirely — one atomic load per computation.
        if core.chaos_armed.load(Ordering::Acquire) {
            // One hook call with one ordinal draw, so every fault kind a
            // seeded plan schedules for this request fires on it. The
            // lock is released before the hook runs, and so before the
            // stall or the panic: a hook that blocks holds up only its
            // own computation.
            let hook = lock_unpoisoned(&core.chaos).clone();
            let action = hook
                .map(|hook| hook(request, core.ordinal.fetch_add(1, Ordering::Relaxed)))
                .unwrap_or_default();
            if let Some(stall) = action.stall {
                std::thread::sleep(stall);
            }
            if action.poison {
                // Poison the responsibility-cache mutex for real: panic
                // with the guard held. Serving recovers via
                // `lock_unpoisoned`.
                let _guard = lock_unpoisoned(&core.resp_cache);
                panic!("cache lock poisoned by fault plan");
            }
            if action.panic {
                panic!("fault injected by chaos hook");
            }
        }
        compute(core, snapshot, index_cache, request, deadline, plan)
    }));
    guarded.unwrap_or_else(|payload| {
        core.stats.panics_caught.inc();
        Err(ServiceError::Panicked(panic_message(payload.as_ref())))
    })
}

/// Best-effort rendering of a caught panic payload (panics carry a
/// `&str` or `String` unless raised with a custom payload).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Compute `request`'s answer. On the anytime route it answers `plan`,
/// the question's memoized plan, or builds the plan and answers that.
fn compute(
    core: &ShardCore,
    snapshot: &Snapshot,
    index_cache: &Arc<SharedIndexCache>,
    request: &ExplainRequest,
    deadline: Option<Instant>,
    plan: Option<Arc<AnytimePlan>>,
) -> Result<Computed, ServiceError> {
    // One memo lookup serves the router and the explanation's tag, so a
    // Why-So computation classifies its query at most once, on a miss.
    let tag = match request.kind {
        ExplainKind::WhyNo => None,
        ExplainKind::WhySo | ExplainKind::RankTopK(_) => core.dichotomy(request),
    };
    // The hardness router: an NP-hard Why-So under a deadline takes the
    // anytime path, with the request's remaining slack as its whole
    // budget (an already-expired deadline degrades to the zero-budget
    // greedy bracket — still sound, never an error). A memoized plan
    // leaves only phase two and assembly to do, and needs no explainer.
    let anytime = deadline.is_some() && routes_anytime(request, || tag);
    let budget = ApproxBudget {
        max_steps: u64::MAX,
        deadline,
    };
    if let Some(plan) = plan.filter(|_| anytime) {
        return Ok(plan.answer(budget).into());
    }
    let mut explainer = Explainer::new(snapshot.database(), &request.query)
        .with_method(request.method)
        .with_index_cache(Arc::clone(index_cache));
    if let Some(tag) = tag {
        explainer = explainer.with_dichotomy(tag);
    }
    match request.kind {
        ExplainKind::WhySo if anytime => {
            let (plan, planned) = explainer.plan_anytime(&request.answer)?;
            let plan = Arc::new(plan);
            let (explanation, answered) = plan.answer(budget);
            Ok(Computed {
                explanation,
                timing: planned + answered,
                built: Some(plan),
            })
        }
        ExplainKind::WhySo => Ok(explainer.why_timed(&request.answer)?.into()),
        ExplainKind::WhyNo => Ok(explainer.why_not_timed(&request.answer)?.into()),
        ExplainKind::RankTopK(k) => {
            // The top-k path: upper-bound screening skips candidates
            // that can no longer enter the top k, and the surviving
            // solves fan out over `rank_parallelism` threads.
            let (explanation, rank_stats) = explainer
                .with_parallelism(core.cfg.rank_parallelism)
                .why_top_k(&request.answer, k)?;
            core.stats.rank_tasks.inc();
            core.stats.topk_pruned.add(rank_stats.pruned as u64);
            Ok((explanation, ExplainTiming::from(&rank_stats)).into())
        }
    }
}

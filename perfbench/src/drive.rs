//! Driving the public `ShardedService` API: tier set-up, the answer and
//! routing checks, and the three load shapes (open loop at a fixed
//! rate, closed loop with an in-flight window, closed loop with one
//! client).

use crate::inputs::{apply_write, Inputs, Kind, Op, Reference};
use crate::probe;
use causality_service::{
    ExplainMode, ExplainResponse, PendingExplain, ServiceConfig, ServiceError, ServiceStats,
    ShardedService, TelemetryConfig, TenantId, TierConfig,
};
use std::collections::{BTreeSet, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Shards × workers sized to a 2-core host, ranking on the worker thread.
pub const SHARDS: usize = 2;
pub const WORKERS_PER_SHARD: usize = 1;
pub const RANK_PARALLELISM: usize = 1;
/// Queue bound and admission limit: high enough that the offered load
/// is never rejected, so a reject is a failure, not load shedding.
const QUEUE_LIMIT: usize = 1 << 16;

pub fn tier_config(traced: bool) -> TierConfig {
    TierConfig {
        shards: SHARDS,
        admission_limit: QUEUE_LIMIT,
        shard: ServiceConfig {
            workers: WORKERS_PER_SHARD,
            queue_capacity: QUEUE_LIMIT,
            rank_parallelism: RANK_PARALLELISM,
            telemetry: TelemetryConfig {
                sample_rate: if traced { 1.0 } else { 0.0 },
                trace_ring: if traced { 1 << 18 } else { 16 },
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    }
}

/// A started tier with the workload's tenants registered and warm.
pub struct Tier {
    pub service: ShardedService,
    pub ids: Vec<TenantId>,
}

/// Start a tier, register every tenant, and warm it with one pass over
/// the distinct questions (index caches and, for `tenant_mix`, the LRU).
/// The pass submits every question before waiting for any, so it costs
/// the tier's compute rather than one hand-off per question.
pub fn start_tier(inputs: &Inputs, traced: bool) -> Tier {
    let service = ShardedService::new(tier_config(traced));
    let ids = inputs
        .tenants
        .iter()
        .map(|t| {
            service
                .add_tenant(&t.name, t.db.clone())
                .expect("unique tenant names")
        })
        .collect();
    let tier = Tier { service, ids };
    let pending: Vec<_> = (0..inputs.questions.len())
        .map(|q| submit(&tier, inputs, q))
        .collect();
    for p in pending {
        let _ = p.map(PendingExplain::wait);
    }
    tier.service.snapshot_and_reset();
    tier
}

fn submit(tier: &Tier, inputs: &Inputs, q: usize) -> Result<PendingExplain, ServiceError> {
    let question = &inputs.questions[q];
    let id = tier.ids[question.tenant];
    let request = question.request.clone();
    match question.deadline {
        Some(budget) => tier.service.submit_with_deadline(id, request, budget),
        None => tier.service.submit(id, request),
    }
}

/// Counts of everything that makes a run fail.
#[derive(Default, Debug)]
pub struct Failures {
    pub errors: u64,
    pub rejects: u64,
    pub deadline_exceeded: u64,
    pub wrong: u64,
    /// Responses that took a route this workload must never take.
    pub misrouted: u64,
    pub first: Option<String>,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.errors + self.rejects + self.deadline_exceeded + self.wrong + self.misrouted
    }

    fn note(&mut self, what: String) {
        self.first.get_or_insert(what);
    }

    pub fn merge(&mut self, other: Failures) {
        self.errors += other.errors;
        self.rejects += other.rejects;
        self.deadline_exceeded += other.deadline_exceeded;
        self.wrong += other.wrong;
        self.misrouted += other.misrouted;
        if let Some(f) = other.first {
            self.note(f);
        }
    }

    pub fn submit_error(&mut self, e: &ServiceError) {
        match e {
            ServiceError::Overloaded { .. } | ServiceError::QueueFull => self.rejects += 1,
            _ => self.errors += 1,
        }
        self.note(format!("submit failed: {e}"));
    }
}

/// What the checker learned from one response besides pass/fail.
#[derive(Default, Clone, Copy)]
pub struct Observed {
    pub width_sum: f64,
    pub widths: u64,
}

/// Compare a response with its reference and with the workload's routing
/// promises (exact answers off `hard_triangles`, anytime answers on it,
/// no LRU hits outside `tenant_mix`).
pub fn check(
    kind: Kind,
    reference: &Reference,
    resp: &ExplainResponse,
    fails: &mut Failures,
) -> Observed {
    // Each response counts at most once, under its first failure.
    let mut seen = Observed::default();
    if resp.cache_hit && !kind.lru_hits_allowed() {
        fails.misrouted += 1;
        fails.note(format!(
            "{}: LRU hit on a workload that must miss",
            kind.name()
        ));
        return seen;
    }
    let explanation = match &resp.result {
        Ok(e) => e,
        Err(ServiceError::DeadlineExceeded) => {
            fails.deadline_exceeded += 1;
            fails.note("DeadlineExceeded".to_string());
            return seen;
        }
        Err(e) => {
            fails.errors += 1;
            fails.note(format!("error response: {e}"));
            return seen;
        }
    };
    match (reference, explanation.mode) {
        (Reference::Exact(want), ExplainMode::Exact) => {
            if explanation != want {
                fails.wrong += 1;
                fails.note(format!(
                    "answer {:?} differs from its reference",
                    explanation.answer
                ));
            }
        }
        (Reference::Bracketed(rhos), ExplainMode::Approximate { .. }) => {
            let causes: BTreeSet<_> = explanation.causes.iter().map(|c| c.tuple).collect();
            if causes.len() != explanation.causes.len() || !causes.iter().eq(rhos.keys()) {
                fails.wrong += 1;
                fails.note("anytime cause set differs from the exact one".to_string());
                return seen;
            }
            for cause in &explanation.causes {
                let bounds = cause.bounds.expect("anytime causes carry brackets");
                seen.width_sum += bounds.width();
                seen.widths += 1;
                if !bounds.contains(rhos[&cause.tuple]) {
                    fails.wrong += 1;
                    fails.note(format!(
                        "bracket {bounds:?} misses reference rho {}",
                        rhos[&cause.tuple]
                    ));
                    return seen;
                }
            }
        }
        (Reference::Exact(_), ExplainMode::Approximate { .. }) => {
            fails.misrouted += 1;
            fails.note(format!(
                "{}: approximate answer off the hard path",
                kind.name()
            ));
        }
        (Reference::Bracketed(_), ExplainMode::Exact) => {
            fails.misrouted += 1;
            fails.note("hard_triangles: exact answer where the router must go anytime".into());
        }
    }
    seen
}

/// The routing promises checked on every run from the tier's own
/// counters: no LRU hit outside `tenant_mix`, and the anytime kernel
/// serves every fresh computation of `hard_triangles` and none elsewhere.
/// Each violation counts as a misrouted operation.
pub fn check_routing(kind: Kind, stats: &ServiceStats, fails: &mut Failures) {
    let mut violations = Vec::new();
    if !kind.lru_hits_allowed() && stats.cache_hits > 0 {
        violations.push(format!(
            "{}: {} LRU hits, expected 0",
            kind.name(),
            stats.cache_hits
        ));
    }
    let want_approx = if kind == Kind::HardTriangles {
        stats.cache_misses
    } else {
        0
    };
    if stats.approx_requests != want_approx {
        violations.push(format!(
            "{}: the tier served {} requests with the anytime kernel, expected {want_approx}",
            kind.name(),
            stats.approx_requests
        ));
    }
    for v in violations {
        println!("# ROUTING: {v}");
        fails.misrouted += 1;
        fails.note(v);
    }
}

/// One completed request.
#[derive(Clone, Copy)]
pub struct Sample {
    pub question: usize,
    pub latency_us: f64,
    pub cache_hit: bool,
    /// Offset of the request's start from the phase start.
    pub at_s: f64,
}

/// Everything one timed phase measured.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub fails: Failures,
    pub submit_us: Vec<f64>,
    pub update_us: Vec<f64>,
    /// How late the open-loop generator sent each request.
    pub lag_us: Vec<f64>,
    pub deadline_met: u64,
    pub deadline_asked: u64,
    pub width_sum: f64,
    pub widths: u64,
    /// Host-speed probe times taken while the tier was idle, one per
    /// CPU per probe.
    pub probe_us: Vec<f64>,
}

impl Phase {
    fn observe(&mut self, seen: Observed, deadline: Option<Duration>, latency_us: f64) {
        self.width_sum += seen.width_sum;
        self.widths += seen.widths;
        if let Some(d) = deadline {
            self.deadline_asked += 1;
            self.deadline_met += u64::from(latency_us <= d.as_secs_f64() * 1e6);
        }
    }
}

/// Workload state that persists across phases: where the op cycle is,
/// and how many writes were made.
#[derive(Default)]
pub struct Cursor {
    pub op: usize,
    pub writes: u64,
}

fn write(tier: &Tier, inputs: &Inputs, tenant: usize, cursor: &mut Cursor, phase: &mut Phase) {
    cursor.writes += 1;
    let n = cursor.writes;
    let kind = inputs.kind;
    phase.attempted += 1;
    let started = Instant::now();
    let result = tier
        .service
        .update(tier.ids[tenant], |db| apply_write(kind, db, n));
    phase.update_us.push(us(started.elapsed()));
    if let Err(e) = result {
        phase.fails.errors += 1;
        phase.fails.note(format!("write failed: {e}"));
    }
}

fn next_op(inputs: &Inputs, cursor: &mut Cursor) -> Op {
    let op = inputs.ops[cursor.op % inputs.ops.len()];
    cursor.op += 1;
    op
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Closed loop, one client: submit, wait, repeat, for `duration`. Every
/// [`probe::EVERY`] the client probes the host between two requests.
pub fn closed_loop(
    tier: &Tier,
    inputs: &Inputs,
    refs: &[Reference],
    cursor: &mut Cursor,
    duration: Duration,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut probed = start;
    while start.elapsed() < duration {
        if probed.elapsed() >= probe::EVERY {
            phase.probe_us.extend(probe::sample());
            probed = Instant::now();
        }
        let q = match next_op(inputs, cursor) {
            Op::Write(t) => {
                write(tier, inputs, t, cursor, &mut phase);
                continue;
            }
            Op::Ask(q) => q,
        };
        phase.attempted += 1;
        let sent = Instant::now();
        let pending = submit(tier, inputs, q);
        phase.submit_us.push(us(sent.elapsed()));
        let response = pending.and_then(PendingExplain::wait);
        let latency_us = us(sent.elapsed());
        match response {
            Ok(resp) => {
                let seen = check(inputs.kind, &refs[q], &resp, &mut phase.fails);
                phase.observe(seen, inputs.questions[q].deadline, latency_us);
                phase.samples.push(Sample {
                    question: q,
                    latency_us,
                    cache_hit: resp.cache_hit,
                    at_s: (sent - start).as_secs_f64(),
                });
            }
            Err(e) => phase.fails.submit_error(&e),
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// Closed loop with a fixed in-flight window: the capacity phase. Every
/// [`probe::EVERY`] the window drains, and the host is probed while the
/// tier is idle.
pub fn capacity(
    tier: &Tier,
    inputs: &Inputs,
    refs: &[Reference],
    cursor: &mut Cursor,
    window: usize,
    duration: Duration,
) -> Phase {
    let mut phase = Phase::default();
    let mut in_flight: VecDeque<(usize, Instant, PendingExplain)> = VecDeque::new();
    let start = Instant::now();
    let mut probed = start;
    loop {
        let draining = probed.elapsed() >= probe::EVERY;
        if draining && in_flight.is_empty() {
            phase.probe_us.extend(probe::sample());
            probed = Instant::now();
            continue;
        }
        let open = start.elapsed() < duration;
        while open && !draining && in_flight.len() < window {
            match next_op(inputs, cursor) {
                Op::Write(t) => write(tier, inputs, t, cursor, &mut phase),
                Op::Ask(q) => {
                    phase.attempted += 1;
                    let sent = Instant::now();
                    match submit(tier, inputs, q) {
                        Ok(p) => in_flight.push_back((q, sent, p)),
                        Err(e) => phase.fails.submit_error(&e),
                    }
                }
            }
        }
        let Some((q, sent, pending)) = in_flight.pop_front() else {
            break;
        };
        match pending.wait() {
            Ok(resp) => {
                let latency_us = us(sent.elapsed());
                let seen = check(inputs.kind, &refs[q], &resp, &mut phase.fails);
                phase.observe(seen, inputs.questions[q].deadline, latency_us);
                phase.samples.push(Sample {
                    question: q,
                    latency_us,
                    cache_hit: resp.cache_hit,
                    at_s: (sent - start).as_secs_f64(),
                });
            }
            Err(e) => phase.fails.submit_error(&e),
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// Let this thread's sleeps end on time: Linux lets a sleep overrun by the
/// thread's timer slack (50 µs by default), which an open-loop generator
/// would otherwise add to every request's latency.
fn tight_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Open loop at `rate` requests per second for `duration`: request `i`
/// is due at `start + i / rate` whatever the tier is doing, and its
/// latency counts from that due time. One generator thread sends; one
/// collector per shard waits for that shard's responses in order.
pub fn open_loop(
    tier: &Tier,
    inputs: &Inputs,
    refs: &[Reference],
    cursor: &mut Cursor,
    rate: f64,
    duration: Duration,
) -> Phase {
    let mut phase = Phase::default();
    let period = Duration::from_secs_f64(1.0 / rate);
    tight_sleeps();
    let start = Instant::now();
    let collected: Vec<Phase> = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..SHARDS {
            let (tx, rx) = mpsc::channel::<(usize, Instant, PendingExplain)>();
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut part = Phase::default();
                for (q, due, pending) in rx {
                    let response = pending.wait();
                    let latency_us = us(due.elapsed());
                    match response {
                        Ok(resp) => {
                            let seen = check(inputs.kind, &refs[q], &resp, &mut part.fails);
                            part.observe(seen, None, latency_us);
                            part.samples.push(Sample {
                                question: q,
                                latency_us,
                                cache_hit: resp.cache_hit,
                                at_s: (due - start).as_secs_f64(),
                            });
                        }
                        Err(e) => part.fails.submit_error(&e),
                    }
                }
                part
            }));
        }
        let mut i: u32 = 0;
        loop {
            let due = start + period * i;
            if due - start >= duration {
                break;
            }
            i += 1;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let q = match next_op(inputs, cursor) {
                Op::Write(t) => {
                    write(tier, inputs, t, cursor, &mut phase);
                    continue;
                }
                Op::Ask(q) => q,
            };
            phase.attempted += 1;
            let sent = Instant::now();
            phase.lag_us.push(us(sent - due));
            let pending = submit(tier, inputs, q);
            phase.submit_us.push(us(sent.elapsed()));
            match pending {
                Ok(p) => {
                    let shard = tier.ids[inputs.questions[q].tenant].shard();
                    senders[shard].send((q, due, p)).expect("collector alive");
                }
                Err(e) => phase.fails.submit_error(&e),
            }
        }
        drop(senders);
        handles
            .into_iter()
            .map(|h| h.join().expect("collector thread"))
            .collect()
    });
    phase.elapsed_s = start.elapsed().as_secs_f64();
    for part in collected {
        phase.samples.extend(part.samples);
        phase.fails.merge(part.fails);
    }
    phase
}

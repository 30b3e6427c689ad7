//! Request tracing: stages, span builders, sampling, and trace rings.
//!
//! A trace is a sequence of [`StageSpan`]s measured against a single
//! origin [`Instant`] captured when the request enters the frontend, so
//! stage timestamps stay monotone even as the request hops between the
//! submitting thread and a shard worker thread. Across the queue hop the
//! builder's explicit [`TraceBuilder::begin`] / [`TraceBuilder::finish`]
//! calls let one side open a stage and the other close it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The serving-path stages a request passes through, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Frontend validation and admission bookkeeping.
    Admission,
    /// Backoff wait that preceded a retried submission (PR 9); absent on
    /// first attempts. Recorded at offset 0 of the retry attempt's
    /// trace, spanning the jittered wait.
    Retry,
    /// Routing to a shard and job construction.
    Dispatch,
    /// Residency in the shard's bounded queue (crosses threads).
    ShardQueue,
    /// Worker-side dequeue, deadline gate, and batch coalescing.
    WorkerDequeue,
    /// Snapshot pin, index-cache attach, fingerprint, and cache probe.
    SnapshotPin,
    /// Lineage computation, arena interning, and minimization.
    LineageIntern,
    /// Responsibility kernel solve (per-cause Exact/Flow computation).
    KernelSolve,
    /// Anytime bound refinement on the approximation path (NP-hard
    /// requests routed under a deadline); absent on exact routes.
    ApproxRefine,
    /// Response assembly and channel send.
    Respond,
}

impl Stage {
    /// All stages, in serving-path order.
    pub const ALL: [Stage; 10] = [
        Stage::Admission,
        Stage::Retry,
        Stage::Dispatch,
        Stage::ShardQueue,
        Stage::WorkerDequeue,
        Stage::SnapshotPin,
        Stage::LineageIntern,
        Stage::KernelSolve,
        Stage::ApproxRefine,
        Stage::Respond,
    ];

    /// Stable snake_case name used in JSONL output and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Retry => "retry",
            Stage::Dispatch => "dispatch",
            Stage::ShardQueue => "shard_queue",
            Stage::WorkerDequeue => "worker_dequeue",
            Stage::SnapshotPin => "snapshot_pin",
            Stage::LineageIntern => "lineage_intern",
            Stage::KernelSolve => "kernel_solve",
            Stage::ApproxRefine => "approx_refine",
            Stage::Respond => "respond",
        }
    }
}

/// One timed stage within a request trace. Offsets are microseconds since
/// the trace origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Which serving-path stage this span covers.
    pub stage: Stage,
    /// Start offset, µs since the request entered the frontend.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// A finished request trace: span breakdown plus causal attributes.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Per-shard monotonically increasing trace id.
    pub seq: u64,
    /// Index of the shard that served the request.
    pub shard: usize,
    /// Tenant key the request was routed by.
    pub tenant: u64,
    /// Request kind: `why_so`, `why_no`, or `rank_top_k`.
    pub kind: &'static str,
    /// Final outcome: `ok`, `deadline_exceeded`, `overloaded`, ….
    pub outcome: &'static str,
    /// Whether the responsibility cache answered the request.
    pub cache_hit: bool,
    /// Whether this request rode along on another's computation.
    pub coalesced: bool,
    /// Number of relations (subgoals) in the query.
    pub relations: usize,
    /// Dichotomy class label from `core::dichotomy` (e.g. `PTIME`).
    pub dichotomy: &'static str,
    /// Conjunct count of the minimized lineage.
    pub lineage_conjuncts: u64,
    /// Top responsibility among returned causes (0.0 when none).
    pub rho_max: f64,
    /// Snapshot version the request was answered against.
    pub snapshot_version: u64,
    /// Signed µs of deadline slack at respond time (negative = missed);
    /// `None` when the request carried no deadline.
    pub deadline_slack_us: Option<i64>,
    /// End-to-end latency in µs.
    pub total_us: u64,
    /// Per-stage breakdown, in start order.
    pub stages: Vec<StageSpan>,
}

impl RequestTrace {
    /// Returns the span for `stage`, if recorded.
    pub fn stage(&self, stage: Stage) -> Option<&StageSpan> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Renders the trace as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"seq\":{},\"shard\":{},\"tenant\":{},\"kind\":{},\"outcome\":{},\
             \"cache_hit\":{},\"coalesced\":{},\"relations\":{},\"dichotomy\":{},\
             \"lineage_conjuncts\":{},\"rho_max\":{},\"snapshot_version\":{}",
            self.seq,
            self.shard,
            self.tenant,
            crate::export::escape_json(self.kind),
            crate::export::escape_json(self.outcome),
            self.cache_hit,
            self.coalesced,
            self.relations,
            crate::export::escape_json(self.dichotomy),
            self.lineage_conjuncts,
            crate::export::fmt_f64(self.rho_max),
            self.snapshot_version,
        );
        match self.deadline_slack_us {
            Some(slack) => {
                let _ = write!(out, ",\"deadline_slack_us\":{slack}");
            }
            None => out.push_str(",\"deadline_slack_us\":null"),
        }
        let _ = write!(out, ",\"total_us\":{},\"stages\":[", self.total_us);
        for (i, span) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                span.stage.as_str(),
                span.start_us,
                span.dur_us
            );
        }
        out.push_str("]}");
        out
    }
}

/// Builds a [`RequestTrace`] incrementally as a request moves through the
/// tier. Allocated only for sampled requests (boxed, carried inside the
/// job), so unsampled requests pay a single atomic add and nothing else.
#[derive(Debug)]
pub struct TraceBuilder {
    origin: Instant,
    seq: u64,
    shard: usize,
    tenant: u64,
    kind: &'static str,
    relations: usize,
    deadline: Option<Instant>,
    outcome: &'static str,
    cache_hit: bool,
    coalesced: bool,
    dichotomy: &'static str,
    lineage_conjuncts: u64,
    rho_max: f64,
    snapshot_version: u64,
    stages: Vec<StageSpan>,
    open: Option<(Stage, u64)>,
}

impl TraceBuilder {
    /// Starts a trace at `origin` (the instant the request entered the
    /// frontend) with the [`Stage::Admission`] stage already open.
    pub fn new(origin: Instant, seq: u64) -> Self {
        Self {
            origin,
            seq,
            shard: 0,
            tenant: 0,
            kind: "unknown",
            relations: 0,
            deadline: None,
            outcome: "unknown",
            cache_hit: false,
            coalesced: false,
            dichotomy: "unknown",
            lineage_conjuncts: 0,
            rho_max: 0.0,
            snapshot_version: 0,
            stages: Vec::with_capacity(Stage::ALL.len()),
            open: Some((Stage::Admission, 0)),
        }
    }

    /// Microseconds from the trace origin to `t` (0 if `t` precedes it).
    pub fn offset_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Records request identity and routing attributes.
    pub fn set_request(&mut self, shard: usize, tenant: u64, kind: &'static str, relations: usize) {
        self.shard = shard;
        self.tenant = tenant;
        self.kind = kind;
        self.relations = relations;
    }

    /// Records the absolute deadline, if the request carries one.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Records the final outcome label.
    pub fn set_outcome(&mut self, outcome: &'static str) {
        self.outcome = outcome;
    }

    /// Records whether the responsibility cache served the request.
    pub fn set_cache_hit(&mut self, hit: bool) {
        self.cache_hit = hit;
    }

    /// Marks this request as a coalesced rider on another computation.
    pub fn mark_coalesced(&mut self) {
        self.coalesced = true;
    }

    /// Records the snapshot version the request was answered against.
    pub fn set_snapshot_version(&mut self, version: u64) {
        self.snapshot_version = version;
    }

    /// Records explanation-level attributes: dichotomy class label,
    /// minimized lineage conjunct count, and top responsibility.
    pub fn set_explanation(&mut self, dichotomy: &'static str, conjuncts: u64, rho_max: f64) {
        self.dichotomy = dichotomy;
        self.lineage_conjuncts = conjuncts;
        self.rho_max = rho_max;
    }

    fn close_open(&mut self, at_us: u64) {
        if let Some((stage, start_us)) = self.open.take() {
            self.stages.push(StageSpan {
                stage,
                start_us,
                dur_us: at_us.saturating_sub(start_us),
            });
        }
    }

    /// Closes any open stage now and opens `stage` in its place. This is
    /// the cross-thread primitive: the frontend opens
    /// [`Stage::ShardQueue`] before enqueueing and the worker closes it by
    /// beginning [`Stage::WorkerDequeue`] after the hop.
    pub fn begin(&mut self, stage: Stage) {
        let now = self.offset_us(Instant::now());
        self.close_open(now);
        self.open = Some((stage, now));
    }

    /// Records a fully measured span, closing any open stage at the
    /// span's start. Used when one computation is timed once and charged
    /// to every coalesced rider's trace.
    pub fn record_span(&mut self, stage: Stage, start: Instant, dur: Duration) {
        let start_us = self.offset_us(start);
        self.close_open(start_us);
        self.stages.push(StageSpan {
            stage,
            start_us,
            dur_us: dur.as_micros().min(u128::from(u64::MAX)) as u64,
        });
    }

    /// Finishes the trace: closes any open stage, computes the total and
    /// deadline slack, and returns the immutable record.
    pub fn finish(mut self) -> RequestTrace {
        let now = Instant::now();
        let now_us = self.offset_us(now);
        self.close_open(now_us);
        let deadline_slack_us = self.deadline.map(|d| {
            if d >= now {
                d.saturating_duration_since(now)
                    .as_micros()
                    .min(i64::MAX as u128) as i64
            } else {
                -(now
                    .saturating_duration_since(d)
                    .as_micros()
                    .min(i64::MAX as u128) as i64)
            }
        });
        RequestTrace {
            seq: self.seq,
            shard: self.shard,
            tenant: self.tenant,
            kind: self.kind,
            outcome: self.outcome,
            cache_hit: self.cache_hit,
            coalesced: self.coalesced,
            relations: self.relations,
            dichotomy: self.dichotomy,
            lineage_conjuncts: self.lineage_conjuncts,
            rho_max: self.rho_max,
            snapshot_version: self.snapshot_version,
            deadline_slack_us,
            total_us: now_us,
            stages: self.stages,
        }
    }
}

/// Deterministic fixed-point sampler: a shared accumulator advances by
/// `rate * 2^16` per request and a request is sampled whenever the
/// accumulator crosses a whole-unit boundary. Rate 1.0 samples every
/// request, rate 0.0 samples none, and intermediate rates sample evenly
/// (no RNG, no clock reads).
#[derive(Debug)]
pub struct Sampler {
    rate_fp: u64,
    acc: AtomicU64,
}

/// Fixed-point scale for [`Sampler`] rates.
const SAMPLE_SCALE: u64 = 1 << 16;

impl Sampler {
    /// Creates a sampler for `rate`, clamped to `[0.0, 1.0]` (NaN → 0).
    pub fn new(rate: f64) -> Self {
        let clamped = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        Self {
            rate_fp: (clamped * SAMPLE_SCALE as f64).round() as u64,
            acc: AtomicU64::new(0),
        }
    }

    /// Decides whether the next request is sampled.
    pub fn sample(&self) -> bool {
        if self.rate_fp == 0 {
            return false;
        }
        if self.rate_fp >= SAMPLE_SCALE {
            return true;
        }
        let prev = self.acc.fetch_add(self.rate_fp, Ordering::Relaxed);
        (prev % SAMPLE_SCALE) + self.rate_fp >= SAMPLE_SCALE
    }
}

/// A bounded ring of finished traces; pushing past capacity evicts the
/// oldest entry.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<RequestTrace>>,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Appends a trace, returning `true` if an older trace was evicted
    /// (or the trace was dropped outright because capacity is zero).
    pub fn push(&self, trace: RequestTrace) -> bool {
        if self.capacity == 0 {
            return true;
        }
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let evicted = ring.len() == self.capacity;
        if evicted {
            ring.pop_front();
        }
        ring.push_back(trace);
        evicted
    }

    /// Returns a copy of the retained traces, oldest first. The ring is
    /// left intact, so exports are idempotent.
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring currently holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(seq: u64) -> RequestTrace {
        let mut tb = TraceBuilder::new(Instant::now(), seq);
        tb.set_outcome("ok");
        tb.finish()
    }

    #[test]
    fn builder_closes_the_open_stage_on_begin_and_finish() {
        let mut tb = TraceBuilder::new(Instant::now(), 7);
        tb.begin(Stage::Dispatch);
        tb.begin(Stage::ShardQueue);
        let trace = tb.finish();
        let order: Vec<Stage> = trace.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            order,
            vec![Stage::Admission, Stage::Dispatch, Stage::ShardQueue]
        );
        for pair in trace.stages.windows(2) {
            assert!(pair[0].start_us <= pair[1].start_us);
        }
        assert_eq!(trace.seq, 7);
    }

    #[test]
    fn record_span_charges_shared_measurements_to_riders() {
        let origin = Instant::now();
        let mut tb = TraceBuilder::new(origin, 0);
        tb.begin(Stage::WorkerDequeue);
        let start = Instant::now();
        tb.record_span(Stage::KernelSolve, start, Duration::from_micros(1234));
        let trace = tb.finish();
        let solve = trace.stage(Stage::KernelSolve).unwrap();
        assert_eq!(solve.dur_us, 1234);
    }

    #[test]
    fn sampler_rate_one_takes_everything_and_zero_takes_nothing() {
        let all = Sampler::new(1.0);
        let none = Sampler::new(0.0);
        for _ in 0..100 {
            assert!(all.sample());
            assert!(!none.sample());
        }
        let nan = Sampler::new(f64::NAN);
        assert!(!nan.sample());
    }

    #[test]
    fn sampler_intermediate_rates_sample_proportionally() {
        let half = Sampler::new(0.5);
        let taken = (0..1000).filter(|_| half.sample()).count();
        assert_eq!(taken, 500);
        let tenth = Sampler::new(0.1);
        let taken = (0..1000).filter(|_| tenth.sample()).count();
        assert!((90..=110).contains(&taken), "got {taken}");
    }

    #[test]
    fn ring_overwrites_oldest_without_unbounded_growth() {
        let ring = TraceRing::new(3);
        let mut evictions = 0;
        for seq in 0..10 {
            if ring.push(finished(seq)) {
                evictions += 1;
            }
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(evictions, 7);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let ring = TraceRing::new(0);
        assert!(ring.push(finished(0)));
        assert!(ring.is_empty());
    }

    #[test]
    fn trace_json_is_one_object_with_stage_array() {
        let mut tb = TraceBuilder::new(Instant::now(), 3);
        tb.set_request(1, 42, "why_so", 2);
        tb.set_outcome("ok");
        tb.set_explanation("PTIME", 4, 0.5);
        let json = tb.finish().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"kind\":\"why_so\""));
        assert!(json.contains("\"dichotomy\":\"PTIME\""));
        assert!(json.contains("\"rho_max\":0.5"));
        assert!(json.contains("\"deadline_slack_us\":null"));
        assert!(json.contains("\"stages\":[{\"stage\":\"admission\""));
    }

    #[test]
    fn deadline_slack_is_signed() {
        let origin = Instant::now();
        let mut tb = TraceBuilder::new(origin, 0);
        tb.set_deadline(origin + Duration::from_secs(30));
        let slack = tb.finish().deadline_slack_us.unwrap();
        assert!(slack > 0, "future deadline must give positive slack");

        let mut tb = TraceBuilder::new(origin, 0);
        tb.set_deadline(origin);
        std::thread::sleep(Duration::from_millis(2));
        let slack = tb.finish().deadline_slack_us.unwrap();
        assert!(slack < 0, "missed deadline must give negative slack");
    }
}

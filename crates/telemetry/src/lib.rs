//! Std-only observability primitives for the causality serving tier.
//!
//! Three pieces, designed to be threaded through a sharded service
//! without adding dependencies or hot-path locks:
//!
//! - **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]): named atomics handed out as shared handles, with a
//!   Prometheus-text exporter that exposes full histogram bucket
//!   vectors.
//! - **Tracing** ([`TraceBuilder`], [`Span`], [`Stage`]): per-request
//!   span chains measured against a single origin instant so timestamps
//!   stay monotone across the frontend→worker thread hop, sampled by a
//!   deterministic fixed-point [`Sampler`] and retained in a bounded
//!   per-shard [`TraceRing`].
//! - **Slow-log** (part of [`Telemetry`]): finished traces that exceed a
//!   configurable latency threshold — or come too close to (or past)
//!   their deadline — are copied into a second ring so NP-hard outliers
//!   remain diagnosable after the fact.
//!
//! The crate knows nothing about queries or lineage; the service layer
//! stamps domain attributes (dichotomy class, conjunct counts, ρ) onto
//! traces through plain setters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod trace;

pub use export::traces_jsonl;
pub use metrics::{
    prometheus_text, quantile_us, Counter, Gauge, Histogram, MetricKind, MetricSample,
    MetricsRegistry, LATENCY_BUCKETS,
};
pub use trace::{RequestTrace, Sampler, Span, Stage, StageSpan, TraceBuilder, TraceRing};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tracing and slow-log configuration, carried inside the service
/// config. `Copy` so existing `..Default::default()` construction sites
/// keep working.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Fraction of requests to trace, in `[0.0, 1.0]`. 1.0 traces every
    /// request; 0.0 disables tracing entirely (no allocation per
    /// request).
    pub sample_rate: f64,
    /// Per-shard capacity of the recent-trace ring.
    pub trace_ring: usize,
    /// Per-shard capacity of the slow-log ring.
    pub slow_ring: usize,
    /// Traces at least this slow enter the slow-log.
    pub slow_latency: Option<Duration>,
    /// Traces finishing with less deadline slack than this (including
    /// negative slack, i.e. missed deadlines) enter the slow-log. Only
    /// applies to requests that carried a deadline.
    pub slow_slack: Option<Duration>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_rate: 1.0,
            trace_ring: 256,
            slow_ring: 64,
            slow_latency: None,
            slow_slack: None,
        }
    }
}

impl TelemetryConfig {
    /// Clamps the sample rate into `[0.0, 1.0]` (NaN → 0).
    pub fn sanitized(self) -> Self {
        let rate = if self.sample_rate.is_nan() {
            0.0
        } else {
            self.sample_rate.clamp(0.0, 1.0)
        };
        Self {
            sample_rate: rate,
            ..self
        }
    }

    /// Convenience: tracing fully disabled.
    pub fn disabled() -> Self {
        Self {
            sample_rate: 0.0,
            ..Self::default()
        }
    }
}

/// Per-shard telemetry hub: owns the sampler, trace sequence, the
/// recent-trace and slow-log rings, and the counters describing them.
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    sampler: Sampler,
    seq: AtomicU64,
    ring: TraceRing,
    slow: TraceRing,
    sampled: Arc<Counter>,
    overwritten: Arc<Counter>,
    slow_records: Arc<Counter>,
}

impl Telemetry {
    /// Builds a hub for one shard, registering its bookkeeping counters
    /// (`traces_sampled_total`, `traces_overwritten_total`,
    /// `slow_log_records_total`) in `registry`.
    pub fn new(cfg: TelemetryConfig, registry: &MetricsRegistry) -> Self {
        let cfg = cfg.sanitized();
        Self {
            cfg,
            sampler: Sampler::new(cfg.sample_rate),
            seq: AtomicU64::new(0),
            ring: TraceRing::new(cfg.trace_ring),
            slow: TraceRing::new(cfg.slow_ring),
            sampled: registry.counter("traces_sampled_total"),
            overwritten: registry.counter("traces_overwritten_total"),
            slow_records: registry.counter("slow_log_records_total"),
        }
    }

    /// The (sanitized) configuration this hub runs with.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Starts a trace for a request that entered the frontend at
    /// `origin`, if the sampler selects it. Returns `None` — without
    /// allocating — for unsampled requests.
    pub fn start(&self, origin: Instant) -> Option<Box<TraceBuilder>> {
        if !self.sampler.sample() {
            return None;
        }
        self.sampled.inc();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(TraceBuilder::new(origin, seq)))
    }

    /// Records a finished trace into the ring, copying it into the
    /// slow-log if it crossed a configured threshold.
    pub fn record(&self, trace: RequestTrace) {
        if self.is_slow(&trace) {
            self.slow_records.inc();
            self.slow.push(trace.clone());
        }
        if self.ring.push(trace) {
            self.overwritten.inc();
        }
    }

    fn is_slow(&self, trace: &RequestTrace) -> bool {
        if let Some(threshold) = self.cfg.slow_latency {
            if u128::from(trace.total_us) >= threshold.as_micros() {
                return true;
            }
        }
        if let (Some(threshold), Some(slack)) = (self.cfg.slow_slack, trace.deadline_slack_us) {
            if i128::from(slack) < threshold.as_micros() as i128 {
                return true;
            }
        }
        false
    }

    /// Copies out the retained recent traces, oldest first.
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.ring.snapshot()
    }

    /// Copies out the retained slow-log records, oldest first.
    pub fn slow_log(&self) -> Vec<RequestTrace> {
        self.slow.snapshot()
    }

    /// Number of traces the sampler has selected so far.
    pub fn sampled_count(&self) -> u64 {
        self.sampled.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sampling_never_allocates_a_builder() {
        let registry = MetricsRegistry::new();
        let hub = Telemetry::new(TelemetryConfig::disabled(), &registry);
        for _ in 0..50 {
            assert!(hub.start(Instant::now()).is_none());
        }
        assert_eq!(hub.sampled_count(), 0);
        assert!(hub.traces().is_empty());
    }

    #[test]
    fn full_sampling_traces_every_request_with_monotone_seq() {
        let registry = MetricsRegistry::new();
        let hub = Telemetry::new(TelemetryConfig::default(), &registry);
        for expect in 0..5u64 {
            let tb = hub.start(Instant::now()).expect("rate 1.0 samples all");
            let trace = tb.finish();
            assert_eq!(trace.seq, expect);
            hub.record(trace);
        }
        assert_eq!(hub.sampled_count(), 5);
        assert_eq!(hub.traces().len(), 5);
    }

    #[test]
    fn slow_log_catches_latency_threshold_crossers() {
        let registry = MetricsRegistry::new();
        let cfg = TelemetryConfig {
            slow_latency: Some(Duration::from_micros(1)),
            ..TelemetryConfig::default()
        };
        let hub = Telemetry::new(cfg, &registry);
        let tb = hub.start(Instant::now()).unwrap();
        std::thread::sleep(Duration::from_millis(1));
        hub.record(tb.finish());
        assert_eq!(hub.slow_log().len(), 1);
        assert_eq!(registry.counter("slow_log_records_total").get(), 1);
    }

    #[test]
    fn slow_log_catches_deadline_slack_below_threshold() {
        let registry = MetricsRegistry::new();
        let cfg = TelemetryConfig {
            slow_slack: Some(Duration::from_millis(100)),
            ..TelemetryConfig::default()
        };
        let hub = Telemetry::new(cfg, &registry);

        let origin = Instant::now();
        let mut tight = hub.start(origin).unwrap();
        tight.set_deadline(origin + Duration::from_millis(1));
        hub.record(tight.finish());
        assert_eq!(hub.slow_log().len(), 1, "sub-threshold slack is slow");

        let mut roomy = hub.start(Instant::now()).unwrap();
        roomy.set_deadline(Instant::now() + Duration::from_secs(60));
        hub.record(roomy.finish());
        assert_eq!(hub.slow_log().len(), 1, "ample slack is not slow");

        let undeadlined = hub.start(Instant::now()).unwrap();
        hub.record(undeadlined.finish());
        assert_eq!(hub.slow_log().len(), 1, "no deadline, no slack rule");
    }

    #[test]
    fn ring_overwrites_are_counted() {
        let registry = MetricsRegistry::new();
        let cfg = TelemetryConfig {
            trace_ring: 2,
            ..TelemetryConfig::default()
        };
        let hub = Telemetry::new(cfg, &registry);
        for _ in 0..5 {
            let tb = hub.start(Instant::now()).unwrap();
            hub.record(tb.finish());
        }
        assert_eq!(hub.traces().len(), 2);
        assert_eq!(registry.counter("traces_overwritten_total").get(), 3);
    }

    #[test]
    fn config_sanitizes_nan_and_out_of_range_rates() {
        assert_eq!(
            TelemetryConfig {
                sample_rate: f64::NAN,
                ..TelemetryConfig::default()
            }
            .sanitized()
            .sample_rate,
            0.0
        );
        assert_eq!(
            TelemetryConfig {
                sample_rate: 7.5,
                ..TelemetryConfig::default()
            }
            .sanitized()
            .sample_rate,
            1.0
        );
    }
}

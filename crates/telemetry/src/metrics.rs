//! Named counters, gauges, and latency histograms behind atomics.
//!
//! The [`MetricsRegistry`] hands out shared handles (`Arc<Counter>` and
//! friends) keyed by name. Handles are cheap to clone and lock-free to
//! update; the registry itself is only locked at registration and export
//! time, never on the hot path. The exporter renders every registered
//! metric in Prometheus text format — including the full histogram
//! bucket vector, not just a pair of quantiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of power-of-two latency buckets. Bucket `i` covers durations in
/// `[2^i, 2^(i+1))` microseconds, with bucket 0 also absorbing sub-µs
/// samples and bucket 27 absorbing everything from ~134s up.
pub const LATENCY_BUCKETS: usize = 28;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Atomically returns the current value and resets it to zero.
    ///
    /// The swap is a single atomic operation, so concurrent increments are
    /// either observed in the returned value or land in the fresh epoch —
    /// never both, never neither.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down but never below zero.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero.
    ///
    /// Uses a CAS loop rather than `fetch_sub` so a racing decrement can
    /// never wrap the gauge around to `u64::MAX`.
    pub fn dec(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency histogram with [`LATENCY_BUCKETS`] power-of-two µs buckets
/// plus a running sum of observed microseconds (for Prometheus `_sum`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// Maps a microsecond duration to its bucket index.
fn bucket_of(us: u64) -> usize {
    (us.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration sample.
    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample expressed in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Returns the bucket counts, optionally resetting them.
    ///
    /// Each bucket is read (or swapped to zero) with a single atomic
    /// operation, so no concurrent sample is ever dropped or double
    /// counted per bucket; a sample recorded mid-walk lands either in the
    /// returned snapshot or in the next epoch.
    pub fn counts(&self, reset: bool) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = if reset {
                bucket.swap(0, Ordering::Relaxed)
            } else {
                bucket.load(Ordering::Relaxed)
            };
        }
        out
    }

    /// Returns the running sum of observed microseconds, optionally
    /// resetting it.
    pub fn sum_us(&self, reset: bool) -> u64 {
        if reset {
            self.sum_us.swap(0, Ordering::Relaxed)
        } else {
            self.sum_us.load(Ordering::Relaxed)
        }
    }
}

/// Returns the `q`-quantile (0.0 ..= 1.0) of a bucketed latency
/// distribution, as the lower bound of the bucket holding the ranked
/// sample. Returns 0 for an empty histogram.
pub fn quantile_us(buckets: &[u64; LATENCY_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << i;
        }
    }
    1u64 << (LATENCY_BUCKETS - 1)
}

/// What kind of metric a registry entry is; drives exporter rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Bucketed latency histogram.
    Histogram,
}

/// A point-in-time reading of one registered metric.
#[derive(Clone, Debug)]
pub struct MetricSample {
    /// Registered metric name (without any exporter prefix).
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Scalar value for counters and gauges; total count for histograms.
    pub value: u64,
    /// Bucket counts (histograms only).
    pub buckets: Option<[u64; LATENCY_BUCKETS]>,
    /// Sum of observed microseconds (histograms only).
    pub sum_us: u64,
}

/// A registry of named metrics. One registry exists per shard; handles
/// are registered once at shard spawn and shared with the hot path.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn get_or_insert<T: Default>(slot: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut entries = slot.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, existing)) = entries.iter().find(|(n, _)| n == name) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(T::default());
    entries.push((name.to_owned(), Arc::clone(&fresh)));
    fresh
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Returns the histogram registered under `name`, creating it if
    /// absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Reads every registered metric, in registration order (counters,
    /// then gauges, then histograms).
    pub fn samples(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for (name, c) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            out.push(MetricSample {
                name: name.clone(),
                kind: MetricKind::Counter,
                value: c.get(),
                buckets: None,
                sum_us: 0,
            });
        }
        for (name, g) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            out.push(MetricSample {
                name: name.clone(),
                kind: MetricKind::Gauge,
                value: g.get(),
                buckets: None,
                sum_us: 0,
            });
        }
        for (name, h) in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let buckets = h.counts(false);
            out.push(MetricSample {
                name: name.clone(),
                kind: MetricKind::Histogram,
                value: buckets.iter().sum(),
                buckets: Some(buckets),
                sum_us: h.sum_us(false),
            });
        }
        out
    }
}

/// Renders a set of per-shard registries as Prometheus text format.
///
/// Metric names are prefixed with `prefix` (e.g. `causality_`) and every
/// sample carries a `shard="i"` label taken from the slice index. `# TYPE`
/// lines are emitted once per metric name, as the format requires, with
/// all shards' samples grouped beneath them. Histograms render cumulative
/// `_bucket` series with `le` upper bounds of `2^(i+1)` µs plus `+Inf`,
/// and `_sum` / `_count` series.
pub fn prometheus_text(shards: &[&MetricsRegistry], prefix: &str) -> String {
    use std::fmt::Write as _;
    let per_shard: Vec<Vec<MetricSample>> = shards.iter().map(|r| r.samples()).collect();
    let mut seen: Vec<(String, MetricKind)> = Vec::new();
    for samples in &per_shard {
        for s in samples {
            if !seen.iter().any(|(n, _)| *n == s.name) {
                seen.push((s.name.clone(), s.kind));
            }
        }
    }
    let mut out = String::new();
    for (name, kind) in &seen {
        let full = format!("{prefix}{name}");
        let type_str = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let _ = writeln!(out, "# TYPE {full} {type_str}");
        for (shard, samples) in per_shard.iter().enumerate() {
            let Some(s) = samples.iter().find(|s| s.name == *name) else {
                continue;
            };
            match s.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    let _ = writeln!(out, "{full}{{shard=\"{shard}\"}} {}", s.value);
                }
                MetricKind::Histogram => {
                    let buckets = s.buckets.unwrap_or([0; LATENCY_BUCKETS]);
                    let mut cumulative = 0u64;
                    for (i, count) in buckets.iter().enumerate() {
                        cumulative += count;
                        let le = 1u128 << (i + 1);
                        let _ = writeln!(
                            out,
                            "{full}_bucket{{shard=\"{shard}\",le=\"{le}\"}} {cumulative}"
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{full}_bucket{{shard=\"{shard}\",le=\"+Inf\"}} {cumulative}"
                    );
                    let _ = writeln!(out, "{full}_sum{{shard=\"{shard}\"}} {}", s.sum_us);
                    let _ = writeln!(out, "{full}_count{{shard=\"{shard}\"}} {cumulative}");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_take_is_a_single_swap() {
        let c = Counter::new();
        c.add(5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let g = Gauge::new();
        g.add(3);
        g.dec(10);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let buckets = [0u64; LATENCY_BUCKETS];
        assert_eq!(quantile_us(&buckets, 0.5), 0);
        assert_eq!(quantile_us(&buckets, 0.99), 0);
    }

    #[test]
    fn single_sample_p50_equals_p99() {
        let h = Histogram::new();
        h.record_us(300);
        let buckets = h.counts(false);
        assert_eq!(quantile_us(&buckets, 0.5), quantile_us(&buckets, 0.99));
        assert_eq!(quantile_us(&buckets, 0.5), 256);
    }

    #[test]
    fn bucket_boundary_values_land_in_the_expected_bucket() {
        // 2^10 = 1024 µs opens bucket 10; 1023 µs stays in bucket 9.
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1025), 10);
        // Sub-µs and 1 µs samples share bucket 0; 2 µs opens bucket 1.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        // The top bucket absorbs everything else.
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_sum_tracks_recorded_microseconds() {
        let h = Histogram::new();
        h.record_us(100);
        h.record_us(200);
        assert_eq!(h.sum_us(false), 300);
        assert_eq!(h.sum_us(true), 300);
        assert_eq!(h.sum_us(false), 0);
    }

    #[test]
    fn registry_returns_the_same_handle_for_the_same_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn prometheus_text_emits_one_type_line_per_metric() {
        let r0 = MetricsRegistry::new();
        let r1 = MetricsRegistry::new();
        r0.counter("requests_total").add(2);
        r1.counter("requests_total").add(3);
        r0.histogram("latency_us").record_us(10);
        r1.histogram("latency_us").record_us(2000);
        let text = prometheus_text(&[&r0, &r1], "causality_");
        assert_eq!(
            text.matches("# TYPE causality_requests_total counter")
                .count(),
            1
        );
        assert!(text.contains("causality_requests_total{shard=\"0\"} 2"));
        assert!(text.contains("causality_requests_total{shard=\"1\"} 3"));
        assert!(text.contains("causality_latency_us_bucket{shard=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("causality_latency_us_sum{shard=\"1\"} 2000"));
        assert!(text.contains("causality_latency_us_count{shard=\"1\"} 1"));
    }
}

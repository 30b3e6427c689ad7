//! Service observability: the per-shard metric set, snapshotted (and
//! optionally reset) on demand.
//!
//! Every monotone counter is declared once, in the `counters!` table at
//! the bottom of this module, as `(field, registry name, reset policy,
//! doc)`. The table generates the hot-path handles (`StatsCounters`),
//! their registration in the shard's [`MetricsRegistry`] (in table
//! order), the matching [`ServiceStats`] fields, and the field-wise
//! bodies of snapshotting, [`ServiceStats::empty`] and
//! [`ServiceStats::merge`], so a counter cannot be added to one view and
//! forgotten in another. Because the registry owns the atomics, the
//! same counters that feed [`ServiceStats`] are exported — full
//! histogram buckets included — through
//! [`ShardedService::export_metrics`](crate::ShardedService::export_metrics)
//! in Prometheus text or JSONL form. Recording stays lock-free: workers
//! bump relaxed atomics through shared handles; the registry is only
//! locked at registration and export time.
//!
//! `snapshot_and_reset` reads each counter with a single atomic `swap`,
//! so a concurrent in-flight increment lands either in the returned
//! snapshot or in the next epoch — never both, never neither (see the
//! conservation test below).

use causality_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

pub use causality_telemetry::{quantile_us, LATENCY_BUCKETS};

/// Whether `snapshot_and_reset` zeroes a counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Policy {
    /// Zeroed at every phase boundary.
    Reset,
    /// Never reset: a phase boundary does not undo a restart or a
    /// quarantine.
    Lifecycle,
}

impl Policy {
    fn read(self, counter: &Counter, reset: bool) -> u64 {
        if reset && self == Policy::Reset {
            counter.take()
        } else {
            counter.get()
        }
    }
}

/// Expands the counter table into `StatsCounters`, `ServiceStats` and
/// the field-wise bodies that must list every counter.
macro_rules! counters {
    ($($(#[$doc:meta])+ $field:ident: $name:literal, $policy:ident;)+) => {
        /// Internal counters bumped by workers and the submit path —
        /// shared handles into the shard's [`MetricsRegistry`].
        ///
        /// Besides the table's monotone counters, `queue_depth` is a live
        /// gauge (incremented on admission, decremented when a worker
        /// drains the job) and is therefore never reset.
        #[derive(Debug)]
        pub(crate) struct StatsCounters {
            $(pub $field: Arc<Counter>,)+
            pub queue_depth: Arc<Gauge>,
            pub latency: Arc<Histogram>,
            /// Width of the certified ρ bracket each anytime answer
            /// shipped with, in parts-per-million of the full `[0, 1]`
            /// range (0 = the bounds collapsed to the exact ρ within
            /// budget).
            pub bound_width: Arc<Histogram>,
        }

        impl StatsCounters {
            /// Registers the canonical service metrics in `registry` —
            /// the table's counters in table order, then the gauge and
            /// the histograms — and keeps shared handles for the hot
            /// path.
            pub(crate) fn new(registry: &MetricsRegistry) -> Self {
                StatsCounters {
                    $($field: registry.counter($name),)+
                    queue_depth: registry.gauge("queue_depth"),
                    latency: registry.histogram("latency_us"),
                    bound_width: registry.histogram("bound_width_ppm"),
                }
            }

            fn assemble(
                &self,
                workers: usize,
                snapshot_version: u64,
                index_entries: u64,
                reset: bool,
            ) -> ServiceStats {
                if reset {
                    // Not surfaced in `ServiceStats` (it is exported
                    // through the registry), but phase-isolated like every
                    // other histogram.
                    let _ = self.bound_width.counts(true);
                }
                ServiceStats {
                    workers,
                    snapshot_version,
                    $($field: Policy::$policy.read(&self.$field, reset),)+
                    index_entries,
                    // A gauge, not a counter: resetting it would lie about
                    // the jobs still sitting in the queue.
                    queue_depth: self.queue_depth.get(),
                    latency_buckets: self.latency.counts(reset),
                }
            }

            /// Every counter of the table: registry name, reset policy,
            /// and handle.
            #[cfg(test)]
            fn table(&self) -> Vec<(&'static str, Policy, &Counter)> {
                vec![$(($name, Policy::$policy, &*self.$field),)+]
            }
        }

        /// A point-in-time view of a service's (or one shard's) counters.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct ServiceStats {
            /// Number of worker threads.
            pub workers: usize,
            /// Version of the currently published snapshot (highest
            /// tenant version on a multi-tenant shard).
            pub snapshot_version: u64,
            $($(#[$doc])+ pub $field: u64,)+
            /// Join indexes currently held by the shared index cache —
            /// one per (relation, content version, binding pattern)
            /// served so far.
            pub index_entries: u64,
            /// Jobs currently admitted but not yet drained by a worker (a
            /// live gauge — not reset by `snapshot_and_reset`).
            pub queue_depth: u64,
            /// Response-latency histogram counts (submit → response),
            /// bucket `i` covering `[2^i, 2^(i+1))` µs. Query with
            /// [`ServiceStats::p50_us`] / [`ServiceStats::p99_us`] /
            /// [`ServiceStats::latency_quantile_us`].
            pub latency_buckets: [u64; LATENCY_BUCKETS],
        }

        impl ServiceStats {
            /// The all-zero stats view (0 workers, no samples) — the
            /// identity element of [`ServiceStats::merge`].
            pub fn empty() -> Self {
                ServiceStats {
                    workers: 0,
                    snapshot_version: 0,
                    $($field: 0,)+
                    index_entries: 0,
                    queue_depth: 0,
                    latency_buckets: [0; LATENCY_BUCKETS],
                }
            }

            /// Fold another stats view into this one (used to aggregate
            /// shards): counters, gauges, and histograms add; `workers`
            /// adds; `snapshot_version` and `index_entries` take the max
            /// / sum respectively.
            pub fn merge(&mut self, other: &ServiceStats) {
                self.workers += other.workers;
                self.snapshot_version = self.snapshot_version.max(other.snapshot_version);
                $(self.$field += other.$field;)+
                self.index_entries += other.index_entries;
                self.queue_depth += other.queue_depth;
                for (mine, theirs) in self.latency_buckets.iter_mut().zip(&other.latency_buckets) {
                    *mine += theirs;
                }
            }

            /// The table's counters, in table order.
            #[cfg(test)]
            fn counter_values(&self) -> Vec<u64> {
                vec![$(self.$field,)+]
            }
        }
    };
}

impl StatsCounters {
    /// A point-in-time view; counters keep accumulating.
    pub(crate) fn snapshot(
        &self,
        workers: usize,
        snapshot_version: u64,
        index_entries: u64,
    ) -> ServiceStats {
        self.assemble(workers, snapshot_version, index_entries, false)
    }

    /// A point-in-time view that also zeroes every `Reset` counter and
    /// the latency histogram (the `queue_depth` gauge and the
    /// `Lifecycle` counters are left live), so successive measurement
    /// phases — e.g. a warmup and the timed window after it — never
    /// bleed into each other.
    ///
    /// Each counter is reset with one atomic `swap(0)`, so per counter a
    /// concurrent increment is either observed in this snapshot or
    /// carried into the next phase — jobs are never double-counted or
    /// lost across the boundary. (Different counters are swapped at
    /// slightly different instants, so *cross*-counter invariants like
    /// `hits + misses == requests` may be off by in-flight requests in
    /// any single snapshot; summing phases restores them.)
    pub(crate) fn snapshot_and_reset(
        &self,
        workers: usize,
        snapshot_version: u64,
        index_entries: u64,
    ) -> ServiceStats {
        self.assemble(workers, snapshot_version, index_entries, true)
    }
}

impl ServiceStats {
    /// Responsibility-cache hit rate in `[0, 1]` (0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean batch size (requests per queue pull).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Number of latency samples recorded.
    pub fn latency_samples(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// Latency quantile in microseconds (bucket lower bound; 0 with no
    /// samples). Monotone in `q`, so `p99_us() >= p50_us()` always.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        quantile_us(&self.latency_buckets, q)
    }

    /// Median response latency in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.latency_quantile_us(0.50)
    }

    /// 99th-percentile response latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.latency_quantile_us(0.99)
    }
}

/// Tier-level (front-end) resilience counters (PR 9): everything the
/// self-healing layer does *between* the shards — retries, hedges,
/// breaker activity, brownout — rather than inside one of them. Sourced
/// from the tier registry alongside the per-shard [`ServiceStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Re-submissions after a retryable failure (excludes first attempts).
    pub retries: u64,
    /// Hedge requests launched against a sibling shard because the first
    /// attempt was still unanswered after `hedge_after`.
    pub hedges: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Requests shed at admission because a tenant's breaker was open.
    pub breaker_rejects: u64,
    /// Requests served inline with the zero-budget greedy bracket while
    /// the tier was browned out.
    pub brownout_served: u64,
    /// Cumulative microseconds the tier spent in brownout mode.
    pub brownout_us: u64,
    /// Retries re-routed to a fallback shard because the home shard was
    /// quarantined or degraded.
    pub reroutes: u64,
}

counters! {
    /// Requests accepted onto a shard's queue.
    requests: "requests_total", Reset;
    /// Batches pulled off the queue by workers.
    batches: "batches_total", Reset;
    /// Requests processed inside those batches.
    batched_requests: "batched_requests_total", Reset;
    /// Requests answered by riding on a batch-mate's identical fresh
    /// computation (neither a cache hit nor a separate miss).
    coalesced: "coalesced_total", Reset;
    /// Responsibility-cache hits.
    cache_hits: "cache_hits_total", Reset;
    /// Responsibility-cache misses (fresh computations).
    cache_misses: "cache_misses_total", Reset;
    /// Join indexes evicted because their relation's content version fell
    /// out of the retained snapshot window. With per-relation keying this
    /// counts only indexes of *touched* relations; untouched relations
    /// keep their stamps and are never evicted by a write elsewhere.
    index_evictions: "index_evictions_total", Reset;
    /// Freshly computed [`RankTopK`](crate::ExplainKind::RankTopK)
    /// rankings (cache hits and coalesced riders are not re-ranked).
    rank_tasks: "rank_tasks_total", Reset;
    /// Candidate causes the top-k screen skipped across all rank tasks:
    /// their cheap responsibility upper bound proved they could no
    /// longer enter the top k, so no full Algorithm-1 / branch-and-bound
    /// solve was spent on them.
    topk_pruned: "topk_pruned_total", Reset;
    /// Worker panics caught and converted into
    /// [`ServiceError::Panicked`](crate::ServiceError::Panicked)
    /// responses. Nonzero means a job blew up but the pool survived it.
    panics_caught: "panics_caught_total", Reset;
    /// Requests rejected at admission
    /// ([`ServiceError::Overloaded`](crate::ServiceError::Overloaded))
    /// because the shard's queue depth had reached its limit. Rejected
    /// requests are returned to the caller, never silently dropped.
    admission_rejects: "admission_rejects_total", Reset;
    /// Requests whose deadline budget had already expired when a worker
    /// drained them; each resolved to
    /// [`ServiceError::DeadlineExceeded`](crate::ServiceError::DeadlineExceeded)
    /// without occupying the worker.
    deadline_misses: "deadline_misses_total", Reset;
    /// Fresh computations the hardness router sent down the anytime
    /// approximation path (NP-hard Why-So under a deadline); their
    /// responses carry [`ExplainMode::Approximate`](crate::ExplainMode)
    /// with certified `[lower, upper]` ρ bounds.
    approx_requests: "approx_requests_total", Reset;
    /// Completed anytime refinement levels across all approx requests —
    /// each one provably tightened a ρ bracket before the budget ran
    /// out. It sums what answers report: an answer from a plan's
    /// collapsed outcome reports the levels of the phase two that
    /// collapsed it, so a level may be counted once per such answer.
    approx_refinements: "approx_refinements_total", Reset;
    /// Causes of approx requests whose bracket the request's repair
    /// table closed exactly, with no per-cause bracket or refinement.
    approx_settled: "approx_settled_total", Reset;
    /// Search nodes the anytime refinements of approx requests expanded,
    /// as the answers report them: the sum of each response's
    /// [`ExplainMode::Approximate`](crate::ExplainMode) `search_nodes`.
    /// An answer from a plan's collapsed outcome expands none itself and
    /// reports the nodes of the phase two that collapsed the plan.
    approx_search_nodes: "approx_search_nodes_total", Reset;
    /// Approx requests whose computation started from the question's
    /// memoized [`AnytimePlan`](causality_core::explain::AnytimePlan),
    /// so it ran at most phase two and assembly: none when the plan's
    /// brackets had collapsed and the deadline was still ahead, which
    /// hands out the plan's kept answer. Like `approx_requests`, it
    /// counts worker computations only, and each one is also a cache
    /// miss: the answer is the plan's under the request's own budget.
    approx_plan_hits: "approx_plan_hits_total", Reset;
    /// Worker-pool restarts performed by the supervisor (PR 9). A
    /// lifecycle counter: never reset by `snapshot_and_reset`.
    shard_restarts: "shard_restarts_total", Lifecycle;
    /// Healthy/Degraded → Quarantined transitions the supervisor took
    /// (PR 9). A lifecycle counter: never reset by `snapshot_and_reset`.
    shard_quarantines: "shard_quarantines_total", Lifecycle;
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_telemetry::prometheus_text;
    use std::time::Duration;

    fn counters() -> StatsCounters {
        StatsCounters::new(&MetricsRegistry::new())
    }

    #[test]
    fn snapshot_reflects_counters() {
        let c = counters();
        c.requests.inc();
        c.cache_hits.add(3);
        c.cache_misses.inc();
        c.index_evictions.add(2);
        c.rank_tasks.inc();
        c.topk_pruned.add(7);
        c.panics_caught.inc();
        c.admission_rejects.inc();
        c.deadline_misses.add(4);
        c.approx_requests.add(2);
        c.approx_refinements.add(6);
        let s = c.snapshot(4, 7, 5);
        assert_eq!(s.workers, 4);
        assert_eq!(s.snapshot_version, 7);
        assert_eq!(s.requests, 1);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.index_entries, 5);
        assert_eq!(s.index_evictions, 2);
        assert_eq!(s.rank_tasks, 1);
        assert_eq!(s.topk_pruned, 7);
        assert_eq!(s.panics_caught, 1);
        assert_eq!(s.admission_rejects, 1);
        assert_eq!(s.deadline_misses, 4);
        assert_eq!(s.approx_requests, 2);
        assert_eq!(s.approx_refinements, 6);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn every_counter_of_the_table_snapshots_exports_merges_and_resets() {
        let registry = MetricsRegistry::new();
        let c = StatsCounters::new(&registry);
        let table = c.table();
        // A distinct value per counter: a field wired to the wrong
        // handle, or left out of a generated body, cannot pass.
        let values: Vec<u64> = (1..=table.len() as u64).map(|i| 10 * i).collect();
        for ((_, _, counter), v) in table.iter().zip(&values) {
            counter.add(*v);
        }
        assert_eq!(c.snapshot(1, 1, 0).counter_values(), values);

        let prom = prometheus_text(&[&registry], "causality_");
        for ((name, _, _), v) in table.iter().zip(&values) {
            let series = format!("causality_{name}{{shard=\"0\"}} {v}");
            assert!(prom.contains(&series), "missing {series}:\n{prom}");
        }

        let mut merged = c.snapshot(1, 1, 0);
        merged.merge(&c.snapshot(1, 1, 0));
        let doubled: Vec<u64> = values.iter().map(|v| 2 * v).collect();
        assert_eq!(merged.counter_values(), doubled, "merge adds every counter");

        assert_eq!(c.snapshot_and_reset(1, 1, 0).counter_values(), values);
        let after = c.snapshot(1, 1, 0).counter_values();
        let mut survivors = Vec::new();
        for ((name, policy, _), (before, now)) in table.iter().zip(values.iter().zip(&after)) {
            match policy {
                Policy::Reset => assert_eq!(*now, 0, "{name} is reset"),
                Policy::Lifecycle => {
                    assert_eq!(now, before, "{name} survives the reset");
                    survivors.push(*name);
                }
            }
        }
        assert_eq!(
            survivors,
            ["shard_restarts_total", "shard_quarantines_total"]
        );
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let s = counters().snapshot(1, 1, 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mean_batch_size(), 0.0);
        assert_eq!(s.p50_us(), 0);
        assert_eq!(s.p99_us(), 0);
    }

    #[test]
    fn snapshot_and_reset_zeroes_counters_but_not_the_gauge() {
        let c = counters();
        c.requests.add(10);
        c.queue_depth.add(3);
        c.latency.record(Duration::from_micros(100));
        let phase1 = c.snapshot_and_reset(1, 1, 0);
        assert_eq!(phase1.requests, 10);
        assert_eq!(phase1.latency_samples(), 1);
        assert_eq!(phase1.queue_depth, 3, "gauge is reported");
        let phase2 = c.snapshot(1, 1, 0);
        assert_eq!(phase2.requests, 0, "counter was reset");
        assert_eq!(phase2.latency_samples(), 0, "histogram was reset");
        assert_eq!(phase2.queue_depth, 3, "gauge is not reset");
    }

    #[test]
    fn snapshot_and_reset_conserves_concurrent_increments() {
        // Regression for the reset-atomicity audit: with writers bumping
        // a counter and the histogram while a reader repeatedly calls
        // snapshot_and_reset, every increment must appear in exactly one
        // phase — the sum of the phase snapshots plus the final snapshot
        // equals the number of increments, with no loss or double count.
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 20_000;
        let c = std::sync::Arc::new(counters());
        let mut phase_requests = 0u64;
        let mut phase_samples = 0u64;
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..PER_WRITER {
                        c.requests.inc();
                        c.latency.record_us(100);
                    }
                });
            }
            for _ in 0..50 {
                let phase = c.snapshot_and_reset(1, 0, 0);
                phase_requests += phase.requests;
                phase_samples += phase.latency_samples();
                std::thread::yield_now();
            }
        });
        let last = c.snapshot_and_reset(1, 0, 0);
        phase_requests += last.requests;
        phase_samples += last.latency_samples();
        let expected = WRITERS as u64 * PER_WRITER;
        assert_eq!(phase_requests, expected, "requests conserved");
        assert_eq!(phase_samples, expected, "histogram samples conserved");
    }

    #[test]
    fn gauge_dec_saturates() {
        let c = counters();
        c.queue_depth.add(2);
        c.queue_depth.dec(5);
        assert_eq!(c.queue_depth.get(), 0);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let c = counters();
        let h = &c.latency;
        h.record(Duration::from_micros(0)); // clamps into bucket 0
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        h.record(Duration::from_secs(3600)); // clamps into the last bucket
        let counts = h.counts(false);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[9], 1, "1000 µs lands in [512, 1024)");
        assert_eq!(counts[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn bucket_boundaries_split_at_powers_of_two() {
        let c = counters();
        c.latency.record(Duration::from_micros(1023));
        c.latency.record(Duration::from_micros(1024));
        let counts = c.latency.counts(false);
        assert_eq!(counts[9], 1, "1023 µs stays in [512, 1024)");
        assert_eq!(counts[10], 1, "1024 µs opens [1024, 2048)");
    }

    #[test]
    fn single_sample_p50_equals_p99() {
        let c = counters();
        c.latency.record(Duration::from_micros(300));
        let s = c.snapshot(1, 0, 0);
        assert_eq!(s.p50_us(), s.p99_us());
        assert_eq!(s.p50_us(), 256, "bucket lower bound of [256, 512)");
    }

    #[test]
    fn quantiles_are_monotone_and_bucket_exact() {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        buckets[3] = 50; // 50 samples in [8, 16) µs
        buckets[10] = 49; // 49 samples in [1024, 2048) µs
        buckets[20] = 1; // 1 outlier
        assert_eq!(quantile_us(&buckets, 0.5), 8);
        assert_eq!(quantile_us(&buckets, 0.99), 1024);
        assert_eq!(quantile_us(&buckets, 1.0), 1 << 20);
        let mut last = 0;
        for i in 0..=100 {
            let q = quantile_us(&buckets, f64::from(i) / 100.0);
            assert!(q >= last, "quantiles are monotone");
            last = q;
        }
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let a = counters();
        a.requests.add(5);
        a.latency.record(Duration::from_micros(10));
        let b = counters();
        b.requests.add(7);
        b.queue_depth.add(2);
        b.latency.record(Duration::from_micros(5000));
        let mut m = a.snapshot(2, 3, 1);
        m.merge(&b.snapshot(4, 9, 2));
        assert_eq!(m.workers, 6);
        assert_eq!(m.snapshot_version, 9);
        assert_eq!(m.requests, 12);
        assert_eq!(m.index_entries, 3);
        assert_eq!(m.queue_depth, 2);
        assert_eq!(m.latency_samples(), 2, "merge preserves total count");
    }
}

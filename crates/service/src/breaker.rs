//! Per-tenant circuit breakers (PR 9).
//!
//! A tenant whose requests keep failing — panicking payloads, queries
//! that always hit a poisoned relation — burns worker time to produce
//! errors, starving well-behaved tenants on the same shard. The breaker
//! sheds that traffic at admission, before it reaches a queue:
//!
//! ```text
//!            failure_threshold consecutive failures
//!   Closed ────────────────────────────────────────▶ Open
//!     ▲                                               │ open_for elapses
//!     │ half_open_probes consecutive successes        ▼
//!     └─────────────────────────────────────────── HalfOpen
//!                (any probe failure reopens)
//! ```
//!
//! Time is injected through the [`Clock`] trait so every transition is
//! testable without sleeping, and a backwards clock skew merely delays
//! the open → half-open edge instead of corrupting the state machine.

use crate::clock::Clock;
use causality_telemetry::metrics::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs of the per-tenant breakers.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker open. `0`
    /// disables breakers entirely (every request is admitted).
    pub failure_threshold: u32,
    /// How long an open breaker rejects before admitting probes.
    pub open_for: Duration,
    /// Consecutive half-open successes required to close again. Any
    /// failure during probing reopens for another `open_for`.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 8,
            open_for: Duration::from_millis(250),
            half_open_probes: 2,
        }
    }
}

impl BreakerConfig {
    /// A config with breakers switched off.
    pub fn disabled() -> Self {
        BreakerConfig {
            failure_threshold: 0,
            ..BreakerConfig::default()
        }
    }
}

/// Observable state of one tenant's breaker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are being counted.
    Closed,
    /// Traffic is shed until the open window elapses.
    Open,
    /// Every request is admitted as a probe: `half_open_probes`
    /// consecutive successes close the breaker, and any failure reopens
    /// it. Admissions are not capped.
    HalfOpen,
}

#[derive(Clone, Copy, Debug)]
enum Inner {
    Closed { failures: u32 },
    Open { until: Instant },
    HalfOpen { successes: u32 },
}

/// Outcome of a breaker admission check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admit {
    /// The request may proceed.
    Yes,
    /// The breaker is open; retry after the carried duration.
    No(Duration),
}

/// Number of independent lock stripes the tenant → breaker map is
/// spread over. The registry sits on the per-request hot path twice
/// (admission in the front end, outcome recording in the workers); with
/// one global mutex every request of every tenant serializes on the
/// same lock. Striping by tenant key keeps contention to tenants that
/// actually collide.
const STRIPES: usize = 16;

/// All tenants' breakers, shared between the front end (admission) and
/// the workers (outcome recording).
pub struct BreakerRegistry {
    cfg: BreakerConfig,
    clock: Arc<dyn Clock>,
    stripes: [Mutex<HashMap<u64, Inner>>; STRIPES],
    /// Closed → open transitions.
    trips: Arc<Counter>,
    /// Requests shed because a breaker was open.
    rejects: Arc<Counter>,
}

impl std::fmt::Debug for BreakerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BreakerRegistry")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl BreakerRegistry {
    /// A registry publishing its trip/reject counters into `registry`.
    pub fn new(cfg: BreakerConfig, clock: Arc<dyn Clock>, registry: &MetricsRegistry) -> Self {
        BreakerRegistry {
            cfg,
            clock,
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            trips: registry.counter("breaker_trips_total"),
            rejects: registry.counter("breaker_rejects_total"),
        }
    }

    fn lock(&self, tenant: u64) -> std::sync::MutexGuard<'_, HashMap<u64, Inner>> {
        // Fibonacci-hash the key so sequential tenant keys spread across
        // the stripes instead of clustering in one.
        let stripe = (tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % STRIPES;
        self.stripes[stripe]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Should a request from `tenant` be admitted right now?
    ///
    /// Open breakers whose window elapsed transition to half-open here
    /// (admission is the only edge that needs the wall clock). A
    /// half-open breaker admits every request; `half_open_probes` only
    /// counts the consecutive successes that close it.
    pub fn admit(&self, tenant: u64) -> Admit {
        if self.cfg.failure_threshold == 0 {
            return Admit::Yes;
        }
        let mut states = self.lock(tenant);
        let state = states
            .entry(tenant)
            .or_insert(Inner::Closed { failures: 0 });
        match *state {
            // The common (closed) path never reads the clock.
            Inner::Closed { .. } | Inner::HalfOpen { .. } => Admit::Yes,
            Inner::Open { until } => {
                let now = self.clock.now();
                if now >= until {
                    *state = Inner::HalfOpen { successes: 0 };
                    Admit::Yes
                } else {
                    self.rejects.inc();
                    Admit::No(until - now)
                }
            }
        }
    }

    /// Record the outcome of an admitted request from `tenant`.
    ///
    /// Workers call this when they resolve a response: `success` is
    /// false only for failures that indict the tenant's traffic
    /// (panicked or core-failed computations), not for load shedding.
    pub fn record(&self, tenant: u64, success: bool) {
        if self.cfg.failure_threshold == 0 {
            return;
        }
        let mut states = self.lock(tenant);
        let state = states
            .entry(tenant)
            .or_insert(Inner::Closed { failures: 0 });
        *state = match (*state, success) {
            (Inner::Closed { .. }, true) => Inner::Closed { failures: 0 },
            (Inner::Closed { failures }, false) => {
                let failures = failures + 1;
                if failures >= self.cfg.failure_threshold {
                    self.trips.inc();
                    Inner::Open {
                        until: self.clock.now() + self.cfg.open_for,
                    }
                } else {
                    Inner::Closed { failures }
                }
            }
            (Inner::HalfOpen { successes }, true) => {
                let successes = successes + 1;
                if successes >= self.cfg.half_open_probes {
                    Inner::Closed { failures: 0 }
                } else {
                    Inner::HalfOpen { successes }
                }
            }
            (Inner::HalfOpen { .. }, false) => {
                self.trips.inc();
                Inner::Open {
                    until: self.clock.now() + self.cfg.open_for,
                }
            }
            // A late outcome for a request admitted before the breaker
            // opened; the open window already accounts for the failure
            // burst, so keep the window rather than extending it.
            (open @ Inner::Open { .. }, _) => open,
        };
    }

    /// The observable state of `tenant`'s breaker (elapsed open windows
    /// report as [`BreakerState::HalfOpen`], matching what `admit`
    /// would do).
    pub fn state_of(&self, tenant: u64) -> BreakerState {
        match self.lock(tenant).get(&tenant) {
            None | Some(Inner::Closed { .. }) => BreakerState::Closed,
            Some(Inner::Open { until }) => {
                if self.clock.now() >= *until {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            Some(Inner::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }

    /// Total closed/half-open → open transitions so far.
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }

    /// Total requests shed by open breakers so far.
    pub fn rejects(&self) -> u64 {
        self.rejects.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn registry(cfg: BreakerConfig) -> (Arc<ManualClock>, BreakerRegistry, MetricsRegistry) {
        let clock = Arc::new(ManualClock::new());
        let metrics = MetricsRegistry::new();
        let breakers = BreakerRegistry::new(cfg, clock.clone(), &metrics);
        (clock, breakers, metrics)
    }

    fn cfg3() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_for: Duration::from_millis(100),
            half_open_probes: 2,
        }
    }

    #[test]
    fn closed_admits_and_successes_reset_failures() {
        let (_clock, b, _m) = registry(cfg3());
        assert_eq!(b.admit(1), Admit::Yes);
        b.record(1, false);
        b.record(1, false);
        b.record(1, true); // resets the streak
        b.record(1, false);
        b.record(1, false);
        assert_eq!(b.state_of(1), BreakerState::Closed);
        assert_eq!(b.admit(1), Admit::Yes);
    }

    #[test]
    fn threshold_consecutive_failures_trip_open() {
        let (_clock, b, _m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        assert_eq!(b.state_of(1), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        match b.admit(1) {
            Admit::No(after) => assert!(after <= Duration::from_millis(100)),
            Admit::Yes => panic!("open breaker admitted"),
        }
        assert_eq!(b.rejects(), 1);
    }

    #[test]
    fn open_window_elapses_into_half_open_then_closes() {
        let (clock, b, _m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        clock.advance(Duration::from_millis(100));
        assert_eq!(b.state_of(1), BreakerState::HalfOpen);
        assert_eq!(b.admit(1), Admit::Yes);
        b.record(1, true);
        assert_eq!(
            b.state_of(1),
            BreakerState::HalfOpen,
            "one probe is not enough"
        );
        b.record(1, true);
        assert_eq!(b.state_of(1), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_every_request_until_successes_close_it() {
        // `half_open_probes: 2` counts successes; it does not cap how
        // many requests a half-open breaker lets through.
        let (clock, b, _m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        clock.advance(Duration::from_millis(100));
        for _ in 0..10 {
            assert_eq!(b.admit(1), Admit::Yes);
        }
        assert_eq!(b.state_of(1), BreakerState::HalfOpen);
        assert_eq!(b.rejects(), 0);
        b.record(1, true);
        b.record(1, true);
        assert_eq!(b.state_of(1), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let (clock, b, _m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        clock.advance(Duration::from_millis(100));
        assert_eq!(b.admit(1), Admit::Yes);
        b.record(1, false);
        assert_eq!(b.state_of(1), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn late_outcomes_do_not_extend_the_open_window() {
        let (clock, b, _m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        clock.advance(Duration::from_millis(60));
        b.record(1, false); // straggler from before the trip
        clock.advance(Duration::from_millis(40));
        assert_eq!(b.state_of(1), BreakerState::HalfOpen);
    }

    #[test]
    fn tenants_are_independent() {
        let (_clock, b, _m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        assert_eq!(b.state_of(1), BreakerState::Open);
        assert_eq!(b.state_of(2), BreakerState::Closed);
        assert_eq!(b.admit(2), Admit::Yes);
    }

    #[test]
    fn zero_threshold_disables_breakers() {
        let (_clock, b, _m) = registry(BreakerConfig::disabled());
        for _ in 0..100 {
            b.record(1, false);
        }
        assert_eq!(b.admit(1), Admit::Yes);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn backwards_clock_skew_delays_but_does_not_corrupt() {
        let (clock, b, _m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        clock.rewind(Duration::from_millis(50));
        // Still open — the window end is fixed; skew merely lengthens it.
        assert!(matches!(b.admit(1), Admit::No(_)));
        clock.advance(Duration::from_millis(150));
        assert_eq!(b.admit(1), Admit::Yes);
    }

    #[test]
    fn counters_surface_in_metrics_registry() {
        let (_clock, b, m) = registry(cfg3());
        for _ in 0..3 {
            b.record(1, false);
        }
        let _ = b.admit(1);
        let samples = m.samples();
        let trip = samples
            .iter()
            .find(|s| s.name == "breaker_trips_total")
            .expect("trip counter registered");
        assert_eq!(trip.value, 1);
    }
}

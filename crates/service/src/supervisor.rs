//! Shard health assessment and the supervision policy (PR 9).
//!
//! The tier was fault-*isolated* before this PR (panics are caught per
//! request, admission control bounds queues) but not fault-*recovering*:
//! a shard whose workers wedge stays degraded forever. The supervisor
//! closes that loop. Each shard carries a [`HealthState`] cell; a
//! background thread in the front end ticks [`assess`] over live
//! signals (consecutive panics, queue stall detection, deadline-miss
//! rate) and restarts the worker pool of a quarantined shard, then
//! probes it back to [`HealthState::Healthy`].
//!
//! The transition function is pure — signals in, verdict out — so the
//! exhaustive transition tests in `tests/service_selfheal.rs` can walk
//! every edge without threads or sleeps.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

/// Liveness classification of one shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HealthState {
    /// Serving normally; routable as a retry/hedge fallback.
    Healthy = 0,
    /// Live but missing deadlines or paging through a panic burst;
    /// still serving, but retries avoid it when possible.
    Degraded = 1,
    /// Presumed wedged. The supervisor restarts its worker pool and
    /// routes retries elsewhere until re-admission probes succeed.
    Quarantined = 2,
}

impl HealthState {
    /// Stable label for metrics and docs.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
        }
    }
}

/// Lock-free storage for a [`HealthState`], shared between the shard,
/// the supervisor thread, and routing decisions on the submit path.
#[derive(Debug, Default)]
pub struct HealthCell(AtomicU8);

impl HealthCell {
    /// A cell starting out [`HealthState::Healthy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current state.
    pub fn get(&self) -> HealthState {
        match self.0.load(Ordering::Relaxed) {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Quarantined,
        }
    }

    /// Stores a new state.
    pub fn set(&self, state: HealthState) {
        self.0.store(state as u8, Ordering::Relaxed);
    }
}

/// Tuning knobs of the supervision loop.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// How often the supervisor samples shard signals. `Duration::ZERO`
    /// disables the background thread (tests drive [`assess`] direct).
    pub tick: Duration,
    /// Consecutive panics (without an intervening success) that send a
    /// shard straight to quarantine.
    pub panic_quarantine: u64,
    /// Ticks with a non-empty queue and zero completed requests before
    /// the shard counts as stalled (wedged workers).
    pub stall_ticks: u32,
    /// Deadline misses over the last window above this rate mark the
    /// shard degraded. Expressed as misses per completed request.
    pub miss_rate: f64,
    /// Minimum completions in a tick window for the miss rate to be
    /// meaningful; below this the window is ignored.
    pub miss_window_min: u64,
    /// Consecutive clean ticks a restarted shard must survive before
    /// re-admission to [`HealthState::Healthy`].
    pub probe_ticks: u32,
}

impl Default for SupervisorConfig {
    /// Conservative production defaults: the stall window (tick ×
    /// stall_ticks = 2s) comfortably exceeds the longest legitimate
    /// single computation the tier serves, so a busy-but-progressing
    /// shard is never restarted; chaos tests shrink these knobs
    /// explicitly to make recovery observable in milliseconds.
    fn default() -> Self {
        SupervisorConfig {
            tick: Duration::from_millis(50),
            panic_quarantine: 16,
            stall_ticks: 40,
            miss_rate: 0.9,
            miss_window_min: 16,
            probe_ticks: 2,
        }
    }
}

impl SupervisorConfig {
    /// A config with the supervisor thread switched off (the state
    /// machine itself stays testable via [`assess`]).
    pub fn disabled() -> Self {
        SupervisorConfig {
            tick: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }
}

/// One tick's worth of live signals about a shard, expressed as deltas
/// (or levels) the supervisor samples from the shard's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardSignals {
    /// Current consecutive-panic streak (reset by any success).
    pub consecutive_panics: u64,
    /// Current queue depth (level, not delta).
    pub queue_depth: u64,
    /// Requests the shard's workers completed since the last tick
    /// (brownout answers, computed on submitting threads, do not count).
    pub completed: u64,
    /// Deadline misses since the last tick.
    pub deadline_misses: u64,
}

/// What the supervisor should do with a shard after a tick.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No action; the returned state is the new health.
    Observe(HealthState),
    /// Restart the worker pool, then hold in quarantine for probing.
    Restart,
}

/// Per-shard bookkeeping the supervisor keeps between ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardTracker {
    stall_ticks: u32,
    clean_ticks: u32,
    /// Set once a quarantined shard's pool has been restarted; probing
    /// counts clean ticks only after the restart happened.
    pub restarted: bool,
}

/// The pure health-transition function.
///
/// Looks at the current state, this tick's signals, and the tracker's
/// memory of recent ticks, and decides the next state — possibly
/// demanding a pool restart. All thresholds come from `cfg`.
pub fn assess(
    state: HealthState,
    signals: ShardSignals,
    tracker: &mut ShardTracker,
    cfg: &SupervisorConfig,
) -> Verdict {
    // Stall detection: queue has work, nothing completes.
    if signals.queue_depth > 0 && signals.completed == 0 {
        tracker.stall_ticks = tracker.stall_ticks.saturating_add(1);
    } else {
        tracker.stall_ticks = 0;
    }
    let stalled = tracker.stall_ticks >= cfg.stall_ticks;
    let panicking = signals.consecutive_panics >= cfg.panic_quarantine;
    let missing = signals.completed >= cfg.miss_window_min
        && (signals.deadline_misses as f64) > cfg.miss_rate * (signals.completed as f64);

    match state {
        HealthState::Healthy | HealthState::Degraded => {
            if stalled || panicking {
                tracker.clean_ticks = 0;
                tracker.restarted = false;
                tracker.stall_ticks = 0;
                return Verdict::Restart;
            }
            if missing {
                tracker.clean_ticks = 0;
                return Verdict::Observe(HealthState::Degraded);
            }
            if state == HealthState::Degraded {
                // Hysteresis: recover through the same probe budget a
                // quarantined shard uses, so one good tick after a miss
                // burst does not flap the state.
                tracker.clean_ticks = tracker.clean_ticks.saturating_add(1);
                if tracker.clean_ticks >= cfg.probe_ticks {
                    tracker.clean_ticks = 0;
                    return Verdict::Observe(HealthState::Healthy);
                }
                return Verdict::Observe(HealthState::Degraded);
            }
            Verdict::Observe(HealthState::Healthy)
        }
        HealthState::Quarantined => {
            if !tracker.restarted {
                // Restart has not completed yet; hold.
                return Verdict::Observe(HealthState::Quarantined);
            }
            if stalled || panicking {
                // Relapse after restart: restart again.
                tracker.clean_ticks = 0;
                tracker.restarted = false;
                tracker.stall_ticks = 0;
                return Verdict::Restart;
            }
            // Re-admission probing: require clean ticks that actually
            // prove liveness (either traffic completed, or the queue is
            // empty so there is nothing to be wedged on).
            if signals.completed > 0 || signals.queue_depth == 0 {
                tracker.clean_ticks = tracker.clean_ticks.saturating_add(1);
            } else {
                tracker.clean_ticks = 0;
            }
            if tracker.clean_ticks >= cfg.probe_ticks {
                tracker.clean_ticks = 0;
                Verdict::Observe(HealthState::Healthy)
            } else {
                Verdict::Observe(HealthState::Quarantined)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aggressive thresholds so every transition is reachable in a few
    /// synthetic ticks (production defaults are far more patient).
    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            tick: Duration::from_millis(20),
            panic_quarantine: 5,
            stall_ticks: 3,
            miss_rate: 0.5,
            miss_window_min: 8,
            probe_ticks: 2,
        }
    }

    #[test]
    fn healthy_stays_healthy_on_clean_signals() {
        let mut t = ShardTracker::default();
        let v = assess(
            HealthState::Healthy,
            ShardSignals {
                completed: 10,
                ..Default::default()
            },
            &mut t,
            &cfg(),
        );
        assert_eq!(v, Verdict::Observe(HealthState::Healthy));
    }

    #[test]
    fn panic_burst_demands_restart() {
        let mut t = ShardTracker::default();
        let v = assess(
            HealthState::Healthy,
            ShardSignals {
                consecutive_panics: 5,
                ..Default::default()
            },
            &mut t,
            &cfg(),
        );
        assert_eq!(v, Verdict::Restart);
    }

    #[test]
    fn stall_needs_consecutive_ticks() {
        let mut t = ShardTracker::default();
        let stalled = ShardSignals {
            queue_depth: 50,
            completed: 0,
            ..Default::default()
        };
        assert_eq!(
            assess(HealthState::Healthy, stalled, &mut t, &cfg()),
            Verdict::Observe(HealthState::Healthy)
        );
        assert_eq!(
            assess(HealthState::Healthy, stalled, &mut t, &cfg()),
            Verdict::Observe(HealthState::Healthy)
        );
        assert_eq!(
            assess(HealthState::Healthy, stalled, &mut t, &cfg()),
            Verdict::Restart
        );
    }

    #[test]
    fn progress_resets_the_stall_counter() {
        let mut t = ShardTracker::default();
        let stalled = ShardSignals {
            queue_depth: 50,
            completed: 0,
            ..Default::default()
        };
        let moving = ShardSignals {
            queue_depth: 50,
            completed: 3,
            ..Default::default()
        };
        assess(HealthState::Healthy, stalled, &mut t, &cfg());
        assess(HealthState::Healthy, stalled, &mut t, &cfg());
        assess(HealthState::Healthy, moving, &mut t, &cfg());
        assert_eq!(
            assess(HealthState::Healthy, stalled, &mut t, &cfg()),
            Verdict::Observe(HealthState::Healthy),
            "stall counter restarted after progress"
        );
    }

    #[test]
    fn high_miss_rate_degrades_and_recovers_with_hysteresis() {
        let mut t = ShardTracker::default();
        let missing = ShardSignals {
            completed: 10,
            deadline_misses: 8,
            ..Default::default()
        };
        assert_eq!(
            assess(HealthState::Healthy, missing, &mut t, &cfg()),
            Verdict::Observe(HealthState::Degraded)
        );
        let clean = ShardSignals {
            completed: 10,
            ..Default::default()
        };
        // probe_ticks = 2: first clean tick holds Degraded, second recovers.
        assert_eq!(
            assess(HealthState::Degraded, clean, &mut t, &cfg()),
            Verdict::Observe(HealthState::Degraded)
        );
        assert_eq!(
            assess(HealthState::Degraded, clean, &mut t, &cfg()),
            Verdict::Observe(HealthState::Healthy)
        );
    }

    #[test]
    fn sparse_windows_do_not_trigger_miss_rate() {
        let mut t = ShardTracker::default();
        let sparse = ShardSignals {
            completed: 2,
            deadline_misses: 2,
            ..Default::default()
        };
        assert_eq!(
            assess(HealthState::Healthy, sparse, &mut t, &cfg()),
            Verdict::Observe(HealthState::Healthy),
            "below miss_window_min the rate is noise"
        );
    }

    #[test]
    fn quarantine_holds_until_restart_then_probes_out() {
        let mut t = ShardTracker::default();
        let idle = ShardSignals::default();
        assert_eq!(
            assess(HealthState::Quarantined, idle, &mut t, &cfg()),
            Verdict::Observe(HealthState::Quarantined),
            "no restart yet: hold"
        );
        t.restarted = true;
        assert_eq!(
            assess(HealthState::Quarantined, idle, &mut t, &cfg()),
            Verdict::Observe(HealthState::Quarantined),
            "first clean probe tick"
        );
        assert_eq!(
            assess(HealthState::Quarantined, idle, &mut t, &cfg()),
            Verdict::Observe(HealthState::Healthy),
            "second clean probe tick re-admits"
        );
    }

    #[test]
    fn relapse_after_restart_restarts_again() {
        let mut t = ShardTracker {
            restarted: true,
            ..Default::default()
        };
        let v = assess(
            HealthState::Quarantined,
            ShardSignals {
                consecutive_panics: 9,
                ..Default::default()
            },
            &mut t,
            &cfg(),
        );
        assert_eq!(v, Verdict::Restart);
        assert!(!t.restarted, "restart flag cleared for the next attempt");
    }

    #[test]
    fn quarantined_with_stuck_queue_does_not_probe_out() {
        let mut t = ShardTracker {
            restarted: true,
            ..Default::default()
        };
        let stuck = ShardSignals {
            queue_depth: 10,
            completed: 0,
            ..Default::default()
        };
        for _ in 0..2 {
            let v = assess(HealthState::Quarantined, stuck, &mut t, &cfg());
            assert_eq!(v, Verdict::Observe(HealthState::Quarantined));
        }
        // And eventually the stall detector fires a second restart.
        let v = assess(HealthState::Quarantined, stuck, &mut t, &cfg());
        assert_eq!(v, Verdict::Restart);
    }

    #[test]
    fn health_cell_round_trips() {
        let cell = HealthCell::new();
        assert_eq!(cell.get(), HealthState::Healthy);
        cell.set(HealthState::Quarantined);
        assert_eq!(cell.get(), HealthState::Quarantined);
        cell.set(HealthState::Degraded);
        assert_eq!(cell.get(), HealthState::Degraded);
        assert_eq!(cell.get().label(), "degraded");
    }
}

//! Front-end retry policy: seeded jittered exponential backoff plus
//! optional tail-latency hedging (PR 9).
//!
//! The policy is deliberately *deterministic given its seed*: backoff
//! schedules come from a seeded xorshift generator, so a failing run
//! can be replayed jitter-for-jitter. Full jitter (waits drawn
//! uniformly from `[0, min(cap, base·2^attempt))`) is used rather than
//! equal jitter because retries here are triggered by *load* errors —
//! spreading the retry storm across the whole window is what stops
//! synchronized clients from re-overloading a recovering shard.

use std::time::Duration;

/// When and how the front end retries retryable failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total submission attempts (1 = no retries).
    pub max_attempts: u32,
    /// Base backoff; attempt `n` waits up to `base * 2^n`.
    pub base: Duration,
    /// Upper bound on any single backoff wait.
    pub cap: Duration,
    /// Seed of the jitter stream; equal seeds replay equal schedules.
    pub jitter_seed: u64,
    /// If set, a hedge request is sent to a healthy sibling shard when
    /// the first attempt has produced no response after this long.
    /// `None` disables hedging.
    pub hedge_after: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
            hedge_after: None,
        }
    }
}

/// Small xorshift64* generator backing the jitter stream. Seeded, so
/// the schedule is reproducible; not a statistical RNG, which backoff
/// jitter does not need.
#[derive(Clone, Debug)]
pub struct JitterRng(u64);

impl JitterRng {
    /// A generator for `seed` (zero is remapped; xorshift fixes at 0).
    pub fn new(seed: u64) -> Self {
        JitterRng(if seed == 0 {
            0x4d59_5df4_d0f3_3173
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// The full-jitter backoff before retry `attempt` (1-based: the wait
/// between the first failure and the second attempt has `attempt == 1`).
///
/// Uniform in `[0, min(cap, base · 2^attempt))`, but at least `floor`
/// when the failed attempt carried a `retry_after` hint — the tier told
/// us when capacity is expected back, and retrying earlier just burns
/// an attempt on a reject.
pub fn backoff(
    policy: &RetryPolicy,
    rng: &mut JitterRng,
    attempt: u32,
    floor: Option<Duration>,
) -> Duration {
    let base_us = policy.base.as_micros().min(u128::from(u64::MAX)) as u64;
    let cap_us = policy.cap.as_micros().min(u128::from(u64::MAX)) as u64;
    let window = base_us
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
        .min(cap_us);
    let jittered = rng.below(window.saturating_add(1));
    let floor_us = floor
        .map(|f| f.as_micros().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
        .min(cap_us);
    Duration::from_micros(jittered.max(floor_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let policy = RetryPolicy::default();
        let mut a = JitterRng::new(42);
        let mut b = JitterRng::new(42);
        for attempt in 1..10 {
            assert_eq!(
                backoff(&policy, &mut a, attempt, None),
                backoff(&policy, &mut b, attempt, None)
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let policy = RetryPolicy::default();
        let mut a = JitterRng::new(1);
        let mut b = JitterRng::new(2);
        let diverged = (1..10).any(|attempt| {
            backoff(&policy, &mut a, attempt, None) != backoff(&policy, &mut b, attempt, None)
        });
        assert!(diverged);
    }

    #[test]
    fn waits_stay_within_the_exponential_window_and_cap() {
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            ..RetryPolicy::default()
        };
        let mut rng = JitterRng::new(7);
        for attempt in 1..20 {
            let window = Duration::from_millis((1u64 << attempt.min(4)).min(8));
            let wait = backoff(&policy, &mut rng, attempt, None);
            assert!(wait <= window, "attempt {attempt}: {wait:?} > {window:?}");
            assert!(wait <= policy.cap);
        }
    }

    #[test]
    fn retry_after_hint_floors_the_wait() {
        let policy = RetryPolicy {
            base: Duration::from_micros(1),
            cap: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut rng = JitterRng::new(3);
        let hint = Duration::from_millis(10);
        let wait = backoff(&policy, &mut rng, 1, Some(hint));
        assert!(wait >= hint);
    }

    #[test]
    fn hint_floor_is_capped() {
        let policy = RetryPolicy {
            cap: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        let mut rng = JitterRng::new(3);
        let wait = backoff(&policy, &mut rng, 1, Some(Duration::from_secs(60)));
        assert!(wait <= policy.cap);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = JitterRng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }
}

//! A retry schedule: bounded attempts with capped, jittered backoff.
//!
//! RFP's crash recovery tries an operation, waits a while on failure,
//! tries again, and gives up after a bound (a deadline per attempt,
//! exponential backoff between attempts). [`RetryPolicy`] captures that
//! schedule; the recovery loop runs it on the simulated clock.
//!
//! Jitter is supplied by the caller as a unit draw (`[0, 1)`) so the
//! policy itself stays deterministic and side-effect free; callers that
//! want no jitter pass a constant.

use crate::time::SimSpan;

/// Schedule for a bounded retry loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`0` behaves like `1`).
    pub max_attempts: u32,
    /// Backoff slept after the first failed attempt.
    pub base: SimSpan,
    /// Growth factor applied to the backoff per further failure.
    pub multiplier: f64,
    /// Ceiling on any single backoff.
    pub cap: SimSpan,
    /// Jitter amplitude as a fraction of the computed backoff: a unit
    /// draw `u` scales the sleep by `1 + jitter * (2u - 1)`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// Retransmit-now policy: up to `max_attempts` tries with no pause
    /// between them (HERD-style immediate retransmission).
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base: SimSpan::ZERO,
            multiplier: 1.0,
            cap: SimSpan::ZERO,
            jitter: 0.0,
        }
    }

    /// Capped exponential backoff doubling from `base` up to `cap`, with
    /// ±`jitter` fractional spread.
    pub fn exponential(max_attempts: u32, base: SimSpan, cap: SimSpan, jitter: f64) -> Self {
        RetryPolicy {
            max_attempts,
            base,
            multiplier: 2.0,
            cap,
            jitter,
        }
    }

    /// Backoff to sleep after `failed` failures (`failed >= 1`), given a
    /// unit jitter draw in `[0, 1)`.
    pub fn backoff_for(&self, failed: u32, unit: f64) -> SimSpan {
        if self.base.is_zero() {
            return SimSpan::ZERO;
        }
        let exp = self.multiplier.powi(failed.saturating_sub(1) as i32);
        let raw = (self.base.as_nanos() as f64 * exp).min(self.cap.as_nanos() as f64);
        let spread = 1.0 + self.jitter * (2.0 * unit - 1.0);
        SimSpan::from_nanos_f64(raw * spread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_policy_never_sleeps() {
        let p = RetryPolicy::immediate(5);
        assert_eq!(p.backoff_for(1, 0.9), SimSpan::ZERO);
        assert_eq!(p.backoff_for(4, 0.1), SimSpan::ZERO);
    }

    #[test]
    fn exponential_policy_doubles_and_caps() {
        let p = RetryPolicy::exponential(8, SimSpan::micros(10), SimSpan::micros(35), 0.0);
        assert_eq!(p.backoff_for(1, 0.5).as_nanos(), 10_000);
        assert_eq!(p.backoff_for(2, 0.5).as_nanos(), 20_000);
        // 40us exceeds the 35us cap.
        assert_eq!(p.backoff_for(3, 0.5).as_nanos(), 35_000);
        assert_eq!(p.backoff_for(7, 0.5).as_nanos(), 35_000);
    }

    #[test]
    fn jitter_spreads_symmetrically() {
        let p = RetryPolicy::exponential(3, SimSpan::micros(10), SimSpan::millis(1), 0.2);
        assert_eq!(p.backoff_for(1, 0.0).as_nanos(), 8_000);
        assert_eq!(p.backoff_for(1, 0.5).as_nanos(), 10_000);
        assert_eq!(p.backoff_for(1, 1.0).as_nanos(), 12_000);
    }
}

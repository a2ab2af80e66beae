//! A shared retry loop: bounded attempts with capped, jittered backoff.
//!
//! Several protocols in the workspace need the same control flow — try an
//! operation, wait a while on failure, try again, give up after a bound:
//! HERD's UD request retransmission (fixed timeout, immediate resend) and
//! RFP's crash recovery (deadline per attempt, exponential backoff between
//! attempts). [`RetryPolicy`] captures the schedule, [`retry`] runs the
//! loop on the simulated clock.
//!
//! Jitter is supplied by the caller as a unit draw (`[0, 1)`) so the
//! policy itself stays deterministic and side-effect free; callers that
//! want no jitter pass a constant.

use std::future::Future;

use crate::executor::SimHandle;
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

/// Outcome of an exhausted [`retry`] loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryExhausted<E> {
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The error from the final attempt.
    pub last: E,
}

/// Runs `op` until it succeeds or the policy's attempt budget is spent,
/// sleeping the policy's backoff between attempts.
///
/// `op` receives the zero-based attempt number; `jitter_unit` is drawn
/// once per backoff (callers thread their own RNG through it). Backoff
/// sleeps run on `handle` directly — they model an idle wait, not CPU
/// time, so callers wanting busy-time accounting do it inside `op`.
pub async fn retry<T, E, F, Fut>(
    handle: &SimHandle,
    policy: &RetryPolicy,
    mut jitter_unit: impl FnMut() -> f64,
    mut op: F,
) -> Result<T, RetryExhausted<E>>
where
    F: FnMut(u32) -> Fut,
    Fut: Future<Output = Result<T, E>>,
{
    let budget = policy.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt).await {
            Ok(v) => return Ok(v),
            Err(e) => {
                attempt += 1;
                if attempt >= budget {
                    return Err(RetryExhausted {
                        attempts: attempt,
                        last: e,
                    });
                }
                let pause = policy.backoff_for(attempt, jitter_unit());
                if !pause.is_zero() {
                    handle.sleep(pause).await;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use std::cell::Cell;
    use std::rc::Rc;

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

    #[test]
    fn retry_succeeds_after_failures_and_sleeps_backoff() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));
        let flag = Rc::clone(&done);
        sim.spawn(async move {
            let calls = Cell::new(0u32);
            let policy = RetryPolicy::exponential(5, SimSpan::micros(10), SimSpan::millis(1), 0.0);
            let out = retry(
                &h,
                &policy,
                || 0.5,
                |attempt| {
                    calls.set(calls.get() + 1);
                    async move {
                        if attempt < 2 {
                            Err("not yet")
                        } else {
                            Ok(attempt)
                        }
                    }
                },
            )
            .await;
            assert_eq!(out, Ok(2));
            assert_eq!(calls.get(), 3);
            // Two backoffs: 10us + 20us.
            assert_eq!(h.now().as_nanos(), 30_000);
            flag.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn exhausted_retry_sleeps_every_backoff() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));
        let flag = Rc::clone(&done);
        sim.spawn(async move {
            let policy = RetryPolicy::exponential(3, SimSpan::micros(10), SimSpan::millis(1), 0.0);
            let out: Result<(), _> = retry(&h, &policy, || 0.5, |_| async { Err(()) }).await;
            assert!(out.is_err());
            // Two full backoffs: 10µs + 20µs.
            assert_eq!(h.now().as_nanos(), 30_000);
            flag.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn retry_exhausts_with_last_error() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));
        let flag = Rc::clone(&done);
        sim.spawn(async move {
            let policy = RetryPolicy::immediate(3);
            let out: Result<(), _> =
                retry(&h, &policy, || 0.5, |attempt| async move { Err(attempt) }).await;
            assert_eq!(
                out,
                Err(RetryExhausted {
                    attempts: 3,
                    last: 2
                })
            );
            assert_eq!(h.now().as_nanos(), 0);
            flag.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}

//! Virtual-clock time types.
//!
//! The simulation measures time in integer nanoseconds. Two newtypes keep
//! instants and durations from being mixed up:
//!
//! * [`SimTime`] — an instant (nanoseconds since simulation start),
//! * [`SimSpan`] — a duration.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulation clock, in nanoseconds since start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A length of simulated time, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The last representable instant: "no deadline".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for rate computations).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; the simulation clock never
    /// runs backwards, so that indicates a logic error.
    pub fn since(self, earlier: SimTime) -> SimSpan {
        SimSpan(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is in the future"),
        )
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimSpan {
    /// The empty duration.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Creates a duration of `n` nanoseconds.
    pub const fn nanos(n: u64) -> Self {
        SimSpan(n)
    }

    /// Creates a duration of `n` microseconds.
    pub const fn micros(n: u64) -> Self {
        SimSpan(n * 1_000)
    }

    /// Creates a duration of `n` milliseconds.
    pub const fn millis(n: u64) -> Self {
        SimSpan(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    pub const fn secs(n: u64) -> Self {
        SimSpan(n * 1_000_000_000)
    }

    /// Creates a duration from a float number of nanoseconds, rounding to
    /// the nearest integer nanosecond (negative values clamp to zero).
    pub fn from_nanos_f64(ns: f64) -> Self {
        SimSpan(ns.max(0.0).round() as u64)
    }

    /// This duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.max(other.0))
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    fn sub(self, rhs: SimTime) -> SimSpan {
        self.since(rhs)
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.checked_add(rhs.0).expect("SimSpan overflow"))
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.checked_sub(rhs.0).expect("SimSpan underflow"))
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0.checked_mul(rhs).expect("SimSpan overflow"))
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0 as f64 / 1e3)
    }
}

impl fmt::Debug for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(SimSpan::micros(3).as_nanos(), 3_000);
        assert_eq!(SimSpan::millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimSpan::secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::from_nanos(100) + SimSpan::nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!((t - SimTime::from_nanos(100)).as_nanos(), 50);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_rejects_backwards() {
        let _ = SimTime::from_nanos(1).since(SimTime::from_nanos(2));
    }

    #[test]
    fn span_float_round_trips() {
        assert_eq!(SimSpan::from_nanos_f64(123.4).as_nanos(), 123);
        assert_eq!(SimSpan::from_nanos_f64(-5.0).as_nanos(), 0);
        assert!((SimSpan::micros(5).as_micros_f64() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn span_sum_and_scale() {
        let total: SimSpan = [SimSpan::nanos(1), SimSpan::nanos(2)].into_iter().sum();
        assert_eq!(total.as_nanos(), 3);
        assert_eq!((SimSpan::nanos(7) * 3).as_nanos(), 21);
        assert_eq!((SimSpan::nanos(7) / 2).as_nanos(), 3);
    }
}

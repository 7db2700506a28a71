//! Deterministic virtual time.
//!
//! Real GPU benchmarking measures wall-clock time with CUDA events; our
//! simulator instead advances a **virtual nanosecond clock** by the modelled
//! duration of every operation (kernel, transfer, allocation, JIT compile).
//! Because nothing depends on the host machine, the same program yields the
//! same simulated timings on every run — benchmark tables are reproducible
//! bit-for-bit and tests can assert exact costs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the device's virtual timeline, in nanoseconds since device
/// creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the timeline (device creation).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since device creation.
    pub fn as_nanos(self) -> u64 {
        self.0
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// The span in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

/// Elapsed time since `rhs`. Saturates at zero if `rhs` is in the future
/// (mirrors `Instant::duration_since` leniency).
impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    /// Human-friendly rendering with an auto-selected unit, e.g. `17.3µs`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}µs", ns as f64 / 1_000.0)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.4}s", ns as f64 / 1_000_000_000.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instants_advance_by_durations() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        let t1 = SimTime::ZERO + SimDuration::from_nanos(5);
        let t2 = t1 + SimDuration::from_nanos(1_000);
        assert_eq!(t1.as_nanos(), 5);
        assert_eq!(t2.as_nanos(), 1_005);
        assert_eq!(t2 - t1, SimDuration::from_nanos(1_000));
    }

    #[test]
    fn time_difference_saturates() {
        let a = SimTime(10);
        let b = SimTime(20);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!((b - a).as_nanos(), 10);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(123).to_string(), "123ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.50µs");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_millis(2_500).to_string(), "2.5000s");
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(3_000);
        let b = SimDuration::from_nanos(1_000);
        assert_eq!((a + b).as_nanos(), 4_000);
        assert_eq!((a - b).as_nanos(), 2_000);
        assert_eq!((b - a).as_nanos(), 0, "subtraction saturates");
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_nanos(), 5_000);
    }

    #[test]
    fn conversions() {
        let d = SimDuration::from_millis(1);
        assert_eq!(d.as_secs_f64(), 0.001);
    }
}

//! Virtual time.
//!
//! The simulator is a deterministic discrete-event system: nothing in it
//! reads wall-clock time. All timeouts (flow idle/hard expiry, detection
//! latencies) are expressed in [`SimTime`] and advance only when the
//! harness calls `Network::tick`.

use legosdn_codec::Codec;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Codec)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug, Codec)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds → time.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Milliseconds → time.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Microseconds → time.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Whole seconds elapsed since simulation start.
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Time since `earlier`, saturating at zero if `earlier` is later.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Seconds → duration.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Milliseconds → duration.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Microseconds → duration.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Whole seconds in this span.
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds in this span.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0 as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).0, 2_000_000);
        assert_eq!(SimTime::from_millis(3).0, 3_000);
        assert_eq!(SimTime::from_micros(7).0, 7);
        assert_eq!(SimTime::from_secs(5).as_secs(), 5);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(b.since(a), SimDuration::from_secs(2));
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b - a, SimDuration::from_secs(2));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(1500);
        assert_eq!(t.as_secs(), 1);
        let mut t2 = t;
        t2 += SimDuration::from_millis(500);
        assert_eq!(t2.as_secs(), 2);
        assert_eq!(
            SimDuration::from_secs(1) + SimDuration::from_millis(500),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn duration_float_seconds() {
        assert!((SimDuration::from_millis(2500).as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(format!("{:?}", SimTime::from_micros(5)), "t+5us");
    }
}

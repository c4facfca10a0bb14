//! Simulated time.
//!
//! The simulation clock counts nanoseconds from the start of the run in a
//! `u64` — enough for five centuries of simulated time, which comfortably
//! covers an Andrew500 run.

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as "never".
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start.
    pub fn millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This time advanced by `delta` nanoseconds, saturating.
    pub fn after(self, delta: u64) -> SimTime {
        SimTime(self.0.saturating_add(delta))
    }

    /// Nanoseconds from `earlier` to `self`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl std::fmt::Debug for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}", format_duration(self.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// Duration helpers (all return nanosecond counts).
pub mod dur {
    /// `n` microseconds in nanoseconds.
    pub const fn micros(n: u64) -> u64 {
        n * 1_000
    }
    /// `n` milliseconds in nanoseconds.
    pub const fn millis(n: u64) -> u64 {
        n * 1_000_000
    }
    /// `n` seconds in nanoseconds.
    pub const fn secs(n: u64) -> u64 {
        n * 1_000_000_000
    }
}

/// Renders a nanosecond duration with an adaptive unit, for debug output.
pub fn format_duration(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO.after(dur::millis(2));
        assert_eq!(t.micros(), 2_000);
        assert_eq!(t.since(SimTime(1_000_000)), 1_000_000);
        assert_eq!(SimTime(5).since(SimTime(10)), 0);
        assert_eq!(SimTime(3).max(SimTime(9)), SimTime(9));
    }

    #[test]
    fn never_saturates() {
        assert_eq!(SimTime::NEVER.after(100), SimTime::NEVER);
    }

    #[test]
    fn formatting() {
        assert_eq!(format_duration(500), "500ns");
        assert_eq!(format_duration(1_500), "1.5us");
        assert_eq!(format_duration(2_500_000), "2.50ms");
        assert_eq!(format_duration(3_000_000_000), "3.000s");
        assert_eq!(format!("{}", SimTime(1_500)), "t+1.5us");
    }

    #[test]
    fn conversions() {
        assert_eq!(dur::secs(1), 1_000_000_000);
        assert_eq!(SimTime(2_000_000_000).millis(), 2_000);
    }
}

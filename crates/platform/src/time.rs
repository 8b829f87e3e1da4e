//! Simulation time, core cycles, and clock frequencies.
//!
//! The platform simulator keeps global time in **picoseconds** so that cores
//! running at different (and dynamically changing) frequencies can be
//! composed without rounding drift at realistic clock rates (1 MHz – 10 GHz).
//!
//! Per-core work is counted in [`Cycles`]; a core's [`Frequency`] converts
//! cycles to wall-clock [`Time`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Absolute simulation time in picoseconds.
///
/// `Time` is a monotone, saturating quantity: the simulator never runs long
/// enough to overflow `u64` picoseconds (~213 days of simulated time), but
/// arithmetic saturates defensively anyway.
///
/// # Examples
///
/// ```
/// use mpsoc_platform::time::{Time, Frequency, Cycles};
/// let f = Frequency::mhz(100);
/// assert_eq!(f.cycles_to_time(Cycles(1)), Time::from_ps(10_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Time zero: the simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The far future; used as the "never ready" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a picosecond count.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time expressed in whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Time) -> Time {
        Time(self.0.saturating_add(d.0))
    }

    /// Duration between two instants, saturating at zero.
    pub fn saturating_sub(self, earlier: Time) -> Time {
        Time(self.0.saturating_sub(earlier.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "∞")
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A count of core clock cycles.
///
/// Cycles are frequency-independent work units; multiply by a core's
/// [`Frequency`] (via [`Frequency::cycles_to_time`]) to obtain wall time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating cycle addition.
    pub fn saturating_add(self, o: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(o.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A core clock frequency.
///
/// Stored in kilohertz so that both very slow (space-shared, down-clocked)
/// and very fast (boosted) cores are representable exactly.
///
/// Section II of the paper argues that *"the frequency at which each core
/// executes shall be modifiable at a fine-grain level during program
/// execution"*; the platform therefore allows [`Frequency`] changes on a
/// running core at any instruction boundary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Frequency {
    khz: u64,
    /// Exact picoseconds per cycle when `1e9 / khz` divides evenly, else 0.
    /// Lets [`cycles_to_time`](Frequency::cycles_to_time) — called once per
    /// simulated instruction — use one `u64` multiply instead of a `u128`
    /// ceiling division for the common round frequencies (1 MHz … 10 GHz
    /// in power-of-ten steps, and most realistic clock rates in between).
    ps_per_cycle: u64,
}

impl Frequency {
    /// Creates a frequency from kilohertz.
    ///
    /// # Panics
    ///
    /// Panics if `khz` is zero; a stopped clock is expressed by halting the
    /// core, not by a zero frequency.
    pub fn khz(khz: u64) -> Self {
        assert!(khz > 0, "frequency must be non-zero");
        let ps_per_cycle = if 1_000_000_000 % khz == 0 {
            1_000_000_000 / khz
        } else {
            0
        };
        Frequency { khz, ps_per_cycle }
    }

    /// Creates a frequency from megahertz.
    pub fn mhz(mhz: u64) -> Self {
        Self::khz(mhz * 1_000)
    }

    /// The frequency in kilohertz.
    pub(crate) fn as_khz(self) -> u64 {
        self.khz
    }

    /// Duration of one clock period.
    pub fn period(self) -> Time {
        // 1e12 ps per second / (khz * 1e3) = 1e9 / khz ps.
        Time::from_ps(1_000_000_000 / self.khz)
    }

    /// Converts a cycle count at this frequency into wall-clock time.
    ///
    /// Rounds up to whole picoseconds so a non-zero amount of work always
    /// takes non-zero time (required for simulator progress).
    pub fn cycles_to_time(self, c: Cycles) -> Time {
        if c.0 == 0 {
            return Time::ZERO;
        }
        // Fast path: the period is a whole number of picoseconds, so the
        // ceiling division below is exact multiplication (saturating, to
        // match the `min(u64::MAX)` clamp of the slow path).
        if self.ps_per_cycle != 0 {
            return Time::from_ps(c.0.saturating_mul(self.ps_per_cycle));
        }
        // ps = cycles * 1e9 / khz, computed in u128 to avoid overflow.
        let ps = (c.0 as u128 * 1_000_000_000u128).div_ceil(self.khz as u128);
        Time::from_ps(ps.min(u64::MAX as u128) as u64)
    }

    /// Converts a wall-clock duration into the number of whole cycles this
    /// clock completes within it (truncating).
    pub fn time_to_cycles(self, t: Time) -> Cycles {
        let cy = t.as_ps() as u128 * self.khz as u128 / 1_000_000_000u128;
        Cycles(cy.min(u64::MAX as u128) as u64)
    }
}

impl Default for Frequency {
    /// 100 MHz: the platform's reference clock.
    fn default() -> Self {
        Frequency::mhz(100)
    }
}

impl mpsoc_snapshot::Snapshot for Time {
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_u64(self.as_ps());
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        Ok(Time::from_ps(r.get_u64()?))
    }
}

impl mpsoc_snapshot::Snapshot for Frequency {
    // Only the kilohertz count is stored; `ps_per_cycle` is a derived
    // cache recomputed by `Frequency::khz`.
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_u64(self.as_khz());
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        let khz = r.get_u64()?;
        if khz == 0 {
            return Err(mpsoc_snapshot::SnapError::Malformed(
                "zero frequency".into(),
            ));
        }
        Ok(Frequency::khz(khz))
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.khz >= 1_000_000 {
            write!(f, "{:.3}GHz", self.khz as f64 / 1e6)
        } else if self.khz >= 1_000 {
            write!(f, "{:.3}MHz", self.khz as f64 / 1e3)
        } else {
            write!(f, "{}kHz", self.khz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
    }

    #[test]
    fn time_arithmetic_saturates() {
        assert_eq!(Time::MAX + Time::from_ps(1), Time::MAX);
        assert_eq!(Time::ZERO - Time::from_ps(5), Time::ZERO);
        assert_eq!(
            Time::from_ps(10).saturating_sub(Time::from_ps(3)),
            Time::from_ps(7)
        );
    }

    #[test]
    fn frequency_period_and_conversion() {
        let f = Frequency::mhz(100);
        assert_eq!(f.period(), Time::from_ps(10_000));
        assert_eq!(f.cycles_to_time(Cycles(100)), Time::from_ns(1000));
        assert_eq!(f.time_to_cycles(Time::from_ns(1000)), Cycles(100));
    }

    #[test]
    fn cycles_to_time_rounds_up() {
        // 3 cycles at 333 kHz: 3 * 1e9 / 333 = 9009009.009 -> 9009010 ps.
        let f = Frequency::khz(333);
        assert_eq!(f.cycles_to_time(Cycles(3)), Time::from_ps(9_009_010));
        // Zero cycles take zero time regardless of frequency.
        assert_eq!(f.cycles_to_time(Cycles(0)), Time::ZERO);
    }

    #[test]
    fn cycles_to_time_fast_and_slow_paths_agree() {
        // Round frequencies take the exact-multiply fast path; odd ones the
        // u128 ceiling division. Both must give the same picosecond counts.
        for khz in [100_000u64, 333, 1_000_000, 7, 999_983] {
            let f = Frequency::khz(khz);
            for c in [1u64, 3, 1_000, 123_456_789] {
                let expect = (c as u128 * 1_000_000_000u128).div_ceil(khz as u128);
                assert_eq!(f.cycles_to_time(Cycles(c)).as_ps() as u128, expect);
            }
        }
    }

    #[test]
    fn frequency_display_scales() {
        assert_eq!(Frequency::mhz(2_000).to_string(), "2.000GHz");
        assert_eq!(Frequency::mhz(100).to_string(), "100.000MHz");
        assert_eq!(Frequency::khz(32).to_string(), "32kHz");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_rejected() {
        let _ = Frequency::khz(0);
    }

    #[test]
    fn time_display_scales() {
        assert_eq!(Time::from_ps(500).to_string(), "500ps");
        assert_eq!(Time::from_ns(5).to_string(), "5.000ns");
        assert_eq!(Time::from_us(7).to_string(), "7.000us");
        assert_eq!(Time::from_ms(2).to_string(), "2.000ms");
    }
}

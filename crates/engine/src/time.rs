//! Simulation time in picoseconds.
//!
//! All timing in the simulator is expressed as a [`SimTime`] — an absolute
//! number of picoseconds since the start of the simulation — or a
//! [`Duration`] — a span of picoseconds. Picosecond granularity lets us
//! represent 3 GHz core cycles (333 ps) exactly enough while a `u64` still
//! covers ~213 days of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// Converts a fractional picosecond count to `u64`, saturating: NaN and
/// negative inputs map to 0, values beyond `u64::MAX` to `u64::MAX`.
/// (Rust's `as` cast already saturates; this helper documents that the
/// clamping is intentional for time construction.)
#[inline]
fn ps_from_f64(ps: f64) -> u64 {
    if ps.is_nan() {
        0
    } else {
        ps as u64 // saturating float→int cast
    }
}

/// An absolute point in simulated time, in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use idio_engine::time::{Duration, SimTime};
///
/// let t = SimTime::ZERO + Duration::from_us(3);
/// assert_eq!(t.as_ps(), 3_000_000);
/// assert_eq!(t.as_us_f64(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds, saturating at [`SimTime::MAX`]
    /// (this used to wrap silently in release builds for large inputs).
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns.saturating_mul(PS_PER_NS))
    }

    /// Creates a time from microseconds, saturating at [`SimTime::MAX`].
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(PS_PER_US))
    }

    /// Creates a time from milliseconds, saturating at [`SimTime::MAX`].
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms.saturating_mul(PS_PER_MS))
    }

    /// Raw picoseconds since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds, truncated.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Time in microseconds, truncated.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / PS_PER_US
    }

    /// Time in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Time in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating difference `self - earlier`, zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_ps(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference; `None` if `earlier` is later than `self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration::from_ps)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use idio_engine::time::Duration;
///
/// let d = Duration::from_ns(5) * 3;
/// assert_eq!(d.as_ps(), 15_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a span from nanoseconds, saturating at the maximum
    /// representable span (this used to wrap silently in release builds
    /// for large inputs).
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns.saturating_mul(PS_PER_NS))
    }

    /// Creates a span from microseconds, saturating.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Duration(us.saturating_mul(PS_PER_US))
    }

    /// Creates a span from milliseconds, saturating.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms.saturating_mul(PS_PER_MS))
    }

    /// Creates a span from fractional nanoseconds, rounding to
    /// picoseconds. NaN and negative inputs clamp to zero; values beyond
    /// the representable range saturate.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        Duration(ps_from_f64((ns * PS_PER_NS as f64).round()))
    }

    /// Creates a span from fractional microseconds, rounding to
    /// picoseconds. NaN and negative inputs clamp to zero; values beyond
    /// the representable range saturate.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        Duration(ps_from_f64((us * PS_PER_US as f64).round()))
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Span in nanoseconds, truncated.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Span in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Span in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// `self * num / den`, computed in 128-bit to avoid overflow.
    #[inline]
    pub fn mul_div(self, num: u64, den: u64) -> Duration {
        debug_assert!(den != 0, "mul_div by zero");
        Duration(((self.0 as u128 * num as u128) / den as u128) as u64)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        SimTime(self.0).fmt(f)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

/// A clock frequency, used to convert between cycles and time.
///
/// # Examples
///
/// ```
/// use idio_engine::time::Freq;
///
/// let f = Freq::from_ghz(3.0);
/// assert_eq!(f.ps_per_cycle(), 333);
/// assert_eq!(f.cycles_to_duration(3).as_ps(), 999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    /// Picoseconds per cycle.
    ps_per_cycle: u64,
}

impl Freq {
    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not finite and positive.
    pub const fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Freq {
            ps_per_cycle: (1_000.0 / ghz).round() as u64,
        }
    }

    /// Picoseconds per clock cycle.
    #[inline]
    pub const fn ps_per_cycle(self) -> u64 {
        self.ps_per_cycle
    }

    /// Converts a cycle count to a duration.
    #[inline]
    pub const fn cycles_to_duration(self, cycles: u64) -> Duration {
        Duration::from_ps(cycles * self.ps_per_cycle)
    }
}

impl Default for Freq {
    /// 3 GHz, the Table I core frequency.
    fn default() -> Self {
        Freq::from_ghz(3.0)
    }
}

/// Computes the wire time of `bytes` at `gbps` gigabits per second.
///
/// # Examples
///
/// ```
/// use idio_engine::time::wire_time;
///
/// // 1514 bytes at 100 Gbps is ~121 ns.
/// let t = wire_time(1514, 100.0);
/// assert!((t.as_ns_f64() - 121.1).abs() < 0.1);
/// ```
/// # Panics
///
/// Panics if `gbps` is not a finite, strictly positive number (a NaN,
/// infinite, zero, or negative rate would otherwise turn into a garbage
/// `u64` timestamp).
pub fn wire_time(bytes: u64, gbps: f64) -> Duration {
    assert!(
        gbps.is_finite() && gbps > 0.0,
        "rate must be finite and positive, got {gbps}"
    );
    let bits = bytes as f64 * 8.0;
    Duration::from_ps(ps_from_f64((bits / gbps * 1_000.0).round()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions_roundtrip() {
        let t = SimTime::from_us(1234);
        assert_eq!(t.as_ps(), 1_234_000_000);
        assert_eq!(t.as_us(), 1234);
        assert_eq!(t.as_ns(), 1_234_000);
    }

    #[test]
    fn simtime_ordering_and_arith() {
        let a = SimTime::from_ns(10);
        let b = a + Duration::from_ns(5);
        assert!(b > a);
        assert_eq!(b - a, Duration::from_ns(5));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_ns(5));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn duration_mul_div_avoids_overflow() {
        let d = Duration::from_ms(30);
        // Large numerator/denominator that would overflow a u64 product.
        let scaled = d.mul_div(1 << 40, 1 << 41);
        assert_eq!(scaled.as_ps(), d.as_ps() / 2);
        assert_eq!(d.mul_div(3, 1), d * 3);
    }

    #[test]
    fn freq_cycle_conversion() {
        let f = Freq::from_ghz(3.0);
        assert_eq!(f.ps_per_cycle(), 333);
        assert_eq!(f.cycles_to_duration(12).as_ps(), 3_996);
    }

    #[test]
    fn freq_default_is_3ghz() {
        assert_eq!(Freq::default(), Freq::from_ghz(3.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn freq_rejects_zero() {
        let _ = Freq::from_ghz(0.0);
    }

    #[test]
    fn constructors_saturate_instead_of_wrapping() {
        // Regression: these used to wrap in release builds (and only
        // overflow-panic in debug), so a huge duration could travel
        // back in time silently.
        assert_eq!(SimTime::from_ns(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_us(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_ms(u64::MAX), SimTime::MAX);
        assert_eq!(Duration::from_ns(u64::MAX).as_ps(), u64::MAX);
        assert_eq!(Duration::from_us(u64::MAX).as_ps(), u64::MAX);
        assert_eq!(Duration::from_ms(u64::MAX).as_ps(), u64::MAX);
        // Values just past the boundary saturate too, not only u64::MAX.
        assert_eq!(SimTime::from_ms(u64::MAX / PS_PER_MS + 1), SimTime::MAX);
        // In-range values are unchanged.
        assert_eq!(SimTime::from_ms(5).as_ps(), 5 * PS_PER_MS);
    }

    #[test]
    fn f64_constructors_clamp_nan_and_negative() {
        assert_eq!(Duration::from_ns_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_us_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_ns_f64(f64::INFINITY).as_ps(), u64::MAX);
        assert_eq!(Duration::from_us_f64(1.5).as_ps(), 1_500_000);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn wire_time_rejects_nan_rate() {
        let _ = wire_time(64, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn wire_time_rejects_infinite_rate() {
        let _ = wire_time(64, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn wire_time_rejects_zero_rate() {
        let _ = wire_time(64, 0.0);
    }

    #[test]
    fn wire_time_saturates_on_extreme_inputs() {
        // u64::MAX bytes at a tiny rate overflows f64→u64; saturate.
        assert_eq!(wire_time(u64::MAX, 1e-30).as_ps(), u64::MAX);
    }

    #[test]
    fn wire_time_100g() {
        // 64 bytes at 100 Gbps = 5.12 ns.
        assert_eq!(wire_time(64, 100.0).as_ps(), 5_120);
        // 1514 bytes at 10 Gbps = 1211.2 ns.
        assert_eq!(wire_time(1514, 10.0).as_ps(), 1_211_200);
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(format!("{}", SimTime::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12.000ns");
        assert_eq!(format!("{}", SimTime::from_us(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_ms(12)), "12.000ms");
    }
}

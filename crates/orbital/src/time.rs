//! Time systems: UTC epochs, Julian dates, and sidereal time.
//!
//! All simulation time in the workspace flows through [`Epoch`], an absolute
//! UTC instant stored as a Julian date split into an integer-ish day part and
//! a fractional seconds-of-day part to preserve sub-millisecond precision
//! over multi-week simulations.
//!
//! Leap seconds are intentionally ignored: every consumer of this crate works
//! with *relative* time spans of at most weeks, and the TLE format itself is
//! quoted in UTC without leap-second bookkeeping.

use crate::math::wrap_two_pi;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Julian date of the J2000.0 reference epoch (2000-01-01 12:00:00 TT,
/// treated as UTC here).
pub const JD_J2000: f64 = 2_451_545.0;

/// Seconds per day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// An absolute instant in UTC.
///
/// Internally stored as `(jd_midnight, seconds_of_day)` where `jd_midnight`
/// is the Julian date at the preceding UTC midnight (so it always ends in
/// `.5`) and `seconds_of_day` is in `[0, 86400)`. This split keeps arithmetic
/// exact to well below a microsecond across any span this workspace uses.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Epoch {
    jd_midnight: f64,
    seconds_of_day: f64,
}

impl Epoch {
    /// Build an epoch from a calendar date and time of day (UTC).
    ///
    /// `year` is the full year (e.g. 2024), `month` in 1..=12, `day` in
    /// 1..=31, `hour` in 0..24, `minute` in 0..60, and `second` may carry a
    /// fractional part. Uses the standard Fliegel–Van Flandern algorithm,
    /// valid for all Gregorian dates after 1582.
    pub fn from_ymdhms(year: i32, month: u32, day: u32, hour: u32, minute: u32, second: f64) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        assert!(hour < 24, "hour out of range: {hour}");
        assert!(minute < 60, "minute out of range: {minute}");
        assert!((0.0..60.0).contains(&second), "second out of range: {second}");
        let y = year as i64;
        let m = month as i64;
        let d = day as i64;
        // Fliegel & Van Flandern (1968): JDN of the calendar day at noon.
        let jdn = (1461 * (y + 4800 + (m - 14) / 12)) / 4
            + (367 * (m - 2 - 12 * ((m - 14) / 12))) / 12
            - (3 * ((y + 4900 + (m - 14) / 12) / 100)) / 4
            + d
            - 32075;
        let jd_midnight = jdn as f64 - 0.5;
        let seconds_of_day = hour as f64 * 3600.0 + minute as f64 * 60.0 + second;
        Epoch { jd_midnight, seconds_of_day }.rebalanced()
    }

    /// Build an epoch from the TLE convention: two-digit-style year (full
    /// year accepted) and fractional day of year (1.0 == Jan 1, 00:00 UTC).
    pub fn from_year_doy(year: i32, day_of_year: f64) -> Self {
        let jan1 = Epoch::from_ymdhms(year, 1, 1, 0, 0, 0.0);
        jan1.plus_seconds((day_of_year - 1.0) * SECONDS_PER_DAY)
    }

    /// The Julian date of this epoch.
    pub fn jd(&self) -> f64 {
        self.jd_midnight + self.seconds_of_day / SECONDS_PER_DAY
    }

    /// A new epoch offset by the given number of seconds (may be negative).
    pub fn plus_seconds(&self, seconds: f64) -> Epoch {
        Epoch {
            jd_midnight: self.jd_midnight,
            seconds_of_day: self.seconds_of_day + seconds,
        }
        .rebalanced()
    }

    /// A new epoch offset by the given number of minutes.
    pub fn plus_minutes(&self, minutes: f64) -> Epoch {
        self.plus_seconds(minutes * 60.0)
    }

    /// A new epoch offset by the given number of days.
    pub fn plus_days(&self, days: f64) -> Epoch {
        let whole = days.trunc();
        let frac = days - whole;
        Epoch {
            jd_midnight: self.jd_midnight + whole,
            seconds_of_day: self.seconds_of_day + frac * SECONDS_PER_DAY,
        }
        .rebalanced()
    }

    /// Signed seconds from `other` to `self` (positive if `self` is later).
    pub fn seconds_since(&self, other: &Epoch) -> f64 {
        (self.jd_midnight - other.jd_midnight) * SECONDS_PER_DAY
            + (self.seconds_of_day - other.seconds_of_day)
    }

    /// Greenwich Mean Sidereal Time at this epoch, radians in `[0, 2pi)`.
    ///
    /// IAU 1982 model (Aoki et al.), the same model SGP4 reference code uses
    /// for TEME-to-ECEF conversion. Accurate to well under an arcsecond over
    /// the decades around J2000, far beyond what link-geometry needs.
    pub fn gmst(&self) -> f64 {
        // Compute using UT1 ~= UTC. Split for precision: GMST at 0h plus
        // rotation within the day.
        let t = (self.jd_midnight - JD_J2000) / 36_525.0; // centuries at 0h
        let gmst0h_sec = 24_110.548_41 + 8_640_184.812_866 * t + 0.093_104 * t * t
            - 6.2e-6 * t * t * t;
        // Ratio of sidereal to solar time.
        let ratio = 1.002_737_909_350_795 + 5.900_6e-11 * t - 5.9e-15 * t * t;
        let gmst_sec = gmst0h_sec + self.seconds_of_day * ratio;
        wrap_two_pi(gmst_sec / 240.0 * std::f64::consts::PI / 180.0)
    }

    /// Calendar date `(year, month, day)` of this epoch (UTC).
    pub fn ymd(&self) -> (i32, u32, u32) {
        // Inverse Fliegel & Van Flandern.
        let jdn = (self.jd_midnight + 0.5) as i64;
        let l = jdn + 68_569;
        let n = (4 * l) / 146_097;
        let l = l - (146_097 * n + 3) / 4;
        let i = (4000 * (l + 1)) / 1_461_001;
        let l = l - (1461 * i) / 4 + 31;
        let j = (80 * l) / 2447;
        let d = l - (2447 * j) / 80;
        let l = j / 11;
        let m = j + 2 - 12 * l;
        let y = 100 * (n - 49) + i + l;
        (y as i32, m as u32, d as u32)
    }

    /// Time of day `(hour, minute, second)` of this epoch (UTC).
    pub fn hms(&self) -> (u32, u32, f64) {
        let s = self.seconds_of_day;
        let hour = (s / 3600.0) as u32;
        let minute = ((s - hour as f64 * 3600.0) / 60.0) as u32;
        let second = s - hour as f64 * 3600.0 - minute as f64 * 60.0;
        (hour.min(23), minute.min(59), second)
    }

    /// The exact internal representation `(jd_midnight, seconds_of_day)`:
    /// the seconds of day keep full precision, unlike the single-f64
    /// [`Epoch::jd`] (which loses tens of microseconds at JD magnitudes).
    /// The traffic demand model reads its local time of day from here.
    pub fn jd_parts(&self) -> (f64, f64) {
        (self.jd_midnight, self.seconds_of_day)
    }

    /// Day of year with fractional part, in the TLE convention
    /// (1.0 == Jan 1 00:00 UTC).
    pub fn day_of_year(&self) -> f64 {
        let (y, _, _) = self.ymd();
        let jan1 = Epoch::from_ymdhms(y, 1, 1, 0, 0, 0.0);
        self.seconds_since(&jan1) / SECONDS_PER_DAY + 1.0
    }

    /// The year of this epoch.
    pub fn year(&self) -> i32 {
        self.ymd().0
    }

    fn rebalanced(mut self) -> Self {
        while self.seconds_of_day < 0.0 {
            self.seconds_of_day += SECONDS_PER_DAY;
            self.jd_midnight -= 1.0;
        }
        while self.seconds_of_day >= SECONDS_PER_DAY {
            self.seconds_of_day -= SECONDS_PER_DAY;
            self.jd_midnight += 1.0;
        }
        self
    }
}

impl PartialEq for Epoch {
    fn eq(&self, other: &Self) -> bool {
        self.seconds_since(other).abs() < 1e-9
    }
}

impl PartialOrd for Epoch {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.seconds_since(other).partial_cmp(&0.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        let (hh, mm, ss) = self.hms();
        write!(f, "{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:06.3}Z")
    }
}

/// Format a duration given in seconds as a compact human string like
/// `"1d 16h 03m"` or `"4h 12m"` or `"37m 12s"`.
pub fn format_duration(seconds: f64) -> String {
    let neg = seconds < 0.0;
    let s = seconds.abs();
    let days = (s / 86_400.0) as u64;
    let hours = ((s % 86_400.0) / 3600.0) as u64;
    let mins = ((s % 3600.0) / 60.0) as u64;
    let secs = s % 60.0;
    let sign = if neg { "-" } else { "" };
    if days > 0 {
        format!("{sign}{days}d {hours:02}h {mins:02}m")
    } else if hours > 0 {
        format!("{sign}{hours}h {mins:02}m")
    } else if mins > 0 {
        format!("{sign}{mins}m {secs:02.0}s")
    } else {
        format!("{sign}{secs:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j2000_roundtrip() {
        let e = Epoch::from_ymdhms(2000, 1, 1, 12, 0, 0.0);
        assert!((e.jd() - JD_J2000).abs() < 1e-9);
    }

    #[test]
    fn unix_epoch_jd() {
        let e = Epoch::from_ymdhms(1970, 1, 1, 0, 0, 0.0);
        assert!((e.jd() - 2_440_587.5).abs() < 1e-9);
    }

    #[test]
    fn known_julian_dates() {
        // Vallado example: 1996-10-26 14:20:00 UTC -> JD 2450383.09722222.
        let e = Epoch::from_ymdhms(1996, 10, 26, 14, 20, 0.0);
        assert!((e.jd() - 2_450_383.097_222_22).abs() < 1e-7, "jd={}", e.jd());
    }

    #[test]
    fn ymd_roundtrip() {
        for &(y, m, d) in &[(1999, 12, 31), (2000, 2, 29), (2024, 6, 1), (2100, 3, 1)] {
            let e = Epoch::from_ymdhms(y, m, d, 7, 31, 12.25);
            assert_eq!(e.ymd(), (y, m, d));
            let (hh, mm, ss) = e.hms();
            assert_eq!((hh, mm), (7, 31));
            assert!((ss - 12.25).abs() < 1e-6);
        }
    }

    #[test]
    fn arithmetic_consistency() {
        let e = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let later = e.plus_days(7.0).plus_seconds(-3600.0);
        assert!((later.seconds_since(&e) - (7.0 * 86_400.0 - 3600.0)).abs() < 1e-6);
        assert!(later > e);
        assert!(e < later);
    }

    #[test]
    fn rebalance_across_midnight() {
        let e = Epoch::from_ymdhms(2024, 6, 1, 23, 59, 30.0);
        let later = e.plus_seconds(45.0);
        assert_eq!(later.ymd(), (2024, 6, 2));
        let (hh, mm, ss) = later.hms();
        assert_eq!((hh, mm), (0, 0));
        assert!((ss - 15.0).abs() < 1e-9);
    }

    #[test]
    fn gmst_reference_value() {
        // Vallado, Example 3-5: 1992-08-20 12:14:00 UT1,
        // GMST = 152.578787886 deg.
        let e = Epoch::from_ymdhms(1992, 8, 20, 12, 14, 0.0);
        let gmst_deg = e.gmst() * 180.0 / std::f64::consts::PI;
        assert!((gmst_deg - 152.578_787_886).abs() < 1e-4, "gmst={gmst_deg}");
    }

    #[test]
    fn gmst_advances_sidereal_rate() {
        let e = Epoch::from_ymdhms(2024, 6, 1, 0, 0, 0.0);
        let g0 = e.gmst();
        let g1 = e.plus_seconds(86164.0905).gmst(); // one sidereal day
        let diff = crate::math::wrap_pi(g1 - g0);
        assert!(diff.abs() < 1e-5, "sidereal day drift {diff}");
    }

    #[test]
    fn day_of_year_convention() {
        let e = Epoch::from_year_doy(2024, 153.5);
        // 2024 is a leap year: day 153 is June 1; .5 = noon.
        assert_eq!(e.ymd(), (2024, 6, 1));
        assert_eq!(e.hms().0, 12);
        assert!((e.day_of_year() - 153.5).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        let e = Epoch::from_ymdhms(2024, 6, 1, 5, 4, 3.5);
        assert_eq!(format!("{e}"), "2024-06-01T05:04:03.500Z");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(30.0), "30.0s");
        assert_eq!(format_duration(125.0), "2m 05s");
        assert_eq!(format_duration(4.0 * 3600.0 + 12.0 * 60.0), "4h 12m");
        assert_eq!(format_duration(86_400.0 + 16.0 * 3600.0 + 180.0), "1d 16h 03m");
        assert_eq!(format_duration(-90.0), "-1m 30s");
    }
}

//! Measurement units used throughout the workspace.
//!
//! The paper's primary measure is the *view-hour*; storage is reported in
//! terabytes, encodings in kilobits per second, and chunk durations in
//! seconds. Newtypes keep those from being mixed up in arithmetic.

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A video/audio bitrate in kilobits per second.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default,
)]
pub struct Kbps(pub u32);

impl Kbps {
    /// Zero bitrate (used as a sentinel for "no video downloaded yet").
    pub const ZERO: Kbps = Kbps(0);

    /// Bits per second.
    #[inline]
    pub const fn bits_per_sec(self) -> u64 {
        self.0 as u64 * 1_000
    }

    /// Bytes consumed by `seconds` of media at this bitrate.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "non-negative byte counts; `as` saturates"
    )]
    pub fn bytes_for(self, seconds: Seconds) -> Bytes {
        Bytes((self.bits_per_sec() as f64 * seconds.0 / 8.0) as u64)
    }

    /// Relative difference `|a - b| / max(a, b)`, used by the §6 dedup
    /// tolerance rule. Returns 0 for two zero bitrates.
    pub fn relative_gap(self, other: Kbps) -> f64 {
        let (a, b) = (self.0 as f64, other.0 as f64);
        let m = a.max(b);
        if m == 0.0 {
            0.0
        } else {
            (a - b).abs() / m
        }
    }
}

impl fmt::Display for Kbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Kbps", self.0)
    }
}

/// A duration in (fractional) seconds of media or wall time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Default)]
pub struct Seconds(pub f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Converts to hours (the paper's view-hour unit).
    #[inline]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Builds a duration from whole minutes.
    #[inline]
    pub fn from_minutes(m: f64) -> Self {
        Seconds(m * 60.0)
    }

    /// Builds a duration from hours.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        Seconds(h * 3600.0)
    }

    /// Clamps to the non-negative range (guards accumulated float error).
    #[inline]
    pub fn clamp_non_negative(self) -> Self {
        Seconds(self.0.max(0.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}
impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}
impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}
impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}
impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}s", self.0)
    }
}

/// A byte count (chunk sizes, origin storage).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default,
)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Terabytes (decimal, as in the paper's storage figures).
    #[inline]
    pub fn terabytes(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Gigabytes (decimal).
    #[inline]
    pub fn gigabytes(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Builds from decimal terabytes.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "non-negative byte counts; `as` saturates"
    )]
    pub fn from_terabytes(tb: f64) -> Self {
        Bytes((tb * 1e12) as u64)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication by a count.
    #[inline]
    pub fn saturating_mul(self, count: u64) -> Bytes {
        Bytes(self.0.saturating_mul(count))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}
impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}
impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.1} TB", self.terabytes())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.1} GB", self.gigabytes())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1} MB", self.0 as f64 / 1e6)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Aggregated viewing time in hours — the paper's primary measure.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Default)]
pub struct ViewHours(pub f64);

impl ViewHours {
    /// Zero view-hours.
    pub const ZERO: ViewHours = ViewHours(0.0);

    /// Fraction of `total` represented by `self`, in percent (0–100).
    /// Returns 0 when `total` is zero.
    pub fn percent_of(self, total: ViewHours) -> f64 {
        if total.0 <= 0.0 {
            0.0
        } else {
            100.0 * self.0 / total.0
        }
    }
}

impl Add for ViewHours {
    type Output = ViewHours;
    fn add(self, rhs: ViewHours) -> ViewHours {
        ViewHours(self.0 + rhs.0)
    }
}
impl AddAssign for ViewHours {
    fn add_assign(&mut self, rhs: ViewHours) {
        self.0 += rhs.0;
    }
}
impl Div for ViewHours {
    type Output = f64;
    fn div(self, rhs: ViewHours) -> f64 {
        self.0 / rhs.0
    }
}
impl Sum for ViewHours {
    fn sum<I: Iterator<Item = ViewHours>>(iter: I) -> ViewHours {
        ViewHours(iter.map(|v| v.0).sum())
    }
}

impl fmt::Display for ViewHours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} view-hours", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kbps_bytes_for_duration() {
        // 8000 Kbps for 1 second = 1 MB.
        let b = Kbps(8000).bytes_for(Seconds(1.0));
        assert_eq!(b.0, 1_000_000);
        // 1 hour of 4000 Kbps = 1.8 GB.
        let b = Kbps(4000).bytes_for(Seconds::from_hours(1.0));
        assert_eq!(b.0, 1_800_000_000);
    }

    #[test]
    fn relative_gap_is_symmetric_and_bounded() {
        let a = Kbps(1000);
        let b = Kbps(1100);
        assert!((a.relative_gap(b) - b.relative_gap(a)).abs() < 1e-12);
        assert!((a.relative_gap(b) - 100.0 / 1100.0).abs() < 1e-12);
        assert_eq!(Kbps(0).relative_gap(Kbps(0)), 0.0);
        assert_eq!(Kbps(0).relative_gap(Kbps(500)), 1.0);
    }

    #[test]
    fn seconds_conversions() {
        assert_eq!(Seconds::from_hours(2.0).0, 7200.0);
        assert_eq!(Seconds::from_minutes(3.0).0, 180.0);
        assert!((Seconds(5400.0).hours() - 1.5).abs() < 1e-12);
        assert_eq!((Seconds(1.0) - Seconds(4.0)).clamp_non_negative(), Seconds::ZERO);
    }

    #[test]
    fn bytes_display_scales() {
        assert_eq!(Bytes(5).to_string(), "5 B");
        assert_eq!(Bytes(2_500_000).to_string(), "2.5 MB");
        assert_eq!(Bytes(3_200_000_000).to_string(), "3.2 GB");
        assert_eq!(Bytes::from_terabytes(1.5).to_string(), "1.5 TB");
    }

    #[test]
    fn view_hours_percent() {
        let part = ViewHours(25.0);
        let total = ViewHours(100.0);
        assert!((part.percent_of(total) - 25.0).abs() < 1e-12);
        assert_eq!(part.percent_of(ViewHours::ZERO), 0.0);
    }

    #[test]
    fn sums_work() {
        let total: ViewHours = [ViewHours(1.0), ViewHours(2.5)].into_iter().sum();
        assert!((total.0 - 3.5).abs() < 1e-12);
        let total: Bytes = [Bytes(1), Bytes(2)].into_iter().sum();
        assert_eq!(total, Bytes(3));
        let total: Seconds = [Seconds(1.0), Seconds(2.0)].into_iter().sum();
        assert!((total.0 - 3.0).abs() < 1e-12);
    }
}

//! The study time model: 27 months (January 2016 – March 2018), sampled as
//! bi-weekly two-day snapshots (§4: "we use a sequence of two-day snapshots
//! taken bi-weekly"). The last snapshot (March 2018) is used for the
//! per-publisher-count analyses.

use serde::Serialize;
use std::fmt;

/// Number of months in the study window.
pub const STUDY_MONTHS: u32 = 27;

/// Number of bi-weekly snapshots (two per month).
pub const STUDY_SNAPSHOTS: u32 = STUDY_MONTHS * 2;

/// A month within the study window: 0 = January 2016, 26 = March 2018.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default,
)]
pub struct StudyMonth(u32);

impl StudyMonth {
    /// First month (January 2016).
    pub const FIRST: StudyMonth = StudyMonth(0);
    /// Last month (March 2018).
    pub const LAST: StudyMonth = StudyMonth(STUDY_MONTHS - 1);

    /// Creates a month index; returns `None` outside the study window.
    pub const fn new(index: u32) -> Option<StudyMonth> {
        if index < STUDY_MONTHS {
            Some(StudyMonth(index))
        } else {
            None
        }
    }

    /// Raw month index (0-based from January 2016).
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Calendar year.
    pub const fn year(self) -> u32 {
        2016 + self.0 / 12
    }

    /// Calendar month (1–12).
    pub const fn month_of_year(self) -> u32 {
        self.0 % 12 + 1
    }

    /// Fraction of the way through the study, in `[0, 1]`.
    pub fn progress(self) -> f64 {
        if STUDY_MONTHS <= 1 {
            0.0
        } else {
            self.0 as f64 / (STUDY_MONTHS - 1) as f64
        }
    }

    /// Iterates over every month in order.
    pub fn all() -> impl Iterator<Item = StudyMonth> {
        (0..STUDY_MONTHS).map(StudyMonth)
    }
}

impl fmt::Display for StudyMonth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        write!(f, "{} {}", NAMES[(self.month_of_year() - 1) as usize], self.year())
    }
}

/// A bi-weekly two-day snapshot: 0 = first half of January 2016,
/// 53 = second half of March 2018 (the paper's "latest snapshot").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default,
)]
pub struct SnapshotId(u32);

impl SnapshotId {
    /// First snapshot.
    pub const FIRST: SnapshotId = SnapshotId(0);
    /// The paper's "latest snapshot" (March 2018).
    pub const LAST: SnapshotId = SnapshotId(STUDY_SNAPSHOTS - 1);

    /// Creates a snapshot index; returns `None` outside the study window.
    pub const fn new(index: u32) -> Option<SnapshotId> {
        if index < STUDY_SNAPSHOTS {
            Some(SnapshotId(index))
        } else {
            None
        }
    }

    /// Raw snapshot index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The month this snapshot falls in.
    pub const fn month(self) -> StudyMonth {
        StudyMonth(self.0 / 2)
    }

    /// Fraction of the way through the study, in `[0, 1]`.
    pub fn progress(self) -> f64 {
        if STUDY_SNAPSHOTS <= 1 {
            0.0
        } else {
            self.0 as f64 / (STUDY_SNAPSHOTS - 1) as f64
        }
    }

    /// Iterates over every snapshot in order.
    pub fn all() -> impl Iterator<Item = SnapshotId> {
        (0..STUDY_SNAPSHOTS).map(SnapshotId)
    }

    /// The snapshot after this one, if any.
    pub const fn next(self) -> Option<SnapshotId> {
        Self::new(self.0 + 1)
    }
}

impl fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let half = if self.0.is_multiple_of(2) { "a" } else { "b" };
        write!(f, "{}{}", self.month(), half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_boundaries() {
        assert_eq!(StudyMonth::FIRST.to_string(), "Jan 2016");
        assert_eq!(StudyMonth::LAST.to_string(), "Mar 2018");
        assert_eq!(StudyMonth::new(27), None);
        assert_eq!(SnapshotId::new(54), None);
        assert_eq!(SnapshotId::LAST.month(), StudyMonth::LAST);
    }

    #[test]
    fn snapshot_count_is_biweekly() {
        assert_eq!(SnapshotId::all().count() as u32, 54);
        assert_eq!(StudyMonth::all().count() as u32, 27);
    }

    #[test]
    fn progress_is_monotone_in_unit_interval() {
        let mut last = -1.0;
        for s in SnapshotId::all() {
            let p = s.progress();
            assert!((0.0..=1.0).contains(&p));
            assert!(p > last);
            last = p;
        }
        assert_eq!(SnapshotId::FIRST.progress(), 0.0);
        assert_eq!(SnapshotId::LAST.progress(), 1.0);
    }

    #[test]
    fn snapshot_month_mapping() {
        let s = SnapshotId::new(5).unwrap();
        assert_eq!(s.month(), StudyMonth::new(2).unwrap());
        assert_eq!(s.to_string(), "Mar 2016b");
        assert_eq!(SnapshotId::FIRST.to_string(), "Jan 2016a");
    }

    #[test]
    fn next_stops_at_end() {
        assert_eq!(SnapshotId::LAST.next(), None);
        assert_eq!(SnapshotId::FIRST.next(), SnapshotId::new(1));
    }
}

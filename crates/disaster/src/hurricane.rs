//! Hurricane scenarios and their temporal structure.
//!
//! The paper's dataset spans 15 days before and after Hurricane Florence
//! (Sep 12–15, 2018) and additionally uses Hurricane Michael (Oct 7–16,
//! 2018) as training data. A [`Hurricane`] bundles a named storm with its
//! [`Timeline`] (which days are before/during/after) and peak intensities;
//! [`Hurricane::florence`] and [`Hurricane::michael`] are calibrated presets.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Hours per simulated day.
pub const HOURS_PER_DAY: u32 = 24;

/// Phase of a day relative to the disaster (the paper's before/during/after
/// split used in Figures 5 and 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DisasterPhase {
    /// Before the disaster made impact.
    Before,
    /// While the disaster is active.
    During,
    /// After the disaster has passed.
    After,
}

impl fmt::Display for DisasterPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisasterPhase::Before => write!(f, "before"),
            DisasterPhase::During => write!(f, "during"),
            DisasterPhase::After => write!(f, "after"),
        }
    }
}

/// Temporal structure of a scenario: total length and the disaster window.
///
/// Days are 0-based indices from the scenario start; `disaster_days` is a
/// half-open day range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Total scenario length in days.
    pub total_days: u32,
    /// First day of disaster impact.
    pub disaster_start_day: u32,
    /// First day after the disaster (exclusive end of the window).
    pub disaster_end_day: u32,
}

impl Timeline {
    /// Creates a timeline.
    ///
    /// # Panics
    ///
    /// Panics unless `disaster_start_day < disaster_end_day <= total_days`.
    pub fn new(total_days: u32, disaster_start_day: u32, disaster_end_day: u32) -> Self {
        assert!(
            disaster_start_day < disaster_end_day && disaster_end_day <= total_days,
            "disaster window [{disaster_start_day}, {disaster_end_day}) must fit in {total_days} days"
        );
        Self {
            total_days,
            disaster_start_day,
            disaster_end_day,
        }
    }

    /// Total scenario length in hours.
    pub fn total_hours(&self) -> u32 {
        self.total_days * HOURS_PER_DAY
    }

    /// The day index containing `hour`.
    pub fn day_of_hour(&self, hour: u32) -> u32 {
        hour / HOURS_PER_DAY
    }

    /// Phase of the given day.
    pub fn phase_of_day(&self, day: u32) -> DisasterPhase {
        if day < self.disaster_start_day {
            DisasterPhase::Before
        } else if day < self.disaster_end_day {
            DisasterPhase::During
        } else {
            DisasterPhase::After
        }
    }

    /// Hour at the center of the disaster window, where the storm peaks.
    pub fn peak_hour(&self) -> u32 {
        (self.disaster_start_day + self.disaster_end_day) * HOURS_PER_DAY / 2
    }

    /// Normalized storm intensity in `[0, 1]` at `hour`.
    ///
    /// Zero outside a ramp around the disaster window, raised-cosine shaped
    /// inside it, peaking at [`Timeline::peak_hour`]. The ramp starts half a
    /// day before the window and decays for a day after it, so flooding can
    /// persist past the nominal end as observed in the paper's Figure 5.
    pub fn intensity(&self, hour: u32) -> f64 {
        let start = (self.disaster_start_day * HOURS_PER_DAY) as f64 - 12.0;
        let end = (self.disaster_end_day * HOURS_PER_DAY) as f64 + 24.0;
        let h = hour as f64;
        if h < start || h > end {
            return 0.0;
        }
        let peak = self.peak_hour() as f64;
        let width = if h <= peak { peak - start } else { end - peak };
        let x = ((h - peak) / width).clamp(-1.0, 1.0);
        0.5 * (1.0 + (std::f64::consts::PI * x).cos())
    }
}

/// A named hurricane with its timeline, peak intensities and spatial
/// signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hurricane {
    /// Storm name ("Florence", "Michael", ...).
    pub name: String,
    /// Temporal structure.
    pub timeline: Timeline,
    /// Peak precipitation at the storm core, mm per hour.
    pub peak_precipitation_mm_h: f64,
    /// Peak sustained wind at the storm core, mph.
    pub peak_wind_mph: f64,
    /// Direction (radians, math convention) of the heavy rain band across the
    /// city: precipitation increases along this direction.
    pub band_angle_rad: f64,
    /// Calendar label of day 0, for printing figure axes ("Sep 1").
    pub day_zero_label: (Month, u32),
}

/// Month names for calendar labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Month {
    /// August.
    Aug,
    /// September.
    Sep,
    /// October.
    Oct,
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Month::Aug => write!(f, "Aug"),
            Month::Sep => write!(f, "Sep"),
            Month::Oct => write!(f, "Oct"),
        }
    }
}

impl Hurricane {
    /// Hurricane Florence preset: a 30-day September window with disaster
    /// days 12–15 (Sep 13–16 impact on Charlotte), heavy rain, south-east
    /// rain band.
    pub fn florence() -> Self {
        Self {
            name: "Florence".to_owned(),
            timeline: Timeline::new(30, 12, 16),
            peak_precipitation_mm_h: 11.0,
            peak_wind_mph: 70.0,
            band_angle_rad: -0.6,
            day_zero_label: (Month::Sep, 1),
        }
    }

    /// Hurricane Michael preset: a 30-day October window with disaster days
    /// 9–12, somewhat weaker rain over Charlotte, different band direction.
    /// Used as the *training* disaster, matching the paper's setup.
    pub fn michael() -> Self {
        Self {
            name: "Michael".to_owned(),
            timeline: Timeline::new(30, 9, 12),
            peak_precipitation_mm_h: 9.0,
            peak_wind_mph: 62.0,
            band_angle_rad: 0.9,
            day_zero_label: (Month::Oct, 1),
        }
    }

    /// Calendar label for a day index, e.g. `"Sep 14"`.
    ///
    /// Month rollover is ignored — scenarios are anchored so the window of
    /// interest stays within one month.
    pub fn day_label(&self, day: u32) -> String {
        let (month, first) = self.day_zero_label;
        format!("{month} {}", first + day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_partition_the_scenario() {
        let tl = Timeline::new(30, 12, 16);
        assert_eq!(tl.phase_of_day(0), DisasterPhase::Before);
        assert_eq!(tl.phase_of_day(11), DisasterPhase::Before);
        assert_eq!(tl.phase_of_day(12), DisasterPhase::During);
        assert_eq!(tl.phase_of_day(15), DisasterPhase::During);
        assert_eq!(tl.phase_of_day(16), DisasterPhase::After);
        assert_eq!(tl.phase_of_day(29), DisasterPhase::After);
    }

    #[test]
    fn intensity_is_zero_before_and_long_after() {
        let tl = Timeline::new(30, 12, 16);
        assert_eq!(tl.intensity(0), 0.0);
        assert_eq!(tl.intensity(10 * 24), 0.0);
        assert_eq!(tl.intensity(20 * 24), 0.0);
    }

    #[test]
    fn intensity_peaks_at_peak_hour() {
        let tl = Timeline::new(30, 12, 16);
        let peak = tl.peak_hour();
        let at_peak = tl.intensity(peak);
        assert!((at_peak - 1.0).abs() < 1e-9);
        for h in 0..tl.total_hours() {
            assert!(tl.intensity(h) <= at_peak + 1e-12);
            assert!(tl.intensity(h) >= 0.0);
        }
    }

    #[test]
    fn intensity_ramps_monotonically_to_peak() {
        let tl = Timeline::new(30, 12, 16);
        let peak = tl.peak_hour();
        let mut last = -1.0;
        for h in (11 * 24)..=peak {
            let i = tl.intensity(h);
            assert!(i + 1e-12 >= last, "dip at hour {h}");
            last = i;
        }
    }

    #[test]
    fn hour_day_mapping() {
        let tl = Timeline::new(30, 12, 16);
        assert_eq!(tl.day_of_hour(0), 0);
        assert_eq!(tl.day_of_hour(23), 0);
        assert_eq!(tl.day_of_hour(24), 1);
        assert_eq!(tl.total_hours(), 720);
        assert_eq!(
            tl.phase_of_day(tl.day_of_hour(13 * 24)),
            DisasterPhase::During
        );
    }

    #[test]
    fn presets_differ_and_label_days() {
        let f = Hurricane::florence();
        let m = Hurricane::michael();
        assert_ne!(f.timeline, m.timeline);
        assert_eq!(f.day_label(13), "Sep 14");
        assert_eq!(m.day_label(9), "Oct 10");
    }

    #[test]
    #[should_panic(expected = "disaster window")]
    fn invalid_window_rejected() {
        let _ = Timeline::new(30, 16, 12);
    }
}

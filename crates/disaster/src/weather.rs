//! Space–time weather fields (precipitation and wind).
//!
//! The paper reads precipitation and wind speed from the National Weather
//! Service. Here a [`WeatherField`] synthesizes both from a [`Hurricane`]:
//! a temporal intensity curve (the storm passing) multiplied by a spatial
//! profile (a rain band across the city plus a core over downtown, with
//! smooth noise), so different regions receive measurably different factor
//! values — the property Observation 1 relies on.

use crate::hurricane::Hurricane;
use mobirescue_roadnet::geo::GeoPoint;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Deterministic smooth space–time weather field.
///
/// # Examples
///
/// ```
/// use mobirescue_disaster::hurricane::Hurricane;
/// use mobirescue_disaster::weather::WeatherField;
/// use mobirescue_roadnet::geo::GeoPoint;
///
/// let center = GeoPoint::new(35.2271, -80.8431);
/// let weather = WeatherField::new(center, Hurricane::florence(), 42);
/// let peak = weather.hurricane().timeline.peak_hour();
/// assert!(weather.precipitation_mm_h(center, peak) > 1.0);
/// assert_eq!(weather.precipitation_mm_h(center, 0), 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeatherField {
    origin: GeoPoint,
    hurricane: Hurricane,
    /// (wavelength_x, wavelength_y, phase_x, phase_y) of the precip noise.
    precip_noise: (f64, f64, f64, f64),
    wind_noise: (f64, f64, f64, f64),
}

impl WeatherField {
    /// Creates a weather field around `origin` for `hurricane`,
    /// deterministic in `seed`.
    pub fn new(origin: GeoPoint, hurricane: Hurricane, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7765_6174_6865_7200);
        let mut noise = |_: ()| {
            (
                rng.random_range(6_000.0..18_000.0),
                rng.random_range(6_000.0..18_000.0),
                rng.random_range(0.0..std::f64::consts::TAU),
                rng.random_range(0.0..std::f64::consts::TAU),
            )
        };
        let precip_noise = noise(());
        let wind_noise = noise(());
        Self {
            origin,
            hurricane,
            precip_noise,
            wind_noise,
        }
    }

    /// The hurricane driving this field.
    pub fn hurricane(&self) -> &Hurricane {
        &self.hurricane
    }

    /// Spatial profile in roughly `[0.3, 1.3]`: rain band gradient + downtown
    /// core + smooth noise.
    fn spatial_profile(&self, p: GeoPoint, noise: (f64, f64, f64, f64), band_weight: f64) -> f64 {
        let (x, y) = p.local_xy_m(self.origin);
        let along =
            x * self.hurricane.band_angle_rad.cos() + y * self.hurricane.band_angle_rad.sin();
        // Normalize the along-band coordinate to about [-1, 1] at city scale.
        let band = (along / 12_000.0).clamp(-1.0, 1.0);
        let r2 = x * x + y * y;
        let core = (-r2 / (2.0 * 5_000.0_f64 * 5_000.0)).exp();
        let (wlx, wly, phx, phy) = noise;
        let n = (x / wlx * std::f64::consts::TAU + phx).sin()
            * (y / wly * std::f64::consts::TAU + phy).cos();
        (0.75 + band_weight * band + 0.25 * core + 0.1 * n).max(0.05)
    }

    /// Precipitation at `p` during `hour`, in mm per hour: the storm's
    /// peak rate times its intensity during `hour`, times the rain's
    /// spatial profile at `p`.
    pub fn precipitation_mm_h(&self, p: GeoPoint, hour: u32) -> f64 {
        self.precipitation_scale_mm_h(hour) * self.precipitation_profile(p)
    }

    /// The time-dependent factor of [`WeatherField::precipitation_mm_h`]:
    /// the peak rate times the storm's intensity during `hour`, in mm per
    /// hour.
    pub(crate) fn precipitation_scale_mm_h(&self, hour: u32) -> f64 {
        self.hurricane.peak_precipitation_mm_h * self.hurricane.timeline.intensity(hour)
    }

    /// The time-independent factor of [`WeatherField::precipitation_mm_h`]:
    /// the rain's spatial profile at `p`, roughly in `[0.3, 1.3]`.
    pub(crate) fn precipitation_profile(&self, p: GeoPoint) -> f64 {
        self.spatial_profile(p, self.precip_noise, 0.25)
    }

    /// Sustained wind speed at `p` during `hour`, in mph. A small ambient
    /// wind is present even without the storm.
    pub fn wind_mph(&self, p: GeoPoint, hour: u32) -> f64 {
        let intensity = self.hurricane.timeline.intensity(hour);
        let ambient = 6.0;
        ambient
            + (self.hurricane.peak_wind_mph - ambient)
                * intensity
                * self.spatial_profile(p, self.wind_noise, 0.2)
    }

    /// Total precipitation at `p` accumulated over day `day`, in mm.
    pub fn daily_precipitation_mm(&self, p: GeoPoint, day: u32) -> f64 {
        (0..24)
            .map(|h| self.precipitation_mm_h(p, day * 24 + h))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> WeatherField {
        WeatherField::new(GeoPoint::new(35.2271, -80.8431), Hurricane::florence(), 7)
    }

    #[test]
    fn dry_before_the_storm() {
        let w = field();
        let p = w.origin.offset_m(2_000.0, -3_000.0);
        for h in 0..(10 * 24) {
            assert_eq!(w.precipitation_mm_h(p, h), 0.0, "rain at hour {h}");
        }
    }

    #[test]
    fn wet_and_windy_at_the_peak() {
        let w = field();
        let peak = w.hurricane().timeline.peak_hour();
        let p = w.origin;
        assert!(w.precipitation_mm_h(p, peak) > 3.0);
        assert!(w.wind_mph(p, peak) > 30.0);
    }

    #[test]
    fn ambient_wind_without_storm() {
        let w = field();
        let v = w.wind_mph(w.origin, 0);
        assert!((v - 6.0).abs() < 1e-9, "ambient wind {v}");
    }

    #[test]
    fn spatial_variation_across_the_band() {
        let w = field();
        let peak = w.hurricane().timeline.peak_hour();
        let a = w.hurricane().band_angle_rad;
        let up = w.origin.offset_m(9_000.0 * a.cos(), 9_000.0 * a.sin());
        let down = w.origin.offset_m(-9_000.0 * a.cos(), -9_000.0 * a.sin());
        assert!(
            w.precipitation_mm_h(up, peak) > w.precipitation_mm_h(down, peak),
            "rain band gradient missing"
        );
    }

    #[test]
    fn precipitation_never_negative() {
        let w = field();
        for h in (0..720).step_by(13) {
            for i in -5..=5 {
                let p = w.origin.offset_m(i as f64 * 2_500.0, i as f64 * -1_700.0);
                assert!(w.precipitation_mm_h(p, h) >= 0.0);
                assert!(w.wind_mph(p, h) >= 0.0);
            }
        }
    }

    #[test]
    fn daily_accumulation_sums_hours() {
        let w = field();
        let p = w.origin;
        let day = w.hurricane().timeline.disaster_start_day + 1;
        let manual: f64 = (0..24).map(|h| w.precipitation_mm_h(p, day * 24 + h)).sum();
        assert!((w.daily_precipitation_mm(p, day) - manual).abs() < 1e-9);
        assert!(
            manual > 10.0,
            "a disaster day should accumulate real rain, got {manual}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = WeatherField::new(GeoPoint::new(35.2, -80.8), Hurricane::florence(), 3);
        let b = WeatherField::new(GeoPoint::new(35.2, -80.8), Hurricane::florence(), 3);
        let p = a.origin.offset_m(1_000.0, 500.0);
        let peak = a.hurricane().timeline.peak_hour();
        assert_eq!(a.precipitation_mm_h(p, peak), b.precipitation_mm_h(p, peak));
    }
}

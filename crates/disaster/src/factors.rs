//! Disaster-related factor vectors.
//!
//! Section IV-B: every person carries a vector **h** of *disaster-related
//! factors* describing their surrounding environment — `(precipitation, wind
//! speed, altitude)` for hurricanes/flooding — which the SVM consumes to
//! decide whether the person needs rescue.

use serde::{Deserialize, Serialize};

/// The hurricane factor vector `h = (precipitation, wind speed, altitude)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FactorVector {
    /// Precipitation at the position, mm per hour.
    pub precipitation_mm_h: f64,
    /// Sustained wind speed, mph.
    pub wind_mph: f64,
    /// Terrain altitude, meters.
    pub altitude_m: f64,
}

impl FactorVector {
    /// The vector as an array in the paper's factor order.
    pub fn as_array(&self) -> [f64; 3] {
        [self.precipitation_mm_h, self.wind_mph, self.altitude_m]
    }
}

impl From<FactorVector> for Vec<f64> {
    fn from(v: FactorVector) -> Self {
        v.as_array().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_vector_round_trips_to_array() {
        let v = FactorVector {
            precipitation_mm_h: 1.0,
            wind_mph: 2.0,
            altitude_m: 3.0,
        };
        assert_eq!(v.as_array(), [1.0, 2.0, 3.0]);
        let vec: Vec<f64> = v.into();
        assert_eq!(vec, vec![1.0, 2.0, 3.0]);
    }
}

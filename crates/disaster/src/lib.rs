//! Disaster substrate for the MobiRescue reproduction.
//!
//! The paper consumes three external disaster products: National Weather
//! Service weather data (precipitation, wind speed), satellite flood imaging
//! (the flood zones that define the remaining available road network G̃),
//! and terrain altitude (from cellphone altimeters). None are available
//! offline, so this crate simulates each with deterministic models that feed
//! the identical downstream interfaces:
//!
//! * [`terrain`] — smooth altitude field with a low downtown basin;
//! * [`hurricane`] — named storms with before/during/after timelines
//!   ([`hurricane::Hurricane::florence`] and
//!   [`hurricane::Hurricane::michael`] presets matching the paper's two
//!   storms);
//! * [`weather`] — space–time precipitation and wind fields;
//! * [`flood`] — raster water-balance flood model producing flood zones and
//!   the per-hour [`mobirescue_roadnet::damage::NetworkCondition`] (G̃);
//! * [`factors`] — the disaster-related factor vector **h** and the
//!   [`factors::FactorSet`] extension point of Section IV-C5;
//! * [`scenario`] — the [`scenario::DisasterScenario`] bundle used by the
//!   rest of the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod factors;
pub mod flood;
pub mod hurricane;
pub mod scenario;
pub mod terrain;
pub mod weather;

pub use factors::{EarthquakeFactors, FactorSet, FactorVector, HurricaneFactors};
pub use flood::FloodField;
pub use hurricane::{DisasterPhase, Hurricane, Timeline, HOURS_PER_DAY};
pub use scenario::DisasterScenario;
pub use terrain::TerrainModel;
pub use weather::WeatherField;

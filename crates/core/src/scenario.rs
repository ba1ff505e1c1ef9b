//! Scenario bundles: city + disaster + synthetic population in one value.
//!
//! Everything in the evaluation consumes a [`Scenario`]; the paper's two
//! storms become [`ScenarioConfig::florence`]/[`ScenarioConfig::michael`]
//! over the same city (Michael is the training disaster, Florence the
//! evaluation disaster, matching Section V-B).

use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_mobility::generator::{generate, GenerationOutput, PopulationConfig};
use mobirescue_mobility::stream::generate_streamed;
use mobirescue_roadnet::generator::{City, CityConfig};

/// Configuration of a full scenario build.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// City generation parameters.
    pub city: CityConfig,
    /// The storm.
    pub hurricane: Hurricane,
    /// Population parameters.
    pub population: PopulationConfig,
    /// Absolute-hour window to precompute network conditions for; `None`
    /// covers the whole scenario. Metro presets window to the storm hours:
    /// over the metro's 101,280 segments the full 720-hour horizon holds
    /// 189 runs of equal hours and 4.05M non-pristine entries (81 MB, and
    /// 1.17 GB held densely), the 60-hour storm window 43 runs and 1.07M
    /// entries (21 MB), built in a fifth of the time.
    pub condition_window: Option<std::ops::Range<u32>>,
    /// When set, populations larger than this are generated by streaming
    /// an evenly strided sample of this many residents
    /// ([`generate_streamed`]) instead of materializing everyone.
    pub materialize_cap: Option<usize>,
}

impl ScenarioConfig {
    /// Small test-scale Florence scenario (12×12 city, 300 people).
    pub fn small() -> Self {
        Self {
            city: CityConfig::small(),
            hurricane: Hurricane::florence(),
            population: PopulationConfig::small(),
            condition_window: None,
            materialize_cap: None,
        }
    }

    /// Mid-scale Florence scenario for benchmarks that must finish in
    /// minutes (24×24 city, 2,500 people).
    pub fn medium() -> Self {
        let mut city = CityConfig::charlotte_like();
        city.grid_width = 24;
        city.grid_height = 24;
        let mut population = PopulationConfig::charlotte_like();
        population.num_people = 2_500;
        Self {
            city,
            hurricane: Hurricane::florence(),
            population,
            condition_window: None,
            materialize_cap: None,
        }
    }

    /// Paper-scale Florence scenario (36×36 city, 8,590 people).
    pub fn charlotte_like() -> Self {
        Self {
            city: CityConfig::charlotte_like(),
            hurricane: Hurricane::florence(),
            population: PopulationConfig::charlotte_like(),
            condition_window: None,
            materialize_cap: None,
        }
    }

    /// Metro-scale Florence scenario: a 2×2-district city of ~101k segments
    /// and 2M residents. Conditions are windowed to the storm's landfall
    /// ramp (hours 276..336), which holds 21 MB of them where the full
    /// horizon would hold 81 MB (1.17 GB held densely), and the population
    /// is a streamed 20k-resident sample.
    pub fn metro() -> Self {
        Self {
            city: CityConfig::metro(),
            hurricane: Hurricane::florence(),
            population: PopulationConfig::metro(),
            condition_window: Some(276..336),
            materialize_cap: Some(20_000),
        }
    }

    /// Looks up a preset by its CLI name (`small`, `medium`, `charlotte`,
    /// `metro`). Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            "charlotte" => Some(Self::charlotte_like()),
            "metro" => Some(Self::metro()),
            _ => None,
        }
    }

    /// The same configuration with the Florence storm.
    pub fn florence(mut self) -> Self {
        self.hurricane = Hurricane::florence();
        self
    }

    /// The same configuration with the Michael storm (the paper's training
    /// disaster).
    pub fn michael(mut self) -> Self {
        self.hurricane = Hurricane::michael();
        self
    }

    /// Builds the scenario deterministically from `seed`. The city is
    /// derived from the seed alone, so Florence and Michael scenarios with
    /// the same seed share the same city (as in the paper: same Charlotte,
    /// two storms).
    pub fn build(&self, seed: u64) -> Scenario {
        let city = self.city.build(seed);
        let disaster = DisasterScenario::new(&city, self.hurricane.clone(), seed);
        let generated = match self.materialize_cap {
            Some(cap) if self.population.num_people > cap => {
                generate_streamed(&city, &disaster, &self.population, seed, cap)
            }
            _ => generate(&city, &disaster, &self.population, seed),
        };
        let window = self
            .condition_window
            .clone()
            .unwrap_or(0..disaster.total_hours());
        let conditions = HourlyConditions::compute_window(&city.network, &disaster, window);
        Scenario {
            config: self.clone(),
            seed,
            city,
            disaster,
            generated,
            conditions,
        }
    }
}

/// A fully built scenario.
#[derive(Debug)]
pub struct Scenario {
    /// The configuration it was built from.
    pub config: ScenarioConfig,
    /// The build seed.
    pub seed: u64,
    /// The generated city.
    pub city: City,
    /// Terrain + weather + flood state.
    pub disaster: DisasterScenario,
    /// The synthetic population dataset (and generator truth).
    pub generated: GenerationOutput,
    /// Per-hour network conditions (G̃ for every hour).
    pub conditions: HourlyConditions,
}

impl Scenario {
    /// The storm driving this scenario.
    pub fn hurricane(&self) -> &Hurricane {
        self.disaster.hurricane()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_coherent_small_scenario() {
        let s = ScenarioConfig::small().build(3);
        assert_eq!(s.generated.dataset.num_people(), 300);
        assert_eq!(s.conditions.hours(), s.disaster.total_hours());
        assert!(s.city.network.num_segments() > 0);
    }

    #[test]
    fn preset_names_round_trip() {
        for name in ["small", "medium", "charlotte", "metro"] {
            assert!(ScenarioConfig::from_name(name).is_some(), "missing {name}");
        }
        assert!(ScenarioConfig::from_name("atlantis").is_none());
    }

    #[test]
    fn metro_preset_windows_conditions_and_caps_population() {
        let cfg = ScenarioConfig::metro();
        assert_eq!(cfg.condition_window, Some(276..336));
        assert!(cfg.population.num_people >= 2_000_000);
        assert!(cfg.materialize_cap.unwrap() < cfg.population.num_people);
        assert!(cfg.city.num_districts() > 1);
    }

    #[test]
    fn windowed_build_samples_population_and_covers_window() {
        // A windowed, capped variant of the small preset exercises the same
        // build path the metro preset takes, at test scale.
        let mut cfg = ScenarioConfig::small();
        cfg.condition_window = Some(276..280);
        cfg.materialize_cap = Some(25);
        let s = cfg.build(3);
        assert_eq!(s.generated.dataset.num_people(), 25);
        assert_eq!(s.generated.total_residents, 300);
        assert_eq!(s.conditions.first_hour(), 276);
        assert_eq!(s.conditions.hours(), 280);
    }

    #[test]
    fn florence_and_michael_share_the_city() {
        let f = ScenarioConfig::small().florence().build(9);
        let m = ScenarioConfig::small().michael().build(9);
        assert_eq!(f.city.hospitals, m.city.hospitals);
        assert_eq!(f.city.network.num_segments(), m.city.network.num_segments());
        assert_ne!(f.hurricane().name, m.hurricane().name);
    }
}

//! Offline RL training (Section IV-C4).
//!
//! The paper trains the dispatch policy on historical data from a previous
//! disaster (Hurricane Michael) before running it — continually updated —
//! on the live one. [`train_offline`] reproduces that: the dispatcher
//! replays full simulated days of the training scenario's mined rescue
//! requests, learning from the Equation-5 reward, and the trained agent is
//! then transplanted into an evaluation dispatcher.

use crate::predictor::RequestPredictor;
use crate::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig};
use crate::scenario::Scenario;
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_mobility::rescue::RescueRecord;
use mobirescue_rl::qscore::QScore;
use mobirescue_sim::types::{RequestSpec, SimConfig};

/// Converts one day of mined rescue records into simulator request specs
/// (`appear_s` relative to the day's midnight).
///
/// Each request is placed on the segment nearest the trapped position that
/// is still *operable* at request time: rescue pick-ups happen at the
/// water's edge — a vehicle-borne team cannot drive into the inundated
/// block itself, and the paper's request distribution lives on the
/// remaining available network Ẽ.
pub fn requests_on_day(
    scenario: &Scenario,
    matcher: &MapMatcher,
    rescues: &[RescueRecord],
    day: u32,
) -> Vec<RequestSpec> {
    let net = &scenario.city.network;
    rescues
        .iter()
        .filter(|r| r.request_day() == day)
        .map(|r| {
            let hour = (r.request_minute / 60).min(scenario.disaster.total_hours() - 1);
            let cond = scenario.conditions.at(hour);
            let nearest = matcher.nearest_segment(net, r.request_position);
            let segment = if cond.is_operable(nearest) {
                nearest
            } else {
                cond.operable_segments()
                    .map(|s| (s, net.segment_midpoint(s).distance_m(r.request_position)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are never NaN"))
                    .map_or(nearest, |(s, _)| s)
            };
            RequestSpec {
                appear_s: (r.request_minute - day * 24 * 60) * 60,
                segment,
            }
        })
        .collect()
}

/// The day with the most rescue requests — the paper picks Sep 16 as "the
/// day with the highest number of rescue requests".
pub fn busiest_request_day(rescues: &[RescueRecord]) -> Option<u32> {
    let mut counts = std::collections::HashMap::new();
    for r in rescues {
        *counts.entry(r.request_day()).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(day, n)| (n, std::cmp::Reverse(day)))
        .map(|(d, _)| d)
}

/// Statistics of one training episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeStats {
    /// The scenario day replayed.
    pub day: u32,
    /// Requests injected.
    pub requests: usize,
    /// Requests served.
    pub served: usize,
    /// Requests served within the timeliness bound.
    pub timely: usize,
    /// Cumulative Equation-5 reward over the episode.
    pub reward: f64,
}

/// Report of an offline training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Per-episode statistics, in order.
    pub episodes: Vec<EpisodeStats>,
}

impl TrainingReport {
    /// Mean served count over the first `n` and last `n` episodes — a
    /// crude learning-progress measure.
    pub fn improvement(&self, n: usize) -> Option<(f64, f64)> {
        if self.episodes.len() < 2 * n || n == 0 {
            return None;
        }
        let head: f64 = self.episodes[..n].iter().map(|e| e.reward).sum::<f64>() / n as f64;
        let tail: f64 = self.episodes[self.episodes.len() - n..]
            .iter()
            .map(|e| e.reward)
            .sum::<f64>()
            / n as f64;
        Some((head, tail))
    }
}

/// Trains a fresh agent by replaying `episodes` simulated days of the
/// training scenario (cycling over its disaster days), returning the
/// trained agent and the per-episode report.
///
/// # Panics
///
/// Panics if the training scenario yields no rescue requests on any
/// disaster day.
pub fn train_offline(
    scenario: &Scenario,
    predictor: Option<RequestPredictor>,
    rl_config: RlDispatchConfig,
    sim_config: &SimConfig,
    episodes: usize,
) -> (QScore, TrainingReport) {
    let matcher = MapMatcher::new(&scenario.city.network);
    let rescues = crate::predictor::mine_rescues(scenario);
    let tl = scenario.hurricane().timeline;
    // Days with at least one request, inside an extended disaster window.
    let days: Vec<u32> = (tl.disaster_start_day..(tl.disaster_end_day + 3).min(tl.total_days))
        .filter(|&d| rescues.iter().any(|r| r.request_day() == d))
        .collect();
    assert!(!days.is_empty(), "training scenario has no rescue requests");

    let mut dispatcher = MobiRescueDispatcher::new(scenario, predictor, rl_config);
    let mut report = TrainingReport::default();
    for ep in 0..episodes {
        let day = days[ep % days.len()];
        let requests = requests_on_day(scenario, &matcher, &rescues, day);
        let mut cfg = sim_config.clone();
        cfg.start_hour = day * 24;
        cfg.duration_hours = cfg
            .duration_hours
            .min(scenario.disaster.total_hours() - cfg.start_hour);
        dispatcher.reset_episode();
        let outcome = mobirescue_sim::run(
            &scenario.city,
            &scenario.conditions,
            &requests,
            &mut dispatcher,
            &cfg,
        );
        report.episodes.push(EpisodeStats {
            day,
            requests: requests.len(),
            served: outcome.total_served(),
            timely: outcome.total_timely_served(),
            reward: dispatcher.episode_reward,
        });
    }
    (dispatcher.into_policy(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::mine_rescues;
    use crate::scenario::ScenarioConfig;

    #[test]
    fn request_extraction_is_day_relative() {
        let scenario = ScenarioConfig::small().florence().build(61);
        let matcher = MapMatcher::new(&scenario.city.network);
        let rescues = mine_rescues(&scenario);
        let day = busiest_request_day(&rescues).expect("rescues exist");
        let requests = requests_on_day(&scenario, &matcher, &rescues, day);
        assert!(!requests.is_empty());
        for r in &requests {
            assert!(
                r.appear_s < 24 * 3_600,
                "appear_s {} beyond the day",
                r.appear_s
            );
        }
    }

    #[test]
    fn busiest_day_is_in_the_disaster_window() {
        let scenario = ScenarioConfig::small().florence().build(62);
        let rescues = mine_rescues(&scenario);
        let day = busiest_request_day(&rescues).unwrap();
        let tl = scenario.hurricane().timeline;
        assert!(day + 1 >= tl.disaster_start_day && day <= tl.disaster_end_day + 3);
    }

    #[test]
    fn offline_training_runs_and_reports() {
        let scenario = ScenarioConfig::small().michael().build(63);
        let mut sim = SimConfig::small(0);
        sim.duration_hours = 6;
        let (policy, report) = train_offline(&scenario, None, RlDispatchConfig::default(), &sim, 3);
        assert_eq!(report.episodes.len(), 3);
        assert!(policy.learn_steps() > 0, "policy never learned offline");
        assert!(report.episodes.iter().all(|e| e.requests > 0));
    }
}

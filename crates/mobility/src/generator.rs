//! Synthetic population and GPS-trace generation.
//!
//! The paper's dataset — 8,590 people tracked at 0.5–2 hour intervals for 15
//! days before and after Hurricane Florence — is proprietary (X-Mode). This
//! generator synthesizes the part of its schema the pipeline reads (who was
//! where when: a [`GpsPing`] is `(person, minute, position)`) with the
//! behavioural structure the paper's analysis detects:
//!
//! * normal days: commutes and errands (vehicle trips → flow rate);
//! * disaster days: people shelter as the storm intensifies (flow collapses,
//!   Figure 5), and people whose location floods become *trapped* — they
//!   stop moving, implicitly issue a rescue request, and some time later are
//!   carried to the nearest hospital where they stay for hours (the signal
//!   Figures 4 and 6 and the SVM training labels are mined from);
//! * after the disaster: movement resumes where roads allow.
//!
//! Everything downstream (flow-rate measurement, hospital-delivery
//! detection, rescued labelling) consumes only the generated [`GpsPing`]s —
//! the generator's internal truth is exposed separately strictly for
//! validation.

use crate::person::{MobilityProfile, Person, PersonId};
use crate::trace::{GpsPing, MobilityDataset, MINUTES_PER_DAY};
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_roadnet::generator::City;
use mobirescue_roadnet::geo::{GeoPoint, LocalProjection};
use mobirescue_roadnet::graph::LandmarkId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of tracked people (the paper's dataset has 8,590).
    pub num_people: usize,
    /// Minimum GPS sampling interval, minutes.
    pub ping_interval_min: u32,
    /// Maximum GPS sampling interval, minutes.
    pub ping_interval_max: u32,
    /// GPS position noise (uniform radius), meters.
    pub gps_noise_m: f64,
    /// Fraction of people who commute daily.
    pub commuter_fraction: f64,
    /// Expected errand trips per person per normal day.
    pub errands_per_day: f64,
    /// Probability that a person in *shallow* flooding becomes trapped
    /// rather than self-evacuating. People caught by deep water (≥ 0.45 m)
    /// are always trapped — self-evacuation stops being an option, which
    /// is also what makes the trapped population factor-separable from the
    /// evacuated one (they sit at the lowest altitudes).
    pub trap_probability: f64,
}

impl PopulationConfig {
    /// Paper-scale population: 8,590 people.
    pub fn charlotte_like() -> Self {
        Self {
            num_people: 8_590,
            ping_interval_min: 30,
            ping_interval_max: 120,
            gps_noise_m: 25.0,
            commuter_fraction: 0.65,
            errands_per_day: 0.8,
            trap_probability: 0.25,
        }
    }

    /// Small population for tests and quickstarts.
    pub fn small() -> Self {
        Self {
            num_people: 300,
            ..Self::charlotte_like()
        }
    }

    /// Metro-scale population: two million residents. Populations this
    /// size are generated through [`crate::stream`] (chunked, per-resident
    /// seeded) rather than materialized wholesale.
    pub fn metro() -> Self {
        Self {
            num_people: 2_000_000,
            ..Self::charlotte_like()
        }
    }
}

/// Generator-internal truth about one trapped-and-rescued person, exposed
/// for validating the detection pipeline (never consumed by MobiRescue
/// itself).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrueRescue {
    /// Who was trapped.
    pub person: PersonId,
    /// Minute the person became trapped (= implicit rescue request time).
    pub trapped_minute: u32,
    /// Where they were trapped.
    pub position: GeoPoint,
    /// Minute they were delivered to hospital.
    pub rescue_minute: u32,
    /// Hospital landmark they were delivered to.
    pub hospital: LandmarkId,
}

/// Output of a generation run: the dataset plus generator truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerationOutput {
    /// The synthesized dataset (people + pings).
    pub dataset: MobilityDataset,
    /// True trapped/rescue events, for validation only.
    pub true_rescues: Vec<TrueRescue>,
    /// Residents the generating configuration describes. Equal to
    /// `dataset.num_people()` for fully materialized runs; larger when the
    /// dataset is a deterministic sample of a streamed metro-scale
    /// population (see [`crate::stream::generate_streamed`]).
    pub total_residents: usize,
}

/// An anchor timeline: the position a person occupies from each minute on.
#[derive(Debug, Clone, Default)]
struct AnchorTimeline {
    /// `(minute, position)`, sorted by minute; position holds until the next
    /// entry.
    events: Vec<(u32, GeoPoint)>,
}

impl AnchorTimeline {
    fn push(&mut self, minute: u32, position: GeoPoint) {
        // Keep events sorted; out-of-order inserts are rare (late-night
        // errands spilling past midnight) but must not corrupt lookups.
        let idx = self.events.partition_point(|&(m, _)| m <= minute);
        self.events.insert(idx, (minute, position));
    }

    fn at(&self, minute: u32) -> GeoPoint {
        let idx = self.events.partition_point(|&(m, _)| m <= minute);
        self.events[idx.saturating_sub(1)].1
    }

    /// A reader for lookups at non-decreasing minutes: one forward pass
    /// over the events in place of a binary search per lookup.
    fn cursor(&self) -> AnchorCursor<'_> {
        AnchorCursor {
            events: &self.events,
            next: 0,
            held: None,
        }
    }
}

/// Reads an [`AnchorTimeline`] forward; see [`AnchorTimeline::cursor`].
struct AnchorCursor<'a> {
    events: &'a [(u32, GeoPoint)],
    /// Events at or before the last minute looked up.
    next: usize,
    /// The projection around the anchor of the last lookup, kept while
    /// that anchor holds.
    held: Option<LocalProjection>,
}

impl AnchorCursor<'_> {
    /// The projection around [`AnchorTimeline::at`]`(minute)`, for a
    /// `minute` no earlier than the previous call's. The anchor's cosine is
    /// taken once per anchor, not once per lookup.
    fn at(&mut self, minute: u32) -> &LocalProjection {
        let before = self.next;
        while self.next < self.events.len() && self.events[self.next].0 <= minute {
            self.next += 1;
        }
        if self.next != before || self.held.is_none() {
            self.held = Some(LocalProjection::new(
                self.events[self.next.saturating_sub(1)].1,
            ));
        }
        self.held.as_ref().expect("set above")
    }
}

/// Generates the synthetic dataset for `city` under `scenario`,
/// deterministic in `seed`.
///
/// # Panics
///
/// Panics if `config.num_people == 0`, the ping interval is empty, or the
/// city has no hospitals.
pub fn generate(
    city: &City,
    scenario: &DisasterScenario,
    config: &PopulationConfig,
    seed: u64,
) -> GenerationOutput {
    assert!(config.num_people > 0, "population must be non-empty");
    assert!(
        0 < config.ping_interval_min && config.ping_interval_min <= config.ping_interval_max,
        "ping interval must be a non-empty range"
    );
    assert!(!city.hospitals.is_empty(), "city must have hospitals");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6f_6269_6c69_7479);
    let people = sample_people(city, config, &mut rng);
    let hospital_pos: Vec<GeoPoint> = city
        .hospitals
        .iter()
        .map(|&h| city.network.landmark(h).position)
        .collect();
    let mut pings = Vec::new();
    let mut true_rescues = Vec::new();

    for person in &people {
        simulate_person(
            person,
            city,
            scenario,
            config,
            &hospital_pos,
            &mut rng,
            &mut pings,
            &mut true_rescues,
        );
    }

    GenerationOutput {
        dataset: MobilityDataset { people, pings },
        true_rescues,
        total_residents: config.num_people,
    }
}

/// Simulates one person's full-scenario behaviour — trips, sheltering,
/// trapping, rescue — appending their GPS pings and any true-rescue event.
/// Factored out of [`generate`] verbatim so the streaming generator
/// ([`crate::stream`]) can drive it with per-resident RNGs; the RNG call
/// sequence is exactly the original's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_person(
    person: &Person,
    city: &City,
    scenario: &DisasterScenario,
    config: &PopulationConfig,
    hospital_pos: &[GeoPoint],
    rng: &mut StdRng,
    pings: &mut Vec<GpsPing>,
    true_rescues: &mut Vec<TrueRescue>,
) {
    let total_minutes = scenario.total_hours() * 60;
    let total_days = scenario.total_hours() / 24;
    {
        let mut timeline = AnchorTimeline::default();
        timeline.push(0, person.home);
        let mut trapped: Option<u32> = None;
        let mut evacuated = false;
        let mut done_with_disaster = false;

        for day in 0..total_days {
            let day_start = day * MINUTES_PER_DAY;
            // Hourly flood check at the current anchor. An hour in which no
            // raster cell is flooded cannot flood the anchor, so it is
            // skipped without a lookup.
            if !done_with_disaster {
                for h in 0..24 {
                    let minute = day_start + h * 60;
                    if minute >= total_minutes {
                        break;
                    }
                    let hour = minute / 60;
                    if !scenario.flood().any_cell_flooded(hour) {
                        continue;
                    }
                    let pos = timeline.at(minute);
                    if trapped.is_none() && !evacuated && scenario.is_flooded(pos, hour) {
                        let depth = scenario.flood().depth_m(pos, hour);
                        let trap_p = if depth >= 0.45 {
                            1.0
                        } else {
                            config.trap_probability
                        };
                        if rng.random_bool(trap_p) {
                            // Trapped: stuck until rescued to the nearest
                            // hospital, where they stay for hours.
                            let trapped_minute = minute + rng.random_range(0..50);
                            let rescue_minute =
                                (trapped_minute + rng.random_range(90..700)).min(total_minutes - 1);
                            let (h_idx, _) = nearest_hospital(hospital_pos, pos);
                            timeline.push(rescue_minute, hospital_pos[h_idx]);
                            let leave = rescue_minute + rng.random_range(240..620);
                            if leave < total_minutes {
                                // Go home only if home has dried out.
                                let home_ok = !scenario.is_flooded(
                                    person.home,
                                    (leave / 60).min(scenario.total_hours() - 1),
                                );
                                if home_ok {
                                    timeline.push(leave, person.home);
                                }
                            }
                            trapped = Some(trapped_minute);
                            true_rescues.push(TrueRescue {
                                person: person.id,
                                trapped_minute,
                                position: pos,
                                rescue_minute,
                                hospital: city.hospitals[h_idx],
                            });
                        } else {
                            // Self-evacuation to a shelter on high ground:
                            // the hospital area with the highest terrain
                            // (shelters are sited above the flood line).
                            let minute = minute + rng.random_range(0..40);
                            let h_idx = hospital_pos
                                .iter()
                                .enumerate()
                                .max_by(|a, b| {
                                    let aa = scenario.terrain().altitude_m(*a.1);
                                    let ab = scenario.terrain().altitude_m(*b.1);
                                    aa.partial_cmp(&ab).expect("altitudes are never NaN")
                                })
                                .map(|(i, _)| i)
                                .expect("city has hospitals");
                            let shelter = hospital_pos[h_idx].offset_m(
                                rng.random_range(-400.0..400.0),
                                rng.random_range(-400.0..400.0),
                            );
                            timeline.push(minute, shelter);
                            evacuated = true;
                        }
                        done_with_disaster = true;
                        break;
                    }
                }
            }

            if trapped.is_some() || evacuated {
                continue; // no routine trips once displaced
            }

            // Sheltering: as the storm intensifies people stay home.
            let midday_intensity = scenario
                .hurricane()
                .timeline
                .intensity((day_start / 60 + 12).min(scenario.total_hours() - 1));
            if midday_intensity > 0.25 && rng.random_bool((midday_intensity * 1.2).min(0.97)) {
                continue;
            }

            // Normal-day routine.
            let mut home_again = day_start + 540; // earliest errand start
            if person.profile == MobilityProfile::Commuter {
                let depart = day_start + rng.random_range(420..560);
                let travel = est_travel_minutes(person.home, person.work);
                timeline.push(depart + travel, person.work);
                let back = day_start + rng.random_range(960..1140);
                if back + travel < total_minutes {
                    timeline.push(back + travel, person.home);
                    home_again = back + travel;
                }
            }
            if rng.random_bool(config.errands_per_day.clamp(0.0, 1.0)) {
                let start = home_again + rng.random_range(20..120);
                let target = random_landmark_pos(city, rng);
                let travel = est_travel_minutes(person.home, target);
                let stay = rng.random_range(25..90);
                let end = start + travel + stay + travel;
                if end < (day_start + MINUTES_PER_DAY).min(total_minutes) {
                    timeline.push(start + travel, target);
                    timeline.push(end, person.home);
                }
            }
        }

        // Sample GPS pings along the anchor timeline, in increasing minute
        // order.
        let mut anchors = timeline.cursor();
        let mut t = rng.random_range(0..config.ping_interval_max);
        while t < total_minutes {
            let position = anchors.at(t).offset_m(
                rng.random_range(-config.gps_noise_m..=config.gps_noise_m),
                rng.random_range(-config.gps_noise_m..=config.gps_noise_m),
            );
            // Pings carry no altimeter reading, but its noise draw stays so
            // that every later draw, and so every dataset, is unchanged.
            let _: f64 = rng.random_range(-3.0..3.0);
            pings.push(GpsPing {
                person: person.id,
                minute: t,
                position,
            });
            t += rng.random_range(config.ping_interval_min..=config.ping_interval_max);
        }
    }
}

/// Straight-line travel estimate at 8 m/s average urban speed, minutes.
fn est_travel_minutes(from: GeoPoint, to: GeoPoint) -> u32 {
    (from.distance_m(to) / 8.0 / 60.0).ceil() as u32
}

fn nearest_hospital(hospitals: &[GeoPoint], p: GeoPoint) -> (usize, f64) {
    hospitals
        .iter()
        .enumerate()
        .map(|(i, h)| (i, h.distance_m(p)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are never NaN"))
        .expect("city has hospitals")
}

fn random_landmark_pos(city: &City, rng: &mut StdRng) -> GeoPoint {
    let n = city.network.num_landmarks() as u32;
    city.network
        .landmark(LandmarkId(rng.random_range(0..n)))
        .position
}

/// Samples homes (denser downtown), workplaces (mostly downtown) and
/// profiles.
fn sample_people(city: &City, config: &PopulationConfig, rng: &mut StdRng) -> Vec<Person> {
    let landmarks: Vec<GeoPoint> = city.network.landmarks().map(|lm| lm.position).collect();
    (0..config.num_people as u32)
        .map(|i| sample_person(city, config, &landmarks, PersonId(i), rng))
        .collect()
}

/// Downtown-weighted landmark sampling by rejection.
fn weighted_pick(
    city: &City,
    landmarks: &[GeoPoint],
    rng: &mut StdRng,
    downtown_bias: f64,
) -> GeoPoint {
    loop {
        let p = landmarks[rng.random_range(0..landmarks.len())];
        let (x, y) = p.local_xy_m(city.center);
        let r2 = x * x + y * y;
        let w = 1.0 - downtown_bias + downtown_bias * (-r2 / (2.0 * 4_000.0_f64 * 4_000.0)).exp();
        if rng.random_bool(w.clamp(0.02, 1.0)) {
            return p;
        }
    }
}

/// Samples a single person's home, work, and profile. Factored out of
/// [`sample_people`] so the streaming generator ([`crate::stream`]) can
/// materialize any resident independently with a per-resident RNG; the RNG
/// call sequence matches the original batch sampler exactly.
pub(crate) fn sample_person(
    city: &City,
    config: &PopulationConfig,
    landmarks: &[GeoPoint],
    id: PersonId,
    rng: &mut StdRng,
) -> Person {
    let home = weighted_pick(city, landmarks, rng, 0.55).offset_m(
        rng.random_range(-200.0..200.0),
        rng.random_range(-200.0..200.0),
    );
    let profile = if rng.random_bool(config.commuter_fraction) {
        MobilityProfile::Commuter
    } else {
        MobilityProfile::Homebody
    };
    let work = if profile == MobilityProfile::Commuter {
        weighted_pick(city, landmarks, rng, 0.85).offset_m(
            rng.random_range(-150.0..150.0),
            rng.random_range(-150.0..150.0),
        )
    } else {
        home
    };
    Person {
        id,
        home,
        work,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_disaster::hurricane::Hurricane;
    use mobirescue_roadnet::generator::CityConfig;

    fn generate_small() -> (City, DisasterScenario, GenerationOutput) {
        let city = CityConfig::small().build(77);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), 77);
        let out = generate(&city, &scenario, &PopulationConfig::small(), 77);
        (city, scenario, out)
    }

    #[test]
    fn generates_requested_population() {
        let (_, _, out) = generate_small();
        assert_eq!(out.dataset.num_people(), 300);
        assert!(!out.dataset.pings.is_empty());
    }

    #[test]
    fn pings_sorted_by_person_then_minute() {
        let (_, _, out) = generate_small();
        assert!(out
            .dataset
            .pings
            .windows(2)
            .all(|w| (w[0].person, w[0].minute) <= (w[1].person, w[1].minute)));
    }

    #[test]
    fn ping_intervals_respect_config() {
        let (_, _, out) = generate_small();
        for traj in out.dataset.trajectories() {
            for w in traj.pings.windows(2) {
                let dt = w[1].minute - w[0].minute;
                assert!((30..=120).contains(&dt), "interval {dt}");
            }
        }
    }

    #[test]
    fn some_people_get_trapped_and_rescued() {
        let (_, scenario, out) = generate_small();
        assert!(
            out.true_rescues.len() > 5,
            "expected a real rescue population, got {}",
            out.true_rescues.len()
        );
        let tl = scenario.hurricane().timeline;
        for r in &out.true_rescues {
            assert!(r.rescue_minute > r.trapped_minute);
            let day = r.trapped_minute / MINUTES_PER_DAY;
            assert!(
                day + 1 >= tl.disaster_start_day && day <= tl.disaster_end_day + 3,
                "trapped on day {day} outside the disaster window"
            );
        }
    }

    #[test]
    fn trapped_people_ping_from_hospital_after_rescue() {
        let (city, _, out) = generate_small();
        let trajs = out.dataset.trajectories();
        let mut verified = 0;
        for r in &out.true_rescues {
            let hospital = city.network.landmark(r.hospital).position;
            let at_hospital = trajs[r.person.index()]
                .pings
                .iter()
                .filter(|p| p.minute >= r.rescue_minute && p.minute < r.rescue_minute + 240)
                .filter(|p| p.position.distance_m(hospital) < 200.0)
                .count();
            if at_hospital >= 1 {
                verified += 1;
            }
        }
        assert!(
            verified * 10 >= out.true_rescues.len() * 7,
            "only {verified}/{} rescues visible in pings",
            out.true_rescues.len()
        );
    }

    #[test]
    fn movement_drops_during_disaster() {
        let (_, scenario, out) = generate_small();
        let tl = scenario.hurricane().timeline;
        // Count "moved > 400 m between consecutive pings" events per day as
        // a cheap movement proxy.
        let mut moves = vec![0usize; 30];
        for traj in out.dataset.trajectories() {
            for w in traj.pings.windows(2) {
                if w[0].position.distance_m(w[1].position) > 400.0 {
                    moves[(w[1].minute / MINUTES_PER_DAY) as usize] += 1;
                }
            }
        }
        let before: f64 = (5..10).map(|d| moves[d] as f64).sum::<f64>() / 5.0;
        let peak_day = (tl.peak_hour() / 24) as usize;
        let during = moves[peak_day] as f64;
        assert!(
            during < before * 0.5,
            "movement should collapse during the storm: before {before}, during {during}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let city = CityConfig::small().build(5);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), 5);
        let a = generate(&city, &scenario, &PopulationConfig::small(), 9);
        let b = generate(&city, &scenario, &PopulationConfig::small(), 9);
        assert_eq!(a.dataset.pings.len(), b.dataset.pings.len());
        assert_eq!(a.dataset.pings[100], b.dataset.pings[100]);
        assert_eq!(a.true_rescues, b.true_rescues);
    }

    #[test]
    fn cursor_reads_what_a_lookup_reads_at_increasing_minutes() {
        let point = |i: u32| GeoPoint::new(35.0 + f64::from(i) * 0.001, -80.0);
        let mut timeline = AnchorTimeline::default();
        timeline.push(0, point(0));
        timeline.push(300, point(1));
        // Two events at one minute: the later push holds from then on.
        timeline.push(600, point(2));
        timeline.push(600, point(3));
        timeline.push(1_500, point(4));
        // An out-of-order insert, as a late-night errand's return spills
        // past the next day's first anchor.
        timeline.push(1_450, point(5));
        timeline.push(1_450, point(6));
        timeline.push(2_000, point(7));
        let at = |minute| LocalProjection::new(timeline.at(minute));
        let mut cursor = timeline.cursor();
        for minute in (0..2_100).chain([2_100, 5_000, u32::MAX]) {
            assert_eq!(*cursor.at(minute), at(minute), "minute {minute}");
        }
        // Strides that jump over several events at once.
        let mut cursor = timeline.cursor();
        for minute in [0, 599, 600, 1_449, 1_501, 3_000] {
            assert_eq!(*cursor.at(minute), at(minute), "minute {minute}");
        }
    }

    #[test]
    #[should_panic(expected = "population")]
    fn empty_population_rejected() {
        let city = CityConfig::small().build(5);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), 5);
        let mut cfg = PopulationConfig::small();
        cfg.num_people = 0;
        let _ = generate(&city, &scenario, &cfg, 0);
    }
}

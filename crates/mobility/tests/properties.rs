//! Property-based tests for the mobility pipeline.

use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::cleaning::{clean, CleaningConfig};
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_mobility::generator::{generate, PopulationConfig};
use mobirescue_mobility::person::{MobilityProfile, Person, PersonId};
use mobirescue_mobility::rescue::detect_deliveries;
use mobirescue_mobility::stats::{pearson, Cdf};
use mobirescue_mobility::trace::{GpsPing, MobilityDataset};
use mobirescue_roadnet::damage::{NetworkCondition, SegmentCondition};
use mobirescue_roadnet::generator::CityConfig;
use mobirescue_roadnet::geo::{BoundingBox, GeoPoint, EARTH_RADIUS_M};
use mobirescue_roadnet::graph::SegmentId;
use proptest::prelude::*;

mod reference;
use reference::reference_deliveries;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CDFs are monotone, bounded, and quantiles invert fractions.
    #[test]
    fn cdf_laws(samples in prop::collection::vec(-1_000.0f64..1_000.0, 1..200)) {
        let cdf = Cdf::new(samples.clone());
        prop_assert_eq!(cdf.len(), samples.len());
        let lo = cdf.min().unwrap();
        let hi = cdf.max().unwrap();
        prop_assert_eq!(cdf.fraction_at_or_below(hi), 1.0);
        prop_assert!(cdf.fraction_at_or_below(lo) > 0.0);
        prop_assert_eq!(cdf.fraction_at_or_below(lo - 1.0), 0.0);
        let mut prev = 0.0;
        for (_, f) in cdf.sampled_points(16) {
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        for q in [0.1, 0.5, 0.9] {
            let x = cdf.quantile(q);
            prop_assert!(cdf.fraction_at_or_below(x) + 1e-12 >= q);
        }
    }

    /// Pearson correlation is symmetric, bounded, and scale-invariant.
    #[test]
    fn pearson_laws(
        xs in prop::collection::vec(-100.0f64..100.0, 3..40),
        scale in 0.1f64..10.0,
        offset in -50.0f64..50.0,
    ) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, x)| x * 0.5 + (i as f64).sin() * 10.0).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r_sym = pearson(&ys, &xs).unwrap();
            prop_assert!((r - r_sym).abs() < 1e-9);
            let scaled: Vec<f64> = ys.iter().map(|y| y * scale + offset).collect();
            if let Some(r_scaled) = pearson(&xs, &scaled) {
                prop_assert!((r - r_scaled).abs() < 1e-6, "{r} vs {r_scaled}");
            }
        }
    }

    /// Cleaning never invents pings, keeps order, and respects the bounds.
    #[test]
    fn cleaning_laws(
        raw in prop::collection::vec((0u32..5_000, -0.2f64..0.2, -0.2f64..0.2), 0..60),
    ) {
        let center = GeoPoint::new(35.2271, -80.8431);
        let bounds = BoundingBox::new(center.offset_m(-8_000.0, -8_000.0), center.offset_m(8_000.0, 8_000.0));
        let mut pings: Vec<GpsPing> = raw
            .iter()
            .map(|&(minute, dlat, dlon)| GpsPing {
                person: PersonId(0),
                minute,
                position: GeoPoint::new(center.lat + dlat, center.lon + dlon),
            })
            .collect();
        pings.sort_by_key(|p| (p.person, p.minute));
        let (kept, report) = clean(&pings, &CleaningConfig::for_bounds(bounds));
        prop_assert_eq!(kept.len() + report.out_of_bounds + report.redundant, pings.len());
        prop_assert!(kept.windows(2).all(|w| w[0].minute <= w[1].minute));
        prop_assert!(kept.iter().all(|p| bounds.contains(p.position)));
    }
}

/// Generation invariants that hold for any seed (moved out of proptest to
/// keep runtime bounded: 6 seeds, full pipeline each).
#[test]
fn generation_invariants_across_seeds() {
    for seed in [1u64, 2, 3] {
        let city = CityConfig::small().build(seed);
        let scenario = DisasterScenario::new(&city, Hurricane::florence(), seed);
        let mut config = PopulationConfig::small();
        config.num_people = 120;
        let out = generate(&city, &scenario, &config, seed);
        assert_eq!(out.dataset.num_people(), 120);
        // Pings sorted and inside the scenario window.
        assert!(out
            .dataset
            .pings
            .windows(2)
            .all(|w| (w[0].person, w[0].minute) <= (w[1].person, w[1].minute)));
        let end = scenario.total_hours() * 60;
        assert!(out.dataset.pings.iter().all(|p| p.minute < end));
        // Every true rescue is causal and indexes a real hospital.
        for r in &out.true_rescues {
            assert!(r.rescue_minute > r.trapped_minute);
            assert!(city.hospitals.contains(&r.hospital));
            assert!(
                scenario.is_flooded(
                    r.position,
                    (r.trapped_minute / 60).min(scenario.total_hours() - 1)
                ) || {
                    // The trap decision was made at the top of the hour; the
                    // recorded minute may drift past a receding boundary.
                    let h = (r.trapped_minute / 60).saturating_sub(1);
                    scenario.is_flooded(r.position, h)
                }
            );
        }
    }
}

/// Centre of the hospital-detection test area.
const CENTER: GeoPoint = GeoPoint {
    lat: 35.2271,
    lon: -80.8431,
};

/// Distances due north or south of a hospital, as multiples of the
/// catchment radius: inside, half-way (where a band half as wide would
/// already skip the hospital), just inside, on the circle, just outside,
/// and the detector's latitude band edge (1.001) with its neighbours.
const EDGE_FACTORS: [f64; 9] = [
    0.0,
    0.5,
    0.75,
    0.999_999,
    1.0,
    1.000_001,
    1.000_5,
    1.001,
    1.001_000_1,
];

/// A dataset of `people.len()` people in which person `i` pings at the
/// `(minute, position)` pairs of `people[i]`.
fn dataset(people: &[Vec<(u32, GeoPoint)>]) -> MobilityDataset {
    let people_vec = (0..people.len())
        .map(|i| Person {
            id: PersonId(i as u32),
            home: CENTER,
            work: CENTER,
            profile: MobilityProfile::Homebody,
        })
        .collect();
    let mut pings = Vec::new();
    for (i, trace) in people.iter().enumerate() {
        for &(minute, position) in trace {
            pings.push(GpsPing {
                person: PersonId(i as u32),
                minute,
                position,
            });
        }
    }
    MobilityDataset {
        people: people_vec,
        pings,
    }
}

/// A point due north (`sign` > 0) or south of `h` at `factor` radii, with
/// its latitude nudged `nudge` ulps (−1, 0 or 1).
fn due_north(h: GeoPoint, radius_m: f64, factor: f64, sign: f64, nudge: i32) -> GeoPoint {
    let p = h.offset_m(0.0, sign * radius_m * factor);
    let lat = match nudge {
        -1 => p.lat.next_down(),
        1 => p.lat.next_up(),
        _ => p.lat,
    };
    GeoPoint::new(lat, p.lon)
}

/// Builds the hospital list: each entry is a fresh point in a 6 × 6 km
/// box (kind 0), a point on an earlier hospital's latitude (kind 1), or a
/// point whose catchment overlaps an earlier one's (kind 2).
fn hospitals_from(specs: &[(u32, usize, f64, f64)], radius_m: f64) -> Vec<GeoPoint> {
    let mut out: Vec<GeoPoint> = Vec::new();
    for &(kind, which, u, v) in specs {
        let fresh = CENTER.offset_m(6_000.0 * u - 3_000.0, 3_000.0 * v);
        let h = match (kind, out.is_empty()) {
            (_, true) | (0, _) => fresh,
            (1, _) => {
                let base = out[which % out.len()];
                GeoPoint::new(base.lat, base.lon + 0.01 * v)
            }
            _ => {
                let base = out[which % out.len()];
                let (r, a) = (1.5 * radius_m * u, std::f64::consts::PI * v);
                base.offset_m(r * a.cos(), r * a.sin())
            }
        };
        out.push(h);
    }
    out
}

/// Places one ping: anywhere in the box (kind 0), due north or south of a
/// hospital at a catchment edge (kind 1), near a hospital in any direction
/// (kind 2), between two hospitals (kind 3), or where the previous ping
/// was (kind 4, a stay).
fn place(
    (kind, which, _, u, v): (u32, usize, u32, f64, f64),
    hospitals: &[GeoPoint],
    radius_m: f64,
    previous: Option<GeoPoint>,
) -> GeoPoint {
    let h = hospitals[which % hospitals.len()];
    match kind {
        0 => CENTER.offset_m(6_000.0 * u - 3_000.0, 3_000.0 * v),
        1 => {
            let pick =
                ((u * (EDGE_FACTORS.len() * 3) as f64) as usize).min(EDGE_FACTORS.len() * 3 - 1);
            due_north(
                h,
                radius_m,
                EDGE_FACTORS[pick / 3],
                v.signum(),
                pick as i32 % 3 - 1,
            )
        }
        2 => {
            let (r, a) = (1.2 * radius_m * u, std::f64::consts::PI * v);
            h.offset_m(r * a.cos(), r * a.sin())
        }
        3 => h.midpoint(hospitals[(which + 1) % hospitals.len()]),
        _ => previous.unwrap_or(h),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Reading the sorted ping array in place, with the latitude band in
    /// front of each haversine, finds exactly the deliveries of the
    /// copy-and-scan reference.
    #[test]
    fn detect_deliveries_matches_the_copy_and_scan_reference(
        hospital_specs in prop::collection::vec((0u32..3, 0usize..6, 0.0f64..1.0, -1.0f64..1.0), 1..7),
        traces in prop::collection::vec(
            prop::collection::vec((0u32..5, 0usize..6, 0u32..150, 0.0f64..1.0, -1.0f64..1.0), 0..10),
            1..8,
        ),
        radius_m in 50.0f64..600.0,
        min_stay in 0u32..240,
    ) {
        let hospitals = hospitals_from(&hospital_specs, radius_m);
        let people: Vec<Vec<(u32, GeoPoint)>> = traces
            .iter()
            .map(|trace| {
                let (mut minute, mut previous) = (0, None);
                trace
                    .iter()
                    .map(|&spec| {
                        minute += spec.2;
                        let p = place(spec, &hospitals, radius_m, previous);
                        previous = Some(p);
                        (minute, p)
                    })
                    .collect()
            })
            .collect();
        let ds = dataset(&people);
        prop_assert_eq!(
            detect_deliveries(&ds.trajectories(), &hospitals, radius_m, min_stay),
            reference_deliveries(&ds, &hospitals, radius_m, min_stay)
        );
    }
}

/// The named edge cases of the in-place detector, each checked against
/// the reference and against its expected outcome.
#[test]
fn detect_deliveries_edge_cases_match_the_reference() {
    let radius = 300.0;
    let band_deg = (radius * 1.001 / EARTH_RADIUS_M).to_degrees();
    let a = CENTER;
    // `b` overlaps `a`'s catchment from the south; `c` shares `a`'s
    // latitude 1 km east.
    let b = a.offset_m(0.0, -250.0);
    let c = a.offset_m(1_000.0, 0.0);
    let c = GeoPoint::new(a.lat, c.lon);
    let hospitals = [a, b, c];
    let b_only = b.offset_m(0.0, -200.0);
    let far = a.offset_m(-4_000.0, 0.0);
    let stay = |at: GeoPoint| vec![(0, far), (60, at), (200, at), (400, far)];
    let people = vec![
        // 0: just inside `a`'s catchment, due north.
        stay(due_north(a, radius, 0.999_999, 1.0, 0)),
        // 1: just outside the catchment, due north of `a`.
        stay(due_north(a, radius, 1.000_001, 1.0, 0)),
        // 2: exactly at the band edge north of `a`, and one ulp inside it.
        stay(GeoPoint::new(a.lat + band_deg, a.lon)),
        stay(GeoPoint::new((a.lat + band_deg).next_down(), a.lon)),
        // 4: between `a` and `b`, inside both: the first-listed `a` wins
        // although `b` lies further south.
        stay(a.midpoint(b)),
        // 5: at `c`, on `a`'s latitude: `c` is the only catchment.
        stay(c),
        // 6: the first ping is already inside `b`'s catchment (and only
        // `b`'s: 450 m south of `a`).
        vec![(0, b_only), (180, b_only), (240, far)],
        // 7: a stay that runs to the last ping.
        vec![(0, far), (30, a), (150, a)],
        // 8: no pings at all.
        vec![],
    ];
    let ds = dataset(&people);
    let got = detect_deliveries(&ds.trajectories(), &hospitals, radius, 120);
    assert_eq!(got, reference_deliveries(&ds, &hospitals, radius, 120));
    let found: Vec<(u32, usize, bool)> = got
        .iter()
        .map(|d| (d.person.0, d.hospital_index, d.previous_position.is_some()))
        .collect();
    assert_eq!(
        found,
        vec![
            (0, 0, true),
            (4, 0, true),
            (5, 2, true),
            (6, 1, false),
            (7, 0, true)
        ]
    );
}

/// Segments of every synthetic schedule's network.
const SCHEDULE_SEGMENTS: usize = 7;

/// A segment's condition from a drawn `(kind, speed)`: pristine, blocked,
/// slowed, or blocked and slowed (which the flood never produces).
fn drawn_condition(kind: u8, speed_factor: f64) -> SegmentCondition {
    let (operable, speed_factor) = match kind {
        0 => (true, 1.0),
        1 => (false, 1.0),
        2 => (true, speed_factor),
        _ => (false, speed_factor),
    };
    SegmentCondition {
        operable,
        speed_factor,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hourly conditions built from a synthetic schedule give back every
    /// hour, and two hours share a run exactly when they are adjacent and
    /// equal. A schedule is a list of `(pattern, hours)` pieces over a
    /// palette of per-segment patterns; a quarter of the schedules are cut
    /// to their first hour.
    #[test]
    fn synthetic_schedules_round_trip(
        palette in prop::collection::vec(
            prop::collection::vec((0u8..4, 0.05f64..1.0), SCHEDULE_SEGMENTS),
            1..4,
        ),
        pieces in prop::collection::vec((0usize..4, 1usize..4), 1..8),
        cut in 0u32..4,
    ) {
        let mut schedule: Vec<usize> = pieces
            .iter()
            .flat_map(|&(pattern, hours)| std::iter::repeat_n(pattern % palette.len(), hours))
            .collect();
        if cut == 0 {
            schedule.truncate(1);
        }
        // Every hour is built on its own, under its own generation.
        let hours: Vec<NetworkCondition> = schedule
            .iter()
            .map(|&pattern| {
                let segments = palette[pattern].iter().enumerate();
                NetworkCondition::from_changes(
                    SCHEDULE_SEGMENTS,
                    segments.map(|(s, &(kind, f))| (SegmentId(s as u32), drawn_condition(kind, f))),
                )
            })
            .collect();
        let conditions = HourlyConditions::from_conditions(hours.clone());
        prop_assert_eq!((conditions.first_hour(), conditions.hours()), (0, hours.len() as u32));

        let mut cursor = conditions.cursor();
        let mut generations = Vec::new();
        for (hour, want) in hours.iter().enumerate() {
            prop_assert!(conditions.at(hour as u32) == *want, "hour {}", hour);
            let held = cursor.at(hour as u32);
            prop_assert!(held == want, "cursor at hour {}", hour);
            generations.push(held.generation());
        }
        // The cursor builds each run's condition once, under one
        // generation: adjacent hours share it exactly when they are equal,
        // and hours apart never do.
        for hour in 1..hours.len() {
            let equal = hours[hour] == hours[hour - 1];
            prop_assert_eq!(generations[hour] == generations[hour - 1], equal, "hour {}", hour);
        }
        let runs = 1 + hours.windows(2).filter(|w| w[0] != w[1]).count();
        generations.dedup();
        prop_assert_eq!(generations.len(), runs);
        generations.sort_unstable();
        generations.dedup();
        prop_assert_eq!(generations.len(), runs, "a generation held by two runs");
    }
}

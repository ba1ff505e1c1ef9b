//! Pins the Section III-B2 ground-truth pipeline: hospital deliveries mined
//! from the GPS pings, labelled as rescues when the previous position was
//! flooded, and the busiest day's requests built from them.
//!
//! `mine_rescues` must equal the copy-and-scan reference detector (every
//! person's pings copied out, every hospital tested with the exact
//! haversine), and the busiest day's request list must match the count and
//! FNV-1a checksum recorded before the detector began reading the ping
//! array in place.

use mobirescue_core::predictor::mine_rescues;
use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_core::training::{busiest_request_day, requests_on_day};
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_mobility::rescue::{
    label_rescues, DEFAULT_HOSPITAL_RADIUS_M, DEFAULT_MIN_STAY_MINUTES,
};
use mobirescue_roadnet::geo::GeoPoint;
use mobirescue_sim::fnv1a_64;

#[path = "../crates/mobility/tests/reference/mod.rs"]
mod reference;

/// Mines one Florence preset and returns its busiest day's
/// `(day, request count, FNV-1a of the request list)`, after checking the
/// mined rescues against the reference detector.
fn busiest_day_requests(preset: &str, seed: u64) -> (u32, usize, u64) {
    let scenario = ScenarioConfig::from_name(preset)
        .expect("a known preset")
        .florence()
        .build(seed);
    let rescues = mine_rescues(&scenario);
    let hospitals: Vec<GeoPoint> = scenario
        .city
        .hospitals
        .iter()
        .map(|&h| scenario.city.network.landmark(h).position)
        .collect();
    let deliveries = reference::reference_deliveries(
        &scenario.generated.dataset,
        &hospitals,
        DEFAULT_HOSPITAL_RADIUS_M,
        DEFAULT_MIN_STAY_MINUTES,
    );
    assert_eq!(
        rescues,
        label_rescues(&deliveries, &scenario.disaster),
        "{preset} seed {seed}: mined rescues differ from the reference detector's"
    );
    let day = busiest_request_day(&rescues).expect("the scenario mines rescues");
    let matcher = MapMatcher::new(&scenario.city.network);
    let requests = requests_on_day(&scenario, &matcher, &rescues, day);
    let text: String = requests
        .iter()
        .map(|r| format!("{} {}\n", r.appear_s, r.segment.0))
        .collect();
    (day, requests.len(), fnv1a_64(&text))
}

#[test]
fn mined_requests_match_the_reference_and_the_recorded_checksums() {
    // (preset, seed, busiest day, requests, FNV-1a of the request list).
    const PINNED: [(&str, u64, u32, usize, u64); 4] = [
        ("small", 7, 13, 9, 0xe338e2e935f2b236),
        ("small", 42, 13, 13, 0x8986a4ce2dd86681),
        ("medium", 7, 13, 87, 0x21386e244487f2e6),
        ("medium", 42, 13, 160, 0x1ba8be4b9101b5a6),
    ];
    for (preset, seed, day, count, checksum) in PINNED {
        let got = busiest_day_requests(preset, seed);
        assert_eq!(
            got,
            (day, count, checksum),
            "{preset} seed {seed}: (day, requests, checksum) = ({}, {}, {:#018x})",
            got.0,
            got.1,
            got.2
        );
    }
}

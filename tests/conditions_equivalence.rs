//! Flood-raster and network-condition pin: the water-balance raster and
//! the hourly road conditions derived from it must stay bit-identical for
//! the scenarios the reproduction and the benchmarks build on.
//!
//! One checksum covers the raster: `depth_m` at every cell's centre in
//! every hour, as IEEE-754 bits. The other covers the conditions: every
//! segment's `(operable, speed factor bits)` in every hour of a full
//! `HourlyConditions::compute` and of a windowed `compute_window`, and of
//! the same hours built by `HourlyConditions::from_conditions` from each
//! hour's `network_condition`. Both were recorded before the raster cached
//! its per-cell rain profile, before the conditions mapped each segment to
//! its cell once per window, and before they held each run of equal hours
//! once.

use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::{DisasterScenario, DEFAULT_FLOOD_RESOLUTION};
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_roadnet::graph::RoadNetwork;
use mobirescue_sim::fnv1a_64_bytes;
use std::ops::Range;

/// FNV-1a over `depth_m` at every raster cell's centre, hour by hour.
fn raster_checksum(disaster: &DisasterScenario) -> u64 {
    let flood = disaster.flood();
    let bbox = flood.bbox();
    let (width_m, height_m) = bbox.north_east.local_xy_m(bbox.south_west);
    let n = DEFAULT_FLOOD_RESOLUTION;
    let centres: Vec<_> = (0..n)
        .flat_map(|r| (0..n).map(move |c| (r, c)))
        .map(|(r, c)| {
            let east = (c as f64 + 0.5) / n as f64 * width_m;
            let north = (r as f64 + 0.5) / n as f64 * height_m;
            bbox.south_west.offset_m(east, north)
        })
        .collect();
    let mut bytes = Vec::with_capacity(flood.hours() as usize * centres.len() * 8);
    for hour in 0..flood.hours() {
        for &p in &centres {
            bytes.extend_from_slice(&flood.depth_m(p, hour).to_bits().to_le_bytes());
        }
    }
    fnv1a_64_bytes(&bytes)
}

/// FNV-1a over every segment's `(operable, speed factor bits)` in every
/// covered hour.
fn conditions_checksum(net: &RoadNetwork, conditions: &HourlyConditions) -> u64 {
    let mut bytes = Vec::new();
    for hour in conditions.first_hour()..conditions.hours() {
        let cond = conditions.at(hour);
        for sid in net.segment_ids() {
            let c = cond.condition(sid);
            bytes.push(u8::from(c.operable));
            bytes.extend_from_slice(&c.speed_factor.to_bits().to_le_bytes());
        }
    }
    fnv1a_64_bytes(&bytes)
}

#[test]
fn flood_raster_is_bit_identical_across_refactors() {
    // (storm, seed, raster checksum) on the small city.
    const PINNED: [(&str, u64, u64); 4] = [
        ("florence", 7, 0x361863765fe19230),
        ("florence", 42, 0x832d118338363a18),
        ("michael", 7, 0x29932fd520098690),
        ("michael", 42, 0x093fca6243ad5d66),
    ];
    for (storm, seed, expect) in PINNED {
        let hurricane = match storm {
            "florence" => Hurricane::florence(),
            _ => Hurricane::michael(),
        };
        let city = ScenarioConfig::small().city.build(seed);
        let disaster = DisasterScenario::new(&city, hurricane, seed);
        let got = raster_checksum(&disaster);
        assert_eq!(
            got, expect,
            "{storm} seed {seed}: raster checksum {got:#018x}"
        );
    }
}

#[test]
fn hourly_conditions_are_bit_identical_across_refactors() {
    // (preset, storm, seed, window, conditions checksum). `None` is the
    // full horizon that `HourlyConditions::compute` covers.
    type Case = (&'static str, &'static str, u64, Option<Range<u32>>, u64);
    const PINNED: [Case; 4] = [
        ("small", "florence", 7, None, 0x6300e73817fcf6ef),
        ("small", "florence", 42, None, 0xed57d626473960a9),
        ("small", "michael", 7, None, 0x6f94c54035ee4e81),
        (
            "charlotte",
            "florence",
            7,
            Some(276..336),
            0x26a3870c5c735033,
        ),
    ];
    for (preset, storm, seed, window, expect) in PINNED {
        let config = ScenarioConfig::from_name(preset).expect("a known preset");
        let hurricane = match storm {
            "florence" => Hurricane::florence(),
            _ => Hurricane::michael(),
        };
        let city = config.city.build(seed);
        let disaster = DisasterScenario::new(&city, hurricane, seed);
        let computed = match window.clone() {
            None => HourlyConditions::compute(&city.network, &disaster),
            Some(hours) => HourlyConditions::compute_window(&city.network, &disaster, hours),
        };
        // The path synthetic schedules take: dense hours, diffed into runs.
        // It covers the same hours from hour 0, and the checksum reads
        // only the conditions, not their hour numbers.
        let hours = window.clone().unwrap_or(0..disaster.total_hours());
        let diffed = HourlyConditions::from_conditions(
            hours
                .map(|hour| disaster.flood().network_condition(&city.network, hour))
                .collect(),
        );
        for (build, conditions) in [("computed", computed), ("from_conditions", diffed)] {
            let got = conditions_checksum(&city.network, &conditions);
            assert_eq!(
                got, expect,
                "{preset} {storm} seed {seed} window {window:?} {build}: conditions checksum {got:#018x}"
            );
        }
    }
}

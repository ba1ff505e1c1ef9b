//! Pins both population generators: the sequential `generate` behind every
//! materialized preset, and the streamed `generate_streamed` behind the
//! metro presets.
//!
//! Each case hashes everything the generators emit that the pipeline
//! reads — every person, every ping's `(person, minute, position)` and
//! every generator-truth rescue — so a change to any RNG draw, to the
//! order in which residents are joined, or to the layout of a ping shows
//! up here. The values were recorded before pings lost their altitude and
//! speed fields and before the streamed sample was generated in parallel.

use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::generator::{generate, GenerationOutput, PopulationConfig};
use mobirescue_mobility::person::MobilityProfile;
use mobirescue_mobility::stream::generate_streamed;
use mobirescue_roadnet::generator::CityConfig;
use mobirescue_roadnet::geo::GeoPoint;
use mobirescue_sim::fnv1a_64_bytes;

fn push_point(bytes: &mut Vec<u8>, p: GeoPoint) {
    bytes.extend_from_slice(&p.lat.to_bits().to_le_bytes());
    bytes.extend_from_slice(&p.lon.to_bits().to_le_bytes());
}

/// `(people, pings, true rescues, FNV-1a of all three)`.
fn population_digest(out: &GenerationOutput) -> (usize, usize, usize, u64) {
    let mut bytes = Vec::new();
    for p in &out.dataset.people {
        bytes.extend_from_slice(&p.id.0.to_le_bytes());
        push_point(&mut bytes, p.home);
        push_point(&mut bytes, p.work);
        bytes.push(match p.profile {
            MobilityProfile::Commuter => 0,
            MobilityProfile::Homebody => 1,
        });
    }
    for ping in &out.dataset.pings {
        bytes.extend_from_slice(&ping.person.0.to_le_bytes());
        bytes.extend_from_slice(&ping.minute.to_le_bytes());
        push_point(&mut bytes, ping.position);
    }
    for r in &out.true_rescues {
        bytes.extend_from_slice(&r.person.0.to_le_bytes());
        bytes.extend_from_slice(&r.trapped_minute.to_le_bytes());
        push_point(&mut bytes, r.position);
        bytes.extend_from_slice(&r.rescue_minute.to_le_bytes());
        bytes.extend_from_slice(&r.hospital.0.to_le_bytes());
    }
    (
        out.dataset.people.len(),
        out.dataset.pings.len(),
        out.true_rescues.len(),
        fnv1a_64_bytes(&bytes),
    )
}

#[test]
fn sequential_generator_matches_the_recorded_checksums() {
    // (seed, people, pings, true rescues, FNV-1a).
    const PINNED: [(u64, usize, usize, usize, u64); 2] = [
        (7, 300, 172_513, 19, 0x5baf41340a2caf0e),
        (42, 300, 172_779, 27, 0x0703513c85e361ae),
    ];
    // Built as `ScenarioConfig::build` builds the `small` Florence preset,
    // without the hourly network conditions it goes on to compute.
    let cfg = ScenarioConfig::small().florence();
    for (seed, people, pings, rescues, checksum) in PINNED {
        let city = cfg.city.build(seed);
        let disaster = DisasterScenario::new(&city, cfg.hurricane.clone(), seed);
        let got = population_digest(&generate(&city, &disaster, &cfg.population, seed));
        assert_eq!(
            got,
            (people, pings, rescues, checksum),
            "small seed {seed}: (people, pings, rescues, checksum) = ({}, {}, {}, {:#018x})",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}

#[test]
fn streamed_generator_matches_the_recorded_checksum() {
    // 100,000 declared residents sampled at a stride of 100: 1,000 traces,
    // which is several work blocks and ends in a partial one.
    const PINNED: (usize, usize, usize, u64) = (1_000, 575_636, 74, 0xe471606e550be2f8);
    let seed = 7;
    let city = CityConfig::small().build(seed);
    let disaster = DisasterScenario::new(&city, Hurricane::florence(), seed);
    let mut config = PopulationConfig::small();
    config.num_people = 100_000;
    let out = generate_streamed(&city, &disaster, &config, seed, 1_000);
    assert_eq!(out.total_residents, 100_000);
    let got = population_digest(&out);
    assert_eq!(
        got, PINNED,
        "streamed: (people, pings, rescues, checksum) = ({}, {}, {}, {:#018x})",
        got.0, got.1, got.2, got.3
    );
}

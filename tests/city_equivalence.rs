//! City-generator pin: `CityConfig::build` must produce bit-identical
//! cities for the presets the reproduction and the benchmarks build on.
//! Every landmark position, every directed segment, the hospitals and the
//! depot feed one FNV-1a checksum per (preset, seed); the constants were
//! captured on the generator that still kept a separate single-district
//! body, so merging it into the district generator must leave them alone.

use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_roadnet::generator::{City, CityConfig};
use mobirescue_sim::engine::fnv1a_64_bytes;

/// The city's content as bytes: positions as IEEE-754 bits, segments as
/// (from, to, class, length bits), then the hospitals and the depot.
fn city_checksum(city: &City) -> u64 {
    let mut bytes = Vec::new();
    for lm in city.network.landmarks() {
        bytes.extend_from_slice(&lm.position.lat.to_bits().to_le_bytes());
        bytes.extend_from_slice(&lm.position.lon.to_bits().to_le_bytes());
    }
    for s in city.network.segments() {
        bytes.extend_from_slice(&s.from.0.to_le_bytes());
        bytes.extend_from_slice(&s.to.0.to_le_bytes());
        bytes.push(s.class as u8);
        bytes.extend_from_slice(&s.length_m.to_bits().to_le_bytes());
    }
    for h in &city.hospitals {
        bytes.extend_from_slice(&h.0.to_le_bytes());
    }
    bytes.extend_from_slice(&city.depot.0.to_le_bytes());
    fnv1a_64_bytes(&bytes)
}

#[test]
fn city_presets_are_bit_identical_across_refactors() {
    let mut one_way = CityConfig::small();
    one_way.one_way_fraction = 0.3;
    let presets = [
        ("small", CityConfig::small()),
        ("charlotte_like", CityConfig::charlotte_like()),
        ("medium 24x24", ScenarioConfig::medium().city),
        ("small one-way 0.3", one_way),
    ];
    // (preset, seed, city checksum), captured before the merge.
    const PINNED: [(&str, u64, u64); 12] = [
        ("small", 1, 0x5015766744625be9),
        ("small", 7, 0xc26d68c9e4a77700),
        ("small", 42, 0xf9ff6d5d6778b7e7),
        ("charlotte_like", 1, 0x8274be6e9553d625),
        ("charlotte_like", 7, 0xde20a4f2803e9d9a),
        ("charlotte_like", 42, 0xec9bd6345090eecf),
        ("medium 24x24", 1, 0x517322eee6290970),
        ("medium 24x24", 7, 0x3d62d17579abae00),
        ("medium 24x24", 42, 0x5251fad1c90e83cb),
        ("small one-way 0.3", 1, 0xa455f39ffcee728e),
        ("small one-way 0.3", 7, 0xad1f8f6e1218c272),
        ("small one-way 0.3", 42, 0x140413b7ebc36177),
    ];
    for (name, seed, expect) in PINNED {
        let config = &presets.iter().find(|(n, _)| *n == name).unwrap().1;
        let got = city_checksum(&config.build(seed));
        assert_eq!(
            got, expect,
            "{name} seed {seed}: city checksum {got:#018x} != pinned {expect:#018x} \
             — the generator no longer builds the same city"
        );
    }
}

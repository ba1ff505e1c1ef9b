//! Property tests for the `mrworld 1` snapshot format: any truncation or
//! bit-flip of a sealed snapshot must be *rejected* on restore — a typed
//! `Err`, never a panic and never a silent success — and a re-sealed body
//! with one hostile field must restore or fail typed, never panic.

use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_roadnet::generator::{City, CityConfig};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::dispatcher::NearestRequestDispatcher;
use mobirescue_sim::engine::World;
use mobirescue_sim::types::{RequestSpec, SimConfig};
use mobirescue_sim::{open_snapshot, seal_snapshot};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    city: City,
    conditions: HourlyConditions,
    snapshot: String,
}

/// A mid-run world snapshot with requests waiting, teams en route, and
/// metric accumulators populated — every record kind the format emits.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let city = CityConfig::small().build(7);
        let disaster = DisasterScenario::new(&city, Hurricane::florence(), 7);
        let conditions = HourlyConditions::compute(&city.network, &disaster);
        let n = city.network.num_segments() as u32;
        let requests: Vec<RequestSpec> = (0..12)
            .map(|i| RequestSpec {
                appear_s: i * 211,
                segment: SegmentId((i * 41) % n),
            })
            .collect();
        let config = SimConfig::small(0);
        let mut world = World::new(&city, &conditions, &config).expect("world builds");
        world.schedule_requests(&requests).expect("valid requests");
        let mut d = NearestRequestDispatcher::default();
        for _ in 0..3 {
            world.run_epoch(&mut d, 0.0);
        }
        let snapshot = world.snapshot_text();
        Fixture {
            city,
            conditions,
            snapshot,
        }
    })
}

/// Tokens chosen to break a hand parser: the optional marker, an empty
/// field (the token is deleted), an overflow, a negative, a non-number.
const HOSTILE: [&str; 5] = ["-", "", "18446744073709551615", "-1", "x"];

/// Replaces field `pick` (modulo the body's field count) of a sealed
/// snapshot's body with `hostile` and re-seals it, so the edit reaches the
/// record parser instead of the checksum.
fn with_hostile_field(snapshot: &str, pick: usize, hostile: &str) -> String {
    let body = open_snapshot(snapshot).expect("fixture is sealed");
    let total: usize = body.lines().map(|l| l.split(' ').count()).sum();
    let mut target = pick % total;
    let mut out = String::new();
    for line in body.lines() {
        let mut fields: Vec<&str> = line.split(' ').collect();
        if target < fields.len() {
            fields[target] = hostile;
            target = usize::MAX;
        } else if target != usize::MAX {
            target -= fields.len();
        }
        out.push_str(&fields.join(" "));
        out.push('\n');
    }
    seal_snapshot(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a sealed snapshot anywhere strictly before its end must
    /// fail restore: the checksum trailer no longer covers the body.
    #[test]
    fn truncated_snapshot_never_restores(cut in 0usize..4096) {
        let f = fixture();
        let cut = cut % f.snapshot.len();
        let mut truncated = f.snapshot.clone();
        truncated.truncate(cut);
        let result = World::restore_text(&f.city, &f.conditions, &truncated);
        prop_assert!(
            result.is_err(),
            "snapshot truncated to {cut} bytes was accepted"
        );
    }

    /// Flipping any bit of any byte must fail restore — either the body no
    /// longer hashes to the recorded sum, or the trailer itself is broken.
    #[test]
    fn bit_flipped_snapshot_never_restores(pos in 0usize..4096, bit in 0u32..8) {
        let f = fixture();
        let pos = pos % f.snapshot.len();
        let mut bytes = f.snapshot.clone().into_bytes();
        bytes[pos] ^= 1u8 << bit;
        // A flip can leave invalid UTF-8; restore takes &str, so model the
        // caller that read the file lossily.
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        let result = World::restore_text(&f.city, &f.conditions, &corrupt);
        prop_assert!(
            result.is_err(),
            "snapshot with bit {bit} of byte {pos} flipped was accepted"
        );
    }

    /// Arbitrary text (not derived from a snapshot at all) never panics
    /// the parser.
    #[test]
    fn arbitrary_text_never_panics(bytes in prop::collection::vec(9u8..127, 0..300)) {
        let f = fixture();
        let text = String::from_utf8(bytes).expect("ASCII bytes");
        let _ = World::restore_text(&f.city, &f.conditions, &text);
    }

    /// One hostile field in a correctly sealed body: restore returns the
    /// world or a typed error — it never panics.
    #[test]
    fn hostile_field_never_panics(pick in 0usize..1_000_000, hostile in 0usize..5) {
        let f = fixture();
        let text = with_hostile_field(&f.snapshot, pick, HOSTILE[hostile]);
        let _ = World::restore_text(&f.city, &f.conditions, &text);
    }
}

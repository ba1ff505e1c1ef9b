//! Property tests for the `mrserve 1` snapshot format — restore of any
//! truncated or bit-flipped snapshot must return a typed
//! [`ServeError::BadSnapshot`], never panic, never silently succeed, and a
//! re-sealed snapshot with one hostile field must restore or fail typed.
//!
//! The checksum trailer is verified before a single record is parsed, so
//! every corrupted case fails fast without spawning shard workers.

use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{
    Clock, DispatchService, Event, ModelBundle, ServeConfig, ServeError, SimClock,
};
use mobirescue_sim::{open_snapshot, seal_snapshot, RequestSpec, SimConfig};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Fixture {
    scenario: Arc<Scenario>,
    snapshot: String,
}

fn config() -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 4;
    config
}

/// A two-epoch service snapshot with queued requests, advisories, and
/// epoch history — every record kind the `mrserve 1` format emits.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = Arc::new(ScenarioConfig::small().florence().build(11));
        let clock = Arc::new(SimClock::new());
        let bundle = Arc::new(ModelBundle::default());
        let service = DispatchService::start(
            Arc::clone(&scenario),
            config(),
            clock as Arc<dyn Clock>,
            bundle,
        )
        .expect("service starts");
        let num_segments = scenario.city.network.num_segments() as u32;
        for epoch in 0..2u32 {
            for shard in 0..2usize {
                for i in 0..3u32 {
                    let spec = RequestSpec {
                        appear_s: epoch * 300 + i * 40,
                        segment: SegmentId(
                            (epoch * 53 + i * 17 + shard as u32 * 29) % num_segments,
                        ),
                    };
                    service
                        .ingest(Event::Request { shard, spec })
                        .expect("valid request");
                }
            }
            service
                .ingest(Event::Weather {
                    shard: 0,
                    hour: epoch,
                    rain_mm: 8.0,
                })
                .expect("valid advisory");
            service.run_epoch().expect("epoch runs");
        }
        let snapshot = service.snapshot().expect("snapshot serializes");
        service.shutdown();
        Fixture { scenario, snapshot }
    })
}

fn restore(text: &str) -> Result<DispatchService, ServeError> {
    let f = fixture();
    DispatchService::restore(
        Arc::clone(&f.scenario),
        config(),
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::new(ModelBundle::default()),
        text,
    )
}

/// Tokens chosen to break a hand parser: the optional marker, an empty
/// field (the token is deleted), an overflow, a negative, a non-number.
const HOSTILE: [&str; 5] = ["-", "", "18446744073709551615", "-1", "x"];

/// Replaces one field of a sealed snapshot's body with `hostile` and
/// re-seals it. Candidates are the fields the service parser reads itself:
/// every record outside a counted block, plus each shard block's
/// `shardstate` line (the nested `mrworld` body carries its own seal, so
/// an edit there only ever reaches that inner checksum).
fn with_hostile_field(snapshot: &str, pick: usize, hostile: &str) -> String {
    let body = open_snapshot(snapshot).expect("fixture is sealed");
    let mut candidates = Vec::new();
    let mut nested = 0usize;
    for (ln, line) in body.lines().enumerate() {
        let fields: Vec<&str> = line.split(' ').collect();
        if nested > 0 {
            nested -= 1;
            if fields[0] != "shardstate" {
                continue;
            }
        } else if matches!(fields[0], "shard" | "tstate" | "rtext") {
            nested = fields.last().and_then(|n| n.parse().ok()).unwrap_or(0);
        }
        candidates.extend((0..fields.len()).map(|i| (ln, i)));
    }
    let (target_line, target_field) = candidates[pick % candidates.len()];
    let mut out = String::new();
    for (ln, line) in body.lines().enumerate() {
        if ln == target_line {
            let mut fields: Vec<&str> = line.split(' ').collect();
            fields[target_field] = hostile;
            out.push_str(&fields.join(" "));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    seal_snapshot(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any strict truncation is rejected with the typed snapshot error.
    #[test]
    fn truncated_snapshot_never_restores(cut in 0usize..8192) {
        let f = fixture();
        let cut = cut % f.snapshot.len();
        let mut truncated = f.snapshot.clone();
        truncated.truncate(cut);
        match restore(&truncated) {
            Err(ServeError::BadSnapshot(_)) => {}
            Err(other) => {
                prop_assert!(false, "truncation to {cut} bytes: wrong error {other}");
            }
            Ok(service) => {
                service.shutdown();
                prop_assert!(false, "truncation to {cut} bytes was accepted");
            }
        }
    }

    /// Any single bit-flip is rejected with the typed snapshot error.
    #[test]
    fn bit_flipped_snapshot_never_restores(pos in 0usize..8192, bit in 0u32..8) {
        let f = fixture();
        let pos = pos % f.snapshot.len();
        let mut bytes = f.snapshot.clone().into_bytes();
        bytes[pos] ^= 1u8 << bit;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        match restore(&corrupt) {
            Err(ServeError::BadSnapshot(_)) => {}
            Err(other) => {
                prop_assert!(false, "flip of bit {bit} at byte {pos}: wrong error {other}");
            }
            Ok(service) => {
                service.shutdown();
                prop_assert!(false, "flip of bit {bit} at byte {pos} was accepted");
            }
        }
    }

    /// Arbitrary text never panics the restore path.
    #[test]
    fn arbitrary_text_never_panics(bytes in prop::collection::vec(9u8..127, 0..300)) {
        let text = String::from_utf8(bytes).expect("ASCII bytes");
        if let Ok(service) = restore(&text) {
            // Only a full re-seal of a valid body could get here; treat it
            // as a failure for anything that is not the fixture itself.
            service.shutdown();
            prop_assert!(false, "arbitrary text restored: {text:?}");
        }
    }

    /// One hostile field in a correctly sealed body restores or fails with
    /// a typed error; in particular no shard worker dies parsing it.
    #[test]
    fn hostile_field_never_panics(pick in 0usize..1_000_000, hostile in 0usize..5) {
        let text = with_hostile_field(&fixture().snapshot, pick, HOSTILE[hostile]);
        match restore(&text) {
            Ok(service) => service.shutdown(),
            Err(ServeError::Shard { message, .. }) => {
                prop_assert!(!message.contains("worker thread"), "shard worker died: {message}");
            }
            Err(_) => {}
        }
    }
}

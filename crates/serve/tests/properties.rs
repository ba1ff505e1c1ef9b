//! Property tests for the `mrserve 1` snapshot format — restore of any
//! truncated or bit-flipped snapshot must return a typed
//! [`ServeError::BadSnapshot`], never panic, never silently succeed, and a
//! re-sealed snapshot with one hostile field must restore or fail typed —
//! and for rollout admission, which must reject any candidate policy
//! with mismatched layer shapes or a non-finite weight anywhere, and must
//! refuse a candidate with one hostile field typed, never by panicking.
//!
//! The checksum trailer is verified before a single record is parsed, so
//! every corrupted case fails fast without spawning shard workers.

use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::mlp_to_text;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::rollout::{admit, Artifact};
use mobirescue_serve::{
    Clock, DispatchService, Event, ModelRegistry, RolloutError, ServeConfig, ServeError, SimClock,
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
        let registry = Arc::new(ModelRegistry::new(None, None));
        let service = DispatchService::start(
            Arc::clone(&scenario),
            config(),
            clock as Arc<dyn Clock>,
            registry,
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
        Arc::new(ModelRegistry::new(None, None)),
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

/// Values chosen to break a checkpoint parser: a zero-sized layer or
/// spread, a huge layer, an overflow, a negative, a non-number.
const HOSTILE_CHECKPOINT: [&str; 5] = ["0", "100000", "18446744073709551615", "-1", "x"];

/// An admissible candidate: a hand-written predictor over the three
/// disaster factors and a `FEATURE_DIM`→3→1 policy, in artifact order
/// (`Artifact::Svm`, `Artifact::Dqn`).
fn admissible_candidate() -> [String; 2] {
    let predictor = "predictor michael 4 0.25\n\
                     means 1.0 20.0 5.0\n\
                     stds 2.0 10.0 3.0\n\
                     svm rbf 0.5\n\
                     bias 0.1\n\
                     sv 0.5 0.2 -0.4 1.0\n";
    [
        predictor.to_owned(),
        mlp_to_text(&Mlp::new(&[FEATURE_DIM, 3, 1], 5)),
    ]
}

/// Edits one whitespace-separated field of `text`, counted across all its
/// lines: `edit` indexes [`HOSTILE_CHECKPOINT`] to replace the field, or
/// is 5 to drop it, or 6 to duplicate it.
fn with_hostile_checkpoint_field(text: &str, pick: usize, edit: usize) -> String {
    let mut lines: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let fields: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(ln, f)| (0..f.len()).map(move |i| (ln, i)))
        .collect();
    let (ln, i) = fields[pick % fields.len()];
    let line = &mut lines[ln];
    match edit {
        5 => {
            line.remove(i);
        }
        6 => line.insert(i, line[i]),
        _ => line[i] = HOSTILE_CHECKPOINT[edit],
    }
    lines.iter().map(|f| f.join(" ") + "\n").collect()
}

#[test]
fn admissible_candidate_is_admitted() {
    let [predictor, policy] = admissible_candidate();
    admit(Some(&predictor), Some(&policy), 1e6).expect("the unedited candidate is admissible");
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

    /// Admission rejects any policy whose layer shapes disagree with the
    /// dispatcher's feature contract, on either end of the network.
    #[test]
    fn admission_rejects_any_shape_mismatch(
        in_extra in 0usize..4,
        out_extra in 0usize..4,
        hidden in 1usize..12,
        seed in 0u64..1000,
    ) {
        // Skew at least one end away from the FEATURE_DIM → 1 contract.
        let (in_extra, out_extra) = if in_extra == 0 && out_extra == 0 {
            (1, 0)
        } else {
            (in_extra, out_extra)
        };
        let net = Mlp::new(&[FEATURE_DIM + in_extra, hidden, 1 + out_extra], seed);
        match admit(None, Some(&mlp_to_text(&net)), 1e6) {
            Err(RolloutError::Probe { message, .. }) => {
                prop_assert!(message.contains("dispatcher needs"), "{message}");
            }
            Err(other) => prop_assert!(false, "wrong rejection: {other}"),
            Ok(_) => prop_assert!(false, "shape mismatch admitted"),
        }
    }

    /// Admission rejects any bundle carrying a non-finite weight, wherever
    /// it hides in the parameter vector.
    #[test]
    fn admission_rejects_any_non_finite_weight(
        idx in 0usize..10_000,
        inf in 0u8..3,
        hidden in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut net = Mlp::new(&[FEATURE_DIM, hidden, 1], seed);
        let poison = match inf {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let target = idx % net.num_params();
        net.visit_params_mut(|i, w, _| {
            if i == target {
                *w = poison;
            }
        });
        match admit(None, Some(&mlp_to_text(&net)), 1e6) {
            Err(RolloutError::Probe { message, .. }) => {
                prop_assert!(message.contains("not finite"), "{message}");
            }
            Err(other) => prop_assert!(false, "wrong rejection: {other}"),
            Ok(_) => prop_assert!(false, "non-finite weight at {target} admitted"),
        }
    }

    /// One hostile field in either checkpoint text is admitted or refused
    /// with a typed error naming that artifact; admission never panics.
    #[test]
    fn admission_never_panics_on_a_hostile_field(
        artifact in 0usize..2,
        pick in 0usize..1_000_000,
        edit in 0usize..7,
    ) {
        let mut texts = admissible_candidate();
        texts[artifact] = with_hostile_checkpoint_field(&texts[artifact], pick, edit);
        let edited = [Artifact::Svm, Artifact::Dqn][artifact];
        match admit(Some(&texts[0]), Some(&texts[1]), 1e6) {
            Ok(_) => {}
            Err(RolloutError::Parse { artifact, .. } | RolloutError::Probe { artifact, .. }) => {
                prop_assert_eq!(artifact, edited);
            }
            Err(other) => prop_assert!(false, "wrong refusal: {other}"),
        }
    }
}

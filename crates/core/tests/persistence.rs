//! Cross-crate persistence: a predictor trained on one process must
//! produce identical dispatch inputs after a text round-trip, a trained
//! policy network must round-trip through the rl persistence format, and
//! neither parser panics on a text with one hostile field.

use mobirescue_core::predictor::{PredictorConfig, RequestPredictor};
use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::{mlp_from_text, mlp_to_text};
use proptest::prelude::*;

#[test]
fn predictor_round_trip_preserves_the_demand_distribution() {
    let michael = ScenarioConfig::small().michael().build(42);
    let florence = ScenarioConfig::small().florence().build(42);
    let predictor = RequestPredictor::train_on(&michael, &PredictorConfig::default());

    let revived = RequestPredictor::from_text(&predictor.to_text()).expect("round trip parses");

    let matcher = MapMatcher::new(&florence.city.network);
    let tl = florence.hurricane().timeline;
    for hour in [
        (tl.disaster_start_day + 1) * 24,
        tl.peak_hour(),
        tl.peak_hour() + 6,
    ] {
        let a = predictor.predict_distribution(&florence, &matcher, hour);
        let b = revived.predict_distribution(&florence, &matcher, hour);
        assert_eq!(a, b, "distribution diverged at hour {hour}");
    }
}

#[test]
fn policy_network_text_round_trip_is_exact() {
    // Shape matches the dispatcher's scoring network.
    let mut net = Mlp::new(&[6, 32, 32, 1], 42);
    net.visit_params_mut(|i, w, _| *w *= 1.0 + (i % 7) as f64 * 1e-3);
    let revived = mlp_from_text(&mlp_to_text(&net)).expect("round trip parses");
    for probe in [
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.2, 0.9, 0.4, 0.5, 0.2, 0.0],
        [1.0, 0.0, 0.0, 0.3, 1.0, 0.0],
    ] {
        assert_eq!(net.predict(&probe), revived.predict(&probe));
    }
}

/// Values chosen to break a checkpoint parser: a zero-sized layer or
/// spread, a huge layer, an overflow, a negative, a non-number.
const HOSTILE: [&str; 5] = ["0", "100000", "18446744073709551615", "-1", "x"];

/// A hand-written predictor over the three disaster factors and a
/// `FEATURE_DIM`→3→1 policy, both of which parse.
fn checkpoints() -> [String; 2] {
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
/// lines: `edit` indexes [`HOSTILE`] to replace the field, or is 5 to drop
/// it, or 6 to duplicate it.
fn with_hostile_field(text: &str, pick: usize, edit: usize) -> String {
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
        _ => line[i] = HOSTILE[edit],
    }
    lines.iter().map(|f| f.join(" ") + "\n").collect()
}

#[test]
fn unedited_checkpoints_parse() {
    let [predictor, policy] = checkpoints();
    RequestPredictor::from_text(&predictor).expect("the predictor parses");
    mlp_from_text(&policy).expect("the policy parses");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One hostile field in either checkpoint text parses or is refused
    /// with an error; neither parser panics.
    #[test]
    fn checkpoint_parsers_never_panic_on_a_hostile_field(
        artifact in 0usize..2,
        pick in 0usize..1_000_000,
        edit in 0usize..7,
    ) {
        let text = with_hostile_field(&checkpoints()[artifact], pick, edit);
        if artifact == 0 {
            let _ = RequestPredictor::from_text(&text);
        } else {
            let _ = mlp_from_text(&text);
        }
    }
}

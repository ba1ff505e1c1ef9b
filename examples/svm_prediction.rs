//! Train and inspect the SVM rescue-request predictor (Section IV-B).
//!
//! ```text
//! cargo run --release --example svm_prediction
//! ```

use mobirescue::core::predictor::{
    evaluate_per_segment, mine_rescues, people_positions_at, PredictorConfig, RequestPredictor,
};
use mobirescue::core::scenario::ScenarioConfig;
use mobirescue::mobility::map_match::MapMatcher;

fn main() {
    // `cargo run --example svm_prediction -- medium [seed]` for a larger run.
    let args: Vec<String> = std::env::args().collect();
    let medium = args.iter().any(|a| a == "medium");
    let seed: u64 = args
        .iter()
        .filter_map(|a| a.parse().ok())
        .next_back()
        .unwrap_or(11);
    let base = if medium {
        ScenarioConfig::medium()
    } else {
        ScenarioConfig::small()
    };
    let michael = base.clone().michael().build(seed);
    let florence = base.florence().build(seed);

    // Train on Michael's mined ground truth.
    let predictor = RequestPredictor::train_on(&michael, &PredictorConfig::default());
    println!(
        "trained on {}: {} examples, decision threshold {:.3}",
        predictor.trained_on(),
        predictor.num_training_examples(),
        predictor.threshold()
    );

    // Per-person predictions on Florence's busiest day.
    let matcher = MapMatcher::new(&florence.city.network);
    let rescues = mine_rescues(&florence);
    let day = mobirescue::core::training::busiest_request_day(&rescues).expect("rescues");
    let eval = evaluate_per_segment(&florence, &matcher, &rescues, day, |pos, hour| {
        predictor.predict(&florence.disaster.factors_at(pos, hour))
    });
    println!(
        "\ncross-storm evaluation on {} (day {day}):",
        florence.hurricane().name
    );
    println!(
        "  overall: TP {} FP {} TN {} FN {}",
        eval.overall.tp, eval.overall.fp, eval.overall.tn, eval.overall.fn_
    );
    println!(
        "  per-segment mean accuracy {:.3}, precision {:.3} over {} informative segments",
        eval.mean_accuracy(),
        eval.mean_precision(),
        eval.accuracies().len()
    );

    // Predicted request distribution (Equation 2), scanning the disaster
    // window for the hour the Michael-trained model flags the most demand
    // (Florence's own peak exceeds anything Michael showed the RBF, so the
    // strongest predictions land on the storm's rising edge).
    let tl = florence.hurricane().timeline;
    let peak = tl.peak_hour();
    let (hour, distribution) = ((tl.disaster_start_day * 24)..(tl.disaster_end_day + 1) * 24)
        .step_by(3)
        .map(|h| (h, predictor.predict_distribution(&florence, &matcher, h)))
        .max_by(|a, b| {
            let ta: f64 = a.1.iter().sum();
            let tb: f64 = b.1.iter().sum();
            ta.partial_cmp(&tb).expect("counts are never NaN")
        })
        .expect("disaster window is non-empty");
    let total: f64 = distribution.iter().sum();
    let hot = distribution
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("counts are never NaN"))
        .map(|(i, &n)| (i, n))
        .expect("non-empty network");
    println!(
        "\npredicted distribution peaks at hour {hour} (rain peak {peak}): {total} potential \
         requests, hottest segment E{} with {}",
        hot.0, hot.1
    );
    let positions = people_positions_at(&florence, hour);
    println!("  (from the live positions of {} people)", positions.len());
}

//! The Section-V dispatch comparison: MobiRescue vs the *Rescue* and
//! *Schedule* baselines on one simulated disaster day.
//!
//! ```text
//! cargo run --release --example dispatch_comparison [-- medium]
//! ```

use mobirescue::core::experiment::{run_comparison, ExperimentConfig};

fn main() {
    let medium = std::env::args().any(|a| a == "medium");
    let config = if medium {
        ExperimentConfig::medium(42)
    } else {
        ExperimentConfig::small(42)
    };
    println!("running comparison (this trains the predictor and the RL policy) ...");
    let cmp = run_comparison(&config);
    println!(
        "experiment day: {} with {} rescue requests, {} teams\n",
        cmp.florence.hurricane().day_label(cmp.experiment_day),
        cmp.num_requests,
        config.sim.num_teams
    );

    println!(
        "{:<12} {:>7} {:>7} {:>12} {:>12} {:>9}",
        "method", "served", "timely", "median delay", "median T13", "avg teams"
    );
    for m in &cmp.results {
        println!(
            "{:<12} {:>7} {:>7} {:>11.0}s {:>11.0}s {:>9.1}",
            m.name,
            m.outcome.total_served(),
            m.outcome.total_timely_served(),
            m.outcome.median_driving_delay_s().unwrap_or(f64::NAN),
            m.outcome.median_timeliness_s().unwrap_or(f64::NAN),
            m.outcome.mean_serving_teams(),
        );
    }

    println!(
        "\nprediction (per-segment means): MobiRescue accuracy {:.3} precision {:.3}; \
         Rescue accuracy {:.3} precision {:.3}",
        cmp.prediction_mr.mean_accuracy(),
        cmp.prediction_mr.mean_precision(),
        cmp.prediction_rescue.mean_accuracy(),
        cmp.prediction_rescue.mean_precision()
    );
    println!(
        "offline training: {} episodes on Hurricane Michael, reward {:.1} → {:.1}",
        cmp.training.episodes.len(),
        cmp.training
            .episodes
            .first()
            .map(|e| e.reward)
            .unwrap_or(0.0),
        cmp.training
            .episodes
            .last()
            .map(|e| e.reward)
            .unwrap_or(0.0),
    );
}

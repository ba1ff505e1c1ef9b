//! Seed-sweep robustness check: how often each of the paper's orderings
//! holds across independently generated scenarios.
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin robustness -- [--scale small|medium] [--seeds N]
//! ```

use mobirescue_bench::{cli, ExperimentScale};
use mobirescue_core::experiment::{run_comparison, Comparison};

/// A named invariant checked against every seed's comparison.
type Check = (&'static str, fn(&Comparison) -> bool);

fn main() {
    let mut scale = ExperimentScale::Small;
    let mut seeds = 5u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = cli::scale(&mut args, "robustness"),
            "--seeds" => seeds = cli::count(&mut args, "robustness", "--seeds"),
            other => {
                eprintln!("robustness: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let checks: Vec<Check> = vec![
        ("timely served: MR > Rescue", |c| {
            c.method("MobiRescue").outcome.total_timely_served()
                > c.method("Rescue").outcome.total_timely_served()
        }),
        ("timely served: MR > Schedule", |c| {
            c.method("MobiRescue").outcome.total_timely_served()
                > c.method("Schedule").outcome.total_timely_served()
        }),
        ("timely served: Rescue >= Schedule", |c| {
            c.method("Rescue").outcome.total_timely_served()
                >= c.method("Schedule").outcome.total_timely_served()
        }),
        ("median timeliness: MR < both baselines", |c| {
            let med = |n: &str| {
                let cdf = c.method(n).outcome.timeliness_cdf();
                if cdf.is_empty() {
                    f64::INFINITY
                } else {
                    cdf.quantile(0.5)
                }
            };
            med("MobiRescue") < med("Rescue") && med("MobiRescue") < med("Schedule")
        }),
        ("median driving delay: MR < Schedule", |c| {
            let med = |n: &str| {
                let cdf = c.method(n).outcome.driving_delay_cdf();
                if cdf.is_empty() {
                    f64::INFINITY
                } else {
                    cdf.quantile(0.5)
                }
            };
            med("MobiRescue") < med("Schedule")
        }),
        ("serving teams: MR < both baselines", |c| {
            let avg = |n: &str| {
                let v = c.method(n).outcome.avg_serving_teams_per_hour();
                v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            avg("MobiRescue") < avg("Rescue") && avg("MobiRescue") < avg("Schedule")
        }),
        ("prediction accuracy: MR > Rescue", |c| {
            c.prediction_mr.mean_accuracy() > c.prediction_rescue.mean_accuracy()
        }),
        ("prediction precision: MR > Rescue", |c| {
            c.prediction_mr.mean_precision() > c.prediction_rescue.mean_precision()
        }),
    ];

    let mut holds = vec![0usize; checks.len()];
    for seed in 1..=seeds {
        eprintln!("seed {seed}/{seeds} ...");
        let cmp = run_comparison(&scale.config(seed));
        for (i, (_, f)) in checks.iter().enumerate() {
            if f(&cmp) {
                holds[i] += 1;
            }
        }
    }

    println!("\nordering robustness over {seeds} seeds at {scale:?} scale:");
    for ((name, _), n) in checks.iter().zip(&holds) {
        println!("  {n}/{seeds}  {name}");
    }
}

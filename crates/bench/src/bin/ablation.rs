//! Ablation study over MobiRescue's design choices: SVM prediction on/off,
//! zone granularity, reward weights (α/β/γ of Equation 5), coverage
//! shaping, and online continual training (Section IV-C4).
//!
//! Every variant runs on the comparison's own set-up
//! ([`Evaluation`]): the same Florence day, requests and Michael-trained
//! SVM, so the "full MobiRescue" row is the MobiRescue arm of `figures`'
//! summary at the same scale and seed.
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin ablation -- [--scale small|medium] [--seed N]
//! ```

use mobirescue_bench::{cli, ExperimentScale};
use mobirescue_core::experiment::Evaluation;
use mobirescue_core::rl_dispatch::RlDispatchConfig;

struct Variant {
    name: &'static str,
    use_predictor: bool,
    online: bool,
    tweak: fn(&mut RlDispatchConfig),
}

impl Variant {
    /// Prediction and online training on, the RL settings changed by `tweak`.
    fn tweaked(name: &'static str, tweak: fn(&mut RlDispatchConfig)) -> Self {
        Self {
            name,
            use_predictor: true,
            online: true,
            tweak,
        }
    }
}

fn no_tweak(_: &mut RlDispatchConfig) {}

fn main() {
    let mut scale = ExperimentScale::Small;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = cli::scale(&mut args, "ablation"),
            "--seed" => seed = cli::count(&mut args, "ablation", "--seed"),
            other => {
                eprintln!("ablation: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let config = scale.config(seed);

    eprintln!("building scenarios ...");
    let eval = Evaluation::prepare(&config);
    eprintln!(
        "evaluation day {}: {} requests, {} teams",
        eval.day,
        eval.requests.len(),
        eval.sim.num_teams
    );

    let variants = [
        Variant::tweaked("full MobiRescue", no_tweak),
        Variant {
            use_predictor: false,
            ..Variant::tweaked("no SVM prediction", no_tweak)
        },
        Variant {
            online: false,
            ..Variant::tweaked("no online training", no_tweak)
        },
        Variant::tweaked("no coverage shaping", |c| c.shaping_coverage = 0.0),
        Variant::tweaked("coarse zones (k/2)", |c| c.zone_k = (c.zone_k / 2).max(2)),
        Variant::tweaked("fine zones (k*2)", |c| c.zone_k *= 2),
        Variant::tweaked("alpha/10 (served weight)", |c| c.alpha /= 10.0),
        Variant::tweaked("beta*10 (delay weight)", |c| c.beta *= 10.0),
        Variant::tweaked("gamma*25 (fleet weight)", |c| c.gamma_weight *= 25.0),
        Variant::tweaked("slow exploration (eps*10)", |c| c.eps_decay_steps *= 10),
    ];

    println!(
        "{:<28} {:>7} {:>7} {:>12} {:>10}",
        "variant", "served", "timely", "median T (s)", "avg teams"
    );
    for v in variants {
        let mut rl = config.rl.clone();
        (v.tweak)(&mut rl);
        let (outcome, _) = eval.run_mobirescue(rl, v.use_predictor, v.online);
        println!(
            "{:<28} {:>7} {:>7} {:>12.0} {:>10.1}",
            v.name,
            outcome.total_served(),
            outcome.total_timely_served(),
            outcome.median_timeliness_s().unwrap_or(f64::NAN),
            outcome.mean_serving_teams()
        );
    }
}

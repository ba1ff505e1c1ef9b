//! Ablation study over MobiRescue's design choices: SVM prediction on/off,
//! zone granularity, reward weights (α/β/γ of Equation 5), coverage
//! shaping, and online continual training (Section IV-C4).
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin ablation -- [--scale small|medium] [--seed N]
//! ```

use mobirescue_bench::{cli, ExperimentScale};
use mobirescue_core::predictor::{mine_rescues, RequestPredictor};
use mobirescue_core::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig};
use mobirescue_core::scenario::Scenario;
use mobirescue_core::training::{busiest_request_day, requests_on_day, train_offline};
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_sim::types::SimConfig;

struct Variant {
    name: &'static str,
    use_predictor: bool,
    online: bool,
    tweak: fn(&mut RlDispatchConfig),
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
    let michael = config.scenario.clone().michael().build(seed);
    let florence = config.scenario.clone().florence().build(seed);
    let matcher = MapMatcher::new(&florence.city.network);
    let rescues = mine_rescues(&florence);
    let day = busiest_request_day(&rescues).expect("florence has rescues");
    let requests = requests_on_day(&florence, &matcher, &rescues, day);
    let predictor = RequestPredictor::train_on(&michael, &config.predictor);
    let mut sim = config.sim.clone();
    sim.start_hour = day * 24;
    eprintln!(
        "evaluation day {day}: {} requests, {} teams",
        requests.len(),
        sim.num_teams
    );

    let variants: Vec<Variant> = vec![
        Variant {
            name: "full MobiRescue",
            use_predictor: true,
            online: true,
            tweak: no_tweak,
        },
        Variant {
            name: "no SVM prediction",
            use_predictor: false,
            online: true,
            tweak: no_tweak,
        },
        Variant {
            name: "no online training",
            use_predictor: true,
            online: false,
            tweak: no_tweak,
        },
        Variant {
            name: "no coverage shaping",
            use_predictor: true,
            online: true,
            tweak: |c| c.shaping_coverage = 0.0,
        },
        Variant {
            name: "coarse zones (k/2)",
            use_predictor: true,
            online: true,
            tweak: |c| c.zone_k = (c.zone_k / 2).max(2),
        },
        Variant {
            name: "fine zones (k*2)",
            use_predictor: true,
            online: true,
            tweak: |c| c.zone_k *= 2,
        },
        Variant {
            name: "alpha/10 (served weight)",
            use_predictor: true,
            online: true,
            tweak: |c| c.alpha /= 10.0,
        },
        Variant {
            name: "beta*10 (delay weight)",
            use_predictor: true,
            online: true,
            tweak: |c| c.beta *= 10.0,
        },
        Variant {
            name: "gamma*25 (fleet weight)",
            use_predictor: true,
            online: true,
            tweak: |c| c.gamma_weight *= 25.0,
        },
        Variant {
            name: "slow exploration (eps*10)",
            use_predictor: true,
            online: true,
            tweak: |c| c.eps_decay_steps *= 10,
        },
    ];

    println!(
        "{:<28} {:>7} {:>7} {:>12} {:>10}",
        "variant", "served", "timely", "median T (s)", "avg teams"
    );
    for v in variants {
        let mut rl = config.rl.clone();
        (v.tweak)(&mut rl);
        let stats = evaluate(
            &michael,
            &florence,
            &requests,
            &predictor,
            rl,
            &sim,
            v.use_predictor,
            v.online,
            config.train_episodes,
        );
        println!(
            "{:<28} {:>7} {:>7} {:>12.0} {:>10.1}",
            v.name, stats.0, stats.1, stats.2, stats.3
        );
    }
}

/// Trains a variant offline on Michael and evaluates it on Florence.
/// Returns `(served, timely, median timeliness s, avg serving teams)`.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    michael: &Scenario,
    florence: &Scenario,
    requests: &[mobirescue_sim::types::RequestSpec],
    predictor: &RequestPredictor,
    rl: RlDispatchConfig,
    sim: &SimConfig,
    use_predictor: bool,
    online: bool,
    episodes: usize,
) -> (usize, usize, f64, f64) {
    let p = use_predictor.then(|| predictor.clone());
    let (policy, _) = train_offline(michael, p.clone(), rl.clone(), sim, episodes);
    let mut dispatcher = MobiRescueDispatcher::with_policy(florence, p, rl, policy);
    dispatcher.set_training(online);
    let outcome = mobirescue_sim::run(
        &florence.city,
        &florence.conditions,
        requests,
        &mut dispatcher,
        sim,
    );
    let median = {
        let c = outcome.timeliness_cdf();
        if c.is_empty() {
            f64::NAN
        } else {
            c.quantile(0.5)
        }
    };
    let serving = outcome.avg_serving_teams_per_hour();
    let avg_serving = serving.iter().sum::<f64>() / serving.len().max(1) as f64;
    (
        outcome.total_served(),
        outcome.total_timely_served(),
        median,
        avg_serving,
    )
}

//! Cross-crate integration: the full train → dispatch → evaluate pipeline
//! through the facade crate.

use mobirescue::core::experiment::{run_comparison, Comparison, ExperimentConfig};
use std::sync::OnceLock;

/// One shared comparison: training the models once is enough for every
/// assertion in this file.
fn small_comparison() -> &'static Comparison {
    static CMP: OnceLock<Comparison> = OnceLock::new();
    CMP.get_or_init(|| {
        let mut config = ExperimentConfig::small(42);
        config.train_episodes = 4;
        config.sim.duration_hours = 10;
        run_comparison(&config)
    })
}

#[test]
fn comparison_produces_all_three_methods() {
    let cmp = small_comparison();
    let names: Vec<&str> = cmp.results.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["MobiRescue", "Rescue", "Schedule"]);
    assert!(cmp.num_requests > 0);
    for m in &cmp.results {
        assert_eq!(m.outcome.requests.len(), cmp.num_requests);
        assert!(m.outcome.dispatch_rounds > 0);
    }
}

#[test]
fn mobirescue_serves_at_least_as_well_as_ip_baselines() {
    // The headline claim (Figure 9): sub-second RL dispatch + prediction
    // serves at least as many requests timely as ~300 s integer
    // programming. (At test scale the handful of requests makes medians
    // noisy; counts are the robust statistic. The full orderings are
    // checked by the ignored medium-scale test below and by the `figures`
    // binary.)
    let cmp = small_comparison();
    let timely = |name: &str| cmp.method(name).outcome.total_timely_served();
    let mr = timely("MobiRescue");
    assert!(
        mr >= timely("Rescue") && mr >= timely("Schedule"),
        "MobiRescue {mr} vs Rescue {} / Schedule {}",
        timely("Rescue"),
        timely("Schedule")
    );
    // And it must beat the like-for-like predictive baseline on median
    // timeliness — both see the same requests, only the dispatch mechanism
    // differs.
    let median = |name: &str| {
        cmp.method(name)
            .outcome
            .median_timeliness_s()
            .unwrap_or(f64::INFINITY)
    };
    assert!(
        median("MobiRescue") < median("Rescue"),
        "MobiRescue median {} vs Rescue {}",
        median("MobiRescue"),
        median("Rescue")
    );
}

/// The full six-way ordering check of the paper's evaluation, at the scale
/// the benchmarks run at. Takes a few minutes — run explicitly with
/// `cargo test --release -p mobirescue --test end_to_end -- --ignored`.
#[test]
#[ignore = "minutes-long medium-scale reproduction; run with -- --ignored"]
fn medium_scale_reproduces_paper_orderings() {
    let cmp = run_comparison(&ExperimentConfig::medium(42));
    let timely = |name: &str| cmp.method(name).outcome.total_timely_served();
    assert!(timely("MobiRescue") > timely("Rescue"));
    assert!(timely("Rescue") > timely("Schedule"));
    let median_t = |name: &str| {
        cmp.method(name)
            .outcome
            .median_timeliness_s()
            .expect("served requests")
    };
    assert!(median_t("MobiRescue") < median_t("Schedule"));
    assert!(median_t("Schedule") < median_t("Rescue"));
    let median_d = |name: &str| {
        cmp.method(name)
            .outcome
            .median_driving_delay_s()
            .expect("served requests")
    };
    assert!(median_d("MobiRescue") < median_d("Rescue"));
    assert!(median_d("Rescue") < median_d("Schedule"));
    assert!(cmp.prediction_mr.mean_accuracy() > cmp.prediction_rescue.mean_accuracy());
    assert!(cmp.prediction_mr.mean_precision() > cmp.prediction_rescue.mean_precision());
}

#[test]
fn mobirescue_uses_fewer_serving_teams() {
    let cmp = small_comparison();
    let avg = |name: &str| cmp.method(name).outcome.mean_serving_teams();
    assert!(
        avg("MobiRescue") < avg("Rescue") && avg("MobiRescue") < avg("Schedule"),
        "MobiRescue {:.1} vs Rescue {:.1} / Schedule {:.1}",
        avg("MobiRescue"),
        avg("Rescue"),
        avg("Schedule")
    );
}

#[test]
fn outcomes_are_internally_consistent() {
    let cmp = small_comparison();
    for m in &cmp.results {
        for r in &m.outcome.requests {
            if let Some(p) = r.picked_up_s {
                assert!(p >= r.spec.appear_s);
                assert!(r.driving_delay_s.unwrap_or(-1.0) >= 0.0);
            }
        }
        let served_by_counter: u32 = m.outcome.team_served.iter().flatten().sum();
        assert_eq!(served_by_counter as usize, m.outcome.total_served());
    }
}

#[test]
fn svm_beats_time_series_on_per_segment_prediction() {
    let cmp = small_comparison();
    assert!(
        cmp.prediction_mr.mean_precision() >= cmp.prediction_rescue.mean_precision(),
        "MR precision {:.3} vs Rescue {:.3}",
        cmp.prediction_mr.mean_precision(),
        cmp.prediction_rescue.mean_precision()
    );
}

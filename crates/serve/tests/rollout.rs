//! Integration tests for the guarded rollout pipeline: admission at the
//! service boundary, the shadow gate, post-promotion watch rollback, and
//! in-flight rollout state surviving a snapshot/restore cycle.

use mobirescue_core::predictor::RequestPredictor;
use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::Scenario;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::mlp_to_text;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::chaos::chaos_scenario;
use mobirescue_serve::{
    reward_tank_policy_text, Clock, DispatchService, Event, ModelRegistry, RolloutConfig,
    RolloutError, RolloutStage, ServeConfig, ServeError, SimClock,
};
use mobirescue_sim::{RequestSpec, SimConfig};
use std::sync::Arc;

/// A hand-weighted single-layer policy that chases live requests and
/// remaining demand, penalises distance, and never stands a team down —
/// the same construction the rollout chaos harness uses for a competent
/// incumbent.
fn competent_net(seed: u64) -> Mlp {
    let mut net = Mlp::new(&[FEATURE_DIM, 1], seed);
    let base = [-2.0, 1.0, 3.0, 0.0, 0.0, -1_000.0, 0.0];
    net.visit_params_mut(|i, w, _| {
        *w = base[i] + 0.05 * *w;
    });
    net
}

fn serve_config(rollout: RolloutConfig) -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = 2;
    config.request_queue_capacity = 8;
    config.rollout = rollout;
    config
}

fn start(
    scenario: &Arc<Scenario>,
    config: ServeConfig,
    registry: &Arc<ModelRegistry>,
) -> DispatchService {
    DispatchService::start(
        Arc::clone(scenario),
        config,
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::clone(registry),
    )
    .expect("service starts")
}

/// Three deterministic requests per shard for `epoch`.
fn ingest_epoch(service: &DispatchService, scenario: &Scenario, epoch: u32) {
    let segments = scenario.city.network.num_segments() as u32;
    for shard in 0..2usize {
        for i in 0..3u32 {
            let mix = epoch * 53 + i * 17 + shard as u32 * 29;
            service
                .ingest(Event::Request {
                    shard,
                    spec: RequestSpec {
                        appear_s: epoch * 300 + (i * 37) % 300,
                        segment: SegmentId(mix % segments),
                    },
                })
                .expect("valid request");
        }
    }
}

#[test]
fn second_submission_is_rejected_while_one_is_in_flight() {
    let scenario = Arc::new(chaos_scenario());
    let registry = Arc::new(ModelRegistry::new(None, Some(competent_net(1))));
    let service = start(&scenario, serve_config(RolloutConfig::default()), &registry);

    let text = mlp_to_text(&competent_net(2));
    let status = service
        .submit_rollout(None, Some(&text))
        .expect("admitted")
        .expect("gates configured, so a rollout is in flight");
    assert_eq!(status.stage, RolloutStage::Shadow);
    assert_eq!(status.version, 2);
    assert_eq!(status.epochs_done, 0);

    match service.submit_rollout(None, Some(&text)) {
        Err(ServeError::Rollout(RolloutError::InFlight)) => {}
        other => panic!("expected InFlight rejection, got {other:?}"),
    }
    let counters = service.rollout_counters();
    assert_eq!(counters.admitted, 1);
    assert_eq!(counters.rejected, 1);
    assert_eq!(counters.rolled_back, 0);
    service.shutdown();
}

#[test]
fn reward_tank_dies_in_shadow_and_the_registry_never_moves() {
    let scenario = Arc::new(chaos_scenario());
    let registry = Arc::new(ModelRegistry::new(None, Some(competent_net(1))));
    let v1 = registry.current();
    let config = serve_config(RolloutConfig {
        shadow_epochs: 2,
        canary_epochs: 0,
        watch_epochs: 0,
        ..RolloutConfig::default()
    });
    let service = start(&scenario, config, &registry);

    // Warm the fleet up so the shadow window has live work to separate
    // the policies on.
    for epoch in 0..2 {
        ingest_epoch(&service, &scenario, epoch);
        service.run_epoch().expect("warm-up epoch");
    }
    service
        .submit_rollout(None, Some(&reward_tank_policy_text()))
        .expect("a reward tank is structurally admissible");
    for epoch in 2..4 {
        ingest_epoch(&service, &scenario, epoch);
        service.run_epoch().expect("shadow epoch");
        // While the candidate shadows, primary dispatch stays on v1.
        assert!(Arc::ptr_eq(&registry.current(), &v1));
        let m = service.metrics();
        assert!(m.shards.iter().all(|s| s.model_version == 1));
    }
    assert!(
        service.rollout_status().is_none(),
        "shadow gate resolved after 2 epochs"
    );
    assert_eq!(service.rollout_counters().rolled_back, 1);
    assert!(Arc::ptr_eq(&registry.current(), &v1), "registry untouched");
    assert_eq!(registry.swaps(), 0);
    assert_eq!(registry.rollbacks(), 0, "nothing was promoted to roll back");
    service.shutdown();
}

#[test]
fn watch_regression_rolls_back_to_the_exact_prior_bundle() {
    let scenario = Arc::new(chaos_scenario());
    let registry = Arc::new(ModelRegistry::new(None, Some(competent_net(3))));
    let v1 = registry.current();
    // No shadow or canary: promotion is immediate, and only the watch
    // window guards it.
    let config = serve_config(RolloutConfig {
        shadow_epochs: 0,
        canary_epochs: 0,
        watch_epochs: 2,
        watch_slack: 0.0,
        ..RolloutConfig::default()
    });
    let service = start(&scenario, config, &registry);

    // Establish a healthy reward baseline under the incumbent.
    for epoch in 0..3 {
        ingest_epoch(&service, &scenario, epoch);
        service.run_epoch().expect("baseline epoch");
    }
    let promoted = service
        .submit_rollout(None, Some(&reward_tank_policy_text()))
        .expect("admitted");
    assert!(
        promoted.is_some(),
        "watch window keeps the rollout in flight"
    );
    assert_eq!(registry.current().version, 2, "promoted immediately");
    assert_eq!(registry.swaps(), 1);

    for epoch in 3..5 {
        ingest_epoch(&service, &scenario, epoch);
        service.run_epoch().expect("watch epoch");
    }
    assert!(service.rollout_status().is_none(), "watch window resolved");
    assert_eq!(service.rollout_counters().rolled_back, 1);
    assert_eq!(registry.rollbacks(), 1);
    let restored = registry.current();
    assert!(
        Arc::ptr_eq(&restored, &v1),
        "rollback restores the exact pinned Arc, not a rebuilt equal"
    );
    // And the shards pick the prior bundle back up on the next epoch.
    ingest_epoch(&service, &scenario, 5);
    service.run_epoch().expect("post-rollback epoch");
    let m = service.metrics();
    assert!(m.shards.iter().all(|s| s.model_version == 1));
    service.shutdown();
}

#[test]
fn zero_gate_config_promotes_immediately() {
    let scenario = Arc::new(chaos_scenario());
    let registry = Arc::new(ModelRegistry::new(None, Some(competent_net(4))));
    let config = serve_config(RolloutConfig {
        shadow_epochs: 0,
        canary_epochs: 0,
        watch_epochs: 0,
        ..RolloutConfig::default()
    });
    let service = start(&scenario, config, &registry);
    let outcome = service
        .submit_rollout(None, Some(&mlp_to_text(&competent_net(5))))
        .expect("admitted");
    assert!(
        outcome.is_none(),
        "no gates: promoted with nothing in flight"
    );
    assert_eq!(registry.current().version, 2);
    assert_eq!(registry.swaps(), 1);
    service.shutdown();
}

/// A hand-written SVM request predictor checkpoint; `threshold` tells
/// two of them apart.
fn predictor_text(threshold: f64) -> String {
    format!(
        "predictor michael 4 {threshold:?}\n\
         means 1.0 20.0 5.0\n\
         stds 2.0 10.0 3.0\n\
         svm rbf 0.5\n\
         bias 0.1\n\
         sv 0.5 0.2 -0.4 1.0\n"
    )
}

fn parse_predictor(text: &str) -> RequestPredictor {
    RequestPredictor::from_text(text).expect("hand-written predictor parses")
}

/// Submits a candidate (`competent_net(7)` plus `candidate_predictor`)
/// against an incumbent (`competent_net(6)` plus `incumbent_predictor`)
/// and drives the pipeline to its end. A twin restores from a snapshot
/// taken one epoch into shadow, which carries the candidate's texts, and,
/// if the candidate gets that far, another from one taken one epoch into
/// watch, which carries the pinned prior's. Every twin must finish
/// bit-identically to the uninterrupted run. Returns that run's registry
/// and the number of twins.
fn rollout_survives_restores(
    incumbent_predictor: Option<&str>,
    candidate_predictor: Option<&str>,
    canary_slack: f64,
) -> (Arc<ModelRegistry>, usize) {
    let scenario = Arc::new(chaos_scenario());
    let make_registry = || {
        Arc::new(ModelRegistry::new(
            incumbent_predictor.map(parse_predictor),
            Some(competent_net(6)),
        ))
    };
    let candidate_policy = mlp_to_text(&competent_net(7));
    let config = serve_config(RolloutConfig {
        shadow_epochs: 3,
        canary_epochs: 2,
        canary_shards: 1,
        canary_slack,
        watch_epochs: 2,
        ..RolloutConfig::default()
    });
    let restore = |snapshot: &str, registry: Arc<ModelRegistry>| {
        let twin = DispatchService::restore(
            Arc::clone(&scenario),
            config.clone(),
            Arc::new(SimClock::new()) as Arc<dyn Clock>,
            registry,
            snapshot,
        )
        .expect("snapshot restores with the rollout in flight");
        assert_eq!(
            twin.snapshot().expect("twin snapshot serializes"),
            snapshot,
            "a restore round-trips every record, rtext blocks included"
        );
        twin
    };

    let registry = make_registry();
    let service = start(&scenario, config.clone(), &registry);
    ingest_epoch(&service, &scenario, 0);
    service.run_epoch().expect("epoch 0");
    service
        .submit_rollout(candidate_predictor, Some(&candidate_policy))
        .expect("admitted");
    ingest_epoch(&service, &scenario, 1);
    service.run_epoch().expect("first shadow epoch");
    let status = service.rollout_status().expect("shadow in flight");
    assert_eq!(status.stage, RolloutStage::Shadow);
    assert_eq!(status.epochs_done, 1);

    let snapshot = service.snapshot().expect("snapshot serializes");
    assert_eq!(
        snapshot.contains("rtext cpred"),
        candidate_predictor.is_some(),
        "a shadow snapshot carries the candidate's predictor text"
    );
    let restored = restore(&snapshot, make_registry());
    assert_eq!(
        restored.rollout_status().expect("rollout survived"),
        status,
        "stage, progress and version all round-trip"
    );

    // Drive the services to the end of the pipeline in lock-step: every
    // restored twin must finish bit-identically.
    let mut twins = vec![restored];
    for epoch in 2..9 {
        for svc in std::iter::once(&service).chain(&twins) {
            ingest_epoch(svc, &scenario, epoch);
            svc.run_epoch().expect("epoch runs");
        }
        for twin in &twins {
            assert_eq!(service.rollout_status(), twin.rollout_status());
        }
        let one_epoch_into_watch = service
            .rollout_status()
            .is_some_and(|s| (s.stage, s.epochs_done) == (RolloutStage::Watch, 1));
        if one_epoch_into_watch {
            let snapshot = service.snapshot().expect("watch snapshot serializes");
            assert_eq!(
                snapshot.contains("rtext ppred"),
                incumbent_predictor.is_some(),
                "a watch snapshot carries the pinned prior's predictor text"
            );
            // The snapshot holds the pipeline, not the registry: a restore
            // in watch takes a registry that already serves the candidate.
            let promoted = make_registry();
            promoted.install(
                candidate_predictor.map(parse_predictor),
                Some(competent_net(7)),
            );
            twins.push(restore(&snapshot, promoted));
        }
    }
    assert!(service.rollout_status().is_none(), "pipeline completed");
    let final_snapshot = service.snapshot().expect("final snapshot");
    for twin in &twins {
        assert_eq!(
            final_snapshot,
            twin.snapshot().expect("final snapshot"),
            "restored run is bit-identical to the uninterrupted one"
        );
    }
    let restored = twins.len();
    service.shutdown();
    for twin in twins {
        twin.shutdown();
    }
    (registry, restored)
}

#[test]
fn in_flight_rollout_survives_snapshot_and_restore() {
    // At the default canary slack this candidate dies in canary.
    let (registry, twins) =
        rollout_survives_restores(None, None, RolloutConfig::default().canary_slack);
    assert_eq!((registry.current().version, twins), (1, 1));
}

#[test]
fn in_flight_rollout_carrying_predictors_survives_snapshot_and_restore() {
    let candidate = predictor_text(0.5);
    // The canary slack covers the two shards' different request streams
    // (as in `golden.rs`), so the candidate promotes.
    let (registry, twins) =
        rollout_survives_restores(Some(&predictor_text(0.25)), Some(&candidate), 20.0);
    assert_eq!(twins, 2, "a twin restored in the watch stage");
    let current = registry.current();
    assert_eq!(current.version, 2, "the candidate promoted");
    assert_eq!(
        current.predictor.as_ref().map(RequestPredictor::to_text),
        Some(parse_predictor(&candidate).to_text()),
        "the fleet serves the candidate's predictor"
    );
}

//! The models a service serves: the bundle it boots with, and the
//! frozen-greedy dispatcher each shard builds from it.
//!
//! A bundle pairs the SVM request predictor (Section IV-B) with the RL
//! scoring network's weights (Section IV-C). [`crate::DispatchService`]
//! takes one at [`start`](crate::DispatchService::start) or
//! [`restore`](crate::DispatchService::restore), checks that its policy
//! can build a dispatcher, and shares it with every shard in an `Arc`;
//! each shard worker builds its dispatcher from it once, when it spawns.
//! The models never change while the service runs.

use crate::error::ServeError;
use mobirescue_core::predictor::RequestPredictor;
use mobirescue_core::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig, FEATURE_DIM};
use mobirescue_core::scenario::Scenario;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::qscore::{QScore, QScoreConfig};

/// One deployable set of models.
#[derive(Debug, Clone, Default)]
pub struct ModelBundle {
    /// The SVM request predictor (`None` ablates prediction).
    pub predictor: Option<RequestPredictor>,
    /// The RL scoring network's weights (`None` → shards serve a freshly
    /// initialized policy).
    pub policy: Option<Mlp>,
}

impl ModelBundle {
    /// Checks that the bundle's policy scores one `FEATURE_DIM`-wide
    /// candidate into one value, the shape a dispatcher needs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::PolicyShape`] naming the policy's shape.
    pub(crate) fn check(&self) -> Result<(), ServeError> {
        match &self.policy {
            Some(net) if net.input_dim() != FEATURE_DIM || net.output_dim() != 1 => {
                Err(ServeError::PolicyShape {
                    inputs: net.input_dim(),
                    outputs: net.output_dim(),
                })
            }
            _ => Ok(()),
        }
    }

    /// The frozen-greedy dispatcher this bundle serves over `scenario`.
    /// The service checked the bundle ([`ModelBundle::check`]) before it
    /// spawned any shard.
    pub(crate) fn dispatcher<'a>(
        &self,
        scenario: &'a Scenario,
        rl: &RlDispatchConfig,
    ) -> MobiRescueDispatcher<'a> {
        let mut qcfg = QScoreConfig::new(FEATURE_DIM);
        qcfg.hidden = rl.hidden.clone();
        qcfg.lr = rl.lr;
        qcfg.gamma = rl.discount;
        qcfg.seed = rl.seed;
        let policy = match &self.policy {
            Some(net) => QScore::from_mlp(qcfg, net.clone()),
            None => QScore::new(qcfg),
        };
        let mut d =
            MobiRescueDispatcher::with_policy(scenario, self.predictor.clone(), rl.clone(), policy);
        // Serving is frozen greedy evaluation; training happens offline.
        d.set_training(false);
        d
    }
}

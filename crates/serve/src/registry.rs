//! The model registry: versioned, atomically hot-swappable bundles.
//!
//! A bundle pairs the SVM request predictor (Section IV-B) with the RL
//! scoring network's weights (Section IV-C). The registry hands out
//! `Arc<ModelBundle>` clones — readers (shard dispatchers mid-epoch) keep
//! whatever bundle they started with while a writer installs a newer one,
//! so ingestion and dispatch never pause for a swap. Shards notice the new
//! version at the next epoch boundary and rebuild their dispatcher from
//! it, which is exactly when a dispatch policy may change consistently.
//!
//! The registry installs models that are already parsed. A checkpoint
//! text enters service through [`crate::DispatchService::submit_rollout`]:
//! [`crate::rollout::admit`] parses and probes it, and the rollout stages
//! install it here only once it has passed their gates.

use mobirescue_core::predictor::RequestPredictor;
use mobirescue_rl::nn::Mlp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One deployable set of models.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// Monotonically increasing version, assigned by the registry.
    pub version: u64,
    /// The SVM request predictor (`None` ablates prediction).
    pub predictor: Option<RequestPredictor>,
    /// The RL scoring network's weights (`None` → shards fall back to a
    /// freshly initialized policy).
    pub policy: Option<Mlp>,
}

/// Atomic holder of the current [`ModelBundle`].
#[derive(Debug)]
pub struct ModelRegistry {
    current: RwLock<Arc<ModelBundle>>,
    swaps: AtomicU64,
    rollbacks: AtomicU64,
}

impl ModelRegistry {
    /// A registry whose initial bundle (version 1) holds the given models.
    pub fn new(predictor: Option<RequestPredictor>, policy: Option<Mlp>) -> Self {
        Self {
            current: RwLock::new(Arc::new(ModelBundle {
                version: 1,
                predictor,
                policy,
            })),
            swaps: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        }
    }

    fn read(&self) -> Arc<ModelBundle> {
        Arc::clone(
            &self
                .current
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The bundle currently served.
    pub fn current(&self) -> Arc<ModelBundle> {
        self.read()
    }

    /// Atomically installs a new bundle; returns its version.
    pub fn install(&self, predictor: Option<RequestPredictor>, policy: Option<Mlp>) -> u64 {
        let mut slot = self
            .current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let version = slot.version + 1;
        *slot = Arc::new(ModelBundle {
            version,
            predictor,
            policy,
        });
        self.swaps.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// Atomically restores a previously pinned bundle *exactly* — the same
    /// `Arc`, same version, bit-identical models. Used by the rollout
    /// pipeline's auto-rollback; counted separately from [`Self::swaps`]
    /// (a rollback undoes a promotion, it is not a new deployment).
    pub fn restore_bundle(&self, bundle: Arc<ModelBundle>) {
        let mut slot = self
            .current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = bundle;
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Rollbacks performed since creation.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Hot-swaps performed since creation.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_is_versioned_and_readers_keep_old_bundles() {
        let reg = ModelRegistry::new(None, None);
        let held = reg.current();
        assert_eq!(held.version, 1);
        let v2 = reg.install(None, Some(Mlp::new(&[6, 4, 1], 3)));
        assert_eq!(v2, 2);
        assert_eq!(reg.swaps(), 1);
        // The old Arc is untouched; the new read sees the swap.
        assert_eq!(held.version, 1);
        assert!(held.policy.is_none());
        assert!(reg.current().policy.is_some());
    }

    #[test]
    fn restore_bundle_is_exact_and_counted() {
        let reg = ModelRegistry::new(None, Some(Mlp::new(&[6, 4, 1], 9)));
        let pinned = reg.current();
        reg.install(None, Some(Mlp::new(&[6, 8, 1], 10)));
        assert_eq!(reg.current().version, 2);
        reg.restore_bundle(Arc::clone(&pinned));
        assert!(Arc::ptr_eq(&reg.current(), &pinned));
        assert_eq!(reg.current().version, 1);
        assert_eq!(reg.swaps(), 1, "rollback is not a swap");
        assert_eq!(reg.rollbacks(), 1);
    }
}

//! The MobiRescue system — the paper's primary contribution.
//!
//! MobiRescue (ICDCS 2020) dispatches rescue teams during a flooding
//! disaster. Every dispatch period (default 5 minutes) it predicts the
//! distribution of potential rescue requests per road segment with an SVM
//! over disaster-related factors (Section IV-B), then picks a destination
//! for every team with a reinforcement-learning policy whose reward is
//! `r = α·N^q − β·T^d − γ·N^m` (Section IV-C).
//!
//! Crate layout:
//!
//! * [`scenario`] — city + hurricane + population bundles
//!   ([`scenario::ScenarioConfig::small`] /
//!   [`scenario::ScenarioConfig::charlotte_like`]);
//! * [`analysis`] — the Section-III dataset measurement pipeline
//!   (Table I, Figures 2–6);
//! * [`predictor`] — the SVM request predictor (Equations 1–2) and the
//!   per-segment prediction evaluation (Figures 15–16);
//! * [`timeseries`] — the *Rescue* baseline's predictor;
//! * [`zones`] — the RL action-space factorization (see DESIGN.md);
//! * [`rl_dispatch`] — the MobiRescue dispatcher (DQN + online training);
//! * [`training`] — offline training on the Hurricane Michael scenario;
//! * [`baselines`] — the *Schedule* and *Rescue* comparison dispatchers;
//! * [`experiment`] — the end-to-end Section-V comparison harness.
//!
//! # Examples
//!
//! ```no_run
//! use mobirescue_core::experiment::{run_comparison, ExperimentConfig};
//!
//! let comparison = run_comparison(&ExperimentConfig::small(42));
//! let mr = comparison.method("MobiRescue");
//! let schedule = comparison.method("Schedule");
//! println!(
//!     "MobiRescue served {} vs Schedule {}",
//!     mr.outcome.total_timely_served(),
//!     schedule.outcome.total_timely_served()
//! );
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
pub mod experiment;
pub mod predictor;
pub mod rl_dispatch;
pub mod scenario;
pub mod timeseries;
pub mod training;
pub mod zones;

pub use analysis::{DatasetAnalysis, Table1};
pub use baselines::{RescueDispatcher, ScheduleDispatcher};
pub use experiment::{run_comparison, Comparison, ExperimentConfig, MethodResult};
pub use predictor::{PredictorConfig, RequestPredictor, SegmentEval};
pub use rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig};
pub use scenario::{Scenario, ScenarioConfig};
pub use timeseries::TimeSeriesPredictor;
pub use training::{train_offline, TrainingReport};
pub use zones::{ZoneId, ZoneMap};

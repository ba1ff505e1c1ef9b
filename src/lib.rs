//! # MobiRescue
//!
//! A reproduction of *"MobiRescue: Reinforcement Learning based Rescue Team
//! Dispatching in a Flooding Disaster"* (ICDCS 2020).
//!
//! MobiRescue dispatches rescue teams during a flooding disaster. Every
//! dispatch period (default 5 minutes) it:
//!
//! 1. predicts the distribution of potential rescue requests per road segment
//!    with an SVM over *disaster-related factors* (precipitation, wind speed,
//!    altitude), and
//! 2. chooses a destination for every rescue team with a reinforcement
//!    learning policy that maximizes served requests while minimizing total
//!    driving delay and the number of serving teams.
//!
//! This facade crate re-exports the whole workspace. See the individual
//! crates for details:
//!
//! * [`roadnet`] — road network graph, routing, city generator, flood damage
//! * [`disaster`] — terrain, weather fields, hurricane scenarios, flood zones
//! * [`mobility`] — synthetic population traces, flow rates, ground truth
//! * [`svm`] — support vector machine (SMO) used by the request predictor
//! * [`rl`] — neural network + DQN used by the dispatcher
//! * [`solver`] — Hungarian assignment for the baselines
//! * [`sim`] — discrete-event rescue simulation engine and metrics
//! * [`core`] — the MobiRescue system itself plus the `Schedule` and
//!   `Rescue` baselines and the dataset-analysis pipeline
//!
//! # Quickstart
//!
//! ```
//! use mobirescue::core::scenario::ScenarioConfig;
//!
//! // A small deterministic scenario (city, hurricane, population).
//! let scenario = ScenarioConfig::small().build(42);
//! assert!(scenario.city.network.num_segments() > 0);
//! ```
//!
//! Run `cargo run --release --example quickstart` for an end-to-end demo.

pub use mobirescue_core as core;
pub use mobirescue_disaster as disaster;
pub use mobirescue_mobility as mobility;
pub use mobirescue_rl as rl;
pub use mobirescue_roadnet as roadnet;
pub use mobirescue_sim as sim;
pub use mobirescue_solver as solver;
pub use mobirescue_svm as svm;

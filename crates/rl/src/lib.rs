//! Reinforcement-learning substrate for the MobiRescue dispatcher
//! (Section IV-C), implemented from scratch.
//!
//! The paper trains a DNN-based RL policy (citing Pensieve) whose state is
//! the predicted request distribution plus team positions, whose action is a
//! destination per team, and whose reward is `αN^q − βT^d − γN^m`. The
//! pieces live here, free of any ML dependency:
//!
//! * [`nn`] — dense MLP with explicit backpropagation (gradient-checked);
//! * [`adam`] — the Adam optimizer;
//! * [`qscore`] — Q-learning over action features (the dispatcher's
//!   policy head: shared weights across destination zones), with replay
//!   and a target network;
//! * [`replay`] — the bounded replay ring [`QScore`] learns from.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adam;
pub mod nn;
pub mod qscore;
pub mod replay;

pub use adam::Adam;
pub use nn::{ForwardCache, Mlp};
pub use qscore::{PairTransition, QScore, QScoreConfig};
pub use replay::PairReplay;

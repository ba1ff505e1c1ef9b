//! Support vector machine built from scratch for the MobiRescue request
//! predictor (Section IV-B).
//!
//! The paper classifies whether a person should be rescued from their
//! disaster-related factor vector with an SVM, citing kernels for non-linear
//! separability. This crate implements the full stack: kernels
//! ([`kernel::Kernel`]), z-score feature scaling ([`scale::StandardScaler`]),
//! Platt's SMO trainer ([`smo::train`]) and the trained decision function
//! ([`model::SvmModel`]), plus the confusion-matrix metrics of Figures 15–16
//! ([`metrics::ConfusionMatrix`]).
//!
//! # Examples
//!
//! ```
//! use mobirescue_svm::{train, Kernel, SmoConfig};
//!
//! let xs = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![-1.0, -1.0], vec![-2.0, -2.0]];
//! let ys = vec![1.0, 1.0, -1.0, -1.0];
//! let model = train(&xs, &ys, Kernel::Linear, &SmoConfig::default());
//! assert!(model.predict(&[1.5, 1.5]));
//! assert!(!model.predict(&[-1.5, -1.5]));
//! ```

#![warn(missing_docs)]

pub mod kernel;
pub mod metrics;
pub mod model;
pub mod scale;
pub mod smo;

pub use kernel::Kernel;
pub use metrics::ConfusionMatrix;
pub use model::SvmModel;
pub use scale::StandardScaler;
pub use smo::{train, SmoConfig};

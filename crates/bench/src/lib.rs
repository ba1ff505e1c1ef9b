//! Benchmark and figure-regeneration harness.
//!
//! The `figures` binary (`cargo run -p mobirescue-bench --release --bin
//! figures`) reprints every table and figure of the paper's evaluation from
//! a fresh simulation. [`experiments`] holds one function per table/figure
//! so the binary and the integration tests share the exact same code.

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod loadgen;
pub mod report;
pub mod svgmap;

pub use experiments::{ExperimentScale, FigureContext};

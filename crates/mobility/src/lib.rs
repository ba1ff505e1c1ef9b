//! Human-mobility substrate for the MobiRescue reproduction.
//!
//! The paper's foundation is a proprietary city-scale GPS dataset (8,590
//! people around Hurricane Florence). This crate replaces it with a
//! synthetic dataset of the fields the pipeline reads (a ping is
//! `(person, minute, position)`) plus the full Section-III analysis
//! pipeline, which consumes only the GPS pings:
//!
//! * [`person`] / [`trace`] — dataset schema (people, pings, trajectories);
//! * [`generator`] — behavioural population synthesis (commutes, sheltering,
//!   trapping, hospital deliveries);
//! * [`stream`] — per-resident seeded samples of metro-scale populations,
//!   simulated on every core;
//! * [`cleaning`] — bounding-box and redundancy filtering (Figure 7 stage 1);
//! * [`map_match`] — grid-indexed snapping of positions to landmarks and
//!   segments;
//! * [`trips`] / [`flow`] — trip inference and vehicle flow rate
//!   (Definition 2, Figures 2/3/5);
//! * [`rescue`] — hospital-delivery detection, rescued labelling, and SVM
//!   training examples (Section III-B2, Figures 4/6);
//! * [`stats`] — Pearson correlation (Table I) and empirical CDFs.

#![warn(missing_docs)]

pub mod cleaning;
pub mod flow;
pub mod generator;
pub mod map_match;
pub mod person;
pub mod rescue;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod trips;

pub use cleaning::{clean, CleaningConfig, CleaningReport};
pub use flow::{FlowField, HourlyConditions};
pub use generator::{generate, GenerationOutput, PopulationConfig, TrueRescue};
pub use map_match::MapMatcher;
pub use person::{MobilityProfile, Person, PersonId};
pub use rescue::{
    detect_deliveries, label_rescues, training_examples, HospitalDelivery, LabeledExample,
    RescueRecord,
};
pub use stats::{mean, pearson, std_dev, Cdf};
pub use stream::{generate_streamed, ResidentStream};
pub use trace::{GpsPing, MobilityDataset, Trajectory, MINUTES_PER_DAY};
pub use trips::{extract_trips, Trip, DEFAULT_TRIP_THRESHOLD_M};

//! Optimization substrate for the MobiRescue baseline dispatchers.
//!
//! The comparison methods *Schedule* \[5\] and *Rescue* \[8\] both "formulate an
//! integer programming problem" to assign rescue teams to (predicted)
//! request positions. Both programs reduce to min-cost assignment, which
//! [`hungarian`] solves exactly in O(n²m) every dispatch period. The time
//! an IP solver would take (Figure 13's ~300-second dispatch latency) is
//! not spent here: the baselines in `mobirescue-core` charge it as the
//! modelled `ip_latency_s`.

#![warn(missing_docs)]

pub mod hungarian;

pub use hungarian::{min_cost_assignment, Assignment, CostMatrix, FORBIDDEN};

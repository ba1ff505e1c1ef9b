//! Road-network substrate for the MobiRescue reproduction.
//!
//! The paper (Section III-A) represents the city as a directed graph
//! `G = (E, V)` of landmarks and road segments, obtained from OpenStreetMap,
//! partitioned into 7 council-district regions, and — after the disaster —
//! reduced to the *remaining available* network G̃ by satellite flood
//! imaging. This crate provides:
//!
//! * [`geo`] — WGS-84 points, haversine distances, bounding boxes;
//! * [`graph`] — the directed landmark/segment graph with road classes and
//!   speed limits;
//! * [`routing`] — Dijkstra shortest paths parameterized by a pluggable
//!   [`routing::TravelCost`];
//! * [`regions`] — the region partition used throughout the paper's analysis;
//! * [`damage`] — per-segment flood condition implementing `TravelCost`
//!   (this *is* G̃);
//! * [`connectivity`] — reachability and strongly connected components of
//!   the damaged network;
//! * [`generator`] — a procedural Charlotte-like city (grid + arterials +
//!   downtown, hospitals, depot) replacing the OSM import;
//! * [`csr`], [`planner`], [`pool`] — the routing acceleration layer:
//!   frozen CSR adjacency, epoch-scoped cost snapshots, a shared
//!   shortest-path cache keyed by damage generation, and a std-only
//!   scoped thread pool for per-team SSSP fan-out. Results are
//!   bit-identical to [`routing::Router`] by construction.
//!
//! # Examples
//!
//! ```
//! use mobirescue_roadnet::generator::CityConfig;
//! use mobirescue_roadnet::routing::{FreeFlow, Router};
//!
//! let city = CityConfig::small().build(42);
//! let router = Router::new(&city.network);
//! let hospital = city.hospitals[0];
//! let route = router.shortest_path(&FreeFlow, city.depot, hospital);
//! assert!(route.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod connectivity;
pub mod csr;
pub mod damage;
pub mod generator;
pub mod geo;
pub mod graph;
pub mod planner;
pub mod pool;
pub mod regions;
pub mod routing;

pub use connectivity::{largest_component_size, reachable_from, strongly_connected_components};
pub use csr::{CostSnapshot, CsrGraph};
pub use damage::{NetworkCondition, SegmentCondition};
pub use generator::{City, CityConfig};
pub use geo::{BoundingBox, GeoPoint};
pub use graph::{Landmark, LandmarkId, RoadClass, RoadNetwork, RoadSegment, SegmentId};
pub use planner::{PlannerStats, RoutePlanner};
pub use regions::{RegionId, RegionPartition};
pub use routing::{FreeFlow, Route, Router, ShortestPaths, TravelCost};

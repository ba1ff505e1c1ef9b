//! Frozen CSR (compressed sparse row) view of a [`RoadNetwork`] plus
//! epoch-scoped cost snapshots — the data layer of the routing
//! acceleration stack (see `DESIGN.md`, "Routing acceleration").
//!
//! The naive [`crate::routing::Router`] chases `Vec<Vec<SegmentId>>`
//! adjacency and calls a trait-dispatched [`TravelCost`] on every edge
//! relaxation. [`CsrGraph`] freezes the same adjacency into three flat
//! arrays (`offsets`/`heads`/`segs`) built once per network, and
//! [`CostSnapshot`] materializes a [`TravelCost`] into one flat `Vec<f64>`
//! of per-edge travel times, computed once per
//! [`NetworkCondition`] generation.
//!
//! # Exact-equivalence contract
//!
//! The CSR Dijkstra must produce **bit-identical** distances and
//! predecessor routes to [`Router`](crate::routing::Router) under the same
//! cost model. This holds by construction:
//!
//! * edge slots of a landmark appear in exactly
//!   [`RoadNetwork::out_segments`] order, so relaxations happen in the
//!   same sequence;
//! * per-edge weights are the same `f64` value the trait object would
//!   return (the snapshot calls the very same [`TravelCost`] impl), with
//!   `f64::INFINITY` standing in for "impassable";
//! * the binary heap reuses the naive router's `HeapEntry`, so tie-breaks
//!   between equal-cost frontier nodes resolve identically.
//!
//! Property tests in `crates/roadnet/tests/` compare both paths on random
//! networks under random damage.
//!
//! # One search, three stopping rules
//!
//! `CsrGraph::search` is the only Dijkstra loop here. It settles the
//! whole graph for a full tree, stops at the goal for a point query, and
//! for a nearest-target query stops once the heap's next entry costs more
//! than the first target settled. Every run is a prefix of the full
//! search's pop sequence, so each landmark it settles carries the full
//! tree's `f64` distance and predecessor. The nearest rule still settles
//! every landmark at exactly the nearest distance, and any landmark left
//! unsettled has a tentative distance strictly above it, so the first tied
//! target in list order wins exactly as in the full tree.
//!
//! The search runs in a `Workspace`: full trees use a fresh one and keep
//! its arrays, while early-exit queries reuse one and reset only the
//! landmarks the previous search touched.

use crate::damage::{NetworkCondition, FREE_FLOW_GENERATION};
use crate::graph::{LandmarkId, RoadNetwork, SegmentId};
use crate::routing::{HeapEntry, ShortestPaths, TravelCost};
use std::collections::BinaryHeap;

/// Flat adjacency arrays of a [`RoadNetwork`], frozen at build time.
///
/// For landmark `u`, its out-edges occupy slots
/// `offsets[u] .. offsets[u + 1]`; slot `e` stores the head landmark in
/// `heads[e]` and the originating segment id in `segs[e]`. Slot order
/// within a landmark equals [`RoadNetwork::out_segments`] order — part of
/// the equivalence contract with the naive router.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    heads: Vec<u32>,
    segs: Vec<SegmentId>,
}

impl CsrGraph {
    /// Freezes `net`'s adjacency into CSR form.
    pub fn build(net: &RoadNetwork) -> Self {
        let mut offsets = Vec::with_capacity(net.num_landmarks() + 1);
        let mut heads = Vec::with_capacity(net.num_segments());
        let mut segs = Vec::with_capacity(net.num_segments());
        offsets.push(0);
        for lm in net.landmark_ids() {
            for &sid in net.out_segments(lm) {
                heads.push(net.segment(sid).to.0);
                segs.push(sid);
            }
            offsets.push(segs.len() as u32);
        }
        Self {
            offsets,
            heads,
            segs,
        }
    }

    /// Number of landmarks (graph vertices).
    pub fn num_landmarks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edge slots (= directed segments of the source network).
    pub fn num_edges(&self) -> usize {
        self.segs.len()
    }

    /// Materializes an arbitrary cost model into a snapshot tagged with
    /// `generation`. Callers are responsible for the tag being unique to
    /// the cost contents — use [`CsrGraph::snapshot_condition`] /
    /// [`CsrGraph::snapshot_free_flow`] for the two standard models.
    pub(crate) fn materialize<C: TravelCost>(
        &self,
        net: &RoadNetwork,
        cost: &C,
        generation: u64,
    ) -> CostSnapshot {
        let weights = self
            .segs
            .iter()
            .map(|&sid| {
                cost.travel_time_s(net.segment(sid))
                    .unwrap_or(f64::INFINITY)
            })
            .collect();
        CostSnapshot {
            weights,
            generation,
        }
    }

    /// Snapshot of a damage condition, tagged with its
    /// [`NetworkCondition::generation`].
    pub fn snapshot_condition(&self, net: &RoadNetwork, cond: &NetworkCondition) -> CostSnapshot {
        self.materialize(net, cond, cond.generation())
    }

    /// Snapshot of the static free-flow cost model (generation 0, never
    /// invalidated).
    pub fn snapshot_free_flow(&self, net: &RoadNetwork) -> CostSnapshot {
        self.materialize(net, &crate::routing::FreeFlow, FREE_FLOW_GENERATION)
    }

    /// CSR Dijkstra from `from` under `snap` in `ws`, with the given
    /// stopping rule. Identical relaxation order, weights, and heap
    /// behavior to [`crate::routing::Router`]'s Dijkstra — see the module
    /// docs. The answer is read from `Workspace::paths`; it is exact for
    /// every landmark the search settled.
    ///
    /// # Panics
    ///
    /// Panics if `from` (or any target) is out of range, or if the
    /// snapshot or the workspace was built for a different graph.
    pub(crate) fn search(
        &self,
        snap: &CostSnapshot,
        from: LandmarkId,
        goal: Goal<'_>,
        ws: &mut Workspace,
    ) {
        let n = self.num_landmarks();
        assert!(from.index() < n, "unknown landmark {from}");
        assert_eq!(
            snap.weights.len(),
            self.num_edges(),
            "cost snapshot built for a different graph"
        );
        assert_eq!(ws.settled.len(), n, "workspace built for a different graph");
        let targets = match goal {
            Goal::Nearest(targets) => targets,
            _ => &[],
        };
        for &t in targets {
            assert!(t.index() < n, "unknown landmark {t}");
        }
        ws.reset(from);
        let Workspace {
            paths,
            settled,
            is_target,
            heap,
            touched,
        } = ws;
        for &t in targets {
            is_target[t.index()] = true;
        }
        paths.dist[from.index()] = 0.0;
        touched.push(from.0);
        if let Goal::Nearest([]) = goal {
            return;
        }
        heap.push(HeapEntry {
            cost: 0.0,
            node: from.0,
        });
        // Distance of the first target settled. Every node at exactly this
        // distance is still settled, so tied targets all carry their final
        // time and `min_by` picks the same one as in the full tree.
        let mut nearest = f64::INFINITY;
        while let Some(HeapEntry { cost: d, node }) = heap.pop() {
            if d > nearest {
                break;
            }
            let u = node as usize;
            if settled[u] {
                continue;
            }
            settled[u] = true;
            match goal {
                Goal::All => {}
                Goal::One(g) => {
                    if g.0 == node {
                        break;
                    }
                }
                Goal::Nearest(_) => {
                    if is_target[u] && nearest.is_infinite() {
                        nearest = d;
                    }
                }
            }
            let lo = self.offsets[u] as usize;
            let hi = self.offsets[u + 1] as usize;
            for e in lo..hi {
                let w = snap.weights[e];
                if !w.is_finite() {
                    continue;
                }
                debug_assert!(w >= 0.0, "negative travel time on {}", self.segs[e]);
                let nd = d + w;
                let v = self.heads[e] as usize;
                if nd < paths.dist[v] {
                    if paths.dist[v].is_infinite() {
                        touched.push(self.heads[e]);
                    }
                    paths.dist[v] = nd;
                    paths.prev_seg[v] = Some(self.segs[e]);
                    heap.push(HeapEntry {
                        cost: nd,
                        node: self.heads[e],
                    });
                }
            }
        }
        for &t in targets {
            is_target[t.index()] = false;
        }
    }

    /// Full shortest-path tree from `from` under `snap`, searched in a
    /// fresh workspace whose arrays become the tree.
    pub fn shortest_paths(&self, snap: &CostSnapshot, from: LandmarkId) -> ShortestPaths {
        let mut ws = Workspace::new(self.num_landmarks());
        self.search(snap, from, Goal::All, &mut ws);
        ws.into_paths()
    }
}

/// Stopping rule for the CSR Dijkstra.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal<'t> {
    /// Settle the whole reachable graph (full tree).
    All,
    /// Stop once this landmark is settled (point query).
    One(LandmarkId),
    /// Stop once the heap passes the distance of the first listed landmark
    /// settled (nearest-target query); an empty list searches nothing.
    Nearest(&'t [LandmarkId]),
}

/// The state of one CSR Dijkstra, kept between searches so repeated
/// early-exit queries do not allocate and fill per-landmark arrays.
///
/// A search starts by resetting only the landmarks the previous search
/// touched (reached with a finite distance); every other entry is already
/// in its initial state.
pub(crate) struct Workspace {
    /// Distances and predecessor segments of the last search.
    paths: ShortestPaths,
    settled: Vec<bool>,
    is_target: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    /// Landmarks whose distance the last search made finite.
    touched: Vec<u32>,
}

impl Workspace {
    /// An untouched workspace for a graph of `n` landmarks.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            paths: ShortestPaths {
                source: LandmarkId(0),
                dist: vec![f64::INFINITY; n],
                prev_seg: vec![None; n],
            },
            settled: vec![false; n],
            is_target: vec![false; n],
            heap: BinaryHeap::new(),
            touched: Vec::new(),
        }
    }

    /// Restores the initial state for a search from `from`.
    fn reset(&mut self, from: LandmarkId) {
        for &v in &self.touched {
            let v = v as usize;
            self.paths.dist[v] = f64::INFINITY;
            self.paths.prev_seg[v] = None;
            self.settled[v] = false;
        }
        self.touched.clear();
        self.heap.clear();
        self.paths.source = from;
    }

    /// The result of the last search.
    pub(crate) fn paths(&self) -> &ShortestPaths {
        &self.paths
    }

    /// The result of the last search, keeping its arrays.
    pub(crate) fn into_paths(self) -> ShortestPaths {
        self.paths
    }
}

/// Per-edge travel times materialized from one [`TravelCost`], valid for
/// exactly one cost generation.
///
/// `f64::INFINITY` marks an impassable edge (removed from G̃). The
/// `generation` tag ties the snapshot to the
/// [`NetworkCondition`] contents it was
/// built from; any damage mutation draws a fresh generation, so a stale
/// snapshot can never be mistaken for current.
#[derive(Debug, Clone)]
pub struct CostSnapshot {
    weights: Vec<f64>,
    generation: u64,
}

impl CostSnapshot {
    /// The cost generation this snapshot was materialized from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of edge weights (matches [`CsrGraph::num_edges`]).
    pub fn num_edges(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::graph::RoadClass;
    use crate::routing::{FreeFlow, Router};

    /// 4x4 grid of residential streets, 800 m spacing.
    fn grid4() -> (RoadNetwork, Vec<LandmarkId>) {
        let mut net = RoadNetwork::new();
        let origin = GeoPoint::new(35.0, -80.0);
        let mut ids = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                ids.push(net.add_landmark(origin.offset_m(c as f64 * 800.0, r as f64 * 800.0)));
            }
        }
        for r in 0..4 {
            for c in 0..4 {
                let i = r * 4 + c;
                if c + 1 < 4 {
                    net.add_two_way(ids[i], ids[i + 1], RoadClass::Residential);
                }
                if r + 1 < 4 {
                    net.add_two_way(ids[i], ids[i + 4], RoadClass::Arterial);
                }
            }
        }
        (net, ids)
    }

    #[test]
    fn csr_preserves_adjacency_order() {
        let (net, _) = grid4();
        let csr = CsrGraph::build(&net);
        assert_eq!(csr.num_landmarks(), net.num_landmarks());
        assert_eq!(csr.num_edges(), net.num_segments());
        for lm in net.landmark_ids() {
            let lo = csr.offsets[lm.index()] as usize;
            let hi = csr.offsets[lm.index() + 1] as usize;
            assert_eq!(&csr.segs[lo..hi], net.out_segments(lm));
            for e in lo..hi {
                assert_eq!(csr.heads[e], net.segment(csr.segs[e]).to.0);
            }
        }
    }

    #[test]
    fn full_tree_bit_identical_to_naive() {
        let (net, ids) = grid4();
        let csr = CsrGraph::build(&net);
        let snap = csr.snapshot_free_flow(&net);
        let router = Router::new(&net);
        for &from in &ids {
            let fast = csr.shortest_paths(&snap, from);
            let slow = router.shortest_paths_from(&FreeFlow, from);
            // Bit-identical, not approximately equal.
            assert_eq!(fast.travel_times(), slow.travel_times());
            for &to in &ids {
                assert_eq!(fast.route_to(&net, to), slow.route_to(&net, to));
            }
        }
    }

    #[test]
    fn damaged_snapshot_matches_condition() {
        let (net, ids) = grid4();
        let csr = CsrGraph::build(&net);
        let mut cond = NetworkCondition::pristine(&net);
        cond.block(net.out_segments(ids[5])[0]);
        cond.set_speed_factor(net.out_segments(ids[0])[0], 0.25);
        let snap = csr.snapshot_condition(&net, &cond);
        assert_eq!(snap.generation(), cond.generation());
        assert_eq!(
            snap.weights.iter().filter(|w| w.is_finite()).count(),
            cond.operable_count()
        );
        let router = Router::new(&net);
        for &from in &ids {
            let fast = csr.shortest_paths(&snap, from);
            let slow = router.shortest_paths_from(&cond, from);
            assert_eq!(fast.travel_times(), slow.travel_times());
        }
    }

    /// Runs one search in a fresh workspace.
    fn run(csr: &CsrGraph, snap: &CostSnapshot, from: LandmarkId, goal: Goal<'_>) -> ShortestPaths {
        let mut ws = Workspace::new(csr.num_landmarks());
        csr.search(snap, from, goal, &mut ws);
        ws.into_paths()
    }

    #[test]
    fn nearest_target_time_and_route_match_full_tree() {
        let (net, ids) = grid4();
        let csr = CsrGraph::build(&net);
        let snap = csr.snapshot_free_flow(&net);
        let full = csr.shortest_paths(&snap, ids[0]);
        let targets = [ids[15], ids[12], ids[3], ids[12]];
        let partial = run(&csr, &snap, ids[0], Goal::Nearest(&targets));
        // Arterial columns are faster than residential rows, so ids[12] is
        // the nearest target; the search stops before reaching ids[15].
        let nearest = ids[12];
        assert_eq!(partial.travel_time_s(nearest), full.travel_time_s(nearest));
        assert_eq!(
            partial.route_to(&net, nearest),
            full.route_to(&net, nearest)
        );
        for &t in &targets {
            assert!(partial.travel_times()[t.index()] >= full.travel_times()[nearest.index()]);
        }
        assert_eq!(partial.travel_time_s(ids[15]), None);
    }

    #[test]
    fn point_query_matches_naive_route() {
        let (net, ids) = grid4();
        let csr = CsrGraph::build(&net);
        let snap = csr.snapshot_free_flow(&net);
        let router = Router::new(&net);
        for &to in &ids {
            let fast = run(&csr, &snap, ids[0], Goal::One(to)).route_to(&net, to);
            let slow = router.shortest_path(&FreeFlow, ids[0], to);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn empty_target_list_short_circuits() {
        let (net, ids) = grid4();
        let csr = CsrGraph::build(&net);
        let snap = csr.snapshot_free_flow(&net);
        let sp = run(&csr, &snap, ids[0], Goal::Nearest(&[]));
        assert_eq!(sp.travel_time_s(ids[0]), Some(0.0));
        assert_eq!(sp.travel_time_s(ids[1]), None);
    }
}

//! Epoch-scoped route planning: one shared, cached view of shortest
//! paths per damage generation.
//!
//! The paper's dispatcher re-routes every rescue team each 5-minute epoch
//! over the remaining road network G̃. Within one epoch the damage
//! condition is frozen, so every consumer (RL dispatcher, Schedule/Rescue
//! baselines, sim engine, serve shards, metrics) is asking for shortest
//! paths under the *same* cost model — yet the naive path re-ran a full
//! Dijkstra per query. [`RoutePlanner`] memoizes:
//!
//! * the **cost snapshot** (flat per-edge weights, [`crate::csr`]) —
//!   materialized once per [`NetworkCondition`] generation;
//! * **shortest-path trees** keyed by `(generation, source landmark)` —
//!   each team's tree is computed once per epoch and shared by every
//!   consumer;
//! * point and nearest-target queries are answered from the tree when one
//!   is cached, and otherwise run the CSR early-exit search
//!   ([`crate::csr`]) in a reused workspace, resetting only the landmarks
//!   the previous search touched. [`RoutePlanner::nearest_route`] returns
//!   the route to the nearest target from that same search.
//!
//! Invalidation is automatic: every damage mutation draws a fresh
//! process-unique generation ([`NetworkCondition::generation`]), and the
//! planner drops condition-scoped entries the moment it sees a new
//! generation. Free-flow entries (generation 0) are immutable and kept
//! for the planner's lifetime.
//!
//! All methods take `&self`; the planner is `Sync` and is shared across
//! the scoped worker threads of [`crate::pool`] by [`RoutePlanner::prewarm`].
//! Concurrent early-exit queries each take their own workspace from an idle
//! list, so a sequential caller reuses one.

use crate::csr::{CostSnapshot, CsrGraph, Goal, Workspace};
use crate::damage::{NetworkCondition, FREE_FLOW_GENERATION};
use crate::graph::{LandmarkId, RoadNetwork};
use crate::pool::parallel_map;
use crate::routing::{Route, ShortestPaths};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache effectiveness counters (cumulative since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Queries answered from a cached shortest-path tree.
    pub hits: u64,
    /// Queries that ran a Dijkstra (full or early-exit).
    pub misses: u64,
}

struct Cache {
    /// Snapshot of the most recent condition generation (one at a time —
    /// epochs are sequential).
    snapshot: Option<Arc<CostSnapshot>>,
    /// Full trees keyed by `(generation, source landmark)`.
    trees: HashMap<(u64, u32), Arc<ShortestPaths>>,
}

/// Shared routing front-end over a frozen [`CsrGraph`] with per-epoch
/// memoization. See the module docs for the caching model; results are
/// bit-identical to [`crate::routing::Router`] by the CSR equivalence
/// contract.
pub struct RoutePlanner<'a> {
    net: &'a RoadNetwork,
    csr: CsrGraph,
    free_flow: Arc<CostSnapshot>,
    cache: Mutex<Cache>,
    /// Idle workspaces of the early-exit searches.
    workspaces: Mutex<Vec<Workspace>>,
    hits: AtomicU64,
    misses: AtomicU64,
    prewarmed: AtomicU64,
}

impl std::fmt::Debug for RoutePlanner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("RoutePlanner")
            .field("landmarks", &self.csr.num_landmarks())
            .field("edges", &self.csr.num_edges())
            .field("stats", &stats)
            .finish()
    }
}

impl<'a> RoutePlanner<'a> {
    /// Builds the CSR view of `net` and an empty cache.
    pub fn new(net: &'a RoadNetwork) -> Self {
        let csr = CsrGraph::build(net);
        let free_flow = Arc::new(csr.snapshot_free_flow(net));
        Self {
            net,
            csr,
            free_flow,
            cache: Mutex::new(Cache {
                snapshot: None,
                trees: HashMap::new(),
            }),
            workspaces: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            prewarmed: AtomicU64::new(0),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &'a RoadNetwork {
        self.net
    }

    /// Cumulative cache counters.
    pub fn stats(&self) -> PlannerStats {
        PlannerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Adds `stats` to the cumulative cache counters, so the planner of a
    /// world restored from a snapshot carries on from the totals the
    /// snapshot recorded.
    pub fn resume_stats(&self, stats: PlannerStats) {
        self.hits.fetch_add(stats.hits, Ordering::Relaxed);
        self.misses.fetch_add(stats.misses, Ordering::Relaxed);
    }

    /// Trees computed by prewarm calls (cumulative). Not part of
    /// [`PlannerStats`] — that struct's shape is persisted in the serve
    /// snapshot wire format and must stay fixed.
    pub fn prewarmed(&self) -> u64 {
        self.prewarmed.load(Ordering::Relaxed)
    }

    /// Publishes the planner's counters into an observability registry
    /// under `prefix` (e.g. `routing`): `{prefix}.cache_hits` /
    /// `{prefix}.cache_misses` / `{prefix}.prewarmed_trees` counters
    /// (mirrored — the planner's atomics stay the source of truth) and a
    /// `{prefix}.cached_trees` gauge. Call at any publication point; the
    /// values are cumulative so re-publishing just refreshes them.
    pub fn publish(&self, registry: &mobirescue_obs::Registry, prefix: &str) {
        let stats = self.stats();
        registry
            .counter(&format!("{prefix}.cache_hits"))
            .set(stats.hits);
        registry
            .counter(&format!("{prefix}.cache_misses"))
            .set(stats.misses);
        registry
            .counter(&format!("{prefix}.prewarmed_trees"))
            .set(self.prewarmed());
        registry
            .gauge(&format!("{prefix}.cached_trees"))
            .set(self.cached_trees() as i64);
    }

    /// Number of shortest-path trees currently cached (all generations).
    pub fn cached_trees(&self) -> usize {
        self.cache
            .lock()
            .expect("planner cache poisoned")
            .trees
            .len()
    }

    /// The cost snapshot for `cond`, materializing it (and evicting
    /// entries of older generations) when the generation is new.
    fn snapshot_for(&self, cond: &NetworkCondition) -> Arc<CostSnapshot> {
        let generation = cond.generation();
        let mut cache = self.cache.lock().expect("planner cache poisoned");
        match &cache.snapshot {
            Some(snap) if snap.generation() == generation => Arc::clone(snap),
            _ => {
                let snap = Arc::new(self.csr.snapshot_condition(self.net, cond));
                cache.snapshot = Some(Arc::clone(&snap));
                // A new generation supersedes every older condition; only
                // immutable free-flow trees survive the epoch boundary.
                cache
                    .trees
                    .retain(|&(gen, _), _| gen == generation || gen == FREE_FLOW_GENERATION);
                snap
            }
        }
    }

    fn cached_tree(&self, generation: u64, from: LandmarkId) -> Option<Arc<ShortestPaths>> {
        let cache = self.cache.lock().expect("planner cache poisoned");
        cache.trees.get(&(generation, from.0)).map(Arc::clone)
    }

    fn insert_tree(&self, generation: u64, tree: Arc<ShortestPaths>) {
        let mut cache = self.cache.lock().expect("planner cache poisoned");
        cache
            .trees
            .entry((generation, tree.source().0))
            .or_insert(tree);
    }

    /// Full shortest-path tree from `from` under `snap`, cached by
    /// `(snap.generation(), from)`. The tree is computed outside the cache
    /// lock so concurrent misses on different sources run in parallel.
    fn tree(&self, snap: &Arc<CostSnapshot>, from: LandmarkId) -> Arc<ShortestPaths> {
        if let Some(tree) = self.cached_tree(snap.generation(), from) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return tree;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let tree = Arc::new(self.csr.shortest_paths(snap, from));
        self.insert_tree(snap.generation(), Arc::clone(&tree));
        tree
    }

    /// Shortest-path tree from `from` under `cond` (cached per epoch).
    pub fn paths_from(&self, cond: &NetworkCondition, from: LandmarkId) -> Arc<ShortestPaths> {
        let snap = self.snapshot_for(cond);
        self.tree(&snap, from)
    }

    /// Shortest-path tree from `from` under free flow (cached forever).
    pub fn free_flow_paths_from(&self, from: LandmarkId) -> Arc<ShortestPaths> {
        let free_flow = Arc::clone(&self.free_flow);
        self.tree(&free_flow, from)
    }

    /// Runs an early-exit search in an idle workspace (a fresh one when
    /// none is idle) and reads its answer with `read`.
    fn search<R>(
        &self,
        snap: &CostSnapshot,
        from: LandmarkId,
        goal: Goal<'_>,
        read: impl FnOnce(&ShortestPaths) -> R,
    ) -> R {
        let idle = self
            .workspaces
            .lock()
            .expect("planner workspaces poisoned")
            .pop();
        let mut ws = idle.unwrap_or_else(|| Workspace::new(self.csr.num_landmarks()));
        self.csr.search(snap, from, goal, &mut ws);
        let answer = read(ws.paths());
        self.workspaces
            .lock()
            .expect("planner workspaces poisoned")
            .push(ws);
        answer
    }

    fn point_query(&self, snap: &CostSnapshot, from: LandmarkId, to: LandmarkId) -> Option<Route> {
        if let Some(tree) = self.cached_tree(snap.generation(), from) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return tree.route_to(self.net, to);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.search(snap, from, Goal::One(to), |sp| sp.route_to(self.net, to))
    }

    /// Shortest route from `from` to `to` under `cond`, or `None` when
    /// unreachable. Served from the cached tree when one exists;
    /// otherwise an early-exit point query (not cached — partial trees
    /// are never stored).
    pub fn route(
        &self,
        cond: &NetworkCondition,
        from: LandmarkId,
        to: LandmarkId,
    ) -> Option<Route> {
        let snap = self.snapshot_for(cond);
        self.point_query(&snap, from, to)
    }

    /// Shortest route from `from` to `to` under free flow.
    pub fn free_flow_route(&self, from: LandmarkId, to: LandmarkId) -> Option<Route> {
        let free_flow = Arc::clone(&self.free_flow);
        self.point_query(&free_flow, from, to)
    }

    /// Among `targets`, the one with the least travel time from `from`
    /// under `cond`, and the shortest route to it: `(index into targets,
    /// route)`, or `None` when no target is reachable (or `targets` is
    /// empty). Ties go to the first such target in `targets` order. Uses
    /// the cached tree when present, else one early-exit search that stops
    /// at the nearest target's distance.
    pub fn nearest_route(
        &self,
        cond: &NetworkCondition,
        from: LandmarkId,
        targets: &[LandmarkId],
    ) -> Option<(usize, Route)> {
        if targets.is_empty() {
            return None;
        }
        let snap = self.snapshot_for(cond);
        let nearest = |sp: &ShortestPaths| {
            let (i, _) = targets
                .iter()
                .enumerate()
                .filter_map(|(i, &t)| sp.travel_time_s(t).map(|d| (i, d)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("travel times are never NaN"))?;
            Some((i, sp.route_to(self.net, targets[i])?))
        };
        if let Some(tree) = self.cached_tree(snap.generation(), from) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return nearest(&tree);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.search(&snap, from, Goal::Nearest(targets), nearest)
    }

    /// Computes (and caches) the shortest-path trees of every listed
    /// source under `cond`, fanning the misses across up to `threads`
    /// scoped workers. This is the per-epoch entry point: dispatchers
    /// prewarm all team locations once, and every subsequent query in the
    /// epoch is a cache hit. Duplicate and already-cached sources are
    /// skipped.
    pub fn prewarm(&self, cond: &NetworkCondition, sources: &[LandmarkId], threads: usize) {
        let snap = self.snapshot_for(cond);
        self.prewarm_snapshot(&snap, sources, threads);
    }

    /// Free-flow analogue of [`RoutePlanner::prewarm`].
    pub fn prewarm_free_flow(&self, sources: &[LandmarkId], threads: usize) {
        let free_flow = Arc::clone(&self.free_flow);
        self.prewarm_snapshot(&free_flow, sources, threads);
    }

    fn prewarm_snapshot(&self, snap: &Arc<CostSnapshot>, sources: &[LandmarkId], threads: usize) {
        let generation = snap.generation();
        let mut missing = Vec::new();
        {
            let cache = self.cache.lock().expect("planner cache poisoned");
            for &from in sources {
                if !cache.trees.contains_key(&(generation, from.0)) && !missing.contains(&from) {
                    missing.push(from);
                }
            }
        }
        self.hits
            .fetch_add((sources.len() - missing.len()) as u64, Ordering::Relaxed);
        self.misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        self.prewarmed
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        if missing.is_empty() {
            return;
        }
        let trees = parallel_map(threads, &missing, |_, &from| {
            Arc::new(self.csr.shortest_paths(snap, from))
        });
        let mut cache = self.cache.lock().expect("planner cache poisoned");
        for tree in trees {
            cache
                .trees
                .entry((generation, tree.source().0))
                .or_insert(tree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::graph::{RoadClass, SegmentId};
    use crate::routing::{FreeFlow, Router};

    /// 5x5 grid, 600 m spacing.
    fn grid5() -> (RoadNetwork, Vec<LandmarkId>) {
        let mut net = RoadNetwork::new();
        let origin = GeoPoint::new(35.0, -80.0);
        let mut ids = Vec::new();
        for r in 0..5 {
            for c in 0..5 {
                ids.push(net.add_landmark(origin.offset_m(c as f64 * 600.0, r as f64 * 600.0)));
            }
        }
        for r in 0..5 {
            for c in 0..5 {
                let i = r * 5 + c;
                if c + 1 < 5 {
                    net.add_two_way(ids[i], ids[i + 1], RoadClass::Residential);
                }
                if r + 1 < 5 {
                    net.add_two_way(ids[i], ids[i + 5], RoadClass::Residential);
                }
            }
        }
        (net, ids)
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (net, ids) = grid5();
        let planner = RoutePlanner::new(&net);
        let cond = NetworkCondition::pristine(&net);
        let a = planner.paths_from(&cond, ids[0]);
        let b = planner.paths_from(&cond, ids[0]);
        assert!(Arc::ptr_eq(&a, &b), "second query must share the tree");
        let stats = planner.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(planner.cached_trees(), 1);
    }

    #[test]
    fn generation_bump_invalidates_but_results_stay_correct() {
        let (net, ids) = grid5();
        let planner = RoutePlanner::new(&net);
        let mut cond = NetworkCondition::pristine(&net);
        let before = planner.paths_from(&cond, ids[0]);
        let blocked: SegmentId = net.out_segments(ids[0])[0];
        cond.block(blocked);
        let after = planner.paths_from(&cond, ids[0]);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "stale tree must not be reused"
        );
        // The fresh tree matches a naive run under the mutated condition.
        let naive = Router::new(&net).shortest_paths_from(&cond, ids[0]);
        assert_eq!(after.travel_times(), naive.travel_times());
        // Old-generation tree was evicted; only the new one remains.
        assert_eq!(planner.cached_trees(), 1);
    }

    #[test]
    fn free_flow_trees_survive_condition_churn() {
        let (net, ids) = grid5();
        let planner = RoutePlanner::new(&net);
        let ff = planner.free_flow_paths_from(ids[3]);
        let mut cond = NetworkCondition::pristine(&net);
        planner.paths_from(&cond, ids[0]);
        cond.block(net.out_segments(ids[0])[0]);
        planner.paths_from(&cond, ids[0]);
        let ff_again = planner.free_flow_paths_from(ids[3]);
        assert!(Arc::ptr_eq(&ff, &ff_again));
    }

    #[test]
    fn route_and_nearest_match_naive_router() {
        let (net, ids) = grid5();
        let planner = RoutePlanner::new(&net);
        let router = Router::new(&net);
        let mut cond = NetworkCondition::pristine(&net);
        cond.block(net.out_segments(ids[12])[0]);
        cond.set_speed_factor(net.out_segments(ids[6])[1], 0.5);
        for &to in &[ids[24], ids[7], ids[0]] {
            assert_eq!(
                planner.route(&cond, ids[0], to),
                router.shortest_path(&cond, ids[0], to)
            );
            assert_eq!(
                planner.free_flow_route(ids[0], to),
                router.shortest_path(&FreeFlow, ids[0], to)
            );
        }
        let targets = [ids[24], ids[4], ids[20], ids[4]];
        let (i, route) = planner.nearest_route(&cond, ids[0], &targets).unwrap();
        assert_eq!(
            Some((i, route.travel_time_s)),
            router.nearest_target(&cond, ids[0], &targets)
        );
        assert_eq!(Some(route), router.shortest_path(&cond, ids[0], targets[i]));
        assert_eq!(planner.nearest_route(&cond, ids[0], &[]), None);
    }

    /// Exact ties: landmarks at one point joined to a common neighbour are
    /// bit-identically far from it. The first listed target must win, as in
    /// the full search, also when it is reached at the tied distance only
    /// after the first target is settled.
    #[test]
    fn nearest_route_breaks_exact_ties_like_the_full_search() {
        let mut net = RoadNetwork::new();
        let origin = GeoPoint::new(35.0, -80.0);
        let p = origin.offset_m(500.0, 0.0);
        let src = net.add_landmark(origin);
        let a = net.add_landmark(p);
        let b = net.add_landmark(p);
        let c = net.add_landmark(p);
        let t = net.add_landmark(p);
        for lm in [a, b, c] {
            net.add_two_way(src, lm, RoadClass::Residential);
        }
        // Zero-length hop: `t` is settled at the tied distance after `a`.
        net.add_two_way(c, t, RoadClass::Residential);
        let planner = RoutePlanner::new(&net);
        let router = Router::new(&net);
        let cond = NetworkCondition::pristine(&net);
        for targets in [[b, a], [t, a]] {
            let (i, route) = planner.nearest_route(&cond, src, &targets).unwrap();
            assert_eq!(i, 0, "the first listed of the tied targets wins");
            assert_eq!(
                Some((i, route.travel_time_s)),
                router.nearest_target(&cond, src, &targets)
            );
            assert_eq!(Some(route), router.shortest_path(&cond, src, targets[0]));
        }
    }

    #[test]
    fn prewarm_fills_cache_in_parallel() {
        let (net, ids) = grid5();
        let planner = RoutePlanner::new(&net);
        let cond = NetworkCondition::pristine(&net);
        let sources: Vec<LandmarkId> = ids.iter().copied().take(10).collect();
        planner.prewarm(&cond, &sources, 4);
        assert_eq!(planner.cached_trees(), 10);
        assert_eq!(planner.stats().misses, 10);
        // Every post-prewarm query is a hit, and matches a naive run.
        let router = Router::new(&net);
        for &from in &sources {
            let tree = planner.paths_from(&cond, from);
            let naive = router.shortest_paths_from(&cond, from);
            assert_eq!(tree.travel_times(), naive.travel_times());
        }
        assert_eq!(planner.stats().hits, 10);
        // Re-prewarming the same sources computes nothing new.
        planner.prewarm(&cond, &sources, 4);
        assert_eq!(planner.stats().misses, 10);
    }

    #[test]
    fn publish_mirrors_counters_into_registry() {
        let (net, ids) = grid5();
        let planner = RoutePlanner::new(&net);
        let cond = NetworkCondition::pristine(&net);
        planner.prewarm(&cond, &ids[..4], 2);
        planner.paths_from(&cond, ids[0]);
        assert_eq!(planner.prewarmed(), 4);
        let reg = mobirescue_obs::Registry::new();
        planner.publish(&reg, "routing");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["routing.cache_hits"], 1);
        assert_eq!(snap.counters["routing.cache_misses"], 4);
        assert_eq!(snap.counters["routing.prewarmed_trees"], 4);
        assert_eq!(snap.gauges["routing.cached_trees"], 4);
        // Re-publishing refreshes rather than double counts.
        planner.publish(&reg, "routing");
        assert_eq!(reg.snapshot().counters["routing.cache_hits"], 1);
    }

    #[test]
    fn point_queries_prefer_cached_tree() {
        let (net, ids) = grid5();
        let planner = RoutePlanner::new(&net);
        let cond = NetworkCondition::pristine(&net);
        // Miss: early-exit query, not cached.
        planner.route(&cond, ids[0], ids[24]);
        assert_eq!(planner.cached_trees(), 0);
        assert_eq!(planner.stats().misses, 1);
        // Cache the tree, then the same query is a hit.
        planner.paths_from(&cond, ids[0]);
        planner.route(&cond, ids[0], ids[24]);
        let stats = planner.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }
}

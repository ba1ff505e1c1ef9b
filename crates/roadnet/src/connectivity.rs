//! Connectivity analysis of the (possibly damaged) road network.
//!
//! Flooding cuts the network into islands; dispatchers and the analysis
//! pipeline both need to reason about which landmarks remain mutually
//! reachable (the paper's Ẽ is only useful alongside knowing who can reach
//! whom). This module provides strongly connected components under any
//! [`TravelCost`].

use crate::graph::{LandmarkId, RoadNetwork};
use crate::routing::TravelCost;

/// Strongly connected components under `cost` (Kosaraju's algorithm).
/// Returns one component id per landmark, with ids in `0..num_components`.
pub fn strongly_connected_components<C: TravelCost>(
    net: &RoadNetwork,
    cost: &C,
) -> (Vec<usize>, usize) {
    let n = net.num_landmarks();
    let passable = |sid| cost.travel_time_s(net.segment(sid)).is_some();

    // Pass 1: iterative DFS finish order on the forward graph.
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // (node, next out-edge index) stack.
        let mut stack = vec![(LandmarkId(start as u32), 0usize)];
        visited[start] = true;
        while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
            let outs = net.out_segments(u);
            let mut advanced = false;
            while *idx < outs.len() {
                let sid = outs[*idx];
                *idx += 1;
                if !passable(sid) {
                    continue;
                }
                let v = net.segment(sid).to;
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    stack.push((v, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                order.push(u);
                stack.pop();
            }
        }
    }

    // Pass 2: reverse-graph DFS in decreasing finish order.
    let mut component = vec![usize::MAX; n];
    let mut num_components = 0;
    for &root in order.iter().rev() {
        if component[root.index()] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        component[root.index()] = num_components;
        while let Some(u) = stack.pop() {
            for &sid in net.in_segments(u) {
                if !passable(sid) {
                    continue;
                }
                let v = net.segment(sid).from;
                if component[v.index()] == usize::MAX {
                    component[v.index()] = num_components;
                    stack.push(v);
                }
            }
        }
        num_components += 1;
    }
    (component, num_components)
}

/// Size of the largest strongly connected component under `cost` — a
/// one-number summary of how badly flooding has fragmented the city.
pub fn largest_component_size<C: TravelCost>(net: &RoadNetwork, cost: &C) -> usize {
    let (components, count) = strongly_connected_components(net, cost);
    let mut sizes = vec![0usize; count];
    for c in components {
        sizes[c] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damage::NetworkCondition;
    use crate::generator::CityConfig;
    use crate::geo::GeoPoint;
    use crate::graph::RoadClass;
    use crate::routing::FreeFlow;

    #[test]
    fn pristine_grid_is_one_component() {
        let city = CityConfig::small().build(2);
        let (comp, count) = strongly_connected_components(&city.network, &FreeFlow);
        assert_eq!(count, 1);
        assert!(comp.iter().all(|&c| c == 0));
        assert_eq!(
            largest_component_size(&city.network, &FreeFlow),
            city.network.num_landmarks()
        );
    }

    #[test]
    fn one_way_pair_forms_two_components() {
        let mut net = RoadNetwork::new();
        let a = net.add_landmark(GeoPoint::new(35.0, -80.0));
        let b = net.add_landmark(GeoPoint::new(35.01, -80.0));
        net.add_segment(a, b, RoadClass::Residential);
        let (comp, count) = strongly_connected_components(&net, &FreeFlow);
        assert_eq!(count, 2);
        assert_ne!(comp[a.index()], comp[b.index()]);
    }

    #[test]
    fn a_blocked_band_splits_the_grid() {
        let city = CityConfig::small().build(3);
        // Block a band of segments to split the grid.
        let mut cond = NetworkCondition::pristine(&city.network);
        for seg in city.network.segments() {
            let mid = city.network.segment_midpoint(seg.id);
            let (_, north) = mid.local_xy_m(city.center);
            if (-300.0..300.0).contains(&north) {
                cond.block(seg.id);
            }
        }
        let (_, count) = strongly_connected_components(&city.network, &cond);
        assert!(count >= 2, "the band should split the grid");
    }

    #[test]
    fn flood_shrinks_the_largest_component() {
        let city = CityConfig::small().build(4);
        let mut cond = NetworkCondition::pristine(&city.network);
        let before = largest_component_size(&city.network, &cond);
        for sid in city.network.segment_ids().take(200) {
            cond.block(sid);
        }
        let after = largest_component_size(&city.network, &cond);
        assert!(after < before);
    }
}

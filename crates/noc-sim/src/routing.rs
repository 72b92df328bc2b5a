//! Routing functions over router graphs.
//!
//! One pure function per [`RoutingKind`](crate::RoutingKind), each mapping
//! `(topology, here, destination)` to a [`RouteStep`]:
//!
//! * [`route_xy`] — dimension-order X-Y on a mesh: correct the column
//!   (West/East), then the row (North/South), then eject. Minimal and
//!   deadlock-free on a mesh, and the routing function assumed by the
//!   paper's RL-inspired arbiter (§4.7 attributes the East/West vs
//!   North/South hop-count asymmetry to "the underlying X-Y routing").
//! * [`route_west_first`] — minimal west-first adaptive routing on a mesh
//!   (the only non-deterministic kind).
//! * [`route_torus`] — dimension-order with wraparound on a torus: each
//!   dimension is corrected the short way around its ring.
//! * [`route_ring`] — shortest-way-around traversal on a ring.
//! * [`route_table`] — the topology's precomputed shortest-path next-hop
//!   table ([`Topology::next_hop_port`]); works on any connected graph,
//!   including degraded ones.
//!
//! [`route_deterministic`] dispatches over the deterministic kinds, and
//! [`route_path`] walks a full path for tests and analysis.

use crate::config::RoutingKind;
use crate::topology::Topology;
use crate::types::{PortDir, RouterId};

/// Routing decision produced by the routing functions in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStep {
    /// Forward out of the given mesh direction.
    Forward(PortDir),
    /// Eject to the local port with the given slot.
    Eject(u8),
}

/// Computes the output direction a packet at `here` must take to reach
/// `(dst_router, dst_slot)` under X-Y routing.
///
/// ```
/// use noc_sim::{Topology, RouterId, route_xy, RouteStep, PortDir};
/// let t = Topology::uniform_mesh(4, 4).unwrap();
/// // router 0 = (0,0), router 5 = (1,1): go East first.
/// assert_eq!(route_xy(&t, RouterId(0), RouterId(5), 0), RouteStep::Forward(PortDir::East));
/// // at destination: eject.
/// assert_eq!(route_xy(&t, RouterId(5), RouterId(5), 0), RouteStep::Eject(0));
/// ```
pub fn route_xy(topo: &Topology, here: RouterId, dst_router: RouterId, dst_slot: u8) -> RouteStep {
    let c = topo.coord(here);
    let d = topo.coord(dst_router);
    if c.x < d.x {
        RouteStep::Forward(PortDir::East)
    } else if c.x > d.x {
        RouteStep::Forward(PortDir::West)
    } else if c.y < d.y {
        RouteStep::Forward(PortDir::South)
    } else if c.y > d.y {
        RouteStep::Forward(PortDir::North)
    } else {
        RouteStep::Eject(dst_slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Coord;

    #[test]
    fn path_length_is_manhattan_distance() {
        let t = Topology::uniform_mesh(8, 8).unwrap();
        for (a, b) in [(0usize, 63usize), (7, 56), (10, 10), (3, 32)] {
            let p = route_path(RoutingKind::XY, &t, RouterId(a), RouterId(b));
            let dist = t.coord(RouterId(a)).manhattan(t.coord(RouterId(b)));
            assert_eq!(p.len() as u32, dist + 1);
        }
    }

    #[test]
    fn x_is_corrected_before_y() {
        let t = Topology::uniform_mesh(4, 4).unwrap();
        let src = t.router_at(Coord::new(0, 0));
        let dst = t.router_at(Coord::new(2, 3));
        let path = route_path(RoutingKind::XY, &t, src, dst);
        // First two hops go east, then three go south.
        let coords: Vec<_> = path.iter().map(|&r| t.coord(r)).collect();
        assert_eq!(coords[0], Coord::new(0, 0));
        assert_eq!(coords[1], Coord::new(1, 0));
        assert_eq!(coords[2], Coord::new(2, 0));
        assert_eq!(coords[3], Coord::new(2, 1));
        assert_eq!(coords.last().copied(), Some(Coord::new(2, 3)));
    }

    #[test]
    fn eject_uses_requested_slot() {
        let t = Topology::mesh(2, 2, 2).unwrap();
        assert_eq!(route_xy(&t, RouterId(3), RouterId(3), 1), RouteStep::Eject(1));
    }
}

/// Deadlock-free *west-first* adaptive routing (turn model).
///
/// If the destination lies to the west, the packet must finish all its
/// westward hops first (the only allowed turns into West are at the
/// source); otherwise any minimal direction among {East, North, South} may
/// be chosen, and this function picks the one the caller's congestion
/// estimate likes best (lower is better). Forbidding the four turns into
/// West breaks all cycles, so the scheme is deadlock-free on a mesh while
/// letting packets steer around congestion.
pub fn route_west_first<F>(
    topo: &Topology,
    here: RouterId,
    dst_router: RouterId,
    dst_slot: u8,
    congestion: F,
) -> RouteStep
where
    F: Fn(PortDir) -> u32,
{
    let c = topo.coord(here);
    let d = topo.coord(dst_router);
    if c == d {
        return RouteStep::Eject(dst_slot);
    }
    if d.x < c.x {
        // Westward traffic is non-adaptive: go west first.
        return RouteStep::Forward(PortDir::West);
    }
    // Minimal productive directions (never West here).
    let mut options: Vec<PortDir> = Vec::with_capacity(3);
    if d.x > c.x {
        options.push(PortDir::East);
    }
    if d.y < c.y {
        options.push(PortDir::North);
    }
    if d.y > c.y {
        options.push(PortDir::South);
    }
    let best = options
        .into_iter()
        .min_by_key(|&dir| (congestion(dir), topo.port_index(dir)))
        .expect("not at destination, so at least one productive direction");
    RouteStep::Forward(best)
}

/// Dimension-order routing with wraparound on a torus: the column is
/// corrected first, the short way around its ring (East on ties), then the
/// row (South on ties), then the packet ejects. Deterministic and minimal
/// on a torus; on a ring (one-row torus) it degenerates to
/// [`route_ring`].
///
/// ```
/// use noc_sim::{Topology, RouterId, route_torus, RouteStep, PortDir};
/// let t = Topology::uniform_torus(4, 4).unwrap();
/// // (0,0) → (3,0): one wrap hop West beats three hops East.
/// assert_eq!(route_torus(&t, RouterId(0), RouterId(3), 0), RouteStep::Forward(PortDir::West));
/// ```
pub fn route_torus(topo: &Topology, here: RouterId, dst_router: RouterId, dst_slot: u8) -> RouteStep {
    let c = topo.coord(here);
    let d = topo.coord(dst_router);
    if c.x != d.x {
        let w = topo.width();
        // Hops if we keep going East (wrapping); West costs w - fwd.
        let fwd = (d.x + w - c.x) % w;
        if u32::from(fwd) * 2 <= u32::from(w) {
            RouteStep::Forward(PortDir::East)
        } else {
            RouteStep::Forward(PortDir::West)
        }
    } else if c.y != d.y {
        let h = topo.height();
        let fwd = (d.y + h - c.y) % h;
        if u32::from(fwd) * 2 <= u32::from(h) {
            RouteStep::Forward(PortDir::South)
        } else {
            RouteStep::Forward(PortDir::North)
        }
    } else {
        RouteStep::Eject(dst_slot)
    }
}

/// Shortest-way-around traversal on a ring: West or East, whichever side
/// is shorter (East on ties), then eject.
pub fn route_ring(topo: &Topology, here: RouterId, dst_router: RouterId, dst_slot: u8) -> RouteStep {
    let c = topo.coord(here);
    let d = topo.coord(dst_router);
    if c.x == d.x {
        return RouteStep::Eject(dst_slot);
    }
    let n = topo.width();
    let fwd = (d.x + n - c.x) % n;
    if u32::from(fwd) * 2 <= u32::from(n) {
        RouteStep::Forward(PortDir::East)
    } else {
        RouteStep::Forward(PortDir::West)
    }
}

/// Table-driven shortest-path routing: follows the topology's precomputed
/// next-hop table ([`Topology::next_hop_port`]). Deterministic on any
/// connected graph — the routing function for degraded topologies.
pub fn route_table(topo: &Topology, here: RouterId, dst_router: RouterId, dst_slot: u8) -> RouteStep {
    match topo.next_hop_port(here, dst_router) {
        Some(port) => RouteStep::Forward(topo.port_dir(port)),
        None => RouteStep::Eject(dst_slot),
    }
}

/// Dispatches one routing decision for a deterministic [`RoutingKind`].
///
/// # Panics
///
/// Panics on [`RoutingKind::WestFirstAdaptive`] — adaptive routing needs a
/// congestion estimate; call [`route_west_first`] directly.
pub fn route_deterministic(
    kind: RoutingKind,
    topo: &Topology,
    here: RouterId,
    dst_router: RouterId,
    dst_slot: u8,
) -> RouteStep {
    match kind {
        RoutingKind::XY => route_xy(topo, here, dst_router, dst_slot),
        RoutingKind::TorusDimOrder => route_torus(topo, here, dst_router, dst_slot),
        RoutingKind::RingShortest => route_ring(topo, here, dst_router, dst_slot),
        RoutingKind::TableShortest => route_table(topo, here, dst_router, dst_slot),
        RoutingKind::WestFirstAdaptive => {
            panic!("adaptive routing needs a congestion estimate; use route_west_first")
        }
    }
}

/// Walks the full path a deterministic routing kind takes between two
/// routers, returning every router visited including both endpoints.
/// Useful for tests and analysis.
///
/// # Panics
///
/// Panics on [`RoutingKind::WestFirstAdaptive`], on a routing/topology
/// mismatch that steps through a disconnected port, and on a routing loop.
pub fn route_path(kind: RoutingKind, topo: &Topology, src: RouterId, dst: RouterId) -> Vec<RouterId> {
    let mut path = vec![src];
    let mut here = src;
    while here != dst {
        match route_deterministic(kind, topo, here, dst, 0) {
            RouteStep::Forward(dir) => {
                here = topo
                    .neighbor(here, dir)
                    .expect("deterministic routing stepped through a disconnected port");
                assert!(path.len() <= topo.num_routers(), "routing loop");
                path.push(here);
            }
            RouteStep::Eject(_) => unreachable!("eject before reaching destination"),
        }
    }
    path
}

#[cfg(test)]
mod graph_routing_tests {
    use super::*;
    use crate::types::Coord;

    /// Golden path: torus dimension-order corrects x the short way around
    /// (with a wrap hop), then y.
    #[test]
    fn torus_path_wraps_the_short_way() {
        let t = Topology::uniform_torus(4, 4).unwrap();
        let src = t.router_at(Coord::new(0, 0));
        let dst = t.router_at(Coord::new(3, 3));
        let path = route_path(RoutingKind::TorusDimOrder, &t, src, dst);
        let coords: Vec<_> = path.iter().map(|&r| t.coord(r)).collect();
        // One wrap hop West to x=3, then one wrap hop North to y=3.
        assert_eq!(
            coords,
            vec![Coord::new(0, 0), Coord::new(3, 0), Coord::new(3, 3)]
        );
    }

    /// Golden path: the exact-half tie goes East (x) and South (y).
    #[test]
    fn torus_tie_breaks_east_then_south() {
        let t = Topology::uniform_torus(4, 4).unwrap();
        let src = t.router_at(Coord::new(0, 0));
        let dst = t.router_at(Coord::new(2, 2));
        let path = route_path(RoutingKind::TorusDimOrder, &t, src, dst);
        let coords: Vec<_> = path.iter().map(|&r| t.coord(r)).collect();
        assert_eq!(
            coords,
            vec![
                Coord::new(0, 0),
                Coord::new(1, 0),
                Coord::new(2, 0),
                Coord::new(2, 1),
                Coord::new(2, 2)
            ]
        );
    }

    /// Torus paths are minimal: path length equals the graph hop distance.
    #[test]
    fn torus_paths_are_minimal() {
        let t = Topology::uniform_torus(4, 3).unwrap();
        for a in 0..t.num_routers() {
            for b in 0..t.num_routers() {
                let p = route_path(RoutingKind::TorusDimOrder, &t, RouterId(a), RouterId(b));
                assert_eq!(p.len() as u32 - 1, t.hop_distance(RouterId(a), RouterId(b)));
            }
        }
    }

    /// Golden path: ring traversal takes the short side and wraps.
    #[test]
    fn ring_path_takes_the_short_side() {
        let t = Topology::uniform_ring(6).unwrap();
        // 0 → 5 is one hop West (wrap), not five hops East.
        assert_eq!(
            route_path(RoutingKind::RingShortest, &t, RouterId(0), RouterId(5)),
            vec![RouterId(0), RouterId(5)]
        );
        // The exact-half tie (0 → 3) goes East.
        assert_eq!(
            route_path(RoutingKind::RingShortest, &t, RouterId(0), RouterId(3)),
            vec![RouterId(0), RouterId(1), RouterId(2), RouterId(3)]
        );
    }

    /// Table routing follows shortest paths on every topology kind, and on
    /// a degraded mesh routes around the holes.
    #[test]
    fn table_paths_are_shortest_on_every_kind() {
        for t in [
            Topology::uniform_mesh(4, 4).unwrap(),
            Topology::uniform_torus(4, 4).unwrap(),
            Topology::uniform_ring(7).unwrap(),
            Topology::uniform_degraded_mesh(4, 4, 5, 0.25).unwrap(),
        ] {
            for a in 0..t.num_routers() {
                for b in 0..t.num_routers() {
                    let p = route_path(RoutingKind::TableShortest, &t, RouterId(a), RouterId(b));
                    assert_eq!(
                        p.len() as u32 - 1,
                        t.hop_distance(RouterId(a), RouterId(b)),
                        "{} {a}->{b}",
                        t.kind().as_str()
                    );
                }
            }
        }
    }

    /// Golden path: table routing detours around a removed link.
    #[test]
    fn table_path_routes_around_a_hole() {
        let t = Topology::degraded(3, 1, 1, &[(RouterId(0), PortDir::East)]).unwrap_err();
        // A 3×1 line minus its first link disconnects — build 2×2 instead.
        assert_eq!(t, crate::error::ConfigError::DisconnectedTopology);
        let t = Topology::degraded(2, 2, 1, &[(RouterId(0), PortDir::East)]).unwrap();
        assert_eq!(
            route_path(RoutingKind::TableShortest, &t, RouterId(0), RouterId(1)),
            vec![RouterId(0), RouterId(2), RouterId(3), RouterId(1)]
        );
    }

    /// On a torus, X-Y routing still works (it never uses the wrap links),
    /// and dimension-order on a ring equals ring traversal.
    #[test]
    fn cross_kind_compatibility() {
        let torus = Topology::uniform_torus(4, 4).unwrap();
        let p = route_path(RoutingKind::XY, &torus, RouterId(0), RouterId(15));
        assert_eq!(p.len() as u32 - 1, 6); // Manhattan, ignoring wraps
        let ring = Topology::uniform_ring(6).unwrap();
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(
                    route_path(RoutingKind::TorusDimOrder, &ring, RouterId(a), RouterId(b)),
                    route_path(RoutingKind::RingShortest, &ring, RouterId(a), RouterId(b)),
                );
            }
        }
    }
}

#[cfg(test)]
mod west_first_tests {
    use super::*;
    use crate::types::Coord;

    fn uncongested(_: PortDir) -> u32 {
        0
    }

    #[test]
    fn westward_destinations_route_west_first() {
        let t = Topology::uniform_mesh(6, 6).unwrap();
        let here = t.router_at(Coord::new(4, 2));
        let dst = t.router_at(Coord::new(1, 5));
        assert_eq!(
            route_west_first(&t, here, dst, 0, uncongested),
            RouteStep::Forward(PortDir::West)
        );
    }

    #[test]
    fn adaptive_choice_follows_congestion() {
        let t = Topology::uniform_mesh(6, 6).unwrap();
        let here = t.router_at(Coord::new(1, 1));
        let dst = t.router_at(Coord::new(4, 4)); // east and south both minimal
        let prefer_south =
            |dir: PortDir| if dir == PortDir::South { 0 } else { 9 };
        let prefer_east = |dir: PortDir| if dir == PortDir::East { 0 } else { 9 };
        assert_eq!(
            route_west_first(&t, here, dst, 0, prefer_south),
            RouteStep::Forward(PortDir::South)
        );
        assert_eq!(
            route_west_first(&t, here, dst, 0, prefer_east),
            RouteStep::Forward(PortDir::East)
        );
    }

    #[test]
    fn always_minimal_and_terminates() {
        let t = Topology::uniform_mesh(8, 8).unwrap();
        for (a, b) in [(0usize, 63usize), (63, 0), (7, 56), (20, 20), (5, 40)] {
            let (src, dst) = (RouterId(a), RouterId(b));
            let mut here = src;
            let mut hops = 0;
            loop {
                match route_west_first(&t, here, dst, 0, |_| 1) {
                    RouteStep::Eject(_) => break,
                    RouteStep::Forward(dir) => {
                        here = t.neighbor(here, dir).expect("stays on mesh");
                        hops += 1;
                        assert!(hops <= 64, "routing loop");
                    }
                }
            }
            assert_eq!(hops, t.coord(src).manhattan(t.coord(dst)));
        }
    }

    #[test]
    fn no_turn_into_west_after_leaving_source_column() {
        // Once a west-first route makes a non-West move, it never moves
        // West again (the turn-model invariant).
        let t = Topology::uniform_mesh(8, 8).unwrap();
        for (a, b) in [(3usize, 32usize), (60, 5), (10, 17), (56, 7)] {
            let (src, dst) = (RouterId(a), RouterId(b));
            let mut here = src;
            let mut seen_non_west = false;
            loop {
                match route_west_first(&t, here, dst, 0, |_| 0) {
                    RouteStep::Eject(_) => break,
                    RouteStep::Forward(dir) => {
                        if dir == PortDir::West {
                            assert!(!seen_non_west, "illegal turn into West");
                        } else {
                            seen_non_west = true;
                        }
                        here = t.neighbor(here, dir).unwrap();
                    }
                }
            }
        }
    }
}

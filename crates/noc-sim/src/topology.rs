//! Router-graph topologies: mesh, torus, ring, and degraded graphs.
//!
//! Every topology is an explicit adjacency table over a shared per-router
//! port layout — `num_locals` local (injection/ejection) ports followed by
//! the four directional ports North, South, West, East — so agents can use
//! one fixed-width state encoding across the whole fabric (paper §4.4).
//! Routers whose directional port has no link (mesh edges, degraded-graph
//! holes) simply have a disconnected port; torus routers use all four.
//!
//! Link counts ([`Topology::num_links`]) and hop distances
//! ([`Topology::hop_distance`]) are derived from the graph by enumeration
//! and breadth-first search, not from mesh formulas, so they are correct
//! on every [`TopologyKind`]. A per-destination next-hop table
//! ([`Topology::next_hop_port`]) backs table-driven shortest-path routing
//! on arbitrary (e.g. degraded) graphs.

use std::collections::VecDeque;

use crate::error::ConfigError;
use crate::rng::SplitMix64;
use crate::types::{Coord, DestType, NodeId, PortDir, RouterId};

/// Directional ports per router (N, S, W, E).
const NUM_DIRS: usize = 4;

/// The four directional ports in port-layout order.
#[cfg(test)]
const DIRS: [PortDir; NUM_DIRS] = [PortDir::North, PortDir::South, PortDir::West, PortDir::East];

/// Index of a directional port within the N, S, W, E layout order
/// (None for local ports).
fn dir_index(dir: PortDir) -> Option<usize> {
    match dir {
        PortDir::Local(_) => None,
        PortDir::North => Some(0),
        PortDir::South => Some(1),
        PortDir::West => Some(2),
        PortDir::East => Some(3),
    }
}

/// The family a [`Topology`] belongs to. Routing functions are validated
/// against this (see [`crate::RoutingKind::supports`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// 2-D mesh: edge routers have disconnected directional ports.
    Mesh,
    /// 2-D torus: every row and column wraps around, all ports connected.
    Torus,
    /// 1-D ring: East/West wrap around, North/South disconnected.
    Ring,
    /// A mesh with links removed (still connected — enforced at build).
    Degraded,
}

impl TopologyKind {
    /// Stable lowercase name used in labels and error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Ring => "ring",
            TopologyKind::Degraded => "degraded",
        }
    }
}

/// A node (endpoint) attached to a router's local port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node's identifier (its index in [`Topology::nodes`]).
    pub id: NodeId,
    /// Router the node hangs off.
    pub router: RouterId,
    /// Which local port of that router connects to the node.
    pub slot: u8,
    /// Destination class advertised in packets addressed to this node.
    pub dest_type: DestType,
}

/// A graph of routers with a fixed number of local (injection/ejection)
/// ports per router and a set of nodes attached to those ports.
///
/// Routers are addressed row-major over a `width`×`height` coordinate
/// grid (a ring is a 1-row grid). The wiring between directional ports is
/// the adjacency table built by the constructor — [`Topology::mesh`],
/// [`Topology::torus`], [`Topology::ring`], or [`Topology::degraded`].
///
/// ```
/// use noc_sim::{Topology, TopologyKind};
/// let topo = Topology::uniform_mesh(4, 4).unwrap();
/// assert_eq!(topo.kind(), TopologyKind::Mesh);
/// assert_eq!(topo.num_routers(), 16);
/// assert_eq!(topo.num_nodes(), 16);
/// assert_eq!(topo.ports_per_router(), 5); // 1 local + N,S,W,E
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    width: u16,
    height: u16,
    num_locals: usize,
    nodes: Vec<Node>,
    /// `attachment[router][slot]` = node attached there, if any.
    attachment: Vec<Vec<Option<NodeId>>>,
    /// `adj[router * 4 + dir]` = neighbor through that directional port.
    adj: Vec<Option<RouterId>>,
    /// Unidirectional router-to-router links (count of `Some` in `adj`).
    num_links: usize,
    /// All-pairs hop distances, row-major `num_routers × num_routers`.
    dist: Vec<u16>,
    /// `next_hop[src * V + dst]` = directional index (0–3) of the first
    /// hop on a shortest path, or `u8::MAX` when `src == dst`.
    next_hop: Vec<u8>,
}

/// Builds the adjacency table of a `width`×`height` grid, optionally
/// wrapping around in either dimension.
fn grid_adjacency(width: u16, height: u16, wrap_x: bool, wrap_y: bool) -> Vec<Option<RouterId>> {
    let w = width as usize;
    let h = height as usize;
    let at = |x: usize, y: usize| RouterId(y * w + x);
    let mut adj = vec![None; w * h * NUM_DIRS];
    for y in 0..h {
        for x in 0..w {
            let base = (y * w + x) * NUM_DIRS;
            // North (0): y - 1.
            adj[base] = if y > 0 {
                Some(at(x, y - 1))
            } else if wrap_y {
                Some(at(x, h - 1))
            } else {
                None
            };
            // South (1): y + 1.
            adj[base + 1] = if y + 1 < h {
                Some(at(x, y + 1))
            } else if wrap_y {
                Some(at(x, 0))
            } else {
                None
            };
            // West (2): x - 1.
            adj[base + 2] = if x > 0 {
                Some(at(x - 1, y))
            } else if wrap_x {
                Some(at(w - 1, y))
            } else {
                None
            };
            // East (3): x + 1.
            adj[base + 3] = if x + 1 < w {
                Some(at(x + 1, y))
            } else if wrap_x {
                Some(at(0, y))
            } else {
                None
            };
        }
    }
    adj
}

/// True when every router is reachable from router 0 over `adj`.
fn is_connected(adj: &[Option<RouterId>], num_routers: usize) -> bool {
    if num_routers == 0 {
        return false;
    }
    let mut seen = vec![false; num_routers];
    let mut queue = VecDeque::from([0usize]);
    seen[0] = true;
    let mut reached = 1;
    while let Some(r) = queue.pop_front() {
        for d in 0..NUM_DIRS {
            if let Some(n) = adj[r * NUM_DIRS + d] {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    reached += 1;
                    queue.push_back(n.index());
                }
            }
        }
    }
    reached == num_routers
}

impl Topology {
    /// Creates an empty mesh with `num_locals` local ports per router and no
    /// nodes attached yet.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] for zero-sized meshes and
    /// [`ConfigError::NoLocalPorts`] when `num_locals == 0`.
    pub fn mesh(width: u16, height: u16, num_locals: usize) -> Result<Self, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        if num_locals == 0 {
            return Err(ConfigError::NoLocalPorts);
        }
        let adj = grid_adjacency(width, height, false, false);
        Topology::from_adjacency(TopologyKind::Mesh, width, height, num_locals, adj)
    }

    /// Creates a `width`×`height` torus: the mesh plus wraparound links in
    /// both dimensions, so every directional port is connected.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TopologyTooSmall`] when either dimension is
    /// below 2 (a 1-wide torus would self-loop) and
    /// [`ConfigError::NoLocalPorts`] when `num_locals == 0`.
    pub fn torus(width: u16, height: u16, num_locals: usize) -> Result<Self, ConfigError> {
        if width < 2 || height < 2 {
            return Err(ConfigError::TopologyTooSmall {
                kind: "torus",
                dim: width.min(height),
                min: 2,
            });
        }
        if num_locals == 0 {
            return Err(ConfigError::NoLocalPorts);
        }
        let adj = grid_adjacency(width, height, true, true);
        Topology::from_adjacency(TopologyKind::Torus, width, height, num_locals, adj)
    }

    /// Creates a ring of `n` routers: a 1-row grid whose East/West ports
    /// wrap around; North/South ports are disconnected.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TopologyTooSmall`] when `n < 3` and
    /// [`ConfigError::NoLocalPorts`] when `num_locals == 0`.
    pub fn ring(n: u16, num_locals: usize) -> Result<Self, ConfigError> {
        if n < 3 {
            return Err(ConfigError::TopologyTooSmall {
                kind: "ring",
                dim: n,
                min: 3,
            });
        }
        if num_locals == 0 {
            return Err(ConfigError::NoLocalPorts);
        }
        let adj = grid_adjacency(n, 1, true, false);
        Topology::from_adjacency(TopologyKind::Ring, n, 1, num_locals, adj)
    }

    /// Creates a degraded mesh: a `width`×`height` mesh with the listed
    /// links removed. Each `(router, dir)` entry removes the bidirectional
    /// link between `router` and its neighbor through `dir` (both
    /// directions at once).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoSuchLink`] when an entry names a local
    /// port, an edge port, or a link already removed, and
    /// [`ConfigError::DisconnectedTopology`] when the removals split the
    /// graph. Mesh-dimension errors are as for [`Topology::mesh`].
    pub fn degraded(
        width: u16,
        height: u16,
        num_locals: usize,
        removed: &[(RouterId, PortDir)],
    ) -> Result<Self, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        if num_locals == 0 {
            return Err(ConfigError::NoLocalPorts);
        }
        let mut adj = grid_adjacency(width, height, false, false);
        for &(router, dir) in removed {
            if router.index() >= width as usize * height as usize {
                return Err(ConfigError::RouterOutOfRange {
                    router: router.index(),
                    num_routers: width as usize * height as usize,
                });
            }
            let d = dir_index(dir).ok_or(ConfigError::NoSuchLink {
                router: router.index(),
            })?;
            let Some(nbr) = adj[router.index() * NUM_DIRS + d] else {
                return Err(ConfigError::NoSuchLink {
                    router: router.index(),
                });
            };
            let od = dir_index(dir.opposite().expect("directional port")).expect("directional");
            adj[router.index() * NUM_DIRS + d] = None;
            adj[nbr.index() * NUM_DIRS + od] = None;
        }
        Topology::from_adjacency(TopologyKind::Degraded, width, height, num_locals, adj)
    }

    /// Creates a degraded mesh by seeded random link removal: bidirectional
    /// mesh links are visited in a seeded shuffle and removed greedily —
    /// skipping any removal that would disconnect the graph — until
    /// `round(drop_fraction × bidirectional links)` are gone. Deterministic
    /// for a given `(width, height, seed, drop_fraction)`.
    ///
    /// # Errors
    ///
    /// Mesh-dimension errors as for [`Topology::mesh`].
    pub fn degraded_mesh(
        width: u16,
        height: u16,
        num_locals: usize,
        seed: u64,
        drop_fraction: f64,
    ) -> Result<Self, ConfigError> {
        if width == 0 || height == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        if num_locals == 0 {
            return Err(ConfigError::NoLocalPorts);
        }
        let mut adj = grid_adjacency(width, height, false, false);
        let v = width as usize * height as usize;
        // Every bidirectional link once: (router, South) and (router, East).
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for r in 0..v {
            for d in [1usize, 3] {
                if adj[r * NUM_DIRS + d].is_some() {
                    candidates.push((r, d));
                }
            }
        }
        let target = (drop_fraction.clamp(0.0, 1.0) * candidates.len() as f64).round() as usize;
        let mut rng = SplitMix64::new(seed ^ 0xDE6A_ADED_1111_0000);
        // Fisher–Yates shuffle, then greedy removal in shuffled order.
        for i in (1..candidates.len()).rev() {
            let j = rng.next_bounded(i as u64 + 1) as usize;
            candidates.swap(i, j);
        }
        let mut removed = 0;
        for &(r, d) in &candidates {
            if removed == target {
                break;
            }
            let nbr = adj[r * NUM_DIRS + d].expect("candidate link present");
            let od = match d {
                1 => 0, // South ↔ North
                3 => 2, // East ↔ West
                _ => unreachable!("candidates are South/East only"),
            };
            adj[r * NUM_DIRS + d] = None;
            adj[nbr.index() * NUM_DIRS + od] = None;
            if is_connected(&adj, v) {
                removed += 1;
            } else {
                adj[r * NUM_DIRS + d] = Some(nbr);
                adj[nbr.index() * NUM_DIRS + od] = Some(RouterId(r));
            }
        }
        Topology::from_adjacency(TopologyKind::Degraded, width, height, num_locals, adj)
    }

    /// Finishes construction from an adjacency table: counts links, runs
    /// all-pairs BFS for the distance and next-hop tables, and rejects
    /// disconnected graphs.
    fn from_adjacency(
        kind: TopologyKind,
        width: u16,
        height: u16,
        num_locals: usize,
        adj: Vec<Option<RouterId>>,
    ) -> Result<Self, ConfigError> {
        let v = width as usize * height as usize;
        let num_links = adj.iter().filter(|l| l.is_some()).count();
        let mut dist = vec![u16::MAX; v * v];
        let mut queue = VecDeque::new();
        for src in 0..v {
            let row = src * v;
            dist[row + src] = 0;
            queue.clear();
            queue.push_back(src);
            while let Some(r) = queue.pop_front() {
                for d in 0..NUM_DIRS {
                    if let Some(n) = adj[r * NUM_DIRS + d] {
                        if dist[row + n.index()] == u16::MAX {
                            dist[row + n.index()] = dist[row + r] + 1;
                            queue.push_back(n.index());
                        }
                    }
                }
            }
            if dist[row..row + v].contains(&u16::MAX) {
                return Err(ConfigError::DisconnectedTopology);
            }
        }
        // First hop of a shortest path, preferring the lowest directional
        // port (N, S, W, E order) among the ties — deterministic.
        let mut next_hop = vec![u8::MAX; v * v];
        for src in 0..v {
            for dst in 0..v {
                if src == dst {
                    continue;
                }
                for d in 0..NUM_DIRS {
                    if let Some(n) = adj[src * NUM_DIRS + d] {
                        if dist[n.index() * v + dst] as u32 + 1 == dist[src * v + dst] as u32 {
                            next_hop[src * v + dst] = d as u8;
                            break;
                        }
                    }
                }
            }
        }
        Ok(Topology {
            kind,
            width,
            height,
            num_locals,
            nodes: Vec::new(),
            attachment: vec![vec![None; num_locals]; v],
            adj,
            num_links,
            dist,
            next_hop,
        })
    }

    /// Creates a `width`×`height` mesh with exactly one node per router
    /// (slot 0, [`DestType::Core`]) — the configuration of the paper's
    /// synthetic-traffic study (§3.2).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] for zero-sized meshes.
    pub fn uniform_mesh(width: u16, height: u16) -> Result<Self, ConfigError> {
        let mut topo = Topology::mesh(width, height, 1)?;
        topo.attach_uniform_cores()?;
        Ok(topo)
    }

    /// Creates a `width`×`height` torus with one [`DestType::Core`] node
    /// per router, mirroring [`Topology::uniform_mesh`].
    ///
    /// # Errors
    ///
    /// As for [`Topology::torus`].
    pub fn uniform_torus(width: u16, height: u16) -> Result<Self, ConfigError> {
        let mut topo = Topology::torus(width, height, 1)?;
        topo.attach_uniform_cores()?;
        Ok(topo)
    }

    /// Creates an `n`-router ring with one [`DestType::Core`] node per
    /// router, mirroring [`Topology::uniform_mesh`].
    ///
    /// # Errors
    ///
    /// As for [`Topology::ring`].
    pub fn uniform_ring(n: u16) -> Result<Self, ConfigError> {
        let mut topo = Topology::ring(n, 1)?;
        topo.attach_uniform_cores()?;
        Ok(topo)
    }

    /// Creates a seeded degraded `width`×`height` mesh (see
    /// [`Topology::degraded_mesh`]) with one [`DestType::Core`] node per
    /// router.
    ///
    /// # Errors
    ///
    /// As for [`Topology::degraded_mesh`].
    pub fn uniform_degraded_mesh(
        width: u16,
        height: u16,
        seed: u64,
        drop_fraction: f64,
    ) -> Result<Self, ConfigError> {
        let mut topo = Topology::degraded_mesh(width, height, 1, seed, drop_fraction)?;
        topo.attach_uniform_cores()?;
        Ok(topo)
    }

    /// Attaches one Core node to slot 0 of every router.
    fn attach_uniform_cores(&mut self) -> Result<(), ConfigError> {
        for r in 0..self.num_routers() {
            self.attach_node(RouterId(r), 0, DestType::Core)?;
        }
        Ok(())
    }

    /// Attaches a new node to `(router, slot)` and returns its id.
    ///
    /// # Errors
    ///
    /// Fails if the router or slot is out of range, or the attachment point
    /// is already occupied.
    pub fn attach_node(
        &mut self,
        router: RouterId,
        slot: u8,
        dest_type: DestType,
    ) -> Result<NodeId, ConfigError> {
        if router.index() >= self.num_routers() {
            return Err(ConfigError::RouterOutOfRange {
                router: router.index(),
                num_routers: self.num_routers(),
            });
        }
        if (slot as usize) >= self.num_locals {
            return Err(ConfigError::SlotOutOfRange {
                slot,
                num_locals: self.num_locals,
            });
        }
        if self.attachment[router.index()][slot as usize].is_some() {
            return Err(ConfigError::DuplicateAttachment {
                router: router.index(),
                slot,
            });
        }
        let id = NodeId(self.nodes.len());
        self.attachment[router.index()][slot as usize] = Some(id);
        self.nodes.push(Node {
            id,
            router,
            slot,
            dest_type,
        });
        Ok(id)
    }

    /// The family this topology belongs to.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Grid width (columns; ring length for a ring).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height (rows; 1 for a ring).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of routers in the graph.
    pub fn num_routers(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Number of attached nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Local ports per router.
    pub fn num_locals(&self) -> usize {
        self.num_locals
    }

    /// Total ports per router (locals + 4 directional ports). The port
    /// layout is shared by every router on every topology; disconnected
    /// directional ports (mesh edges, degraded holes) still occupy their
    /// index.
    pub fn ports_per_router(&self) -> usize {
        self.num_locals + NUM_DIRS
    }

    /// All attached nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The node attached at `(router, slot)`, if any.
    pub fn node_at(&self, router: RouterId, slot: u8) -> Option<NodeId> {
        self.attachment
            .get(router.index())
            .and_then(|slots| slots.get(slot as usize))
            .copied()
            .flatten()
    }

    /// Coordinate of a router.
    pub fn coord(&self, router: RouterId) -> Coord {
        let w = self.width as usize;
        Coord::new((router.index() % w) as u16, (router.index() / w) as u16)
    }

    /// Router at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn router_at(&self, c: Coord) -> RouterId {
        assert!(c.x < self.width && c.y < self.height, "coordinate outside mesh");
        RouterId(c.y as usize * self.width as usize + c.x as usize)
    }

    /// Port index of a direction within the shared layout.
    pub fn port_index(&self, dir: PortDir) -> usize {
        match dir {
            PortDir::Local(k) => {
                assert!((k as usize) < self.num_locals, "local slot out of range");
                k as usize
            }
            PortDir::North => self.num_locals,
            PortDir::South => self.num_locals + 1,
            PortDir::West => self.num_locals + 2,
            PortDir::East => self.num_locals + 3,
        }
    }

    /// Direction of a port index within the shared layout.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn port_dir(&self, port: usize) -> PortDir {
        if port < self.num_locals {
            PortDir::Local(port as u8)
        } else {
            match port - self.num_locals {
                0 => PortDir::North,
                1 => PortDir::South,
                2 => PortDir::West,
                3 => PortDir::East,
                _ => panic!("port index {port} out of range"),
            }
        }
    }

    /// Neighbor router through a directional port, or `None` when the port
    /// is disconnected (or local). Reads the adjacency table, so wraparound
    /// and degraded links are answered correctly.
    pub fn neighbor(&self, router: RouterId, dir: PortDir) -> Option<RouterId> {
        let d = dir_index(dir)?;
        self.adj[router.index() * NUM_DIRS + d]
    }

    /// Number of unidirectional router-to-router links in the graph
    /// (excluding injection/ejection links) — the denominator of the
    /// link-utilization reward (paper §6.3). Counted from the adjacency
    /// table; on a mesh this equals `2·((w−1)·h + (h−1)·w)`.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Historical name for [`Topology::num_links`], kept for call sites
    /// that predate non-mesh topologies.
    pub fn num_mesh_links(&self) -> usize {
        self.num_links
    }

    /// Hop distance between two routers over the graph (BFS shortest
    /// path). On a mesh this equals the Manhattan distance.
    pub fn hop_distance(&self, a: RouterId, b: RouterId) -> u32 {
        self.dist[a.index() * self.num_routers() + b.index()] as u32
    }

    /// The graph diameter: the largest router-to-router hop distance.
    pub fn diameter(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0) as u32
    }

    /// The output *port index* of the first hop on a shortest path from
    /// `here` to `dst`, or `None` when `here == dst`. Ties prefer the
    /// lowest directional port (N, S, W, E), so the table is deterministic.
    pub fn next_hop_port(&self, here: RouterId, dst: RouterId) -> Option<usize> {
        let d = self.next_hop[here.index() * self.num_routers() + dst.index()];
        if d == u8::MAX {
            None
        } else {
            Some(self.num_locals + d as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mesh_attaches_one_node_per_router() {
        let t = Topology::uniform_mesh(3, 2).unwrap();
        assert_eq!(t.num_nodes(), 6);
        for r in 0..6 {
            let n = t.node_at(RouterId(r), 0).unwrap();
            assert_eq!(t.node(n).router, RouterId(r));
        }
    }

    #[test]
    fn coord_roundtrip() {
        let t = Topology::uniform_mesh(5, 3).unwrap();
        for r in 0..t.num_routers() {
            let c = t.coord(RouterId(r));
            assert_eq!(t.router_at(c), RouterId(r));
        }
    }

    #[test]
    fn neighbors_respect_edges() {
        let t = Topology::uniform_mesh(4, 4).unwrap();
        let corner = t.router_at(Coord::new(0, 0));
        assert_eq!(t.neighbor(corner, PortDir::North), None);
        assert_eq!(t.neighbor(corner, PortDir::West), None);
        assert_eq!(t.neighbor(corner, PortDir::East), Some(t.router_at(Coord::new(1, 0))));
        assert_eq!(t.neighbor(corner, PortDir::South), Some(t.router_at(Coord::new(0, 1))));
        assert_eq!(t.neighbor(corner, PortDir::Local(0)), None);
    }

    #[test]
    fn neighbor_links_are_mutual() {
        for t in [
            Topology::uniform_mesh(4, 4).unwrap(),
            Topology::uniform_torus(4, 4).unwrap(),
            Topology::uniform_ring(7).unwrap(),
            Topology::uniform_degraded_mesh(4, 4, 9, 0.25).unwrap(),
        ] {
            for r in 0..t.num_routers() {
                for d in DIRS {
                    if let Some(n) = t.neighbor(RouterId(r), d) {
                        assert_eq!(
                            t.neighbor(n, d.opposite().unwrap()),
                            Some(RouterId(r)),
                            "{}: {r} -> {n} via {d:?}",
                            t.kind().as_str()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn torus_wraps_around_both_dimensions() {
        let t = Topology::uniform_torus(4, 3).unwrap();
        let origin = t.router_at(Coord::new(0, 0));
        assert_eq!(t.neighbor(origin, PortDir::West), Some(t.router_at(Coord::new(3, 0))));
        assert_eq!(t.neighbor(origin, PortDir::North), Some(t.router_at(Coord::new(0, 2))));
        let far = t.router_at(Coord::new(3, 2));
        assert_eq!(t.neighbor(far, PortDir::East), Some(t.router_at(Coord::new(0, 2))));
        assert_eq!(t.neighbor(far, PortDir::South), Some(t.router_at(Coord::new(3, 0))));
    }

    #[test]
    fn ring_wraps_east_west_only() {
        let t = Topology::uniform_ring(5).unwrap();
        let first = RouterId(0);
        let last = RouterId(4);
        assert_eq!(t.neighbor(first, PortDir::West), Some(last));
        assert_eq!(t.neighbor(last, PortDir::East), Some(first));
        assert_eq!(t.neighbor(first, PortDir::North), None);
        assert_eq!(t.neighbor(first, PortDir::South), None);
    }

    #[test]
    fn port_index_roundtrip() {
        let t = Topology::mesh(2, 2, 2).unwrap();
        for p in 0..t.ports_per_router() {
            assert_eq!(t.port_index(t.port_dir(p)), p);
        }
    }

    #[test]
    fn duplicate_attachment_rejected() {
        let mut t = Topology::mesh(2, 2, 1).unwrap();
        t.attach_node(RouterId(0), 0, DestType::Core).unwrap();
        let err = t.attach_node(RouterId(0), 0, DestType::Cache).unwrap_err();
        assert_eq!(err, ConfigError::DuplicateAttachment { router: 0, slot: 0 });
    }

    #[test]
    fn out_of_range_attachments_rejected() {
        let mut t = Topology::mesh(2, 2, 1).unwrap();
        assert!(matches!(
            t.attach_node(RouterId(99), 0, DestType::Core),
            Err(ConfigError::RouterOutOfRange { .. })
        ));
        assert!(matches!(
            t.attach_node(RouterId(0), 4, DestType::Core),
            Err(ConfigError::SlotOutOfRange { .. })
        ));
    }

    /// Link counts are derived from the graph; enumeration must agree on
    /// every topology kind, and on the mesh with the closed form.
    #[test]
    fn link_count_matches_enumeration() {
        let count = |t: &Topology| -> usize {
            (0..t.num_routers())
                .map(|r| DIRS.iter().filter(|&&d| t.neighbor(RouterId(r), d).is_some()).count())
                .sum()
        };
        let mesh = Topology::uniform_mesh(4, 4).unwrap();
        assert_eq!(count(&mesh), mesh.num_links());
        assert_eq!(mesh.num_links(), 2 * ((4 - 1) * 4 + (4 - 1) * 4)); // closed form
        assert_eq!(mesh.num_links(), mesh.num_mesh_links());

        let torus = Topology::uniform_torus(4, 4).unwrap();
        assert_eq!(count(&torus), torus.num_links());
        assert_eq!(torus.num_links(), 4 * 4 * 4); // every port connected

        let ring = Topology::uniform_ring(9).unwrap();
        assert_eq!(count(&ring), ring.num_links());
        assert_eq!(ring.num_links(), 2 * 9);

        let degraded = Topology::uniform_degraded_mesh(4, 4, 3, 0.25).unwrap();
        assert_eq!(count(&degraded), degraded.num_links());
        assert!(degraded.num_links() < mesh.num_links());
    }

    /// Graph hop distance equals the Manhattan distance on a mesh — the
    /// guarantee that lets the simulator use `hop_distance` everywhere
    /// without perturbing mesh results.
    #[test]
    fn mesh_hop_distance_equals_manhattan() {
        let t = Topology::uniform_mesh(5, 4).unwrap();
        for a in 0..t.num_routers() {
            for b in 0..t.num_routers() {
                assert_eq!(
                    t.hop_distance(RouterId(a), RouterId(b)),
                    t.coord(RouterId(a)).manhattan(t.coord(RouterId(b))),
                    "routers {a} and {b}"
                );
            }
        }
        assert_eq!(t.diameter(), 4 + 3);
    }

    #[test]
    fn torus_distance_uses_wraparound() {
        let t = Topology::uniform_torus(4, 4).unwrap();
        let a = t.router_at(Coord::new(0, 0));
        let b = t.router_at(Coord::new(3, 3));
        // One wrap hop West + one wrap hop North, not 3 + 3.
        assert_eq!(t.hop_distance(a, b), 2);
        assert_eq!(t.diameter(), 4); // 2 + 2 on a 4×4 torus
    }

    #[test]
    fn ring_distance_takes_the_short_way() {
        let t = Topology::uniform_ring(6).unwrap();
        assert_eq!(t.hop_distance(RouterId(0), RouterId(5)), 1);
        assert_eq!(t.hop_distance(RouterId(0), RouterId(3)), 3);
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn next_hop_walk_reaches_destination_in_distance_steps() {
        for t in [
            Topology::uniform_mesh(4, 4).unwrap(),
            Topology::uniform_torus(4, 4).unwrap(),
            Topology::uniform_ring(7).unwrap(),
            Topology::uniform_degraded_mesh(4, 4, 11, 0.3).unwrap(),
        ] {
            for a in 0..t.num_routers() {
                for b in 0..t.num_routers() {
                    let (src, dst) = (RouterId(a), RouterId(b));
                    let mut here = src;
                    let mut hops = 0;
                    while let Some(port) = t.next_hop_port(here, dst) {
                        here = t.neighbor(here, t.port_dir(port)).expect("table follows links");
                        hops += 1;
                        assert!(hops <= t.num_routers() as u32, "routing loop");
                    }
                    assert_eq!(here, dst);
                    assert_eq!(hops, t.hop_distance(src, dst), "{} {a}->{b}", t.kind().as_str());
                }
            }
        }
    }

    #[test]
    fn degraded_removal_is_applied_and_validated() {
        // Removing (0, East) leaves a connected 2×2 graph with 6 links.
        let t = Topology::degraded(2, 2, 1, &[(RouterId(0), PortDir::East)]).unwrap();
        assert_eq!(t.kind(), TopologyKind::Degraded);
        assert_eq!(t.neighbor(RouterId(0), PortDir::East), None);
        assert_eq!(t.neighbor(RouterId(1), PortDir::West), None);
        assert_eq!(t.num_links(), 6);
        // Distances route around the hole.
        assert_eq!(t.hop_distance(RouterId(0), RouterId(1)), 3);

        // Removing a nonexistent link is an error.
        assert_eq!(
            Topology::degraded(2, 2, 1, &[(RouterId(0), PortDir::North)]).unwrap_err(),
            ConfigError::NoSuchLink { router: 0 }
        );
        // Disconnecting a router is an error.
        assert_eq!(
            Topology::degraded(
                2,
                2,
                1,
                &[(RouterId(0), PortDir::East), (RouterId(2), PortDir::East), (RouterId(2), PortDir::North)]
            )
            .unwrap_err(),
            ConfigError::DisconnectedTopology
        );
    }

    #[test]
    fn degraded_mesh_is_deterministic_and_connected() {
        let a = Topology::degraded_mesh(4, 4, 1, 42, 0.25).unwrap();
        let b = Topology::degraded_mesh(4, 4, 1, 42, 0.25).unwrap();
        for r in 0..a.num_routers() {
            for d in DIRS {
                assert_eq!(a.neighbor(RouterId(r), d), b.neighbor(RouterId(r), d));
            }
        }
        // 4×4 mesh has 24 bidirectional links; 25% → 6 removed → 36 left.
        assert_eq!(a.num_links(), 48 - 2 * 6);
        // A different seed gives a different (still connected) graph.
        let c = Topology::degraded_mesh(4, 4, 1, 43, 0.25).unwrap();
        assert_eq!(c.num_links(), a.num_links());
    }

    #[test]
    fn zero_sized_meshes_rejected() {
        assert_eq!(Topology::mesh(0, 4, 1).unwrap_err(), ConfigError::EmptyMesh);
        assert_eq!(Topology::mesh(4, 0, 1).unwrap_err(), ConfigError::EmptyMesh);
        assert_eq!(Topology::mesh(4, 4, 0).unwrap_err(), ConfigError::NoLocalPorts);
    }

    #[test]
    fn undersized_torus_and_ring_rejected() {
        assert!(matches!(
            Topology::torus(1, 4, 1).unwrap_err(),
            ConfigError::TopologyTooSmall { kind: "torus", .. }
        ));
        assert!(matches!(
            Topology::ring(2, 1).unwrap_err(),
            ConfigError::TopologyTooSmall { kind: "ring", .. }
        ));
        assert_eq!(Topology::torus(4, 4, 0).unwrap_err(), ConfigError::NoLocalPorts);
        assert_eq!(Topology::ring(4, 0).unwrap_err(), ConfigError::NoLocalPorts);
    }
}

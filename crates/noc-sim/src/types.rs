//! Fundamental identifier and enumeration types shared across the simulator.

use std::fmt;

/// Identifier of an endpoint attached to the network (a core, cache bank,
/// directory, …). Nodes are *not* routers: several nodes may share one router
/// through distinct local ports.
///
/// ```
/// use noc_sim::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a router in the topology. Grid-derived topologies (mesh,
/// torus, degraded mesh) lay routers out row-major: `id = y * width + x`; a
/// ring is a one-row grid, so `id` is the position around the ring.
///
/// ```
/// use noc_sim::RouterId;
/// assert_eq!(RouterId(5).index(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub usize);

impl RouterId {
    /// Returns the raw index of this router.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Integer coordinate of a router in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Coord {
    /// Column, increasing eastward.
    pub x: u16,
    /// Row, increasing southward.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from a column and a row.
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance between two coordinates — the number of hops an
    /// X-Y-routed packet takes between the two routers on a (non-wrapping)
    /// mesh. For the graph-aware hop count on any topology, use
    /// [`crate::Topology::hop_distance`].
    ///
    /// ```
    /// use noc_sim::Coord;
    /// assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 2)), 5);
    /// ```
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Logical direction of a router port.
///
/// A router owns `L` local ports (injection/ejection for the nodes that sit
/// on the router's tile) followed by the four mesh directions. All routers in
/// a given configuration share the same port layout so that learned agents
/// can use one fixed-width state encoding (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Port to/from the `k`-th node on this tile (0 = "core" slot,
    /// 1 = "memory" slot in the APU configuration).
    Local(u8),
    /// Toward decreasing `y`.
    North,
    /// Toward increasing `y`.
    South,
    /// Toward decreasing `x`.
    West,
    /// Toward increasing `x`.
    East,
}

impl PortDir {
    /// The opposite mesh direction; local ports have no opposite.
    ///
    /// ```
    /// use noc_sim::PortDir;
    /// assert_eq!(PortDir::North.opposite(), Some(PortDir::South));
    /// assert_eq!(PortDir::Local(0).opposite(), None);
    /// ```
    pub fn opposite(self) -> Option<PortDir> {
        match self {
            PortDir::North => Some(PortDir::South),
            PortDir::South => Some(PortDir::North),
            PortDir::West => Some(PortDir::East),
            PortDir::East => Some(PortDir::West),
            PortDir::Local(_) => None,
        }
    }

    /// True if this is an injection/ejection port.
    pub fn is_local(self) -> bool {
        matches!(self, PortDir::Local(_))
    }
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDir::Local(k) => write!(f, "L{k}"),
            PortDir::North => write!(f, "N"),
            PortDir::South => write!(f, "S"),
            PortDir::West => write!(f, "W"),
            PortDir::East => write!(f, "E"),
        }
    }
}

/// Coarse message type carried in every packet header (paper Table 2,
/// one-hot encoded when fed to the agent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MsgType {
    /// A request initiating a transaction (e.g. a cache-line read).
    #[default]
    Request,
    /// A response completing a transaction (usually carries data).
    Response,
    /// A coherence action (invalidation, probe, ack, …).
    Coherence,
}

impl MsgType {
    /// All message types in one-hot encoding order.
    pub const ALL: [MsgType; 3] = [MsgType::Request, MsgType::Response, MsgType::Coherence];

    /// One-hot index of the type (0 = request, 1 = response, 2 = coherence).
    pub fn one_hot_index(self) -> usize {
        match self {
            MsgType::Request => 0,
            MsgType::Response => 1,
            MsgType::Coherence => 2,
        }
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgType::Request => "req",
            MsgType::Response => "resp",
            MsgType::Coherence => "coh",
        };
        f.write_str(s)
    }
}

/// Coarse class of a packet's destination node (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DestType {
    /// A compute element (CPU core or GPU compute unit).
    #[default]
    Core,
    /// A cache bank (L1I, GPU L2, CPU LLC, …).
    Cache,
    /// A directory / memory controller.
    Memory,
}

impl DestType {
    /// All destination types in one-hot encoding order.
    pub const ALL: [DestType; 3] = [DestType::Core, DestType::Cache, DestType::Memory];

    /// One-hot index of the type (0 = core, 1 = cache, 2 = memory).
    pub fn one_hot_index(self) -> usize {
        match self {
            DestType::Core => 0,
            DestType::Cache => 1,
            DestType::Memory => 2,
        }
    }
}

impl fmt::Display for DestType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DestType::Core => "core",
            DestType::Cache => "cache",
            DestType::Memory => "memory",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric() {
        let a = Coord::new(1, 5);
        let b = Coord::new(4, 2);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn opposites_pair_up() {
        for d in [PortDir::North, PortDir::South, PortDir::West, PortDir::East] {
            assert_eq!(d.opposite().unwrap().opposite().unwrap(), d);
        }
        assert!(PortDir::Local(1).opposite().is_none());
    }

    #[test]
    fn one_hot_indices_are_distinct() {
        let m: Vec<usize> = MsgType::ALL.iter().map(|t| t.one_hot_index()).collect();
        assert_eq!(m, vec![0, 1, 2]);
        let d: Vec<usize> = DestType::ALL.iter().map(|t| t.one_hot_index()).collect();
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(RouterId(7).to_string(), "r7");
        assert_eq!(Coord::new(1, 2).to_string(), "(1,2)");
        assert_eq!(PortDir::Local(0).to_string(), "L0");
        assert_eq!(MsgType::Coherence.to_string(), "coh");
        assert_eq!(DestType::Memory.to_string(), "memory");
    }
}

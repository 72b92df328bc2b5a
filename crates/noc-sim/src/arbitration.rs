//! The arbitration interface: what a policy sees and what it must return.
//!
//! Every cycle, for every output port with two or more competing input
//! buffers, the simulator asks the installed [`Arbiter`] to pick a winner
//! (paper Algorithm 1). Output ports with exactly one requester are granted
//! directly without consulting the policy, matching §4.5 of the paper.

use crate::codec::Words;
use crate::types::{DestType, MsgType, NodeId, RouterId};

/// The message features visible to an arbitration policy (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Features {
    /// Size of the message in flits.
    pub payload_size: u32,
    /// Cycles spent waiting at the current router.
    pub local_age: u64,
    /// Hops from the message's source router to its destination router.
    pub distance: u32,
    /// Hops the message has traversed so far.
    pub hop_count: u32,
    /// Outstanding (injected, undelivered) messages from the message's
    /// source router.
    pub in_flight_from_src: u32,
    /// Cycles between the arrivals of the two most recent messages at the
    /// same buffer.
    pub inter_arrival: u64,
    /// Message type (one-hot encoded for the agent).
    pub msg_type: MsgType,
    /// Destination node type (one-hot encoded for the agent).
    pub dst_type: DestType,
}

/// One input buffer competing for an output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Input port the message waits at.
    pub in_port: usize,
    /// Virtual network / VC index within the input port.
    pub vnet: usize,
    /// Flattened buffer index `in_port * num_vnets + vnet` — the action
    /// slot in the agent's Q-value vector.
    pub slot: usize,
    /// Table-2 features of the head message.
    pub features: Features,
    /// Id of the head message.
    pub packet_id: u64,
    /// Cycle the head message was created (global-age basis).
    pub create_cycle: u64,
    /// Cycle the head message arrived at this router.
    pub arrival_cycle: u64,
    /// Source endpoint of the head message.
    pub src: NodeId,
    /// Destination endpoint of the head message.
    pub dst: NodeId,
    /// True when the output link this candidate is routed toward is
    /// currently degraded by an active fault (transient corruption or
    /// link-down; see [`crate::FaultPlan`]). Always `false` on a healthy
    /// mesh, so policies may branch on it without perturbing fault-free
    /// behaviour.
    pub port_degraded: bool,
}

/// Network-global statistics made available to arbiters and reward
/// functions (paper §6.3 uses these for the alternative rewards).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetSnapshot {
    /// Current simulation cycle.
    pub cycle: u64,
    /// Fraction of mesh links that carried a flit in the previous cycle.
    pub link_utilization_prev: f64,
    /// Average accumulated latency of messages delivered in the last
    /// reward period plus the current age of in-flight messages,
    /// refreshed every [`crate::SimConfig::reward_period`] cycles.
    pub avg_accumulated_latency: f64,
    /// Messages currently inside the network.
    pub in_flight_packets: usize,
}

/// The full arbitration picture at one router in one cycle: every free
/// output port together with the candidates requesting it.
///
/// Matching allocators (iSLIP, wavefront) need the whole request matrix at
/// once; per-output policies can ignore this and implement only
/// [`Arbiter::select`].
#[derive(Debug)]
pub struct RouterCtx<'a> {
    /// Router being arbitrated.
    pub router: RouterId,
    /// Current cycle.
    pub cycle: u64,
    /// Ports per router in this configuration.
    pub num_ports: usize,
    /// Virtual networks per port in this configuration.
    pub num_vnets: usize,
    /// `(output port, candidates requesting it)`, ascending by port. Only
    /// outputs that are free this cycle and have at least one candidate
    /// appear.
    pub outputs: &'a [(usize, Vec<Candidate>)],
    /// Network-global statistics.
    pub net: &'a NetSnapshot,
}

/// The context for a single output-port decision.
#[derive(Debug)]
pub struct OutputCtx<'a> {
    /// Router being arbitrated.
    pub router: RouterId,
    /// Output port being arbitrated.
    pub out_port: usize,
    /// Current cycle.
    pub cycle: u64,
    /// Ports per router in this configuration.
    pub num_ports: usize,
    /// Virtual networks per port in this configuration.
    pub num_vnets: usize,
    /// Buffers competing for this output. Always contains at least two
    /// entries when a policy is consulted; input ports already granted
    /// another output this cycle have been filtered out (Algorithm 1,
    /// constraint 2).
    pub candidates: &'a [Candidate],
    /// Network-global statistics.
    pub net: &'a NetSnapshot,
}

impl OutputCtx<'_> {
    /// Index of the candidate with the oldest global age (smallest creation
    /// cycle); ties broken by lowest packet id for determinism. This is the
    /// oracle the paper's global-age reward compares against.
    pub fn oldest_global_index(&self) -> usize {
        self.candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.create_cycle, c.packet_id))
            .map(|(i, _)| i)
            .expect("oldest_global_index on empty candidate list")
    }
}

/// An arbitration policy.
///
/// Implementations select, for each contended output port, which competing
/// input buffer to grant. The trait is object-safe: the simulator owns one
/// `Box<dyn Arbiter>` shared by all routers, mirroring the paper's single
/// shared agent (§3.1.1). Per-router state (round-robin pointers, learned
/// weights, …) must be keyed internally on `(router, out_port)`.
pub trait Arbiter {
    /// Human-readable policy name used in reports.
    fn name(&self) -> String;

    /// Chooses the winning candidate for one output port.
    ///
    /// Returns `Some(index)` into `ctx.candidates`, or `None` to leave the
    /// output idle this cycle (matching allocators may do this when their
    /// matching left the output unpaired).
    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize>;

    /// Called once per router per cycle *before* any [`Arbiter::select`]
    /// call for that router, with the request matrix restricted to
    /// *contended* outputs (two or more eligible candidates). Sole
    /// requesters are granted directly by the simulator (paper §4.5) and
    /// never appear here or in [`Arbiter::select`]. Matching allocators
    /// compute their matching here; the default does nothing.
    fn plan_router(&mut self, _ctx: &RouterCtx<'_>) {}

    /// Whether the policy reads the Table-2 feature vector (and the
    /// source/destination fields) of its candidates. Policies that order
    /// purely by age and id — e.g. global-age — return `false`, which lets
    /// the simulator skip materialising those fields on the hot path. The
    /// ordering keys (`create_cycle`, `packet_id`, `arrival_cycle`,
    /// `features.payload_size`, `features.local_age`) and the port/vnet
    /// coordinates are always populated.
    fn wants_features(&self) -> bool {
        true
    }

    /// Called at the end of every simulated cycle. Learning arbiters use
    /// this to run training steps; the default does nothing.
    fn end_cycle(&mut self, _net: &NetSnapshot) {}

    /// Serializes the policy's mutable decision state for a simulator
    /// checkpoint (see [`crate::SimCheckpoint`]).
    ///
    /// Returns `Some(state)`, written with [`crate::codec::Words`], that a
    /// later [`Arbiter::restore_state`] on a freshly constructed instance
    /// of the same policy accepts, or `None` when the policy cannot be
    /// checkpointed (e.g. a training agent whose state is not practically
    /// serializable). The default, `Some("")` (no words), is correct for
    /// *stateless* policies only; any arbiter with cross-cycle mutable
    /// state (pointers, RNGs, toggles) must override both methods or
    /// checkpointed runs will silently diverge from uninterrupted ones.
    fn checkpoint_state(&self) -> Option<String> {
        Some(String::new())
    }

    /// Restores state produced by [`Arbiter::checkpoint_state`] on an
    /// equally configured, freshly constructed policy, reading it with
    /// [`crate::codec::WordReader`]. Every in-tree policy parses the whole
    /// state before it assigns, so on `Err` it is unchanged. The default
    /// accepts only the stateless empty state.
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        Words::read(&self.name(), state).end()
    }
}

/// A grant produced by the simulator after arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Router where the grant happened.
    pub router: RouterId,
    /// Output port granted.
    pub out_port: usize,
    /// Winning input port.
    pub in_port: usize,
    /// Winning virtual network.
    pub vnet: usize,
    /// Id of the forwarded packet.
    pub packet_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DestType, MsgType, NodeId};

    fn cand(create_cycle: u64, id: u64) -> Candidate {
        Candidate {
            in_port: 0,
            vnet: 0,
            slot: 0,
            features: Features {
                payload_size: 1,
                local_age: 0,
                distance: 1,
                hop_count: 0,
                in_flight_from_src: 0,
                inter_arrival: 0,
                msg_type: MsgType::Request,
                dst_type: DestType::Core,
            },
            packet_id: id,
            create_cycle,
            arrival_cycle: 0,
            src: NodeId(0),
            dst: NodeId(1),
            port_degraded: false,
        }
    }

    #[test]
    fn oldest_global_prefers_earliest_creation() {
        let net = NetSnapshot::default();
        let cands = vec![cand(30, 1), cand(10, 2), cand(20, 3)];
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 50,
            num_ports: 5,
            num_vnets: 1,
            candidates: &cands,
            net: &net,
        };
        assert_eq!(ctx.oldest_global_index(), 1);
    }

    #[test]
    fn oldest_global_ties_break_by_packet_id() {
        let net = NetSnapshot::default();
        let cands = vec![cand(10, 9), cand(10, 2)];
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 50,
            num_ports: 5,
            num_vnets: 1,
            candidates: &cands,
            net: &net,
        };
        assert_eq!(ctx.oldest_global_index(), 1);
    }
}

//! Priority-computation policies and the select-max execution model.

use noc_sim::{Arbiter, Candidate, OutputCtx};

/// A policy expressed as a per-candidate priority computation — the
/// "P-block" of the paper's Fig. 8. The buffer with the highest priority
/// wins; ties go to the lowest buffer slot, matching a hardware
/// comparator-tree select-max circuit.
pub trait PriorityPolicy {
    /// Human-readable policy name.
    fn name(&self) -> String;

    /// Priority level of one candidate. Larger wins.
    fn priority(&self, candidate: &Candidate, ctx: &OutputCtx<'_>) -> u32;
}

/// Adapter executing a [`PriorityPolicy`] as a full [`Arbiter`], modeling
/// the priority-compute + select-max datapath of the paper's Fig. 8.
///
/// ```
/// use noc_arbiters::{MaxPriorityArbiter, PriorityPolicy};
/// use noc_sim::{Arbiter, Candidate, OutputCtx};
///
/// #[derive(Debug)]
/// struct LongestFirst;
/// impl PriorityPolicy for LongestFirst {
///     fn name(&self) -> String { "longest-first".into() }
///     fn priority(&self, c: &Candidate, _ctx: &OutputCtx<'_>) -> u32 {
///         c.features.payload_size
///     }
/// }
/// let arb = MaxPriorityArbiter::new(LongestFirst);
/// assert_eq!(arb.name(), "longest-first");
/// ```
#[derive(Debug, Clone)]
pub struct MaxPriorityArbiter<P> {
    policy: P,
}

impl<P: PriorityPolicy> MaxPriorityArbiter<P> {
    /// Wraps a priority policy.
    pub fn new(policy: P) -> Self {
        MaxPriorityArbiter { policy }
    }
}

impl<P: PriorityPolicy> Arbiter for MaxPriorityArbiter<P> {
    fn name(&self) -> String {
        self.policy.name()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        // Hardware select-max: scan in slot order, keep the first maximum.
        let mut best: Option<(usize, u32)> = None;
        for (i, c) in ctx.candidates.iter().enumerate() {
            let p = self.policy.priority(c, ctx);
            match best {
                Some((_, bp)) if bp >= p => {}
                _ => best = Some((i, p)),
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{DestType, Features, MsgType, NetSnapshot, NodeId, RouterId};

    #[derive(Debug)]
    struct ByHopCount;
    impl PriorityPolicy for ByHopCount {
        fn name(&self) -> String {
            "by-hops".into()
        }
        fn priority(&self, c: &Candidate, _ctx: &OutputCtx<'_>) -> u32 {
            c.features.hop_count
        }
    }

    fn cand(slot: usize, hops: u32) -> Candidate {
        Candidate {
            in_port: slot,
            vnet: 0,
            slot,
            features: Features {
                payload_size: 1,
                local_age: 0,
                distance: 4,
                hop_count: hops,
                in_flight_from_src: 0,
                inter_arrival: 0,
                msg_type: MsgType::Request,
                dst_type: DestType::Core,
            },
            packet_id: slot as u64,
            create_cycle: 0,
            arrival_cycle: 0,
            src: NodeId(0),
            dst: NodeId(1),
            port_degraded: false,
        }
    }

    fn ctx<'a>(cands: &'a [Candidate], net: &'a NetSnapshot) -> OutputCtx<'a> {
        OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 10,
            num_ports: 5,
            num_vnets: 1,
            candidates: cands,
            net,
        }
    }

    #[test]
    fn max_priority_wins() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 2), cand(1, 7), cand(2, 5)];
        let mut arb = MaxPriorityArbiter::new(ByHopCount);
        assert_eq!(arb.select(&ctx(&cands, &net)), Some(1));
    }

    #[test]
    fn ties_resolve_to_lowest_slot_like_hardware() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 5), cand(1, 5), cand(2, 5)];
        let mut arb = MaxPriorityArbiter::new(ByHopCount);
        assert_eq!(arb.select(&ctx(&cands, &net)), Some(0));
    }
}

//! Built-in reference arbitration policies.
//!
//! Only the two simplest baselines live here so the simulator crate is
//! self-contained for tests and examples; the full policy suite (iSLIP,
//! ProbDist, global-age, the RL-inspired arbiters, …) lives in the
//! `noc-arbiters` crate.

use std::collections::HashMap;

use crate::arbitration::{Arbiter, OutputCtx};
use crate::codec::Words;
use crate::types::RouterId;

/// FIFO arbitration: grant the message that arrived at the *local router*
/// earliest (paper §3.2: "prioritizes messages based on their arrival time
/// to the local router" — i.e. the message with the largest local age).
///
/// Simple to implement in hardware, captures local age but not global age.
///
/// ```
/// use noc_sim::arbiters::FifoArbiter;
/// use noc_sim::Arbiter;
/// assert_eq!(FifoArbiter::new().name(), "FIFO");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoArbiter {
    _priv: (),
}

impl FifoArbiter {
    /// Creates a FIFO arbiter.
    pub fn new() -> Self {
        FifoArbiter { _priv: () }
    }
}

impl Arbiter for FifoArbiter {
    fn name(&self) -> String {
        "FIFO".into()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        ctx.candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.arrival_cycle, c.packet_id))
            .map(|(i, _)| i)
    }
}

/// Round-robin arbitration: each (router, output port) pair keeps a rotating
/// pointer over input-buffer slots; the first requesting slot at or after the
/// pointer wins, and the pointer advances past it. Provides local fairness
/// but no notion of age (paper §2.1).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinArbiter {
    pointers: HashMap<(RouterId, usize), usize>,
}

impl RoundRobinArbiter {
    /// Creates a round-robin arbiter.
    pub fn new() -> Self {
        RoundRobinArbiter {
            pointers: HashMap::new(),
        }
    }
}

impl Arbiter for RoundRobinArbiter {
    fn name(&self) -> String {
        "Round-robin".into()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        let slots = ctx.num_ports * ctx.num_vnets;
        let ptr = self.pointers.entry((ctx.router, ctx.out_port)).or_insert(0);
        // Find the candidate whose slot is the first at or after the pointer,
        // wrapping around. A restored pointer may be any word, so it is
        // reduced first.
        let start = *ptr % slots;
        let chosen = ctx
            .candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.slot + slots - start) % slots)
            .map(|(i, _)| i)?;
        *ptr = (ctx.candidates[chosen].slot + 1) % slots;
        Some(chosen)
    }

    fn checkpoint_state(&self) -> Option<String> {
        let mut entries: Vec<_> = self.pointers.iter().collect();
        entries.sort_unstable();
        let mut w = Words::default();
        w.len(entries.len());
        for (&(router, out), &ptr) in entries {
            w.u64(router.0 as u64).u64(out as u64).u64(ptr as u64);
        }
        Some(w.finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("round-robin", state);
        let mut pointers = HashMap::new();
        for _ in 0..r.len("pointers", 3)? {
            let router = RouterId(r.u64("router")? as usize);
            let key = (router, r.u64("output")? as usize);
            pointers.insert(key, r.u64("pointer")? as usize);
        }
        r.end()?;
        self.pointers = pointers;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::{Candidate, Features, NetSnapshot};
    use crate::types::{DestType, MsgType, NodeId};

    fn cand(slot: usize, arrival: u64, id: u64) -> Candidate {
        Candidate {
            in_port: slot, // one vnet in these tests
            vnet: 0,
            slot,
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
            create_cycle: arrival,
            arrival_cycle: arrival,
            src: NodeId(0),
            dst: NodeId(1),
            port_degraded: false,
        }
    }

    fn ctx<'a>(cands: &'a [Candidate], net: &'a NetSnapshot) -> OutputCtx<'a> {
        OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 100,
            num_ports: 5,
            num_vnets: 1,
            candidates: cands,
            net,
        }
    }

    #[test]
    fn fifo_picks_earliest_local_arrival() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 30, 1), cand(1, 10, 2), cand(2, 20, 3)];
        assert_eq!(FifoArbiter::new().select(&ctx(&cands, &net)), Some(1));
    }

    #[test]
    fn fifo_ties_break_by_packet_id() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 10, 5), cand(1, 10, 2)];
        assert_eq!(FifoArbiter::new().select(&ctx(&cands, &net)), Some(1));
    }

    #[test]
    fn round_robin_rotates_across_requesters() {
        let net = NetSnapshot::default();
        let mut rr = RoundRobinArbiter::new();
        let cands = vec![cand(0, 0, 1), cand(2, 0, 2), cand(4, 0, 3)];
        let first = rr.select(&ctx(&cands, &net)).unwrap();
        assert_eq!(cands[first].slot, 0);
        let second = rr.select(&ctx(&cands, &net)).unwrap();
        assert_eq!(cands[second].slot, 2);
        let third = rr.select(&ctx(&cands, &net)).unwrap();
        assert_eq!(cands[third].slot, 4);
        let wrap = rr.select(&ctx(&cands, &net)).unwrap();
        assert_eq!(cands[wrap].slot, 0);
    }

    #[test]
    fn round_robin_pointers_are_per_output_port() {
        let net = NetSnapshot::default();
        let mut rr = RoundRobinArbiter::new();
        let cands = vec![cand(0, 0, 1), cand(1, 0, 2)];
        let mut c0 = ctx(&cands, &net);
        c0.out_port = 0;
        let mut c1 = ctx(&cands, &net);
        c1.out_port = 1;
        assert_eq!(rr.select(&c0), Some(0));
        // A different output port has its own pointer, so slot 0 wins again.
        assert_eq!(rr.select(&c1), Some(0));
    }
}

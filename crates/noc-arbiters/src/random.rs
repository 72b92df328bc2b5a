//! Uniform-random arbitration (sanity baseline).

use noc_sim::codec::Words;
use noc_sim::{Arbiter, OutputCtx, SplitMix64};

/// Grants a uniformly random competing buffer. Not evaluated in the paper,
/// but a useful control: any sensible policy should beat it under load.
#[derive(Debug, Clone)]
pub struct RandomArbiter {
    rng: SplitMix64,
}

impl RandomArbiter {
    /// Creates a random arbiter with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomArbiter {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Arbiter for RandomArbiter {
    fn name(&self) -> String {
        "Random".into()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        if ctx.candidates.is_empty() {
            return None;
        }
        Some(self.rng.next_bounded(ctx.candidates.len() as u64) as usize)
    }

    fn checkpoint_state(&self) -> Option<String> {
        // The RNG stream is the only mutable state.
        Some(Words::default().u64(self.rng.state()).finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("random", state);
        let rng = r.u64("rng state")?;
        r.end()?;
        self.rng = SplitMix64::new(rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Candidate, DestType, Features, MsgType, NetSnapshot, NodeId, RouterId};

    fn cand(slot: usize) -> Candidate {
        Candidate {
            in_port: slot,
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
            packet_id: slot as u64,
            create_cycle: 0,
            arrival_cycle: 0,
            src: NodeId(0),
            dst: NodeId(1),
            port_degraded: false,
        }
    }

    #[test]
    fn all_candidates_eventually_selected() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0), cand(1), cand(2)];
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 0,
            num_ports: 5,
            num_vnets: 1,
            candidates: &cands,
            net: &net,
        };
        let mut arb = RandomArbiter::new(3);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[arb.select(&ctx).unwrap()] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let net = NetSnapshot::default();
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 0,
            num_ports: 5,
            num_vnets: 1,
            candidates: &[],
            net: &net,
        };
        assert_eq!(RandomArbiter::new(1).select(&ctx), None);
    }
}

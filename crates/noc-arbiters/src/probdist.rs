//! Probabilistic distance-based arbitration (Lee et al., MICRO 2010).

use noc_sim::codec::Words;
use noc_sim::{Arbiter, Candidate, OutputCtx, SplitMix64};

/// Probabilistic distance-based arbitration ("ProbDist" in the paper's
/// Figs. 9–11): each competing message enters a weighted lottery where the
/// weight grows with the number of hops the message has already traversed.
/// Messages that traveled farther are statistically favored, approximating
/// age-based equality of service without global timestamps.
///
/// The weighting is exponential in distance, `2^min(hop_count, 15)`: the
/// aggressive setting that gives the strongest equality of service in the
/// original proposal.
#[derive(Debug, Clone)]
pub struct ProbDistArbiter {
    rng: SplitMix64,
}

impl ProbDistArbiter {
    /// Creates the arbiter with its lottery stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        ProbDistArbiter {
            rng: SplitMix64::new(seed),
        }
    }

    fn weight(c: &Candidate) -> u64 {
        1u64 << c.features.hop_count.min(15)
    }
}

impl Arbiter for ProbDistArbiter {
    fn name(&self) -> String {
        "ProbDist".into()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        if ctx.candidates.is_empty() {
            return None;
        }
        let total: u64 = ctx.candidates.iter().map(Self::weight).sum();
        let mut draw = self.rng.next_bounded(total);
        for (i, c) in ctx.candidates.iter().enumerate() {
            let w = Self::weight(c);
            if draw < w {
                return Some(i);
            }
            draw -= w;
        }
        Some(ctx.candidates.len() - 1)
    }

    fn checkpoint_state(&self) -> Option<String> {
        // The RNG stream is the only state.
        Some(Words::default().u64(self.rng.state()).finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("ProbDist", state);
        let rng = r.u64("rng state")?;
        r.end()?;
        self.rng = SplitMix64::new(rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{DestType, Features, MsgType, NetSnapshot, NodeId, RouterId};

    fn cand(slot: usize, hops: u32) -> Candidate {
        Candidate {
            in_port: slot,
            vnet: 0,
            slot,
            features: Features {
                payload_size: 1,
                local_age: 0,
                distance: 8,
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

    fn run_lottery(hops: &[u32], trials: usize) -> Vec<usize> {
        let net = NetSnapshot::default();
        let cands: Vec<Candidate> = hops.iter().enumerate().map(|(i, &h)| cand(i, h)).collect();
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 0,
            num_ports: 5,
            num_vnets: 1,
            candidates: &cands,
            net: &net,
        };
        let mut arb = ProbDistArbiter::new(99);
        let mut counts = vec![0usize; hops.len()];
        for _ in 0..trials {
            counts[arb.select(&ctx).unwrap()] += 1;
        }
        counts
    }

    #[test]
    fn farther_travelers_win_more_often() {
        let counts = run_lottery(&[0, 6], 2000);
        // Weights 1 vs 64: the long-haul message should win ~98% of draws.
        assert!(counts[1] > 1800, "long-haul won only {} of 2000", counts[1]);
    }

    #[test]
    fn weight_is_exponential_in_hops() {
        for hops in 0..=15 {
            assert_eq!(ProbDistArbiter::weight(&cand(0, hops)), 1 << hops);
        }
    }

    #[test]
    fn equal_hops_split_roughly_evenly() {
        let counts = run_lottery(&[3, 3], 4000);
        assert!((1600..2400).contains(&counts[0]), "split {counts:?}");
    }

    #[test]
    fn exponential_weight_saturates() {
        assert_eq!(
            ProbDistArbiter::weight(&cand(0, 15)),
            ProbDistArbiter::weight(&cand(0, 40))
        );
    }
}

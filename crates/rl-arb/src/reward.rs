//! Reward functions (paper §3.1.1 and §6.3).

use noc_sim::OutputCtx;

/// The three reward formulations the paper compares in Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// `+1` when the agent grants the message with the oldest global age
    /// among the competitors, `0` otherwise. Immediate and
    /// decision-specific — the only reward the paper found to converge.
    GlobalAge,
    /// Reciprocal of the periodically refreshed average accumulated
    /// latency of delivered + in-flight messages (§6.3). A global,
    /// delayed signal.
    AccLatency,
    /// Fraction of mesh links that carried a flit in the previous cycle
    /// (§6.3). Also global and only loosely tied to single decisions.
    LinkUtil,
}

impl RewardKind {
    /// All reward kinds in reporting order.
    pub const ALL: [RewardKind; 3] = [
        RewardKind::GlobalAge,
        RewardKind::AccLatency,
        RewardKind::LinkUtil,
    ];

    /// Display label used in training-curve reports.
    pub fn label(self) -> &'static str {
        match self {
            RewardKind::GlobalAge => "global_age",
            RewardKind::AccLatency => "acc_latency",
            RewardKind::LinkUtil => "link_util",
        }
    }

    /// Computes the reward for granting `chosen` (an index into
    /// `ctx.candidates`).
    ///
    /// # Panics
    ///
    /// Panics if `chosen` is out of range for the candidate list.
    pub fn compute(self, ctx: &OutputCtx<'_>, chosen: usize) -> f64 {
        assert!(chosen < ctx.candidates.len(), "chosen index out of range");
        match self {
            RewardKind::GlobalAge => {
                if chosen == ctx.oldest_global_index() {
                    1.0
                } else {
                    0.0
                }
            }
            RewardKind::AccLatency => {
                // Lower average latency ⇒ higher reward; guard the cold
                // start where the statistic is still zero.
                1.0 / ctx.net.avg_accumulated_latency.max(1.0)
            }
            RewardKind::LinkUtil => ctx.net.link_utilization_prev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Candidate, DestType, Features, MsgType, NetSnapshot, NodeId, RouterId};

    fn cand(create: u64, id: u64) -> Candidate {
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
            create_cycle: create,
            arrival_cycle: create,
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
    fn global_age_rewards_only_the_oldest() {
        let net = NetSnapshot::default();
        let cands = vec![cand(50, 0), cand(10, 1)];
        let c = ctx(&cands, &net);
        assert_eq!(RewardKind::GlobalAge.compute(&c, 1), 1.0);
        assert_eq!(RewardKind::GlobalAge.compute(&c, 0), 0.0);
    }

    #[test]
    fn acc_latency_is_reciprocal_and_guarded() {
        let mut net = NetSnapshot::default();
        let cands = vec![cand(0, 0), cand(1, 1)];
        net.avg_accumulated_latency = 25.0;
        assert_eq!(RewardKind::AccLatency.compute(&ctx(&cands, &net), 0), 0.04);
        net.avg_accumulated_latency = 0.0;
        assert_eq!(RewardKind::AccLatency.compute(&ctx(&cands, &net), 0), 1.0);
    }

    #[test]
    fn link_util_passes_through_snapshot() {
        let net = NetSnapshot {
            link_utilization_prev: 0.375,
            ..Default::default()
        };
        let cands = vec![cand(0, 0), cand(1, 1)];
        assert_eq!(RewardKind::LinkUtil.compute(&ctx(&cands, &net), 1), 0.375);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_choice_panics() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 0)];
        RewardKind::GlobalAge.compute(&ctx(&cands, &net), 5);
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<&str> = RewardKind::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, vec!["global_age", "acc_latency", "link_util"]);
    }
}

//! Additional arbiters from the paper's related-work discussion (§7):
//! wavefront allocation, ping-pong arbitration, and a slack-aware policy.
//!
//! These are not evaluated in the paper's figures, but a usable arbitration
//! library should carry them — and they make good extra baselines for the
//! extended policy comparison bench.

use std::collections::HashMap;

use noc_sim::codec::Words;
use noc_sim::{Arbiter, OutputCtx, RouterCtx, RouterId};

use crate::priority::{MaxPriorityArbiter, PriorityPolicy};

/// Wavefront allocation (Howard et al., JSSC 2011 \[34\]): sweep diagonals
/// of the request matrix, granting every free (input, output) pair on the
/// current diagonal; the starting diagonal rotates each cycle for
/// fairness. Produces a maximal matching in `n` steps of parallel
/// hardware; here the sweep is emulated per router per cycle.
#[derive(Debug, Clone, Default)]
pub struct WavefrontArbiter {
    /// `(router) -> rotating priority diagonal`.
    offsets: HashMap<RouterId, usize>,
    /// `(router, out_port) -> (cycle, in_port, vnet)` planned this cycle.
    plan: HashMap<(RouterId, usize), (u64, usize, usize)>,
}

impl WavefrontArbiter {
    /// Creates a wavefront allocator.
    pub fn new() -> Self {
        WavefrontArbiter::default()
    }
}

impl Arbiter for WavefrontArbiter {
    fn name(&self) -> String {
        "Wavefront".into()
    }

    fn plan_router(&mut self, ctx: &RouterCtx<'_>) {
        let n = ctx.num_ports;
        let offset = {
            // A restored offset may be any word, so it is reduced first.
            let o = self.offsets.entry(ctx.router).or_insert(0);
            let cur = *o % n;
            *o = (cur + 1) % n;
            cur
        };
        // requests[(out, in)] = representative vnet (earliest arrival).
        let mut requests: HashMap<(usize, usize), (u64, u64, usize)> = HashMap::new();
        for (out, cands) in ctx.outputs {
            for c in cands {
                let key = (*out, c.in_port);
                let entry = (c.arrival_cycle, c.packet_id, c.vnet);
                match requests.get(&key) {
                    Some(prev) if *prev <= entry => {}
                    _ => {
                        requests.insert(key, entry);
                    }
                }
            }
        }
        let mut in_taken = vec![false; n];
        let mut out_taken = vec![false; n];
        // Sweep the n diagonals starting from the rotating offset.
        for k in 0..n {
            let diag = (offset + k) % n;
            #[allow(clippy::needless_range_loop)] // inp indexes two arrays and forms `out`
            for inp in 0..n {
                let out = (diag + n - inp % n) % n;
                if in_taken[inp] || out_taken[out] {
                    continue;
                }
                if let Some(&(_, _, vnet)) = requests.get(&(out, inp)) {
                    in_taken[inp] = true;
                    out_taken[out] = true;
                    self.plan.insert((ctx.router, out), (ctx.cycle, inp, vnet));
                }
            }
        }
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        match self.plan.get(&(ctx.router, ctx.out_port)) {
            Some(&(cycle, inp, vnet)) if cycle == ctx.cycle => ctx
                .candidates
                .iter()
                .position(|c| c.in_port == inp && c.vnet == vnet)
                .or_else(|| {
                    // Planned buffer consumed elsewhere: stay work-conserving.
                    ctx.candidates
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| (c.arrival_cycle, c.packet_id))
                        .map(|(i, _)| i)
                }),
            _ => None,
        }
    }

    fn checkpoint_state(&self) -> Option<String> {
        // The matching plan is transient (cycle-guarded in `select`); only
        // the rotating diagonal offsets survive a cycle boundary.
        let mut entries: Vec<_> = self.offsets.iter().collect();
        entries.sort_unstable();
        let mut w = Words::default();
        w.len(entries.len());
        for (&router, &offset) in entries {
            w.u64(router.0 as u64).u64(offset as u64);
        }
        Some(w.finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("wavefront", state);
        let mut offsets = HashMap::new();
        for _ in 0..r.len("offsets", 2)? {
            let router = RouterId(r.u64("router")? as usize);
            offsets.insert(router, r.u64("offset")? as usize);
        }
        r.end()?;
        self.offsets = offsets;
        self.plan.clear();
        Ok(())
    }
}

/// Ping-pong arbitration (Chao, Lam & Guo, GLOBECOM 1999 \[31\]): a binary
/// tree of 2-input arbiters, each alternating ("ping-ponging") between its
/// subtrees whenever both have requesters — recursive fair sharing of
/// bandwidth among inputs.
#[derive(Debug, Clone, Default)]
pub struct PingPongArbiter {
    /// `(router, out_port, tree node) -> prefer-right flag`.
    toggles: HashMap<(RouterId, usize, usize), bool>,
}

impl PingPongArbiter {
    /// Creates a ping-pong arbiter.
    pub fn new() -> Self {
        PingPongArbiter::default()
    }

    /// Recursively resolves the winner among `slots[lo..hi)` (indices into
    /// the candidate list, sorted by slot). `node` identifies the tree
    /// position for toggle state.
    fn resolve(
        &mut self,
        key: (RouterId, usize),
        node: usize,
        present: &[Option<usize>],
        lo: usize,
        hi: usize,
    ) -> Option<usize> {
        if hi - lo == 1 {
            return present[lo];
        }
        let mid = lo + (hi - lo) / 2;
        let left = self.resolve(key, node * 2 + 1, present, lo, mid);
        let right = self.resolve(key, node * 2 + 2, present, mid, hi);
        match (left, right) {
            (Some(l), Some(r)) => {
                let flag = self.toggles.entry((key.0, key.1, node)).or_insert(false);
                let winner = if *flag { r } else { l };
                *flag = !*flag;
                Some(winner)
            }
            (Some(l), None) => Some(l),
            (None, r) => r,
        }
    }
}

impl Arbiter for PingPongArbiter {
    fn name(&self) -> String {
        "Ping-pong".into()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        let slots = ctx.num_ports * ctx.num_vnets;
        // present[slot] = candidate index, for the leaf layer of the tree.
        let mut present: Vec<Option<usize>> = vec![None; slots.next_power_of_two()];
        for (i, c) in ctx.candidates.iter().enumerate() {
            present[c.slot] = Some(i);
        }
        let n = present.len();
        self.resolve((ctx.router, ctx.out_port), 0, &present, 0, n)
    }

    fn checkpoint_state(&self) -> Option<String> {
        let mut entries: Vec<_> = self.toggles.iter().collect();
        entries.sort_unstable();
        let mut w = Words::default();
        w.len(entries.len());
        for (&(router, out, node), &flag) in entries {
            w.u64(router.0 as u64).u64(out as u64).u64(node as u64);
            w.u64(flag.into());
        }
        Some(w.finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("ping-pong", state);
        let mut toggles = HashMap::new();
        for _ in 0..r.len("toggles", 4)? {
            let router = RouterId(r.u64("router")? as usize);
            let key = (router, r.u64("output")? as usize, r.u64("node")? as usize);
            toggles.insert(key, r.index("flag", 2)? == 1);
        }
        r.end()?;
        self.toggles = toggles;
        Ok(())
    }
}

/// Adversarial control policy: always prefer the *youngest* message.
///
/// Deliberately starvation-prone — the §6.4 starvation check runs it as
/// the worst-case contrast to the RL-inspired arbiter's local-age clause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NewestFirstPolicy {
    _priv: (),
}

impl NewestFirstPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        NewestFirstPolicy { _priv: () }
    }

    /// Wraps the policy in the select-max adapter.
    pub fn arbiter() -> MaxPriorityArbiter<Self> {
        MaxPriorityArbiter::new(NewestFirstPolicy::new())
    }
}

impl PriorityPolicy for NewestFirstPolicy {
    fn name(&self) -> String {
        "Newest-first".into()
    }

    fn priority(&self, c: &noc_sim::Candidate, _ctx: &OutputCtx<'_>) -> u32 {
        let age = c.features.local_age.min((1 << 20) - 1) as u32;
        (1 << 20) - age
    }
}

/// A slack-aware policy in the spirit of Aergia (Das et al., ISCA 2010
/// \[32\]): packets with less slack — here proxied by the *remaining route
/// length*, since a packet far from its destination still has the most
/// latency left to accumulate — are prioritized, with local age breaking
/// ties to protect old packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlackAwarePolicy {
    _priv: (),
}

impl SlackAwarePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        SlackAwarePolicy { _priv: () }
    }

    /// Wraps the policy in the select-max adapter.
    pub fn arbiter() -> MaxPriorityArbiter<Self> {
        MaxPriorityArbiter::new(SlackAwarePolicy::new())
    }
}

impl PriorityPolicy for SlackAwarePolicy {
    fn name(&self) -> String {
        "Slack-aware".into()
    }

    fn priority(&self, c: &noc_sim::Candidate, _ctx: &OutputCtx<'_>) -> u32 {
        let remaining = c
            .features
            .distance
            .saturating_sub(c.features.hop_count)
            .min(15);
        let age = c.features.local_age.min(15) as u32;
        (remaining << 4) | age
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Candidate, DestType, Features, MsgType, NetSnapshot, NodeId};

    fn cand(in_port: usize, vnet: usize, slot: usize, arrival: u64, id: u64) -> Candidate {
        Candidate {
            in_port,
            vnet,
            slot,
            features: Features {
                payload_size: 1,
                local_age: 2,
                distance: 6,
                hop_count: 1,
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

    #[test]
    fn wavefront_matching_is_conflict_free() {
        let net = NetSnapshot::default();
        // Inputs 0,1 request output 2; inputs 1,2 request output 3.
        let outputs = vec![
            (2usize, vec![cand(0, 0, 0, 0, 1), cand(1, 0, 3, 0, 2)]),
            (3usize, vec![cand(1, 1, 4, 0, 3), cand(2, 0, 6, 0, 4)]),
        ];
        let mut arb = WavefrontArbiter::new();
        arb.plan_router(&RouterCtx {
            router: RouterId(0),
            cycle: 5,
            num_ports: 5,
            num_vnets: 3,
            outputs: &outputs,
            net: &net,
        });
        let mut granted_inputs = Vec::new();
        for (out, cands) in &outputs {
            let ctx = OutputCtx {
                router: RouterId(0),
                out_port: *out,
                cycle: 5,
                num_ports: 5,
                num_vnets: 3,
                candidates: cands,
                net: &net,
            };
            if let Some(i) = arb.select(&ctx) {
                granted_inputs.push(cands[i].in_port);
            }
        }
        // Both outputs matched, to distinct inputs.
        assert_eq!(granted_inputs.len(), 2);
        assert_ne!(granted_inputs[0], granted_inputs[1]);
    }

    #[test]
    fn wavefront_ignores_stale_plans() {
        let net = NetSnapshot::default();
        let outputs = vec![(2usize, vec![cand(0, 0, 0, 0, 1), cand(1, 0, 3, 0, 2)])];
        let mut arb = WavefrontArbiter::new();
        arb.plan_router(&RouterCtx {
            router: RouterId(0),
            cycle: 5,
            num_ports: 5,
            num_vnets: 3,
            outputs: &outputs,
            net: &net,
        });
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 2,
            cycle: 6, // stale
            num_ports: 5,
            num_vnets: 3,
            candidates: &outputs[0].1,
            net: &net,
        };
        assert_eq!(arb.select(&ctx), None);
    }

    #[test]
    fn ping_pong_alternates_between_halves() {
        let net = NetSnapshot::default();
        // Slots 0 (left half) and 14 (right half) both request.
        let cands = vec![cand(0, 0, 0, 0, 1), cand(4, 2, 14, 0, 2)];
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 1,
            cycle: 0,
            num_ports: 5,
            num_vnets: 3,
            candidates: &cands,
            net: &net,
        };
        let mut arb = PingPongArbiter::new();
        let picks: Vec<usize> = (0..4).map(|_| arb.select(&ctx).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 0, 1], "strict alternation expected");
    }

    #[test]
    fn ping_pong_with_single_candidate_grants_it() {
        let net = NetSnapshot::default();
        let cands = vec![cand(2, 1, 7, 0, 1)];
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 0,
            num_ports: 5,
            num_vnets: 3,
            candidates: &cands,
            net: &net,
        };
        assert_eq!(PingPongArbiter::new().select(&ctx), Some(0));
    }

    #[test]
    fn slack_aware_prefers_long_remaining_routes() {
        let p = SlackAwarePolicy::new();
        let net = NetSnapshot::default();
        let mut near = cand(0, 0, 0, 0, 1);
        near.features.distance = 6;
        near.features.hop_count = 5; // 1 hop remaining
        let mut far = cand(1, 0, 3, 0, 2);
        far.features.distance = 6;
        far.features.hop_count = 0; // 6 hops remaining
        let cands = vec![near, far];
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 10,
            num_ports: 5,
            num_vnets: 3,
            candidates: &cands,
            net: &net,
        };
        assert!(p.priority(&cands[1], &ctx) > p.priority(&cands[0], &ctx));
    }
}

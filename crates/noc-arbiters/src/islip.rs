//! iSLIP: iterative round-robin matching (McKeown, ToN 1999).

use std::collections::HashMap;

use noc_sim::codec::Words;
use noc_sim::{Arbiter, OutputCtx, RouterCtx, RouterId};

/// The iSLIP switch allocator.
///
/// iSLIP computes a conflict-free input-to-output matching per router per
/// cycle using per-output *grant* pointers and per-input *accept* pointers,
/// iterating request → grant → accept twice (the customary count) to fill
/// in unmatched pairs. Pointers only advance on first-iteration accepts,
/// which is what gives iSLIP its "desynchronized pointers" fairness property.
///
/// When a router has several VCs requesting the same output from the same
/// input port, the oldest local arrival represents that port in the
/// matching.
#[derive(Debug, Clone, Default)]
pub struct IslipArbiter {
    grant_ptrs: HashMap<(RouterId, usize), usize>,
    accept_ptrs: HashMap<(RouterId, usize), usize>,
    /// `(router, out_port)` → `(cycle, in_port, vnet)` planned this cycle.
    plan: HashMap<(RouterId, usize), (u64, usize, usize)>,
}

/// Request → grant → accept rounds per matching.
const ITERATIONS: usize = 2;

impl IslipArbiter {
    /// Creates an iSLIP allocator with every pointer at port 0.
    pub fn new() -> Self {
        IslipArbiter::default()
    }
}

impl Arbiter for IslipArbiter {
    fn name(&self) -> String {
        "iSLIP".into()
    }

    fn plan_router(&mut self, ctx: &RouterCtx<'_>) {
        let p = ctx.num_ports;
        // requests[out][in] = Some(vnet of the representative candidate).
        let mut requests: HashMap<(usize, usize), (u64, u64, usize)> = HashMap::new();
        let mut out_ports: Vec<usize> = Vec::new();
        for (out, cands) in ctx.outputs {
            out_ports.push(*out);
            for c in cands {
                // Representative per (out, in): earliest local arrival.
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

        let mut matched_out: HashMap<usize, usize> = HashMap::new(); // out -> in
        let mut matched_in: HashMap<usize, usize> = HashMap::new(); // in -> out

        for iter in 0..ITERATIONS {
            // Grant phase: each unmatched output grants one unmatched input.
            let mut grants: HashMap<usize, Vec<usize>> = HashMap::new(); // in -> outs granting it
            for &out in &out_ports {
                if matched_out.contains_key(&out) {
                    continue;
                }
                // A restored pointer may be any word, so it is reduced first.
                let gp = *self.grant_ptrs.entry((ctx.router, out)).or_insert(0) % p;
                let winner = (0..p)
                    .filter(|inp| {
                        !matched_in.contains_key(inp) && requests.contains_key(&(out, *inp))
                    })
                    .min_by_key(|inp| (inp + p - gp) % p);
                if let Some(inp) = winner {
                    grants.entry(inp).or_default().push(out);
                }
            }
            // Accept phase: each input accepts one granting output.
            for (inp, outs) in grants {
                let ap = *self.accept_ptrs.entry((ctx.router, inp)).or_insert(0) % p;
                let Some(&out) = outs.iter().min_by_key(|o| (**o + p - ap) % p) else {
                    continue;
                };
                matched_out.insert(out, inp);
                matched_in.insert(inp, out);
                if iter == 0 {
                    // Pointers move only on first-iteration accepts.
                    self.grant_ptrs.insert((ctx.router, out), (inp + 1) % p);
                    self.accept_ptrs.insert((ctx.router, inp), (out + 1) % p);
                }
            }
        }

        for (out, inp) in matched_out {
            let (_, _, vnet) = requests[&(out, inp)];
            self.plan.insert((ctx.router, out), (ctx.cycle, inp, vnet));
        }
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        match self.plan.get(&(ctx.router, ctx.out_port)) {
            Some(&(cycle, inp, vnet)) if cycle == ctx.cycle => {
                let planned = ctx
                    .candidates
                    .iter()
                    .position(|c| c.in_port == inp && c.vnet == vnet);
                // If the planned buffer was consumed by a fast-path grant on
                // another output, stay work-conserving: fall back to the
                // oldest local arrival.
                planned.or_else(|| {
                    ctx.candidates
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| (c.arrival_cycle, c.packet_id))
                        .map(|(i, _)| i)
                })
            }
            // Output left unmatched by the iSLIP matching: idle this cycle.
            _ => None,
        }
    }

    fn checkpoint_state(&self) -> Option<String> {
        // The per-cycle matching plan is transient (cycle-guarded in
        // `select`); only the rotating grant/accept pointers survive a
        // cycle boundary. Entries are sorted so the encoding is
        // deterministic regardless of map iteration order.
        let mut w = Words::default();
        for ptrs in [&self.grant_ptrs, &self.accept_ptrs] {
            let mut entries: Vec<_> = ptrs.iter().collect();
            entries.sort_unstable();
            w.len(entries.len());
            for (&(router, port), &ptr) in entries {
                w.u64(router.0 as u64).u64(port as u64).u64(ptr as u64);
            }
        }
        Some(w.finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("iSLIP", state);
        let mut maps = [HashMap::new(), HashMap::new()];
        for ptrs in &mut maps {
            for _ in 0..r.len("pointers", 3)? {
                let key = (RouterId(r.u64("router")? as usize), r.u64("port")? as usize);
                ptrs.insert(key, r.u64("pointer")? as usize);
            }
        }
        r.end()?;
        [self.grant_ptrs, self.accept_ptrs] = maps;
        self.plan.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Candidate, DestType, Features, MsgType, NetSnapshot, NodeId};

    fn cand(in_port: usize, vnet: usize, arrival: u64, id: u64) -> Candidate {
        Candidate {
            in_port,
            vnet,
            slot: in_port * 3 + vnet,
            features: Features {
                payload_size: 1,
                local_age: 0,
                distance: 2,
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

    fn router_ctx<'a>(
        outputs: &'a [(usize, Vec<Candidate>)],
        net: &'a NetSnapshot,
        cycle: u64,
    ) -> RouterCtx<'a> {
        RouterCtx {
            router: RouterId(0),
            cycle,
            num_ports: 5,
            num_vnets: 3,
            outputs,
            net,
        }
    }

    #[test]
    fn matching_is_input_disjoint() {
        let net = NetSnapshot::default();
        // Inputs 0 and 1 both request output 1; inputs 0 and 2 request
        // output 2. A correct matching grants both outputs from distinct
        // inputs (e.g. out1←in0, out2←in2).
        let outputs = vec![
            (1usize, vec![cand(0, 0, 0, 1), cand(1, 0, 0, 2)]),
            (2usize, vec![cand(0, 1, 0, 3), cand(2, 0, 0, 4)]),
        ];
        let mut arb = IslipArbiter::new();
        arb.plan_router(&router_ctx(&outputs, &net, 7));
        let mut granted_inputs = Vec::new();
        for (out, cands) in &outputs {
            let ctx = OutputCtx {
                router: RouterId(0),
                out_port: *out,
                cycle: 7,
                num_ports: 5,
                num_vnets: 3,
                candidates: cands,
                net: &net,
            };
            if let Some(i) = arb.select(&ctx) {
                granted_inputs.push(cands[i].in_port);
            }
        }
        // With two iterations both outputs should be matched, to different inputs.
        assert_eq!(granted_inputs.len(), 2);
        assert_ne!(granted_inputs[0], granted_inputs[1]);
    }

    #[test]
    fn stale_plan_from_previous_cycle_is_ignored() {
        let net = NetSnapshot::default();
        let outputs = vec![(1usize, vec![cand(0, 0, 0, 1), cand(1, 0, 0, 2)])];
        let mut arb = IslipArbiter::new();
        arb.plan_router(&router_ctx(&outputs, &net, 7));
        let cands = outputs[0].1.clone();
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 1,
            cycle: 8, // plan was for cycle 7
            num_ports: 5,
            num_vnets: 3,
            candidates: &cands,
            net: &net,
        };
        assert_eq!(arb.select(&ctx), None);
    }

    #[test]
    fn pointers_rotate_service_across_inputs() {
        let net = NetSnapshot::default();
        let outputs = vec![(1usize, vec![cand(0, 0, 0, 1), cand(1, 0, 0, 2)])];
        let mut arb = IslipArbiter::new();
        let mut winners = Vec::new();
        for cycle in 0..4 {
            arb.plan_router(&router_ctx(&outputs, &net, cycle));
            let ctx = OutputCtx {
                router: RouterId(0),
                out_port: 1,
                cycle,
                num_ports: 5,
                num_vnets: 3,
                candidates: &outputs[0].1,
                net: &net,
            };
            winners.push(outputs[0].1[arb.select(&ctx).unwrap()].in_port);
        }
        // The grant pointer advances past each winner, alternating service.
        assert_eq!(winners, vec![0, 1, 0, 1]);
    }
}

//! Property-based tests on the simulator's core invariants.

use proptest::prelude::*;

use noc_sim::arbiters::FifoArbiter;
use noc_sim::{
    route_path, route_xy, Coord, DestType, InjectionRequest, MsgType, NodeId, Packet, RouteStep,
    RoutingKind, SimConfig, Simulator, SplitMix64, Topology, TraceTraffic, TrafficSource, VcBuffer,
};

proptest! {
    /// X-Y routing always takes exactly the Manhattan distance in hops.
    #[test]
    fn xy_path_is_minimal(w in 2u16..10, h in 2u16..10, a in 0usize..100, b in 0usize..100) {
        let topo = Topology::uniform_mesh(w, h).unwrap();
        let n = topo.num_routers();
        let (src, dst) = (noc_sim::RouterId(a % n), noc_sim::RouterId(b % n));
        let path = route_path(RoutingKind::XY, &topo, src, dst);
        let dist = topo.coord(src).manhattan(topo.coord(dst));
        prop_assert_eq!(path.len() as u32, dist + 1);
        // Consecutive routers in the path are mesh neighbors.
        for pair in path.windows(2) {
            let c0 = topo.coord(pair[0]);
            let c1 = topo.coord(pair[1]);
            prop_assert_eq!(c0.manhattan(c1), 1);
        }
    }

    /// Routing never proposes a direction off the mesh edge.
    #[test]
    fn routing_stays_on_mesh(w in 2u16..9, h in 2u16..9, here in 0usize..81, dst in 0usize..81) {
        let topo = Topology::uniform_mesh(w, h).unwrap();
        let n = topo.num_routers();
        let (here, dst) = (noc_sim::RouterId(here % n), noc_sim::RouterId(dst % n));
        match route_xy(&topo, here, dst, 0) {
            RouteStep::Forward(dir) => prop_assert!(topo.neighbor(here, dir).is_some()),
            RouteStep::Eject(slot) => prop_assert_eq!(slot, 0),
        }
    }

    /// SplitMix64 bounded output respects its bound for arbitrary seeds.
    #[test]
    fn splitmix_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_bounded(bound) < bound);
            let f = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    /// VC buffers never leak or fabricate flits under arbitrary
    /// reserve/arrive/pop sequences.
    #[test]
    fn vc_buffer_invariants(ops in proptest::collection::vec(0u8..3, 1..80)) {
        let mut buf = VcBuffer::new(16);
        let mut pending: Vec<u32> = Vec::new(); // reserved lengths awaiting arrival
        let mut cycle = 0u64;
        for op in ops {
            cycle += 1;
            match op {
                0 => {
                    // Try to reserve a random-ish length 1..=5.
                    let len = (cycle % 5 + 1) as u32;
                    if buf.can_reserve(len) {
                        buf.reserve(len);
                        pending.push(len);
                    }
                }
                1 => {
                    if let Some(len) = pending.pop() {
                        let mut p = Packet::test_packet();
                        p.len_flits = len;
                        buf.push_arrival(p, cycle);
                    }
                }
                _ => {
                    buf.pop();
                }
            }
            let occupied = buf.used_flits() + buf.reserved_flits();
            prop_assert!(occupied <= buf.capacity_flits());
            prop_assert_eq!(buf.free_flits(), buf.capacity_flits() - occupied);
        }
    }

    /// For every delivered packet: hops == distance (minimal routing),
    /// latency is at least the zero-load bound, and the packet count
    /// balances.
    #[test]
    fn simulation_conserves_and_routes_minimally(
        seed in any::<u64>(),
        events in proptest::collection::vec((0u64..200, 0usize..16, 0usize..16, 1u32..5), 1..60)
    ) {
        let _ = seed;
        let mut evs: Vec<(u64, InjectionRequest)> = events
            .into_iter()
            .filter(|(_, s, d, _)| s != d)
            .map(|(cycle, src, dst, len)| {
                (cycle, InjectionRequest {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    vnet: (src + dst) % 3,
                    msg_type: MsgType::Request,
                    dst_type: DestType::Core,
                    len_flits: len,
                    tag: 0,
                })
            })
            .collect();
        evs.sort_by_key(|(c, _)| *c);
        prop_assume!(!evs.is_empty());
        let expected = evs.len() as u64;

        /// Records per-delivery invariants.
        #[derive(Debug)]
        struct Recorder {
            inner: TraceTraffic,
            ok: bool,
        }
        impl TrafficSource for Recorder {
            fn pull(&mut self, cycle: u64, net: &noc_sim::NetSnapshot) -> Vec<InjectionRequest> {
                self.inner.pull(cycle, net)
            }
            fn on_delivered(&mut self, p: &Packet, cycle: u64) {
                if p.hop_count != p.distance || cycle <= p.create_cycle {
                    self.ok = false;
                }
            }
            fn is_done(&self, cycle: u64) -> bool {
                self.inner.is_done(cycle)
            }
        }

        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = Recorder { inner: TraceTraffic::new(evs), ok: true };
        let mut sim = Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        let done = sim.run_until_done(100_000);
        prop_assert!(done, "finite trace must drain");
        prop_assert!(sim.traffic().ok, "hop/latency invariant violated");
        prop_assert_eq!(sim.stats().delivered, expected);
        prop_assert_eq!(sim.in_flight(), 0);
    }

    /// Manhattan distance is a metric (triangle inequality) on the mesh.
    #[test]
    fn manhattan_triangle_inequality(
        ax in 0u16..16, ay in 0u16..16,
        bx in 0u16..16, by in 0u16..16,
        cx in 0u16..16, cy in 0u16..16,
    ) {
        let (a, b, c) = (Coord::new(ax, ay), Coord::new(bx, by), Coord::new(cx, cy));
        prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
    }
}

//! Traffic sources: the trait the simulator drives, plus the classic
//! synthetic patterns used in the paper's §3.2 study.

use crate::arbitration::NetSnapshot;
use crate::codec::Words;
use crate::packet::{InjectionRequest, Packet};
use crate::rng::SplitMix64;
use crate::topology::Topology;
use crate::types::{DestType, MsgType, NodeId};

/// A source of network traffic.
///
/// The simulator calls [`TrafficSource::pull`] once per cycle to collect new
/// messages, and [`TrafficSource::on_delivered`] whenever a message reaches
/// its destination — closed-loop models (like the APU protocol engine) react
/// to deliveries by generating follow-on messages.
pub trait TrafficSource {
    /// Messages created this cycle. They enter per-node, per-vnet injection
    /// queues and drain into the network as buffer space allows.
    fn pull(&mut self, cycle: u64, net: &NetSnapshot) -> Vec<InjectionRequest>;

    /// Allocation-free variant of [`TrafficSource::pull`]: appends this
    /// cycle's messages to `out` (a scratch buffer the simulator reuses
    /// across cycles). The default delegates to `pull`; hot sources override
    /// it to avoid the per-cycle `Vec`.
    fn pull_into(&mut self, cycle: u64, net: &NetSnapshot, out: &mut Vec<InjectionRequest>) {
        out.extend(self.pull(cycle, net));
    }

    /// Notification that `packet` was consumed by its destination node.
    fn on_delivered(&mut self, _packet: &Packet, _cycle: u64) {}

    /// True when the workload has finished generating *and* reacting to
    /// traffic. Open-loop sources never finish.
    fn is_done(&self, _cycle: u64) -> bool {
        false
    }

    /// Serializes the source's mutable state for a simulator checkpoint
    /// (see [`crate::SimCheckpoint`]) with [`crate::codec::Words`], or
    /// `None` when the source cannot be checkpointed. Unlike
    /// [`crate::Arbiter::checkpoint_state`] the default is `None`: traffic
    /// sources are almost always stateful (RNG streams, replay cursors,
    /// closed-loop protocol state), so opting *in* is the safe direction.
    fn checkpoint_state(&self) -> Option<String> {
        None
    }

    /// Restores state produced by [`TrafficSource::checkpoint_state`] on an
    /// equally configured, freshly constructed source, reading it with
    /// [`crate::codec::WordReader`]; on `Err` the source is unchanged.
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        Err(format!(
            "this traffic source cannot restore state {state:?}"
        ))
    }
}

/// Destination selection rule for [`SyntheticTraffic`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Uniform random destination (excluding the source node).
    UniformRandom,
    /// `(x, y) → (y, x)` on a square mesh; self-pairs fall back to uniform.
    Transpose,
    /// Destination node id = bit-complement of the source id within the
    /// node-count mask; self-pairs fall back to uniform.
    BitComplement,
    /// `(x, y) → ((x + ⌈W/2⌉ − 1) mod W, y)` — adversarial for ring-like
    /// bandwidth; self-pairs fall back to uniform.
    Tornado,
    /// With probability `fraction`, send to the hotspot node; otherwise
    /// uniform random.
    Hotspot {
        /// The node receiving concentrated traffic.
        node: NodeId,
        /// Fraction of messages targeted at the hotspot.
        fraction: f64,
    },
}

/// An open-loop Bernoulli-injection synthetic traffic generator.
///
/// Every node independently creates a message each cycle with probability
/// `injection_rate`. A fraction `data_fraction` of messages are long
/// (`data_flits`-flit response-class) packets; the rest are single-flit
/// requests. Virtual networks are chosen uniformly.
///
/// ```
/// use noc_sim::{SyntheticTraffic, Pattern, Topology};
/// let topo = Topology::uniform_mesh(4, 4).unwrap();
/// let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.1, 3, 99);
/// # let _ = traffic;
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTraffic {
    pattern: Pattern,
    injection_rate: f64,
    num_vnets: usize,
    num_nodes: usize,
    width: u16,
    height: u16,
    data_fraction: f64,
    data_flits: u32,
    rng: SplitMix64,
}

impl SyntheticTraffic {
    /// Creates a generator over the nodes of `topo`.
    pub fn new(
        topo: &Topology,
        pattern: Pattern,
        injection_rate: f64,
        num_vnets: usize,
        seed: u64,
    ) -> Self {
        SyntheticTraffic {
            pattern,
            injection_rate,
            num_vnets,
            num_nodes: topo.num_nodes(),
            width: topo.width(),
            height: topo.height(),
            data_fraction: 0.2,
            data_flits: 5,
            rng: SplitMix64::new(seed),
        }
    }

    /// Sets the fraction of messages that are long data packets and their
    /// length in flits.
    pub fn with_data_packets(mut self, fraction: f64, flits: u32) -> Self {
        self.data_fraction = fraction;
        self.data_flits = flits;
        self
    }

    fn pick_dst(&mut self, src: usize) -> usize {
        let n = self.num_nodes;
        let uniform_other = |rng: &mut SplitMix64| {
            let mut d = rng.next_bounded(n as u64) as usize;
            if d == src {
                d = (d + 1) % n;
            }
            d
        };
        match self.pattern {
            Pattern::UniformRandom => uniform_other(&mut self.rng),
            Pattern::Transpose => {
                let w = self.width as usize;
                let (x, y) = (src % w, src / w);
                // Only meaningful with one node per router on a square mesh.
                let d = x * w + y;
                if d == src || d >= n {
                    uniform_other(&mut self.rng)
                } else {
                    d
                }
            }
            Pattern::BitComplement => {
                let bits = usize::BITS - (n - 1).leading_zeros();
                let d = (!src) & ((1usize << bits) - 1);
                if d == src || d >= n {
                    uniform_other(&mut self.rng)
                } else {
                    d
                }
            }
            Pattern::Tornado => {
                let w = self.width as usize;
                let (x, y) = (src % w, src / w);
                let shift = w.div_ceil(2).saturating_sub(1).max(1);
                let d = y * w + (x + shift) % w;
                if d == src || d >= n {
                    uniform_other(&mut self.rng)
                } else {
                    d
                }
            }
            Pattern::Hotspot { node, fraction } => {
                if self.rng.chance(fraction) && node.index() != src {
                    node.index()
                } else {
                    uniform_other(&mut self.rng)
                }
            }
        }
    }
}

impl TrafficSource for SyntheticTraffic {
    fn pull(&mut self, cycle: u64, net: &NetSnapshot) -> Vec<InjectionRequest> {
        let mut out = Vec::new();
        self.pull_into(cycle, net, &mut out);
        out
    }

    fn pull_into(&mut self, _cycle: u64, _net: &NetSnapshot, out: &mut Vec<InjectionRequest>) {
        let _ = self.height; // height participates only through num_nodes
        for src in 0..self.num_nodes {
            if !self.rng.chance(self.injection_rate) {
                continue;
            }
            let dst = self.pick_dst(src);
            let long = self.rng.chance(self.data_fraction);
            out.push(InjectionRequest {
                src: NodeId(src),
                dst: NodeId(dst),
                vnet: self.rng.next_bounded(self.num_vnets as u64) as usize,
                msg_type: if long {
                    MsgType::Response
                } else {
                    MsgType::Request
                },
                dst_type: DestType::Core,
                len_flits: if long { self.data_flits } else { 1 },
                tag: 0,
            });
        }
    }

    fn checkpoint_state(&self) -> Option<String> {
        // The constructor parameters are immutable; the RNG stream is the
        // only mutable state.
        Some(Words::default().u64(self.rng.state()).finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("SyntheticTraffic", state);
        let rng = r.u64("rng state")?;
        r.end()?;
        self.rng = SplitMix64::new(rng);
        Ok(())
    }
}

/// A fixed, replayable list of `(cycle, request)` injections — useful for
/// tests and micro-experiments.
#[derive(Debug, Clone, Default)]
pub struct TraceTraffic {
    events: Vec<(u64, InjectionRequest)>,
    next: usize,
}

impl TraceTraffic {
    /// Creates a trace source. Events must be sorted by cycle.
    ///
    /// # Panics
    ///
    /// Panics if the events are not sorted by cycle.
    pub fn new(events: Vec<(u64, InjectionRequest)>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].0 <= w[1].0),
            "trace events must be sorted by cycle"
        );
        TraceTraffic { events, next: 0 }
    }
}

impl TrafficSource for TraceTraffic {
    fn pull(&mut self, cycle: u64, net: &NetSnapshot) -> Vec<InjectionRequest> {
        let mut out = Vec::new();
        self.pull_into(cycle, net, &mut out);
        out
    }

    fn pull_into(&mut self, cycle: u64, _net: &NetSnapshot, out: &mut Vec<InjectionRequest>) {
        while self.next < self.events.len() && self.events[self.next].0 <= cycle {
            out.push(self.events[self.next].1.clone());
            self.next += 1;
        }
    }

    fn is_done(&self, _cycle: u64) -> bool {
        self.next >= self.events.len()
    }

    fn checkpoint_state(&self) -> Option<String> {
        // The event list is a constructor parameter; only the replay cursor
        // is mutable state.
        Some(Words::default().u64(self.next as u64).finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("TraceTraffic", state);
        let next = r.index("cursor", self.events.len() + 1)?;
        r.end()?;
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::uniform_mesh(4, 4).unwrap()
    }

    #[test]
    fn injection_rate_controls_volume() {
        let t = topo();
        let net = NetSnapshot::default();
        let mut hi = SyntheticTraffic::new(&t, Pattern::UniformRandom, 0.5, 3, 1);
        let mut lo = SyntheticTraffic::new(&t, Pattern::UniformRandom, 0.01, 3, 1);
        let mut hi_count = 0;
        let mut lo_count = 0;
        for c in 0..1000 {
            hi_count += hi.pull(c, &net).len();
            lo_count += lo.pull(c, &net).len();
        }
        // 16 nodes × 1000 cycles: expect ~8000 vs ~160.
        assert!(hi_count > 6000, "high-rate generated {hi_count}");
        assert!(lo_count < 600, "low-rate generated {lo_count}");
    }

    #[test]
    fn never_self_addressed() {
        let t = topo();
        let net = NetSnapshot::default();
        for pattern in [
            Pattern::UniformRandom,
            Pattern::Transpose,
            Pattern::BitComplement,
            Pattern::Tornado,
            Pattern::Hotspot {
                node: NodeId(5),
                fraction: 0.8,
            },
        ] {
            let mut src = SyntheticTraffic::new(&t, pattern, 1.0, 3, 7);
            for c in 0..50 {
                for req in src.pull(c, &net) {
                    assert_ne!(req.src, req.dst, "{pattern:?} produced self-traffic");
                    assert!(req.vnet < 3);
                    assert!(req.len_flits == 1 || req.len_flits == 5);
                }
            }
        }
    }

    #[test]
    fn transpose_maps_coordinates() {
        let t = topo();
        let net = NetSnapshot::default();
        let mut src = SyntheticTraffic::new(&t, Pattern::Transpose, 1.0, 1, 3);
        for req in src.pull(0, &net) {
            let (sx, sy) = (req.src.index() % 4, req.src.index() / 4);
            if sx != sy {
                assert_eq!(req.dst.index(), sx * 4 + sy);
            }
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let t = topo();
        let net = NetSnapshot::default();
        let hotspot = NodeId(0);
        let mut src = SyntheticTraffic::new(
            &t,
            Pattern::Hotspot {
                node: hotspot,
                fraction: 0.9,
            },
            1.0,
            1,
            5,
        );
        let mut to_hotspot = 0;
        let mut total = 0;
        for c in 0..200 {
            for req in src.pull(c, &net) {
                total += 1;
                if req.dst == hotspot {
                    to_hotspot += 1;
                }
            }
        }
        assert!(
            to_hotspot as f64 > 0.7 * total as f64,
            "only {to_hotspot}/{total} to hotspot"
        );
    }

    #[test]
    fn trace_traffic_replays_in_order_and_finishes() {
        let req = InjectionRequest {
            src: NodeId(0),
            dst: NodeId(1),
            vnet: 0,
            msg_type: MsgType::Request,
            dst_type: DestType::Core,
            len_flits: 1,
            tag: 42,
        };
        let mut tr = TraceTraffic::new(vec![(0, req.clone()), (5, req.clone())]);
        let net = NetSnapshot::default();
        assert_eq!(tr.pull(0, &net).len(), 1);
        assert_eq!(tr.pull(1, &net).len(), 0);
        assert!(!tr.is_done(1));
        assert_eq!(tr.pull(5, &net).len(), 1);
        assert!(tr.is_done(5));
    }

    #[test]
    #[should_panic(expected = "sorted by cycle")]
    fn unsorted_trace_rejected() {
        let req = InjectionRequest {
            src: NodeId(0),
            dst: NodeId(1),
            vnet: 0,
            msg_type: MsgType::Request,
            dst_type: DestType::Core,
            len_flits: 1,
            tag: 0,
        };
        TraceTraffic::new(vec![(5, req.clone()), (0, req)]);
    }
}

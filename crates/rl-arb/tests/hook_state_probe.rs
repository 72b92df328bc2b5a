//! A probe of every in-tree checkpoint hook with state. Each hook's own
//! state is truncated at every word, and each word is replaced in turn by
//! `0`, `u64::MAX` and a non-number. For every such state,
//! `restore_state` must not panic, an `Err` must leave
//! `checkpoint_state()` as it was, and an `Ok` must survive 100 more
//! decisions or epochs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nn_mlp::Mlp;
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::codec::{Json, ObjExt};
use noc_sim::{
    Arbiter, BufferController, Candidate, DestType, FeatureBounds, Features, InjectionRequest,
    MsgType, NetSnapshot, NodeId, OutputCtx, Pattern, RouterId, SimConfig, Simulator,
    SyntheticTraffic, Topology, TraceTraffic, TrafficSource, VcUsage,
};
use rl_arb::{AgentConfig, FeatureSet, OnlinePolicy, RlVcController, StateEncoder};

/// Decisions or epochs an accepted state must survive.
const AFTER: u64 = 100;

/// A hook under probe, already in the state the probe mutates.
trait Probed {
    fn state(&self) -> String;
    fn restore(&mut self, state: &str) -> Result<(), String>;
    /// Takes `AFTER` decisions or epochs.
    fn run(self);
}

/// Every mutation of `state`: its prefixes of 0 to n − 1 words, then
/// each word replaced by `0`, `u64::MAX` and `x`.
fn mutations(state: &str) -> Vec<String> {
    let words: Vec<&str> = state.split(' ').collect();
    let mut out: Vec<String> = (0..words.len()).map(|k| words[..k].join(" ")).collect();
    let max = u64::MAX.to_string();
    for i in 0..words.len() {
        for word in ["0", &max, "x"] {
            let mut mutated = words.clone();
            mutated[i] = word;
            out.push(mutated.join(" "));
        }
    }
    out
}

/// Runs every mutation of `make()`'s state through a fresh `make()` and
/// prints how many were refused and how many restored.
fn probe<T: Probed>(hook: &str, make: impl Fn() -> T) {
    let state = make().state();
    let (mut refused, mut restored) = (0, 0);
    for mutated in mutations(&state) {
        let mut object = make();
        let outcome = catch_unwind(AssertUnwindSafe(|| match object.restore(&mutated) {
            Err(_) => {
                assert_eq!(
                    object.state(),
                    state,
                    "{hook}: a refused state changed the object"
                );
                false
            }
            Ok(()) => {
                object.run();
                true
            }
        }));
        match outcome {
            Ok(true) => restored += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!("{hook}: state {mutated:?} panicked"),
        }
    }
    println!("{hook}: {refused} refused, {restored} restored");
    assert!(
        refused > 0 && restored > 0,
        "{hook}: none refused or none restored"
    );
}

fn mesh() -> (Topology, SimConfig) {
    (
        Topology::uniform_mesh(4, 4).unwrap(),
        SimConfig::synthetic(4, 4),
    )
}

fn traffic(topo: &Topology, cfg: &SimConfig) -> SyntheticTraffic {
    SyntheticTraffic::new(topo, Pattern::UniformRandom, 0.3, cfg.num_vnets, 9)
}

/// A registered arbiter, in the state a 4×4 mesh run leaves it in after
/// 200 cycles (read out of the run's snapshot).
struct Arb(Box<dyn Arbiter>);

impl Arb {
    fn after_a_run(kind: PolicyKind) -> impl Fn() -> Arb {
        let (topo, cfg) = mesh();
        let mut sim = Simulator::new(
            topo.clone(),
            cfg.clone(),
            make_arbiter(kind, 9),
            traffic(&topo, &cfg),
        )
        .unwrap();
        sim.run(200);
        let snapshot = Json::parse(sim.checkpoint().unwrap().to_json()).unwrap();
        let fields = snapshot.as_object().unwrap();
        let state = fields.get("arbiter").unwrap().as_str().unwrap();
        move || {
            let mut arbiter = make_arbiter(kind, 9);
            arbiter.restore_state(&state).unwrap();
            Arb(arbiter)
        }
    }
}

impl Probed for Arb {
    fn state(&self) -> String {
        self.0.checkpoint_state().unwrap()
    }
    fn restore(&mut self, state: &str) -> Result<(), String> {
        self.0.restore_state(state)
    }
    fn run(self) {
        let (topo, cfg) = mesh();
        let source = traffic(&topo, &cfg);
        let mut sim = Simulator::new(topo, cfg, self.0, source).unwrap();
        while sim.stats().arbiter_queries < AFTER {
            sim.run(1);
        }
    }
}

#[test]
fn arbiter_states_never_panic_and_refusals_change_nothing() {
    for kind in [
        PolicyKind::RoundRobin,
        PolicyKind::Islip,
        PolicyKind::Wavefront,
        PolicyKind::PingPong,
        PolicyKind::ProbDist,
        PolicyKind::Random,
    ] {
        probe(kind.as_str(), Arb::after_a_run(kind));
    }
}

/// A traffic source after 50 pulls.
struct Source<T>(T);

impl<T: TrafficSource> Probed for Source<T> {
    fn state(&self) -> String {
        self.0.checkpoint_state().unwrap()
    }
    fn restore(&mut self, state: &str) -> Result<(), String> {
        self.0.restore_state(state)
    }
    fn run(mut self) {
        let net = NetSnapshot::default();
        for cycle in 50..50 + AFTER {
            self.0.pull(cycle, &net);
        }
    }
}

fn pulled<T: TrafficSource>(mut source: T) -> Source<T> {
    let net = NetSnapshot::default();
    for cycle in 0..50 {
        source.pull(cycle, &net);
    }
    Source(source)
}

#[test]
fn traffic_states_never_panic_and_refusals_change_nothing() {
    let (topo, cfg) = mesh();
    probe("SyntheticTraffic", || pulled(traffic(&topo, &cfg)));
    let events: Vec<(u64, InjectionRequest)> = (0..100)
        .map(|c| {
            let req = InjectionRequest {
                src: NodeId(c as usize % 16),
                dst: NodeId((c as usize + 5) % 16),
                vnet: 0,
                msg_type: MsgType::Request,
                dst_type: DestType::Core,
                len_flits: 1,
                tag: c,
            };
            (c, req)
        })
        .collect();
    probe("TraceTraffic", || pulled(TraceTraffic::new(events.clone())));
}

/// The learned VC controller after 10 epochs over 4 VCs.
struct Ctl(RlVcController);

fn usage() -> Vec<VcUsage> {
    (0..4)
        .map(|i| VcUsage {
            used: i,
            reserved: 1,
            fault_shrink: 0,
            capacity: 8,
        })
        .collect()
}

impl Probed for Ctl {
    fn state(&self) -> String {
        self.0.checkpoint_state().unwrap()
    }
    fn restore(&mut self, state: &str) -> Result<(), String> {
        self.0.restore_state(state)
    }
    fn run(mut self) {
        let mut withhold = vec![0; 4];
        for epoch in 10..10 + AFTER {
            self.0.reallocate(epoch * 64, &usage(), &mut withhold);
        }
    }
}

#[test]
fn vc_controller_states_never_panic_and_refusals_change_nothing() {
    probe("RL-vcctl", || {
        let mut ctl = RlVcController::paper_default(5);
        let mut withhold = vec![0; 4];
        for epoch in 0..10 {
            ctl.reallocate(epoch * 64, &usage(), &mut withhold);
        }
        Ctl(ctl)
    });
}

/// An online policy over a 2-slot router (8-wide states, a 8→2→2
/// network, a ring of 4) after 10 learning decisions: its state holds
/// both networks, a full ring and a pending transition.
struct Online(OnlinePolicy);

fn decide(policy: &mut OnlinePolicy, cycle: u64) {
    let features = |la| Features {
        payload_size: 1,
        local_age: la,
        distance: 2,
        hop_count: 1,
        in_flight_from_src: 1,
        inter_arrival: 3,
        msg_type: MsgType::Request,
        dst_type: DestType::Core,
    };
    let cands: Vec<Candidate> = (0..2)
        .map(|slot| Candidate {
            in_port: slot,
            vnet: 0,
            slot,
            features: features(cycle % 7 + slot as u64),
            packet_id: cycle * 2 + slot as u64,
            create_cycle: cycle,
            arrival_cycle: cycle,
            src: NodeId(0),
            dst: NodeId(1),
            port_degraded: false,
        })
        .collect();
    let net = NetSnapshot::default();
    let ctx = OutputCtx {
        router: RouterId(0),
        out_port: 1,
        cycle,
        num_ports: 2,
        num_vnets: 1,
        candidates: &cands,
        net: &net,
    };
    policy.select(&ctx);
    policy.end_cycle(&net);
}

impl Probed for Online {
    fn state(&self) -> String {
        self.0.checkpoint_state().unwrap()
    }
    fn restore(&mut self, state: &str) -> Result<(), String> {
        self.0.restore_state(state)
    }
    fn run(mut self) {
        for cycle in 10..10 + AFTER {
            decide(&mut self.0, cycle);
        }
    }
}

#[test]
fn online_policy_states_never_panic_and_refusals_change_nothing() {
    probe("NN-online", || {
        let encoder =
            StateEncoder::new(2, 1, FeatureSet::synthetic(), FeatureBounds::for_mesh(4, 4));
        let cfg = AgentConfig {
            hidden: 2,
            batch_size: 2,
            replay_capacity: 4,
            epsilon: 0.2,
            ..AgentConfig::tuned_synthetic(3)
        };
        let net = Mlp::paper_agent(encoder.state_width(), cfg.hidden, encoder.num_slots(), 3);
        let mut policy = OnlinePolicy::new(net, encoder, cfg);
        for cycle in 0..10 {
            decide(&mut policy, cycle);
        }
        assert_eq!(policy.replay_len(), 4);
        Online(policy)
    });
}

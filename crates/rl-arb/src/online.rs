//! Online/continual learning: a self-contained DQN arbiter that keeps
//! training *during* the measured run.
//!
//! The paper trains offline and freezes the policy; [`OnlinePolicy`] is
//! the self-healing counterpoint (ROADMAP #4, after Charrwi & Hussain's
//! "Toward Self-Healing Networks-on-Chip"): it interleaves ε-greedy acting
//! with in-situ DQN updates on a bounded replay ring fed by live
//! [`Candidate`](noc_sim::Candidate) outcomes, so the policy can adapt
//! around link-down windows instead of arbitrating with stale weights.
//!
//! Two properties distinguish it from the training-harness
//! [`RlAgentArbiter`](crate::RlAgentArbiter):
//!
//! * **Determinism.** Every random draw (exploration, replay sampling)
//!   comes from counter-keyed [`SplitMix64`] streams derived from the
//!   construction seed — no shared mutable RNG — so runs are
//!   bit-deterministic and thread-invariant, and the entire RNG position
//!   is one serializable counter.
//! * **Checkpointability.** All mutable state (both networks, the replay
//!   ring, pending transitions, counters, the RNG counter) round-trips
//!   through [`Arbiter::checkpoint_state`] / [`Arbiter::restore_state`],
//!   so a run split at any cycle boundary is bit-identical to the
//!   unsplit run.
//!
//! With `lr == 0` and `epsilon == 0` the wrapper never trains and never
//! explores, and its decisions are bit-identical to the frozen
//! [`NnPolicyArbiter`](crate::NnPolicyArbiter) over the same network
//! (pinned by a property test): the frozen baseline is literally the
//! zero-learning point of this policy's configuration space.

use nn_mlp::{Activation, DenseLayer, Mlp};
use noc_sim::{Arbiter, NetSnapshot, OutputCtx, SplitMix64};
use std::collections::BTreeMap;

use crate::agent::{greedy_choice_with, AgentConfig, InferenceScratch};
use crate::features::StateEncoder;
use crate::replay::Experience;

/// Golden-ratio odd constant decorrelating successive RNG counter keys.
const RNG_STREAM_MIX: u64 = 0x9E3779B97F4A7C15;

/// Decisions over which the exploration rate halves:
/// `ε(d) = ε₀ / (1 + d / EPSILON_HALF_LIFE)`.
const EPSILON_HALF_LIFE: f64 = 10_000.0;

/// An incomplete `⟨s, a, r, ·⟩` transition awaiting its next state.
#[derive(Debug, Clone, PartialEq)]
struct Pending {
    state: Vec<f64>,
    /// Chosen action (buffer slot).
    action: usize,
    reward: f64,
}

/// A continually learning DQN arbitration policy (see the module docs).
///
/// Construct with [`OnlinePolicy::new`] from an explicit network: a cold
/// start, or a trained artifact's network to resume learning from it.
/// Hyperparameters reuse [`AgentConfig`]; `double_dqn` and
/// `prioritized` are ignored (the online path is plain DQN), and
/// `replay_capacity` bounds the in-situ ring.
#[derive(Debug, Clone)]
pub struct OnlinePolicy {
    encoder: StateEncoder,
    net: Mlp,
    target: Mlp,
    cfg: AgentConfig,
    /// Bounded replay ring (insertion semantics of
    /// [`crate::ReplayMemory`], RNG factored out).
    ring: Vec<Experience>,
    write: usize,
    capacity: usize,
    /// Incomplete transitions per `(router index, out_port)`. A `BTreeMap`
    /// so checkpoint serialization has a canonical order.
    pending: BTreeMap<(usize, usize), Pending>,
    /// Base key of the counter-RNG streams (from the config seed;
    /// construction-time, not serialized).
    rng_key: u64,
    /// Draws taken so far — the entire serializable RNG position.
    rng_ctr: u64,
    decisions: u64,
    explored: u64,
    train_ticks: u64,
    cum_reward: f64,
    scratch: InferenceScratch,
}

impl OnlinePolicy {
    /// Creates an online policy over `net` (the target network starts as
    /// a copy). Use a freshly initialized network for learning from
    /// scratch, or a trained one to continue learning in deployment.
    ///
    /// # Panics
    ///
    /// Panics if the network shape does not match the encoder.
    pub fn new(net: Mlp, encoder: StateEncoder, cfg: AgentConfig) -> Self {
        assert_eq!(net.input_size(), encoder.state_width(), "input width mismatch");
        assert_eq!(net.output_size(), encoder.num_slots(), "output width mismatch");
        let target = net.clone();
        let capacity = cfg.replay_capacity.max(1);
        let rng_key = cfg.seed;
        OnlinePolicy {
            encoder,
            net,
            target,
            cfg,
            ring: Vec::new(),
            write: 0,
            capacity,
            pending: BTreeMap::new(),
            rng_key,
            rng_ctr: 0,
            decisions: 0,
            explored: 0,
            train_ticks: 0,
            cum_reward: 0.0,
            scratch: InferenceScratch::default(),
        }
    }

    /// The live Q-network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// The state encoder.
    pub fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The hyperparameters in effect.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// Decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions that were random explorations.
    pub fn explored(&self) -> u64 {
        self.explored
    }

    /// Training ticks executed so far (0 when `lr == 0`). The
    /// "zero training epochs" witness for warm-cache tests.
    pub fn train_ticks(&self) -> u64 {
        self.train_ticks
    }

    /// Sum of immediate rewards over all decisions.
    pub fn cumulative_reward(&self) -> f64 {
        self.cum_reward
    }

    /// Experiences currently in the replay ring.
    pub fn replay_len(&self) -> usize {
        self.ring.len()
    }

    /// The current (decayed) exploration rate:
    /// `ε₀ / (1 + decisions / 10000)`.
    pub fn epsilon_now(&self) -> f64 {
        self.cfg.epsilon / (1.0 + self.decisions as f64 / EPSILON_HALF_LIFE)
    }

    /// One fresh RNG stream: keyed by the construction seed and the draw
    /// counter, so the serializable `(rng_ctr)` scalar is the complete
    /// stream position.
    fn draw(&mut self) -> SplitMix64 {
        let s = SplitMix64::new(self.rng_key ^ self.rng_ctr.wrapping_mul(RNG_STREAM_MIX));
        self.rng_ctr = self.rng_ctr.wrapping_add(1);
        s
    }

    fn push_ring(&mut self, exp: Experience) {
        if self.ring.len() < self.capacity {
            self.ring.push(exp);
        } else {
            self.ring[self.write] = exp;
        }
        self.write = (self.write + 1) % self.capacity;
    }

    /// One DQN update on a uniformly sampled experience (plain targets:
    /// the target network both selects and evaluates).
    fn train_one(&mut self) {
        let idx = self.draw().next_bounded(self.ring.len() as u64) as usize;
        let exp = self.ring[idx].clone();
        let mut target_q = self.net.forward(&exp.state);
        let next_q = self.target.forward(&exp.next_state);
        let best_next = exp
            .next_valid_slots
            .iter()
            .map(|&s| next_q[s as usize])
            .fold(f64::NEG_INFINITY, f64::max);
        target_q[exp.action] = exp.reward + self.cfg.gamma * best_next;
        self.net
            .train_sse(&exp.state, &target_q, self.cfg.lr, self.cfg.grad_clip);
    }
}

impl Arbiter for OnlinePolicy {
    fn name(&self) -> String {
        "NN-online".into()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        let eps = self.epsilon_now();
        self.decisions = self.decisions.wrapping_add(1);
        // With ε₀ == 0 no stream is consumed, so the zero-exploration
        // policy is draw-for-draw identical to the frozen arbiter.
        let chosen = if eps > 0.0 {
            let mut s = self.draw();
            if s.next_f64() < eps {
                self.explored = self.explored.wrapping_add(1);
                s.next_bounded(ctx.candidates.len() as u64) as usize
            } else {
                greedy_choice_with(&self.net, &self.encoder, ctx, &mut self.scratch)
            }
        } else {
            greedy_choice_with(&self.net, &self.encoder, ctx, &mut self.scratch)
        };
        let state = self.encoder.encode(ctx);
        let reward = self.cfg.reward.compute(ctx, chosen);
        self.cum_reward += reward;
        // Complete the previous tuple for this (router, output): its next
        // state is the state just observed, and the Bellman backup may
        // only maximize over the buffers actually competing in it (same
        // chain as `DqnAgent::decide`).
        let key = (ctx.router.index(), ctx.out_port);
        if let Some(prev) = self.pending.remove(&key) {
            self.push_ring(Experience {
                state: prev.state,
                action: prev.action,
                next_state: state.clone(),
                next_valid_slots: ctx.candidates.iter().map(|c| c.slot as u16).collect(),
                reward: prev.reward,
            });
        }
        self.pending.insert(
            key,
            Pending {
                state,
                action: ctx.candidates[chosen].slot,
                reward,
            },
        );
        Some(chosen)
    }

    fn end_cycle(&mut self, _net: &NetSnapshot) {
        // lr == 0 is the frozen-policy fixed point: no training, no
        // target syncs, no RNG draws — bit-identical to never learning.
        if self.cfg.lr == 0.0 || self.ring.is_empty() {
            return;
        }
        for _ in 0..self.cfg.batch_size {
            self.train_one();
        }
        self.train_ticks = self.train_ticks.wrapping_add(1);
        if self
            .train_ticks
            .is_multiple_of(self.cfg.target_sync_period.max(1))
        {
            self.target = self.net.clone();
        }
    }

    fn checkpoint_state(&self) -> Option<String> {
        let mut parts = vec![
            "v1".to_string(),
            format!(
                "{};{};{};{};{};{}",
                self.decisions,
                self.explored,
                self.train_ticks,
                self.rng_ctr,
                self.write,
                self.cum_reward.to_bits()
            ),
            mlp_to_str(&self.net),
            mlp_to_str(&self.target),
            self.ring.iter().map(exp_to_str).collect::<Vec<_>>().join(";"),
            self.pending
                .iter()
                .map(|(&(router, port), p)| {
                    format!(
                        "{router}:{port}:{}:{}:{}",
                        p.action,
                        p.reward.to_bits(),
                        f64s_to_csv(&p.state)
                    )
                })
                .collect::<Vec<_>>()
                .join(";"),
        ];
        // An empty trailing section must still occupy its slot.
        for p in &mut parts {
            if p.is_empty() {
                *p = "-".into();
            }
        }
        Some(parts.join("|"))
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let parts: Vec<&str> = state.split('|').collect();
        if parts.len() != 6 || parts[0] != "v1" {
            return Err(format!(
                "bad online-policy state (expected 6 v1 sections, got {})",
                parts.len()
            ));
        }
        let counters: Vec<&str> = parts[1].split(';').collect();
        if counters.len() != 6 {
            return Err("bad online-policy counter section".into());
        }
        let n = |s: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("bad number '{s}' in online-policy state"))
        };
        let net = mlp_from_str(parts[2])?;
        let target = mlp_from_str(parts[3])?;
        for (what, m) in [("network", &net), ("target", &target)] {
            if m.input_size() != self.encoder.state_width()
                || m.output_size() != self.encoder.num_slots()
            {
                return Err(format!("restored {what} shape does not match the encoder"));
            }
        }
        let mut ring = Vec::new();
        if parts[4] != "-" {
            for rec in parts[4].split(';') {
                ring.push(exp_from_str(rec)?);
            }
        }
        if ring.len() > self.capacity {
            return Err(format!(
                "restored ring holds {} experiences, capacity is {}",
                ring.len(),
                self.capacity
            ));
        }
        let width = self.encoder.state_width();
        let slots = self.encoder.num_slots();
        for e in &ring {
            if e.state.len() != width || e.next_state.len() != width {
                return Err(format!(
                    "restored experience has states of width {} and {}, the encoder's is {width}",
                    e.state.len(),
                    e.next_state.len()
                ));
            }
            if e.action >= slots || e.next_valid_slots.iter().any(|&s| usize::from(s) >= slots) {
                return Err(format!("restored experience names a slot outside 0..{slots}"));
            }
        }
        let mut pending = BTreeMap::new();
        if parts[5] != "-" {
            for rec in parts[5].split(';') {
                let f: Vec<&str> = rec.split(':').collect();
                if f.len() != 5 {
                    return Err("bad pending record in online-policy state".into());
                }
                let p = Pending {
                    action: n(f[2])? as usize,
                    reward: f64::from_bits(n(f[3])?),
                    state: f64s_from_csv(f[4])?,
                };
                if p.state.len() != width {
                    return Err(format!(
                        "restored pending state has width {}, the encoder's is {width}",
                        p.state.len()
                    ));
                }
                if p.action >= slots {
                    return Err(format!(
                        "restored pending action {} is outside 0..{slots}",
                        p.action
                    ));
                }
                pending.insert((n(f[0])? as usize, n(f[1])? as usize), p);
            }
        }
        let write = n(counters[4])? as usize;
        if write >= self.capacity {
            return Err(format!(
                "restored ring write index {write} is outside capacity {}",
                self.capacity
            ));
        }
        self.decisions = n(counters[0])?;
        self.explored = n(counters[1])?;
        self.train_ticks = n(counters[2])?;
        self.rng_ctr = n(counters[3])?;
        self.write = write;
        self.cum_reward = f64::from_bits(n(counters[5])?);
        self.net = net;
        self.target = target;
        self.ring = ring;
        self.pending = pending;
        Ok(())
    }
}

fn act_tag(a: Activation) -> u64 {
    match a {
        Activation::Identity => 0,
        Activation::Sigmoid => 1,
        Activation::Relu => 2,
        Activation::Tanh => 3,
    }
}

fn act_from_tag(t: u64) -> Result<Activation, String> {
    match t {
        0 => Ok(Activation::Identity),
        1 => Ok(Activation::Sigmoid),
        2 => Ok(Activation::Relu),
        3 => Ok(Activation::Tanh),
        other => Err(format!("unknown activation tag {other}")),
    }
}

fn f64s_to_csv(vals: &[f64]) -> String {
    vals.iter()
        .map(|v| v.to_bits().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn f64s_from_csv(s: &str) -> Result<Vec<f64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            t.parse::<u64>()
                .map(f64::from_bits)
                .map_err(|_| format!("bad f64 bits '{t}'"))
        })
        .collect()
}

fn u16s_to_csv(vals: &[u16]) -> String {
    vals.iter().map(u16::to_string).collect::<Vec<_>>().join(",")
}

/// Lossless text form of a network: layers joined by `/`, each
/// `inputs:outputs:activation:weight_bits_csv:bias_bits_csv` (floats as
/// IEEE-754 bit patterns). Stays within the simulator checkpoint codec's
/// clean-string subset.
fn mlp_to_str(m: &Mlp) -> String {
    m.layers()
        .iter()
        .map(|l| {
            let row_major: Vec<f64> = (0..l.outputs())
                .flat_map(|o| (0..l.inputs()).map(move |i| l.weight(o, i)))
                .collect();
            format!(
                "{}:{}:{}:{}:{}",
                l.inputs(),
                l.outputs(),
                act_tag(l.activation()),
                f64s_to_csv(&row_major),
                f64s_to_csv(l.biases())
            )
        })
        .collect::<Vec<_>>()
        .join("/")
}

fn mlp_from_str(s: &str) -> Result<Mlp, String> {
    let mut layers = Vec::new();
    for rec in s.split('/') {
        let f: Vec<&str> = rec.split(':').collect();
        if f.len() != 5 {
            return Err("bad layer record in online-policy state".into());
        }
        let inputs: usize = f[0].parse().map_err(|_| "bad layer inputs".to_string())?;
        let outputs: usize = f[1].parse().map_err(|_| "bad layer outputs".to_string())?;
        let act = act_from_tag(f[2].parse().map_err(|_| "bad activation tag".to_string())?)?;
        if inputs == 0 || outputs == 0 {
            return Err("zero layer width in online-policy state".into());
        }
        let weights = f64s_from_csv(f[3])?;
        let biases = f64s_from_csv(f[4])?;
        if inputs.checked_mul(outputs) != Some(weights.len()) || biases.len() != outputs {
            return Err("layer parameter shapes do not match in online-policy state".into());
        }
        layers.push(DenseLayer::from_parts(inputs, outputs, weights, biases, act));
    }
    if layers.windows(2).any(|pair| pair[0].outputs() != pair[1].inputs()) {
        return Err("layer widths do not chain in online-policy state".into());
    }
    Ok(Mlp::from_layers(layers))
}

fn exp_to_str(e: &Experience) -> String {
    format!(
        "{}:{}:{}:{}:{}",
        e.action,
        e.reward.to_bits(),
        f64s_to_csv(&e.state),
        f64s_to_csv(&e.next_state),
        u16s_to_csv(&e.next_valid_slots)
    )
}

fn exp_from_str(s: &str) -> Result<Experience, String> {
    let f: Vec<&str> = s.split(':').collect();
    if f.len() != 5 {
        return Err("bad experience record in online-policy state".into());
    }
    Ok(Experience {
        action: f[0].parse().map_err(|_| "bad action".to_string())?,
        reward: f64::from_bits(f[1].parse().map_err(|_| "bad reward bits".to_string())?),
        state: f64s_from_csv(f[2])?,
        next_state: f64s_from_csv(f[3])?,
        next_valid_slots: if f[4].is_empty() {
            Vec::new()
        } else {
            f[4].split(',')
                .map(|t| t.parse().map_err(|_| "bad slot".to_string()))
                .collect::<Result<_, String>>()?
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use noc_sim::{Candidate, DestType, FeatureBounds, Features, MsgType, NodeId, RouterId};

    fn encoder() -> StateEncoder {
        StateEncoder::new(5, 3, FeatureSet::synthetic(), FeatureBounds::for_mesh(4, 4))
    }

    fn policy(lr: f64, eps: f64, seed: u64) -> OnlinePolicy {
        let enc = encoder();
        let cfg = AgentConfig {
            lr,
            epsilon: eps,
            ..AgentConfig::tuned_synthetic(seed)
        };
        let net = Mlp::paper_agent(enc.state_width(), cfg.hidden, enc.num_slots(), seed);
        OnlinePolicy::new(net, enc, cfg)
    }

    fn cand(slot: usize, create: u64, la: u64) -> Candidate {
        Candidate {
            in_port: slot / 3,
            vnet: slot % 3,
            slot,
            features: Features {
                payload_size: 1,
                local_age: la,
                distance: 3,
                hop_count: 1,
                in_flight_from_src: 2,
                inter_arrival: 4,
                msg_type: MsgType::Request,
                dst_type: DestType::Core,
            },
            packet_id: slot as u64,
            create_cycle: create,
            arrival_cycle: create,
            src: NodeId(0),
            dst: NodeId(1),
            port_degraded: false,
        }
    }

    fn ctx<'a>(cands: &'a [Candidate], net: &'a NetSnapshot, cycle: u64) -> OutputCtx<'a> {
        OutputCtx {
            router: RouterId(1),
            out_port: 2,
            cycle,
            num_ports: 5,
            num_vnets: 3,
            candidates: cands,
            net,
        }
    }

    #[test]
    fn decisions_fill_replay_via_pending_chain() {
        let mut p = policy(0.05, 0.0, 7);
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 5, 10), cand(4, 1, 2)];
        assert_eq!(p.replay_len(), 0);
        p.select(&ctx(&cands, &net, 20));
        assert_eq!(p.replay_len(), 0);
        p.select(&ctx(&cands, &net, 21));
        assert_eq!(p.replay_len(), 1);
        assert_eq!(p.decisions(), 2);
    }

    #[test]
    fn zero_lr_never_trains_and_matches_frozen_decisions() {
        let enc = encoder();
        let net = Mlp::paper_agent(enc.state_width(), 15, enc.num_slots(), 11);
        let cfg = AgentConfig {
            lr: 0.0,
            epsilon: 0.0,
            ..AgentConfig::tuned_synthetic(11)
        };
        let mut online = OnlinePolicy::new(net.clone(), enc.clone(), cfg);
        let mut frozen = crate::NnPolicyArbiter::new(net, enc).with_epsilon(0.0);
        let snap = NetSnapshot::default();
        let cands = vec![cand(1, 5, 10), cand(7, 1, 2), cand(11, 3, 4)];
        for c in 0..200 {
            let x = ctx(&cands, &snap, c);
            assert_eq!(online.select(&x), frozen.select(&x), "cycle {c}");
            online.end_cycle(&snap);
        }
        assert_eq!(online.train_ticks(), 0);
        assert_eq!(online.explored(), 0);
    }

    #[test]
    fn learning_changes_the_network() {
        let mut p = policy(0.05, 0.3, 3);
        let before = mlp_to_str(p.network());
        let snap = NetSnapshot::default();
        let cands = vec![cand(0, 50, 10), cand(4, 1, 2)];
        for c in 0..300 {
            p.select(&ctx(&cands, &snap, c));
            p.end_cycle(&snap);
        }
        assert!(p.train_ticks() > 0);
        assert_ne!(mlp_to_str(p.network()), before, "weights never moved");
    }

    #[test]
    fn epsilon_schedule_decays() {
        let mut p = policy(0.0, 0.2, 5);
        assert!((p.epsilon_now() - 0.2).abs() < 1e-12);
        p.decisions = 10_000;
        assert!((p.epsilon_now() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn state_round_trips_exactly_mid_learning() {
        let mut p = policy(0.05, 0.3, 9);
        let snap = NetSnapshot::default();
        let cands = vec![cand(0, 50, 10), cand(4, 1, 2), cand(9, 7, 3)];
        for c in 0..120 {
            p.select(&ctx(&cands, &snap, c));
            p.end_cycle(&snap);
        }
        let state = p.checkpoint_state().expect("serializable");
        let mut q = policy(0.05, 0.3, 9);
        q.restore_state(&state).expect("restorable");
        assert_eq!(q.checkpoint_state().unwrap(), state, "round-trip drift");
        // The restored policy must continue identically.
        for c in 120..180 {
            let x = ctx(&cands, &snap, c);
            assert_eq!(p.select(&x), q.select(&x), "cycle {c}");
            p.end_cycle(&snap);
            q.end_cycle(&snap);
        }
        assert_eq!(
            p.checkpoint_state().unwrap(),
            q.checkpoint_state().unwrap()
        );
    }

    #[test]
    fn counters_restored_at_u64_max_wrap() {
        // An ε this large explores even at the decayed rate, so the
        // decision bumps `explored` as well as `decisions` and `rng_ctr`.
        let mut p = policy(0.05, f64::MAX, 4);
        let snap = NetSnapshot::default();
        let cands = vec![cand(0, 5, 10), cand(4, 1, 2)];
        p.select(&ctx(&cands, &snap, 0));
        p.select(&ctx(&cands, &snap, 1));
        let state = p.checkpoint_state().unwrap();
        let mut parts: Vec<&str> = state.split('|').collect();
        let counters: Vec<&str> = parts[1].split(';').collect();
        let max = u64::MAX;
        let at_max = format!("{max};{max};{max};{max};{};{}", counters[4], counters[5]);
        parts[1] = &at_max;
        p.restore_state(&parts.join("|")).unwrap();

        p.select(&ctx(&cands, &snap, 2));
        p.end_cycle(&snap);
        assert_eq!((p.decisions(), p.explored(), p.train_ticks()), (0, 0, 0));
        assert_eq!(p.rng_ctr, p.cfg.batch_size as u64);
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut p = policy(0.0, 0.0, 1);
        assert!(p.restore_state("").is_err());
        assert!(p.restore_state("v2|a|b|c|d|e").is_err());
        assert!(p.restore_state("v1|0;0;0;0;0|x|x|-|-").is_err());
    }

    /// A learning policy with a full ring of 8 and one pending transition,
    /// and its checkpoint split into the six `|` sections.
    fn full_ring_state() -> (OnlinePolicy, Vec<String>) {
        let enc = encoder();
        let cfg = AgentConfig {
            epsilon: 0.0,
            replay_capacity: 8,
            ..AgentConfig::tuned_synthetic(2)
        };
        let net = Mlp::paper_agent(enc.state_width(), cfg.hidden, enc.num_slots(), 2);
        let mut p = OnlinePolicy::new(net, enc, cfg);
        let snap = NetSnapshot::default();
        let cands = vec![cand(0, 5, 10), cand(4, 1, 2)];
        for c in 0..20 {
            p.select(&ctx(&cands, &snap, c));
            p.end_cycle(&snap);
        }
        assert_eq!((p.replay_len(), p.pending.len()), (8, 1));
        let state = p.checkpoint_state().unwrap();
        (p, state.split('|').map(str::to_string).collect())
    }

    /// The state with field `field` of the first `;` record of section
    /// `section` rewritten by `edit`.
    fn with_field(
        sections: &[String],
        section: usize,
        field: usize,
        edit: impl FnOnce(&str) -> String,
    ) -> String {
        let mut sections = sections.to_vec();
        let mut records: Vec<String> = sections[section].split(';').map(str::to_string).collect();
        let mut fields: Vec<String> = records[0].split(':').map(str::to_string).collect();
        fields[field] = edit(&fields[field]);
        records[0] = fields.join(":");
        sections[section] = records.join(";");
        sections.join("|")
    }

    /// `state` is refused with an error naming `what`, and the policy is
    /// left as it was; the unedited state still restores.
    fn assert_refused(p: &mut OnlinePolicy, sections: &[String], state: &str, what: &str) {
        let before = p.checkpoint_state().unwrap();
        let err = p.restore_state(state).expect_err("a state that panics later restored");
        assert!(err.contains(what), "{err}");
        assert_eq!(p.checkpoint_state().unwrap(), before, "a refused restore changed the policy");
        p.restore_state(&sections.join("|")).expect("the unedited state restores");
    }

    const RING: usize = 4;
    const PENDING: usize = 5;

    #[test]
    fn restore_refuses_a_write_index_outside_the_ring() {
        let (mut p, s) = full_ring_state();
        let with_write = |write: &str| {
            let mut s = s.clone();
            let mut counters: Vec<&str> = s[1].split(';').collect();
            counters[4] = write;
            s[1] = counters.join(";");
            s.join("|")
        };
        p.restore_state(&with_write("7")).expect("index 7 of a ring of 8");
        // Restored, index 1000 would panic in `push_ring` on the next
        // decision.
        for write in ["8", "1000"] {
            assert_refused(&mut p, &s, &with_write(write), "write index");
        }
    }

    #[test]
    fn restore_refuses_an_experience_state_of_the_wrong_width() {
        let (mut p, s) = full_ring_state();
        for field in [2, 3] {
            let state = with_field(&s, RING, field, |csv| {
                csv.rsplit_once(',').unwrap().0.to_string()
            });
            assert_refused(&mut p, &s, &state, "width");
        }
    }

    #[test]
    fn restore_refuses_a_pending_state_of_the_wrong_width() {
        let (mut p, s) = full_ring_state();
        let state = with_field(&s, PENDING, 4, |csv| format!("{csv},0"));
        assert_refused(&mut p, &s, &state, "width");
    }

    #[test]
    fn restore_refuses_an_experience_action_outside_the_slots() {
        let (mut p, s) = full_ring_state();
        let state = with_field(&s, RING, 0, |_| "15".into());
        assert_refused(&mut p, &s, &state, "slot");
    }

    #[test]
    fn restore_refuses_a_next_valid_slot_outside_the_slots() {
        let (mut p, s) = full_ring_state();
        let state = with_field(&s, RING, 4, |slots| format!("{slots},15"));
        assert_refused(&mut p, &s, &state, "slot");
    }

    #[test]
    fn restore_refuses_a_pending_action_outside_the_slots() {
        let (mut p, s) = full_ring_state();
        let state = with_field(&s, PENDING, 2, |_| "15".into());
        assert_refused(&mut p, &s, &state, "action");
    }

    #[test]
    fn restore_refuses_layers_that_do_not_chain() {
        let (mut p, s) = full_ring_state();
        // The first layer has 15 outputs; a second layer taking 16 inputs
        // must not reach `Mlp::from_layers`' assertion.
        let first = s[2].split('/').next().unwrap();
        let mut sections = s.clone();
        let zeros = |n: usize| vec!["0"; n].join(",");
        sections[2] = format!("{first}/16:15:2:{}:{}", zeros(16 * 15), zeros(15));
        assert_refused(&mut p, &s, &sections.join("|"), "chain");
    }

    #[test]
    fn ring_is_bounded_by_replay_capacity() {
        let enc = encoder();
        let cfg = AgentConfig {
            lr: 0.0,
            epsilon: 0.0,
            replay_capacity: 8,
            ..AgentConfig::tuned_synthetic(2)
        };
        let net = Mlp::paper_agent(enc.state_width(), cfg.hidden, enc.num_slots(), 2);
        let mut p = OnlinePolicy::new(net, enc, cfg);
        let snap = NetSnapshot::default();
        let cands = vec![cand(0, 5, 10), cand(4, 1, 2)];
        for c in 0..100 {
            p.select(&ctx(&cands, &snap, c));
        }
        assert_eq!(p.replay_len(), 8);
    }
}

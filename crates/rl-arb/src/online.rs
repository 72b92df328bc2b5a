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
use noc_sim::codec::{WordReader, Words};
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
        assert_eq!(
            net.input_size(),
            encoder.state_width(),
            "input width mismatch"
        );
        assert_eq!(
            net.output_size(),
            encoder.num_slots(),
            "output width mismatch"
        );
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
        let mut w = Words::default();
        for counter in [
            self.decisions,
            self.explored,
            self.train_ticks,
            self.rng_ctr,
        ] {
            w.u64(counter);
        }
        w.u64(self.write as u64).f64(self.cum_reward);
        put_mlp(&mut w, &self.net);
        put_mlp(&mut w, &self.target);
        w.len(self.ring.len());
        for e in &self.ring {
            w.u64(e.action as u64).f64(e.reward);
            put_f64s(&mut w, &e.state);
            put_f64s(&mut w, &e.next_state);
            w.len(e.next_valid_slots.len());
            for &slot in &e.next_valid_slots {
                w.u64(slot.into());
            }
        }
        w.len(self.pending.len());
        for (&(router, port), p) in &self.pending {
            w.u64(router as u64).u64(port as u64);
            w.u64(p.action as u64).f64(p.reward);
            put_f64s(&mut w, &p.state);
        }
        Some(w.finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let (width, slots) = (self.encoder.state_width(), self.encoder.num_slots());
        let mut r = Words::read("online-policy", state);
        let mut counters = [0; 4];
        for (c, what) in counters.iter_mut().zip(COUNTERS) {
            *c = r.u64(what)?;
        }
        let write = r.index("ring write index", self.capacity)?;
        let cum_reward = r.f64("cumulative reward")?;
        let net = read_mlp(&mut r, "network", width, slots)?;
        let target = read_mlp(&mut r, "target", width, slots)?;
        let mut ring = Vec::new();
        for _ in 0..r.index("ring length", self.capacity + 1)? {
            ring.push(Experience {
                action: r.index("experience action slot", slots)?,
                reward: r.f64("experience reward")?,
                state: read_state(&mut r, "experience state", width)?,
                next_state: read_state(&mut r, "experience next state", width)?,
                next_valid_slots: (0..r.len("next valid slots", 1)?)
                    .map(|_| r.index("next valid slot", slots).map(|s| s as u16))
                    .collect::<Result<_, _>>()?,
            });
        }
        let mut pending = BTreeMap::new();
        for _ in 0..r.len("pending transitions", 5)? {
            let key = (r.u64("router")? as usize, r.u64("port")? as usize);
            let transition = Pending {
                action: r.index("pending action slot", slots)?,
                reward: r.f64("pending reward")?,
                state: read_state(&mut r, "pending state", width)?,
            };
            pending.insert(key, transition);
        }
        r.end()?;
        (
            self.decisions,
            self.explored,
            self.train_ticks,
            self.rng_ctr,
        ) = counters.into();
        (self.write, self.cum_reward, self.net, self.target) = (write, cum_reward, net, target);
        (self.ring, self.pending) = (ring, pending);
        Ok(())
    }
}

/// The counters at the head of the state words.
const COUNTERS: [&str; 4] = ["decisions", "explored", "train ticks", "rng counter"];

/// Activation tags in the state words.
const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Sigmoid,
    Activation::Relu,
    Activation::Tanh,
];

/// Writes a float list, length first.
fn put_f64s(w: &mut Words, vals: &[f64]) {
    w.len(vals.len());
    for &v in vals {
        w.f64(v);
    }
}

/// Reads a float list written by [`put_f64s`], refusing one that is not
/// `width` long.
fn read_state(r: &mut WordReader<'_>, what: &str, width: usize) -> Result<Vec<f64>, String> {
    let n = r.len(what, 1)?;
    if n != width {
        return Err(r.fail(format_args!(
            "{what} has width {n}, the encoder's is {width}"
        )));
    }
    (0..n).map(|_| r.f64(what)).collect()
}

/// Writes a network losslessly: the layer count, then per layer its
/// activation tag, `inputs`, `outputs`, the row-major weights and the
/// biases.
fn put_mlp(w: &mut Words, m: &Mlp) {
    w.len(m.layers().len());
    for l in m.layers() {
        let tag = ACTIVATIONS.iter().position(|&a| a == l.activation());
        w.u64(tag.expect("every activation has a tag") as u64);
        w.len(l.inputs()).len(l.outputs());
        for o in 0..l.outputs() {
            for i in 0..l.inputs() {
                w.f64(l.weight(o, i));
            }
        }
        for &b in l.biases() {
            w.f64(b);
        }
    }
}

/// Reads a network written by [`put_mlp`], refusing layer shapes that are
/// zero, overflow, do not chain or do not map `width` inputs to `slots`
/// outputs.
fn read_mlp(r: &mut WordReader<'_>, what: &str, width: usize, slots: usize) -> Result<Mlp, String> {
    let mut layers: Vec<DenseLayer> = Vec::new();
    for _ in 0..r.len(what, 3)? {
        let act = ACTIVATIONS[r.index("activation tag", ACTIVATIONS.len())?];
        let inputs = r.u64("layer inputs")? as usize;
        // Each output takes `inputs` weights and a bias.
        let outputs = r.len("layer outputs", inputs.saturating_add(1))?;
        if inputs == 0 || outputs == 0 {
            return Err(r.fail("zero layer width"));
        }
        if layers.last().is_some_and(|l| l.outputs() != inputs) {
            return Err(r.fail("layer widths do not chain"));
        }
        let weights = (0..inputs * outputs).map(|_| r.f64("weight"));
        let weights = weights.collect::<Result<_, _>>()?;
        let biases = (0..outputs)
            .map(|_| r.f64("bias"))
            .collect::<Result<_, _>>()?;
        let layer = DenseLayer::from_parts(inputs, outputs, weights, biases, act);
        layers.push(layer);
    }
    match (layers.first(), layers.last()) {
        (Some(first), Some(last)) if first.inputs() == width && last.outputs() == slots => {
            Ok(Mlp::from_layers(layers))
        }
        _ => Err(r.fail(format_args!("{what} shape does not match the encoder"))),
    }
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
        let before = p.network().clone();
        let snap = NetSnapshot::default();
        let cands = vec![cand(0, 50, 10), cand(4, 1, 2)];
        for c in 0..300 {
            p.select(&ctx(&cands, &snap, c));
            p.end_cycle(&snap);
        }
        assert!(p.train_ticks() > 0);
        assert_ne!(p.network(), &before, "weights never moved");
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
        assert_eq!(p.checkpoint_state().unwrap(), q.checkpoint_state().unwrap());
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
        let mut at_max = p.clone();
        (at_max.decisions, at_max.explored) = (u64::MAX, u64::MAX);
        (at_max.train_ticks, at_max.rng_ctr) = (u64::MAX, u64::MAX);
        p.restore_state(&at_max.checkpoint_state().unwrap())
            .unwrap();

        p.select(&ctx(&cands, &snap, 2));
        p.end_cycle(&snap);
        assert_eq!((p.decisions(), p.explored(), p.train_ticks()), (0, 0, 0));
        assert_eq!(p.rng_ctr, p.cfg.batch_size as u64);
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut p = policy(0.0, 0.0, 1);
        let own = p.checkpoint_state().unwrap();
        for (state, what) in [
            ("", "decisions missing"),
            ("x", "\"x\" is not a u64"),
            ("0 0 0 0 0", "cumulative reward missing"),
            (&format!("{own} 0"), "1 words left unread"),
        ] {
            assert_refused_state(&mut p, state, what);
        }
    }

    /// A learning policy with a full ring of 8 and one pending transition.
    fn full_ring_policy() -> OnlinePolicy {
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
        p
    }

    /// `state` is refused with an error naming `what`, and the policy is
    /// left as it was; its own state still restores.
    fn assert_refused_state(p: &mut OnlinePolicy, state: &str, what: &str) {
        let before = p.checkpoint_state().unwrap();
        let err = p.restore_state(state).unwrap_err();
        assert!(err.contains(what), "{err}");
        assert_eq!(
            p.checkpoint_state().unwrap(),
            before,
            "a refusal changed the policy"
        );
        p.restore_state(&before).unwrap();
    }

    /// The state of a clone of `p` changed by `edit` is refused with an
    /// error naming `what`, and `p` is left as it was.
    fn assert_refused(p: &mut OnlinePolicy, what: &str, edit: impl FnOnce(&mut OnlinePolicy)) {
        let mut edited = p.clone();
        edit(&mut edited);
        assert_refused_state(p, &edited.checkpoint_state().unwrap(), what);
    }

    /// `p`'s state with word `at` (which reads `was`) replaced by `word`.
    fn with_word(p: &OnlinePolicy, at: usize, was: &str, word: &str) -> String {
        let state = p.checkpoint_state().unwrap();
        let mut words: Vec<&str> = state.split(' ').collect();
        assert_eq!(words[at], was, "word {at}");
        words[at] = word;
        words.join(" ")
    }

    #[test]
    fn restore_refuses_a_write_index_outside_the_ring() {
        let mut p = full_ring_policy();
        let mut last = p.clone();
        last.write = 7;
        p.restore_state(&last.checkpoint_state().unwrap()).unwrap();
        // Restored, index 1000 would panic in `push_ring` on the next
        // decision.
        for write in [8, 1000] {
            assert_refused(&mut p, "write index", |e| e.write = write);
        }
    }

    #[test]
    fn restore_refuses_a_ring_longer_than_the_capacity() {
        let mut p = full_ring_policy();
        assert_refused(&mut p, "ring length 9 is not below 9", |e| {
            e.capacity = 9;
            e.ring.push(e.ring[0].clone());
        });
    }

    #[test]
    fn restore_refuses_states_of_the_wrong_width() {
        let mut p = full_ring_policy();
        assert_refused(&mut p, "width", |e| e.ring[0].state.truncate(59));
        assert_refused(&mut p, "width", |e| e.ring[0].next_state.truncate(59));
        let pending = |e: &mut OnlinePolicy| e.pending.values_mut().next().unwrap().state.push(0.0);
        assert_refused(&mut p, "width", pending);
    }

    #[test]
    fn restore_refuses_actions_and_slots_outside_the_slots() {
        let mut p = full_ring_policy();
        assert_refused(&mut p, "slot", |e| e.ring[0].action = 15);
        assert_refused(&mut p, "slot", |e| e.ring[0].next_valid_slots.push(15));
        let pending = |e: &mut OnlinePolicy| e.pending.values_mut().next().unwrap().action = 15;
        assert_refused(&mut p, "action", pending);
    }

    /// Words 0-5 are the counters and word 6 the network's layer count;
    /// the first layer's activation tag, inputs and outputs follow.
    const FIRST_LAYER_INPUTS: usize = 8;

    #[test]
    fn restore_refuses_zero_and_overflowing_layer_shapes() {
        let mut p = full_ring_policy();
        let max = u64::MAX.to_string();
        let zero = with_word(&p, FIRST_LAYER_INPUTS, "60", "0");
        assert_refused_state(&mut p, &zero, "zero layer width");
        // `inputs` × `outputs` overflows; neither may reach an allocation.
        let wide = with_word(&p, FIRST_LAYER_INPUTS, "60", &max);
        assert_refused_state(&mut p, &wide, "runs past");
        let tall = with_word(&p, FIRST_LAYER_INPUTS + 1, "15", &max);
        assert_refused_state(&mut p, &tall, "runs past");
    }

    #[test]
    fn restore_refuses_layers_that_do_not_chain() {
        let mut p = full_ring_policy();
        // The first layer has 15 outputs; a second layer taking 16 inputs
        // must not reach `Mlp::from_layers`' assertion.
        let first = &p.network().layers()[0];
        // After the first layer's outputs word come its weights and
        // biases, then the second layer's activation tag and inputs.
        let second_inputs = FIRST_LAYER_INPUTS + 3 + (first.inputs() + 1) * first.outputs();
        let state = with_word(&p, second_inputs, "15", "16");
        assert_refused_state(&mut p, &state, "chain");
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

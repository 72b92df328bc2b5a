//! The deep-Q-learning arbitration agent (paper §3.1, §4.5–§4.6).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use nn_mlp::{Mlp, QuantScratch, QuantizedMlp};
use noc_sim::{Arbiter, NetSnapshot, OutputCtx, RouterCtx, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::features::StateEncoder;
use crate::replay::{Experience, PrioritizedReplay, ReplayMemory};
use crate::reward::RewardKind;

/// Hyperparameters of the DQN agent.
///
/// Defaults follow §4.6: learning rate 0.001, discount 0.9, exploration
/// 0.001, 4000-entry replay memory, batches of two sampled every cycle,
/// sigmoid hidden layer and ReLU output.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// Hidden-layer width (15 for the synthetic study, 42 for the APU).
    pub hidden: usize,
    /// SGD learning rate α.
    pub lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Exploration rate ε.
    pub epsilon: f64,
    /// Records sampled from replay per training tick.
    pub batch_size: usize,
    /// Replay memory capacity.
    pub replay_capacity: usize,
    /// Training ticks between target-network synchronizations.
    pub target_sync_period: u64,
    /// Per-element gradient clip (stabilizes training, §6.2).
    pub grad_clip: f64,
    /// Reward function.
    pub reward: RewardKind,
    /// Use Double DQN targets: the online network picks the argmax action,
    /// the target network evaluates it. Reduces the max-operator's
    /// overestimation bias (van Hasselt et al.); off in the paper-faithful
    /// configurations.
    pub double_dqn: bool,
    /// Prioritized experience replay: `Some(alpha)` samples transitions
    /// proportionally to `|TD error|^alpha` instead of uniformly; `None`
    /// (the paper-faithful setting) keeps uniform replay.
    pub prioritized: Option<f64>,
    /// Seed for weight init, exploration and replay sampling.
    pub seed: u64,
}

impl AgentConfig {
    /// The shared §4.6 baseline every named configuration is a delta of.
    fn base(hidden: usize, seed: u64) -> Self {
        AgentConfig {
            hidden,
            lr: 0.001,
            gamma: 0.9,
            epsilon: 0.001,
            batch_size: 2,
            replay_capacity: 4000,
            target_sync_period: 500,
            grad_clip: 1.0,
            reward: RewardKind::GlobalAge,
            double_dqn: false,
            prioritized: None,
            seed,
        }
    }

    /// This reproduction's tuning delta on the paper baseline: faster
    /// learning (α 0.001 → 0.05), much shorter horizon (γ 0.9 → 0.2),
    /// more exploration (ε 0.001 → 0.05), bigger batches (2 → 16).
    fn tuned(hidden: usize, seed: u64) -> Self {
        AgentConfig {
            lr: 0.05,
            gamma: 0.2,
            epsilon: 0.05,
            batch_size: 16,
            ..AgentConfig::base(hidden, seed)
        }
    }

    /// The §3.2 synthetic-study configuration (15 hidden neurons).
    pub fn paper_synthetic(seed: u64) -> Self {
        AgentConfig::base(15, seed)
    }

    /// Hyperparameters tuned *for this reproduction's substrate* (the
    /// paper's §3.2 values are kept in [`AgentConfig::paper_synthetic`]).
    /// Tuning the learning rate, batch size, discount factor and
    /// exploration rate was — exactly as the paper warns — a substantial
    /// human effort; the decisive change was lowering γ from 0.9 to 0.2 so
    /// the ±1 oracle reward is not buried under the action-independent
    /// bootstrapped future term.
    pub fn tuned_synthetic(seed: u64) -> Self {
        AgentConfig::tuned(15, seed)
    }

    /// The tuned configuration at APU scale (42 hidden neurons).
    pub fn tuned_apu(seed: u64) -> Self {
        AgentConfig::tuned(42, seed)
    }

    /// Hyperparameters for *in-deployment* online learning
    /// ([`OnlinePolicy`](crate::OnlinePolicy) warm-started from a trained
    /// artifact). Relative to [`tuned_synthetic`](AgentConfig::tuned_synthetic),
    /// exploration drops to the frozen arbiter's deployment rate
    /// (ε 0.05 → 0.01) — the network is already competent, so extra random
    /// arbitration mostly adds latency during the very drain phase that
    /// recovery time is measured on, and matching the frozen baseline's ε
    /// isolates the effect of the weight updates — and the horizon grows
    /// slightly (γ 0.2 → 0.3): fault-induced congestion persists across
    /// decisions, so the bootstrapped future term carries real signal
    /// during exactly the windows this policy exists for.
    pub fn tuned_online(seed: u64) -> Self {
        AgentConfig {
            epsilon: 0.01,
            gamma: 0.3,
            ..AgentConfig::tuned(15, seed)
        }
    }

    /// Serializes the hyperparameters as ordered `agent.*` key/value
    /// strings for the checkpoint `config` section, where they record
    /// what trained the stored network. Floats use Rust's shortest
    /// round-trip form.
    pub fn config_entries(&self) -> Vec<(String, String)> {
        let float = |v: f64| format!("{v:?}");
        vec![
            ("agent.hidden".into(), self.hidden.to_string()),
            ("agent.lr".into(), float(self.lr)),
            ("agent.gamma".into(), float(self.gamma)),
            ("agent.epsilon".into(), float(self.epsilon)),
            ("agent.batch_size".into(), self.batch_size.to_string()),
            ("agent.replay_capacity".into(), self.replay_capacity.to_string()),
            ("agent.target_sync_period".into(), self.target_sync_period.to_string()),
            ("agent.grad_clip".into(), float(self.grad_clip)),
            ("agent.reward".into(), self.reward.label().into()),
            ("agent.double_dqn".into(), self.double_dqn.to_string()),
            (
                "agent.prioritized".into(),
                match self.prioritized {
                    Some(alpha) => float(alpha),
                    None => "none".into(),
                },
            ),
            ("agent.seed".into(), self.seed.to_string()),
        ]
    }

    /// Replaces the reward function.
    pub fn with_reward(mut self, reward: RewardKind) -> Self {
        self.reward = reward;
        self
    }

    /// Replaces the exploration rate.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Enables Double DQN targets.
    pub fn with_double_dqn(mut self, on: bool) -> Self {
        self.double_dqn = on;
        self
    }

    /// Enables prioritized replay with the given alpha.
    pub fn with_prioritized(mut self, alpha: f64) -> Self {
        self.prioritized = Some(alpha);
        self
    }
}

/// The agent's replay store: uniform (paper-faithful) or prioritized.
#[derive(Debug)]
enum Replay {
    Uniform(ReplayMemory),
    Prioritized(PrioritizedReplay),
}

impl Replay {
    fn len(&self) -> usize {
        match self {
            Replay::Uniform(m) => m.len(),
            Replay::Prioritized(m) => m.len(),
        }
    }

    fn push(&mut self, exp: Experience) {
        match self {
            Replay::Uniform(m) => m.push(exp),
            Replay::Prioritized(m) => m.push(exp),
        }
    }
}

/// The deep-Q-learning agent shared by all routers (paper Fig. 3).
///
/// Every contended output port queries the agent each cycle; the agent
/// encodes the router state, produces a Q-value per input buffer, picks
/// ε-greedily among the competing buffers, computes the immediate reward,
/// and completes the previous `⟨s, a, r, s′⟩` tuple for that (router,
/// output) into replay memory. Once per cycle it trains on a random batch
/// and periodically syncs its target network.
#[derive(Debug)]
pub struct DqnAgent {
    encoder: StateEncoder,
    net: Mlp,
    target: Mlp,
    replay: Replay,
    cfg: AgentConfig,
    /// Last (state, action-slot, reward) per (router, output port).
    pending: HashMap<(RouterId, usize), (Vec<f64>, usize, f64)>,
    rng: StdRng,
    train_ticks: u64,
    decisions: u64,
    explored: u64,
    cumulative_reward: f64,
}

impl DqnAgent {
    /// Creates an agent for routers described by `encoder`.
    pub fn new(encoder: StateEncoder, cfg: AgentConfig) -> Self {
        let net = Mlp::paper_agent(
            encoder.state_width(),
            cfg.hidden,
            encoder.num_slots(),
            cfg.seed,
        );
        let target = net.clone();
        let replay = match cfg.prioritized {
            Some(alpha) => Replay::Prioritized(PrioritizedReplay::new(
                cfg.replay_capacity,
                alpha,
                cfg.seed.wrapping_add(1),
            )),
            None => Replay::Uniform(ReplayMemory::new(
                cfg.replay_capacity,
                cfg.seed.wrapping_add(1),
            )),
        };
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(2));
        DqnAgent {
            encoder,
            net,
            target,
            replay,
            cfg,
            pending: HashMap::new(),
            rng,
            train_ticks: 0,
            decisions: 0,
            explored: 0,
            cumulative_reward: 0.0,
        }
    }

    /// The online Q-network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// The state encoder.
    pub fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The agent configuration.
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

    /// Sum of immediate rewards over all decisions.
    pub fn cumulative_reward(&self) -> f64 {
        self.cumulative_reward
    }

    /// Experiences currently in replay memory.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Chooses a candidate index for one arbitration and performs the
    /// bookkeeping that feeds replay memory.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.candidates` is empty.
    pub fn decide(&mut self, ctx: &OutputCtx<'_>) -> usize {
        assert!(!ctx.candidates.is_empty(), "decide() with no candidates");
        let state = self.encoder.encode(ctx);
        let chosen = if self.rng.gen::<f64>() < self.cfg.epsilon {
            self.explored += 1;
            self.rng.gen_range(0..ctx.candidates.len())
        } else {
            greedy_choice(&self.net, &self.encoder, ctx)
        };
        let reward = self.cfg.reward.compute(ctx, chosen);
        self.decisions += 1;
        self.cumulative_reward += reward;

        // Complete the previous tuple for this (router, output): its next
        // state is the state we just observed (paper Fig. 3, step 1), and
        // the Bellman backup may only maximize over the buffers that are
        // actually competing in it.
        let key = (ctx.router, ctx.out_port);
        if let Some((prev_s, prev_a, prev_r)) = self.pending.remove(&key) {
            self.replay.push(Experience {
                state: prev_s,
                action: prev_a,
                next_state: state.clone(),
                next_valid_slots: ctx.candidates.iter().map(|c| c.slot as u16).collect(),
                reward: prev_r,
            });
        }
        self.pending
            .insert(key, (state, ctx.candidates[chosen].slot, reward));
        chosen
    }

    /// One training tick: sample a batch, apply Bellman targets through the
    /// target network, and periodically re-sync the target (paper §3.1.2,
    /// experience replay + second target network).
    pub fn train_tick(&mut self) {
        if self.replay.len() == 0 {
            return;
        }
        // (experience, replay index for priority feedback — None when
        // replay is uniform).
        let batch: Vec<(Experience, Option<usize>)> = match &mut self.replay {
            Replay::Uniform(m) => m
                .sample(self.cfg.batch_size)
                .into_iter()
                .map(|e| (e.clone(), None))
                .collect(),
            Replay::Prioritized(m) => m
                .sample_indices(self.cfg.batch_size)
                .into_iter()
                .map(|i| (m.get(i).clone(), Some(i)))
                .collect(),
        };
        for (exp, replay_index) in batch {
            let mut target_q = self.net.forward(&exp.state);
            let next_q = self.target.forward(&exp.next_state);
            // Maximize only over the buffers competing in the next state;
            // Q-values of empty slots are meaningless.
            let best_next = if self.cfg.double_dqn {
                // Double DQN: online net selects, target net evaluates.
                let online_next = self.net.forward(&exp.next_state);
                let chosen = exp
                    .next_valid_slots
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        online_next[a as usize]
                            .partial_cmp(&online_next[b as usize])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("next_valid_slots is never empty");
                next_q[chosen as usize]
            } else {
                exp.next_valid_slots
                    .iter()
                    .map(|&s| next_q[s as usize])
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let old_q = target_q[exp.action];
            let target_val = exp.reward + self.cfg.gamma * best_next;
            target_q[exp.action] = target_val;
            if let (Some(i), Replay::Prioritized(m)) = (replay_index, &mut self.replay) {
                m.update_priority(i, target_val - old_q);
            }
            self.net
                .train_sse(&exp.state, &target_q, self.cfg.lr, self.cfg.grad_clip);
        }
        self.train_ticks += 1;
        if self.train_ticks.is_multiple_of(self.cfg.target_sync_period) {
            self.target = self.net.clone();
        }
    }

    /// Freezes the current network into an inference-only policy (the
    /// paper's impractical-but-strong "NN" arbiter).
    pub fn freeze(&self) -> NnPolicyArbiter {
        NnPolicyArbiter::new(self.net.clone(), self.encoder.clone())
    }

    /// Wraps the agent in a shared handle usable as a simulator arbiter.
    pub fn into_shared(self) -> SharedAgent {
        SharedAgent(Rc::new(RefCell::new(self)))
    }
}

/// A shared, reference-counted handle to a [`DqnAgent`], so the trainer can
/// keep access to the agent while the simulator owns the arbiter.
#[derive(Debug, Clone)]
pub struct SharedAgent(Rc<RefCell<DqnAgent>>);

impl SharedAgent {
    /// An arbiter handle that trains the agent online (exploration +
    /// replay + per-cycle training).
    pub fn training_arbiter(&self) -> RlAgentArbiter {
        RlAgentArbiter {
            agent: Rc::clone(&self.0),
        }
    }

    /// Runs a closure with the agent borrowed.
    pub fn with<R>(&self, f: impl FnOnce(&DqnAgent) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Recovers the agent once all other handles are dropped.
    ///
    /// # Panics
    ///
    /// Panics if arbiter handles are still alive.
    pub fn into_inner(self) -> DqnAgent {
        Rc::try_unwrap(self.0)
            .expect("other handles to the agent still exist")
            .into_inner()
    }
}

/// The simulator-facing arbiter backed by a shared [`DqnAgent`].
#[derive(Debug)]
pub struct RlAgentArbiter {
    agent: Rc<RefCell<DqnAgent>>,
}

impl Arbiter for RlAgentArbiter {
    fn name(&self) -> String {
        "RL-agent (training)".into()
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        Some(self.agent.borrow_mut().decide(ctx))
    }

    fn end_cycle(&mut self, _net: &NetSnapshot) {
        self.agent.borrow_mut().train_tick();
    }

    fn checkpoint_state(&self) -> Option<String> {
        // The shared DQN agent mutates its replay buffer, exploration RNG,
        // and network weights mid-run; none of that has a stable
        // serialization here.
        None
    }
}

/// Greedy argmax over candidate slots given a Q-network.
///
/// Exact Q-value ties (common once features alias under congestion) are
/// broken by a rotating pointer keyed to the cycle — the same fair
/// tie-break a hardware select-max with a round-robin pointer would use.
/// Without this, deterministic lowest-slot ties persistently starve
/// high-index buffers whenever states alias.
pub(crate) fn greedy_choice(net: &Mlp, encoder: &StateEncoder, ctx: &OutputCtx<'_>) -> usize {
    let mut scratch = InferenceScratch::default();
    greedy_choice_with(net, encoder, ctx, &mut scratch)
}

/// Reusable buffers for one inference site: the encoded state vector plus
/// the network's activation ping-pong. After warm-up, a greedy decision
/// through [`greedy_choice_with`] performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct InferenceScratch {
    state: Vec<f64>,
    nn: nn_mlp::Scratch,
}

/// [`greedy_choice`] on caller-owned scratch buffers (the per-decision hot
/// path of the frozen NN arbiter).
pub(crate) fn greedy_choice_with(
    net: &Mlp,
    encoder: &StateEncoder,
    ctx: &OutputCtx<'_>,
    scratch: &mut InferenceScratch,
) -> usize {
    encoder.encode_into(ctx, &mut scratch.state);
    let q = net.forward_into(&scratch.state, &mut scratch.nn);
    argmax_rotating(q, encoder.num_slots(), ctx)
}

/// The candidate argmax over a Q-value vector (one entry per action slot),
/// with the rotating tie-break described on [`greedy_choice`]. Factored out
/// so the scalar, batched and INT8 paths share one decision rule — given
/// the same Q-values they pick the same candidate.
pub(crate) fn argmax_rotating(q: &[f64], slots: usize, ctx: &OutputCtx<'_>) -> usize {
    let ptr = (ctx.cycle as usize).wrapping_mul(7) % slots;
    ctx.candidates
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            let rot = |s: usize| (s + slots - ptr) % slots;
            q[a.slot]
                .partial_cmp(&q[b.slot])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(rot(b.slot).cmp(&rot(a.slot)))
        })
        .map(|(i, _)| i)
        .expect("select called with empty candidates")
}

/// Numeric datapath of the frozen policy's inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferenceMode {
    /// Full-precision float inference (the default; the software model
    /// computes in `f64`).
    #[default]
    F32,
    /// INT8 fixed-point inference through [`QuantizedMlp`] — symmetric
    /// per-layer weight quantization with `i32` accumulators, the paper's
    /// Table 3 hardware datapath.
    Int8,
}

impl InferenceMode {
    /// The CLI spelling (`--inference <label>`).
    pub fn label(self) -> &'static str {
        match self {
            InferenceMode::F32 => "f32",
            InferenceMode::Int8 => "int8",
        }
    }
}

impl std::str::FromStr for InferenceMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(InferenceMode::F32),
            "int8" => Ok(InferenceMode::Int8),
            other => Err(format!(
                "unknown inference mode '{other}' (expected 'f32' or 'int8')"
            )),
        }
    }
}

/// The frozen inference-only policy — the paper's "NN" arbiter, which is
/// too slow/large for real hardware (Table 3) but serves as the
/// achievability bound the distilled policy is measured against.
///
/// Inference is batched per router: [`Arbiter::plan_router`] encodes every
/// contended output port's state and runs **one** network pass over the
/// whole batch, and [`Arbiter::select`] reads the precomputed Q-row. Each
/// batch row is bit-identical to a scalar pass over the same state (see
/// [`Mlp::forward_batch_into`]), so batching never changes a decision;
/// when an earlier grant filtered an output's candidate list after the
/// plan, `select` falls back to a scalar pass on the filtered state —
/// exactly what the unbatched arbiter would have computed.
#[derive(Debug, Clone)]
pub struct NnPolicyArbiter {
    net: Mlp,
    encoder: StateEncoder,
    epsilon: f64,
    rng: StdRng,
    scratch: InferenceScratch,
    mode: InferenceMode,
    /// Built lazily from `net` the first time INT8 inference runs.
    qnet: Option<QuantizedMlp>,
    qscratch: QuantScratch,
    /// Per-router batching on/off (on by default; the scalar path exists
    /// for the batched-equivalence property tests).
    batched: bool,
    /// `(out_port, candidate count)` per planned row, in batch order.
    plan: Vec<(usize, usize)>,
    plan_router: RouterId,
    plan_cycle: u64,
    /// Row-major Q-values for the planned rows (`num_slots()` per row).
    q_rows: Vec<f64>,
    batch_in: Vec<f64>,
    batch_scratch: nn_mlp::Scratch,
}

impl NnPolicyArbiter {
    /// Creates the policy from a trained network and its encoder.
    ///
    /// The deployed policy keeps the small ε-randomization of the paper's
    /// Algorithm 1 (line 10): without it, recurring aliased states make the
    /// arbiter's preferences between specific buffers permanent, and the
    /// losing buffers starve. Defaults to ε = 0.01; see
    /// [`NnPolicyArbiter::with_epsilon`].
    ///
    /// # Panics
    ///
    /// Panics if the network shape does not match the encoder.
    pub fn new(net: Mlp, encoder: StateEncoder) -> Self {
        assert_eq!(net.input_size(), encoder.state_width(), "input width mismatch");
        assert_eq!(net.output_size(), encoder.num_slots(), "output width mismatch");
        NnPolicyArbiter {
            net,
            encoder,
            epsilon: 0.01,
            rng: StdRng::seed_from_u64(0x9e3779b97f4a7c15),
            scratch: InferenceScratch::default(),
            mode: InferenceMode::F32,
            qnet: None,
            qscratch: QuantScratch::default(),
            batched: true,
            plan: Vec::new(),
            plan_router: RouterId(usize::MAX),
            plan_cycle: u64::MAX,
            q_rows: Vec::new(),
            batch_in: Vec::new(),
            batch_scratch: nn_mlp::Scratch::default(),
        }
    }

    /// Overrides the deployment exploration rate (0 disables).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Selects the numeric inference datapath. [`InferenceMode::Int8`]
    /// quantizes the trained network once (symmetric per-layer scales) and
    /// runs every decision through the fixed-point model.
    pub fn with_inference(mut self, mode: InferenceMode) -> Self {
        self.mode = mode;
        if mode == InferenceMode::Int8 && self.qnet.is_none() {
            self.qnet = Some(QuantizedMlp::from_mlp(&self.net));
        }
        self
    }

    /// Enables or disables per-router batched inference. Batching is on by
    /// default and decision-for-decision identical to the scalar path; the
    /// off switch exists so equivalence tests can run both and compare.
    pub fn with_batched(mut self, on: bool) -> Self {
        self.batched = on;
        self
    }

    /// The underlying network (e.g. for interpretability analysis).
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// The state encoder.
    pub fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// Scalar (unbatched) greedy decision on the active datapath.
    fn scalar_choice(&mut self, ctx: &OutputCtx<'_>) -> usize {
        match self.mode {
            InferenceMode::F32 => {
                greedy_choice_with(&self.net, &self.encoder, ctx, &mut self.scratch)
            }
            InferenceMode::Int8 => {
                let qnet = self
                    .qnet
                    .get_or_insert_with(|| QuantizedMlp::from_mlp(&self.net));
                self.encoder.encode_into(ctx, &mut self.scratch.state);
                let q = qnet.forward_into(&self.scratch.state, &mut self.qscratch);
                argmax_rotating(q, self.encoder.num_slots(), ctx)
            }
        }
    }
}

impl Arbiter for NnPolicyArbiter {
    fn name(&self) -> String {
        "NN".into()
    }

    fn plan_router(&mut self, ctx: &RouterCtx<'_>) {
        self.plan.clear();
        // Batching only pays when there is more than one contended output to
        // amortize the network pass over: with a single output the eager plan
        // would do exactly the work `select` does on demand, plus copies.
        if !self.batched || ctx.outputs.len() < 2 {
            return;
        }
        // Encode every contended output's state into one row-major batch …
        self.batch_in.clear();
        for &(out_port, ref cands) in ctx.outputs {
            let octx = OutputCtx {
                router: ctx.router,
                out_port,
                cycle: ctx.cycle,
                num_ports: ctx.num_ports,
                num_vnets: ctx.num_vnets,
                candidates: cands,
                net: ctx.net,
            };
            self.encoder.encode_append(&octx, &mut self.batch_in);
            self.plan.push((out_port, cands.len()));
        }
        // … and run one network pass over the whole router.
        let rows = self.plan.len();
        self.q_rows.clear();
        match self.mode {
            InferenceMode::F32 => {
                let q = self
                    .net
                    .forward_batch_into(&self.batch_in, rows, &mut self.batch_scratch);
                self.q_rows.extend_from_slice(q);
            }
            InferenceMode::Int8 => {
                let qnet = self
                    .qnet
                    .get_or_insert_with(|| QuantizedMlp::from_mlp(&self.net));
                let q = qnet.forward_batch_into(&self.batch_in, rows, &mut self.qscratch);
                self.q_rows.extend_from_slice(q);
            }
        }
        self.plan_router = ctx.router;
        self.plan_cycle = ctx.cycle;
    }

    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        if self.epsilon > 0.0 && self.rng.gen::<f64>() < self.epsilon {
            return Some(self.rng.gen_range(0..ctx.candidates.len()));
        }
        // Batched fast path: reuse the Q-row computed in `plan_router`. The
        // row is only valid if the candidate list is the one that was
        // encoded — grants to earlier output ports of this router may have
        // filtered it, which only ever *shrinks* the list, so an equal
        // length means an identical list (and an identical encoded state).
        if self.plan_router == ctx.router && self.plan_cycle == ctx.cycle {
            if let Some(row) = self.plan.iter().position(|&(p, _)| p == ctx.out_port) {
                if self.plan[row].1 == ctx.candidates.len() {
                    let w = self.encoder.num_slots();
                    let q = &self.q_rows[row * w..(row + 1) * w];
                    return Some(argmax_rotating(q, w, ctx));
                }
            }
        }
        Some(self.scalar_choice(ctx))
    }

    fn checkpoint_state(&self) -> Option<String> {
        // Greedy inference (ε == 0) is a pure function of the frozen
        // weights and the cycle-guarded batch plan — stateless across a
        // cycle boundary. ε > 0 draws from an exploration RNG whose stream
        // position we do not serialize.
        if self.epsilon == 0.0 {
            Some(String::new())
        } else {
            None
        }
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        if self.epsilon == 0.0 && state.is_empty() {
            Ok(())
        } else {
            Err(format!("bad NN arbiter state {state:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use noc_sim::{Candidate, DestType, FeatureBounds, Features, MsgType, NodeId};

    fn encoder() -> StateEncoder {
        StateEncoder::new(5, 3, FeatureSet::synthetic(), FeatureBounds::for_mesh(4, 4))
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
    fn decide_fills_replay_via_pending_chain() {
        let mut agent = DqnAgent::new(encoder(), AgentConfig::paper_synthetic(7));
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 5, 10), cand(4, 1, 2)];
        assert_eq!(agent.replay_len(), 0);
        agent.decide(&ctx(&cands, &net, 20));
        // First decision: tuple still pending, nothing in replay.
        assert_eq!(agent.replay_len(), 0);
        agent.decide(&ctx(&cands, &net, 21));
        // Second decision at the same (router, port) completes the tuple.
        assert_eq!(agent.replay_len(), 1);
        assert_eq!(agent.decisions(), 2);
    }

    #[test]
    fn rewards_accumulate_with_global_age_oracle() {
        let mut agent = DqnAgent::new(
            encoder(),
            AgentConfig::paper_synthetic(7).with_epsilon(0.0),
        );
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 5, 10), cand(4, 1, 2)];
        for c in 0..50 {
            agent.decide(&ctx(&cands, &net, c));
        }
        // Reward is 0 or 1 per decision.
        assert!(agent.cumulative_reward() >= 0.0);
        assert!(agent.cumulative_reward() <= 50.0);
    }

    #[test]
    fn exploration_rate_controls_random_actions() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 5, 10), cand(4, 1, 2)];
        let mut always = DqnAgent::new(
            encoder(),
            AgentConfig::paper_synthetic(7).with_epsilon(1.0),
        );
        for c in 0..100 {
            always.decide(&ctx(&cands, &net, c));
        }
        assert_eq!(always.explored(), 100);
        let mut never = DqnAgent::new(
            encoder(),
            AgentConfig::paper_synthetic(7).with_epsilon(0.0),
        );
        for c in 0..100 {
            never.decide(&ctx(&cands, &net, c));
        }
        assert_eq!(never.explored(), 0);
    }

    #[test]
    fn training_drives_q_toward_rewarded_action() {
        // Candidate in slot 4 is always globally oldest ⇒ reward 1 for
        // picking it. After training, its Q-value should dominate slot 0's
        // for this state.
        let cfg = AgentConfig {
            epsilon: 0.5, // explore enough to see both actions
            lr: 0.05,
            ..AgentConfig::paper_synthetic(3)
        };
        let mut agent = DqnAgent::new(encoder(), cfg);
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 50, 10), cand(4, 1, 2)];
        for c in 0..2000 {
            let x = ctx(&cands, &net, c);
            agent.decide(&x);
            agent.train_tick();
        }
        let x = ctx(&cands, &net, 3000);
        let state = agent.encoder().encode(&x);
        let q = agent.network().forward(&state);
        assert!(
            q[4] > q[0],
            "Q(oldest)={} should beat Q(newest)={}",
            q[4],
            q[0]
        );
    }

    #[test]
    fn frozen_policy_matches_greedy_agent_choice() {
        let mut agent = DqnAgent::new(
            encoder(),
            AgentConfig::paper_synthetic(9).with_epsilon(0.0),
        );
        let net = NetSnapshot::default();
        let cands = vec![cand(1, 5, 10), cand(7, 1, 2), cand(11, 3, 4)];
        let x = ctx(&cands, &net, 5);
        let live = agent.decide(&x);
        let mut frozen = agent.freeze().with_epsilon(0.0);
        assert_eq!(frozen.select(&x), Some(live));
        assert_eq!(frozen.name(), "NN");
    }

    #[test]
    fn double_dqn_trains_and_differs_from_vanilla() {
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 50, 10), cand(4, 1, 2)];
        let mk = |double| {
            let cfg = AgentConfig {
                epsilon: 0.5,
                lr: 0.05,
                double_dqn: double,
                ..AgentConfig::paper_synthetic(3)
            };
            let mut agent = DqnAgent::new(encoder(), cfg);
            for c in 0..500 {
                let x = ctx(&cands, &net, c);
                agent.decide(&x);
                agent.train_tick();
            }
            agent
        };
        let vanilla = mk(false);
        let double = mk(true);
        assert_eq!(double.decisions(), vanilla.decisions());
        // Double DQN must learn the same preference: the always-oldest
        // candidate (slot 4) ends with the higher Q-value.
        let x = ctx(&cands, &net, 1_000);
        let state = double.encoder().encode(&x);
        let q = double.network().forward(&state);
        assert!(q[4] > q[0], "double DQN failed to learn: {q:?}");
    }

    #[test]
    fn prioritized_replay_agent_trains() {
        let cfg = AgentConfig {
            epsilon: 0.5,
            lr: 0.05,
            ..AgentConfig::paper_synthetic(3)
        }
        .with_prioritized(0.7);
        let mut agent = DqnAgent::new(encoder(), cfg);
        let net = NetSnapshot::default();
        let cands = vec![cand(0, 50, 10), cand(4, 1, 2)];
        for c in 0..1500 {
            let x = ctx(&cands, &net, c);
            agent.decide(&x);
            agent.train_tick();
        }
        let x = ctx(&cands, &net, 2000);
        let state = agent.encoder().encode(&x);
        let q = agent.network().forward(&state);
        assert!(q[4] > q[0], "prioritized agent failed to learn: {q:?}");
        assert!(agent.replay_len() > 0);
    }

    #[test]
    fn shared_handles_roundtrip() {
        let agent = DqnAgent::new(encoder(), AgentConfig::paper_synthetic(1));
        let shared = agent.into_shared();
        let arb = shared.training_arbiter();
        assert_eq!(arb.name(), "RL-agent (training)");
        drop(arb);
        let agent = shared.into_inner();
        assert_eq!(agent.decisions(), 0);
    }

    #[test]
    #[should_panic(expected = "still exist")]
    fn into_inner_with_live_handles_panics() {
        let shared = DqnAgent::new(encoder(), AgentConfig::paper_synthetic(1)).into_shared();
        let _arb = shared.clone().training_arbiter();
        let _ = shared.into_inner();
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn mismatched_nn_policy_rejected() {
        let net = Mlp::paper_agent(10, 4, 15, 0);
        NnPolicyArbiter::new(net, encoder());
    }
}

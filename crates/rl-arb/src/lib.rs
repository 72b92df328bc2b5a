//! # rl-arb — deep-Q-learning NoC arbitration
//!
//! The core contribution of *"Experiences with ML-Driven Design: A NoC Case
//! Study"* (HPCA 2020): a reinforcement-learning agent that learns NoC
//! arbitration policies, plus the tooling the authors used to turn the
//! trained network into the implementable "RL-inspired" arbiter.
//!
//! * [`StateEncoder`] / [`FeatureSet`] — Table 2 feature engineering:
//!   normalization and one-hot encoding (§4.3, §6.2).
//! * [`DqnAgent`] — the shared agent: ε-greedy decisions, experience
//!   replay, target network, per-cycle SGD (§3.1, §4.5–4.6).
//! * [`RewardKind`] — the three reward formulations compared in Fig. 12.
//! * [`NnPolicyArbiter`] — the frozen "NN" policy of Figs. 5 and 9–11.
//! * [`weight_heatmap`] — the Figs. 4/7 interpretability readout.
//! * [`train_synthetic`] / [`hill_climb`] — training drivers used by the
//!   figure regenerators (Figs. 12, 13) and §6.5's alternative analysis.
//! * [`OnlinePolicy`] / [`RlVcController`] — the self-healing extensions:
//!   in-situ DQN learning during the measured run, and a learned per-VC
//!   credit-budget controller (deterministic, checkpointable).
//!
//! ## Training an agent end to end
//!
//! ```
//! use rl_arb::{train_synthetic, TrainSpec, weight_heatmap};
//!
//! let mut spec = TrainSpec::synthetic_4x4(42);
//! spec.epochs = 2; // keep the doc test fast
//! spec.cycles_per_epoch = 200;
//! let outcome = train_synthetic(&spec);
//! let heatmap = weight_heatmap(outcome.agent.network(), outcome.agent.encoder());
//! println!("{}", heatmap.to_ascii());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agent;
mod ckpt;
mod env;
mod features;
mod hillclimb;
mod interpret;
mod multi;
mod online;
pub mod progress;
mod replay;
mod reward;
mod train;
mod trainer;
mod vc_ctl;

pub use agent::{AgentConfig, DqnAgent, InferenceMode, NnPolicyArbiter, RlAgentArbiter, SharedAgent};
pub use ckpt::{
    checkpoint_from_outcome, distill_checkpoint, encoder_from_checkpoint, policy_from_checkpoint,
    Checkpoint, CHECKPOINT_SCHEMA_VERSION,
};
pub use env::{ApuEnv, ApuTrainSpec, SyntheticEnv, TrainEnv, TrainRecipe};
pub use features::{Feature, FeatureSet, StateEncoder};
pub use hillclimb::{greedy_climb, hill_climb, ClimbOutcome, ClimbStep};
pub use interpret::{weight_heatmap, Heatmap};
pub use multi::{MultiAgentArbiter, PartitionedAgents};
pub use online::OnlinePolicy;
pub use progress::{is_quiet, set_quiet};
pub use replay::{Experience, PrioritizedReplay, ReplayMemory};
pub use reward::RewardKind;
pub use train::{train_synthetic, TrainOutcome, TrainSpec};
pub use trainer::{training_epochs, Trainer};
pub use vc_ctl::RlVcController;

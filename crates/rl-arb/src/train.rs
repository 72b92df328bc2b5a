//! Training drivers: run the agent inside a live simulation and record
//! learning curves (the raw material of Figs. 5, 12 and 13).

use noc_sim::codec::fnv1a64;
use noc_sim::{FeatureBounds, Pattern};

use crate::agent::{AgentConfig, DqnAgent};
use crate::env::SyntheticEnv;
use crate::features::FeatureSet;
use crate::trainer::Trainer;

/// Specification of a synthetic-traffic training run.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Mesh width.
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Per-node injection probability per cycle.
    pub injection_rate: f64,
    /// Number of training epochs (x-axis of the paper's training curves).
    pub epochs: usize,
    /// Simulated cycles per epoch.
    pub cycles_per_epoch: u64,
    /// Agent hyperparameters.
    pub agent: AgentConfig,
    /// Input features for the agent.
    pub features: FeatureSet,
    /// Seed for the traffic generator.
    pub traffic_seed: u64,
    /// Optional curriculum: earlier phases at gentler loads, as
    /// `(injection rate, epochs)` pairs run *before* the main phase. Each
    /// epoch is `cycles_per_epoch` long; curriculum epochs are prepended to
    /// the returned learning curve.
    pub curriculum: Vec<(f64, usize)>,
    /// Overrides the simulator's feature-normalization caps (e.g. a wider
    /// local-age cap so congested ages do not alias).
    pub feature_bounds: Option<FeatureBounds>,
    /// Overrides the training fabric's virtual-network count (`None` keeps
    /// the simulator default). The agent's input encoder is sized
    /// `ports × vnets × features`, so an agent must be evaluated on a
    /// fabric with the same vnet count it trained with.
    pub vnets: Option<usize>,
}

impl TrainSpec {
    /// The paper's §3.2 setup: a 4×4 mesh under uniform-random traffic,
    /// 4-feature agent with 15 hidden neurons.
    pub fn synthetic_4x4(seed: u64) -> Self {
        TrainSpec {
            width: 4,
            height: 4,
            pattern: Pattern::UniformRandom,
            injection_rate: 0.18,
            epochs: 30,
            cycles_per_epoch: 2_000,
            agent: AgentConfig::paper_synthetic(seed),
            features: FeatureSet::synthetic(),
            traffic_seed: seed.wrapping_add(101),
            curriculum: Vec::new(),
            feature_bounds: None,
            vnets: None,
        }
    }

    /// The tuned recipe that produces this reproduction's "NN" policy for
    /// a `width`×`width` mesh evaluated at `rate`: tuned hyperparameters, a
    /// wide (256-cycle) local-age cap, and a gentler-load curriculum phase
    /// before training at the evaluation rate.
    pub fn tuned_synthetic(width: u16, rate: f64, seed: u64) -> Self {
        let mut bounds = FeatureBounds::for_mesh(width, width);
        bounds.max_local_age = 256;
        TrainSpec {
            width,
            height: width,
            pattern: Pattern::UniformRandom,
            injection_rate: rate,
            epochs: 60,
            cycles_per_epoch: 2_000,
            agent: AgentConfig::tuned_synthetic(seed),
            features: FeatureSet::synthetic(),
            traffic_seed: seed.wrapping_add(101),
            curriculum: vec![(rate * 0.8, 30)],
            feature_bounds: Some(bounds),
            vnets: None,
        }
    }

    /// Content hash of the recipe: FNV-1a 64 over the `Debug` encoding of
    /// this pure-data spec. Equal recipes hash equal; any field change
    /// (rates, hyperparameters, curriculum, seeds) changes the hash —
    /// the property the content-addressed artifact store keys on.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(format!("{self:?}").as_bytes()))
    }
}

/// Result of a training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// Average message latency per epoch (the paper's training-curve
    /// y-axis).
    pub curve: Vec<f64>,
    /// Fraction of decisions per epoch that matched the global-age oracle
    /// (only meaningful under the global-age reward, where reward = match).
    pub accuracy: Vec<f64>,
    /// The trainer's early-stop verdict: `Some(true)` when the armed
    /// convergence check fired (remaining epochs skipped), `Some(false)`
    /// when armed but never satisfied, `None` when early stopping was off.
    /// Persisted in the checkpoint's `converged` field.
    pub converged: Option<bool>,
    /// The trained agent.
    pub agent: DqnAgent,
}

/// The convergence criterion shared by [`TrainOutcome::converged`] and
/// the trainer's early-stop check: the mean of the last quarter of the
/// curve is within `tolerance`× of the best epoch (needs ≥ 8 samples).
pub(crate) fn curve_converged(curve: &[f64], tolerance: f64) -> bool {
    if curve.len() < 8 {
        return false;
    }
    let tail = &curve[curve.len() - curve.len() / 4..];
    let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
    let best = curve.iter().copied().fold(f64::INFINITY, f64::min);
    tail_mean <= best * tolerance
}

impl TrainOutcome {
    /// Final-epoch average latency.
    pub fn final_latency(&self) -> f64 {
        self.curve.last().copied().unwrap_or(0.0)
    }

    /// Best (lowest) epoch latency.
    pub fn best_latency(&self) -> f64 {
        self.curve
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// A crude convergence check: the mean of the last quarter of the
    /// curve is within `tolerance`× of the best epoch. Unconverging
    /// rewards (paper Fig. 12's `acc_latency`/`link_util`) fail this.
    /// The same criterion drives [`Trainer::with_early_stop`].
    ///
    /// [`Trainer::with_early_stop`]: crate::Trainer::with_early_stop
    pub fn converged(&self, tolerance: f64) -> bool {
        curve_converged(&self.curve, tolerance)
    }
}

/// Trains a fresh agent on a synthetic-traffic mesh and returns the
/// learning curve plus the trained agent.
///
/// Statistics (and hence the per-epoch average latency) are reset between
/// epochs, but the network state, buffers, and agent persist — this is one
/// continuous simulation observed in epoch-sized windows, like the paper's
/// "training time" axis.
///
/// # Panics
///
/// Panics if the specification is internally inconsistent (zero-sized mesh,
/// epochs of zero cycles, …).
pub fn train_synthetic(spec: &TrainSpec) -> TrainOutcome {
    Trainer::new(spec.agent.clone()).run(&mut SyntheticEnv::new(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::StateEncoder;
    use crate::reward::RewardKind;
    use noc_sim::{SimConfig, Topology};

    fn quick_spec(seed: u64) -> TrainSpec {
        TrainSpec {
            epochs: 10,
            cycles_per_epoch: 600,
            injection_rate: 0.25,
            ..TrainSpec::synthetic_4x4(seed)
        }
    }

    #[test]
    fn training_produces_a_curve_and_experiences() {
        let out = train_synthetic(&quick_spec(5));
        assert_eq!(out.curve.len(), 10);
        assert_eq!(out.accuracy.len(), 10);
        assert!(out.accuracy.iter().all(|&a| (0.0..=1.0).contains(&a)));
        assert!(out.curve.iter().all(|&l| l > 0.0));
        assert!(out.agent.decisions() > 0, "agent was queried");
        assert!(out.agent.replay_len() > 0, "replay memory filled");
    }

    #[test]
    fn global_age_reward_improves_over_training() {
        // Compare the agent's early vs late epochs under contention: the
        // curve should not get dramatically worse, and usually improves.
        let out = train_synthetic(&TrainSpec {
            epochs: 16,
            cycles_per_epoch: 1_000,
            injection_rate: 0.30,
            ..TrainSpec::synthetic_4x4(11)
        });
        let early = out.curve[..4].iter().sum::<f64>() / 4.0;
        let late = out.curve[out.curve.len() - 4..].iter().sum::<f64>() / 4.0;
        assert!(
            late <= early * 1.25,
            "training diverged: early {early:.1}, late {late:.1}"
        );
    }

    #[test]
    fn outcome_helpers_summarize_curve() {
        let outcome = TrainOutcome {
            curve: vec![100.0, 60.0, 40.0, 30.0, 31.0, 30.0, 29.0, 30.0],
            accuracy: vec![0.5; 8],
            converged: None,
            agent: {
                let spec = quick_spec(1);
                let topo = Topology::uniform_mesh(4, 4).unwrap();
                let cfg = SimConfig::synthetic(4, 4);
                DqnAgent::new(
                    StateEncoder::new(
                        topo.ports_per_router(),
                        cfg.num_vnets,
                        spec.features,
                        cfg.feature_bounds,
                    ),
                    spec.agent,
                )
            },
        };
        assert_eq!(outcome.final_latency(), 30.0);
        assert_eq!(outcome.best_latency(), 29.0);
        assert!(outcome.converged(1.1));
        assert!(!outcome.converged(1.0));
    }

    #[test]
    fn different_rewards_produce_different_agents() {
        let base = quick_spec(3);
        let a = train_synthetic(&base);
        let b = train_synthetic(&TrainSpec {
            agent: base.agent.clone().with_reward(RewardKind::LinkUtil),
            ..base.clone()
        });
        // Same seeds, different reward ⇒ different learned weights.
        assert_ne!(
            a.agent.network().forward(&vec![0.5; 60]),
            b.agent.network().forward(&vec![0.5; 60])
        );
    }
}

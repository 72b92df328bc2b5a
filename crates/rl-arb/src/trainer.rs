//! The generic training loop over [`TrainEnv`] — one `Trainer` drives
//! both the synthetic and the APU environments, replacing the formerly
//! duplicated per-environment epoch loops.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::agent::{AgentConfig, DqnAgent};
use crate::env::TrainEnv;
use crate::train::{curve_converged, TrainOutcome};

/// Process-wide epoch counter, incremented once per executed training
/// epoch (see [`training_epochs`]).
static TRAINING_EPOCHS: AtomicU64 = AtomicU64::new(0);

/// Total training epochs executed by every [`Trainer::run`] in this
/// process. The artifact-cache tests compare this across a warm-store run
/// to prove zero training happened.
pub fn training_epochs() -> u64 {
    TRAINING_EPOCHS.load(Ordering::Relaxed)
}

/// The generic training loop: creates a fresh shared agent from the
/// environment's encoder, runs the environment's epoch schedule, and
/// records the learning curve plus per-epoch oracle accuracy.
#[derive(Debug, Clone)]
pub struct Trainer {
    agent: AgentConfig,
    early_stop: Option<f64>,
}

impl Trainer {
    /// A trainer for agents with the given hyperparameters.
    pub fn new(agent: AgentConfig) -> Self {
        Trainer { agent, early_stop: None }
    }

    /// Arms early stopping: after each epoch (once ≥ 8 curve samples
    /// exist) the partial curve is checked with the
    /// [`TrainOutcome::converged`] criterion at `tolerance`; on success
    /// the remaining epochs are skipped and the outcome (and hence its
    /// checkpoint) records `converged: Some(true)`.
    pub fn with_early_stop(mut self, tolerance: f64) -> Self {
        self.early_stop = Some(tolerance);
        self
    }

    /// Runs the environment's full epoch schedule with a freshly
    /// initialized agent and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics on an empty schedule.
    pub fn run(&self, env: &mut dyn TrainEnv) -> TrainOutcome {
        let total = env.num_epochs();
        assert!(total > 0, "empty training run");
        let shared = DqnAgent::new(env.encoder(), self.agent.clone()).into_shared();

        let mut curve = Vec::with_capacity(total);
        let mut accuracy = Vec::with_capacity(total);
        let mut last_decisions = 0u64;
        let mut last_reward = 0.0f64;
        let mut converged = self.early_stop.map(|_| false);
        for _ in 0..total {
            TRAINING_EPOCHS.fetch_add(1, Ordering::Relaxed);
            curve.push(env.run_epoch(&shared));
            let (dec, rew) = shared.with(|a| (a.decisions(), a.cumulative_reward()));
            let epoch_dec = dec - last_decisions;
            accuracy.push(if epoch_dec == 0 {
                0.0
            } else {
                (rew - last_reward) / epoch_dec as f64
            });
            last_decisions = dec;
            last_reward = rew;
            if let Some(tolerance) = self.early_stop {
                if curve_converged(&curve, tolerance) {
                    converged = Some(true);
                    break;
                }
            }
        }
        env.release();
        TrainOutcome {
            curve,
            accuracy,
            converged,
            agent: shared.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SyntheticEnv;
    use crate::train::TrainSpec;

    fn quick_spec(seed: u64) -> TrainSpec {
        TrainSpec {
            epochs: 10,
            cycles_per_epoch: 400,
            injection_rate: 0.25,
            ..TrainSpec::synthetic_4x4(seed)
        }
    }

    #[test]
    fn early_stop_truncates_a_flat_curve_and_records_convergence() {
        /// An environment with a constant-latency curve: converges as soon
        /// as the criterion has enough samples (8), regardless of agent.
        #[derive(Debug)]
        struct FlatEnv;
        impl crate::env::TrainEnv for FlatEnv {
            fn label(&self) -> String {
                "flat".into()
            }
            fn encoder(&self) -> crate::StateEncoder {
                // Geometry from the topology, not hardcoded: 5 ports and a
                // diameter-6 bound on a 1-local 4×4 mesh, same as before.
                let topo = noc_sim::Topology::uniform_mesh(4, 4).unwrap();
                crate::StateEncoder::new(
                    topo.ports_per_router(),
                    3,
                    crate::FeatureSet::synthetic(),
                    noc_sim::FeatureBounds::for_topology(&topo),
                )
            }
            fn num_epochs(&self) -> usize {
                100
            }
            fn run_epoch(&mut self, _agent: &crate::SharedAgent) -> f64 {
                25.0
            }
        }

        let out = Trainer::new(crate::AgentConfig::tuned_synthetic(1))
            .with_early_stop(1.05)
            .run(&mut FlatEnv);
        assert_eq!(out.curve.len(), 8, "stopped at the first possible check");
        assert_eq!(out.converged, Some(true));
        // The convergence verdict agrees with the outcome's own criterion.
        assert!(out.converged(1.05));
    }

    #[test]
    fn unarmed_trainer_runs_the_full_schedule_without_a_verdict() {
        let spec = quick_spec(9);
        let armed = Trainer::new(spec.agent.clone())
            .with_early_stop(f64::INFINITY)
            .run(&mut SyntheticEnv::new(&spec));
        // Infinite tolerance converges at the first check (8 epochs) …
        assert_eq!(armed.curve.len(), 8);
        assert_eq!(armed.converged, Some(true));
        // … while the unarmed trainer runs all 10 with no verdict.
        let unarmed = Trainer::new(spec.agent.clone()).run(&mut SyntheticEnv::new(&spec));
        assert_eq!(unarmed.curve.len(), 10);
        assert_eq!(unarmed.converged, None);
    }
}

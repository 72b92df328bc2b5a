//! Training environments: the agent ↔ simulator seam behind [`Trainer`].
//!
//! ArchGym's core reproducibility argument — and RACE's multi-environment
//! agent loop — both reduce to the same interface requirement: one generic
//! training loop that can be pointed at any environment. [`TrainEnv`] is
//! that seam here; [`SyntheticEnv`] (open-loop `noc-sim` traffic) and
//! [`ApuEnv`] (closed-loop `apu-sim` workloads) are its two
//! implementations, replacing the formerly parallel
//! `train_synthetic`/`train_apu_agent` code paths.
//!
//! [`Trainer`]: crate::Trainer

use apu_sim::{make_apu_sim, ApuEngine, EngineConfig, WorkloadSpec, APU_MESH, NUM_QUADRANTS};
use apu_workloads::Benchmark;
use noc_sim::codec::fnv1a64;
use noc_sim::{SimConfig, Simulator, SyntheticTraffic, Topology};

use crate::agent::{AgentConfig, SharedAgent};
use crate::features::{FeatureSet, StateEncoder};
use crate::train::TrainSpec;

/// An environment the generic trainer can run an agent in: it knows the
/// router geometry (for the state encoder), the epoch schedule, and how
/// to advance the simulation by one epoch.
pub trait TrainEnv {
    /// Short human label for progress notes (e.g. `"4x4 synthetic"`).
    fn label(&self) -> String;

    /// Encoder for the routers the agent will arbitrate.
    fn encoder(&self) -> StateEncoder;

    /// Total epochs in the schedule.
    fn num_epochs(&self) -> usize;

    /// Runs one epoch with `agent` arbitrating and returns the epoch's
    /// average message latency (one learning-curve sample).
    fn run_epoch(&mut self, agent: &SharedAgent) -> f64;

    /// Drops any live simulator state holding agent handles. The trainer
    /// calls this before reclaiming the shared agent; environments that
    /// do not retain a simulator across epochs can keep the default no-op.
    fn release(&mut self) {}
}

/// Synthetic-traffic training environment (paper §3.2).
///
/// One continuous simulation per curriculum stage, observed in
/// epoch-sized windows: statistics reset between epochs, but buffers and
/// network state persist within a stage — matching the paper's "training
/// time" axis.
#[derive(Debug)]
pub struct SyntheticEnv {
    spec: TrainSpec,
    topo: Topology,
    cfg: SimConfig,
    /// Curriculum stages plus the main phase, as `(rate, epochs)`.
    stages: Vec<(f64, usize)>,
    /// Next stage to start when the current one is exhausted.
    next_stage: usize,
    /// Epochs left in the currently running stage.
    remaining: usize,
    sim: Option<Simulator<SyntheticTraffic>>,
}

impl SyntheticEnv {
    /// Builds the environment for a training spec.
    ///
    /// # Panics
    ///
    /// Panics if the specification is internally inconsistent (zero-sized
    /// mesh, empty schedule, epochs of zero cycles, …).
    pub fn new(spec: &TrainSpec) -> Self {
        assert!(spec.epochs > 0 && spec.cycles_per_epoch > 0, "empty training run");
        let topo = Topology::uniform_mesh(spec.width, spec.height).expect("valid mesh");
        let mut cfg = SimConfig::synthetic(spec.width, spec.height);
        if let Some(bounds) = spec.feature_bounds {
            cfg.feature_bounds = bounds;
        }
        if let Some(vnets) = spec.vnets {
            assert!(vnets > 0, "vnets override must be positive");
            cfg.num_vnets = vnets;
        }
        let mut stages = spec.curriculum.clone();
        stages.push((spec.injection_rate, spec.epochs));
        SyntheticEnv {
            spec: spec.clone(),
            topo,
            cfg,
            stages,
            next_stage: 0,
            remaining: 0,
            sim: None,
        }
    }
}

impl TrainEnv for SyntheticEnv {
    fn label(&self) -> String {
        format!(
            "{}x{} synthetic @ {:.2}",
            self.spec.width, self.spec.height, self.spec.injection_rate
        )
    }

    fn encoder(&self) -> StateEncoder {
        StateEncoder::new(
            self.topo.ports_per_router(),
            self.cfg.num_vnets,
            self.spec.features.clone(),
            self.cfg.feature_bounds,
        )
    }

    fn num_epochs(&self) -> usize {
        self.stages.iter().map(|&(_, e)| e).sum()
    }

    fn run_epoch(&mut self, agent: &SharedAgent) -> f64 {
        while self.remaining == 0 {
            assert!(self.next_stage < self.stages.len(), "epoch past schedule end");
            let (rate, epochs) = self.stages[self.next_stage];
            let traffic = SyntheticTraffic::new(
                &self.topo,
                self.spec.pattern,
                rate,
                self.cfg.num_vnets,
                self.spec.traffic_seed.wrapping_add(self.next_stage as u64),
            );
            self.sim = Some(
                Simulator::new(
                    self.topo.clone(),
                    self.cfg.clone(),
                    Box::new(agent.training_arbiter()),
                    traffic,
                )
                .expect("valid simulator configuration"),
            );
            self.remaining = epochs;
            self.next_stage += 1;
        }
        let sim = self.sim.as_mut().expect("stage simulator exists");
        sim.reset_stats();
        sim.run(self.spec.cycles_per_epoch);
        self.remaining -= 1;
        sim.stats().avg_latency()
    }

    fn release(&mut self) {
        self.sim = None;
        self.remaining = 0;
    }
}

/// Specification of an APU-workload training run: the pure-data,
/// FNV-hashable recipe mirroring [`TrainSpec`] on the closed-loop side
/// (paper §4.2: "we execute the same set of model files repeatedly until
/// the training converges").
#[derive(Debug, Clone)]
pub struct ApuTrainSpec {
    /// Workload name (an `apu_workloads::Benchmark` name, e.g. `"bfs"`).
    pub benchmark: String,
    /// Back-to-back runs of the four workload copies (one run = one epoch).
    pub repeats: usize,
    /// Cycle budget per run.
    pub max_cycles: u64,
    /// Workload intensity scale (the experiment tiers' `apu_scale`).
    pub scale: f64,
    /// Agent hyperparameters.
    pub agent: AgentConfig,
    /// Input features for the agent.
    pub features: FeatureSet,
    /// Base seed for the engine; run `r` uses `seed.wrapping_add(r)`.
    pub seed: u64,
}

impl ApuTrainSpec {
    /// The tuned APU recipe the figure drivers use: full Table 2 features,
    /// tuned hyperparameters at 42 hidden neurons.
    pub fn tuned(benchmark: &str, repeats: usize, max_cycles: u64, scale: f64, seed: u64) -> Self {
        ApuTrainSpec {
            benchmark: benchmark.into(),
            repeats,
            max_cycles,
            scale,
            agent: AgentConfig::tuned_apu(seed),
            features: FeatureSet::full(),
            seed,
        }
    }

    /// Content hash of the recipe (FNV-1a 64 over the `Debug` encoding).
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(format!("{self:?}").as_bytes()))
    }
}

/// APU-workload training environment (paper §4.2): each epoch is one
/// closed-loop run of four workload copies from a fresh engine seed, with
/// the shared agent's state persisting across runs.
#[derive(Debug)]
pub struct ApuEnv {
    specs: Vec<WorkloadSpec>,
    repeats: usize,
    max_cycles: u64,
    seed: u64,
    features: FeatureSet,
    label: String,
    rep: usize,
}

impl ApuEnv {
    /// Builds the environment for a named-benchmark recipe.
    ///
    /// # Errors
    ///
    /// Returns an error if the benchmark name is unknown.
    pub fn new(spec: &ApuTrainSpec) -> Result<Self, String> {
        let bench = Benchmark::ALL
            .iter()
            .copied()
            .find(|b| b.name() == spec.benchmark)
            .ok_or_else(|| format!("unknown APU benchmark '{}'", spec.benchmark))?;
        let specs = vec![bench.spec_scaled(spec.scale); NUM_QUADRANTS];
        Ok(ApuEnv {
            label: format!("apu:{}", spec.benchmark),
            specs,
            repeats: spec.repeats,
            max_cycles: spec.max_cycles,
            seed: spec.seed,
            features: spec.features.clone(),
            rep: 0,
        })
    }

    /// Builds the environment from explicit workload specs (e.g. a mixed
    /// scenario) instead of a named benchmark.
    ///
    /// # Panics
    ///
    /// Panics unless exactly [`NUM_QUADRANTS`] workload specs are given.
    pub fn from_workloads(
        specs: Vec<WorkloadSpec>,
        repeats: usize,
        max_cycles: u64,
        seed: u64,
        features: FeatureSet,
    ) -> Self {
        assert_eq!(specs.len(), NUM_QUADRANTS, "one workload per quadrant");
        ApuEnv {
            label: "apu:custom".into(),
            specs,
            repeats,
            max_cycles,
            seed,
            features,
            rep: 0,
        }
    }

    fn build_sim(&self, agent: &SharedAgent) -> Simulator<ApuEngine> {
        make_apu_sim(
            self.specs.clone(),
            Box::new(agent.training_arbiter()),
            EngineConfig::default(),
            self.seed.wrapping_add(self.rep as u64),
        )
    }
}

impl TrainEnv for ApuEnv {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn encoder(&self) -> StateEncoder {
        let cfg = SimConfig::apu(APU_MESH, APU_MESH);
        StateEncoder::new(6, cfg.num_vnets, self.features.clone(), cfg.feature_bounds)
    }

    fn num_epochs(&self) -> usize {
        self.repeats
    }

    fn run_epoch(&mut self, agent: &SharedAgent) -> f64 {
        let mut sim = self.build_sim(agent);
        sim.run_until_done(self.max_cycles);
        self.rep += 1;
        sim.stats().avg_latency()
    }
}

/// A complete training recipe — synthetic or APU — as pure data. This is
/// the unit the content-addressed artifact store keys on: equal recipes
/// hash equal, and any field change (hyperparameters, curriculum, seeds)
/// changes the hash.
#[derive(Debug, Clone)]
pub enum TrainRecipe {
    /// Synthetic-mesh training ([`SyntheticEnv`]).
    Synthetic(TrainSpec),
    /// APU closed-loop training ([`ApuEnv`]).
    Apu(ApuTrainSpec),
}

impl TrainRecipe {
    /// Content hash of the recipe, including which environment it targets.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(format!("{self:?}").as_bytes()))
    }

    /// The agent hyperparameters the recipe trains with.
    pub fn agent_config(&self) -> &AgentConfig {
        match self {
            TrainRecipe::Synthetic(s) => &s.agent,
            TrainRecipe::Apu(s) => &s.agent,
        }
    }

    /// Short human label for progress notes.
    pub fn label(&self) -> String {
        match self {
            TrainRecipe::Synthetic(s) => {
                format!("{}x{} synthetic @ {:.2}", s.width, s.height, s.injection_rate)
            }
            TrainRecipe::Apu(s) => format!("apu:{}", s.benchmark),
        }
    }

    /// Builds the matching environment.
    ///
    /// # Errors
    ///
    /// Returns an error for unresolvable recipes (unknown benchmark name).
    pub fn env(&self) -> Result<Box<dyn TrainEnv>, String> {
        match self {
            TrainRecipe::Synthetic(s) => Ok(Box::new(SyntheticEnv::new(s))),
            TrainRecipe::Apu(s) => Ok(Box::new(ApuEnv::new(s)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_env_reports_schedule_and_geometry() {
        let mut spec = TrainSpec::tuned_synthetic(4, 0.4, 7);
        spec.epochs = 5;
        spec.curriculum = vec![(0.2, 3)];
        let env = SyntheticEnv::new(&spec);
        assert_eq!(env.num_epochs(), 8);
        let enc = env.encoder();
        assert_eq!(enc.state_width(), 60); // 5 ports × 3 vnets × 4 features
        assert!(env.label().contains("4x4"));
    }

    #[test]
    fn apu_env_resolves_benchmarks_by_name() {
        let spec = ApuTrainSpec::tuned("bfs", 3, 100, 0.05, 1);
        let env = ApuEnv::new(&spec).unwrap();
        assert_eq!(env.num_epochs(), 3);
        assert_eq!(env.label(), "apu:bfs");
        assert_eq!(env.encoder().state_width(), 504); // §4.6: 6 × 7 × 12
        assert!(ApuEnv::new(&ApuTrainSpec::tuned("nope", 1, 1, 0.1, 0)).is_err());
    }

    #[test]
    fn recipe_hashes_distinguish_environments_and_fields() {
        let synth = TrainRecipe::Synthetic(TrainSpec::tuned_synthetic(4, 0.4, 7));
        let apu = TrainRecipe::Apu(ApuTrainSpec::tuned("bfs", 3, 100, 0.05, 7));
        assert_ne!(synth.hash_hex(), apu.hash_hex());
        // Hashing is content-addressed: same recipe ⇒ same hash ...
        assert_eq!(
            synth.hash_hex(),
            TrainRecipe::Synthetic(TrainSpec::tuned_synthetic(4, 0.4, 7)).hash_hex()
        );
        // ... and any field change ⇒ a different hash.
        assert_ne!(
            synth.hash_hex(),
            TrainRecipe::Synthetic(TrainSpec::tuned_synthetic(4, 0.4, 8)).hash_hex()
        );
        assert_eq!(synth.hash_hex().len(), 16);
    }
}

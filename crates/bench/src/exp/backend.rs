//! `run_cell` — one `&SpecInstance -> CellRecord` entry point over both
//! simulators.
//!
//! The synthetic mesh (`noc-sim`'s open-loop runner) and the APU chip
//! (`apu-sim`'s closed-loop engine) historically exposed incompatible run
//! APIs; every figure binary glued one of them by hand. [`run_cell`] hides
//! that behind a single call that takes one resolved cell of the run
//! matrix and returns its metrics. It holds no state, so cells dispatch
//! freely across the sweep worker pool.

use apu_sim::{EngineConfig, WorkloadSpec, NUM_QUADRANTS};
use apu_workloads::{mixed_scenario, Benchmark};
use noc_sim::{FaultPlan, SimConfig, Simulator, SyntheticTraffic};

use super::spec::{ScenarioSpec, TierParams};
use crate::PolicySpec;

/// One fully resolved cell of a run matrix: which scenario, which policy
/// (already carrying any trained artifact), which seed, which budgets.
#[derive(Debug)]
pub struct SpecInstance<'a> {
    /// The scenario to simulate.
    pub scenario: &'a ScenarioSpec,
    /// Row label the cell carries — the scenario label, plus an
    /// `@f<intensity>` suffix when a fault axis expanded this cell.
    pub label: &'a str,
    /// Canonical policy name (registry name, or `"nn"`).
    pub policy_name: &'a str,
    /// The instantiable policy recipe.
    pub policy: &'a PolicySpec,
    /// This cell's seed (feeds traffic, engine and stochastic policies).
    pub seed: u64,
    /// The sweep's base seed (mixed scenarios draw their app composition
    /// from it, exactly as the legacy `fig11_mixed` binary did).
    pub base_seed: u64,
    /// Budget knobs for the active tier.
    pub params: &'a TierParams,
    /// Recipe hash of the trained artifact the policy was built from
    /// (`Some` exactly for NN-slot cells; recorded in the `RunRecord`).
    pub artifact: Option<&'a str>,
    /// Deterministic fault plan injected into the simulator (`None` for
    /// fault-free cells — the historical behaviour, bit-identical).
    pub faults: Option<&'a FaultPlan>,
}

/// The metrics of one simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Scenario label.
    pub scenario: String,
    /// Canonical policy name.
    pub policy: String,
    /// Seed of this run.
    pub seed: u64,
    /// Recipe hash of the trained artifact this cell was evaluated with
    /// (`None` for policies that carry no trained network).
    pub artifact: Option<String>,
    /// Hash of the fault plan this cell ran under (`None` for fault-free
    /// cells; see [`noc_sim::FaultPlan::hash_hex`]).
    pub fault_plan: Option<String>,
    /// Content hash of the cell's job identity in the result cache
    /// (`None` for cells that never went through the cache, e.g. custom
    /// figures; see `super::cache`).
    pub cell_hash: Option<String>,
    /// Result-cache provenance: `"hit"` (loaded from the on-disk cache)
    /// or `"miss"` (simulated this run). `None` when the run bypassed the
    /// cache entirely.
    pub cache: Option<String>,
    /// Named metric values, in a stable order.
    pub metrics: Vec<(String, f64)>,
}

impl CellRecord {
    /// A cell with no trained artifact, fault plan or cache provenance.
    pub fn new(scenario: String, policy: String, seed: u64, metrics: Vec<(String, f64)>) -> Self {
        CellRecord {
            scenario,
            policy,
            seed,
            artifact: None,
            fault_plan: None,
            cell_hash: None,
            cache: None,
            metrics,
        }
    }

    /// Looks up a metric by name.
    ///
    /// # Panics
    ///
    /// Panics if the metric is absent — renderers ask only for metrics
    /// their backend emits, so a miss is a programming error.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| {
                panic!(
                    "cell ({}, {}, seed {}) has no metric '{name}'",
                    self.scenario, self.policy, self.seed
                )
            })
    }
}

/// Runs one cell to completion on the simulator its scenario names and
/// returns its metrics.
///
/// Synthetic scenarios run on `noc-sim`'s open-loop mesh: `warmup`
/// cycles, a statistics reset, then `measure` cycles — or, with
/// `warmup == 0`, measurement from cycle zero (the starvation check's
/// configuration). APU scenarios run `apu-sim`'s closed-loop chip, four
/// workload copies (one per quadrant), to completion or the cycle budget.
pub fn run_cell(inst: &SpecInstance<'_>) -> CellRecord {
    let metrics = match inst.scenario {
        ScenarioSpec::Synthetic {
            width,
            height,
            pattern,
            rate,
            topo,
            routing,
            starvation_threshold,
            noc,
            ..
        } => {
            let topo = topo.build(*width, *height).expect("valid topology");
            let mut cfg = SimConfig::synthetic(*width, *height);
            cfg.routing = *routing;
            if let Some(n) = noc {
                cfg.num_vnets = n.vnets;
                cfg.vc_capacity_flits = n.vc_capacity_flits;
            }
            // Mesh scenarios keep their historical diameter-derived bounds
            // bit-identically (`for_topology` ≡ `for_mesh` there); other
            // graphs get bounds from their own diameter.
            cfg.feature_bounds = noc_sim::FeatureBounds::for_topology(&topo);
            if let Some(t) = starvation_threshold {
                cfg.starvation_threshold = *t;
            }
            let traffic =
                SyntheticTraffic::new(&topo, *pattern, *rate, cfg.num_vnets, inst.seed);
            let mut sim = Simulator::new(topo, cfg, inst.policy.build(inst.seed), traffic)
                .expect("valid sim");
            if let Some(ctl) = inst.policy.build_controller(inst.seed) {
                sim.set_buffer_controller(ctl);
            }
            if let Some(plan) = inst.faults {
                sim.set_fault_plan(plan);
            }
            if inst.params.warmup > 0 {
                sim.run(inst.params.warmup);
                sim.reset_stats();
            }
            sim.run(inst.params.measure);
            let starving = sim.starving_packets();
            let s = sim.stats();
            vec![
                ("avg_latency".into(), s.avg_latency()),
                ("p99_latency".into(), s.latency_percentile(99.0) as f64),
                ("p999_latency".into(), s.latency_percentile(99.9) as f64),
                ("max_latency".into(), s.max_latency() as f64),
                ("max_local_age".into(), s.max_local_age as f64),
                ("starving_packets".into(), starving as f64),
                ("jain_fairness".into(), s.jain_fairness()),
                ("delivered".into(), s.delivered as f64),
                ("throughput".into(), s.throughput()),
                ("link_fault_drops".into(), s.link_fault_drops as f64),
                ("wedged_ports".into(), s.wedged_ports as f64),
                // Self-healing metrics: unrecovered fault episodes are
                // charged the full measurement window, so "never came
                // back" reads as the worst possible recovery time.
                ("fault_onsets".into(), s.fault_onsets as f64),
                ("recoveries".into(), s.recoveries as f64),
                ("recovery_time".into(), s.avg_recovery_cycles(inst.params.measure)),
                ("post_fault_latency".into(), s.post_fault_avg_latency()),
            ]
        }
        ScenarioSpec::ApuWorkload { .. } | ScenarioSpec::ApuMix { .. } => {
            let specs = apu_specs_for(inst.scenario, inst.base_seed, inst.params.apu_scale);
            let r = apu_sim::run_apu_with_faults(
                specs,
                inst.policy.build(inst.seed),
                EngineConfig::default(),
                inst.seed,
                inst.params.max_cycles,
                inst.faults,
            );
            vec![
                ("avg_exec".into(), r.avg_exec),
                ("tail_exec".into(), r.tail_exec as f64),
                ("completed".into(), if r.completed { 1.0 } else { 0.0 }),
                ("delivered".into(), r.stats.delivered as f64),
                ("avg_latency".into(), r.stats.avg_latency()),
            ]
        }
    };
    CellRecord {
        artifact: inst.artifact.map(String::from),
        fault_plan: inst.faults.map(FaultPlan::hash_hex),
        ..CellRecord::new(inst.label.into(), inst.policy_name.into(), inst.seed, metrics)
    }
}

/// Resolves an APU scenario into its four workload specs.
pub fn apu_specs_for(scenario: &ScenarioSpec, base_seed: u64, scale: f64) -> Vec<WorkloadSpec> {
    match scenario {
        ScenarioSpec::ApuWorkload { benchmark } => {
            vec![benchmark_by_name(benchmark).spec_scaled(scale); NUM_QUADRANTS]
        }
        ScenarioSpec::ApuMix { n_low } => mixed_scenario(*n_low, base_seed, scale),
        ScenarioSpec::Synthetic { .. } => {
            panic!("APU workload specs asked of a synthetic scenario")
        }
    }
}

/// Resolves a benchmark by its registry name.
///
/// # Panics
///
/// Panics on an unknown name — benchmark names in specs are static data
/// covered by the lineup-resolution tests.
pub fn benchmark_by_name(name: &str) -> Benchmark {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("unknown benchmark '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::super::spec::{mesh4x4, TopoSpec};
    use noc_arbiters::PolicyKind;
    use noc_sim::{Pattern, RoutingKind};

    fn tiny_params() -> TierParams {
        let mut p = TierParams::zeroed();
        p.warmup = 100;
        p.measure = 300;
        p.max_cycles = 200_000;
        p.apu_scale = 0.02;
        p
    }

    #[test]
    fn synthetic_backend_smoke() {
        let scenario =
            mesh4x4("4x4", Pattern::UniformRandom, 0.1, TopoSpec::Mesh, RoutingKind::XY);
        let policy = PolicySpec::builtin("FIFO", PolicyKind::Fifo);
        let params = tiny_params();
        let cell = run_cell(&SpecInstance {
            scenario: &scenario,
            label: "4x4",
            policy_name: "fifo",
            policy: &policy,
            seed: 1,
            base_seed: 1,
            params: &params,
            artifact: None,
            faults: None,
        });
        assert_eq!(cell.policy, "fifo");
        assert!(cell.metric("avg_latency") > 0.0);
        assert!(cell.metric("delivered") > 0.0);
    }

    #[test]
    fn synthetic_backend_runs_non_mesh_topologies() {
        let cases = [
            (TopoSpec::Torus, RoutingKind::TorusDimOrder, "torus"),
            (TopoSpec::Ring, RoutingKind::RingShortest, "ring"),
            (
                TopoSpec::DegradedMesh { seed: 9, drop_percent: 25 },
                RoutingKind::TableShortest,
                "degraded",
            ),
        ];
        let policy = PolicySpec::builtin("FIFO", PolicyKind::Fifo);
        let params = tiny_params();
        for (topo, routing, label) in cases {
            let scenario = mesh4x4(label, Pattern::UniformRandom, 0.1, topo, routing);
            let cell = run_cell(&SpecInstance {
                scenario: &scenario,
                label,
                policy_name: "fifo",
                policy: &policy,
                seed: 1,
                base_seed: 1,
                params: &params,
                artifact: None,
                faults: None,
            });
            assert!(cell.metric("delivered") > 0.0, "{label} delivered nothing");
        }
    }

    #[test]
    fn apu_backend_smoke_and_seed_determinism() {
        let scenario = ScenarioSpec::ApuWorkload { benchmark: "bfs".into() };
        let policy = PolicySpec::builtin("FIFO", PolicyKind::Fifo);
        let params = tiny_params();
        let inst = |seed| SpecInstance {
            scenario: &scenario,
            label: "bfs",
            policy_name: "fifo",
            policy: &policy,
            seed,
            base_seed: seed,
            params: &params,
            artifact: None,
            faults: None,
        };
        let a = run_cell(&inst(7));
        let b = run_cell(&inst(7));
        assert_eq!(a, b, "same instance must reproduce exactly");
        assert!(a.metric("avg_exec") > 0.0);
    }

    #[test]
    fn mixed_scenario_resolves_four_quadrants() {
        let specs = apu_specs_for(&ScenarioSpec::ApuMix { n_low: 2 }, 42, 0.05);
        assert_eq!(specs.len(), NUM_QUADRANTS);
    }
}

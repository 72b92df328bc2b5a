//! `ExperimentSpec` — the pure-data description of a run matrix.
//!
//! A spec carries no trained networks, boxed arbiters or closures: policy
//! line-ups are registry names (the NN policy is a named *slot* filled
//! with a trained artifact at run time), scenarios are parameter records,
//! and budgets are numbers. That makes a spec hashable (for the
//! `RunRecord` provenance stamp), diffable, and — eventually — shippable
//! to remote workers.

use noc_arbiters::PolicyKind;
use noc_sim::codec::fnv1a64;
use noc_sim::{ConfigError, Pattern, RoutingKind, Topology, TopologyKind};

/// Experiment size tier: `--quick` smoke or the full paper configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Shrunk workloads/epochs for smoke runs.
    Quick,
    /// The full configuration behind the checked-in results.
    Full,
}

impl Tier {
    /// Stable name used in `RunRecord` JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Full => "full",
        }
    }
}

/// Per-tier budget knobs. Figures use the subset that applies to them;
/// unused knobs stay zero and are ignored by the backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierParams {
    /// Synthetic: warmup cycles discarded before the measurement window
    /// (`0` = measure from cycle zero, as the starvation check does).
    pub warmup: u64,
    /// Synthetic: measured cycles.
    pub measure: u64,
    /// APU: cycle budget per closed-loop run.
    pub max_cycles: u64,
    /// Number of seeds in the sweep (`base_seed .. base_seed + seeds`).
    pub seeds: usize,
    /// APU: workload scale factor.
    pub apu_scale: f64,
    /// NN slot: training epochs (synthetic recipe).
    pub nn_epochs: usize,
    /// NN slot: cycles per training epoch (synthetic recipe).
    pub nn_epoch_cycles: u64,
    /// NN slot: workload repeats (APU recipe).
    pub nn_repeats: usize,
}

impl TierParams {
    /// A zeroed parameter block to fill in field-by-field.
    pub const fn zeroed() -> Self {
        TierParams {
            warmup: 0,
            measure: 0,
            max_cycles: 0,
            seeds: 1,
            apu_scale: 0.0,
            nn_epochs: 0,
            nn_epoch_cycles: 0,
            nn_repeats: 0,
        }
    }
}

/// One slot in a policy line-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineupEntry {
    /// A registry policy, constructed by name via
    /// [`noc_arbiters::make_arbiter`].
    Policy(PolicyKind),
    /// The trained-artifact slot: filled with a frozen NN policy produced
    /// by the spec's [`NnRecipe`] before the sweep dispatches.
    NnSlot,
    /// The self-healing slot: the trained artifact warm-starts an
    /// [`rl_arb::OnlinePolicy`] that keeps learning during the measured
    /// run (`online`), and/or a learned per-VC credit-budget controller
    /// ([`rl_arb::RlVcController`]) runs beside it (`vc_ctl`). With both
    /// flags false this would be the frozen [`LineupEntry::NnSlot`], so
    /// the parser never produces that combination.
    SelfHeal {
        /// Arbitration learns online (vs. frozen at the artifact weights).
        online: bool,
        /// A learned VC buffer controller reallocates credit budgets.
        vc_ctl: bool,
    },
}

impl LineupEntry {
    /// Parses a line-up name: `"nn"` is the trained-artifact slot,
    /// `"nn-online"` / `"nn-vcctl"` / `"nn-online-vcctl"` are its
    /// self-healing variants, any other name must resolve in the policy
    /// registry.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "nn" => return Ok(LineupEntry::NnSlot),
            "nn-online" => return Ok(LineupEntry::SelfHeal { online: true, vc_ctl: false }),
            "nn-vcctl" => return Ok(LineupEntry::SelfHeal { online: false, vc_ctl: true }),
            "nn-online-vcctl" => {
                return Ok(LineupEntry::SelfHeal { online: true, vc_ctl: true })
            }
            _ => {}
        }
        name.parse::<PolicyKind>()
            .map(LineupEntry::Policy)
            .map_err(|e| e.to_string())
    }

    /// Canonical machine-facing name (round-trips through [`Self::parse`]).
    pub fn canonical_name(self) -> &'static str {
        match self {
            LineupEntry::Policy(kind) => kind.as_str(),
            LineupEntry::NnSlot => "nn",
            LineupEntry::SelfHeal { online: true, vc_ctl: false } => "nn-online",
            LineupEntry::SelfHeal { online: false, vc_ctl: true } => "nn-vcctl",
            LineupEntry::SelfHeal { online: true, vc_ctl: true } => "nn-online-vcctl",
            LineupEntry::SelfHeal { online: false, vc_ctl: false } => {
                unreachable!("parser never produces the degenerate self-heal slot")
            }
        }
    }

    /// Human-facing label used in rendered tables.
    pub fn display_name(self) -> &'static str {
        match self {
            LineupEntry::Policy(kind) => kind.display_name(),
            LineupEntry::NnSlot => "NN",
            LineupEntry::SelfHeal { online: true, vc_ctl: false } => "NN-online",
            LineupEntry::SelfHeal { online: false, vc_ctl: true } => "NN+VCctl",
            LineupEntry::SelfHeal { online: true, vc_ctl: true } => "NN-online+VCctl",
            LineupEntry::SelfHeal { online: false, vc_ctl: false } => {
                unreachable!("parser never produces the degenerate self-heal slot")
            }
        }
    }

    /// Whether this slot is filled from the trained NN artifact (the
    /// frozen slot and every self-healing variant warm-start from it).
    pub fn uses_artifact(self) -> bool {
        matches!(self, LineupEntry::NnSlot | LineupEntry::SelfHeal { .. })
    }
}

/// An ordered policy line-up, expressed entirely as parseable names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineup {
    /// The slots, in presentation order.
    pub entries: Vec<LineupEntry>,
}

impl Lineup {
    /// Parses a list of names (e.g. `["fifo", "nn", "global-age"]`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown name — line-ups are static data authored in
    /// [`super::figures`], so a bad name is a programming error caught by
    /// the registry round-trip tests.
    pub fn parse(names: &[&str]) -> Self {
        let entries = names
            .iter()
            .map(|n| LineupEntry::parse(n).unwrap_or_else(|e| panic!("bad lineup entry: {e}")))
            .collect();
        Lineup { entries }
    }

    /// Whether the line-up contains any slot that needs the trained
    /// artifact (the frozen NN slot or a self-healing variant).
    pub fn has_nn_slot(&self) -> bool {
        self.entries.iter().any(|e| e.uses_artifact())
    }
}

/// How the trained-artifact ("NN") slot is filled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnRecipe {
    /// Train a DQN agent on each synthetic scenario's mesh and rate
    /// (`nn_epochs` × `nn_epoch_cycles`), freezing one network per
    /// scenario — the Fig. 5 procedure.
    SyntheticPerScenario,
    /// Train one agent on the named APU benchmark (`nn_repeats` workload
    /// repeats, four copies), shared by every scenario — the Figs. 9–11
    /// procedure ("the paper derives its policy from bfs training").
    ApuBenchmark {
        /// Benchmark name (see [`apu_workloads::Benchmark::name`]).
        benchmark: String,
    },
    /// The design-space search's recipe: the tuned synthetic procedure
    /// ([`rl_arb::TrainSpec::tuned_synthetic`]) with the agent
    /// hyperparameters the search is exploring overriding the tuned
    /// defaults. Hyperparameters are integer-scaled so the recipe stays
    /// `Eq` and hashes canonically.
    SyntheticTuned {
        /// Discount factor γ as a percentage (`20` ⇒ `0.20`).
        gamma_pct: u8,
        /// Learning rate in units of 1e-4 (`500` ⇒ `0.05`).
        lr_e4: u32,
        /// Reward formulation the agent trains against.
        reward: rl_arb::RewardKind,
    },
}

/// The router graph a synthetic scenario runs on — the topology axis of
/// the run matrix. Every variant is built at the scenario's
/// `width × height` scale so rows with different topologies keep the same
/// node count ([`TopoSpec::Ring`] lays `width × height` routers out in a
/// single cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// 2-D mesh — the paper's configuration and the default everywhere.
    Mesh,
    /// 2-D torus: every row and column wraps around.
    Torus,
    /// 1-D ring of `width × height` routers.
    Ring,
    /// Seeded degraded mesh: `drop_percent`% of the mesh links removed
    /// (connectivity-preserving; see [`Topology::degraded_mesh`]).
    DegradedMesh {
        /// Removal-selection seed.
        seed: u64,
        /// Percentage of candidate links to drop (integer so the spec
        /// stays `Eq` and hashes canonically).
        drop_percent: u8,
    },
}

impl TopoSpec {
    /// Builds the topology at `width × height` scale with one core per
    /// router.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Topology`] constructor error (degenerate
    /// dimensions, disconnecting removals).
    pub fn build(self, width: u16, height: u16) -> Result<Topology, ConfigError> {
        match self {
            TopoSpec::Mesh => Topology::uniform_mesh(width, height),
            TopoSpec::Torus => Topology::uniform_torus(width, height),
            TopoSpec::Ring => Topology::uniform_ring(width * height),
            TopoSpec::DegradedMesh { seed, drop_percent } => Topology::uniform_degraded_mesh(
                width,
                height,
                seed,
                f64::from(drop_percent) / 100.0,
            ),
        }
    }

    /// Stable lowercase name used in labels.
    pub fn label(self) -> &'static str {
        match self {
            TopoSpec::Mesh => "mesh",
            TopoSpec::Torus => "torus",
            TopoSpec::Ring => "ring",
            TopoSpec::DegradedMesh { .. } => "degraded",
        }
    }

    /// The [`TopologyKind`] [`Self::build`] produces, without building —
    /// used to check routing compatibility ([`RoutingKind::supports`])
    /// before constructing a simulator.
    pub fn kind(self) -> TopologyKind {
        match self {
            TopoSpec::Mesh => TopologyKind::Mesh,
            TopoSpec::Torus => TopologyKind::Torus,
            TopoSpec::Ring => TopologyKind::Ring,
            TopoSpec::DegradedMesh { .. } => TopologyKind::Degraded,
        }
    }
}

/// Fabric sizing knobs a synthetic scenario may override — the VC-count
/// and buffer-depth axes of the design-space search. `None` on the
/// scenario keeps [`noc_sim::SimConfig::synthetic`]'s defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocParams {
    /// Virtual networks (message classes) per port. The NN encoder is
    /// sized `ports × vnets × features`, so NN line-ups must train with a
    /// matching [`rl_arb::TrainSpec::vnets`] override.
    pub vnets: usize,
    /// Per-VC buffer capacity in flits.
    pub vc_capacity_flits: u32,
}

/// One scenario (row group) of the run matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// Open-loop synthetic traffic on a `width × height` mesh.
    Synthetic {
        /// Short label used in cells and tables.
        label: String,
        /// Mesh width.
        width: u16,
        /// Mesh height.
        height: u16,
        /// Traffic pattern.
        pattern: Pattern,
        /// Injection rate (packets/node/cycle).
        rate: f64,
        /// Router graph the scenario runs on (built at `width × height`
        /// scale).
        topo: TopoSpec,
        /// Routing function.
        routing: RoutingKind,
        /// Override for `SimConfig::starvation_threshold`.
        starvation_threshold: Option<u64>,
        /// Fabric sizing overrides (VC count, buffer depth); `None` keeps
        /// the simulator defaults.
        noc: Option<NocParams>,
        /// Per-scenario line-up override (Fig. 5 swaps the distilled
        /// policy variant per mesh size).
        lineup: Option<Lineup>,
    },
    /// Closed-loop APU run: four copies of one benchmark, one per quadrant.
    ApuWorkload {
        /// Benchmark name (see [`apu_workloads::Benchmark::name`]).
        benchmark: String,
    },
    /// Closed-loop APU mixed scenario: `n_low` low-injection apps and
    /// `4 − n_low` high-injection apps (Fig. 11's 0L4H … 4L0H axis).
    ApuMix {
        /// Number of low-injection quadrants.
        n_low: usize,
    },
}

/// A 4x4 synthetic scenario with no starvation-threshold, fabric or
/// line-up override.
pub(crate) fn mesh4x4(
    label: impl Into<String>,
    pattern: Pattern,
    rate: f64,
    topo: TopoSpec,
    routing: RoutingKind,
) -> ScenarioSpec {
    ScenarioSpec::Synthetic {
        label: label.into(),
        width: 4,
        height: 4,
        pattern,
        rate,
        topo,
        routing,
        starvation_threshold: None,
        noc: None,
        lineup: None,
    }
}

impl ScenarioSpec {
    /// The label cells of this scenario carry.
    pub fn label(&self) -> String {
        match self {
            ScenarioSpec::Synthetic { label, .. } => label.clone(),
            ScenarioSpec::ApuWorkload { benchmark } => benchmark.clone(),
            ScenarioSpec::ApuMix { n_low } => apu_workloads::mix_label(*n_low),
        }
    }

    /// Whether this scenario runs on the APU backend.
    pub fn is_apu(&self) -> bool {
        matches!(self, ScenarioSpec::ApuWorkload { .. } | ScenarioSpec::ApuMix { .. })
    }
}

/// The optional fault-injection axis of a run matrix.
///
/// When present, the driver runs every scenario once per intensity:
/// intensity `0.0` is the unmodified fault-free scenario, and a positive
/// intensity `i` deterministically generates a
/// [`noc_sim::FaultPlan`] with `round(i × num_mesh_links)` fault events
/// (see [`noc_sim::FaultPlan::generate`]). Rows produced by a positive
/// intensity carry an `@f<intensity>` label suffix, and their cells record
/// the plan hash.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAxis {
    /// Fault intensities, in presentation order. `0.0` means "no plan".
    pub intensities: Vec<f64>,
    /// Fraction of the run window (`warmup + measure`) kept fault-free at
    /// the *end*: plans are generated over `(1 - quiet_tail)` of the
    /// window, so every event has ended by then. `0.0` (the usual
    /// setting) scales plans to the whole window; the self-healing figure
    /// uses a positive tail so all policies get a guaranteed drain period
    /// in which recovery time is measurable rather than saturating at the
    /// unrecovered penalty.
    pub quiet_tail: f64,
    /// When true, fault onsets are shifted past the warm-up period (the
    /// plan is generated over the post-warmup portion of the window and
    /// then delayed by `warmup` cycles). Recovery episodes then open
    /// against a *converged* latency baseline: an onset landing in the
    /// first few hundred cycles of a cold network would snapshot a
    /// still-climbing EMA as "healthy", setting a recovery bar below what
    /// the healed network can actually reach.
    pub post_warmup: bool,
}

/// Which policy a row is normalized to (the "normalization reference"
/// recorded in the `RunRecord`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalize {
    /// Absolute values, no reference.
    None,
    /// Divide by the first line-up entry (the de-featuring ablation's
    /// "full" variant).
    First,
    /// Divide by the last line-up entry (the figures' Global-age column).
    Last,
}

/// A declarative description of one figure's run matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Canonical figure name (`fig09`, `table3`, `load_sweep`, …).
    pub figure: String,
    /// Output file basename (kept equal to the legacy binary name so
    /// regenerated artifacts land on the checked-in paths).
    pub output: String,
    /// Human title printed above the table.
    pub title: String,
    /// Default policy line-up (scenarios may override).
    pub lineup: Lineup,
    /// How the NN slot is filled, when the line-up has one.
    pub nn: Option<NnRecipe>,
    /// The scenarios, in presentation order.
    pub scenarios: Vec<ScenarioSpec>,
    /// Optional fault-injection axis: each scenario is swept once per
    /// intensity (`None` ≡ a single fault-free pass).
    pub faults: Option<FaultAxis>,
    /// `--quick` budgets.
    pub quick: TierParams,
    /// Full budgets.
    pub full: TierParams,
    /// Normalization reference.
    pub normalize: Normalize,
}

impl ExperimentSpec {
    /// The budget block for a tier.
    pub fn params(&self, tier: Tier) -> &TierParams {
        match tier {
            Tier::Quick => &self.quick,
            Tier::Full => &self.full,
        }
    }

    /// The seed list for a tier: `base, base+1, …`.
    pub fn seed_list(&self, base: u64, tier: Tier) -> Vec<u64> {
        (0..self.params(tier).seeds as u64).map(|i| base + i).collect()
    }

    /// Canonical name of the normalization reference policy, if any.
    pub fn normalization_policy(&self) -> Option<String> {
        let entry = match self.normalize {
            Normalize::None => return None,
            Normalize::First => self.lineup.entries.first(),
            Normalize::Last => self.lineup.entries.last(),
        };
        entry.map(|e| e.canonical_name().to_string())
    }

    /// A 64-bit FNV-1a hash over the spec's canonical encoding, stamped
    /// into every `RunRecord` so downstream tooling can detect that two
    /// results came from the same experiment definition.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(format!("{self:?}").as_bytes()))
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_entries_round_trip() {
        for name in [
            "round-robin",
            "nn",
            "global-age",
            "rl-apu",
            "nn-online",
            "nn-vcctl",
            "nn-online-vcctl",
        ] {
            let entry = LineupEntry::parse(name).unwrap();
            assert_eq!(entry.canonical_name(), name);
        }
        assert!(LineupEntry::parse("no-such-policy").is_err());
    }

    #[test]
    fn self_heal_slots_use_the_trained_artifact() {
        for name in ["nn", "nn-online", "nn-vcctl", "nn-online-vcctl"] {
            assert!(LineupEntry::parse(name).unwrap().uses_artifact(), "{name}");
            assert!(Lineup::parse(&["fifo", name]).has_nn_slot(), "{name}");
        }
        assert!(!LineupEntry::parse("fifo").unwrap().uses_artifact());
        assert!(!Lineup::parse(&["fifo", "global-age"]).has_nn_slot());
    }

    #[test]
    fn spec_hash_is_stable_and_sensitive() {
        let spec = ExperimentSpec {
            figure: "t".into(),
            output: "t".into(),
            title: "t".into(),
            lineup: Lineup::parse(&["fifo", "global-age"]),
            nn: None,
            scenarios: vec![ScenarioSpec::ApuWorkload { benchmark: "bfs".into() }],
            faults: None,
            quick: TierParams::zeroed(),
            full: TierParams::zeroed(),
            normalize: Normalize::Last,
        };
        let h1 = spec.hash_hex();
        assert_eq!(h1, spec.clone().hash_hex(), "hash must be deterministic");
        let mut other = spec;
        other.quick.seeds = 7;
        assert_ne!(h1, other.hash_hex(), "hash must see budget changes");
    }

    #[test]
    fn topo_specs_build_label_and_kind_agree() {
        let specs = [
            TopoSpec::Mesh,
            TopoSpec::Torus,
            TopoSpec::Ring,
            TopoSpec::DegradedMesh { seed: 9, drop_percent: 25 },
        ];
        for t in specs {
            let built = t.build(4, 4).unwrap();
            assert_eq!(built.kind(), t.kind(), "{} built the wrong family", t.label());
            assert_eq!(built.kind().as_str(), t.label());
            assert_eq!(built.num_nodes(), 16, "one core per router at 4x4 scale");
        }
    }

    #[test]
    fn normalization_reference_names() {
        let mut spec = ExperimentSpec {
            figure: "t".into(),
            output: "t".into(),
            title: "t".into(),
            lineup: Lineup::parse(&["rl-apu", "nn", "global-age"]),
            nn: None,
            scenarios: Vec::new(),
            faults: None,
            quick: TierParams::zeroed(),
            full: TierParams::zeroed(),
            normalize: Normalize::Last,
        };
        assert_eq!(spec.normalization_policy().as_deref(), Some("global-age"));
        spec.normalize = Normalize::First;
        assert_eq!(spec.normalization_policy().as_deref(), Some("rl-apu"));
        spec.normalize = Normalize::None;
        assert_eq!(spec.normalization_policy(), None);
    }
}

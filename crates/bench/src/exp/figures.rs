//! The figure registry: every EXPERIMENTS.md figure, reachable by name.
//!
//! A figure is either **matrix** — a declarative [`ExperimentSpec`] (run
//! matrix over scenarios × policies × seeds) plus a renderer that turns
//! the collected cells into the legacy binary's exact text — or
//! **custom** — a procedure (training curves, weight heatmaps, the
//! analytical synthesis table) that cannot be expressed as a cell matrix
//! and instead returns its text and structured rows directly. Both run
//! through [`super::driver::run_figure`] and emit a `RunRecord`.
//!
//! Renderers reproduce the pre-refactor binaries' stdout byte-for-byte;
//! `tests/driver_equivalence.rs` pins that for Fig. 5 and Fig. 9.

use apu_sim::{make_apu_sim, EngineConfig, APU_MESH, NUM_QUADRANTS};
use apu_workloads::{Benchmark, InjectionClass};
use noc_sim::{NodeId, Pattern, RoutingKind, SimConfig};
use rl_arb::{
    hill_climb, train_synthetic, weight_heatmap, AgentConfig, DqnAgent, Feature, FeatureSet,
    PartitionedAgents, RewardKind, StateEncoder, TrainSpec,
};

use super::backend::CellRecord;
use super::driver::MatrixData;
use super::record::Table;
use super::spec::{
    mesh4x4, ExperimentSpec, FaultAxis, Lineup, NnRecipe, Normalize, ScenarioSpec, TierParams,
    TopoSpec,
};
use crate::{geomean, render_series, render_table, series_table, train_apu_agent, CliArgs};

/// One registered figure.
#[derive(Debug)]
pub struct FigureDef {
    /// Canonical driver name (`fig05`, `table3`, …).
    pub name: &'static str,
    /// The output-file stem (`<out-dir>/<output>.json`, `.csv`), kept
    /// apart from `name` so regenerated files land on the checked-in
    /// `results/` paths.
    pub output: &'static str,
    /// One-line description for `repro list`.
    pub summary: &'static str,
    /// How the figure runs.
    pub kind: FigureKind,
}

/// Matrix (spec + renderer) or custom (procedure) execution.
#[derive(Debug)]
pub enum FigureKind {
    /// A declarative run matrix.
    Matrix {
        /// Builds the figure's spec.
        spec: fn() -> ExperimentSpec,
        /// Renders collected cells into the legacy text and table.
        render: Renderer,
        /// Whether the legacy binary also wrote a CSV of the table.
        csv: bool,
    },
    /// A procedure that cannot be expressed as a cell matrix.
    Custom(CustomFn),
}

/// Renders a completed matrix into the report text and record table.
pub type Renderer = fn(&ExperimentSpec, &TierParams, &MatrixData) -> Rendered;

/// Runs a custom figure end-to-end.
pub type CustomFn = fn(&CliArgs) -> CustomOutput;

/// A renderer's output.
#[derive(Debug)]
pub struct Rendered {
    /// Exact stdout text of the figure (legacy-compatible).
    pub text: String,
    /// The table, machine-readable, for the `RunRecord`.
    pub table: Table,
}

/// A custom figure's output.
#[derive(Debug)]
pub struct CustomOutput {
    /// Exact stdout text of the figure (legacy-compatible).
    pub text: String,
    /// The headline table for the `RunRecord`.
    pub table: Table,
    /// Structured per-row values for the `RunRecord`.
    pub cells: Vec<CellRecord>,
    /// Backend tag recorded in the `RunRecord`.
    pub backend: &'static str,
}

/// Every figure, in EXPERIMENTS.md presentation order.
pub fn all() -> &'static [FigureDef] {
    &FIGURES
}

/// Resolves a figure by name.
pub fn find(name: &str) -> Option<&'static FigureDef> {
    FIGURES.iter().find(|d| d.name == name)
}

/// The canonical figure names.
pub fn names() -> Vec<&'static str> {
    FIGURES.iter().map(|d| d.name).collect()
}

static FIGURES: [FigureDef; 21] = [
    FigureDef {
        name: "fig04",
        output: "fig04_heatmap",
        summary: "hidden-layer weight heatmap of the 4x4 synthetic agent",
        kind: FigureKind::Custom(fig04),
    },
    FigureDef {
        name: "fig05",
        output: "fig05_synthetic",
        summary: "synthetic-mesh latency, four policies, normalized to Global-age",
        kind: FigureKind::Matrix { spec: spec_fig05, render: render_fig05, csv: false },
    },
    FigureDef {
        name: "fig07",
        output: "fig07_apu_heatmap",
        summary: "hidden-layer weight heatmap of the APU (bfs) agent",
        kind: FigureKind::Custom(fig07),
    },
    FigureDef {
        name: "fig09",
        output: "fig09_avg_exec",
        summary: "normalized average execution time across the nine workloads",
        kind: FigureKind::Matrix { spec: spec_fig09, render: render_fig09, csv: true },
    },
    FigureDef {
        name: "fig10",
        output: "fig10_tail_exec",
        summary: "normalized tail execution time across the nine workloads",
        kind: FigureKind::Matrix { spec: spec_fig10, render: render_fig10, csv: true },
    },
    FigureDef {
        name: "fig11",
        output: "fig11_mixed",
        summary: "mixed-application scenarios, normalized avg execution time",
        kind: FigureKind::Matrix { spec: spec_fig11, render: render_fig11, csv: true },
    },
    FigureDef {
        name: "fig12",
        output: "fig12_rewards",
        summary: "training curves under the three reward functions",
        kind: FigureKind::Custom(fig12),
    },
    FigureDef {
        name: "fig13",
        output: "fig13_features",
        summary: "training curves per feature set, plus hill-climbing selection",
        kind: FigureKind::Custom(fig13),
    },
    FigureDef {
        name: "table3",
        output: "table3_synthesis",
        summary: "analytical 32nm synthesis results (latency/area/power)",
        kind: FigureKind::Custom(table3_figure),
    },
    FigureDef {
        name: "load_sweep",
        output: "load_sweep",
        summary: "latency vs offered load, 4x4 uniform random",
        kind: FigureKind::Matrix { spec: spec_load_sweep, render: render_load_sweep, csv: true },
    },
    FigureDef {
        name: "extended_policies",
        output: "extended_policies",
        summary: "every policy in the library on one synthetic and one APU workload",
        kind: FigureKind::Matrix {
            spec: spec_extended_policies,
            render: render_extended_policies,
            csv: false,
        },
    },
    FigureDef {
        name: "ablation_defeature",
        output: "ablation_defeature",
        summary: "Algorithm 2 with the port / message-type conditions removed",
        kind: FigureKind::Matrix {
            spec: spec_ablation_defeature,
            render: render_ablation_defeature,
            csv: false,
        },
    },
    FigureDef {
        name: "ablation_routing",
        output: "ablation_routing",
        summary: "policy ordering under X-Y vs west-first adaptive routing",
        kind: FigureKind::Matrix {
            spec: spec_ablation_routing,
            render: render_ablation_routing,
            csv: false,
        },
    },
    FigureDef {
        name: "ablation_hparams",
        output: "ablation_hparams",
        summary: "agent hyperparameter ablation (paper vs tuned values)",
        kind: FigureKind::Custom(ablation_hparams),
    },
    FigureDef {
        name: "ablation_multi_agent",
        output: "ablation_multi_agent",
        summary: "one shared agent vs one agent per quadrant",
        kind: FigureKind::Custom(ablation_multi_agent),
    },
    FigureDef {
        name: "starvation_check",
        output: "starvation_check",
        summary: "starvation under feasible hotspot traffic (§6.4)",
        kind: FigureKind::Matrix {
            spec: spec_starvation_check,
            render: render_starvation_check,
            csv: false,
        },
    },
    FigureDef {
        name: "resilience",
        output: "resilience",
        summary: "graceful degradation under deterministic fault injection",
        kind: FigureKind::Matrix {
            spec: spec_resilience,
            render: render_resilience,
            csv: true,
        },
    },
    FigureDef {
        name: "selfheal",
        output: "selfheal",
        summary: "self-healing: frozen vs online arbitration x static vs learned buffers x fault intensity",
        kind: FigureKind::Matrix {
            spec: spec_selfheal,
            render: render_selfheal,
            csv: true,
        },
    },
    FigureDef {
        name: "conformance",
        output: "conformance",
        summary: "randomized invariant-checker conformance sweep over both simulators",
        kind: FigureKind::Custom(super::conformance::run),
    },
    FigureDef {
        name: "routing",
        output: "routing",
        summary: "routing x topology x fault-intensity sweep (mesh/torus/ring/degraded)",
        kind: FigureKind::Matrix {
            spec: spec_routing,
            render: render_routing,
            csv: true,
        },
    },
    FigureDef {
        name: "search",
        output: "search",
        summary: "design-space search (--driver hc|evo|random, --budget N): pareto front",
        kind: FigureKind::Custom(super::search::search_figure),
    },
];

fn mk_table(headers: &[&str], rows: Vec<Vec<String>>) -> Table {
    Table {
        headers: headers.iter().map(|h| h.to_string()).collect(),
        rows,
    }
}

// --------------------------------------------------------------------
// Matrix figure specs
// --------------------------------------------------------------------

fn spec_fig05() -> ExperimentSpec {
    ExperimentSpec {
        figure: "fig05".into(),
        output: "fig05_synthetic".into(),
        title: "Fig. 5: message latency, uniform random (normalized to Global-age)".into(),
        lineup: Lineup::parse(&["fifo", "rl-synth-4x4", "nn", "global-age"]),
        nn: Some(NnRecipe::SyntheticPerScenario),
        scenarios: vec![
            mesh4x4("4x4", Pattern::UniformRandom, 0.40, TopoSpec::Mesh, RoutingKind::XY),
            ScenarioSpec::Synthetic {
                label: "8x8".into(),
                width: 8,
                height: 8,
                pattern: Pattern::UniformRandom,
                rate: 0.20,
                topo: TopoSpec::Mesh,
                routing: RoutingKind::XY,
                starvation_threshold: None,
                noc: None,
                // The distilled policy has a per-mesh variant (§3.2).
                lineup: Some(Lineup::parse(&["fifo", "rl-synth-8x8", "nn", "global-age"])),
            },
        ],
        faults: None,
        quick: TierParams {
            warmup: 1_000,
            measure: 6_000,
            nn_epochs: 8,
            nn_epoch_cycles: 1_000,
            ..TierParams::zeroed()
        },
        full: TierParams {
            warmup: 5_000,
            measure: 40_000,
            nn_epochs: 60,
            nn_epoch_cycles: 2_000,
            ..TierParams::zeroed()
        },
        normalize: Normalize::Last,
    }
}

fn apu_workload_scenarios() -> Vec<ScenarioSpec> {
    Benchmark::ALL
        .iter()
        .map(|b| ScenarioSpec::ApuWorkload { benchmark: b.name().to_string() })
        .collect()
}

fn spec_apu_normalized(figure: &str, output: &str, title: &str, nn_repeats_full: usize) -> ExperimentSpec {
    ExperimentSpec {
        figure: figure.into(),
        output: output.into(),
        title: title.into(),
        lineup: Lineup::parse(&[
            "round-robin",
            "islip",
            "fifo",
            "probdist",
            "rl-apu",
            "nn",
            "global-age",
        ]),
        nn: Some(NnRecipe::ApuBenchmark { benchmark: "bfs".into() }),
        scenarios: apu_workload_scenarios(),
        faults: None,
        quick: TierParams {
            max_cycles: 4_000_000,
            seeds: 2,
            apu_scale: 0.08,
            nn_repeats: 1,
            ..TierParams::zeroed()
        },
        full: TierParams {
            max_cycles: 4_000_000,
            seeds: 4,
            apu_scale: 0.5,
            nn_repeats: nn_repeats_full,
            ..TierParams::zeroed()
        },
        normalize: Normalize::Last,
    }
}

fn spec_fig09() -> ExperimentSpec {
    spec_apu_normalized(
        "fig09",
        "fig09_avg_exec",
        "Fig. 9: normalized average execution time (global-age = 1.0)",
        3,
    )
}

fn spec_fig10() -> ExperimentSpec {
    spec_apu_normalized(
        "fig10",
        "fig10_tail_exec",
        "Fig. 10: normalized tail execution time (global-age = 1.0)",
        3,
    )
}

fn spec_fig11() -> ExperimentSpec {
    let mut spec = spec_apu_normalized(
        "fig11",
        "fig11_mixed",
        "Fig. 11: mixed workloads, normalized avg execution time",
        2,
    );
    spec.scenarios = (0..=NUM_QUADRANTS).map(|n_low| ScenarioSpec::ApuMix { n_low }).collect();
    spec
}

fn spec_load_sweep() -> ExperimentSpec {
    ExperimentSpec {
        figure: "load_sweep".into(),
        output: "load_sweep".into(),
        title: "latency vs offered load, 4x4 uniform random".into(),
        lineup: Lineup::parse(&["round-robin", "fifo", "rl-synth-4x4", "global-age"]),
        nn: None,
        scenarios: (1..=11)
            .map(|i| {
                let rate = 0.05 * i as f64;
                let label = format!("{rate:.2}");
                mesh4x4(label, Pattern::UniformRandom, rate, TopoSpec::Mesh, RoutingKind::XY)
            })
            .collect(),
        faults: None,
        quick: TierParams { warmup: 1_000, measure: 4_000, ..TierParams::zeroed() },
        full: TierParams { warmup: 3_000, measure: 15_000, ..TierParams::zeroed() },
        normalize: Normalize::None,
    }
}

fn spec_extended_policies() -> ExperimentSpec {
    ExperimentSpec {
        figure: "extended_policies".into(),
        output: "extended_policies".into(),
        title: "extended policy comparison".into(),
        lineup: Lineup::parse(&[
            "random",
            "round-robin",
            "islip",
            "wavefront",
            "ping-pong",
            "fifo",
            "local-age",
            "probdist",
            "slack-aware",
            "rl-synth-4x4",
            "rl-apu",
            "algorithm2-paper",
            "global-age",
        ]),
        nn: None,
        scenarios: vec![
            mesh4x4("4x4@0.42", Pattern::UniformRandom, 0.42, TopoSpec::Mesh, RoutingKind::XY),
            ScenarioSpec::ApuWorkload { benchmark: "spmv".into() },
        ],
        faults: None,
        quick: TierParams {
            warmup: 1_000,
            measure: 5_000,
            max_cycles: 4_000_000,
            apu_scale: 0.08,
            ..TierParams::zeroed()
        },
        full: TierParams {
            warmup: 3_000,
            measure: 20_000,
            max_cycles: 4_000_000,
            apu_scale: 0.5,
            ..TierParams::zeroed()
        },
        normalize: Normalize::None,
    }
}

fn spec_ablation_defeature() -> ExperimentSpec {
    ExperimentSpec {
        figure: "ablation_defeature".into(),
        output: "ablation_defeature".into(),
        title: "§5.1 ablation: avg execution time relative to full Algorithm 2".into(),
        lineup: Lineup::parse(&["rl-apu", "rl-apu-no-port", "rl-apu-no-msgtype"]),
        nn: None,
        scenarios: apu_workload_scenarios(),
        faults: None,
        quick: TierParams {
            max_cycles: 4_000_000,
            seeds: 2,
            apu_scale: 0.08,
            ..TierParams::zeroed()
        },
        full: TierParams {
            max_cycles: 4_000_000,
            seeds: 4,
            apu_scale: 0.5,
            ..TierParams::zeroed()
        },
        normalize: Normalize::First,
    }
}

fn spec_ablation_routing() -> ExperimentSpec {
    let base: [(&str, Pattern, f64); 3] = [
        ("uniform@0.40", Pattern::UniformRandom, 0.40),
        ("tornado@0.30", Pattern::Tornado, 0.30),
        (
            "hotspot@0.18",
            Pattern::Hotspot { node: NodeId(5), fraction: 0.04 },
            0.18,
        ),
    ];
    let mut scenarios = Vec::new();
    for (label, pattern, rate) in base {
        for (suffix, routing) in
            [("xy", RoutingKind::XY), ("adaptive", RoutingKind::WestFirstAdaptive)]
        {
            let label = format!("{label} [{suffix}]");
            scenarios.push(mesh4x4(label, pattern, rate, TopoSpec::Mesh, routing));
        }
    }
    ExperimentSpec {
        figure: "ablation_routing".into(),
        output: "ablation_routing".into(),
        title: "routing ablation: X-Y vs west-first adaptive (4x4 mesh)".into(),
        lineup: Lineup::parse(&["fifo", "rl-synth-4x4", "global-age"]),
        nn: None,
        scenarios,
        faults: None,
        quick: TierParams { warmup: 1_000, measure: 5_000, ..TierParams::zeroed() },
        full: TierParams { warmup: 3_000, measure: 25_000, ..TierParams::zeroed() },
        normalize: Normalize::None,
    }
}

fn spec_starvation_check() -> ExperimentSpec {
    ExperimentSpec {
        figure: "starvation_check".into(),
        output: "starvation_check".into(),
        title: "§6.4 starvation check: feasible hotspot traffic, 8x8 mesh".into(),
        lineup: Lineup::parse(&["rl-apu", "global-age", "newest-first"]),
        nn: None,
        scenarios: vec![ScenarioSpec::Synthetic {
            label: "8x8 hotspot".into(),
            width: 8,
            height: 8,
            // Offered load at the hotspot ejection port stays below one
            // flit/cycle — feasible but hot; backlogs reflect policy, not
            // overload (see the legacy binary's derivation).
            pattern: Pattern::Hotspot { node: NodeId(27), fraction: 0.025 },
            rate: 0.18,
            topo: TopoSpec::Mesh,
            routing: RoutingKind::XY,
            starvation_threshold: Some(1_000),
            noc: None,
            lineup: None,
        }],
        // warmup 0: measure from cycle zero, ages accumulate unreset.
        faults: None,
        quick: TierParams { warmup: 0, measure: 20_000, ..TierParams::zeroed() },
        full: TierParams { warmup: 0, measure: 100_000, ..TierParams::zeroed() },
        normalize: Normalize::None,
    }
}

fn spec_resilience() -> ExperimentSpec {
    ExperimentSpec {
        figure: "resilience".into(),
        output: "resilience".into(),
        title: "resilience: graceful degradation under deterministic fault injection".into(),
        // No NN slot: the resilience sweep compares the distilled policies
        // and classic baselines so the quick smoke needs no training.
        lineup: Lineup::parse(&["round-robin", "fifo", "rl-synth-4x4", "global-age"]),
        nn: None,
        scenarios: vec![mesh4x4(
            "4x4",
            Pattern::UniformRandom,
            0.30,
            TopoSpec::Mesh,
            RoutingKind::XY,
        )],
        // Intensity i generates round(i x num_mesh_links) fault events;
        // 0.0 is the fault-free reference row.
        faults: Some(FaultAxis { intensities: vec![0.0, 0.25, 0.5, 1.0], quiet_tail: 0.0, post_warmup: false }),
        quick: TierParams { warmup: 500, measure: 4_000, ..TierParams::zeroed() },
        full: TierParams {
            warmup: 3_000,
            measure: 20_000,
            seeds: 3,
            ..TierParams::zeroed()
        },
        normalize: Normalize::None,
    }
}

fn spec_selfheal() -> ExperimentSpec {
    ExperimentSpec {
        figure: "selfheal".into(),
        output: "selfheal".into(),
        title: "self-healing: online learning and learned VC buffer control under faults"
            .into(),
        // The 2x2 of the two learned decision points, all warm-started
        // from one trained artifact: frozen vs online arbitration x
        // static vs learned buffers. The frozen "nn" column is the
        // zero-learning baseline the recovery columns are read against.
        lineup: Lineup::parse(&["nn", "nn-online", "nn-vcctl", "nn-online-vcctl"]),
        nn: Some(NnRecipe::SyntheticPerScenario),
        scenarios: vec![mesh4x4(
            "4x4",
            Pattern::UniformRandom,
            // Below saturation: under faults the network must still be
            // able to drain, or no policy can ever recover (the latency
            // EMA sits pinned at its congested plateau and the recovery
            // column saturates at the unrecovered penalty).
            0.15,
            TopoSpec::Mesh,
            RoutingKind::XY,
        )],
        // Intensity i generates round(i x num_mesh_links) fault events;
        // 0.0 is the fault-free sanity row (online learning should not
        // hurt a healthy network).
        faults: Some(FaultAxis {
            intensities: vec![0.0, 0.3, 0.6],
            quiet_tail: 0.5,
            post_warmup: true,
        }),
        quick: TierParams {
            warmup: 500,
            measure: 4_000,
            // Online-vs-frozen recovery deltas are ~1-2% of the window;
            // a single seed's fluctuation is the same order, so even the
            // quick tier averages three seeds per cell.
            seeds: 3,
            nn_epochs: 8,
            nn_epoch_cycles: 1_000,
            ..TierParams::zeroed()
        },
        full: TierParams {
            warmup: 3_000,
            measure: 20_000,
            seeds: 3,
            nn_epochs: 60,
            nn_epoch_cycles: 2_000,
            ..TierParams::zeroed()
        },
        normalize: Normalize::None,
    }
}

fn spec_routing() -> ExperimentSpec {
    // One row group per (routing, topology) pair, all at 16 routers with
    // one core each so rows are comparable. X-Y and table routing share
    // the mesh rows as a baseline; the torus/ring rows show the wraparound
    // gain; the degraded row exercises table routing around missing links.
    let pairs: [(&str, TopoSpec, RoutingKind); 5] = [
        ("xy@mesh", TopoSpec::Mesh, RoutingKind::XY),
        ("table@mesh", TopoSpec::Mesh, RoutingKind::TableShortest),
        ("torus@torus", TopoSpec::Torus, RoutingKind::TorusDimOrder),
        ("ring@ring", TopoSpec::Ring, RoutingKind::RingShortest),
        (
            "table@degraded",
            TopoSpec::DegradedMesh { seed: 9, drop_percent: 25 },
            RoutingKind::TableShortest,
        ),
    ];
    let scenarios = pairs
        .into_iter()
        .map(|(label, topo, routing)| mesh4x4(label, Pattern::UniformRandom, 0.25, topo, routing))
        .collect();
    ExperimentSpec {
        figure: "routing".into(),
        output: "routing".into(),
        title: "routing x topology x fault-intensity sweep".into(),
        // No NN slot: classic policies only, so the quick smoke needs no
        // training (same reasoning as the resilience figure).
        lineup: Lineup::parse(&["round-robin", "fifo", "global-age"]),
        nn: None,
        scenarios,
        // 0.0 is the fault-free reference; 0.5 stresses each graph with
        // round(0.5 x num_links) fault events drawn on its own link set.
        faults: Some(FaultAxis { intensities: vec![0.0, 0.5], quiet_tail: 0.0, post_warmup: false }),
        quick: TierParams { warmup: 500, measure: 4_000, ..TierParams::zeroed() },
        full: TierParams {
            warmup: 3_000,
            measure: 20_000,
            seeds: 3,
            ..TierParams::zeroed()
        },
        normalize: Normalize::None,
    }
}

// --------------------------------------------------------------------
// Matrix figure renderers
// --------------------------------------------------------------------

fn render_fig05(spec: &ExperimentSpec, _params: &TierParams, data: &MatrixData) -> Rendered {
    let mut text = String::from(
        "== Fig. 5: message latency, uniform random (normalized to Global-age) ==\n\n",
    );
    let headers = ["policy", "avg (cyc)", "avg norm", "p99 (cyc)", "p99 norm", "max"];
    let mut record_rows = Vec::new();
    for (scenario, sc) in spec.scenarios.iter().zip(&data.scenarios) {
        let ScenarioSpec::Synthetic { width, height, rate, .. } = scenario else {
            unreachable!("fig05 scenarios are synthetic")
        };
        let n = sc.canonical.len();
        let avgs: Vec<f64> = (0..n).map(|p| sc.cell(0, p).metric("avg_latency")).collect();
        let p99s: Vec<f64> = (0..n).map(|p| sc.cell(0, p).metric("p99_latency")).collect();
        let (ga_avg, ga_p99) = (*avgs.last().unwrap(), *p99s.last().unwrap());
        let rows: Vec<Vec<String>> = (0..n)
            .map(|p| {
                let max = sc.cell(0, p).metric("max_latency");
                vec![
                    sc.display[p].clone(),
                    format!("{:.1}", avgs[p]),
                    format!("{:.2}", avgs[p] / ga_avg),
                    format!("{:.0}", p99s[p]),
                    format!("{:.2}", p99s[p] / ga_p99),
                    format!("{max}"),
                ]
            })
            .collect();
        text.push_str(&format!("{width}x{height} mesh @ injection rate {rate}:\n"));
        text.push_str(&render_table(&headers, &rows));
        text.push('\n');
        for row in rows {
            let mut r = vec![sc.label.clone()];
            r.extend(row);
            record_rows.push(r);
        }
    }
    let mut rec_headers = vec!["mesh"];
    rec_headers.extend(headers);
    Rendered { text, table: mk_table(&rec_headers, record_rows) }
}

/// Shared Fig. 9 / 10 / 11 renderer: per-row values of `metric`
/// normalized to the last (Global-age) column, plus a geomean row when
/// `geomean_row` is set.
fn render_apu_normalized(
    metric: &str,
    title: &str,
    first_col: &str,
    geomean_row: bool,
    data: &MatrixData,
) -> Rendered {
    let n_policies = data.scenarios[0].canonical.len();
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); n_policies];
    let mut rows = Vec::new();
    for sc in &data.scenarios {
        let values = sc.means(metric);
        let reference = *values.last().unwrap();
        let mut row = vec![sc.label.clone()];
        for (i, v) in values.iter().enumerate() {
            per_policy[i].push(v / reference);
            row.push(format!("{:.3}", v / reference));
        }
        rows.push(row);
    }
    if geomean_row {
        let mut gm_row = vec!["geomean".to_string()];
        gm_row.extend(per_policy.iter().map(|v| format!("{:.3}", geomean(v))));
        rows.push(gm_row);
    }

    let mut headers = vec![first_col];
    let display = &data.scenarios[0].display;
    headers.extend(display.iter().map(String::as_str));
    let text = format!("\n== {title} ==\n\n{}\n", render_table(&headers, &rows));
    Rendered { text, table: mk_table(&headers, rows) }
}

fn render_fig09(_spec: &ExperimentSpec, _params: &TierParams, data: &MatrixData) -> Rendered {
    render_apu_normalized(
        "avg_exec",
        "Fig. 9: normalized average execution time (global-age = 1.0)",
        "workload",
        true,
        data,
    )
}

fn render_fig10(_spec: &ExperimentSpec, _params: &TierParams, data: &MatrixData) -> Rendered {
    render_apu_normalized(
        "tail_exec",
        "Fig. 10: normalized tail execution time (global-age = 1.0)",
        "workload",
        true,
        data,
    )
}

fn render_fig11(_spec: &ExperimentSpec, _params: &TierParams, data: &MatrixData) -> Rendered {
    render_apu_normalized(
        "avg_exec",
        "Fig. 11: mixed workloads, normalized avg execution time",
        "mix",
        false,
        data,
    )
}

fn render_load_sweep(_spec: &ExperimentSpec, _params: &TierParams, data: &MatrixData) -> Rendered {
    let mut headers: Vec<String> = vec!["rate".into()];
    for name in &data.scenarios[0].canonical {
        headers.push(format!("{name} avg"));
        headers.push(format!("{name} p99"));
    }
    let rows: Vec<Vec<String>> = data
        .scenarios
        .iter()
        .map(|sc| {
            let mut row = vec![sc.label.clone()];
            for p in 0..sc.canonical.len() {
                let c = sc.cell(0, p);
                row.push(format!("{:.1}", c.metric("avg_latency")));
                row.push(format!("{}", c.metric("p99_latency")));
            }
            row
        })
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let text = format!(
        "\n== latency vs offered load, 4x4 uniform random ==\n\n{}\n",
        render_table(&header_refs, &rows)
    );
    Rendered { text, table: mk_table(&header_refs, rows) }
}

fn render_extended_policies(
    _spec: &ExperimentSpec,
    _params: &TierParams,
    data: &MatrixData,
) -> Rendered {
    let syn = &data.scenarios[0];
    let apu = &data.scenarios[1];
    let rows: Vec<Vec<String>> = (0..syn.canonical.len())
        .map(|p| {
            let s = syn.cell(0, p);
            let r = apu.cell(0, p);
            vec![
                syn.canonical[p].clone(),
                format!("{:.1}", s.metric("avg_latency")),
                format!("{}", s.metric("p99_latency")),
                format!("{:.3}", s.metric("jain_fairness")),
                format!("{:.0}", r.metric("avg_exec")),
                format!("{}", r.metric("tail_exec")),
            ]
        })
        .collect();
    let headers = ["policy", "syn avg", "syn p99", "syn jain", "apu avg exec", "apu tail"];
    let text = format!(
        "\n== extended policy comparison ==\n(synthetic: 4x4 uniform random @ 0.42; APU: spmv x 4 copies)\n\n{}\n",
        render_table(&headers, &rows)
    );
    Rendered { text, table: mk_table(&headers, rows) }
}

fn render_ablation_defeature(
    _spec: &ExperimentSpec,
    _params: &TierParams,
    data: &MatrixData,
) -> Rendered {
    let n_variants = data.scenarios[0].canonical.len();
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    let mut rows = Vec::new();
    for sc in &data.scenarios {
        let values = sc.means("avg_exec");
        let full = values[0];
        let mut row = vec![sc.label.clone()];
        for (i, v) in values.iter().enumerate() {
            ratios[i].push(v / full);
            row.push(format!("{:.3}", v / full));
        }
        rows.push(row);
    }
    let mut gm = vec!["geomean".to_string()];
    for r in &ratios {
        gm.push(format!("{:.3}", geomean(r)));
    }
    rows.push(gm);
    // The de-featured terms matter most where the NoC is actually
    // contended, so also report the high-injection subset.
    let hi_idx: Vec<usize> = Benchmark::ALL
        .iter()
        .enumerate()
        .filter(|(_, b)| b.injection_class() == InjectionClass::High)
        .map(|(i, _)| i)
        .collect();
    let mut gm_hi = vec!["geomean (high-inj)".to_string()];
    for r in &ratios {
        let subset: Vec<f64> = hi_idx.iter().map(|&i| r[i]).collect();
        gm_hi.push(format!("{:.3}", geomean(&subset)));
    }
    rows.push(gm_hi);

    let headers = ["workload", "full", "no-port", "no-msgtype"];
    let text = format!(
        "\n== §5.1 ablation: avg execution time relative to full Algorithm 2 ==\n\n{}\n",
        render_table(&headers, &rows)
    );
    Rendered { text, table: mk_table(&headers, rows) }
}

fn render_ablation_routing(
    _spec: &ExperimentSpec,
    _params: &TierParams,
    data: &MatrixData,
) -> Rendered {
    let mut rows = Vec::new();
    for pair in data.scenarios.chunks(2) {
        let (xy, adaptive) = (&pair[0], &pair[1]);
        let base = xy.label.split(" [").next().unwrap().to_string();
        for p in 0..xy.canonical.len() {
            let x = xy.cell(0, p);
            let a = adaptive.cell(0, p);
            rows.push(vec![
                base.clone(),
                xy.canonical[p].clone(),
                format!("{:.1}", x.metric("avg_latency")),
                format!("{}", x.metric("p99_latency")),
                format!("{:.1}", a.metric("avg_latency")),
                format!("{}", a.metric("p99_latency")),
            ]);
        }
    }
    let headers = ["scenario", "policy", "xy avg", "xy p99", "adaptive avg", "adaptive p99"];
    let text = format!(
        "\n== routing ablation: X-Y vs west-first adaptive (4x4 mesh) ==\n\n{}\n",
        render_table(&headers, &rows)
    );
    Rendered { text, table: mk_table(&headers, rows) }
}

fn render_starvation_check(
    _spec: &ExperimentSpec,
    params: &TierParams,
    data: &MatrixData,
) -> Rendered {
    let cycles = params.measure;
    let names = [
        "RL-inspired (distilled, with starvation clause)",
        "Global-age (oracle)",
        "Newest-first (adversarial control)",
    ];
    let sc = &data.scenarios[0];
    let mut text = format!(
        "== §6.4 starvation check: feasible hotspot traffic, 8x8 mesh, {cycles} cycles ==\n\n"
    );
    let mut rows = Vec::new();
    for (p, name) in names.into_iter().enumerate() {
        let c = sc.cell(0, p);
        let (max_age, starving) = (c.metric("max_local_age"), c.metric("starving_packets"));
        let (p999, max_lat) = (c.metric("p999_latency"), c.metric("max_latency"));
        text.push_str(&format!("{name}:\n"));
        text.push_str(&format!("  max local age seen            : {max_age}\n"));
        text.push_str(&format!("  packets starving (> 1000 cyc) : {starving}\n"));
        text.push_str(&format!("  p99.9 / max delivered latency : {p999} / {max_lat}\n\n"));
        rows.push(vec![
            sc.canonical[p].clone(),
            format!("{max_age}"),
            format!("{starving}"),
            format!("{p999}"),
            format!("{max_lat}"),
        ]);
    }
    text.push_str("expected: newest-first starves (huge max age/latency); the\n");
    text.push_str("RL-inspired starvation clause keeps the tail bounded.\n");
    let headers = ["policy", "max local age", "starving", "p99.9", "max latency"];
    Rendered { text, table: mk_table(&headers, rows) }
}

/// One column of a fault table: header, metric (seed mean per policy) and
/// decimal places.
type FaultColumn = (&'static str, &'static str, usize);

/// The graceful-degradation columns of the resilience and routing tables.
const DEGRADATION_COLUMNS: [FaultColumn; 7] = [
    ("avg lat", "avg_latency", 1),
    ("p99 lat", "p99_latency", 0),
    ("throughput", "throughput", 4),
    ("jain", "jain_fairness", 3),
    ("delivered", "delivered", 0),
    ("drops", "link_fault_drops", 0),
    ("wedged", "wedged_ports", 0),
];

fn render_resilience(_spec: &ExperimentSpec, _params: &TierParams, data: &MatrixData) -> Rendered {
    render_fault_table(
        "resilience: graceful degradation under deterministic fault injection",
        &DEGRADATION_COLUMNS,
        data,
        None,
    )
}

fn render_routing(_spec: &ExperimentSpec, _params: &TierParams, data: &MatrixData) -> Rendered {
    render_fault_table("routing x topology x fault-intensity sweep", &DEGRADATION_COLUMNS, data, None)
}

fn render_selfheal(_spec: &ExperimentSpec, params: &TierParams, data: &MatrixData) -> Rendered {
    render_fault_table(
        "self-healing: online learning and learned VC buffer control under faults",
        &[
            ("avg lat", "avg_latency", 1),
            ("p99 lat", "p99_latency", 0),
            ("recovery (cyc)", "recovery_time", 0),
            ("post-fault lat", "post_fault_latency", 1),
            ("onsets", "fault_onsets", 1),
            ("recovered", "recoveries", 1),
            ("delivered", "delivered", 0),
        ],
        data,
        Some(format!(
            "recovery (cyc): mean cycles from fault onset until the latency EMA\nreturns to within 12.5% (plus an 8-cycle absolute slack) of its\npre-onset baseline; unrecovered onsets are charged the full {}-cycle\nmeasurement window. Lower is better; read online vs frozen within one\nintensity row group.\n",
            params.measure
        )),
    )
}

/// Renders a fault-sweep table: the title, one line per row group naming
/// its fault plan, then one row per (row group, policy) with `columns`
/// and, after a blank line, the optional `trailer`.
fn render_fault_table(
    title: &str,
    columns: &[FaultColumn],
    data: &MatrixData,
    trailer: Option<String>,
) -> Rendered {
    let mut headers = vec!["scenario", "policy"];
    headers.extend(columns.iter().map(|&(header, _, _)| header));
    let mut rows = Vec::new();
    let mut text = format!("== {title} ==\n\n");
    for sc in &data.scenarios {
        for p in 0..sc.canonical.len() {
            let mut row = vec![sc.label.clone(), sc.display[p].clone()];
            row.extend(
                columns.iter().map(|&(_, metric, places)| format!("{:.*}", places, sc.mean(p, metric))),
            );
            rows.push(row);
        }
        if let Some(hash) = &sc.fault_plan_hash {
            text.push_str(&format!(
                "{}: intensity {:.2}, fault plan {hash}\n",
                sc.label, sc.fault_intensity
            ));
        } else {
            text.push_str(&format!("{}: fault-free reference\n", sc.label));
        }
    }
    text.push('\n');
    text.push_str(&render_table(&headers, &rows));
    text.push('\n');
    text.push_str(trailer.as_deref().unwrap_or_default());
    Rendered { text, table: mk_table(&headers, rows) }
}

// --------------------------------------------------------------------
// Custom figures (procedures the matrix cannot express)
// --------------------------------------------------------------------

fn fig04(args: &CliArgs) -> CustomOutput {
    // Train at a contended operating point with the tuned recipe — at
    // light load there is almost no arbitration and hence no signal.
    let mut spec = TrainSpec::tuned_synthetic(4, 0.40, args.seed);
    if args.quick {
        spec.curriculum = vec![(0.32, 4)];
        spec.epochs = 8;
        spec.cycles_per_epoch = 800;
    }
    rl_arb::progress!(
        "training agent: {} epochs x {} cycles on 4x4 uniform random ...",
        spec.epochs, spec.cycles_per_epoch
    );
    let outcome = train_synthetic(&spec);
    let hm = weight_heatmap(outcome.agent.network(), outcome.agent.encoder());

    let mut text = String::new();
    text.push_str("== Fig. 4: hidden-layer |weight| heatmap (4x4 mesh agent) ==\n");
    text.push_str("rows: features, columns: input buffers (port x VC); darker = larger\n\n");
    text.push_str(&format!("{}\n", hm.to_ascii()));
    text.push_str("feature importance (mean |w| across all buffers):\n");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (row, mean) in hm.ranked_rows() {
        text.push_str(&format!("  {:>14}: {:.4}\n", hm.row_labels[row], mean));
        rows.push(vec![hm.row_labels[row].clone(), format!("{mean:.4}")]);
        cells.push(CellRecord::new(
            "4x4-agent".into(),
            hm.row_labels[row].clone(),
            args.seed,
            vec![("mean_abs_weight".into(), mean)],
        ));
    }
    text.push_str(&format!("\ncsv:\n{}\n", hm.to_csv()));
    text.push_str(&format!(
        "training curve (avg latency per epoch): {:?}\n",
        outcome.curve.iter().map(|l| (l * 10.0).round() / 10.0).collect::<Vec<_>>()
    ));
    CustomOutput {
        text,
        table: mk_table(&["feature", "mean |w|"], rows),
        cells,
        backend: "synthetic",
    }
}

fn fig07(args: &CliArgs) -> CustomOutput {
    let scale = args.apu_scale();
    let repeats = if args.quick { 1 } else { 3 };
    let specs = vec![Benchmark::Bfs.spec_scaled(scale); NUM_QUADRANTS];
    rl_arb::progress!("training agent on bfs x{repeats} (scale {scale}) ...");
    let agent = train_apu_agent(specs, repeats, 2_000_000, args.seed);
    let hm = weight_heatmap(agent.network(), agent.encoder());

    let mut text = String::new();
    text.push_str("== Fig. 7: hidden-layer |weight| heatmap (APU agent, bfs) ==\n");
    text.push_str("rows: 12 feature entries, columns: 42 buffers (Core/Mem/N/S/W/E x 7 VCs)\n\n");
    text.push_str(&format!("{}\n", hm.to_ascii()));
    text.push_str("feature importance (mean |w| across buffers):\n");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (row, mean) in hm.ranked_rows() {
        text.push_str(&format!("  {:>20}: {:.4}\n", hm.row_labels[row], mean));
        rows.push(vec![hm.row_labels[row].clone(), format!("{mean:.4}")]);
        cells.push(CellRecord::new(
            "apu-bfs-agent".into(),
            hm.row_labels[row].clone(),
            args.seed,
            vec![("mean_abs_weight".into(), mean)],
        ));
    }
    text.push_str(&format!(
        "\nagent: {} decisions, {} explored, replay {} entries\n",
        agent.decisions(),
        agent.explored(),
        agent.replay_len()
    ));
    text.push_str(&format!("\ncsv:\n{}\n", hm.to_csv()));
    CustomOutput {
        text,
        table: mk_table(&["feature", "mean |w|"], rows),
        cells,
        backend: "apu",
    }
}

fn fig12(args: &CliArgs) -> CustomOutput {
    let (epochs, cycles) = if args.quick { (10, 800) } else { (50, 2_000) };
    let mut series = Vec::new();
    let mut cells = Vec::new();
    for reward in RewardKind::ALL {
        rl_arb::progress!("training with reward {} ...", reward.label());
        // Cold start at the edge of saturation (like the paper's Fig. 12,
        // whose y-axis starts near 1000 cycles): an agent that learns pulls
        // the network out of congestion; one that does not stays there.
        let mut spec = TrainSpec::tuned_synthetic(4, 0.40, args.seed);
        spec.curriculum = Vec::new();
        spec.epochs = epochs;
        spec.cycles_per_epoch = cycles;
        spec.agent = spec.agent.with_reward(reward);
        let out = train_synthetic(&spec);
        let converged = out.converged(1.15);
        rl_arb::progress!(
            "  final latency {:.1}, best {:.1}, converged: {converged}",
            out.final_latency(),
            out.best_latency()
        );
        cells.push(CellRecord::new(
            "4x4@0.40".into(),
            reward.label().to_string(),
            args.seed,
            vec![
                ("final_latency".into(), out.final_latency()),
                ("best_latency".into(), out.best_latency()),
                ("converged".into(), if converged { 1.0 } else { 0.0 }),
            ],
        ));
        series.push((reward.label().to_string(), out.curve));
    }
    let labels: Vec<String> = (1..=epochs).map(|e| e.to_string()).collect();
    let text = format!(
        "\n== Fig. 12: avg message latency (cycles) vs training epoch ==\n\n{}\n",
        render_series("epoch", &labels, &series)
    );
    CustomOutput {
        text,
        table: series_table("epoch", &labels, &series),
        cells,
        backend: "synthetic",
    }
}

fn fig13(args: &CliArgs) -> CustomOutput {
    let (epochs, cycles) = if args.quick { (8, 800) } else { (40, 2_000) };
    let variants: Vec<(&str, FeatureSet)> = vec![
        ("payload", FeatureSet::only(Feature::PayloadSize)),
        ("localage", FeatureSet::only(Feature::LocalAge)),
        ("distance", FeatureSet::only(Feature::Distance)),
        ("hop", FeatureSet::only(Feature::HopCount)),
        ("allfeature", FeatureSet::synthetic()),
    ];
    let mut series = Vec::new();
    let mut cells = Vec::new();
    for (name, features) in variants {
        rl_arb::progress!("training with features: {name} ...");
        let mut spec = TrainSpec::tuned_synthetic(4, 0.40, args.seed);
        spec.curriculum = Vec::new();
        spec.epochs = epochs;
        spec.cycles_per_epoch = cycles;
        spec.features = features;
        let out = train_synthetic(&spec);
        cells.push(CellRecord::new(
            "4x4@0.40".into(),
            name.to_string(),
            args.seed,
            vec![
                ("final_latency".into(), out.final_latency()),
                ("best_latency".into(), out.best_latency()),
            ],
        ));
        series.push((name.to_string(), out.curve));
    }
    let labels: Vec<String> = (1..=epochs).map(|e| e.to_string()).collect();
    let mut text = format!(
        "\n== Fig. 13: avg message latency (cycles) vs training epoch, per feature set ==\n\n{}\n",
        render_series("epoch", &labels, &series)
    );

    // §6.5: hill-climbing over the synthetic feature pool.
    rl_arb::progress!("hill-climbing feature selection ...");
    let mut spec = TrainSpec::tuned_synthetic(4, 0.40, args.seed);
    spec.curriculum = Vec::new();
    spec.epochs = if args.quick { 4 } else { 12 };
    spec.cycles_per_epoch = if args.quick { 600 } else { 1_500 };
    let result = hill_climb(
        &spec,
        &[Feature::PayloadSize, Feature::LocalAge, Feature::Distance, Feature::HopCount],
        0.02,
    );
    text.push_str("hill-climbing (§6.5) selected features, in adoption order:\n");
    for f in &result.selected {
        text.push_str(&format!("  {}\n", f.label()));
    }
    text.push_str(&format!("settled latency: {:.1} cycles\n", result.value));
    text.push_str(&format!("evaluations performed: {}\n", result.history.len()));
    CustomOutput {
        text,
        table: series_table("epoch", &labels, &series),
        cells,
        backend: "synthetic",
    }
}

fn table3_figure(_args: &CliArgs) -> CustomOutput {
    let tech = hw_cost::TechNode::nm32();
    let rows = hw_cost::table3(&tech);
    let mut cells = Vec::new();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            cells.push(CellRecord::new(
                "32nm".into(),
                r.design.clone(),
                0,
                vec![
                    ("latency_ns".into(), r.report.latency_ns),
                    ("area_mm2".into(), r.report.area_mm2),
                    ("power_mw".into(), r.report.power_mw),
                    ("meets_timing".into(), if r.report.meets_timing { 1.0 } else { 0.0 }),
                ],
            ));
            vec![
                r.design.clone(),
                format!("{:.2}", r.report.latency_ns),
                format!("{:.4}", r.report.area_mm2),
                format!("{:.2}", r.report.power_mw),
                if r.report.meets_timing { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let headers = ["design", "latency (ns)", "area (mm^2)", "power (mW)", "meets 1GHz"];
    let mut text = String::from("== Table 3: synthesis results (analytical 32nm model) ==\n\n");
    text.push_str(&format!("{}\n", render_table(&headers, &table_rows)));
    let (p, m) = hw_cost::rl_inspired_latency_split(42, &tech);
    text.push_str(&format!(
        "proposed arbiter latency split: {p:.2} ns priority + {m:.2} ns select-max\n"
    ));
    text.push_str("(paper: 8.17/1.2344/63.67 NN; 0.89/0.0012/0.07 RR; 1.10/0.0044/0.27 proposed)\n");
    CustomOutput {
        text,
        table: mk_table(&headers, table_rows),
        cells,
        backend: "analytical",
    }
}

fn ablation_hparams(args: &CliArgs) -> CustomOutput {
    let (epochs, cycles) = if args.quick { (12, 800) } else { (50, 2_000) };
    let variants: Vec<(&str, AgentConfig)> = vec![
        ("paper (lr.001 g.9 e.001 b2)", AgentConfig::paper_synthetic(args.seed)),
        ("tuned (lr.05 g.2 e.05 b16)", AgentConfig::tuned_synthetic(args.seed)),
        ("tuned, gamma=0.9", {
            let mut c = AgentConfig::tuned_synthetic(args.seed);
            c.gamma = 0.9;
            c
        }),
        ("tuned, gamma=0.0", {
            let mut c = AgentConfig::tuned_synthetic(args.seed);
            c.gamma = 0.0;
            c
        }),
        ("tuned, lr=0.001", {
            let mut c = AgentConfig::tuned_synthetic(args.seed);
            c.lr = 0.001;
            c
        }),
        ("tuned, batch=2", {
            let mut c = AgentConfig::tuned_synthetic(args.seed);
            c.batch_size = 2;
            c
        }),
        ("tuned, eps=0.001", {
            let mut c = AgentConfig::tuned_synthetic(args.seed);
            c.epsilon = 0.001;
            c
        }),
        ("tuned + double DQN", AgentConfig::tuned_synthetic(args.seed).with_double_dqn(true)),
        (
            "tuned + prioritized (a=0.6)",
            AgentConfig::tuned_synthetic(args.seed).with_prioritized(0.6),
        ),
    ];

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (name, agent) in variants {
        rl_arb::progress!("training: {name} ...");
        let mut spec = TrainSpec::tuned_synthetic(4, 0.40, args.seed);
        spec.agent = agent;
        spec.curriculum = Vec::new();
        spec.epochs = epochs;
        spec.cycles_per_epoch = cycles;
        let out = train_synthetic(&spec);
        let acc = out.agent.cumulative_reward() / out.agent.decisions().max(1) as f64;
        let tail = &out.curve[out.curve.len() - out.curve.len() / 4..];
        let settled = tail.iter().sum::<f64>() / tail.len() as f64;
        cells.push(CellRecord::new(
            "4x4@0.40".into(),
            name.to_string(),
            args.seed,
            vec![
                ("settled_latency".into(), settled),
                ("best_epoch_latency".into(), out.best_latency()),
                ("oracle_accuracy".into(), acc),
            ],
        ));
        rows.push(vec![
            name.to_string(),
            format!("{settled:.1}"),
            format!("{:.1}", out.best_latency()),
            format!("{acc:.3}"),
        ]);
    }
    let headers = ["configuration", "settled latency", "best epoch", "oracle acc"];
    let mut text =
        format!("\n== hyperparameter ablation: training on 4x4 @ 0.40 ==\n\n{}\n", render_table(&headers, &rows));
    text.push_str("the paper's published values do not converge in this substrate;\n");
    text.push_str("the decisive change is the discount factor (see DESIGN.md).\n");
    CustomOutput { text, table: mk_table(&headers, rows), cells, backend: "synthetic" }
}

fn ablation_multi_agent(args: &CliArgs) -> CustomOutput {
    let scale = args.apu_scale();
    let repeats = if args.quick { 1 } else { 3 };
    let specs = vec![Benchmark::Bfs.spec_scaled(scale); NUM_QUADRANTS];
    let cfg = SimConfig::apu(APU_MESH, APU_MESH);
    let encoder = StateEncoder::new(6, cfg.num_vnets, FeatureSet::full(), cfg.feature_bounds);

    rl_arb::progress!("training single shared agent ...");
    let single = DqnAgent::new(encoder.clone(), AgentConfig::tuned_apu(args.seed)).into_shared();
    for rep in 0..repeats {
        let mut sim = make_apu_sim(
            specs.clone(),
            Box::new(single.training_arbiter()),
            EngineConfig::default(),
            args.seed.wrapping_add(rep),
        );
        sim.run_until_done(4_000_000);
    }
    let single_agent = single.into_inner();
    let single_acc = single_agent.cumulative_reward() / single_agent.decisions().max(1) as f64;

    rl_arb::progress!("training four per-quadrant agents ...");
    let apu = apu_sim::ApuTopology::build();
    let partition =
        PartitionedAgents::by_quadrant(apu.topology(), &encoder, &AgentConfig::tuned_apu(args.seed));
    for rep in 0..repeats {
        let mut sim = make_apu_sim(
            specs.clone(),
            Box::new(partition.training_arbiter()),
            EngineConfig::default(),
            args.seed.wrapping_add(rep),
        );
        sim.run_until_done(4_000_000);
    }
    let quad_agents = partition.into_agents();

    let mut cells = vec![CellRecord::new(
        "apu-bfs".into(),
        "single shared".into(),
        args.seed,
        vec![
            ("decisions".into(), single_agent.decisions() as f64),
            ("oracle_accuracy".into(), single_acc),
        ],
    )];
    let mut rows = vec![vec![
        "single shared".to_string(),
        format!("{}", single_agent.decisions()),
        format!("{single_acc:.3}"),
    ]];
    for (q, a) in quad_agents.iter().enumerate() {
        let acc = a.cumulative_reward() / a.decisions().max(1) as f64;
        cells.push(CellRecord::new(
            "apu-bfs".into(),
            format!("quadrant {q}"),
            args.seed,
            vec![
                ("decisions".into(), a.decisions() as f64),
                ("oracle_accuracy".into(), acc),
            ],
        ));
        rows.push(vec![format!("quadrant {q}"), format!("{}", a.decisions()), format!("{acc:.3}")]);
    }
    let headers = ["agent", "decisions", "oracle accuracy"];
    let mut text =
        format!("\n== multi-agent ablation: bfs training on the APU ==\n\n{}\n", render_table(&headers, &rows));
    text.push_str("per-quadrant agents see a quarter of the data each; with the\n");
    text.push_str("quadrant-symmetric workload their accuracies match the shared\n");
    text.push_str("agent's, supporting the paper's 'not fundamental' remark.\n");
    CustomOutput { text, table: mk_table(&headers, rows), cells, backend: "apu" }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::spec::Tier;

    #[test]
    fn registry_names_are_unique_and_resolve() {
        let mut seen = std::collections::HashSet::new();
        for def in all() {
            assert!(seen.insert(def.name), "duplicate figure name {}", def.name);
            assert!(find(def.name).is_some());
        }
        assert_eq!(all().len(), 21);
    }

    /// Every (topology, routing) pair in the routing figure is mutually
    /// compatible and builds a connected graph at its scenario scale.
    #[test]
    fn routing_figure_pairs_are_compatible() {
        let FigureKind::Matrix { spec, .. } = &find("routing").unwrap().kind else {
            panic!("routing should be a matrix figure")
        };
        let s = spec();
        assert_eq!(s.scenarios.len(), 5);
        for scenario in &s.scenarios {
            let ScenarioSpec::Synthetic { width, height, topo, routing, .. } = scenario
            else {
                panic!("routing scenarios are synthetic")
            };
            let t = topo.build(*width, *height).expect("scenario topology builds");
            assert!(
                routing.supports(t.kind()),
                "{} does not support {}",
                routing.as_str(),
                t.kind().as_str()
            );
            assert_eq!(t.num_nodes(), 16, "all rows must compare equal node counts");
        }
    }

    #[test]
    fn every_matrix_spec_builds_and_hashes() {
        for def in all() {
            if let FigureKind::Matrix { spec, .. } = &def.kind {
                let s = spec();
                assert_eq!(s.figure, def.name, "spec figure name mismatch");
                assert_eq!(s.output, def.output, "spec output basename mismatch");
                assert!(!s.scenarios.is_empty(), "{}: no scenarios", def.name);
                assert_eq!(s.hash_hex().len(), 16);
                // Seed lists must be non-empty in both tiers.
                assert!(!s.seed_list(42, Tier::Quick).is_empty());
                assert!(!s.seed_list(42, Tier::Full).is_empty());
            }
        }
    }

    #[test]
    fn apu_normalized_specs_reference_global_age() {
        for name in ["fig09", "fig10", "fig11"] {
            let FigureKind::Matrix { spec, .. } = &find(name).unwrap().kind else {
                panic!("{name} should be a matrix figure")
            };
            assert_eq!(spec().normalization_policy().as_deref(), Some("global-age"));
        }
    }
}

#[cfg(test)]
mod fault_table_bytes {
    use super::*;
    use crate::exp::driver::ScenarioData;

    /// Every metric the fault tables read, offset per (scenario, seed,
    /// policy) so each printed cell is distinct.
    fn cell(scenario: &str, policy: &str, seed: u64, offset: f64) -> CellRecord {
        let metrics = [
            ("avg_latency", 12.345),
            ("p99_latency", 40.6),
            ("throughput", 0.123_456),
            ("jain_fairness", 0.987_65),
            ("delivered", 1_000.0),
            ("link_fault_drops", 3.0),
            ("wedged_ports", 1.0),
            ("recovery_time", 250.5),
            ("post_fault_latency", 18.25),
            ("fault_onsets", 2.0),
            ("recoveries", 1.0),
        ];
        CellRecord {
            scenario: scenario.into(),
            policy: policy.into(),
            seed,
            artifact: None,
            fault_plan: None,
            cell_hash: None,
            cache: None,
            metrics: metrics.iter().map(|&(n, v)| (n.to_string(), v * offset)).collect(),
        }
    }

    fn scenario(label: &str, intensity: f64, hash: Option<&str>, scale: f64) -> ScenarioData {
        let seeds = vec![42, 43];
        let mut cells = Vec::new();
        for (s, &seed) in seeds.iter().enumerate() {
            for (p, policy) in ["fifo", "nn-online"].into_iter().enumerate() {
                cells.push(cell(label, policy, seed, scale * (1.0 + s as f64) + p as f64));
            }
        }
        ScenarioData {
            label: label.into(),
            fault_intensity: intensity,
            fault_plan_hash: hash.map(String::from),
            canonical: vec!["fifo".into(), "nn-online".into()],
            display: vec!["FIFO".into(), "NN-online".into()],
            seeds,
            cells,
        }
    }

    fn data() -> MatrixData {
        MatrixData {
            scenarios: vec![
                scenario("4x4", 0.0, None, 1.0),
                scenario("4x4@f0.30", 0.3, Some("00c0ffee00c0ffee"), 2.0),
            ],
        }
    }

    fn params() -> TierParams {
        let mut p = TierParams::zeroed();
        p.measure = 1_500;
        p
    }

    /// What the resilience and routing tables print below their title.
    const DEGRADATION_BODY: &str = concat!(
        "4x4: fault-free reference\n",
        "4x4@f0.30: intensity 0.30, fault plan 00c0ffee00c0ffee\n",
        "\n",
        " scenario     policy  avg lat  p99 lat  throughput   jain  delivered  drops  wedged\n",
        "-----------------------------------------------------------------------------------\n",
        "      4x4       FIFO     18.5       61      0.1852  1.481       1500      4       2\n",
        "      4x4  NN-online     30.9      102      0.3086  2.469       2500      8       2\n",
        "4x4@f0.30       FIFO     37.0      122      0.3704  2.963       3000      9       3\n",
        "4x4@f0.30  NN-online     49.4      162      0.4938  3.951       4000     12       4\n",
        "\n",
    );

    fn assert_degradation_table(table: &Table) {
        assert_eq!(
            table.headers,
            [
                "scenario", "policy", "avg lat", "p99 lat", "throughput", "jain", "delivered",
                "drops", "wedged",
            ]
        );
        assert_eq!(
            table.rows,
            [
                ["4x4", "FIFO", "18.5", "61", "0.1852", "1.481", "1500", "4", "2"],
                ["4x4", "NN-online", "30.9", "102", "0.3086", "2.469", "2500", "8", "2"],
                ["4x4@f0.30", "FIFO", "37.0", "122", "0.3704", "2.963", "3000", "9", "3"],
                ["4x4@f0.30", "NN-online", "49.4", "162", "0.4938", "3.951", "4000", "12", "4"],
            ]
        );
    }

    #[test]
    fn resilience_table_bytes_are_pinned() {
        let out = render_resilience(&spec_resilience(), &params(), &data());
        assert_eq!(
            out.text,
            format!(
                "== resilience: graceful degradation under deterministic fault injection ==\n\n\
                 {DEGRADATION_BODY}"
            )
        );
        assert_degradation_table(&out.table);
    }

    #[test]
    fn routing_table_bytes_are_pinned() {
        let out = render_routing(&spec_routing(), &params(), &data());
        assert_eq!(
            out.text,
            format!("== routing x topology x fault-intensity sweep ==\n\n{DEGRADATION_BODY}")
        );
        assert_degradation_table(&out.table);
    }

    #[test]
    fn selfheal_table_bytes_are_pinned() {
        let out = render_selfheal(&spec_selfheal(), &params(), &data());
        assert_eq!(
            out.text,
            concat!(
                "== self-healing: online learning and learned VC buffer control under faults ==\n",
                "\n",
                "4x4: fault-free reference\n",
                "4x4@f0.30: intensity 0.30, fault plan 00c0ffee00c0ffee\n",
                "\n",
                " scenario     policy  avg lat  p99 lat  recovery (cyc)  post-fault lat  onsets  recovered  delivered\n",
                "----------------------------------------------------------------------------------------------------\n",
                "      4x4       FIFO     18.5       61             376            27.4     3.0        1.5       1500\n",
                "      4x4  NN-online     30.9      102             626            45.6     5.0        2.5       2500\n",
                "4x4@f0.30       FIFO     37.0      122             752            54.8     6.0        3.0       3000\n",
                "4x4@f0.30  NN-online     49.4      162            1002            73.0     8.0        4.0       4000\n",
                "\n",
                "recovery (cyc): mean cycles from fault onset until the latency EMA\n",
                "returns to within 12.5% (plus an 8-cycle absolute slack) of its\n",
                "pre-onset baseline; unrecovered onsets are charged the full 1500-cycle\n",
                "measurement window. Lower is better; read online vs frozen within one\n",
                "intensity row group.\n",
            )
        );
        assert_eq!(
            out.table.headers,
            [
                "scenario", "policy", "avg lat", "p99 lat", "recovery (cyc)", "post-fault lat",
                "onsets", "recovered", "delivered",
            ]
        );
        assert_eq!(
            out.table.rows,
            [
                ["4x4", "FIFO", "18.5", "61", "376", "27.4", "3.0", "1.5", "1500"],
                ["4x4", "NN-online", "30.9", "102", "626", "45.6", "5.0", "2.5", "2500"],
                ["4x4@f0.30", "FIFO", "37.0", "122", "752", "54.8", "6.0", "3.0", "3000"],
                ["4x4@f0.30", "NN-online", "49.4", "162", "1002", "73.0", "8.0", "4.0", "4000"],
            ]
        );
    }
}

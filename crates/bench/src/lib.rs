//! # bench — experiment harnesses behind every figure and table
//!
//! The one binary, `repro` (`src/bin/repro.rs`), regenerates every figure
//! and table of the paper by name through the experiment service in
//! [`exp`] (see `DESIGN.md` for the index); this library holds the
//! service and the shared machinery: the flag grammar, measurement loops,
//! agent training helpers for the "NN" policy, and plain-text
//! table/series rendering.
//!
//! Every figure accepts `--quick` (shrink workloads for smoke runs),
//! `--seed <n>`, `--threads <n>` (worker count for the parallel sweep
//! engine in [`sweep`]; `--threads 1` reproduces the serial path
//! bit-for-bit), and `--inference <f32|int8>` (numeric datapath for
//! NN-policy inference; the `f32` default is bit-identical to the
//! historical runs).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exp;
pub mod sweep;

use apu_sim::{run_apu, ApuRunResult, EngineConfig, WorkloadSpec};
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{Arbiter, Pattern, SimConfig, Simulator, SyntheticTraffic, Topology};
use noc_sim::BufferController;
use rl_arb::{AgentConfig, DqnAgent, FeatureSet, NnPolicyArbiter, OnlinePolicy, RlVcController};

/// One entry of the shared flag grammar.
///
/// The registry is the single source the usage line ([`usage_flags`]),
/// `repro --help` and the parser-sync test are generated from, so a flag
/// added to [`CliArgs::parse_from`] cannot drift out of the help text (and
/// vice versa) without a test failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagSpec {
    /// The flag itself, e.g. `"--seed"`.
    pub flag: &'static str,
    /// Value placeholder for value-taking flags (`None` for booleans).
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// Every flag the experiment layer accepts — there is exactly one flag
/// grammar across the whole layer.
pub const FLAG_REGISTRY: &[FlagSpec] = &[
    FlagSpec {
        flag: "--quick",
        value: None,
        help: "shrink workloads/epochs for a fast smoke run",
    },
    FlagSpec {
        flag: "--seed",
        value: Some("<n>"),
        help: "base seed for all stochastic components (default 42)",
    },
    FlagSpec {
        flag: "--threads",
        value: Some("<n>"),
        help: "worker threads for independent-simulation sweeps (1 = serial)",
    },
    FlagSpec {
        flag: "--out-dir",
        value: Some("<dir>"),
        help: "directory for structured outputs (default results/)",
    },
    FlagSpec {
        flag: "--artifacts-dir",
        value: Some("<dir>"),
        help: "content-addressed trained-artifact store (default results/artifacts/)",
    },
    FlagSpec {
        flag: "--cache-dir",
        value: Some("<dir>"),
        help: "content-addressed result cache (default results/cache/)",
    },
    FlagSpec {
        flag: "--cache-stats",
        value: None,
        help: "print the end-of-run cells/hits/misses/cycles summary",
    },
    FlagSpec {
        flag: "--retrain",
        value: None,
        help: "ignore cached artifacts and train fresh ones",
    },
    FlagSpec {
        flag: "--quiet",
        value: None,
        help: "suppress progress chatter on stderr",
    },
    FlagSpec {
        flag: "--inference",
        value: Some("<f32|int8>"),
        help: "numeric datapath for NN-policy inference (default f32)",
    },
    FlagSpec {
        flag: "--driver",
        value: Some("<hc|evo|random>"),
        help: "search driver for `repro search` (default hc)",
    },
    FlagSpec {
        flag: "--budget",
        value: Some("<n>"),
        help: "evaluation budget for `repro search` (default 32)",
    },
];

/// The flag portion of the usage line, generated from
/// [`FLAG_REGISTRY`].
pub fn usage_flags() -> String {
    FLAG_REGISTRY
        .iter()
        .map(|f| match f.value {
            Some(v) => format!("[{} {v}]", f.flag),
            None => format!("[{}]", f.flag),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Command-line options of the `repro` driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Shrink workloads/epochs for a fast smoke run.
    pub quick: bool,
    /// Base seed for all stochastic components.
    pub seed: u64,
    /// Worker threads for independent-simulation sweeps (default: the
    /// host's available parallelism; `1` forces the serial path).
    pub threads: usize,
    /// Directory for structured outputs (RunRecord JSON, CSV).
    pub out_dir: std::path::PathBuf,
    /// The content-addressed trained-artifact store (checkpoints named by
    /// recipe hash; see `exp::artifacts`).
    pub artifacts_dir: std::path::PathBuf,
    /// The content-addressed result cache (cells named by job hash; see
    /// `exp::cache`).
    pub cache_dir: std::path::PathBuf,
    /// Print the end-of-run cache summary line (cells / hits / misses /
    /// simulated cycles).
    pub cache_stats: bool,
    /// Ignore cached artifacts and train fresh ones.
    pub retrain: bool,
    /// Suppress progress chatter on stderr (tables still print to stdout).
    pub quiet: bool,
    /// Numeric datapath for NN-policy inference: full-precision float (the
    /// default, bit-identical to the historical runs) or INT8 fixed-point.
    pub inference: rl_arb::InferenceMode,
    /// Search driver for `repro search` (`hc`, `evo` or `random`; only
    /// consulted by the search figure).
    pub driver: String,
    /// Evaluation budget for `repro search`: the maximum number of design
    /// points the driver may evaluate.
    pub budget: usize,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            quick: false,
            seed: 42,
            threads: sweep::default_threads(),
            out_dir: "results".into(),
            artifacts_dir: "results/artifacts".into(),
            cache_dir: "results/cache".into(),
            cache_stats: false,
            retrain: false,
            quiet: false,
            inference: rl_arb::InferenceMode::F32,
            driver: "hc".into(),
            budget: 32,
        }
    }
}

impl CliArgs {
    /// Parses the shared flags (exactly the [`FLAG_REGISTRY`] grammar)
    /// from an argument iterator. Non-flag arguments are returned as
    /// positionals (the driver's figure name); unknown flags are errors —
    /// never silently ignored.
    pub fn parse_from(
        args: impl Iterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut out = CliArgs::default();
        let mut positionals = Vec::new();
        let mut it = args;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    out.threads = v
                        .parse()
                        .map_err(|_| format!("--threads needs an integer, got '{v}'"))?;
                    if out.threads == 0 {
                        return Err("--threads needs a positive integer".into());
                    }
                }
                "--out-dir" => {
                    out.out_dir = it.next().ok_or("--out-dir needs a value")?.into();
                }
                "--artifacts-dir" => {
                    out.artifacts_dir =
                        it.next().ok_or("--artifacts-dir needs a value")?.into();
                }
                "--cache-dir" => {
                    out.cache_dir = it.next().ok_or("--cache-dir needs a value")?.into();
                }
                "--cache-stats" => out.cache_stats = true,
                "--retrain" => out.retrain = true,
                "--quiet" => out.quiet = true,
                "--inference" => {
                    let v = it.next().ok_or("--inference needs a value (f32 or int8)")?;
                    out.inference = v.parse()?;
                }
                "--driver" => {
                    let v = it.next().ok_or("--driver needs a value (hc, evo or random)")?;
                    if !matches!(v.as_str(), "hc" | "evo" | "random") {
                        return Err(format!("--driver must be hc, evo or random, got '{v}'"));
                    }
                    out.driver = v;
                }
                "--budget" => {
                    let v = it.next().ok_or("--budget needs a value")?;
                    out.budget = v
                        .parse()
                        .map_err(|_| format!("--budget needs an integer, got '{v}'"))?;
                    if out.budget == 0 {
                        return Err("--budget needs a positive integer".into());
                    }
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag '{flag}'"));
                }
                other => positionals.push(other.to_string()),
            }
        }
        Ok((out, positionals))
    }

    /// Workload scale factor for APU runs.
    pub fn apu_scale(&self) -> f64 {
        if self.quick {
            0.08
        } else {
            0.5
        }
    }
}

/// Trains a DQN agent on a synthetic mesh and freezes it into the "NN"
/// policy (used by Fig. 5).
pub fn train_synthetic_nn(
    width: u16,
    height: u16,
    rate: f64,
    epochs: usize,
    cycles_per_epoch: u64,
    seed: u64,
) -> NnPolicyArbiter {
    let mut spec = rl_arb::TrainSpec::tuned_synthetic(width, rate, seed);
    spec.height = height;
    spec.epochs = epochs;
    spec.cycles_per_epoch = cycles_per_epoch;
    rl_arb::train_synthetic(&spec).agent.freeze()
}

/// Trains a DQN agent on the APU system by running the given workload
/// repeatedly ("we execute the same set of model files repeatedly until the
/// training converges", §4.2), and returns the trained agent (freeze it for
/// the "NN" policy, or inspect its weights for the Fig. 7 heatmap).
pub fn train_apu_agent(
    specs: Vec<WorkloadSpec>,
    repeats: usize,
    max_cycles_per_run: u64,
    seed: u64,
) -> DqnAgent {
    let mut env =
        rl_arb::ApuEnv::from_workloads(specs, repeats, max_cycles_per_run, seed, FeatureSet::full());
    rl_arb::Trainer::new(AgentConfig::tuned_apu(seed)).run(&mut env).agent
}

/// Runs one APU experiment (four workload copies) under a policy.
pub fn apu_run(
    specs: Vec<WorkloadSpec>,
    arbiter: Box<dyn Arbiter>,
    seed: u64,
    max_cycles: u64,
) -> ApuRunResult {
    run_apu(specs, arbiter, EngineConfig::default(), seed, max_cycles)
}

/// Renders a plain-text table: header row, then rows of cells.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders aligned numeric series (e.g. training curves): one row per
/// label, one column per series; missing samples render as `-`.
pub fn render_series(title: &str, labels: &[String], series: &[(String, Vec<f64>)]) -> String {
    let table = series_table(title, labels, series);
    let headers: Vec<&str> = table.headers.iter().map(String::as_str).collect();
    render_table(&headers, &table.rows)
}

/// The machine-readable form of a [`render_series`] table.
pub(crate) fn series_table(
    title: &str,
    labels: &[String],
    series: &[(String, Vec<f64>)],
) -> exp::Table {
    let mut headers = vec![title.to_string()];
    headers.extend(series.iter().map(|(name, _)| name.clone()));
    let rows = labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let mut row = vec![label.clone()];
            for (_, values) in series {
                row.push(values.get(i).map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()));
            }
            row
        })
        .collect();
    exp::Table { headers, rows }
}

/// A named, thread-constructible arbitration policy.
///
/// The parallel sweep engine needs to build a fresh `Box<dyn Arbiter>`
/// inside each worker (trait objects are not `Send` here, but the *recipe*
/// is), so policies are carried as specs and instantiated per job. Builtin
/// policies defer to [`noc_arbiters::make_arbiter`] with the job's seed —
/// exactly what the serial path did — and the NN policy clones the trained
/// network, exactly as the serial line-up cloned it per seed.
#[derive(Debug, Clone)]
pub struct PolicySpec {
    /// Display name for tables/CSV headers.
    pub name: String,
    kind: PolicySpecKind,
    vc_ctl: bool,
}

#[derive(Debug, Clone)]
enum PolicySpecKind {
    Builtin(PolicyKind),
    // Boxed: the trained network dwarfs the registry tag.
    Nn(Box<NnPolicyArbiter>),
    // Online learning: the prototype (artifact warm start) is re-seeded
    // per run so each sweep seed gets its own exploration stream.
    NnOnline(Box<OnlinePolicy>),
}

impl PolicySpec {
    /// A spec for one of the registry policies.
    pub fn builtin(name: impl Into<String>, kind: PolicyKind) -> Self {
        PolicySpec {
            name: name.into(),
            kind: PolicySpecKind::Builtin(kind),
            vc_ctl: false,
        }
    }

    /// A spec for a frozen trained network ("NN" column).
    pub fn nn(name: impl Into<String>, nn: NnPolicyArbiter) -> Self {
        PolicySpec {
            name: name.into(),
            kind: PolicySpecKind::Nn(Box::new(nn)),
            vc_ctl: false,
        }
    }

    /// A spec for an online-learning policy ("NN-online" column). The
    /// prototype's network/encoder/hyperparameters are kept; its RNG is
    /// re-keyed with the job seed at [`Self::build`] time.
    pub fn nn_online(name: impl Into<String>, proto: OnlinePolicy) -> Self {
        PolicySpec {
            name: name.into(),
            kind: PolicySpecKind::NnOnline(Box::new(proto)),
            vc_ctl: false,
        }
    }

    /// Attaches a learned per-VC buffer controller (the paper-default
    /// [`RlVcController`]) to this policy's runs.
    pub fn with_vc_ctl(mut self) -> Self {
        self.vc_ctl = true;
        self
    }

    /// Instantiates the arbiter for one run.
    pub fn build(&self, seed: u64) -> Box<dyn Arbiter> {
        match &self.kind {
            PolicySpecKind::Builtin(kind) => make_arbiter(*kind, seed),
            PolicySpecKind::Nn(nn) => Box::new((**nn).clone()),
            PolicySpecKind::NnOnline(proto) => {
                let cfg = AgentConfig { seed, ..proto.config().clone() };
                Box::new(OnlinePolicy::new(
                    proto.network().clone(),
                    proto.encoder().clone(),
                    cfg,
                ))
            }
        }
    }

    /// Instantiates the attached buffer controller for one run, if any.
    /// The controller seed is decorrelated from the traffic/arbiter seed
    /// so the two learned decision points draw independent streams.
    pub fn build_controller(&self, seed: u64) -> Option<Box<dyn BufferController>> {
        self.vc_ctl.then(|| {
            Box::new(RlVcController::paper_default(seed ^ 0xBC_0571)) as Box<dyn BufferController>
        })
    }
}

/// The Fig. 9/10/11 policy line-up as specs, in the paper's presentation
/// order. `nn` supplies the frozen trained network when the sweep includes
/// the "NN" column.
pub fn apu_policy_specs(nn: Option<NnPolicyArbiter>) -> Vec<PolicySpec> {
    let mut v = vec![
        PolicySpec::builtin("Round-robin", PolicyKind::RoundRobin),
        PolicySpec::builtin("iSLIP", PolicyKind::Islip),
        PolicySpec::builtin("FIFO", PolicyKind::Fifo),
        PolicySpec::builtin("ProbDist", PolicyKind::ProbDist),
        PolicySpec::builtin("RL-inspired", PolicyKind::RlApu),
    ];
    if let Some(nn) = nn {
        v.push(PolicySpec::nn("NN", nn));
    }
    v.push(PolicySpec::builtin("Global-age", PolicyKind::GlobalAge));
    v
}

/// Multi-seed sweep: every policy runs the experiment once per seed;
/// returns `(policy name, mean avg-exec, mean tail-exec)` rows. Seed
/// averaging tames the run-to-run variance of the statistical workloads.
///
/// All `seeds × policies` simulations are independent, so they dispatch
/// through [`sweep::run_parallel`] on `threads` workers. Results are
/// accumulated in the same (seed-major, policy-minor) order as the
/// historical serial loop, so the output is identical for any `threads`.
pub fn apu_sweep_seeds(
    specs: &[WorkloadSpec],
    seeds: &[u64],
    max_cycles: u64,
    nn: Option<&NnPolicyArbiter>,
    threads: usize,
) -> Vec<(String, f64, f64)> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let policies = apu_policy_specs(nn.cloned());
    let jobs: Vec<(u64, &PolicySpec)> = seeds
        .iter()
        .flat_map(|&seed| policies.iter().map(move |p| (seed, p)))
        .collect();
    let results = sweep::run_parallel(jobs, threads, |(seed, policy)| {
        apu_run(specs.to_vec(), policy.build(seed), seed, max_cycles)
    });
    let n_policies = policies.len();
    let mut avg_sums = vec![0.0; n_policies];
    let mut tail_sums = vec![0.0; n_policies];
    for (j, r) in results.into_iter().enumerate() {
        avg_sums[j % n_policies] += r.avg_exec;
        tail_sums[j % n_policies] += r.tail_exec as f64;
    }
    let n = seeds.len() as f64;
    policies
        .into_iter()
        .zip(avg_sums.into_iter().zip(tail_sums))
        .map(|(p, (a, t))| (p.name, a / n, t / n))
        .collect()
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Runs a policy on a synthetic-traffic mesh — `warmup` cycles
/// discarded, `measure` cycles counted — and returns the statistics of
/// the measurement window.
#[allow(clippy::too_many_arguments)] // experiment parameters, not an API
pub fn synthetic_run(
    width: u16,
    height: u16,
    pattern: Pattern,
    rate: f64,
    arbiter: Box<dyn Arbiter>,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> noc_sim::SimStats {
    let topo = Topology::uniform_mesh(width, height).expect("valid mesh");
    let cfg = SimConfig::synthetic(width, height);
    let traffic = SyntheticTraffic::new(&topo, pattern, rate, cfg.num_vnets, seed);
    let mut sim = Simulator::new(topo, cfg, arbiter, traffic).expect("valid sim");
    sim.run(warmup);
    sim.reset_stats();
    sim.run(measure);
    sim.stats().clone()
}

/// Parameters for the Fig. 5 experiment core ([`fig05_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig05Params {
    /// Warmup cycles discarded before the measurement window.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Training epochs for the NN policy.
    pub epochs: usize,
    /// Cycles per training epoch.
    pub epoch_cycles: u64,
    /// Base seed for training, traffic and seeded policies.
    pub seed: u64,
    /// Sweep worker threads.
    pub threads: usize,
}

impl Fig05Params {
    /// The `--quick` configuration of Fig. 5.
    pub fn quick(seed: u64, threads: usize) -> Self {
        Fig05Params {
            warmup: 1_000,
            measure: 6_000,
            epochs: 8,
            epoch_cycles: 1_000,
            seed,
            threads,
        }
    }

    /// The full configuration of Fig. 5.
    pub fn full(seed: u64, threads: usize) -> Self {
        Fig05Params {
            warmup: 5_000,
            measure: 40_000,
            epochs: 60,
            epoch_cycles: 2_000,
            seed,
            threads,
        }
    }
}

/// The Fig. 5 experiment core: per mesh (4×4 and 8×8), trains the NN
/// policy, measures FIFO / RL-inspired / NN / Global-age under
/// uniform-random traffic — the four runs dispatched through
/// [`sweep::run_parallel`] — and renders the normalized latency tables.
///
/// A pure function of its parameters: equal `Fig05Params` (including
/// different `threads` values) yield byte-identical text, which the
/// determinism regression test in `tests/determinism.rs` pins down.
pub fn fig05_report(p: &Fig05Params) -> String {
    let mut out = String::new();
    for (w, rl_kind, rate) in [
        (4u16, PolicyKind::RlSynth4x4, 0.40),
        (8u16, PolicyKind::RlSynth8x8, 0.20),
    ] {
        rl_arb::progress!("training NN policy for {w}x{w} at rate {rate} ...");
        let nn = train_synthetic_nn(w, w, rate, p.epochs, p.epoch_cycles, p.seed);
        let policies = vec![
            PolicySpec::builtin("FIFO", PolicyKind::Fifo),
            PolicySpec::builtin("RL-inspired", rl_kind),
            PolicySpec::nn("NN", nn),
            PolicySpec::builtin("Global-age", PolicyKind::GlobalAge),
        ];
        let rows_raw: Vec<(String, f64, f64, u64)> =
            sweep::run_parallel(policies, p.threads, |spec| {
                let s = synthetic_run(
                    w,
                    w,
                    Pattern::UniformRandom,
                    rate,
                    spec.build(p.seed),
                    p.warmup,
                    p.measure,
                    p.seed,
                );
                (
                    spec.name,
                    s.avg_latency(),
                    s.latency_percentile(99.0) as f64,
                    s.max_latency(),
                )
            });
        let (ga_avg, ga_p99) = (rows_raw.last().unwrap().1, rows_raw.last().unwrap().2);
        let rows: Vec<Vec<String>> = rows_raw
            .iter()
            .map(|(n, avg, p99, max)| {
                vec![
                    n.clone(),
                    format!("{avg:.1}"),
                    format!("{:.2}", avg / ga_avg),
                    format!("{p99:.0}"),
                    format!("{:.2}", p99 / ga_p99),
                    format!("{max}"),
                ]
            })
            .collect();
        out.push_str(&format!("{w}x{w} mesh @ injection rate {rate}:\n"));
        out.push_str(&render_table(
            &["policy", "avg (cyc)", "avg norm", "p99 (cyc)", "p99 norm", "max"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "2.50".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn render_series_handles_ragged_data() {
        let out = render_series(
            "epoch",
            &["1".into(), "2".into()],
            &[("a".into(), vec![1.0]), ("b".into(), vec![2.0, 3.0])],
        );
        assert!(out.contains('-'), "missing placeholder for ragged series");
    }

    #[test]
    fn inference_flag_parses_both_modes_and_defaults_to_f32() {
        let (args, _) = CliArgs::parse_from(std::iter::empty()).unwrap();
        assert_eq!(args.inference, rl_arb::InferenceMode::F32);
        let (args, _) = CliArgs::parse_from(
            ["--inference".to_string(), "int8".to_string()].into_iter(),
        )
        .unwrap();
        assert_eq!(args.inference, rl_arb::InferenceMode::Int8);
        let (args, _) = CliArgs::parse_from(
            ["--inference".to_string(), "f32".to_string()].into_iter(),
        )
        .unwrap();
        assert_eq!(args.inference, rl_arb::InferenceMode::F32);
    }

    #[test]
    fn inference_flag_rejects_unknown_modes() {
        let err = CliArgs::parse_from(
            ["--inference".to_string(), "fp16".to_string()].into_iter(),
        )
        .unwrap_err();
        assert!(err.contains("fp16"), "unhelpful error: {err}");
        let err = CliArgs::parse_from(["--inference".to_string()].into_iter()).unwrap_err();
        assert!(err.contains("--inference"), "unhelpful error: {err}");
    }

    #[test]
    fn usage_lists_inference_flag() {
        assert!(usage_flags().contains("--inference <f32|int8>"));
        assert!(usage_flags().contains("--driver <hc|evo|random>"));
        assert!(usage_flags().contains("--budget <n>"));
    }

    #[test]
    fn every_registry_flag_parses() {
        // The registry and the parser must agree: every registered flag —
        // with a plausible value when it takes one — must be accepted by
        // `parse_from`. A flag added to one side but not the other fails
        // here instead of silently drifting out of the help text.
        for f in FLAG_REGISTRY {
            let value = f.value.map(|v| match v {
                "<n>" => "3",
                "<dir>" => "tmp",
                "<f32|int8>" => "int8",
                "<hc|evo|random>" => "random",
                other => panic!("unknown placeholder {other} — extend this test"),
            });
            let args = std::iter::once(f.flag.to_string()).chain(value.map(String::from));
            let (_, positionals) =
                CliArgs::parse_from(args).unwrap_or_else(|e| panic!("{} rejected: {e}", f.flag));
            assert!(positionals.is_empty(), "{} left positionals behind", f.flag);
        }
    }

    #[test]
    fn search_flags_parse_and_validate() {
        let (args, _) = CliArgs::parse_from(
            ["--driver", "evo", "--budget", "8"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(args.driver, "evo");
        assert_eq!(args.budget, 8);
        assert!(CliArgs::parse_from(
            ["--budget", "0"].iter().map(|s| s.to_string())
        )
        .is_err());
    }

}

/// Writes `text` to `path` through a uniquely named temp file in the same
/// directory and a rename, so concurrent writers (parallel test threads,
/// parallel figure runs) and killed runs never leave a half-written file.
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn write_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_ID: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let id = TMP_ID.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{id}.tmp", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Writes a CSV file next to the printed table: header row plus data rows.
/// Cells are quoted only when needed. Returns the path written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(
    path: impl AsRef<std::path::Path>,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    let path = path.as_ref().to_path_buf();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let quote = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod csv_tests {
    use super::write_csv;

    #[test]
    fn csv_quotes_only_when_needed() {
        let dir = std::env::temp_dir().join("mlnoc_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b,comma"],
            &[vec!["1".into(), "say \"hi\"".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,\"b,comma\"\n1,\"say \"\"hi\"\"\"\n");
        std::fs::remove_file(path).ok();
    }
}

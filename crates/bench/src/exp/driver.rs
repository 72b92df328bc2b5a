//! The experiment driver: figure name in, text table + `RunRecord` out.
//!
//! [`run_figure`] (and the batched [`run_figures_queued`] behind
//! `repro queue`) resolves figures through the [`super::figures`]
//! registry, plans every run-matrix cell as a job in a
//! [`super::queue::JobQueue`] (training jobs ahead of the simulation
//! cells that depend on them), probes the content-addressed
//! [`super::cache::ResultCache`] so previously-computed cells never
//! re-simulate, drains the queue, then prints the same text the legacy
//! per-figure binary printed and writes the structured [`RunRecord`] JSON
//! (plus CSV where the legacy binary wrote one) into `--out-dir`. All I/O
//! errors propagate to the caller — no silently swallowed writes.
//!
//! ## Determinism
//!
//! A cell's value is a pure function of its [`super::cache::CellJob`]
//! identity, and assembly collects results by job id — scenario-major,
//! then seed-major, then policy-minor. Per-policy seed averages therefore
//! accumulate in increasing-seed order — exactly the summation order of
//! the historical serial loops (e.g. [`crate::apu_sweep_seeds`]) — so
//! every rendered value is bit-identical to the pre-refactor binaries for
//! any `--threads` count, and cache hits are byte-identical to fresh
//! simulations (modulo the `cache` provenance field). The
//! `driver_equivalence` and `result_cache` integration tests pin this.

use std::collections::HashMap;

use noc_sim::codec::fnv1a64;
use noc_sim::{FaultPlan, Topology};
use rl_arb::{progress, ApuTrainSpec, NnPolicyArbiter, TrainRecipe, TrainSpec};

use super::artifacts::{ArtifactStore, ResolvedArtifact};
use super::backend::{apu_specs_for, run_cell, CellRecord, SpecInstance};
use super::cache::{CacheStats, CellJob, ResultCache};
use super::figures::{self, FigureDef, FigureKind};
use super::queue::{JobId, JobQueue};
use super::record::{git_describe, RunRecord};
use super::spec::{
    ExperimentSpec, Lineup, LineupEntry, NnRecipe, ScenarioSpec, Tier, TierParams,
};
use crate::{write_csv, CliArgs, PolicySpec};

/// The collected cells of one scenario, seed-major / policy-minor.
#[derive(Debug)]
pub struct ScenarioData {
    /// Scenario label (carries the `@f<intensity>` suffix for rows a
    /// fault axis expanded).
    pub label: String,
    /// Fault intensity this row group ran under (`0.0` = fault-free).
    pub fault_intensity: f64,
    /// Hash of the generated fault plan (`None` for fault-free rows).
    pub fault_plan_hash: Option<String>,
    /// Canonical policy names, in line-up order.
    pub canonical: Vec<String>,
    /// Display policy names, in line-up order.
    pub display: Vec<String>,
    /// Seeds, in sweep order.
    pub seeds: Vec<u64>,
    /// Cells, seed-major then policy-minor.
    pub cells: Vec<CellRecord>,
}

impl ScenarioData {
    /// The cell of one `(seed index, policy index)` pair.
    pub fn cell(&self, seed_idx: usize, policy_idx: usize) -> &CellRecord {
        &self.cells[seed_idx * self.canonical.len() + policy_idx]
    }

    /// Mean of a metric over the seeds, for one policy.
    ///
    /// Sums in increasing-seed order — the exact accumulation order of the
    /// historical serial sweeps, so multi-seed figures reproduce their
    /// pre-refactor values bitwise.
    pub fn mean(&self, policy_idx: usize, metric: &str) -> f64 {
        let mut sum = 0.0;
        for seed_idx in 0..self.seeds.len() {
            sum += self.cell(seed_idx, policy_idx).metric(metric);
        }
        sum / self.seeds.len() as f64
    }

    /// [`Self::mean`] for every policy, in line-up order.
    pub fn means(&self, metric: &str) -> Vec<f64> {
        (0..self.canonical.len()).map(|p| self.mean(p, metric)).collect()
    }
}

/// The executed run matrix: one [`ScenarioData`] per scenario, in spec
/// order.
#[derive(Debug)]
pub struct MatrixData {
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioData>,
}

impl MatrixData {
    /// All cells, flattened in execution order.
    pub fn all_cells(&self) -> Vec<CellRecord> {
        self.scenarios.iter().flat_map(|s| s.cells.iter().cloned()).collect()
    }
}

/// Runs a figure end-to-end: resolve, execute through the shared
/// queue + result cache, print the text report, write the `RunRecord`
/// JSON (and CSV when the figure historically wrote one) into
/// `args.out_dir`. Returns the record for in-process callers (tests,
/// future tooling).
pub fn run_figure(name: &str, args: &CliArgs) -> Result<RunRecord, String> {
    let mut records = run_figures_queued(&[name], args)?;
    Ok(records.pop().expect("one figure in, one record out"))
}

/// Runs several figures through one shared job queue and result cache —
/// the `repro queue` subcommand (and, with one name, `repro <figure>`).
///
/// All matrix figures are planned together before anything runs:
/// identical cells across figures collapse into one queued job (fig09 and
/// fig10 share their entire sweep), training jobs are enqueued once per
/// distinct recipe with the dependent cells behind them, and cells
/// already in the result cache are not queued at all. The queue then
/// drains once, and each figure renders, prints and writes its
/// `RunRecord` in list order; custom figures run inline at their list
/// position. With `--cache-stats` a final summary line reports
/// cells / hits / misses / simulated cycles.
pub fn run_figures_queued(names: &[&str], args: &CliArgs) -> Result<Vec<RunRecord>, String> {
    rl_arb::set_quiet(args.quiet);
    let tier = if args.quick { Tier::Quick } else { Tier::Full };
    // Resolve every name before any work, so one typo fails the whole
    // batch fast.
    let defs: Vec<&FigureDef> = names
        .iter()
        .map(|name| {
            figures::find(name).ok_or_else(|| {
                format!("unknown figure '{name}' (try: {})", figures::names().join(", "))
            })
        })
        .collect::<Result<_, _>>()?;

    let cache = ResultCache::from_args(args);
    let sim_before = noc_sim::simulated_cycles();
    let mut batch = MatrixBatch::new(args, Some(&cache));
    // Plan phase: matrix figures share the queue; custom figures (which
    // train and simulate inline) run during assembly instead.
    type PlannedFigure = (Box<ExperimentSpec>, TierParams, Vec<u64>, usize);
    let planned: Vec<Option<PlannedFigure>> = defs
        .iter()
        .map(|def| match &def.kind {
            FigureKind::Matrix { spec, .. } => {
                let spec = spec();
                let params = *spec.params(tier);
                let seeds = spec.seed_list(args.seed, tier);
                let idx = batch.add_spec(&spec, &params, &seeds);
                Some((Box::new(spec), params, seeds, idx))
            }
            FigureKind::Custom(_) => None,
        })
        .collect();
    let drained = batch.drain();

    // Assembly phase, in list order.
    let mut records = Vec::with_capacity(defs.len());
    for (def, plan) in defs.iter().zip(planned) {
        let (record, output) = match (&def.kind, plan) {
            (FigureKind::Matrix { render, csv, .. }, Some((spec, params, seeds, idx))) => {
                let data = drained.matrix(idx);
                let rendered = render(&spec, &params, &data);
                print!("{}", rendered.text);
                let record = RunRecord {
                    schema_version: super::record::RUN_RECORD_SCHEMA_VERSION,
                    figure: spec.figure.clone(),
                    title: spec.title.clone(),
                    tier: tier.as_str().into(),
                    backend: backend_label(&spec),
                    base_seed: args.seed,
                    seeds,
                    threads: args.threads as u64,
                    git_describe: git_describe(),
                    spec_hash: spec.hash_hex(),
                    normalization: spec.normalization_policy(),
                    cells: data.all_cells(),
                    table: rendered.table,
                };
                if *csv {
                    let headers: Vec<&str> =
                        record.table.headers.iter().map(String::as_str).collect();
                    let path = write_csv(
                        args.out_dir.join(format!("{}.csv", spec.output)),
                        &headers,
                        &record.table.rows,
                    )
                    .map_err(|e| format!("writing {} csv: {e}", spec.output))?;
                    progress!("csv written to {}", path.display());
                }
                (record, spec.output)
            }
            (FigureKind::Custom(f), None) => {
                let out = f(args);
                print!("{}", out.text);
                let record = RunRecord {
                    schema_version: super::record::RUN_RECORD_SCHEMA_VERSION,
                    figure: def.name.into(),
                    title: def.summary.into(),
                    tier: tier.as_str().into(),
                    backend: out.backend.into(),
                    base_seed: args.seed,
                    seeds: vec![args.seed],
                    threads: args.threads as u64,
                    git_describe: git_describe(),
                    spec_hash: custom_spec_hash(def),
                    normalization: None,
                    cells: out.cells,
                    table: out.table,
                };
                (record, def.output.into())
            }
            _ => unreachable!("plan kind follows def kind"),
        };
        let path = record
            .write(&args.out_dir, &output)
            .map_err(|e| format!("writing {output} run record: {e}"))?;
        progress!("run record written to {}", path.display());
        records.push(record);
    }
    let mut stats = drained.stats;
    stats.simulated_cycles = noc_sim::simulated_cycles() - sim_before;
    if args.cache_stats {
        println!("{}", stats.summary());
    }
    Ok(records)
}

/// Content hash of a custom figure's identity. Custom figures have no
/// `ExperimentSpec` to hash, but every `RunRecord` must carry a real,
/// non-empty `spec_hash`, so they hash their registry identity instead.
fn custom_spec_hash(def: &FigureDef) -> String {
    format!(
        "{:016x}",
        fnv1a64(format!("custom:{}:{}", def.name, def.summary).as_bytes())
    )
}

/// The `RunRecord` backend field for a matrix spec.
fn backend_label(spec: &ExperimentSpec) -> String {
    let apu = spec.scenarios.iter().filter(|s| s.is_apu()).count();
    match apu {
        0 => "synthetic".into(),
        n if n == spec.scenarios.len() => "apu".into(),
        _ => "mixed".into(),
    }
}

/// The line-up a scenario runs (its override, or the spec default).
fn lineup_for<'a>(spec: &'a ExperimentSpec, scenario: &'a ScenarioSpec) -> &'a Lineup {
    if let ScenarioSpec::Synthetic { lineup: Some(l), .. } = scenario {
        l
    } else {
        &spec.lineup
    }
}

/// The training recipe behind a scenario's NN slot (`None` when the spec
/// names no recipe). The APU recipe trains one network shared by every
/// scenario (same recipe → same hash → one Train job) with the workload
/// set, budgets and seed of the legacy inline `train_apu_agent` call; the
/// synthetic recipes train per scenario with the exact arguments of the
/// legacy inline `train_synthetic_nn` call, the design-space search's
/// variant overriding the tuned agent hyperparameters.
fn nn_recipe(
    spec: &ExperimentSpec,
    scenario: &ScenarioSpec,
    params: &TierParams,
    seed: u64,
) -> Option<TrainRecipe> {
    let tuned = match spec.nn.as_ref()? {
        NnRecipe::ApuBenchmark { benchmark } => {
            return Some(TrainRecipe::Apu(ApuTrainSpec::tuned(
                benchmark,
                params.nn_repeats,
                params.max_cycles,
                params.apu_scale,
                seed,
            )))
        }
        NnRecipe::SyntheticPerScenario => None,
        NnRecipe::SyntheticTuned { gamma_pct, lr_e4, reward } => {
            Some((*gamma_pct, *lr_e4, *reward))
        }
    };
    let ScenarioSpec::Synthetic { width, height, rate, noc, .. } = scenario else {
        panic!("synthetic NN recipe on a non-synthetic scenario")
    };
    let mut train = TrainSpec::tuned_synthetic(*width, *rate, seed);
    train.height = *height;
    train.epochs = params.nn_epochs;
    train.cycles_per_epoch = params.nn_epoch_cycles;
    // The encoder is sized `ports × vnets × features`, so training must
    // see the same vnet count the evaluation fabric runs with.
    train.vnets = noc.map(|n| n.vnets);
    if let Some((gamma_pct, lr_e4, reward)) = tuned {
        train.agent.gamma = f64::from(gamma_pct) / 100.0;
        train.agent.lr = f64::from(lr_e4) / 1e4;
        train.agent.reward = reward;
    }
    Some(TrainRecipe::Synthetic(train))
}

/// Resolves an NN slot through the artifact store. Training failures are
/// programming or environment errors (unknown benchmark, unwritable
/// store), so they abort the run like the legacy inline panics did.
fn resolve_nn(store: &ArtifactStore, recipe: &TrainRecipe) -> NnPolicyArbiter {
    store
        .resolve(recipe)
        .unwrap_or_else(|e| panic!("resolving NN artifact for {}: {e}", recipe.label()))
        .policy
}

/// Resolves (training only on a cold store) every NN artifact a figure
/// needs, without running its matrix — the `repro train <figure>`
/// subcommand. Returns the artifacts in resolution order.
///
/// # Errors
///
/// Unknown figures, figures whose training is inline (custom procedures),
/// and figures with no NN slot are reported, as are store failures.
pub fn train_figure(name: &str, args: &CliArgs) -> Result<Vec<ResolvedArtifact>, String> {
    rl_arb::set_quiet(args.quiet);
    let def = figures::find(name).ok_or_else(|| {
        format!("unknown figure '{name}' (try: {})", figures::names().join(", "))
    })?;
    let FigureKind::Matrix { spec, .. } = &def.kind else {
        return Err(format!(
            "figure '{name}' trains inline (custom procedure) — no artifact-backed NN slot"
        ));
    };
    let spec = spec();
    let tier = if args.quick { Tier::Quick } else { Tier::Full };
    let params = *spec.params(tier);
    let store = ArtifactStore::from_args(args);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for scenario in &spec.scenarios {
        if !lineup_for(&spec, scenario).has_nn_slot() {
            continue;
        }
        let recipe = nn_recipe(&spec, scenario, &params, args.seed).ok_or_else(|| {
            format!("figure '{name}' has an NN slot but no training recipe")
        })?;
        if seen.insert(recipe.hash_hex()) {
            out.push(store.resolve(&recipe)?);
        }
    }
    if out.is_empty() {
        return Err(format!("figure '{name}' has no NN slot to train"));
    }
    Ok(out)
}

/// Priority of NN-training jobs: trains dispatch ahead of independent
/// cells so the longest-running work starts first.
const TRAIN_PRIORITY: i64 = 100;
/// Priority of simulation-cell jobs.
const CELL_PRIORITY: i64 = 0;

/// One unit of work in the experiment queue.
#[derive(Debug)]
enum ExpJob {
    /// Resolve (training only on a cold store, honoring `--retrain`) one
    /// NN artifact.
    Train(Box<TrainRecipe>),
    /// Simulate one cell.
    Cell(Box<CellRun>),
}

/// Payload of a cell job: the cell's identity plus the materials needed
/// to run it.
#[derive(Debug)]
struct CellRun {
    job: CellJob,
    slot: PlannedSlot,
    plan: Option<FaultPlan>,
}

/// Result of one queue job.
#[derive(Debug, Clone)]
enum ExpOut {
    /// A train job completed; the artifact is now warm in the store.
    Trained,
    /// A simulated cell.
    Cell(CellRecord),
}

/// Runs one queue job inside a worker thread.
fn execute(store: &ArtifactStore, job: ExpJob) -> ExpOut {
    match job {
        ExpJob::Train(recipe) => {
            resolve_nn(store, &recipe);
            ExpOut::Trained
        }
        ExpJob::Cell(run) => ExpOut::Cell(run_cell(&SpecInstance {
            scenario: &run.job.scenario,
            label: &run.job.label,
            policy_name: &run.job.policy,
            policy: &build_policy(store, &run.slot, &run.job),
            seed: run.job.seed,
            base_seed: run.job.base_seed,
            params: &run.job.params,
            artifact: run.job.artifact.as_deref(),
            faults: run.plan.as_ref(),
        })),
    }
}

/// Builds one line-up slot's policy inside a worker. Artifact-backed
/// slots depend on an [`ExpJob::Train`] job for the same recipe, so by
/// the time a worker gets here the checkpoint is warm and the load is
/// bit-identical to the freshly trained network.
fn build_policy(store: &ArtifactStore, slot: &PlannedSlot, job: &CellJob) -> PolicySpec {
    let (online, vc_ctl) = match slot.entry {
        LineupEntry::Policy(kind) => return PolicySpec::builtin(kind.display_name(), kind),
        LineupEntry::NnSlot => (false, false),
        LineupEntry::SelfHeal { online, vc_ctl } => (online, vc_ctl),
    };
    let recipe = slot.recipe.as_ref().expect("an NN slot carries its recipe");
    // Load through a never-retraining view of the store: only the Train
    // dependency honors `--retrain`, so a retrain run still trains each
    // recipe exactly once.
    let frozen = resolve_nn(&ArtifactStore::new(store.dir(), false), recipe);
    let policy = if online {
        // Warm-start online learning from the trained artifact. The
        // per-job seed re-keys exploration and replay sampling inside
        // `PolicySpec::build`.
        let cfg = rl_arb::AgentConfig::tuned_online(job.seed);
        let proto =
            rl_arb::OnlinePolicy::new(frozen.network().clone(), frozen.encoder().clone(), cfg);
        PolicySpec::nn_online("NN-online", proto)
    } else {
        // `--inference` selects the NN datapath at run time; it is not
        // part of the training recipe, so the artifact hash (and the
        // trained weights) are mode-invariant.
        PolicySpec::nn("NN", frozen.with_inference(job.inference))
    };
    if vc_ctl {
        policy.with_vc_ctl()
    } else {
        policy
    }
}

/// One planned row group (scenario × fault intensity) of a run matrix.
#[derive(Debug)]
struct PlannedRow {
    scenario: ScenarioSpec,
    label: String,
    intensity: f64,
    plan: Option<FaultPlan>,
    slots: Vec<PlannedSlot>,
}

/// One line-up slot of a planned row: artifact-backed slots carry their
/// training recipe and its hash, registry policies neither.
#[derive(Debug, Clone)]
struct PlannedSlot {
    entry: LineupEntry,
    recipe: Option<Box<TrainRecipe>>,
    artifact: Option<String>,
}

/// Expands a spec into its planned rows — pure planning, no training and
/// no simulation. NN slots carry their training recipe; the recipe hash
/// *is* the artifact name and needs no training to compute, which is what
/// lets a fully warm cache answer a figure with zero work.
fn plan_rows(spec: &ExperimentSpec, params: &TierParams, args: &CliArgs) -> Vec<PlannedRow> {
    let mut rows = Vec::new();
    for scenario in &spec.scenarios {
        let lineup = lineup_for(spec, scenario);
        let recipe = lineup.has_nn_slot().then(|| {
            Box::new(
                nn_recipe(spec, scenario, params, args.seed)
                    .expect("line-up has an NN slot but the spec has no NN recipe"),
            )
        });
        let nn_hash = recipe.as_ref().map(|r| r.hash_hex());
        let slots: Vec<PlannedSlot> = lineup
            .entries
            .iter()
            .map(|&entry| PlannedSlot {
                entry,
                recipe: recipe.clone().filter(|_| entry.uses_artifact()),
                artifact: nn_hash.clone().filter(|_| entry.uses_artifact()),
            })
            .collect();
        // With no fault axis this is a single fault-free pass — the
        // historical dispatch, cell for cell.
        let intensities: Vec<f64> = match &spec.faults {
            Some(axis) => axis.intensities.clone(),
            None => vec![0.0],
        };
        let quiet_tail = spec.faults.as_ref().map_or(0.0, |a| a.quiet_tail);
        let post_warmup = spec.faults.as_ref().is_some_and(|a| a.post_warmup);
        for &intensity in &intensities {
            // Plans are generated here on the main thread, so every
            // worker-thread cell of this row group shares one plan and the
            // result is thread-count-invariant. The plan seed depends only
            // on the base seed, scenario and intensity — not on the
            // per-cell sweep seed — so all seeds and policies of a row see
            // the same fault environment.
            let plan: Option<FaultPlan> = if intensity > 0.0 {
                let plan_seed = args.seed ^ fnv1a64(
                    format!("{}@f{intensity:.2}", scenario.label()).as_bytes(),
                );
                // A positive quiet tail shortens the plan horizon so all
                // events end before the window does; `post_warmup` then
                // pushes onsets past the warm-up so episodes open against
                // a converged latency baseline (see `FaultAxis`).
                let warmup = if post_warmup && !scenario.is_apu() { params.warmup } else { 0 };
                let horizon = fault_horizon(scenario, params) - warmup;
                let horizon = (horizon as f64 * (1.0 - quiet_tail.clamp(0.0, 0.9))) as u64;
                let plan = FaultPlan::generate(
                    plan_seed,
                    intensity,
                    &fault_topology(scenario),
                    horizon,
                )
                .delayed(warmup);
                Some(plan)
            } else {
                None
            };
            let label = match plan {
                Some(_) => format!("{}@f{intensity:.2}", scenario.label()),
                None => scenario.label(),
            };
            rows.push(PlannedRow {
                scenario: scenario.clone(),
                label,
                intensity,
                plan,
                slots: slots.clone(),
            });
        }
    }
    rows
}

/// Where one assembled cell comes from.
#[derive(Debug)]
enum Source {
    /// Loaded from the result cache.
    Hit(Box<CellRecord>),
    /// Produced by a queued job (possibly shared with other figures in
    /// the batch).
    Job(JobId),
}

/// One spec's planned matrix inside a batch: its rows plus, per cell (in
/// seed-major, policy-minor order), the content hash (when a cache is
/// active) and the cell's source.
#[derive(Debug)]
struct SpecPlan {
    rows: Vec<PlannedRow>,
    cells: Vec<Vec<(Option<String>, Source)>>,
    seeds: Vec<u64>,
}

/// A batch of run matrices sharing one job queue, artifact store and
/// result cache — the experiment service core. Plan any number of specs,
/// [`MatrixBatch::drain`] once, then assemble each spec's [`MatrixData`].
#[derive(Debug)]
pub(crate) struct MatrixBatch<'a> {
    args: &'a CliArgs,
    cache: Option<&'a ResultCache>,
    store: ArtifactStore,
    queue: JobQueue<ExpJob>,
    /// Train job per distinct recipe hash.
    train_ids: HashMap<String, JobId>,
    /// Cell job per distinct cell hash (cross-figure dedupe).
    cell_ids: HashMap<String, JobId>,
    plans: Vec<SpecPlan>,
    stats: CacheStats,
}

impl<'a> MatrixBatch<'a> {
    pub(crate) fn new(args: &'a CliArgs, cache: Option<&'a ResultCache>) -> Self {
        MatrixBatch {
            args,
            cache,
            store: ArtifactStore::from_args(args),
            queue: JobQueue::new(),
            train_ids: HashMap::new(),
            cell_ids: HashMap::new(),
            plans: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Plans one spec's cells into the shared queue — probing the result
    /// cache first, deduping against cells other specs already queued —
    /// and returns the plan's index for assembly after the drain.
    pub(crate) fn add_spec(
        &mut self,
        spec: &ExperimentSpec,
        params: &TierParams,
        seeds: &[u64],
    ) -> usize {
        let rows = plan_rows(spec, params, self.args);
        let mut row_cells = Vec::with_capacity(rows.len());
        for row in &rows {
            let plan_hash = row.plan.as_ref().map(FaultPlan::hash_hex);
            progress!(
                "planning {} under {} policies x {} seed(s) ...",
                row.label,
                row.slots.len(),
                seeds.len()
            );
            if matches!(row.scenario, ScenarioSpec::ApuMix { .. }) {
                let specs = apu_specs_for(&row.scenario, self.args.seed, params.apu_scale);
                let apps: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
                progress!("  quadrants: {apps:?}");
            }
            let mut cells = Vec::with_capacity(seeds.len() * row.slots.len());
            for &seed in seeds {
                for slot in &row.slots {
                    let job = CellJob {
                        scenario: row.scenario.clone(),
                        label: row.label.clone(),
                        policy: slot.entry.canonical_name().into(),
                        seed,
                        base_seed: self.args.seed,
                        params: *params,
                        artifact: slot.artifact.clone(),
                        fault_plan: plan_hash.clone(),
                        inference: self.args.inference,
                    };
                    let hash = self.cache.map(|_| job.hash_hex());
                    self.stats.cells += 1;
                    if let (Some(cache), Some(h)) = (self.cache, &hash) {
                        if let Some(cell) = cache.load(h) {
                            self.stats.hits += 1;
                            cells.push((hash, Source::Hit(Box::new(cell))));
                            continue;
                        }
                        if let Some(&id) = self.cell_ids.get(h) {
                            // Another figure in the batch already queued
                            // this exact cell; share the one job. Both
                            // figures report it as a miss — it simulates
                            // once, this run.
                            self.stats.misses += 1;
                            cells.push((hash, Source::Job(id)));
                            continue;
                        }
                    }
                    self.stats.misses += 1;
                    let dep = slot.recipe.as_ref().map(|recipe| {
                        let queue = &mut self.queue;
                        *self.train_ids.entry(recipe.hash_hex()).or_insert_with(|| {
                            queue.enqueue(
                                ExpJob::Train(recipe.clone()),
                                TRAIN_PRIORITY,
                            )
                        })
                    });
                    let id = self.queue.enqueue(
                        ExpJob::Cell(Box::new(CellRun {
                            job,
                            slot: slot.clone(),
                            plan: row.plan.clone(),
                        })),
                        CELL_PRIORITY,
                    );
                    if let Some(dep) = dep {
                        self.queue.add_dependency(id, dep);
                    }
                    if let Some(h) = &hash {
                        self.cell_ids.insert(h.clone(), id);
                    }
                    cells.push((hash, Source::Job(id)));
                }
            }
            row_cells.push(cells);
        }
        self.plans.push(SpecPlan { rows, cells: row_cells, seeds: seeds.to_vec() });
        self.plans.len() - 1
    }

    /// Drains the queue on `args.threads` workers and stores every
    /// freshly simulated cell into the cache. Call once, after every spec
    /// is planned.
    pub(crate) fn drain(self) -> DrainedBatch {
        let MatrixBatch { args, cache, store, queue, cell_ids, plans, stats, .. } = self;
        let results = queue.drain(args.threads, |job| execute(&store, job));
        if let Some(cache) = cache {
            // Each distinct simulated cell is stored exactly once, no
            // matter how many figures assemble it.
            for (hash, id) in &cell_ids {
                if let ExpOut::Cell(cell) = &results[id.index()] {
                    if let Err(e) = cache.store(hash, cell) {
                        eprintln!("warning: result cache store failed for {hash}: {e}");
                    }
                }
            }
        }
        DrainedBatch { cached: cache.is_some(), results, plans, stats }
    }
}

/// The results of a drained [`MatrixBatch`], ready for per-spec assembly.
#[derive(Debug)]
pub(crate) struct DrainedBatch {
    cached: bool,
    results: Vec<ExpOut>,
    plans: Vec<SpecPlan>,
    pub(crate) stats: CacheStats,
}

impl DrainedBatch {
    /// Assembles plan `idx` into its [`MatrixData`], stamping cache
    /// provenance (`cell_hash` plus `"hit"`/`"miss"`) on every cell when
    /// a cache was active.
    pub(crate) fn matrix(&self, idx: usize) -> MatrixData {
        let plan = &self.plans[idx];
        let mut scenarios = Vec::with_capacity(plan.rows.len());
        for (row, sources) in plan.rows.iter().zip(&plan.cells) {
            let mut cells = Vec::with_capacity(sources.len());
            for (hash, source) in sources {
                let mut cell = match source {
                    Source::Hit(cell) => {
                        let mut cell = (**cell).clone();
                        cell.cache = Some("hit".into());
                        cell
                    }
                    Source::Job(id) => {
                        let ExpOut::Cell(cell) = &self.results[id.index()] else {
                            panic!("cell job {} produced no record", id.index());
                        };
                        let mut cell = cell.clone();
                        if self.cached {
                            cell.cache = Some("miss".into());
                        }
                        cell
                    }
                };
                cell.cell_hash = hash.clone();
                cells.push(cell);
            }
            scenarios.push(ScenarioData {
                label: row.label.clone(),
                fault_intensity: row.intensity,
                fault_plan_hash: row.plan.as_ref().map(FaultPlan::hash_hex),
                canonical: row.slots.iter().map(|s| s.entry.canonical_name().into()).collect(),
                display: row.slots.iter().map(|s| s.entry.display_name().into()).collect(),
                seeds: plan.seeds.clone(),
                cells,
            });
        }
        MatrixData { scenarios }
    }
}

/// Executes a spec's full run matrix, cache-free: every cell simulates,
/// and the returned cells carry no cache provenance (`cell_hash` and
/// `cache` both `None`) — the historical contract, bit for bit.
///
/// Scenarios run in order; all `seeds × policies` cells are independent
/// jobs in a [`JobQueue`] drained through [`crate::sweep::run_parallel`]
/// on `args.threads` workers, with NN training enqueued ahead of the
/// cells that depend on it. Training (cold store only) uses the same
/// arguments and seeds as the legacy binaries, and a warm store rebuilds
/// a bit-identical policy with zero training steps.
pub fn run_matrix(
    spec: &ExperimentSpec,
    params: &TierParams,
    seeds: &[u64],
    args: &CliArgs,
) -> MatrixData {
    let mut batch = MatrixBatch::new(args, None);
    let idx = batch.add_spec(spec, params, seeds);
    batch.drain().matrix(idx)
}

/// Like [`run_matrix`], but routed through the content-addressed result
/// cache: cached cells load with zero simulation, misses simulate and are
/// stored for the next run. Hit/miss accounting accumulates into `stats`
/// (simulated-cycle accounting is the caller's, via
/// [`noc_sim::simulated_cycles`]).
pub fn run_matrix_cached(
    spec: &ExperimentSpec,
    params: &TierParams,
    seeds: &[u64],
    args: &CliArgs,
    cache: &ResultCache,
    stats: &mut CacheStats,
) -> MatrixData {
    let mut batch = MatrixBatch::new(args, Some(cache));
    let idx = batch.add_spec(spec, params, seeds);
    let drained = batch.drain();
    stats.absorb(drained.stats);
    drained.matrix(idx)
}

/// The router graph a scenario's fault plan is generated against (fault
/// targets must name real routers/ports/links of the simulated topology,
/// so the plan is drawn on the scenario's own [`super::spec::TopoSpec`]).
fn fault_topology(scenario: &ScenarioSpec) -> Topology {
    match scenario {
        ScenarioSpec::Synthetic { width, height, topo, .. } => {
            topo.build(*width, *height).expect("valid topology")
        }
        _ => apu_sim::ApuTopology::build().clone_topology(),
    }
}

/// The cycle horizon fault onsets/durations are scaled to.
fn fault_horizon(scenario: &ScenarioSpec, params: &TierParams) -> u64 {
    if scenario.is_apu() {
        params.max_cycles
    } else {
        params.warmup + params.measure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_an_error() {
        let err = run_figure("fig99", &CliArgs::default()).unwrap_err();
        assert!(err.contains("unknown figure"), "got: {err}");
        assert!(err.contains("fig05"), "error should list known figures: {err}");
    }

    #[test]
    fn backend_labels() {
        use super::super::figures;
        let spec_of = |name: &str| match &figures::find(name).unwrap().kind {
            FigureKind::Matrix { spec, .. } => spec(),
            FigureKind::Custom(_) => panic!("{name} is not a matrix figure"),
        };
        assert_eq!(backend_label(&spec_of("fig05")), "synthetic");
        assert_eq!(backend_label(&spec_of("fig09")), "apu");
        assert_eq!(backend_label(&spec_of("extended_policies")), "mixed");
    }
}

//! # exp — the unified, declarative experiment layer
//!
//! Every paper figure used to be its own binary with copy-pasted CLI
//! parsing, table rendering and ad-hoc CSV emission, and the two
//! simulators (`noc-sim` synthetic mesh, `apu-sim` APU chip) exposed
//! incompatible run APIs. This module replaces that with one pipeline:
//!
//! * [`spec::ExperimentSpec`] — a pure-data description of a run matrix:
//!   scenarios, a policy line-up by registry name (with a trained-artifact
//!   slot for the NN policy), per-tier budgets and seed counts.
//! * [`backend::run_cell`] — one `&SpecInstance -> CellRecord` entry
//!   point that runs a cell on the synthetic-mesh runner or the APU
//!   engine, as its scenario says.
//! * [`record::RunRecord`] — the versioned, structured JSON result every
//!   invocation emits alongside its text table: per-cell values, seeds,
//!   the normalization reference, `git describe` and a spec hash. This is
//!   the stable schema future sharded/remote execution and regression
//!   tooling consume.
//! * [`artifacts::ArtifactStore`] — the content-addressed trained-artifact
//!   store: NN slots resolve to checkpoints named by training-recipe hash
//!   (`results/artifacts/<hash>.ckpt.json`), so a warm store re-runs a
//!   figure with zero training steps and byte-identical output.
//! * [`cache::ResultCache`] — the content-addressed *result* cache
//!   generalizing the artifact store to whole simulation cells: every
//!   cell is keyed by its [`cache::CellJob`] content hash
//!   (`results/cache/<hash>.cell.json`), so a warm cache reproduces any
//!   previously-run figure with zero simulated cycles.
//! * [`queue::JobQueue`] — the scheduler: a priority queue with
//!   dependency edges (train-before-simulate), draining in waves through
//!   [`crate::sweep::run_parallel`].
//! * [`search`] — the design-space exploration harness: a
//!   [`search::SearchSpace`] of tunable axes over the spec, pluggable
//!   drivers (random / hill-climb / evolutionary) behind one
//!   [`search::SearchDriver`] trait, an objective folding simulated
//!   latency/throughput with analytical gate cost, and a versioned
//!   [`search::SearchRecord`] trace plus Pareto CSV — every candidate
//!   evaluated through the shared queue and result cache, so revisits
//!   and resumed searches cost zero simulation.
//! * [`figures`] — the registry mapping figure names (`fig05`, `fig09`,
//!   `table3`, …) to their specs and renderers.
//! * [`driver`] — resolves figure names, plans their cells into the
//!   queue, probes the result cache, drains the queue through
//!   [`crate::sweep::run_parallel`], prints the text table and writes
//!   the `RunRecord` (plus CSV where the legacy binary wrote one) into
//!   `--out-dir`.
//!
//! Determinism: a cell's value is a pure function of its `(scenario,
//! policy, seed, budget)` instance, and results are collected in
//! submission order, so tables are byte-identical for every `--threads`
//! value and match the pre-refactor binaries (pinned by
//! `tests/driver_equivalence.rs`).

pub mod artifacts;
pub mod backend;
pub mod cache;
pub mod conformance;
pub mod driver;
pub mod figures;
pub mod queue;
pub mod record;
pub mod search;
pub mod spec;

pub use artifacts::{ArtifactStore, ResolvedArtifact};
pub use backend::{run_cell, CellRecord, SpecInstance};
pub use cache::{CacheStats, CellJob, ResultCache, CACHE_SCHEMA_VERSION};
pub use queue::{JobId, JobQueue};
pub use record::{RunRecord, Table, RUN_RECORD_SCHEMA_VERSION};
pub use search::{SearchDriver, SearchRecord, SearchSpace, SEARCH_SCHEMA_VERSION};
pub use spec::{
    ExperimentSpec, Lineup, LineupEntry, NnRecipe, NocParams, Normalize, ScenarioSpec, Tier,
    TierParams,
};

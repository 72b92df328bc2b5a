//! # search — design-space exploration over the declarative spec
//!
//! The ML-driven-design loop the paper motivates: treat the NoC
//! configuration (fabric sizing, routing, agent hyperparameters) as a
//! searchable space and let a driver walk it, with every candidate
//! evaluated through the same declarative [`super::spec::ExperimentSpec`]
//! pipeline, job queue and content-addressed result cache the figures use
//! — so revisiting a design point costs nothing and a killed search
//! resumes with zero re-simulation.
//!
//! * [`space::SearchSpace`] — the seven tunable axes (mesh/torus/ring
//!   size, fabric × routing, VC count, buffer depth, γ, learning rate,
//!   reward formulation), their level tables, and the point →
//!   `ExperimentSpec` decoder.
//! * [`objective`] — the objective vector per point: simulated latency
//!   and throughput folded with the analytical gate cost of the point's
//!   inference engine ([`hw_cost::cost_agent_inference`]), plus the
//!   Pareto-front computation (minimize latency and gates, maximize
//!   throughput).
//! * [`drivers`] — three strategies behind one [`SearchDriver`] trait:
//!   random sampling, greedy hill climbing (the generalization of
//!   `rl_arb::greedy_climb` from feature subsets to the full space), and
//!   a (µ+λ) evolutionary driver.
//! * [`record::SearchRecord`] — the versioned JSON trace: every evaluated
//!   point with objective, cache and driver provenance, plus the Pareto
//!   indices. Byte-identical for any `--threads`.
//! * [`runner::run_search`] — the loop: propose → evaluate through the
//!   shared queue/cache → checkpoint the record atomically every round.
//!   Resume is replay: a matching prior record memoizes every recorded
//!   `spec_hash`, so the re-run reaches the kill point with zero
//!   simulated cycles and zero training epochs, then continues.
//!
//! The `repro search` registry entry wraps [`runner::run_search`] as a
//! custom figure: `repro search --quick --driver hc --budget 32` prints
//! the Pareto front and writes `search_hc.json` +
//! `search_hc_pareto.csv` into `--out-dir`.
#![deny(missing_docs)]

pub mod drivers;
pub mod objective;
pub mod record;
pub mod runner;
pub mod space;

pub use drivers::{
    driver_by_name, Evaluated, EvoDriver, HillClimbDriver, Proposal, RandomDriver, SearchDriver,
};
pub use objective::{evaluate, gate_cost, pareto_front, ObjectiveVector};
pub use record::{SearchPointRecord, SearchRecord, SEARCH_SCHEMA_VERSION};
pub use runner::{pareto_rows, run_search, SearchOutcome, PARETO_HEADERS};
pub use space::{Axis, SearchPoint, SearchSpace};

use std::fmt::Write as _;

use noc_sim::codec::json_num;

use super::figures::CustomOutput;
use super::record::Table;
use crate::{render_table, CliArgs};

/// The `search` figure: runs [`run_search`] with the CLI's `--driver` and
/// `--budget`, prints the Pareto front, and surfaces the trace paths.
/// Registered in [`super::figures`] as a custom figure, so it flows
/// through the same dispatch, `RunRecord` and `--cache-stats` plumbing as
/// every other entry.
///
/// # Panics
///
/// Panics on search failure (unwritable output directory); the CLI layer
/// validates `--driver` before this runs.
pub fn search_figure(args: &CliArgs) -> CustomOutput {
    let outcome = run_search(args).unwrap_or_else(|e| panic!("design-space search failed: {e}"));
    let record = &outcome.record;
    let rows = pareto_rows(record);
    let mut text = format!(
        "design-space search: driver={} budget={} tier={} seed={}\n",
        record.driver, record.budget, record.tier, record.base_seed
    );
    let mut line = format!(
        "evaluated {} point(s) in {} round(s)",
        record.points.len(),
        record.points.last().map_or(0, |p| p.round)
    );
    if outcome.memo_replays > 0 {
        let _ = write!(line, " ({} replayed from a prior record)", outcome.memo_replays);
    }
    let best = record
        .points
        .iter()
        .min_by(|a, b| a.score.partial_cmp(&b.score).unwrap_or(std::cmp::Ordering::Equal));
    if let Some(best) = best {
        let _ = write!(line, "; best score {} at {}", json_num(best.score), best.labels.join("/"));
    }
    let _ = writeln!(text, "{line}");
    text.push_str("pareto front (minimize latency & gates, maximize throughput):\n");
    text.push_str(&render_table(&PARETO_HEADERS, &rows));
    if args.cache_stats {
        text.push_str(&outcome.stats.summary());
        text.push('\n');
    }
    rl_arb::progress!("search record written to {}", outcome.record_path.display());
    rl_arb::progress!("pareto csv written to {}", outcome.csv_path.display());
    CustomOutput {
        text,
        table: Table {
            headers: PARETO_HEADERS.iter().map(|h| h.to_string()).collect(),
            rows,
        },
        cells: Vec::new(),
        backend: "synthetic",
    }
}

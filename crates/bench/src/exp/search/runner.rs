//! The search runner: drives a [`SearchDriver`] through the shared job
//! queue and result cache, emits the `SearchRecord` JSON and the Pareto
//! CSV, and replays a prior record to resume a killed search.
//!
//! ## Determinism and resume
//!
//! Every stochastic proposal decision draws from one main-thread
//! [`noc_sim::SplitMix64`] stream seeded by `(base seed, driver)`, and a
//! driver's proposals are a pure function of `(seed, history)`. Cells
//! evaluate through `MatrixBatch` — the same thread-invariant pipeline
//! every figure uses — so the whole trace is byte-identical for any
//! `--threads` count.
//!
//! Resume is replay: on start the runner loads `search_<driver>.json`
//! from `--out-dir` (if its header matches this invocation) and memoizes
//! every recorded `spec_hash → objective`. The loop then re-runs from
//! scratch; recorded points answer from the memo with zero simulation and
//! zero training, the proposal RNG advances exactly as it did before, and
//! the search continues from wherever the killed run stopped. The record
//! is checkpointed atomically after every proposal round, so there is no
//! window in which a kill loses more than the in-flight round.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use rl_arb::progress;

use super::super::cache::{CacheStats, ResultCache};
use super::super::driver::{MatrixBatch, MatrixData};
use noc_sim::codec::{fnv1a64, json_num};

use super::super::record::git_describe;
use super::super::spec::Tier;
use super::drivers::{driver_by_name, Evaluated, SearchDriver};
use super::objective::{evaluate, pareto_front, ObjectiveVector};
use super::record::{SearchPointRecord, SearchRecord, SEARCH_SCHEMA_VERSION};
use super::space::SearchSpace;
use crate::{write_csv, CliArgs};

/// Everything one search run produced, for in-process callers (the
/// figure wrapper, tests).
#[derive(Debug)]
pub struct SearchOutcome {
    /// The full trace, as written to disk.
    pub record: SearchRecord,
    /// Cache accounting for the run (memo replays contribute nothing —
    /// they touch neither the queue nor the cache).
    pub stats: CacheStats,
    /// Points answered from a prior record's memo while resuming.
    pub memo_replays: u64,
    /// Where the `SearchRecord` JSON was written.
    pub record_path: PathBuf,
    /// Where the Pareto CSV was written.
    pub csv_path: PathBuf,
}

/// Column headers of the Pareto CSV (and the figure's table).
pub const PARETO_HEADERS: [&str; 7] =
    ["index", "point", "latency", "throughput", "gates", "score", "cache"];

/// Runs a design-space search end-to-end: resolve the driver, replay any
/// resumable record, drive proposal rounds through the shared queue and
/// result cache until the budget is spent or the driver converges, and
/// write `search_<driver>.json` plus `search_<driver>_pareto.csv` into
/// `--out-dir`.
///
/// # Errors
///
/// Unknown driver names and output-directory I/O failures are reported.
/// A corrupt or header-mismatched prior record is *not* an error — the
/// search starts fresh and overwrites it.
pub fn run_search(args: &CliArgs) -> Result<SearchOutcome, String> {
    let mut driver = driver_by_name(&args.driver)?;
    let tier = if args.quick { Tier::Quick } else { Tier::Full };
    let space = SearchSpace::paper_noc();
    let record_path = args.out_dir.join(format!("search_{}.json", driver.name()));
    let csv_path = args.out_dir.join(format!("search_{}_pareto.csv", driver.name()));

    // The proposal RNG: one main-thread stream, domain-separated per
    // driver so `--driver hc` and `--driver evo` at the same seed explore
    // independently.
    let rng_seed = args.seed ^ fnv1a64(format!("search:{}", driver.name()).as_bytes());
    let mut rng = noc_sim::SplitMix64::new(rng_seed);

    // Resume memo: spec_hash → objective from a prior record whose
    // header matches this invocation (budget deliberately excluded, so a
    // finished budget-8 search extends under budget-32).
    let mut memo: HashMap<String, ObjectiveVector> = HashMap::new();
    if let Some(prior) = load_resumable(&record_path, driver.as_ref(), args, tier, &space) {
        for p in &prior.points {
            memo.insert(
                p.spec_hash.clone(),
                ObjectiveVector {
                    latency: p.latency,
                    throughput: p.throughput,
                    gates: p.gates,
                    score: p.score,
                },
            );
        }
        progress!(
            "resuming search from {} ({} recorded point(s))",
            record_path.display(),
            prior.points.len()
        );
    }

    let cache = ResultCache::from_args(args);
    let sim_before = noc_sim::simulated_cycles();
    let mut history: Vec<Evaluated> = Vec::new();
    let mut points: Vec<SearchPointRecord> = Vec::new();
    let mut stats = CacheStats::default();
    let mut memo_replays: u64 = 0;
    let mut round: u64 = 0;

    while history.len() < args.budget {
        let remaining = args.budget - history.len();
        let proposals = driver.propose(&space, &history, &mut rng, remaining);
        if proposals.is_empty() {
            progress!("driver {} converged after {} evaluation(s)", driver.name(), history.len());
            break;
        }
        round += 1;
        // Evaluate the round: memoized points answer instantly, fresh
        // ones batch through one shared queue + cache drain.
        enum Pending {
            Memo(ObjectiveVector),
            Fresh(usize),
        }
        let mut batch = MatrixBatch::new(args, Some(&cache));
        let mut pending: Vec<(String, Pending)> = Vec::with_capacity(proposals.len());
        for prop in &proposals {
            let spec = space.spec_for(&prop.point);
            let hash = spec.hash_hex();
            match memo.get(&hash) {
                Some(obj) => pending.push((hash, Pending::Memo(obj.clone()))),
                None => {
                    let params = *spec.params(tier);
                    let seeds = spec.seed_list(args.seed, tier);
                    let idx = batch.add_spec(&spec, &params, &seeds);
                    pending.push((hash, Pending::Fresh(idx)));
                }
            }
        }
        let drained = batch.drain();
        stats.absorb(drained.stats);
        for (prop, (hash, source)) in proposals.iter().zip(pending) {
            let (objective, cache_stamp) = match source {
                Pending::Memo(obj) => {
                    memo_replays += 1;
                    (obj, "memo".to_string())
                }
                Pending::Fresh(idx) => {
                    let data = drained.matrix(idx);
                    (evaluate(&space, &prop.point, &data), cells_stamp(&data))
                }
            };
            memo.insert(hash.clone(), objective.clone());
            points.push(SearchPointRecord {
                index: points.len() as u64,
                round,
                op: prop.op.clone(),
                ordinals: prop.point.clone(),
                labels: space.labels(&prop.point),
                spec_hash: hash,
                latency: objective.latency,
                throughput: objective.throughput,
                gates: objective.gates,
                score: objective.score,
                cache: cache_stamp,
            });
            history.push(Evaluated { point: prop.point.clone(), objective });
        }
        // Checkpoint: a kill after this line loses at most the next
        // round's in-flight work.
        let record = assemble(driver.as_ref(), args, tier, &space, &points, &history);
        checkpoint(&record, &record_path, &csv_path)?;
    }

    stats.simulated_cycles = noc_sim::simulated_cycles() - sim_before;
    let record = assemble(driver.as_ref(), args, tier, &space, &points, &history);
    checkpoint(&record, &record_path, &csv_path)?;
    Ok(SearchOutcome { record, stats, memo_replays, record_path, csv_path })
}

/// Cache provenance of one freshly assembled matrix: `"hit"` when every
/// cell came from the result cache, `"miss"` when none did, `"mixed"`
/// otherwise.
fn cells_stamp(data: &MatrixData) -> String {
    let cells = data.all_cells();
    let hits = cells.iter().filter(|c| c.cache.as_deref() == Some("hit")).count();
    if hits == cells.len() {
        "hit".into()
    } else if hits == 0 {
        "miss".into()
    } else {
        "mixed".into()
    }
}

/// Builds the record for the current trace (Pareto front recomputed from
/// scratch — it is a pure function of the objectives).
fn assemble(
    driver: &dyn SearchDriver,
    args: &CliArgs,
    tier: Tier,
    space: &SearchSpace,
    points: &[SearchPointRecord],
    history: &[Evaluated],
) -> SearchRecord {
    let objectives: Vec<ObjectiveVector> =
        history.iter().map(|e| e.objective.clone()).collect();
    SearchRecord {
        schema_version: SEARCH_SCHEMA_VERSION,
        driver: driver.name().into(),
        base_seed: args.seed,
        budget: args.budget as u64,
        tier: tier.as_str().into(),
        git_describe: git_describe(),
        space_hash: space.hash_hex(),
        axes: space
            .axes
            .iter()
            .map(|a| (a.name.to_string(), a.levels.clone()))
            .collect(),
        points: points.to_vec(),
        pareto: pareto_front(&objectives).into_iter().map(|i| i as u64).collect(),
    }
}

/// Writes the record (atomically: temp file + rename, so a kill can
/// never leave a truncated record) and the Pareto CSV.
fn checkpoint(
    record: &SearchRecord,
    record_path: &Path,
    csv_path: &Path,
) -> Result<(), String> {
    crate::write_atomic(record_path, &record.to_json())
        .map_err(|e| format!("writing {}: {e}", record_path.display()))?;
    let rows = pareto_rows(record);
    write_csv(csv_path, &PARETO_HEADERS, &rows)
        .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
    Ok(())
}

/// The Pareto front as CSV/table rows, in evaluation order. Floats use
/// the shortest round-trip form, so the bytes are thread-invariant.
pub fn pareto_rows(record: &SearchRecord) -> Vec<Vec<String>> {
    record
        .pareto
        .iter()
        .map(|&i| {
            let p = &record.points[i as usize];
            vec![
                p.index.to_string(),
                p.labels.join("/"),
                json_num(p.latency),
                json_num(p.throughput),
                json_num(p.gates),
                json_num(p.score),
                p.cache.clone(),
            ]
        })
        .collect()
}

/// Loads a prior record for resume, if one exists and its header matches
/// this invocation (same driver, base seed, tier and space definition —
/// the budget may differ, which is what lets a finished search extend).
fn load_resumable(
    path: &Path,
    driver: &dyn SearchDriver,
    args: &CliArgs,
    tier: Tier,
    space: &SearchSpace,
) -> Option<SearchRecord> {
    let text = std::fs::read_to_string(path).ok()?;
    let record = match SearchRecord::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            progress!("ignoring unreadable search record {}: {e}", path.display());
            return None;
        }
    };
    let matches = record.driver == driver.name()
        && record.base_seed == args.seed
        && record.tier == tier.as_str()
        && record.space_hash == space.hash_hex();
    if !matches {
        progress!(
            "ignoring search record {} (different driver/seed/tier/space)",
            path.display()
        );
        return None;
    }
    Some(record)
}

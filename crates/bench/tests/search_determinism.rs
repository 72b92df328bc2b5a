//! Design-space search determinism and replay contract
//! (`bench::exp::search`): the `SearchRecord` a run writes is
//! byte-identical regardless of `--threads`, a warm result cache answers
//! a repeated search with zero simulated cycles and zero training
//! epochs, a prior record resumes by memo replay without touching the
//! queue at all, and the greedy climb the search generalizes still
//! reproduces the paper's local-age + hop-count feature selection.
//!
//! Budgets follow the `result_cache` convention: quick tier, tiny
//! search budgets, so the repeated runs stay test-suite friendly.

use std::path::PathBuf;
use std::sync::Mutex;

use bench::exp::search::{run_search, SearchOutcome, SEARCH_SCHEMA_VERSION};
use bench::CliArgs;
use rl_arb::{hill_climb, training_epochs, Feature, TrainSpec};

/// The simulator cycle counter is process-wide; tests measuring deltas
/// against it must not overlap. (Poisoning is irrelevant — a panicking
/// holder already failed the suite.)
static SIM_COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-search-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Args for one isolated search run: every run gets its own out, cache
/// and artifact directories unless a test deliberately shares them.
fn args_for(tag: &str, driver: &str, budget: usize, threads: usize) -> CliArgs {
    let root = temp_dir(tag);
    CliArgs {
        quick: true,
        seed: 42,
        threads,
        driver: driver.into(),
        budget,
        out_dir: root.join("out"),
        cache_dir: root.join("cache"),
        artifacts_dir: root.join("artifacts"),
        ..CliArgs::default()
    }
}

fn run(args: &CliArgs) -> SearchOutcome {
    run_search(args).expect("search run failed")
}

/// (a) The record and the Pareto CSV are pure functions of
/// `(driver, seed, budget, tier)` — worker-thread count must not leak
/// into a single byte. `hc` covers the deterministic neighbor walk,
/// `evo` covers the RNG-driven init/mutation path.
#[test]
fn same_seed_and_budget_is_byte_identical_across_threads() {
    let _guard = SIM_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for driver in ["hc", "evo"] {
        let narrow = run(&args_for(&format!("t1-{driver}"), driver, 6, 1));
        let wide = run(&args_for(&format!("t4-{driver}"), driver, 6, 4));
        let narrow_record = std::fs::read(&narrow.record_path).unwrap();
        let wide_record = std::fs::read(&wide.record_path).unwrap();
        assert_eq!(
            narrow_record, wide_record,
            "{driver}: SearchRecord diverged between --threads 1 and --threads 4"
        );
        let narrow_csv = std::fs::read(&narrow.csv_path).unwrap();
        let wide_csv = std::fs::read(&wide.csv_path).unwrap();
        assert_eq!(narrow_csv, wide_csv, "{driver}: Pareto CSV diverged across threads");
        assert_eq!(narrow.record.schema_version, SEARCH_SCHEMA_VERSION);
        assert_eq!(narrow.record.points.len(), 6, "{driver}: budget must be spent exactly");
        assert!(!narrow.record.pareto.is_empty(), "{driver}: front cannot be empty");
    }
}

/// (b) Cold → warm → resume ladder over shared directories. The warm run
/// (record deleted, cache kept) re-proposes the identical trace and
/// answers every cell from the result cache: zero simulated cycles, zero
/// training epochs, `misses == 0`. The resume run (record kept) never
/// reaches the queue: every point is a memo replay and the cache stats
/// stay all-zero.
#[test]
fn warm_cache_and_record_replay_do_zero_work() {
    let _guard = SIM_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let args = args_for("warm", "hc", 6, 2);

    let cold = run(&args);
    assert_eq!(cold.stats.misses, cold.stats.cells, "cold run misses every cell");
    assert!(cold.stats.cells > 0, "cold run must evaluate through the queue");
    assert_eq!(cold.memo_replays, 0);
    let cold_record = std::fs::read(&cold.record_path).unwrap();

    // Warm: drop the record so the search re-proposes from scratch, but
    // keep the populated result cache.
    std::fs::remove_file(&cold.record_path).unwrap();
    let sim_before = noc_sim::simulated_cycles();
    let train_before = training_epochs();
    let warm = run(&args);
    assert_eq!(
        noc_sim::simulated_cycles() - sim_before,
        0,
        "a fully warm cache must simulate zero cycles"
    );
    assert_eq!(
        training_epochs() - train_before,
        0,
        "a fully warm cache must train zero epochs"
    );
    assert_eq!(warm.stats.misses, 0, "warm run answers entirely from the cache");
    assert_eq!(warm.stats.hits, warm.stats.cells);
    assert_eq!(warm.stats.simulated_cycles, 0);
    assert_eq!(warm.memo_replays, 0, "with no record there is nothing to replay");
    // Objectives identical to the cold run; only the cache stamps flip
    // "miss" → "hit".
    assert_eq!(warm.record.pareto, cold.record.pareto);
    for (w, c) in warm.record.points.iter().zip(&cold.record.points) {
        assert_eq!(w.spec_hash, c.spec_hash);
        assert_eq!(w.score, c.score);
        assert_eq!(c.cache, "miss");
        assert_eq!(w.cache, "hit");
    }

    // Resume: the record is on disk, so every recorded point answers
    // from the memo and the queue is never consulted.
    let sim_before = noc_sim::simulated_cycles();
    let resumed = run(&args);
    assert_eq!(noc_sim::simulated_cycles() - sim_before, 0);
    assert_eq!(resumed.memo_replays, 6, "every point replays from the record");
    assert_eq!(resumed.stats.cells, 0, "replay never reaches the queue");
    assert!(
        resumed.record.points.iter().all(|p| p.cache == "memo"),
        "replayed points carry memo provenance"
    );
    assert_eq!(resumed.record.pareto, cold.record.pareto);

    // A replayed record still round-trips to the same bytes modulo the
    // provenance stamps.
    let replay_record = std::fs::read(&resumed.record_path).unwrap();
    let normalize = |bytes: &[u8]| {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .replace("\"cache\": \"miss\"", "\"cache\": \"~\"")
            .replace("\"cache\": \"memo\"", "\"cache\": \"~\"")
    };
    assert_eq!(normalize(&replay_record), normalize(&cold_record));
}

/// (c) The greedy climb the search drivers generalize
/// (`rl_arb::greedy_climb`) still reproduces the paper's §6.5 outcome in
/// its feature-selection form: starting from single features and adding
/// greedily, the procedure lands on **local age + hop count** — the pair
/// the paper reports — using the fig13 quick-tier fixture.
#[test]
fn hill_climb_reproduces_paper_feature_selection() {
    let _guard = SIM_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut spec = TrainSpec::tuned_synthetic(4, 0.40, 5);
    spec.curriculum = Vec::new();
    spec.epochs = 4;
    spec.cycles_per_epoch = 600;
    let result = hill_climb(
        &spec,
        &[Feature::PayloadSize, Feature::LocalAge, Feature::Distance, Feature::HopCount],
        0.02,
    );
    assert_eq!(
        result.selected,
        vec![Feature::LocalAge, Feature::HopCount],
        "greedy climb must adopt local age first, then hop count (§6.5)"
    );
    assert!(result.value.is_finite());
    // Round 1 explores all four features alone; at least one more round
    // ran to adopt the second feature.
    assert!(result.history.len() > 4);
}

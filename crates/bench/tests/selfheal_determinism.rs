//! Determinism pins for the self-healing sweep (`repro selfheal`).
//!
//! Four guarantees from EXPERIMENTS.md are enforced here:
//!
//! 1. The figure is thread-count-invariant: online learning happens
//!    inside each cell's own simulator with all randomness drawn from
//!    counter-based streams seeded per cell, so the rendered table is
//!    byte-identical for any `--threads`.
//! 2. A neutered online policy (lr = 0, ε = 0) wrapped around a frozen
//!    network is *exactly* the frozen baseline: same decisions, same
//!    statistics, bit-for-bit, over a full fault-free simulation.
//! 3. A checkpoint-split online run — learner replay ring, buffer
//!    controller, and fault runtime all mid-flight — is bit-identical
//!    to the unsplit run.
//! 4. The warm result-cache ladder holds: a second `selfheal` run
//!    answers every cell from the cache with zero simulated cycles and
//!    zero training epochs.

use std::path::PathBuf;
use std::sync::Mutex;

use bench::exp::backend::CellRecord;
use bench::exp::cache::{CacheStats, ResultCache};
use bench::exp::driver::{run_matrix, run_matrix_cached};
use bench::exp::figures::{find, FigureKind};
use bench::exp::spec::{ExperimentSpec, Tier, TierParams};
use bench::CliArgs;
use nn_mlp::Mlp;
use noc_sim::{
    FaultPlan, Pattern, SimCheckpoint, SimConfig, Simulator, SyntheticTraffic, Topology,
};
use rl_arb::{
    training_epochs, AgentConfig, FeatureSet, NnPolicyArbiter, OnlinePolicy, RlVcController,
    StateEncoder,
};

/// The simulator cycle counter is process-wide; tests measuring deltas
/// against it must not overlap.
static SIM_COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-selfheal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn args(seed: u64, threads: usize, tag: &str) -> CliArgs {
    CliArgs {
        quick: true,
        seed,
        threads,
        out_dir: PathBuf::from("results"),
        artifacts_dir: temp_dir(&format!("{tag}-artifacts")),
        ..CliArgs::default()
    }
}

/// The selfheal spec with `driver_equivalence`-convention scaled budgets
/// so the repeated full-matrix runs stay suite-friendly.
fn scaled_selfheal() -> (ExperimentSpec, TierParams, bench::exp::figures::Renderer) {
    let FigureKind::Matrix { spec, render, .. } = &find("selfheal").unwrap().kind else {
        panic!("selfheal must be a matrix figure")
    };
    let spec = spec();
    let params = TierParams {
        warmup: 200,
        measure: 800,
        nn_epochs: 2,
        nn_epoch_cycles: 250,
        ..*spec.params(Tier::Quick)
    };
    (spec, params, *render)
}

/// A shared frozen network + encoder pair for the sim-level tests.
fn frozen_parts(seed: u64) -> (Mlp, StateEncoder, AgentConfig) {
    let cfg = SimConfig::synthetic(4, 4);
    let encoder = StateEncoder::new(5, cfg.num_vnets, FeatureSet::synthetic(), cfg.feature_bounds);
    let agent_cfg = AgentConfig::tuned_synthetic(seed);
    let net = Mlp::paper_agent(encoder.state_width(), agent_cfg.hidden, encoder.num_slots(), seed);
    (net, encoder, agent_cfg)
}

fn mesh_sim(seed: u64, arbiter: Box<dyn noc_sim::Arbiter>) -> Simulator<SyntheticTraffic> {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let cfg = SimConfig::synthetic(4, 4);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.15, cfg.num_vnets, seed);
    Simulator::new(topo, cfg, arbiter, traffic).unwrap()
}

/// `repro selfheal --seed 1` renders byte-identical tables (and identical
/// structured cells) on 1 and 4 worker threads: online learning and the
/// buffer controller add no thread-count-dependent state.
#[test]
fn selfheal_is_thread_invariant() {
    rl_arb::set_quiet(true);
    let (spec, params, render) = scaled_selfheal();
    let seeds = spec.seed_list(1, Tier::Quick);

    let run = |threads: usize| {
        let data = run_matrix(&spec, &params, &seeds, &args(1, threads, "threads"));
        let rendered = render(&spec, &params, &data);
        (rendered.text, rendered.table, data.all_cells())
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(serial.0, parallel.0, "rendered text diverged across thread counts");
    assert_eq!(serial.1, parallel.1, "record table diverged across thread counts");
    assert_eq!(serial.2, parallel.2, "structured cells diverged across thread counts");
    // Sanity: the sweep exercised faults and emitted the recovery metrics.
    assert!(
        serial.2.iter().any(|c| c.fault_plan.is_some()),
        "no cell carries a fault plan hash — the intensity axis did not engage"
    );
    for metric in ["fault_onsets", "recoveries", "recovery_time", "post_fault_latency"] {
        assert!(
            serial.2.iter().all(|c| c.metrics.iter().any(|(k, _)| k == metric)),
            "cells are missing the {metric} metric"
        );
    }
}

/// An online policy with learning neutered (lr = 0, ε = 0) wrapped around
/// a frozen network reproduces the frozen `NnPolicyArbiter` (ε = 0)
/// bit-for-bit over a fault-free run: the wrapper's replay bookkeeping
/// must be a pure observer of the decision stream.
#[test]
fn neutered_online_policy_matches_frozen_baseline() {
    let (net, encoder, agent_cfg) = frozen_parts(7);

    let frozen = NnPolicyArbiter::new(net.clone(), encoder.clone()).with_epsilon(0.0);
    let mut sim = mesh_sim(7, Box::new(frozen));
    sim.run(2_000);
    let frozen_stats = format!("{:?}", sim.stats());

    let neutered = AgentConfig { lr: 0.0, epsilon: 0.0, ..agent_cfg };
    let online = OnlinePolicy::new(net, encoder, neutered);
    let mut sim = mesh_sim(7, Box::new(online));
    sim.run(2_000);
    let online_stats = format!("{:?}", sim.stats());

    assert_eq!(
        frozen_stats, online_stats,
        "a zero-lr, zero-epsilon online policy diverged from the frozen baseline"
    );
}

/// A run with *everything* learning — online DQN arbiter mid-training,
/// RL buffer controller mid-exploration, fault runtime mid-episode — can
/// be checkpointed at an arbitrary cycle and resumed bit-identically:
/// same statistics and the same final checkpoint content hash as the
/// unsplit run.
#[test]
fn online_learning_run_splits_bit_identically() {
    let (horizon, split) = (1_200u64, 700u64);
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let plan = FaultPlan::generate(0xFA11, 1.0, &topo, horizon);
    let make_arb = || {
        let (net, encoder, agent_cfg) = frozen_parts(21);
        Box::new(OnlinePolicy::new(net, encoder, agent_cfg))
    };
    let make_ctl = || Box::new(RlVcController::paper_default(21));

    let mut sim = mesh_sim(21, make_arb());
    sim.set_buffer_controller(make_ctl());
    sim.set_fault_plan(&plan);
    sim.run(split);
    // Survive a "process restart": only the serialized text carries over.
    let text = sim.checkpoint().unwrap().to_json().to_string();
    drop(sim);

    let ck = SimCheckpoint::from_json(&text).unwrap();
    let mut sim = mesh_sim(21, make_arb());
    sim.set_buffer_controller(make_ctl());
    sim.restore_checkpoint(&ck).unwrap();
    assert_eq!(sim.cycle(), split);
    sim.run(horizon - split);
    let split_out = (format!("{:?}", sim.stats()), sim.checkpoint().unwrap().content_hash());

    let mut sim = mesh_sim(21, make_arb());
    sim.set_buffer_controller(make_ctl());
    sim.set_fault_plan(&plan);
    sim.run(horizon);
    let straight = (format!("{:?}", sim.stats()), sim.checkpoint().unwrap().content_hash());

    assert_eq!(split_out, straight, "split online run diverged from the unsplit run");
}

/// Cells must match bit-for-bit once the hit/miss provenance stamp is
/// ignored.
fn strip_cache(cells: &[CellRecord]) -> Vec<CellRecord> {
    cells
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.cache = None;
            c
        })
        .collect()
}

/// The warm-cache ladder for selfheal: the second run answers every cell
/// from the result cache — zero simulated cycles, zero training epochs —
/// and renders identically to the cold run.
#[test]
fn warm_cache_selfheal_simulates_zero_cycles() {
    let _guard = SIM_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    rl_arb::set_quiet(true);
    let (spec, params, render) = scaled_selfheal();
    let seeds = [42u64];
    let a = args(42, 2, "cache");
    let cache = ResultCache::new(temp_dir("cache"));

    let mut cold_stats = CacheStats::default();
    let cold = run_matrix_cached(&spec, &params, &seeds, &a, &cache, &mut cold_stats);
    assert_eq!(cold_stats.hits, 0, "empty cache cannot hit");
    assert_eq!(cold_stats.misses, cold_stats.cells, "cold run misses every cell");

    let sim_before = noc_sim::simulated_cycles();
    let train_before = training_epochs();
    let mut warm_stats = CacheStats::default();
    let warm = run_matrix_cached(&spec, &params, &seeds, &a, &cache, &mut warm_stats);
    assert_eq!(
        noc_sim::simulated_cycles() - sim_before,
        0,
        "a fully warm cache must simulate zero cycles (and hence run zero online updates)"
    );
    assert_eq!(
        training_epochs() - train_before,
        0,
        "a fully warm cache must train zero artifact epochs"
    );
    assert_eq!(warm_stats.hits, warm_stats.cells, "warm run hits every cell");
    assert_eq!(warm_stats.misses, 0);

    assert_eq!(
        strip_cache(&cold.all_cells()),
        strip_cache(&warm.all_cells()),
        "warm cells diverged from the cold run"
    );
    let cold_r = render(&spec, &params, &cold);
    let warm_r = render(&spec, &params, &warm);
    assert_eq!(cold_r.text, warm_r.text, "warm text diverged");
    assert_eq!(cold_r.table, warm_r.table, "warm table diverged");
}

//! Determinism pins for the fault-injection sweep.
//!
//! Two guarantees from EXPERIMENTS.md are enforced here:
//!
//! 1. `repro resilience` is thread-count-invariant: fault plans are
//!    generated once per (scenario, intensity) row on the main thread,
//!    so the rendered table is byte-identical for any `--threads`.
//! 2. An all-zero fault axis is *exactly* the fault-free path: running
//!    fig05 with `intensities: [0.0]` reproduces the plain fig05 output
//!    bit-for-bit (the fault machinery never engages — no plan is even
//!    allocated).

use std::path::PathBuf;

use bench::exp::driver::run_matrix;
use bench::exp::figures::{find, FigureKind};
use bench::exp::spec::{ExperimentSpec, FaultAxis, Tier, TierParams};
use bench::CliArgs;

fn args(seed: u64, threads: usize) -> CliArgs {
    CliArgs {
        quick: true,
        seed,
        threads,
        out_dir: PathBuf::from("results"),
        // A per-process store keeps these runs independent of whatever
        // `results/artifacts/` holds (and of other test binaries).
        artifacts_dir: std::env::temp_dir()
            .join(format!("bench-resilience-artifacts-{}", std::process::id())),
        ..CliArgs::default()
    }
}

fn matrix_figure(name: &str) -> (ExperimentSpec, bench::exp::figures::Renderer) {
    let FigureKind::Matrix { spec, render, .. } = &find(name).unwrap().kind else {
        panic!("{name} must be a matrix figure")
    };
    (spec(), *render)
}

/// `repro resilience --quick --seed 1` renders byte-identical tables (and
/// identical structured cells) on 1 and 4 worker threads.
#[test]
fn resilience_quick_is_thread_invariant() {
    rl_arb::set_quiet(true);
    let (spec, render) = matrix_figure("resilience");
    let params = *spec.params(Tier::Quick);
    let seeds = spec.seed_list(1, Tier::Quick);

    let run = |threads: usize| {
        let data = run_matrix(&spec, &params, &seeds, &args(1, threads));
        let rendered = render(&spec, &params, &data);
        (rendered.text, rendered.table, data.all_cells())
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(serial.0, parallel.0, "rendered text diverged across thread counts");
    assert_eq!(serial.1, parallel.1, "record table diverged across thread counts");
    assert_eq!(serial.2, parallel.2, "structured cells diverged across thread counts");
    // Sanity: the sweep actually injected faults somewhere.
    assert!(
        serial.2.iter().any(|c| c.fault_plan.is_some()),
        "no cell carries a fault plan hash — the intensity axis did not engage"
    );
}

/// An `intensities: [0.0]` fault axis on fig05 `--quick` is bit-identical
/// to plain fig05: no plan is generated, labels are unchanged, and the
/// rendered output matches byte-for-byte.
#[test]
fn zero_fault_axis_reproduces_fig05_exactly() {
    rl_arb::set_quiet(true);
    let (spec, render) = matrix_figure("fig05");
    // ~10× scaled-down quick budgets (the `driver_equivalence.rs`
    // convention) so the double NN-training run stays suite-friendly.
    let params = TierParams {
        warmup: 200,
        measure: 800,
        nn_epochs: 2,
        nn_epoch_cycles: 250,
        ..*spec.params(Tier::Quick)
    };
    let seeds = spec.seed_list(42, Tier::Quick);
    let a = args(42, 2);

    let plain = run_matrix(&spec, &params, &seeds, &a);
    let mut zero_spec = spec.clone();
    zero_spec.faults = Some(FaultAxis { intensities: vec![0.0], quiet_tail: 0.0, post_warmup: false });
    // Same artifact store: the second run resolves the NN warm, which the
    // store guarantees is bit-identical to the cold-trained policy.
    let zeroed = run_matrix(&zero_spec, &params, &seeds, &a);

    let plain_r = render(&spec, &params, &plain);
    let zeroed_r = render(&spec, &params, &zeroed);
    assert_eq!(plain_r.text, zeroed_r.text, "zero-fault axis changed fig05 output");
    assert_eq!(plain_r.table, zeroed_r.table);
    assert_eq!(plain.all_cells(), zeroed.all_cells());
    assert!(
        zeroed.all_cells().iter().all(|c| c.fault_plan.is_none()),
        "intensity 0.0 must not attach a fault plan"
    );
}

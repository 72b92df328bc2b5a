//! Determinism pins for the routing x topology sweep.
//!
//! `repro routing` exercises every topology family (mesh, torus, ring,
//! degraded mesh) under a compatible deterministic routing kind, with a
//! fault axis on top. The guarantee enforced here mirrors the resilience
//! figure's: fault plans are generated once per (scenario, intensity)
//! row on the main thread, so the rendered table is byte-identical for
//! any `--threads` value.

use std::path::PathBuf;

use bench::exp::driver::run_matrix;
use bench::exp::figures::{find, FigureKind};
use bench::exp::spec::{ExperimentSpec, Tier};
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
            .join(format!("bench-routing-artifacts-{}", std::process::id())),
        ..CliArgs::default()
    }
}

fn matrix_figure(name: &str) -> (ExperimentSpec, bench::exp::figures::Renderer) {
    let FigureKind::Matrix { spec, render, .. } = &find(name).unwrap().kind else {
        panic!("{name} must be a matrix figure")
    };
    (spec(), *render)
}

/// `repro routing --quick --seed 1` renders byte-identical tables (and
/// identical structured cells) on 1 and 4 worker threads, and every
/// scenario row actually delivers traffic on its topology.
#[test]
fn routing_quick_is_thread_invariant() {
    rl_arb::set_quiet(true);
    let (spec, render) = matrix_figure("routing");
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
    // Sanity: the fault axis engaged somewhere, and every cell (torus,
    // ring, and degraded rows included) moved packets.
    assert!(
        serial.2.iter().any(|c| c.fault_plan.is_some()),
        "no cell carries a fault plan hash — the intensity axis did not engage"
    );
    assert!(
        serial.2.iter().all(|c| c.metric("delivered") > 0.0),
        "a scenario row delivered no packets"
    );
}

//! `repro` — the single entry point for regenerating every figure and
//! table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- list
//! cargo run --release -p bench --bin repro -- fig09 [--quick] [--seed <n>] [--threads <n>] [--out-dir <dir>]
//! cargo run --release -p bench --bin repro -- queue fig05 fig09 [--cache-dir <dir>] [--cache-stats]
//! cargo run --release -p bench --bin repro -- train fig09 [--retrain] [--artifacts-dir <dir>]
//! cargo run --release -p bench --bin repro -- search --quick [--driver hc|evo|random] [--budget <n>]
//! ```
//!
//! Figures with an NN slot resolve their trained policy through the
//! content-addressed artifact store (`--artifacts-dir`, default
//! `results/artifacts/`): checkpoints are named by training-recipe hash,
//! so a warm store re-runs the figure with zero training steps and
//! byte-identical output. `train <figure>` resolves (training if needed)
//! a figure's artifacts without running its matrix; `--retrain` ignores
//! the cache.
//!
//! Simulation cells themselves resolve through the content-addressed
//! result cache (`--cache-dir`, default `results/cache/`): every cell is
//! keyed by its content hash, so a warm cache re-answers a figure with
//! zero simulated cycles. `queue <figure>...` batches several figures
//! through one shared job queue and cache, deduplicating cells and NN
//! training that figures share; `--cache-stats` prints a one-line
//! hit/miss summary after the run. `search` explores the design space
//! with a pluggable driver through the same queue and cache (see
//! `bench::exp::search`).
//!
//! Figure names resolve through the registry in `bench::exp::figures`.
//! Every run prints the figure's text report to stdout (byte-identical to
//! the pre-driver binaries) and writes a versioned `RunRecord` JSON with
//! the per-cell values, seeds, normalization reference and provenance
//! stamps into `--out-dir` (default `results/`).
//!
//! The flag grammar, this help text and the usage line are all generated
//! from `bench::FLAG_REGISTRY`, so they cannot drift from the parser.

use bench::exp::{driver, figures};
use bench::{usage_flags, CliArgs, FLAG_REGISTRY};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help_text());
        return;
    }
    let (args, positionals) = match CliArgs::parse_from(raw.into_iter()) {
        Ok(parsed) => parsed,
        Err(e) => usage(&format!("error: {e}")),
    };
    match positionals.as_slice() {
        [cmd] if cmd == "list" => {
            for def in figures::all() {
                println!("{:<22} {}", def.name, def.summary);
            }
        }
        [cmd, figure] if cmd == "train" => match driver::train_figure(figure, &args) {
            Ok(artifacts) => {
                for a in artifacts {
                    println!(
                        "{}  {}  ({})",
                        a.recipe_hash,
                        a.path.display(),
                        if a.was_cached { "cached" } else { "trained" }
                    );
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        [cmd, figs @ ..] if cmd == "queue" && !figs.is_empty() => {
            let names: Vec<&str> = figs.iter().map(String::as_str).collect();
            if let Err(e) = driver::run_figures_queued(&names, &args) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        [cmd] if cmd == "queue" => usage("error: queue needs at least one figure name"),
        [figure] => {
            if let Err(e) = driver::run_figure(figure, &args) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        [] => usage("error: missing figure name"),
        more => usage(&format!("error: expected one figure name, got {more:?}")),
    }
}

/// The `--help` text: subcommands, then the flag table and figure list,
/// both generated from their registries.
fn help_text() -> String {
    let mut out = String::new();
    out.push_str(&format!("usage: repro {} {}\n\n", SUBCOMMANDS, usage_flags()));
    out.push_str("subcommands:\n");
    out.push_str("  <figure>              run one figure end-to-end\n");
    out.push_str("  queue <figure>...     batch figures through one shared queue + cache\n");
    out.push_str("  train <figure>        resolve a figure's NN artifacts without running it\n");
    out.push_str("  list                  list every registered figure\n\n");
    out.push_str("flags:\n");
    for f in FLAG_REGISTRY {
        let lhs = match f.value {
            Some(v) => format!("{} {v}", f.flag),
            None => f.flag.to_string(),
        };
        out.push_str(&format!("  {lhs:<24}{}\n", f.help));
    }
    out.push_str("\nfigures:\n");
    for def in figures::all() {
        out.push_str(&format!("  {:<22}{}\n", def.name, def.summary));
    }
    out
}

const SUBCOMMANDS: &str = "<figure|queue <figure>...|train <figure>|list>";

fn usage(err: &str) -> ! {
    eprintln!("{err}");
    eprintln!("usage: repro {} {}", SUBCOMMANDS, usage_flags());
    std::process::exit(2);
}

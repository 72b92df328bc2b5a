//! nocbench — the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! nocbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! nocbench all [--seed <n>] [--seconds <s>] [--traced]
//! nocbench list
//! nocbench compare <A.json> <B.json>
//! ```

mod kernels;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

use run::RunArgs;

/// Where a run leaves its files, relative to the checkout root that
/// `run.sh` makes the working directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Where the traced run of `workload` leaves its spans. `nocbench all
/// --traced` gathers the six files into `trace.json`.
pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace.{workload}.json"))
}

/// Writes the spans of a traced run, once, at its end.
pub fn write_trace(tracer: &trace::Tracer) {
    let path = trace_path(tracer.workload());
    std::fs::write(&path, tracer.to_json()).expect("write trace.json");
    println!("  trace written to {}", path.display());
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(run)
}

fn run_one(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = workloads::run(&args)?;
    outcome.print(&args);
    if outcome.correct() {
        Ok(())
    } else {
        Err(format!(
            "{}: a correctness check or an operation failed",
            args.workload
        ))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run_one(&argv[1..]),
        Some("all") => report::all(&argv[1..]),
        Some("compare") => report::compare(&argv[1..]),
        Some("figure-child") => workloads::figure_child(&argv[1..]),
        Some("list") => {
            print!("{}", spec::list_text());
            Ok(())
        }
        _ => Err("usage: nocbench <run|all|list|compare> ... (see benchmark/README.md)".into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

//! The six workloads. Each takes the run arguments and returns what it
//! measured; `--trace 1` selects the traced variant of the same workload.

mod apu;
mod hooks;
mod mesh;
mod service;
mod train;

pub use service::figure_child;

use crate::run::{Outcome, RunArgs};

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "mesh8-classical" => Ok(mesh::run(args, false)),
        "mesh8-nn" => Ok(mesh::run(args, true)),
        "apu-nn" => Ok(apu::run(args)),
        "mesh8-hooks" => Ok(hooks::run(args)),
        "train-synth4" => Ok(train::run(args)),
        "service-queue" => Ok(service::run(args)),
        other => Err(format!("unknown workload '{other}' (try `nocbench list`)")),
    }
}

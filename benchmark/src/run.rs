//! What every workload shares: the run arguments, the closed loop, the
//! outcome it fills and the contract's result line.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use crate::spec::{self, Metric};
use crate::stats::{json_num, median, percentile, samples_beyond, vm_hwm_kb};

/// `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// The `i`-th derived seed of this run. Every traffic, weight,
    /// fault-plan and figure seed comes from here, so the program only
    /// ever sees inputs generated from `--seed`.
    pub fn derive(&self, i: u64) -> u64 {
        self.seed.wrapping_mul(1_000).wrapping_add(i)
    }
}

/// One completed operation of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host wall time of the operation.
    pub ns: u64,
    /// Simulated cycles it stepped.
    pub cycles: u64,
    pub failed: bool,
}

/// A closed loop with one client: the next operation starts when the
/// previous one returns. It runs at least `min_ops` operations — the fixed
/// prefix every simulated check value is taken over, so those repeat
/// exactly whatever the host's speed — and then keeps going until
/// `seconds` of wall time have passed. `op` gets the operation's index and
/// pushes one sample per operation it completes.
pub fn closed_loop(
    min_ops: usize,
    seconds: f64,
    mut op: impl FnMut(usize, &mut Vec<Sample>),
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i, &mut samples);
        i += 1;
    }
    samples
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks, by name; the run is correct when all hold.
    pub checks: Vec<(String, bool)>,
    pub metrics: BTreeMap<String, f64>,
    /// Simulated results, counts and fingerprints that must repeat exactly
    /// for one commit and seed (`nocbench compare` requires them equal).
    pub exact: Vec<(String, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn exact(&mut self, name: &str, value: impl Display) {
        self.exact.push((name.to_string(), value.to_string()));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Fills `attempted`/`failed` and the operation-time metrics from the
    /// loop's samples, plus set-up time and peak memory.
    pub fn summarize(&mut self, samples: &[Sample], setup_ns: &[u64]) {
        self.attempted += samples.len() as u64;
        self.failed += samples.iter().filter(|s| s.failed).count() as u64;
        let ms: Vec<f64> = samples.iter().map(|s| s.ns as f64 / 1e6).collect();
        self.set("op_ms_p50", median(&ms));
        self.set("op_ms_p90", percentile(&ms, 90.0));
        let cycles: u64 = samples.iter().map(|s| s.cycles).sum();
        let ns: u64 = samples.iter().map(|s| s.ns).sum();
        if cycles > 0 {
            self.set("sim_cycles_per_s", cycles as f64 / (ns as f64 / 1e9));
        }
        let setup: Vec<f64> = setup_ns.iter().map(|&n| n as f64 / 1e9).collect();
        self.set("setup_s", median(&setup));
        self.set("peak_rss_mb", vm_hwm_kb() as f64 / 1024.0);
        println!(
            "  op samples: n = {} ({} beyond p90), set-up repeats: n = {}",
            samples.len(),
            samples_beyond(samples.len(), 90.0),
            setup_ns.len()
        );
    }

    /// Prints the human-readable report and, last, the contract's result
    /// line: every end-to-end metric for an untraced run, every per-layer
    /// metric for a traced one.
    pub fn print(&self, args: &RunArgs) {
        let declared: Vec<Metric> = if args.trace {
            spec::per_layer()
        } else {
            spec::end_to_end()
        };
        for name in self.metrics.keys() {
            assert!(
                declared.iter().any(|m| &m.name == name),
                "undeclared metric {name}"
            );
        }
        assert!(self.attempted >= 1, "a run attempts at least one operation");
        println!("  ops {} failed {}", self.attempted, self.failed);
        for (name, ok) in &self.checks {
            println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, value) in &self.exact {
            println!("  exact {name} {value}");
        }
        let mut fields = Vec::with_capacity(declared.len());
        for m in &declared {
            let value = match self.metrics.get(&m.name) {
                Some(&v) => v,
                // A layer that is not on this workload's path did no work.
                None if args.trace => 0.0,
                None => panic!("end-to-end metric {} not measured", m.name),
            };
            if value != 0.0 || !args.trace {
                println!("  metric {} {} {}", m.name, json_num(value), m.unit);
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(value),
                m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

//! `service-queue`: `repro queue <six figures> --quick`, invoked as a
//! child process of the harness — once cold in fresh out/cache/artifact
//! directories, then warm on the same cache until the time is up.

use std::path::{Path, PathBuf};
use std::process::Command;

use bench::exp::record::RunRecord;
use bench::exp::{driver, ArtifactStore, JobQueue, ResultCache};
use bench::sweep::{default_threads, run_parallel};
use bench::CliArgs;
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{SimConfig, Topology};
use rl_arb::{TrainRecipe, TrainSpec};

use crate::layers::synthetic_sim;
use crate::run::{closed_loop, Outcome, RunArgs, Sample};
use crate::spec::FIGURES;
use crate::stats::{fnv1a64, median, ns_per_call, timed, vm_hwm_kb, FNV_OFFSET};
use crate::trace::Tracer;

/// Warm invocations at least; 110 is what a p90 with ten samples beyond
/// it needs.
const MIN_WARM: usize = 110;
/// Untimed pool invocations between set-up and the cold run.
const POOL_WAKE_UPS: usize = 4;
const CHILD_MARK: &str = "nocbench-child vmhwm_kb=";

/// Worker threads of every figure invocation: never more than the host has.
fn threads() -> usize {
    default_threads().min(4)
}

/// The hidden `figure-child` subcommand: exactly `repro queue <args>`,
/// plus one last line with the child's own peak memory.
pub fn figure_child(args: &[String]) -> Result<(), String> {
    let (cli, figures) = CliArgs::parse_from(args.iter().cloned())?;
    let names: Vec<&str> = figures.iter().map(String::as_str).collect();
    driver::run_figures_queued(&names, &cli)?;
    println!("{CHILD_MARK}{}", vm_hwm_kb());
    Ok(())
}

/// The flags of one invocation on the directory set under `dirs`.
fn repro_flags(dirs: &Path, seed: u64, threads: usize) -> Vec<String> {
    let dir = |name: &str| dirs.join(name).to_string_lossy().into_owned();
    let mut flags: Vec<String> = ["--quick", "--quiet", "--cache-stats"]
        .map(String::from)
        .into();
    flags.extend(["--threads".into(), threads.to_string()]);
    flags.extend(["--seed".into(), seed.to_string()]);
    flags.extend(["--out-dir".into(), dir("out")]);
    flags.extend(["--cache-dir".into(), dir("cache")]);
    flags.extend(["--artifacts-dir".into(), dir("artifacts")]);
    flags
}

/// What one figure invocation printed and cost.
#[derive(Debug, Default)]
struct Invocation {
    ns: u64,
    ok: bool,
    cells: u64,
    hits: u64,
    misses: u64,
    cycles: u64,
    /// Standard output without the two trailing accounting lines.
    tables: String,
    vmhwm_kb: u64,
}

impl Invocation {
    fn cold_ok(&self) -> bool {
        self.ok && self.hits == 0 && self.misses == self.cells && self.cells > 0
    }
    fn warm_ok(&self, cold: &Invocation) -> bool {
        self.ok && self.misses == 0 && self.cycles == 0 && self.tables == cold.tables
    }
}

fn invoke(figures: &[&str], dirs: &Path, seed: u64) -> Invocation {
    invoke_on(figures, dirs, seed, threads())
}

fn invoke_on(figures: &[&str], dirs: &Path, seed: u64, threads: usize) -> Invocation {
    let exe = std::env::current_exe().expect("own executable path");
    let (ns, output) = timed(|| {
        Command::new(exe)
            .arg("figure-child")
            .args(figures)
            .args(repro_flags(dirs, seed, threads))
            .output()
            .expect("spawn figure child")
    });
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut inv = Invocation {
        ns,
        ok: output.status.success(),
        ..Invocation::default()
    };
    let mut lines: Vec<&str> = stdout.lines().collect();
    let field = |line: &str, key: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    let parsed = (|| {
        inv.vmhwm_kb = lines.pop()?.strip_prefix(CHILD_MARK)?.parse().ok()?;
        let stats = lines.pop().filter(|l| l.starts_with("cache-stats:"))?;
        inv.cells = field(stats, "cells=")?;
        inv.hits = field(stats, "hits=")?;
        inv.misses = field(stats, "misses=")?;
        inv.cycles = field(stats, "simulated-cycles=")?;
        Some(())
    })();
    inv.ok &= parsed.is_some();
    inv.tables = lines.join("\n");
    if !inv.ok {
        eprintln!(
            "figure invocation failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    inv
}

/// A scratch directory under `benchmark/out`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let path = crate::out_dir().join(format!("service-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        Scratch(path)
    }
    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let scratch = Scratch::new();
    let seed = args.derive(0);
    let start = std::time::Instant::now();

    // Set-up: a small figure, cold, in a directory of its own, which pages
    // the executable and the figure code in before anything is timed. It
    // runs on one thread: a pool this short-lived runs at one or at two
    // cores' speed depending on how fast the host wakes its second core,
    // and set-up time would read 0.2 s or 0.4 s by that alone.
    let mut setup_ns = Vec::new();
    for i in 0..3 {
        let inv = invoke_on(&["routing"], &scratch.dir(&format!("setup{i}")), seed, 1);
        out.check(&format!("set-up invocation {i}"), inv.cold_ok());
        setup_ns.push(inv.ns);
    }
    // Then, untimed, the same figure on the pool until the host has woken
    // its other cores (about a second on the reference host), so that the
    // cold invocation measures the pool and not the host's wake-up latency.
    for i in 0..POOL_WAKE_UPS {
        invoke(&["routing"], &scratch.dir(&format!("wake{i}")), seed);
    }
    let setup_s = start.elapsed().as_secs_f64();

    let dirs = scratch.dir("main");
    let cold = invoke(&FIGURES, &dirs, seed);
    out.check("cold run reports hits=0", cold.cold_ok());
    let mut peak_kb = cold.vmhwm_kb;
    // The time box covers the cold invocation and the warm ones after it.
    let left = args.seconds - (start.elapsed().as_secs_f64() - setup_s);
    let samples = closed_loop(MIN_WARM, left, |_, samples| {
        let warm = invoke(&FIGURES, &dirs, seed);
        peak_kb = peak_kb.max(warm.vmhwm_kb);
        samples.push(Sample {
            ns: warm.ns,
            cycles: 0,
            failed: !warm.warm_ok(&cold),
        });
    });
    out.check(
        "warm runs report misses=0 simulated-cycles=0, same tables",
        samples.iter().all(|s| !s.failed),
    );

    out.exact("bench_exp.cells", cold.cells);
    out.exact("bench_exp.sim_cycles_cold", cold.cycles);
    out.exact(
        "tables_fnv",
        format!("{:016x}", fnv1a64(FNV_OFFSET, cold.tables.as_bytes())),
    );
    out.summarize(&samples, &setup_ns);
    out.attempted += 1;
    out.failed += u64::from(!cold.cold_ok());
    // Simulated cycles are stepped only by the cold invocation, and memory
    // is the largest figure child's, not the harness's.
    out.set(
        "sim_cycles_per_s",
        cold.cycles as f64 / (cold.ns as f64 / 1e9),
    );
    out.set("peak_rss_mb", peak_kb as f64 / 1024.0);
    println!(
        "  cold: {:.3} s, {} cells ({:.1} cells/s), {} simulated cycles, {} worker threads of {} available",
        cold.ns as f64 / 1e9,
        cold.cells,
        cold.cells as f64 / (cold.ns as f64 / 1e9),
        cold.cycles,
        threads(),
        default_threads(),
    );
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(&args.workload);
    let scratch = Scratch::new();
    let seed = args.derive(0);

    // Figure by figure, each cold in fresh directories and then warm.
    let (mut cells, mut cycles, mut cold_ns) = (0, 0, 0);
    for figure in FIGURES {
        let dirs = scratch.dir(figure);
        let (_, cold) = tracer.span(&format!("repro.{figure}.cold"), || {
            invoke(&[figure], &dirs, seed)
        });
        let (_, warm) = tracer.span(&format!("repro.{figure}.warm"), || {
            invoke(&[figure], &dirs, seed)
        });
        out.check(
            &format!("{figure}: cold hits=0, warm misses=0, same tables"),
            cold.cold_ok() && warm.warm_ok(&cold),
        );
        out.attempted += 2;
        out.failed += u64::from(!cold.cold_ok()) + u64::from(!warm.warm_ok(&cold));
        out.set(&format!("bench_exp.cold_s.{figure}"), cold.ns as f64 / 1e9);
        cells += cold.cells;
        cycles += cold.cycles;
        cold_ns += cold.ns;
    }
    out.exact("bench_exp.cells", cells);
    out.exact("bench_exp.sim_cycles_cold", cycles);
    out.set("bench_exp.cells", cells as f64);
    out.set("bench_exp.sim_cycles_cold", cycles as f64);
    out.set(
        "bench_exp.cells_per_s",
        cells as f64 / (cold_ns as f64 / 1e9),
    );
    tracer.add_count("bench_exp.cells", cells);
    tracer.add_count("bench_exp.sim_cycles_cold", cycles);

    // Spans live in the harness, outside the child, so their overhead on
    // an invocation is a handful of clock reads: measure it as such.
    let dirs = scratch.dir("routing");
    let (mut bare, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        bare.push(invoke(&["routing"], &dirs, seed).ns as f64);
        spanned.push(
            tracer
                .span("repro.routing.warm", || invoke(&["routing"], &dirs, seed))
                .0 as f64,
        );
    }
    out.set("trace.overhead", 1.0 - median(&bare) / median(&spanned));

    // The serial part of a cold run: training the self-healing figure's
    // network, in this process.
    let (cli, _) =
        CliArgs::parse_from(repro_flags(&scratch.dir("train"), seed, threads()).into_iter())
            .expect("own flags parse");
    let (ns, trained) = tracer.span("bench::exp::driver::train_figure", || {
        driver::train_figure("selfheal", &cli)
    });
    out.check(
        "train_figure trains",
        trained.is_ok_and(|a| a.iter().all(|a| !a.was_cached)),
    );
    out.set("bench_exp.train_figure_s", ns as f64 / 1e9);

    tracer.span("bench::exp codecs", || {
        codec_kernels(&mut out, &scratch, seed)
    });
    tracer.span("bench::sweep::run_parallel", || pool_point(&mut out, seed));
    crate::write_trace(&tracer);
    out
}

/// Unit costs of the service's storage layer, on what the cold
/// `load_sweep` invocation left behind.
fn codec_kernels(out: &mut Outcome, scratch: &Scratch, seed: u64) {
    let dirs = scratch.dir("load_sweep");
    let cache = ResultCache::new(dirs.join("cache"));
    let mut hashes: Vec<String> = std::fs::read_dir(cache.dir())
        .expect("the cold run filled the cache")
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_suffix(".cell.json")
                .map(String::from)
        })
        .collect();
    hashes.sort();
    let mut i = 0;
    let load_ns = ns_per_call(|| {
        std::hint::black_box(cache.load(&hashes[i]).expect("cached cell loads"));
        i = (i + 1) % hashes.len();
    });
    out.set("bench_exp.cache_load_us", load_ns / 1e3);
    let cells: Vec<_> = hashes
        .iter()
        .map(|h| cache.load(h).expect("cached cell loads"))
        .collect();
    let copy = ResultCache::new(scratch.dir("cache-copy"));
    let store_ns = ns_per_call(|| {
        copy.store(&hashes[i], &cells[i]).expect("cache store");
        i = (i + 1) % hashes.len();
    });
    out.set("bench_exp.cache_store_us", store_ns / 1e3);

    let text =
        std::fs::read_to_string(dirs.join("out/load_sweep.json")).expect("run record exists");
    let record = RunRecord::from_json(&text).expect("own run record parses");
    out.set(
        "bench_exp.record_from_json_us",
        ns_per_call(|| {
            std::hint::black_box(
                RunRecord::from_json(std::hint::black_box(&text)).expect("parses"),
            );
        }) / 1e3,
    );
    out.set(
        "bench_exp.record_to_json_us",
        ns_per_call(|| {
            std::hint::black_box(std::hint::black_box(&record).to_json());
        }) / 1e3,
    );

    const JOBS: usize = 1_000;
    let drain_ns = ns_per_call(|| {
        let mut queue = JobQueue::new();
        for j in 0..JOBS {
            queue.enqueue(j, (j % 3) as i64);
        }
        std::hint::black_box(queue.drain(threads(), |j| j));
    });
    out.set(
        "bench_exp.queue_drain_us_per_job",
        drain_ns / 1e3 / JOBS as f64,
    );

    // A two-epoch recipe: resolve it once (trains), then time warm resolves.
    let recipe = TrainRecipe::Synthetic(TrainSpec {
        epochs: 2,
        cycles_per_epoch: 200,
        ..TrainSpec::synthetic_4x4(seed)
    });
    let store = ArtifactStore::new(scratch.dir("artifact-kernel"), false);
    std::fs::create_dir_all(store.dir()).expect("create artifact directory");
    rl_arb::set_quiet(true);
    assert!(!store.resolve(&recipe).expect("artifact trains").was_cached);
    let resolve_ns = ns_per_call(|| {
        assert!(store.resolve(&recipe).expect("artifact loads").was_cached);
    });
    out.set("bench_exp.artifact_resolve_warm_us", resolve_ns / 1e3);
}

/// `bench_sweep.pool_*`: sixteen equal 8×8 jobs on one thread and on the
/// pool. On a one-core host the ratio says nothing about the pool.
fn pool_point(out: &mut Outcome, seed: u64) {
    let job = |j: u64| {
        let topo = Topology::uniform_mesh(8, 8).expect("valid mesh");
        let arbiter = make_arbiter(PolicyKind::GlobalAge, seed);
        let mut sim = synthetic_sim(topo, SimConfig::synthetic(8, 8), arbiter, 0.20, seed + j);
        sim.run(2_500);
        sim.stats().delivered
    };
    let jobs = || (0..16u64).collect::<Vec<_>>();
    let (serial_ns, serial) = timed(|| run_parallel(jobs(), 1, job));
    let (pool_ns, pooled) = timed(|| run_parallel(jobs(), threads(), job));
    out.check("pool results equal serial results", serial == pooled);
    let speedup = serial_ns as f64 / pool_ns as f64;
    out.set("bench_sweep.pool_speedup", speedup);
    out.set("bench_sweep.pool_efficiency", speedup / threads() as f64);
    println!(
        "  pool: {} worker threads, available_parallelism {}{}",
        threads(),
        default_threads(),
        if default_threads() == 1 {
            " (one core: no speed-up can be stated)"
        } else {
            ""
        }
    );
}

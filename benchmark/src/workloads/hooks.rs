//! `mesh8-hooks`: the same `noc-sim` layer used the other way — short
//! episodes at low load with every opt-in phase installed (fault plan,
//! invariant checker, learned VC controller) and a checkpoint → JSON →
//! restore split in the middle. Construction and plan generation are
//! inside the timed region, as they are in a real figure cell.

use std::rc::Rc;
use std::time::Instant;

use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{
    Arbiter, BufferController, FaultPlan, SimCheckpoint, SimConfig, SimStats, Simulator,
    SyntheticTraffic, Topology,
};
use rl_arb::RlVcController;

use crate::layers::{cycles_per_s, synthetic_sim, Attribution, SimTotals};
use crate::run::{closed_loop, Outcome, RunArgs, Sample};
use crate::stats::{fold_stats, median, timed, FNV_OFFSET};
use crate::trace::{timer_bias_ns, ArbProbe, TimedArbiter, TimedController, Timer, Tracer};

const RATE: f64 = 0.08;
const FAULT_INTENSITY: f64 = 0.3;
/// Cycles per episode (a `--quick` figure cell runs 4,500), split in half
/// by the checkpoint.
const EPISODE_CYCLES: u64 = 5_000;
const EXACT_EPISODES: usize = 24;
const TRACED_EPISODES: usize = 12;
/// Cycles of each hook-cost point.
const HOOK_CYCLES: u64 = 20_000;

/// Probes of a wrapped episode.
#[derive(Default)]
struct Probes {
    arbiter: Rc<ArbProbe>,
    controller: Rc<Timer>,
}

/// Host nanoseconds of the parts of an episode that are not `sim.run`.
#[derive(Debug, Default, Clone, Copy)]
struct Parts {
    plan_ns: u64,
    new_ns: u64,
    checkpoint_ns: u64,
    parse_ns: u64,
    restore_ns: u64,
    checkpoint_bytes: usize,
}

struct Episode {
    ns: u64,
    stats: SimStats,
    violations: u64,
    parts: Parts,
}

impl Episode {
    /// A clean episode conserves packets, breaks no invariant and is not
    /// wedged. The drain threshold is a wedge detector, not a performance
    /// gate: over 400 fault plans at this point the least-drained episode
    /// delivered 0.795 of what it created (faults still active at the
    /// horizon park packets behind a down link), a wedged network a few
    /// per cent.
    fn failed(&self) -> bool {
        let s = &self.stats;
        self.violations > 0
            || s.created != s.delivered + s.in_flight_at_end + s.queued_at_end
            || s.delivered * 2 < s.created
    }
}

/// The episode's simulator with the controller installed; the fault plan
/// and the checker go on top for a fresh run and come out of the
/// checkpoint for a restored one.
fn build(topo: &Topology, seed: u64, probes: Option<&Probes>) -> Simulator<SyntheticTraffic> {
    let mut arbiter: Box<dyn Arbiter> = make_arbiter(PolicyKind::GlobalAge, seed);
    let mut controller: Box<dyn BufferController> = Box::new(RlVcController::paper_default(seed));
    if let Some(p) = probes {
        arbiter = Box::new(TimedArbiter::new(arbiter, p.arbiter.clone()));
        controller = Box::new(TimedController::new(controller, p.controller.clone()));
    }
    let mut sim = synthetic_sim(
        topo.clone(),
        SimConfig::synthetic(8, 8),
        arbiter,
        RATE,
        seed,
    );
    sim.set_buffer_controller(controller);
    sim
}

fn episode(seed: u64, split: bool, probes: Option<&Probes>) -> Episode {
    let mut parts = Parts::default();
    let t0 = Instant::now();
    let topo = Topology::uniform_mesh(8, 8).expect("valid mesh");
    let (ns, plan) = timed(|| FaultPlan::generate(seed, FAULT_INTENSITY, &topo, EPISODE_CYCLES));
    parts.plan_ns = ns;
    let (ns, mut sim) = timed(|| {
        let mut sim = build(&topo, seed, probes);
        sim.set_fault_plan(&plan);
        sim.enable_invariant_checker();
        sim
    });
    parts.new_ns = ns;
    if split {
        sim.run(EPISODE_CYCLES / 2);
        let (ns, checkpoint) = timed(|| sim.checkpoint().expect("the episode is checkpointable"));
        parts.checkpoint_ns = ns;
        let text = checkpoint.to_json().to_string();
        parts.checkpoint_bytes = text.len();
        drop((sim, checkpoint));
        let (ns, parsed) =
            timed(|| SimCheckpoint::from_json(&text).expect("own checkpoint parses"));
        parts.parse_ns = ns;
        let (ns, restored) = timed(|| {
            let mut sim = build(&topo, seed, probes);
            sim.restore_checkpoint(&parsed)
                .expect("own checkpoint restores");
            sim
        });
        parts.restore_ns = ns;
        sim = restored;
        sim.run(EPISODE_CYCLES - EPISODE_CYCLES / 2);
    } else {
        sim.run(EPISODE_CYCLES);
    }
    Episode {
        ns: t0.elapsed().as_nanos() as u64,
        stats: sim.stats().clone(),
        violations: sim.total_invariant_violations(),
        parts,
    }
}

/// Episodes on consecutive derived seeds: `exact` of them at least, then
/// until `seconds` have passed. Returns the samples, the totals and the
/// invariant violations of the exact prefix, and every episode's parts.
fn run_episodes(
    args: &RunArgs,
    exact: usize,
    seconds: f64,
    probes: Option<&Probes>,
) -> (Vec<Sample>, (SimTotals, u64), Vec<Parts>) {
    let mut totals = (SimTotals::default(), 0);
    let mut parts = Vec::new();
    let samples = closed_loop(exact, seconds, |i, samples| {
        let ep = episode(args.derive(i as u64), true, probes);
        if i < exact {
            totals.0.fold(&ep.stats);
            totals.1 += ep.violations;
        }
        parts.push(ep.parts);
        samples.push(Sample {
            ns: ep.ns,
            cycles: EPISODE_CYCLES,
            failed: ep.failed(),
        });
    });
    (samples, totals, parts)
}

fn report_totals(out: &mut Outcome, (totals, violations): &(SimTotals, u64)) {
    out.check("zero invariant violations", *violations == 0);
    totals.report_exact(out);
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    // Set-up is a warm-up episode: nothing is built ahead of the timed
    // region, because construction belongs inside it.
    let first = args.derive(0);
    let mut setup_ns = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..3 {
        let ep = episode(first, true, None);
        setup_ns.push(ep.ns);
        warm.push(fold_stats(FNV_OFFSET, &ep.stats));
    }
    out.check("first episode repeats", warm.iter().all(|&f| f == warm[0]));
    let unsplit = episode(first, false, None);
    out.check(
        "split == unsplit",
        fold_stats(FNV_OFFSET, &unsplit.stats) == warm[0],
    );

    let (samples, totals, _) = run_episodes(args, EXACT_EPISODES, args.seconds, None);
    report_totals(&mut out, &totals);
    out.summarize(&samples, &setup_ns);
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(&args.workload);
    let bias_ns = timer_bias_ns();

    let (_, (reference, ref_totals, _)) = tracer.span("episodes.reference", || {
        run_episodes(args, TRACED_EPISODES, 0.0, None)
    });
    let probes = Probes::default();
    let id = tracer.begin("episodes.traced");
    let (traced, totals, parts) = run_episodes(args, TRACED_EPISODES, 0.0, Some(&probes));
    out.check("traced == untraced", totals == ref_totals);
    report_totals(&mut out, &totals);
    Attribution {
        reference: &reference,
        traced: &traced,
        totals: &totals.0,
        arbiter: &probes.arbiter,
        nn: false,
        other_layers_ns: probes.controller.net_ns(bias_ns),
        bias_ns,
    }
    .report(&mut out, &mut tracer);
    tracer.add_timer(
        "rl_arb::RlVcController::reallocate",
        &probes.controller,
        bias_ns,
    );
    tracer.end(id);
    out.set(
        "rl_arb.vcctl_reallocate_ns",
        probes.controller.ns_per_call(bias_ns),
    );

    // The parts of an episode that are not stepping, one sample per episode.
    let med = |f: fn(&Parts) -> u64| median(&parts.iter().map(|p| f(p) as f64).collect::<Vec<_>>());
    out.set("noc_sim.fault_plan_generate_us", med(|p| p.plan_ns) / 1e3);
    out.set("noc_sim.checkpoint_ms", med(|p| p.checkpoint_ns) / 1e6);
    out.set("noc_sim.checkpoint_parse_ms", med(|p| p.parse_ns) / 1e6);
    out.set("noc_sim.restore_ms", med(|p| p.restore_ns) / 1e6);
    out.set(
        "noc_sim.checkpoint_kb",
        med(|p| p.checkpoint_bytes as u64) / 1024.0,
    );
    for (name, f) in [
        ("plan", (|p| p.plan_ns) as fn(&Parts) -> u64),
        ("new", |p| p.new_ns),
        ("checkpoint", |p| p.checkpoint_ns),
        ("parse", |p| p.parse_ns),
        ("restore", |p| p.restore_ns),
    ] {
        tracer.add_count(&format!("episode.{name}_ns"), parts.iter().map(f).sum());
    }

    tracer.span("hook_cost", || hook_costs(&mut out, args.derive(0)));

    crate::write_trace(&tracer);
    out
}

/// `noc_sim.hook_cost.*`: cycles/s with no hook ÷ cycles/s with that hook,
/// at this workload's point.
fn hook_costs(out: &mut Outcome, seed: u64) {
    let topo = Topology::uniform_mesh(8, 8).expect("valid mesh");
    let plan = FaultPlan::generate(seed, FAULT_INTENSITY, &topo, HOOK_CYCLES);
    let point = |faults: bool, checker: bool, vcctl: bool| {
        let arbiter = make_arbiter(PolicyKind::GlobalAge, seed);
        let mut sim = synthetic_sim(
            topo.clone(),
            SimConfig::synthetic(8, 8),
            arbiter,
            RATE,
            seed,
        );
        if faults {
            sim.set_fault_plan(&plan);
        }
        if checker {
            sim.enable_invariant_checker();
        }
        if vcctl {
            sim.set_buffer_controller(Box::new(RlVcController::paper_default(seed)));
        }
        cycles_per_s(sim, HOOK_CYCLES)
    };
    let bare = point(false, false, false);
    out.set("noc_sim.hook_cost.faults", bare / point(true, false, false));
    out.set(
        "noc_sim.hook_cost.checker",
        bare / point(false, true, false),
    );
    out.set("noc_sim.hook_cost.vcctl", bare / point(false, false, true));
    out.set("noc_sim.hook_cost.all", bare / point(true, true, true));
}

//! `apu-nn`: the nine APU models, four copies each, through `run_apu`
//! (closed-loop MSHR-limited engine, 7 vnets, 6-port routers) under a
//! frozen 504→42→42 NN policy.

use std::rc::Rc;

use apu_sim::{
    make_apu_sim, run_apu, ApuEngine, ApuTopology, EngineConfig, WorkloadSpec, APU_MESH,
    NUM_QUADRANTS,
};
use apu_workloads::Benchmark;
use nn_mlp::Mlp;
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{Arbiter, FeatureBounds, SimConfig, SimStats, Simulator};
use rl_arb::{FeatureSet, NnPolicyArbiter, StateEncoder};

use super::mesh::POLICY_SEED;
use crate::kernels;
use crate::layers::{Attribution, SimTotals};
use crate::run::{closed_loop, Outcome, RunArgs, Sample};
use crate::stats::{fold_stats, ns_per_call, timed, FNV_OFFSET};
use crate::trace::{
    timer_bias_ns, ArbProbe, Fixture, RecordingArbiter, TimedArbiter, TimedTraffic, Tracer,
    TrafficProbe,
};

/// Operation counts relative to the full-size models: a quarter keeps a
/// sweep of the nine models near 1.2 s, so a ten-second run makes eight and
/// averages over as many engine seeds.
const SCALE: f64 = 0.25;
const MAX_CYCLES: u64 = 4_000_000;
/// Sweeps whose results feed the exact check values.
const EXACT_SWEEPS: usize = 4;
/// Seeds of the classical side point.
const CLASSICAL_SEEDS: u64 = 10;

/// The frozen APU-scale policy (untrained weights, see [`POLICY_SEED`]).
fn nn_policy() -> NnPolicyArbiter {
    let encoder = StateEncoder::new(
        6,
        SimConfig::apu(APU_MESH, APU_MESH).num_vnets,
        FeatureSet::full(),
        FeatureBounds::for_mesh(APU_MESH, APU_MESH),
    );
    let net = Mlp::paper_agent(encoder.state_width(), 42, encoder.num_slots(), POLICY_SEED);
    NnPolicyArbiter::new(net, encoder)
}

fn specs(model: Benchmark) -> Vec<WorkloadSpec> {
    vec![model.spec_scaled(SCALE); NUM_QUADRANTS]
}

struct ApuRun {
    ns: u64,
    stats: SimStats,
    avg_exec: f64,
    completed: bool,
}

/// One model through the public one-call harness.
fn run_plain(model: Benchmark, arbiter: Box<dyn Arbiter>, seed: u64) -> ApuRun {
    let (ns, r) = timed(|| {
        run_apu(
            specs(model),
            arbiter,
            EngineConfig::default(),
            seed,
            MAX_CYCLES,
        )
    });
    ApuRun {
        ns,
        stats: r.stats,
        avg_exec: r.avg_exec,
        completed: r.completed,
    }
}

/// The same run assembled from the public parts, so that the engine and
/// the policy can be wrapped.
fn run_wrapped(
    model: Benchmark,
    policy: &NnPolicyArbiter,
    seed: u64,
    arb: &Rc<ArbProbe>,
    traffic: &Rc<TrafficProbe>,
) -> ApuRun {
    let (ns, (sim, completed)) = timed(|| {
        let apu = ApuTopology::build();
        let topo = apu.clone_topology();
        let engine = ApuEngine::new(apu, specs(model), EngineConfig::default(), seed);
        let mut sim = Simulator::new(
            topo,
            SimConfig::apu(APU_MESH, APU_MESH),
            Box::new(TimedArbiter::new(Box::new(policy.clone()), arb.clone())),
            TimedTraffic::new(engine, traffic.clone()),
        )
        .expect("static APU configuration is valid");
        let completed = sim.run_until_done(MAX_CYCLES);
        (sim, completed)
    });
    ApuRun {
        ns,
        stats: sim.stats().clone(),
        avg_exec: sim.traffic().inner.avg_execution_time(MAX_CYCLES),
        completed,
    }
}

/// Totals over the exact prefix of a run of sweeps.
#[derive(Debug, Default, PartialEq)]
struct Totals {
    sim: SimTotals,
    runs: u64,
    completed: u64,
    exec_sum: f64,
}

/// Sweeps of the nine models on consecutive derived seeds. The time box
/// is checked between sweeps, never inside one: the models run at 4k to
/// 16k cycles/s, so a partial sweep would change the mix being measured.
fn run_sweeps(
    args: &RunArgs,
    exact: usize,
    seconds: f64,
    mut run: impl FnMut(Benchmark, u64) -> ApuRun,
) -> (Vec<Sample>, Totals) {
    let mut totals = Totals::default();
    let samples = closed_loop(exact, seconds, |i, samples| {
        for model in Benchmark::ALL {
            let r = run(model, args.derive(i as u64));
            if i < exact {
                totals.sim.fold(&r.stats);
                totals.runs += 1;
                totals.completed += u64::from(r.completed);
                totals.exec_sum += r.avg_exec;
            }
            samples.push(Sample {
                ns: r.ns,
                cycles: r.stats.cycles,
                failed: !r.completed,
            });
        }
    });
    (samples, totals)
}

fn report_totals(out: &mut Outcome, t: &Totals) {
    out.check("all runs complete", t.completed == t.runs);
    t.sim.report_exact(out);
    out.exact(
        "apu_exec_cycles",
        format!("{:?}", t.exec_sum / t.runs as f64),
    );
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let seed = args.derive(0);

    // Set-up: build the policy and warm up on the quickest model.
    let mut setup_ns = Vec::new();
    let mut warm = Vec::new();
    let mut policy = None;
    for _ in 0..3 {
        let (ns, (p, r)) = timed(|| {
            let p = nn_policy();
            let r = run_plain(Benchmark::Histogram, Box::new(p.clone()), seed);
            (p, r)
        });
        setup_ns.push(ns);
        warm.push(fold_stats(FNV_OFFSET, &r.stats));
        policy = Some(p);
    }
    let policy = policy.expect("set-up ran");
    out.check("first run repeats", warm.iter().all(|&f| f == warm[0]));

    let (samples, totals) = run_sweeps(args, EXACT_SWEEPS, args.seconds, |model, seed| {
        run_plain(model, Box::new(policy.clone()), seed)
    });
    report_totals(&mut out, &totals);
    out.summarize(&samples, &setup_ns);
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(&args.workload);
    let bias_ns = timer_bias_ns();
    let seed = args.derive(0);
    let policy = nn_policy();

    // One sweep through `run_apu`, a span around each call, then the same
    // sweep wrapped, where the wrappers' timers take the spans' place.
    let id = tracer.begin("sweep.reference");
    let (reference, ref_totals) = run_sweeps(args, 1, 0.0, |model, seed| {
        let name = format!("apu_sim::run_apu.{}", model.name());
        tracer
            .span(&name, || run_plain(model, Box::new(policy.clone()), seed))
            .1
    });
    tracer.end(id);
    let (arb, engine) = (
        Rc::new(ArbProbe::default()),
        Rc::new(TrafficProbe::default()),
    );
    let id = tracer.begin("sweep.traced");
    let (traced, totals) = run_sweeps(args, 1, 0.0, |model, seed| {
        run_wrapped(model, &policy, seed, &arb, &engine)
    });
    out.check("traced == untraced", totals == ref_totals);
    report_totals(&mut out, &totals);
    let engine_ns = engine.pull.net_ns(bias_ns) + engine.on_delivered.net_ns(bias_ns);
    let attribution = Attribution {
        reference: &reference,
        traced: &traced,
        totals: &totals.sim,
        arbiter: &arb,
        nn: true,
        other_layers_ns: engine_ns,
        bias_ns,
    };
    attribution.report(&mut out, &mut tracer);
    tracer.add_timer("apu_sim::pull_into", &engine.pull, bias_ns);
    tracer.add_timer("apu_sim::on_delivered", &engine.on_delivered, bias_ns);
    tracer.end(id);
    out.set(
        "apu_sim.engine_share",
        engine_ns / attribution.reference_ns(),
    );
    out.set(
        "apu_sim.pull_ns_per_cycle",
        engine.pull.ns_per_call(bias_ns),
    );
    out.set(
        "apu_sim.on_delivered_ns",
        engine.on_delivered.ns_per_call(bias_ns),
    );
    out.set(
        "apu_sim.completed_share",
        totals.completed as f64 / totals.runs as f64,
    );
    out.set("apu_sim.exec_cycles", totals.exec_sum / totals.runs as f64);

    let id = tracer.begin("kernels+side_points");
    let make_ns = ns_per_call(|| {
        let arbiter = make_arbiter(PolicyKind::RlApu, seed);
        std::hint::black_box(make_apu_sim(
            specs(Benchmark::Bfs),
            arbiter,
            EngineConfig::default(),
            seed,
        ));
    });
    out.set("apu_sim.make_sim_us", make_ns / 1e3);

    // The engine's own speed shows only when arbitration is cheap.
    let (mut classical_cycles, mut classical_ns) = (0, 0);
    for s in 0..CLASSICAL_SEEDS {
        for model in Benchmark::ALL {
            let r = run_plain(model, make_arbiter(PolicyKind::RlApu, seed), args.derive(s));
            classical_cycles += r.stats.cycles;
            classical_ns += r.ns;
        }
    }
    out.set(
        "apu_sim.cycles_per_s.classical",
        classical_cycles as f64 / (classical_ns as f64 / 1e9),
    );

    // Encode / forward / train kernels at the 504-wide shape, on candidate
    // sets recorded from a live APU run.
    let sink = Fixture::default();
    let recorder = RecordingArbiter::new(Box::new(policy.clone()), sink.clone());
    run_plain(Benchmark::Bfs, Box::new(recorder), seed);
    let fixture = sink.take();
    assert!(
        fixture.len() >= 64,
        "the APU run recorded only {} candidate sets",
        fixture.len()
    );
    kernels::policy_kernels(&mut out, "504", &policy, &fixture);
    tracer.end(id);

    crate::write_trace(&tracer);
    out
}

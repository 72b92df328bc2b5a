//! `mesh8-classical` and `mesh8-nn`: the Fig. 5 8×8 operating point
//! (XY routing, open-loop uniform-random traffic at 0.20) under global-age
//! and under a frozen NN policy, in slices on one simulator.

use std::rc::Rc;

use nn_mlp::Mlp;
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{
    Arbiter, FeatureBounds, RoutingKind, SimConfig, Simulator, SyntheticTraffic, Topology,
};
use rl_arb::{FeatureSet, InferenceMode, NnPolicyArbiter, StateEncoder};

use crate::kernels;
use crate::layers::{cycles_per_s, synthetic_sim, Attribution, SimTotals, WARMUP_CYCLES};
use crate::run::{closed_loop, Outcome, RunArgs, Sample};
use crate::stats::{fold_stats, median, ns_per_call, percentile, timed, FNV_OFFSET};
use crate::trace::{timer_bias_ns, ArbProbe, TimedArbiter, Tracer};

const RATE: f64 = 0.20;
/// Slices whose statistics feed the exact check values.
const EXACT_SLICES: usize = 60;
/// Slices of each half (reference, wrapped) of a traced run.
const TRACED_SLICES: usize = 30;
/// Cycles of the scalar-vs-batched equivalence check and of each side point.
const SIDE_CYCLES: u64 = 30_000;

/// Cycles per slice: about 67 ms of host time on either workload, so a
/// ten-second run yields some 150 samples.
fn slice_cycles(nn: bool) -> u64 {
    if nn {
        1_500
    } else {
        4_000
    }
}

/// Weight seed of the frozen policies. A frozen policy is part of the
/// program under test, not an input: with weights drawn from `--seed` an
/// untrained network arbitrates differently on every seed, and `apu-nn`'s
/// cycles/s then spreads by 6.4 % across seeds, more than its bound.
pub const POLICY_SEED: u64 = 0x5EED;

/// The frozen 60→15→15 policy with untrained weights (speed depends on the
/// network's shape and datapath, not on its values), on the default
/// batched datapath with the deployment ε.
pub fn nn_policy() -> NnPolicyArbiter {
    let cfg = SimConfig::synthetic(8, 8);
    let encoder = StateEncoder::new(
        5,
        cfg.num_vnets,
        FeatureSet::synthetic(),
        FeatureBounds::for_mesh(8, 8),
    );
    let net = Mlp::paper_agent(encoder.state_width(), 15, encoder.num_slots(), POLICY_SEED);
    NnPolicyArbiter::new(net, encoder)
}

fn arbiter(nn: bool, seed: u64) -> Box<dyn Arbiter> {
    if nn {
        Box::new(nn_policy())
    } else {
        make_arbiter(PolicyKind::GlobalAge, seed)
    }
}

/// The workload's fabric, warmed up into steady state.
fn warm_sim(arbiter: Box<dyn Arbiter>, seed: u64) -> Simulator<SyntheticTraffic> {
    let topo = Topology::uniform_mesh(8, 8).expect("valid mesh");
    let mut sim = synthetic_sim(topo, SimConfig::synthetic(8, 8), arbiter, RATE, seed);
    sim.run(WARMUP_CYCLES);
    sim
}

/// Runs slices of `cycles` on `sim`: `exact` of them at least, then until
/// `seconds` have passed. Statistics are reset at each slice start, which
/// keeps memory flat (`SimStats::latencies` grows by one entry per
/// message), and only `sim.run` is inside the timed region.
fn run_slices(
    sim: &mut Simulator<SyntheticTraffic>,
    cycles: u64,
    exact: usize,
    seconds: f64,
) -> (Vec<Sample>, SimTotals) {
    let mut totals = SimTotals::default();
    let samples = closed_loop(exact, seconds, |i, samples| {
        sim.reset_stats();
        let (ns, ()) = timed(|| sim.run(cycles));
        let stats = sim.stats();
        if i < exact {
            totals.fold(stats);
        }
        let failed = stats.delivered == 0;
        samples.push(Sample { ns, cycles, failed });
    });
    (samples, totals)
}

pub fn run(args: &RunArgs, nn: bool) -> Outcome {
    if args.trace {
        return run_traced(args, nn);
    }
    let mut out = Outcome::default();
    let (seed, cycles) = (args.derive(0), slice_cycles(nn));

    let mut setup_ns = Vec::new();
    let mut sims = Vec::new();
    for _ in 0..5 {
        let (ns, sim) = timed(|| warm_sim(arbiter(nn, seed), seed));
        setup_ns.push(ns);
        sims.push(sim);
    }

    let mut first = sims
        .drain(..2)
        .map(|mut sim| run_slices(&mut sim, cycles, 1, 0.0).1);
    out.check("first slice repeats", first.next() == first.next());
    drop(first);
    if nn {
        let mut scalar = warm_sim(Box::new(nn_policy().with_batched(false)), seed);
        let mut batched = sims.pop().expect("a spare simulator");
        scalar.run(SIDE_CYCLES / 5);
        batched.run(SIDE_CYCLES / 5);
        out.check(
            "f32 scalar == f32 batched",
            fold_stats(FNV_OFFSET, scalar.stats()) == fold_stats(FNV_OFFSET, batched.stats()),
        );
    }

    let mut sim = sims.pop().expect("a spare simulator");
    let (samples, totals) = run_slices(&mut sim, cycles, EXACT_SLICES, args.seconds);
    totals.report_exact(&mut out);
    out.summarize(&samples, &setup_ns);
    out
}

fn run_traced(args: &RunArgs, nn: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(&args.workload);
    let (seed, cycles) = (args.derive(0), slice_cycles(nn));
    let bias_ns = timer_bias_ns();

    // The same slices twice: bare for the reference wall time, then with
    // the policy wrapped.
    let (_, mut sim) = tracer.span("noc_sim::Simulator::new+warmup", || {
        warm_sim(arbiter(nn, seed), seed)
    });
    let (_, (reference, ref_totals)) = tracer.span("slices.reference", || {
        run_slices(&mut sim, cycles, TRACED_SLICES, 0.0)
    });
    let probe = Rc::new(ArbProbe::default());
    let wrapped = Box::new(TimedArbiter::new(arbiter(nn, seed), probe.clone()));
    let mut sim = warm_sim(wrapped, seed);
    let id = tracer.begin("slices.traced");
    let (traced, totals) = run_slices(&mut sim, cycles, TRACED_SLICES, 0.0);
    out.check("traced == untraced", totals == ref_totals);
    totals.report_exact(&mut out);
    Attribution {
        reference: &reference,
        traced: &traced,
        totals: &totals,
        arbiter: &probe,
        nn,
        other_layers_ns: 0.0,
        bias_ns,
    }
    .report(&mut out, &mut tracer);
    tracer.end(id);
    let ms: Vec<f64> = reference.iter().map(|s| s.ns as f64 / 1e6).collect();
    out.set("noc_sim.slice_ms_p50", median(&ms));
    out.set("noc_sim.slice_ms_p90", percentile(&ms, 90.0));

    let id = tracer.begin("kernels+side_points");
    if nn {
        nn_side(&mut out, seed);
    } else {
        classical_side(&mut out, seed);
    }
    tracer.end(id);
    crate::write_trace(&tracer);
    out
}

/// What `mesh8-classical` owns beyond the live run: construction cost,
/// the scan-bound / contention-bound / general-routing side points, and
/// the five classical `select` kernels on a recorded fixture.
fn classical_side(out: &mut Outcome, seed: u64) {
    for width in [4u16, 8] {
        let topo = Topology::uniform_mesh(width, width).expect("valid mesh");
        let cfg = SimConfig::synthetic(width, width);
        let ns = ns_per_call(|| {
            let sim = synthetic_sim(
                topo.clone(),
                cfg.clone(),
                make_arbiter(PolicyKind::GlobalAge, seed),
                RATE,
                seed,
            );
            std::hint::black_box(sim);
        });
        out.set(&format!("noc_sim.new_us.{width}x{width}"), ns / 1e3);
    }

    let ga = || make_arbiter(PolicyKind::GlobalAge, seed);
    let mesh = || Topology::uniform_mesh(8, 8).expect("valid mesh");
    let xy = SimConfig::synthetic(8, 8);
    let table = SimConfig {
        routing: RoutingKind::TableShortest,
        ..xy.clone()
    };
    let torus_dor = SimConfig {
        routing: RoutingKind::TorusDimOrder,
        ..xy.clone()
    };
    let torus = Topology::uniform_torus(8, 8).expect("valid torus");
    for (name, sim) in [
        (
            "load005",
            synthetic_sim(mesh(), xy.clone(), ga(), 0.05, seed),
        ),
        (
            "load024",
            synthetic_sim(mesh(), xy.clone(), ga(), 0.24, seed),
        ),
        (
            "table_routing",
            synthetic_sim(mesh(), table, ga(), 0.15, seed),
        ),
        (
            "torus_dor",
            synthetic_sim(torus, torus_dor, ga(), 0.15, seed),
        ),
    ] {
        out.set(
            &format!("noc_sim.cycles_per_s.{name}"),
            cycles_per_s(sim, SIDE_CYCLES),
        );
    }

    let fixture = kernels::record_mesh_fixture(8, RATE, seed);
    kernels::classical_select_kernels(out, &fixture, seed);
}

/// What `mesh8-nn` owns beyond the live run: the other two datapaths at
/// the same point, and the encode / forward / train kernels at the 60-wide
/// shape on a recorded fixture.
fn nn_side(out: &mut Outcome, seed: u64) {
    for (name, policy) in [
        ("f32_scalar", nn_policy().with_batched(false)),
        ("int8", nn_policy().with_inference(InferenceMode::Int8)),
    ] {
        let topo = Topology::uniform_mesh(8, 8).expect("valid mesh");
        let sim = synthetic_sim(
            topo,
            SimConfig::synthetic(8, 8),
            Box::new(policy),
            RATE,
            seed,
        );
        out.set(
            &format!("rl_arb.cycles_per_s.{name}"),
            cycles_per_s(sim, SIDE_CYCLES / 5),
        );
    }
    let fixture = kernels::record_mesh_fixture(8, RATE, seed);
    kernels::policy_kernels(out, "60", &nn_policy(), &fixture);
}

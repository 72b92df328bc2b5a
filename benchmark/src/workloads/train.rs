//! `train-synth4`: the Fig. 5 training recipe through `Trainer::run`, and
//! then, untimed, the frozen network against global-age.

use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{Arbiter, SimConfig, Topology};
use rl_arb::{
    training_epochs, DqnAgent, Experience, ReplayMemory, SyntheticEnv, TrainEnv, TrainOutcome,
    TrainSpec, Trainer,
};

use crate::kernels;
use crate::layers::synthetic_sim;
use crate::run::{Outcome, RunArgs, Sample};
use crate::stats::{fnv1a64, median, ns_per_call, percentile, timed, FNV_OFFSET};
use crate::trace::{Recorded, TimedEnv, Tracer};

const WIDTH: u16 = 4;
const RATE: f64 = 0.4;
/// Epochs per second of budget: the full recipe (30 curriculum + 60
/// epochs of 2,000 cycles) takes about 16 s on the reference host.
const EPOCHS_PER_SECOND: f64 = 5.4;
const EVAL_WARMUP: u64 = 3_000;
const EVAL_CYCLES: u64 = 20_000;

/// `TrainSpec::tuned_synthetic(4, 0.4, seed)` with its schedule — a third
/// curriculum, two thirds main phase — scaled to the budget. One
/// `Trainer::run` call cannot be stopped from outside, so this workload's
/// work is fixed by `--seconds` instead of boxed by it.
fn recipe(seed: u64, seconds: f64) -> TrainSpec {
    let total = ((EPOCHS_PER_SECOND * seconds).round() as usize).max(6);
    let mut spec = TrainSpec::tuned_synthetic(WIDTH, RATE, seed);
    let curriculum = total / 3;
    spec.curriculum[0].1 = curriculum;
    spec.epochs = total - curriculum;
    spec
}

/// A two-epoch miniature of the recipe for warm-up and the repeat checks.
fn miniature(seed: u64) -> TrainSpec {
    let mut spec = TrainSpec::tuned_synthetic(WIDTH, RATE, seed);
    spec.curriculum[0].1 = 1;
    spec.epochs = 1;
    spec.cycles_per_epoch = 1_000;
    spec
}

fn curve_fnv(outcome: &TrainOutcome) -> u64 {
    outcome
        .curve
        .iter()
        .chain(&outcome.accuracy)
        .fold(FNV_OFFSET, |h, v| fnv1a64(h, &v.to_bits().to_le_bytes()))
}

/// Mean message latency of `arbiter` on the evaluation point.
fn eval_latency(arbiter: Box<dyn Arbiter>, cfg: SimConfig, seed: u64) -> f64 {
    let topo = Topology::uniform_mesh(WIDTH, WIDTH).expect("valid mesh");
    let mut sim = synthetic_sim(topo, cfg, arbiter, RATE, seed);
    sim.run(EVAL_WARMUP);
    sim.reset_stats();
    sim.run(EVAL_CYCLES);
    sim.stats().avg_latency()
}

/// Everything the timed training and the untimed evaluation produce.
struct Trained {
    spec: TrainSpec,
    samples: Vec<Sample>,
    setup_ns: Vec<u64>,
    outcome: TrainOutcome,
    oracle_agreement: f64,
    nn_latency: f64,
    ga_latency: f64,
    /// Host time of a bare and of a wrapped miniature run.
    mini_ns: (f64, f64),
}

fn train(args: &RunArgs, out: &mut Outcome, tracer: &mut Tracer) -> Trained {
    let seed = args.derive(0);
    // Set-up doubles as the repeat checks: the miniature twice bare and
    // once through the timing wrapper must give the same curve.
    let mini = miniature(seed);
    let mut setup_ns = Vec::new();
    let mut curves = Vec::new();
    for wrapped in [false, false, true] {
        let (ns, outcome) = timed(|| {
            let trainer = Trainer::new(mini.agent.clone());
            if wrapped {
                trainer.run(&mut TimedEnv::new(SyntheticEnv::new(&mini)))
            } else {
                trainer.run(&mut SyntheticEnv::new(&mini))
            }
        });
        setup_ns.push(ns);
        curves.push(curve_fnv(&outcome));
    }
    out.check("miniature run repeats", curves[0] == curves[1]);
    out.check("traced == untraced", curves[0] == curves[2]);
    let mini_ns = (
        median(&[setup_ns[0] as f64, setup_ns[1] as f64]),
        setup_ns[2] as f64,
    );

    let spec = recipe(seed, args.seconds);
    let mut env = TimedEnv::new(SyntheticEnv::new(&spec));
    let epochs = env.num_epochs();
    let before = training_epochs();
    let (_, outcome) = tracer.span("rl_arb::Trainer::run", || {
        Trainer::new(spec.agent.clone()).run(&mut env)
    });
    out.check(
        "training_epochs advanced by the schedule",
        training_epochs() - before == epochs as u64,
    );
    let samples: Vec<Sample> = env
        .epoch_ns
        .iter()
        .zip(&env.latencies)
        .map(|(&ns, l)| Sample {
            ns,
            cycles: spec.cycles_per_epoch,
            failed: !l.is_finite(),
        })
        .collect();

    let tail = &outcome.accuracy[outcome.accuracy.len() - outcome.accuracy.len() / 4..];
    let oracle_agreement = tail.iter().sum::<f64>() / tail.len() as f64;
    // The frozen network against the oracle it imitates, on the fabric it
    // trained on (the recipe widens the local-age cap).
    let mut cfg = SimConfig::synthetic(WIDTH, WIDTH);
    cfg.feature_bounds = spec.feature_bounds.expect("the tuned recipe sets bounds");
    let eval_seed = args.derive(1);
    let (_, (nn_latency, ga_latency)) = tracer.span("evaluate", || {
        (
            eval_latency(Box::new(outcome.agent.freeze()), cfg.clone(), eval_seed),
            eval_latency(
                make_arbiter(PolicyKind::GlobalAge, eval_seed),
                cfg.clone(),
                eval_seed,
            ),
        )
    });
    out.exact("curve_fnv", format!("{:016x}", curve_fnv(&outcome)));
    out.exact("rl_arb.decisions", outcome.agent.decisions());
    out.exact("oracle_agreement", format!("{oracle_agreement:?}"));
    out.exact(
        "rl_arb.nn_latency_ratio",
        format!("{:?}", nn_latency / ga_latency),
    );
    out.exact("rl_arb.final_latency_cycles", format!("{nn_latency:?}"));
    Trained {
        spec,
        samples,
        setup_ns,
        outcome,
        oracle_agreement,
        nn_latency,
        ga_latency,
        mini_ns,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(&args.workload);
    let t = train(args, &mut out, &mut tracer);
    if !args.trace {
        out.summarize(&t.samples, &t.setup_ns);
        return out;
    }

    // The epoch stopwatch is part of the untraced workload too, so the
    // traced run is the same training plus the unit costs below.
    out.attempted = t.samples.len() as u64;
    out.failed = t.samples.iter().filter(|s| s.failed).count() as u64;
    out.set("trace.overhead", 1.0 - t.mini_ns.0 / t.mini_ns.1);
    let ms: Vec<f64> = t.samples.iter().map(|s| s.ns as f64 / 1e6).collect();
    out.set("rl_arb.epoch_ms_p50", median(&ms));
    out.set("rl_arb.epoch_ms_p85", percentile(&ms, 85.0));
    let decisions = t.outcome.agent.decisions();
    out.set("rl_arb.decisions", decisions as f64);
    out.set("rl_arb.oracle_agreement", t.oracle_agreement);
    out.set("rl_arb.nn_latency_ratio", t.nn_latency / t.ga_latency);
    out.set("rl_arb.final_latency_cycles", t.nn_latency);

    let id = tracer.begin("kernels");
    let fixture = kernels::record_mesh_fixture(WIDTH, RATE, args.derive(0));
    let (decide_ns, tick_ns) = agent_kernels(&t.spec, &fixture);
    out.set("rl_arb.decide_ns", decide_ns);
    out.set("rl_arb.train_tick_ns", tick_ns);
    out.set(
        "rl_arb.replay_sample_ns",
        replay_sample_ns(&t.spec, &t.outcome, &fixture),
    );
    // One train tick per simulated cycle, one decide per arbitration.
    let cycles: u64 = t.samples.iter().map(|s| s.cycles).sum();
    let wall_ns: u64 = t.samples.iter().map(|s| s.ns).sum();
    let learn_ns = decisions as f64 * decide_ns + cycles as f64 * tick_ns;
    out.set("rl_arb.learn_share_est", learn_ns / wall_ns as f64);
    tracer.end(id);
    crate::write_trace(&tracer);
    out
}

/// Unit costs of the two calls the training arbiter makes: `decide` per
/// arbitration and `train_tick` per cycle, on a fresh agent of the
/// recipe's configuration fed from the recorded candidate sets.
fn agent_kernels(spec: &TrainSpec, fixture: &[Recorded]) -> (f64, f64) {
    let mut agent = DqnAgent::new(SyntheticEnv::new(spec).encoder(), spec.agent.clone());
    let mut i = 0;
    let decide_ns = ns_per_call(|| {
        std::hint::black_box(agent.decide(&std::hint::black_box(&fixture[i]).output_ctx()));
        i = (i + 1) % fixture.len();
    });
    assert!(agent.replay_len() > 0, "decide() fills the replay memory");
    let tick_ns = ns_per_call(|| agent.train_tick());
    (decide_ns, tick_ns)
}

/// Nanoseconds to draw one training batch from a full replay memory.
fn replay_sample_ns(spec: &TrainSpec, outcome: &TrainOutcome, fixture: &[Recorded]) -> f64 {
    let encoder = outcome.agent.encoder();
    let mut memory = ReplayMemory::new(spec.agent.replay_capacity, spec.agent.seed);
    for pair in fixture.windows(2).cycle().take(spec.agent.replay_capacity) {
        memory.push(Experience {
            state: encoder.encode(&pair[0].output_ctx()),
            action: pair[0].output.1[0].slot,
            next_state: encoder.encode(&pair[1].output_ctx()),
            next_valid_slots: pair[1].output.1.iter().map(|c| c.slot as u16).collect(),
            reward: 1.0,
        });
    }
    ns_per_call(|| {
        std::hint::black_box(memory.sample(spec.agent.batch_size));
    })
}

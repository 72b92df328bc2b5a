//! `repro conformance` — the randomized invariant-checker conformance
//! harness over both simulators.
//!
//! The figure draws seeded random scenarios — topology (mesh, torus,
//! ring, degraded mesh) × size × traffic pattern × routing × every
//! [`PolicyKind`] × fault intensity — runs each with the
//! runtime invariant checker enabled ([`noc_sim::InvariantChecker`] on the
//! synthetic mesh, plus the protocol-level engine checker on the APU
//! chip), and reports any violation. A healthy tree reports zero: the
//! simulators conserve messages and credits under every arbitration
//! policy, any routing function, and arbitrary generated fault plans.
//!
//! When a case *does* fail, the harness does not stop at "seed 0xDEAD
//! broke": [`minimize`] greedily shrinks the failing case — fewer cycles,
//! smaller mesh, lower rate, lower fault intensity, plainer pattern and
//! routing — re-running the checker at every step, and reports the
//! smallest case that still reproduces the violation. That minimal case
//! (a handful of scalar fields) is the bug report.
//!
//! Everything is a pure function of the base `--seed`: case derivation
//! uses [`SplitMix64`] streams keyed by `(seed, policy, intensity,
//! trial)`, so a reported reproducer is replayable on any machine.

use apu_sim::{run_apu_checked, EngineConfig, NUM_QUADRANTS};
use apu_workloads::Benchmark;
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{
    FaultPlan, FeatureBounds, Pattern, RoutingKind, SimConfig, Simulator, SplitMix64,
    SyntheticTraffic,
};

use super::backend::CellRecord;
use super::figures::CustomOutput;
use super::spec::TopoSpec;
use crate::{render_table, sweep, CliArgs};

/// One fully determined conformance scenario — every field a plain
/// scalar, so a failing case prints as a complete reproducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConformanceCase {
    /// Mesh width.
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// Synthetic traffic pattern.
    pub pattern: Pattern,
    /// Injection rate (packets/node/cycle).
    pub rate: f64,
    /// Router graph (built at `width × height` scale).
    pub topo: TopoSpec,
    /// Routing function.
    pub routing: RoutingKind,
    /// Arbitration policy under test.
    pub policy: PolicyKind,
    /// Fault-plan intensity (`0.0` = fault-free, no plan installed).
    pub intensity: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Seed feeding traffic, stochastic policies and the fault plan.
    pub seed: u64,
    /// Cycle at which to arm the test-only credit-leak hook (`None` in
    /// every real sweep; set by the self-test that proves the harness
    /// catches and shrinks a seeded bug).
    pub leak_at: Option<u64>,
    /// Replace the arbiter under test with an online-learning DQN policy
    /// ([`rl_arb::OnlinePolicy`], cold-started at this case's seed).
    /// Drawn for a fraction of mesh cases — the checker must hold while
    /// the arbitration policy is *changing under live traffic*.
    pub online: bool,
    /// Attach the learned per-VC buffer controller
    /// ([`rl_arb::RlVcController`]): the occupancy/credit invariants must
    /// hold while credit budgets are being reallocated every epoch.
    pub vc_ctl: bool,
    /// Control epoch of the attached buffer controller (cycles).
    pub ctl_epoch: u64,
    /// Replay-ring capacity of the online policy.
    pub replay_cap: usize,
    /// Cycle at which to arm the test-only misbehaving-controller hook
    /// (`None` in every real sweep; the self-test proves the occupancy
    /// invariant catches a controller that corrupts the books).
    pub misbehave_at: Option<u64>,
}

impl ConformanceCase {
    /// Renders the case as a one-line replayable reproducer.
    pub fn reproducer(&self) -> String {
        let mut s = format!(
            "policy={} topo={} mesh={}x{} pattern={:?} rate={:.3} routing={:?} \
             intensity={:.2} cycles={} seed={}",
            self.policy.as_str(),
            self.topo.label(),
            self.width,
            self.height,
            self.pattern,
            self.rate,
            self.routing,
            self.intensity,
            self.cycles,
            self.seed,
        );
        if self.online || self.vc_ctl {
            s.push_str(&format!(
                " online={} vcctl={} ctl_epoch={} replay_cap={}",
                u8::from(self.online),
                u8::from(self.vc_ctl),
                self.ctl_epoch,
                self.replay_cap,
            ));
        }
        s
    }

    /// True when the case's routing function can run on its topology.
    /// Minimization steps may propose incompatible pairs; those are
    /// rejected without being run.
    pub fn is_valid(&self) -> bool {
        self.routing.supports(self.topo.kind())
    }
}

/// Outcome of one checked run.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Total violations the checker recorded (including past the
    /// recording cap).
    pub violations: u64,
    /// Display form of the first recorded violation, if any.
    pub first: Option<String>,
}

/// Derives the fully determined case for one `(policy, intensity, trial)`
/// cell of the sweep. Pure function of its arguments — the printed
/// reproducer from any machine replays anywhere.
pub fn derive_case(
    base_seed: u64,
    policy: PolicyKind,
    policy_idx: usize,
    intensity: f64,
    trial: u64,
    cycles: u64,
) -> ConformanceCase {
    let mut rng = SplitMix64::new(
        base_seed ^ (policy_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ trial.rotate_left(17),
    );
    // Discard one draw so adjacent streams decorrelate fully.
    let _ = rng.next_u64();
    let (width, height) = if rng.chance(0.25) { (8, 8) } else { (4, 4) };
    let pattern = match rng.next_bounded(5) {
        0 => Pattern::Transpose,
        1 => Pattern::BitComplement,
        2 => Pattern::Tornado,
        3 => Pattern::Hotspot {
            node: noc_sim::NodeId(rng.next_bounded(u64::from(width) * u64::from(height)) as usize),
            fraction: 0.2 + rng.next_f64() * 0.3,
        },
        _ => Pattern::UniformRandom,
    };
    let routing = if rng.chance(0.3) {
        RoutingKind::WestFirstAdaptive
    } else {
        RoutingKind::XY
    };
    // Larger meshes saturate at lower per-node rates; keep cases live.
    let max_rate = if width == 8 { 0.25 } else { 0.45 };
    let rate = 0.02 + rng.next_f64() * (max_rate - 0.02);
    let seed = rng.next_u64();
    // Topology draws are appended at the END of the stream so the
    // historical mesh cases keep every field they had per base seed; a
    // quarter of the cases move to a non-mesh graph with a compatible
    // deterministic routing kind.
    let (topo, routing) = if rng.chance(0.25) {
        match rng.next_bounded(3) {
            0 => (
                TopoSpec::Torus,
                if rng.chance(0.5) { RoutingKind::TorusDimOrder } else { RoutingKind::TableShortest },
            ),
            1 => (
                TopoSpec::Ring,
                if rng.chance(0.5) { RoutingKind::RingShortest } else { RoutingKind::TorusDimOrder },
            ),
            _ => (
                TopoSpec::DegradedMesh { seed: seed ^ 0xD06, drop_percent: 20 },
                RoutingKind::TableShortest,
            ),
        }
    } else {
        (TopoSpec::Mesh, routing)
    };
    // Self-healing draws are appended at the END of the stream so every
    // historical case keeps its fields per base seed. ~20% of cases
    // exercise the learned decision points: online-learning arbitration
    // (mesh only — the encoder is sized for the mesh port count) and/or
    // the learned VC buffer controller (topology-agnostic).
    let mut online = false;
    let mut vc_ctl = false;
    let mut ctl_epoch: u64 = 64;
    let mut replay_cap: usize = 256;
    if rng.chance(0.2) {
        match rng.next_bounded(3) {
            0 => online = true,
            1 => vc_ctl = true,
            _ => {
                online = true;
                vc_ctl = true;
            }
        }
        ctl_epoch = 16 << rng.next_bounded(3);
        replay_cap = 64 << rng.next_bounded(3) as usize;
        if !matches!(topo, TopoSpec::Mesh) {
            online = false;
        }
    }
    ConformanceCase {
        width,
        height,
        pattern,
        rate,
        topo,
        routing,
        policy,
        intensity,
        cycles,
        seed,
        leak_at: None,
        online,
        vc_ctl,
        ctl_epoch,
        replay_cap,
        misbehave_at: None,
    }
}

/// Runs one case on the synthetic mesh with the invariant checker
/// enabled and reports what the checker saw.
pub fn run_case(case: &ConformanceCase) -> CaseOutcome {
    let topo = case.topo.build(case.width, case.height).expect("valid topology");
    let mut cfg = SimConfig::synthetic(case.width, case.height);
    cfg.routing = case.routing;
    cfg.feature_bounds = FeatureBounds::for_topology(&topo);
    let arbiter: Box<dyn noc_sim::Arbiter> = if case.online {
        // Cold-started online learner: random initial weights, live
        // training — the harshest policy the checker can face, since
        // every decision distribution drifts as the run progresses.
        let encoder = rl_arb::StateEncoder::new(
            5,
            cfg.num_vnets,
            rl_arb::FeatureSet::synthetic(),
            cfg.feature_bounds,
        );
        let agent_cfg = rl_arb::AgentConfig {
            replay_capacity: case.replay_cap,
            ..rl_arb::AgentConfig::tuned_synthetic(case.seed)
        };
        let net = nn_mlp::Mlp::paper_agent(
            encoder.state_width(),
            agent_cfg.hidden,
            encoder.num_slots(),
            case.seed,
        );
        Box::new(rl_arb::OnlinePolicy::new(net, encoder, agent_cfg))
    } else {
        make_arbiter(case.policy, case.seed)
    };
    let traffic = SyntheticTraffic::new(&topo, case.pattern, case.rate, cfg.num_vnets, case.seed);
    let mut sim = Simulator::new(topo, cfg, arbiter, traffic).expect("valid sim");
    if case.vc_ctl {
        sim.set_buffer_controller(Box::new(rl_arb::RlVcController::new(
            case.ctl_epoch.max(1),
            2,
            0.05,
            0.2,
            case.seed ^ 0xBC_0571,
        )));
    }
    sim.enable_invariant_checker();
    if case.intensity > 0.0 {
        let topo = case.topo.build(case.width, case.height).expect("valid topology");
        sim.set_fault_plan(&FaultPlan::generate(
            case.seed ^ 0xFAB7,
            case.intensity,
            &topo,
            case.cycles,
        ));
    }
    if let Some(at) = case.leak_at {
        sim.debug_inject_credit_leak(at);
    }
    if let Some(at) = case.misbehave_at {
        sim.debug_misbehaving_controller(at);
    }
    sim.run(case.cycles);
    CaseOutcome {
        violations: sim.total_invariant_violations(),
        first: sim.invariant_violations().first().map(|v| v.to_string()),
    }
}

/// Greedily shrinks a failing case to a minimal one that still fails:
/// bisect the cycle budget, collapse the mesh to 4×4, halve the rate,
/// lower the fault intensity, plain-ify pattern and routing, and try
/// small seeds — accepting each step only if the checker still reports a
/// violation. Returns the input unchanged if it does not fail at all.
pub fn minimize(case: ConformanceCase) -> ConformanceCase {
    // Invalid routing × topology candidates (a lone routing reset on a
    // ring case, say) are rejected outright instead of being run.
    let fails = |c: &ConformanceCase| c.is_valid() && run_case(c).violations > 0;
    if !fails(&case) {
        return case;
    }
    let mut cur = case;
    // Cycle-budget bisection (the biggest lever on replay time).
    while cur.cycles >= 200 {
        let candidate = ConformanceCase { cycles: cur.cycles / 2, ..cur };
        if fails(&candidate) {
            cur = candidate;
        } else {
            break;
        }
    }
    // Each step derives its candidate from the *current* shrunk case, so
    // accepted shrinks compose instead of overwriting one another.
    let steps: [fn(&ConformanceCase) -> ConformanceCase; 7] = [
        |c| ConformanceCase { width: 4, height: 4, ..*c },
        |c| ConformanceCase { intensity: 0.0, ..*c },
        |c| ConformanceCase { pattern: Pattern::UniformRandom, ..*c },
        // Topology and routing reset together so the candidate stays a
        // valid pair; the lone routing reset then cleans up cases that
        // were already on a mesh/torus.
        |c| ConformanceCase { topo: TopoSpec::Mesh, routing: RoutingKind::XY, ..*c },
        |c| ConformanceCase { routing: RoutingKind::XY, ..*c },
        // Learned components off: a failure that survives these shrinks
        // was never the online learner's (or controller's) doing.
        |c| ConformanceCase { online: false, ..*c },
        |c| ConformanceCase { vc_ctl: false, ..*c },
    ];
    for step in steps {
        let candidate = step(&cur);
        if candidate != cur && fails(&candidate) {
            cur = candidate;
        }
    }
    // Learned-case knobs shrink toward a one-line reproducer: a tighter
    // control epoch replays faster, a smaller replay buffer narrows which
    // experiences could have mattered.
    while cur.vc_ctl && cur.ctl_epoch > 1 {
        let candidate = ConformanceCase { ctl_epoch: cur.ctl_epoch / 2, ..cur };
        if fails(&candidate) {
            cur = candidate;
        } else {
            break;
        }
    }
    while cur.online && cur.replay_cap > 4 {
        let candidate = ConformanceCase { replay_cap: cur.replay_cap / 2, ..cur };
        if fails(&candidate) {
            cur = candidate;
        } else {
            break;
        }
    }
    while cur.rate > 0.04 {
        let candidate = ConformanceCase { rate: cur.rate / 2.0, ..cur };
        if fails(&candidate) {
            cur = candidate;
        } else {
            break;
        }
    }
    for seed in 0..4 {
        if cur.seed == seed {
            break;
        }
        let candidate = ConformanceCase { seed, ..cur };
        if fails(&candidate) {
            cur = candidate;
            break;
        }
    }
    cur
}

/// The fault intensities swept per tier.
fn intensities(quick: bool) -> &'static [f64] {
    if quick {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.25, 0.5, 1.0]
    }
}

/// Checked APU runs: closed-loop protocol traffic under a handful of
/// policies, fault-free and heavily faulted. Returns `(label, outcome)`
/// rows.
fn apu_rows(args: &CliArgs) -> Vec<(String, CaseOutcome)> {
    let scale = if args.quick { 0.02 } else { 0.05 };
    let max_cycles: u64 = if args.quick { 200_000 } else { 400_000 };
    let policies: &[PolicyKind] = if args.quick {
        &[PolicyKind::Fifo, PolicyKind::GlobalAge]
    } else {
        &[
            PolicyKind::Fifo,
            PolicyKind::GlobalAge,
            PolicyKind::Algorithm2,
            PolicyKind::Islip,
        ]
    };
    let jobs: Vec<(usize, PolicyKind)> = policies.iter().copied().enumerate().collect();
    sweep::run_parallel(jobs, args.threads, |(i, policy)| {
        // Alternate fault-free and faulted runs across the line-up.
        let faulted = i % 2 == 1;
        let specs = vec![Benchmark::Bfs.spec_scaled(scale); NUM_QUADRANTS];
        let plan = faulted.then(|| {
            let topo = apu_sim::ApuTopology::build().clone_topology();
            FaultPlan::generate(args.seed ^ 0xA9u64, 1.0, &topo, max_cycles)
        });
        let out = run_apu_checked(
            specs,
            make_arbiter(policy, args.seed),
            EngineConfig::default(),
            args.seed.wrapping_add(i as u64),
            max_cycles,
            plan.as_ref(),
        );
        let label = format!(
            "apu/bfs {} {}",
            policy.as_str(),
            if faulted { "f1.00" } else { "f0.00" }
        );
        let outcome = CaseOutcome {
            violations: out.violations.len() as u64,
            first: out.violations.first().map(|v| v.to_string()),
        };
        (label, outcome)
    })
}

/// Runs the conformance sweep end-to-end: the custom-figure entry point
/// behind `repro conformance [--quick]`.
pub fn run(args: &CliArgs) -> CustomOutput {
    let trials: u64 = if args.quick { 1 } else { 3 };
    let cycles: u64 = if args.quick { 1_500 } else { 4_000 };

    let mut jobs = Vec::new();
    for (pi, policy) in PolicyKind::ALL.into_iter().enumerate() {
        for &intensity in intensities(args.quick) {
            for trial in 0..trials {
                jobs.push(derive_case(args.seed, policy, pi, intensity, trial, cycles));
            }
        }
    }
    let synth_runs = jobs.len();
    let outcomes: Vec<(ConformanceCase, CaseOutcome)> =
        sweep::run_parallel(jobs, args.threads, |case| {
            let outcome = run_case(&case);
            (case, outcome)
        });

    // Aggregate per policy; shrink every failing case to its minimal
    // reproducer.
    let mut reproducers = Vec::new();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for policy in PolicyKind::ALL {
        let mine: Vec<&(ConformanceCase, CaseOutcome)> =
            outcomes.iter().filter(|(c, _)| c.policy == policy).collect();
        let runs = mine.len();
        let violations: u64 = mine.iter().map(|(_, o)| o.violations).sum();
        for (case, outcome) in &mine {
            if outcome.violations > 0 {
                let minimal = minimize(*case);
                reproducers.push(format!(
                    "{} -> {} ({})",
                    case.reproducer(),
                    minimal.reproducer(),
                    outcome.first.as_deref().unwrap_or("violation recorded past cap"),
                ));
            }
        }
        let status = if violations == 0 { "PASS" } else { "FAIL" };
        cells.push(CellRecord::new(
            "synthetic".into(),
            policy.as_str().into(),
            args.seed,
            vec![
                ("runs".into(), runs as f64),
                ("violations".into(), violations as f64),
            ],
        ));
        rows.push(vec![
            policy.as_str().to_string(),
            runs.to_string(),
            violations.to_string(),
            status.to_string(),
        ]);
    }

    let apu = apu_rows(args);
    let apu_runs = apu.len();
    for (label, outcome) in &apu {
        let status = if outcome.violations == 0 { "PASS" } else { "FAIL" };
        if let Some(first) = &outcome.first {
            reproducers.push(format!("{label}: {first}"));
        }
        cells.push(CellRecord::new(
            "apu".into(),
            label.clone(),
            args.seed,
            vec![
                ("runs".into(), 1.0),
                ("violations".into(), outcome.violations as f64),
            ],
        ));
        rows.push(vec![
            label.clone(),
            "1".into(),
            outcome.violations.to_string(),
            status.to_string(),
        ]);
    }

    let headers = ["case", "runs", "violations", "status"];
    let total_runs = synth_runs + apu_runs;
    let total_violations: u64 = outcomes.iter().map(|(_, o)| o.violations).sum::<u64>()
        + apu.iter().map(|(_, o)| o.violations).sum::<u64>();
    let mut text = format!(
        "\n== conformance: randomized invariant-checker sweep ({} policies x {} intensities x {} trials + {} apu runs) ==\n\n{}\n",
        PolicyKind::ALL.len(),
        intensities(args.quick).len(),
        trials,
        apu_runs,
        render_table(&headers, &rows)
    );
    if reproducers.is_empty() {
        text.push_str(&format!(
            "conformance: PASS ({total_runs} runs, 0 violations)\n"
        ));
    } else {
        text.push_str(&format!(
            "conformance: FAIL ({total_runs} runs, {total_violations} violations)\n"
        ));
        text.push_str("minimal reproducers (original -> shrunk):\n");
        for r in &reproducers {
            text.push_str(&format!("  {r}\n"));
        }
    }
    CustomOutput {
        text,
        table: super::record::Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        },
        cells,
        backend: "mixed",
    }
}

//! Property-based tests for simulator checkpoint/restore.
//!
//! The contract under test: a run split at *any* cycle boundary through
//! `checkpoint()` → JSON text → `SimCheckpoint::from_json` →
//! `restore_checkpoint()`
//! (i.e. surviving a process restart) is bit-identical to the unsplit
//! run — same statistics (including the delivery-ordered latency list),
//! and the same *complete* simulator state, pinned by comparing the
//! content hash of a second checkpoint taken at the horizon.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use proptest::prelude::*;

use noc_sim::arbiters::{FifoArbiter, RoundRobinArbiter};
use noc_sim::{
    Arbiter, BufferController, FaultPlan, Pattern, SimCheckpoint, SimConfig, Simulator, SplitMix64,
    SyntheticTraffic, Topology, VcUsage, ViolationKind,
};

/// A deterministic stateful test controller: each epoch it advances a
/// counter and withholds `(counter + bi) % 3` flits from buffer `bi`.
/// The counter is the mutable state that must survive a checkpoint for a
/// split run to keep proposing the same squeeze pattern.
struct PulseController {
    epoch: u64,
    counter: u64,
}

impl PulseController {
    fn new(epoch: u64) -> Self {
        Self { epoch, counter: 0 }
    }
}

impl BufferController for PulseController {
    fn name(&self) -> String {
        "pulse-test".into()
    }
    fn control_epoch(&self) -> u64 {
        self.epoch
    }
    fn reallocate(&mut self, _cycle: u64, usage: &[VcUsage], withhold: &mut [u32]) {
        self.counter += 1;
        for (bi, w) in withhold.iter_mut().enumerate().take(usage.len()) {
            *w = ((self.counter + bi as u64) % 3) as u32;
        }
    }
    fn checkpoint_state(&self) -> Option<String> {
        Some(self.counter.to_string())
    }
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.counter = state
            .parse()
            .map_err(|e| format!("pulse-test state {state:?}: {e}"))?;
        Ok(())
    }
}

fn mesh_sim(seed: u64, rate: f64, arbiter: Box<dyn Arbiter>) -> Simulator<SyntheticTraffic> {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let cfg = SimConfig::synthetic(4, 4);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, rate, cfg.num_vnets, seed);
    Simulator::new(topo, cfg, arbiter, traffic).unwrap()
}

fn restore_sim(seed: u64, arbiter: Box<dyn Arbiter>, ck: &SimCheckpoint) -> Simulator<SyntheticTraffic> {
    let mut sim = mesh_sim(seed, 0.15, arbiter);
    sim.restore_checkpoint(ck).unwrap();
    sim
}

/// Runs `horizon` cycles split at `split`, round-tripping the checkpoint
/// through its JSON text (as a file on disk would), and returns the final
/// stats debug string plus the content hash of a checkpoint at the end.
fn split_run(
    seed: u64,
    split: u64,
    horizon: u64,
    make_arb: &dyn Fn() -> Box<dyn Arbiter>,
    plan: Option<&FaultPlan>,
    checker: bool,
) -> (String, String) {
    let mut sim = mesh_sim(seed, 0.15, make_arb());
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
    if checker {
        sim.enable_invariant_checker();
    }
    sim.run(split);
    let ck = sim.checkpoint().unwrap();
    // Simulate a process restart: only the serialized text survives.
    let text = ck.to_json().to_string();
    drop(sim);
    let ck = SimCheckpoint::from_json(&text).unwrap();
    let mut sim = restore_sim(seed, make_arb(), &ck);
    assert_eq!(sim.cycle(), split);
    sim.run(horizon - split);
    if checker {
        assert!(
            sim.check_invariants().is_ok(),
            "restored run must stay invariant-clean"
        );
    }
    let final_ck = sim.checkpoint().unwrap();
    (format!("{:?}", sim.stats()), final_ck.content_hash())
}

fn unsplit_run(
    seed: u64,
    horizon: u64,
    make_arb: &dyn Fn() -> Box<dyn Arbiter>,
    plan: Option<&FaultPlan>,
    checker: bool,
) -> (String, String) {
    let mut sim = mesh_sim(seed, 0.15, make_arb());
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
    if checker {
        sim.enable_invariant_checker();
    }
    sim.run(horizon);
    if checker {
        assert!(sim.check_invariants().is_ok());
    }
    let ck = sim.checkpoint().unwrap();
    (format!("{:?}", sim.stats()), ck.content_hash())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Splitting a fault-free run at a random cycle boundary is
    /// bit-identical to not splitting, for both a stateless (FIFO) and a
    /// stateful (round-robin pointer) arbiter.
    #[test]
    fn split_run_is_bit_identical(seed in any::<u64>(), split in 0u64..1_501) {
        let horizon = 1_500u64;
        let fifo: Box<dyn Fn() -> Box<dyn Arbiter>> = Box::new(|| Box::new(FifoArbiter::new()));
        let rr: Box<dyn Fn() -> Box<dyn Arbiter>> = Box::new(|| Box::new(RoundRobinArbiter::new()));
        for make_arb in [&*fifo, &*rr] {
            let (stats_a, hash_a) = split_run(seed, split, horizon, make_arb, None, false);
            let (stats_b, hash_b) = unsplit_run(seed, horizon, make_arb, None, false);
            prop_assert_eq!(stats_a, stats_b);
            prop_assert_eq!(hash_a, hash_b);
        }
    }

    /// The same split identity holds with an active fault runtime (retry
    /// backoff state, credit reconciliation in flight) and the runtime
    /// invariant checker armed on both sides of the split.
    #[test]
    fn split_with_faults_and_checker_is_bit_identical(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
        split in 0u64..2_001,
        intensity in 0.5f64..3.0,
    ) {
        let horizon = 2_000u64;
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let plan = FaultPlan::generate(plan_seed, intensity, &topo, horizon);
        let rr: Box<dyn Fn() -> Box<dyn Arbiter>> = Box::new(|| Box::new(RoundRobinArbiter::new()));
        let (stats_a, hash_a) = split_run(seed, split, horizon, &*rr, Some(&plan), true);
        let (stats_b, hash_b) = unsplit_run(seed, horizon, &*rr, Some(&plan), true);
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(hash_a, hash_b);
    }

    /// A double split (checkpoint, resume, checkpoint again later) also
    /// matches — resumability composes.
    #[test]
    fn double_split_composes(seed in any::<u64>(), a in 0u64..601, b in 0u64..601) {
        let (first, second) = (a.min(b), a.max(b));
        let horizon = 1_200u64;
        let rr: Box<dyn Fn() -> Box<dyn Arbiter>> = Box::new(|| Box::new(RoundRobinArbiter::new()));

        let mut sim = mesh_sim(seed, 0.15, Box::new(RoundRobinArbiter::new()));
        sim.run(first);
        let ck = SimCheckpoint::from_json(sim.checkpoint().unwrap().to_json()).unwrap();
        let mut sim = restore_sim(seed, Box::new(RoundRobinArbiter::new()), &ck);
        sim.run(second - first);
        let ck = SimCheckpoint::from_json(sim.checkpoint().unwrap().to_json()).unwrap();
        let mut sim = restore_sim(seed, Box::new(RoundRobinArbiter::new()), &ck);
        sim.run(horizon - second);
        let twice = (format!("{:?}", sim.stats()), sim.checkpoint().unwrap().content_hash());

        let straight = unsplit_run(seed, horizon, &*rr, None, false);
        prop_assert_eq!(twice, straight);
    }

    /// The split identity holds with a *stateful buffer controller*
    /// installed alongside an active fault runtime and the checker: the
    /// controller's counter, actuated withholds, and epoch tally all
    /// round-trip through the checkpoint, so the squeeze schedule after
    /// the split matches the unsplit run exactly. Restores go through
    /// `set_buffer_controller` + `restore_checkpoint`, mirroring how the
    /// experiment service resumes controller-bearing jobs.
    #[test]
    fn split_with_buffer_controller_is_bit_identical(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
        split in 0u64..1_501,
        epoch in 1u64..100,
    ) {
        let horizon = 1_500u64;
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let plan = FaultPlan::generate(plan_seed, 1.0, &topo, horizon);

        let mut sim = mesh_sim(seed, 0.15, Box::new(RoundRobinArbiter::new()));
        sim.set_buffer_controller(Box::new(PulseController::new(epoch)));
        sim.set_fault_plan(&plan);
        sim.enable_invariant_checker();
        sim.run(split);
        let text = sim.checkpoint().unwrap().to_json().to_string();
        drop(sim);

        let ck = SimCheckpoint::from_json(&text).unwrap();
        let mut sim = mesh_sim(seed, 0.15, Box::new(RoundRobinArbiter::new()));
        sim.set_buffer_controller(Box::new(PulseController::new(epoch)));
        sim.restore_checkpoint(&ck).unwrap();
        prop_assert_eq!(sim.cycle(), split);
        sim.run(horizon - split);
        prop_assert!(sim.check_invariants().is_ok());
        let split_out = (format!("{:?}", sim.stats()), sim.checkpoint().unwrap().content_hash());

        let mut sim = mesh_sim(seed, 0.15, Box::new(RoundRobinArbiter::new()));
        sim.set_buffer_controller(Box::new(PulseController::new(epoch)));
        sim.set_fault_plan(&plan);
        sim.enable_invariant_checker();
        sim.run(horizon);
        prop_assert!(sim.check_invariants().is_ok());
        let straight = (format!("{:?}", sim.stats()), sim.checkpoint().unwrap().content_hash());

        prop_assert_eq!(split_out, straight);
    }
}

/// A controller that corrupts the credit books directly (modelled by the
/// test-only `debug_misbehaving_controller` hook) is flagged by the
/// occupancy-integrity sweep the same cycle — while a well-behaved
/// controller driving the exact same run stays violation-free. This pins
/// the safety-by-construction claim: the withhold interface cannot
/// corrupt accounting, only book-tampering can.
#[test]
fn occupancy_invariant_catches_misbehaving_controller() {
    let run = |misbehave: Option<u64>| {
        let mut sim = mesh_sim(17, 0.15, Box::new(FifoArbiter::new()));
        sim.set_buffer_controller(Box::new(PulseController::new(8)));
        sim.enable_invariant_checker();
        if let Some(at) = misbehave {
            sim.debug_misbehaving_controller(at);
        }
        sim.run(600);
        sim
    };

    let clean = run(None);
    assert_eq!(
        clean.total_invariant_violations(),
        0,
        "a withhold-interface controller must stay violation-free"
    );

    let corrupt = run(Some(250));
    assert!(corrupt.total_invariant_violations() > 0, "corruption went undetected");
    let first = &corrupt.invariant_violations()[0];
    assert_eq!(first.cycle, 250, "must be caught the same cycle it lands");
    assert!(
        matches!(first.kind, ViolationKind::OccupancyMismatch { .. }),
        "wrong violation class: {first}"
    );
}

/// A checkpoint from a controller-bearing run refuses to restore onto a
/// simulator without the controller installed (and vice versa) — the
/// controller is construction-time input, like the arbiter.
#[test]
fn restore_rejects_controller_mismatch() {
    let mut sim = mesh_sim(9, 0.15, Box::new(FifoArbiter::new()));
    sim.set_buffer_controller(Box::new(PulseController::new(16)));
    sim.run(200);
    let ck = sim.checkpoint().unwrap();

    // Controller-bearing checkpoint, plain restore target.
    let mut plain = mesh_sim(9, 0.15, Box::new(FifoArbiter::new()));
    let err = plain.restore_checkpoint(&ck).unwrap_err();
    assert!(err.contains("controller"), "{err}");

    // Plain checkpoint, controller-bearing restore target.
    let mut sim = mesh_sim(9, 0.15, Box::new(FifoArbiter::new()));
    sim.run(200);
    let plain_ck = sim.checkpoint().unwrap();
    let mut with_ctl = mesh_sim(9, 0.15, Box::new(FifoArbiter::new()));
    with_ctl.set_buffer_controller(Box::new(PulseController::new(16)));
    let err = with_ctl.restore_checkpoint(&plain_ck).unwrap_err();
    assert!(err.contains("controller"), "{err}");
}

#[test]
fn checkpoint_refuses_diagnostic_state() {
    let mut sim = mesh_sim(7, 0.15, Box::new(FifoArbiter::new()));
    sim.enable_grant_log();
    assert!(sim.checkpoint().unwrap_err().contains("grant log"));

    let mut sim = mesh_sim(7, 0.15, Box::new(FifoArbiter::new()));
    sim.enable_packet_trace(64);
    assert!(sim.checkpoint().unwrap_err().contains("trac"));

    // A state string the escape-free codec cannot carry is refused.
    struct Named(&'static str);
    impl BufferController for Named {
        fn name(&self) -> String {
            self.0.into()
        }
        fn control_epoch(&self) -> u64 {
            1
        }
        fn reallocate(&mut self, _: u64, _: &[VcUsage], _: &mut [u32]) {}
    }
    for dirty in ["a\"b", "a\\b", "a\nb"] {
        let mut sim = mesh_sim(7, 0.15, Box::new(FifoArbiter::new()));
        sim.set_buffer_controller(Box::new(Named(dirty)));
        let err = sim.checkpoint().unwrap_err();
        assert!(err.contains("cannot carry"), "{err}");
    }
}

#[test]
fn restore_rejects_mismatched_shapes() {
    let mut sim = mesh_sim(3, 0.15, Box::new(FifoArbiter::new()));
    sim.run(100);
    let ck = SimCheckpoint::from_json(sim.checkpoint().unwrap().to_json()).unwrap();

    // Wrong arbiter type. This restore takes the tree `from_json` kept;
    // the ones after it parse the text again.
    let mut sim = mesh_sim(3, 0.15, Box::new(RoundRobinArbiter::new()));
    let err = sim.restore_checkpoint(&ck).unwrap_err();
    assert!(err.contains("arbiter"), "{err}");

    // Wrong topology shape.
    let topo = Topology::uniform_mesh(3, 3).unwrap();
    let cfg = SimConfig::synthetic(3, 3);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.15, cfg.num_vnets, 3);
    let mut sim = Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
    let err = sim.restore_checkpoint(&ck).unwrap_err();
    assert!(err.contains("mismatch"), "{err}");

    // The matching simulator still takes the same checkpoint.
    let mut sim = mesh_sim(3, 0.15, Box::new(FifoArbiter::new()));
    sim.restore_checkpoint(&ck).unwrap();
    assert_eq!(sim.cycle(), 100);
}

/// The snapshot text of a hooked run (fault plan, invariant checker and a
/// stateful buffer controller, checkpointed mid-run) is pinned byte for
/// byte, and restoring it then checkpointing again gives the same text.
/// A refactor of the snapshot writer or reader that moves one byte fails
/// here before it can reach a cached result.
#[test]
fn snapshot_bytes_are_pinned() {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let plan = FaultPlan::generate(21, 1.0, &topo, 1_000);
    let hooked = || {
        let mut sim = mesh_sim(21, 0.15, Box::new(RoundRobinArbiter::new()));
        sim.set_buffer_controller(Box::new(PulseController::new(16)));
        sim
    };
    let mut sim = hooked();
    sim.set_fault_plan(&plan);
    sim.enable_invariant_checker();
    sim.run(500);
    let ck = sim.checkpoint().unwrap();
    let text = ck.to_json();
    assert_eq!(
        (noc_sim::codec::fnv1a64(text.as_bytes()), text.len()),
        (0x905ae08e821c97b2, 44_557),
        "snapshot bytes moved"
    );
    let mut back = hooked();
    back.restore_checkpoint(&ck).unwrap();
    assert_eq!(back.checkpoint().unwrap().to_json(), text);
}

/// A snapshot of the previous version is refused by its version number.
#[test]
fn a_v3_snapshot_is_refused() {
    let mut sim = mesh_sim(3, 0.15, Box::new(RoundRobinArbiter::new()));
    sim.run(50);
    let v4 = sim.checkpoint().unwrap().to_json().to_string();
    let v3 = v4.replacen("\"version\": 4,", "\"version\": 3,", 1);
    assert_ne!(v3, v4);
    let err = SimCheckpoint::from_json(&v3).unwrap_err();
    assert_eq!(err, "checkpoint version 3 not supported (expected 4)");
}

/// Restore refuses every record index that is out of range and every
/// timestamp past the snapshot's cycle. A fixed-seed probe rewrites one
/// digit of a mid-run snapshot (fault plan + checker) at a time; each
/// document either comes back as an `Err` or restores into a simulator
/// that steps without a panic.
#[test]
fn digit_mutated_snapshots_never_panic_on_an_index_or_timestamp() {
    const CASES: usize = 1_000;
    const STEPS: u64 = 150;
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let fresh = || mesh_sim(5, 0.15, Box::new(FifoArbiter::new()));
    let mut sim = fresh();
    sim.set_fault_plan(&FaultPlan::generate(5, 0.5, &topo, 400));
    sim.enable_invariant_checker();
    sim.run(200);
    let text = sim.checkpoint().unwrap().to_json().to_string();
    let digits: Vec<usize> = (0..text.len())
        .filter(|&i| text.as_bytes()[i].is_ascii_digit())
        .collect();

    let mut rng = SplitMix64::new(1);
    let (mut refused, mut stepped) = (0, 0);
    let mut panics: BTreeMap<String, usize> = BTreeMap::new();
    for _ in 0..CASES {
        let mut bytes = text.clone().into_bytes();
        bytes[digits[rng.next_bounded(digits.len() as u64) as usize]] =
            b'0' + rng.next_bounded(10) as u8;
        let doc = String::from_utf8(bytes).unwrap();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut sim = fresh();
            sim.restore_checkpoint(&SimCheckpoint::from_json(&doc)?)?;
            sim.run(STEPS);
            Ok::<(), String>(())
        }));
        match outcome {
            Ok(Err(_)) => refused += 1,
            Ok(Ok(())) => stepped += 1,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                *panics.entry(msg.to_string()).or_default() += 1;
            }
        }
    }
    println!("{CASES} digit mutations: {refused} refused, {stepped} stepped, panics {panics:?}");
    assert!(panics.is_empty(), "panics: {panics:?}");
}

#[test]
fn checkpoint_hash_is_content_addressed() {
    let mut a = mesh_sim(11, 0.15, Box::new(FifoArbiter::new()));
    let mut b = mesh_sim(11, 0.15, Box::new(FifoArbiter::new()));
    a.run(500);
    b.run(500);
    assert_eq!(
        a.checkpoint().unwrap().content_hash(),
        b.checkpoint().unwrap().content_hash(),
        "identical runs must checkpoint to identical hashes"
    );
    b.run(1);
    assert_ne!(
        a.checkpoint().unwrap().content_hash(),
        b.checkpoint().unwrap().content_hash(),
        "different states must hash differently"
    );
}

#[test]
fn simulated_cycles_counter_advances_with_run() {
    let before = noc_sim::simulated_cycles();
    let mut sim = mesh_sim(5, 0.10, Box::new(FifoArbiter::new()));
    sim.run(123);
    let after = noc_sim::simulated_cycles();
    assert!(
        after >= before + 123,
        "counter must advance by at least the cycles run ({before} -> {after})"
    );
}

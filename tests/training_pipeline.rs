//! Cross-crate integration: the full ML-driven-design pipeline — train an
//! agent in the simulator, interpret its weights, deploy the frozen
//! network as an arbiter (rl-arb + nn-mlp + noc-sim).

use ml_noc::noc_arbiters::RandomArbiter;
use ml_noc::noc_sim::{Arbiter, Pattern, SimConfig, Simulator, SyntheticTraffic, Topology};
use ml_noc::rl_arb::{
    hill_climb, train_synthetic, weight_heatmap, Feature, RewardKind, TrainSpec,
};

fn tiny_spec(seed: u64) -> TrainSpec {
    let mut spec = TrainSpec::tuned_synthetic(4, 0.35, seed);
    spec.curriculum = vec![];
    spec.epochs = 6;
    spec.cycles_per_epoch = 500;
    spec
}

#[test]
fn training_produces_an_interpretable_agent() {
    let outcome = train_synthetic(&tiny_spec(5));
    assert_eq!(outcome.curve.len(), 6);
    assert!(outcome.agent.decisions() > 100);
    let hm = weight_heatmap(outcome.agent.network(), outcome.agent.encoder());
    assert_eq!(hm.rows(), 4);
    assert_eq!(hm.cols, 15);
    // Something was learned: weights are not uniformly zero, and the
    // ranking covers every feature exactly once.
    assert!(hm.ranked_rows().iter().any(|(_, v)| *v > 0.0));
    let rows: Vec<usize> = hm.ranked_rows().iter().map(|(r, _)| *r).collect();
    let mut sorted = rows.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3]);
}

#[test]
fn frozen_agent_is_a_working_arbiter_and_beats_random() {
    let outcome = train_synthetic(&{
        let mut s = tiny_spec(7);
        s.epochs = 20;
        s.cycles_per_epoch = 1_000;
        s
    });
    let run = |arb: Box<dyn Arbiter>| {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.35, cfg.num_vnets, 3);
        let mut sim = Simulator::new(topo, cfg, arb, traffic).unwrap();
        sim.run(1_000);
        sim.reset_stats();
        sim.run(6_000);
        (sim.stats().avg_latency(), sim.stats().latency_percentile(99.0))
    };
    let (nn_avg, nn_p99) = run(Box::new(outcome.agent.freeze()));
    let (rand_avg, rand_p99) = run(Box::new(RandomArbiter::new(1)));
    assert!(nn_avg > 0.0 && rand_avg > 0.0);
    // A trained network must be in the same league as (or better than)
    // uniform-random selection on both mean and tail; a broken agent
    // diverges by integer factors here, which is what this guards against.
    assert!(
        nn_avg <= rand_avg * 1.25,
        "trained NN avg ({nn_avg:.1}) far worse than random ({rand_avg:.1})"
    );
    assert!(
        nn_p99 as f64 <= rand_p99 as f64 * 1.5,
        "trained NN p99 ({nn_p99}) far worse than random ({rand_p99})"
    );
}

#[test]
fn reward_functions_are_pluggable_end_to_end() {
    for reward in RewardKind::ALL {
        let mut spec = tiny_spec(9);
        spec.epochs = 3;
        spec.agent = spec.agent.with_reward(reward);
        let out = train_synthetic(&spec);
        assert_eq!(out.curve.len(), 3, "{} produced wrong curve", reward.label());
    }
}

#[test]
fn hill_climbing_runs_the_full_selection_loop() {
    let mut spec = tiny_spec(11);
    spec.epochs = 3;
    spec.cycles_per_epoch = 300;
    let result = hill_climb(&spec, &[Feature::LocalAge, Feature::HopCount], 0.01);
    assert!(!result.selected.is_empty());
    assert!(result.history.len() >= 2);
    assert!(result.value.is_finite() && result.value > 0.0);
}

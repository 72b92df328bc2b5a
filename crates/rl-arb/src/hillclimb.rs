//! Hill-climbing feature selection (paper §6.5), on top of a generic
//! greedy-climb engine.
//!
//! "We started by individually training the neural network with only one
//! feature at a time … we then retrained utilizing all pairs of features
//! combining local age with one other feature … which resulted in local age
//! and hop count." This module automates that procedure: greedily grow the
//! feature set, keeping an addition only if it improves final latency by at
//! least a relative margin.
//!
//! The greedy loop itself is not feature-specific, so it is factored out
//! as [`greedy_climb`] over an arbitrary candidate type and evaluation
//! function; the experiment layer's design-space search reuses the same
//! procedure over configuration axes (`bench::exp::search`), and
//! [`hill_climb`] is its feature-selection instantiation: it returns the
//! same [`ClimbOutcome`], whose values are settled latencies.

use crate::features::{Feature, FeatureSet};
use crate::train::{train_synthetic, TrainSpec};

/// One evaluated candidate set of a [`greedy_climb`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClimbStep<T> {
    /// The candidate set evaluated at this step.
    pub set: Vec<T>,
    /// Its objective value (lower is better).
    pub value: f64,
}

/// Result of a [`greedy_climb`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClimbOutcome<T> {
    /// The selected candidate set, in the order candidates were adopted.
    pub selected: Vec<T>,
    /// Final objective value of the selected set.
    pub value: f64,
    /// Every evaluation performed, in order.
    pub history: Vec<ClimbStep<T>>,
}

/// Greedy forward selection over arbitrary candidates: round 1 evaluates
/// each candidate alone, subsequent rounds try adding each remaining
/// candidate to the incumbent set, and an addition is kept when it
/// improves the objective (lower is better) by at least `min_gain`
/// (relative, e.g. `0.02` = 2%). Deterministic: ties keep the
/// earliest-evaluated set, and candidates are explored in slice order.
///
/// # Examples
///
/// ```
/// // Select the subset of {1, 2, 3} minimizing a toy objective that
/// // rewards having both 1 and 3 in the set.
/// let out = rl_arb::greedy_climb(&[1u32, 2, 3], 0.01, |set| {
///     10.0 - set.iter().map(|&c| if c == 2 { 0.1 } else { 3.0 }).sum::<f64>()
/// });
/// assert_eq!(out.selected, vec![1, 3, 2]);
/// ```
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn greedy_climb<T, F>(candidates: &[T], min_gain: f64, mut eval: F) -> ClimbOutcome<T>
where
    T: Clone + PartialEq,
    F: FnMut(&[T]) -> f64,
{
    assert!(!candidates.is_empty(), "need at least one candidate feature");
    let mut history: Vec<ClimbStep<T>> = Vec::new();
    let mut eval = |set: &[T], history: &mut Vec<ClimbStep<T>>| {
        let value = eval(set);
        history.push(ClimbStep { set: set.to_vec(), value });
        value
    };

    // Round 1: each candidate alone.
    let mut best_set: Vec<T> = Vec::new();
    let mut best_value = f64::INFINITY;
    for c in candidates {
        let v = eval(std::slice::from_ref(c), &mut history);
        if v < best_value {
            best_value = v;
            best_set = vec![c.clone()];
        }
    }

    // Subsequent rounds: try adding each remaining candidate.
    loop {
        let mut round_best: Option<(T, f64)> = None;
        for c in candidates {
            if best_set.contains(c) {
                continue;
            }
            let mut trial = best_set.clone();
            trial.push(c.clone());
            let v = eval(&trial, &mut history);
            if round_best.as_ref().is_none_or(|(_, bv)| v < *bv) {
                round_best = Some((c.clone(), v));
            }
        }
        match round_best {
            Some((c, v)) if v < best_value * (1.0 - min_gain) => {
                best_set.push(c);
                best_value = v;
            }
            _ => break,
        }
    }

    ClimbOutcome { selected: best_set, value: best_value, history }
}

fn settled_latency(spec: &TrainSpec) -> f64 {
    let out = train_synthetic(spec);
    let q = (out.curve.len() / 4).max(1);
    let tail = &out.curve[out.curve.len() - q..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// Greedy forward feature selection over `candidates`, evaluated by
/// training on `base` (whose `features` field is replaced per evaluation) —
/// [`greedy_climb`] instantiated with train-and-measure as the objective.
/// An addition is kept when it improves the settled latency by at least
/// `min_gain` (relative, e.g. `0.02` = 2%). Every `value` in the outcome is
/// a settled latency: the mean over the last quarter of the training curve.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn hill_climb(
    base: &TrainSpec,
    candidates: &[Feature],
    min_gain: f64,
) -> ClimbOutcome<Feature> {
    greedy_climb(candidates, min_gain, |features: &[Feature]| {
        let spec = TrainSpec {
            features: FeatureSet::from_features(features),
            ..base.clone()
        };
        settled_latency(&spec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use noc_sim::Pattern;

    fn tiny_spec() -> TrainSpec {
        TrainSpec {
            width: 4,
            height: 4,
            pattern: Pattern::UniformRandom,
            injection_rate: 0.3,
            epochs: 4,
            cycles_per_epoch: 300,
            agent: AgentConfig::paper_synthetic(2),
            features: FeatureSet::synthetic(),
            traffic_seed: 5,
            curriculum: Vec::new(),
            feature_bounds: None,
            vnets: None,
        }
    }

    #[test]
    fn single_round_explores_each_candidate() {
        let result = hill_climb(
            &tiny_spec(),
            &[Feature::LocalAge, Feature::HopCount],
            0.5, // huge gain requirement: stop after round 1
        );
        assert_eq!(result.selected.len(), 1);
        // Round 1 (2 evals) + round 2 (1 eval of the remaining feature).
        assert_eq!(result.history.len(), 3);
        assert!(result.value.is_finite());
    }

    #[test]
    fn history_records_feature_sets() {
        let result = hill_climb(&tiny_spec(), &[Feature::PayloadSize], 0.01);
        assert_eq!(result.history[0].set, vec![Feature::PayloadSize]);
        assert_eq!(result.selected, vec![Feature::PayloadSize]);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_rejected() {
        hill_climb(&tiny_spec(), &[], 0.01);
    }

    #[test]
    fn generic_climb_adopts_helpful_candidates_in_order() {
        // Objective: minimize 10 − sum of contributions; 'a' and 'c'
        // contribute 3.0 each, 'b' only 0.1 (below the 1% gain bar once
        // the big contributors are in).
        let out = greedy_climb(&["a", "b", "c"], 0.01, |set| {
            10.0 - set.iter().map(|&c| if c == "b" { 0.1 } else { 3.0 }).sum::<f64>()
        });
        assert_eq!(out.selected, vec!["a", "c", "b"]);
        // Round 1: 3 singles; round 2: 2 pairs; round 3: 1 triple; round
        // 4 has no remaining candidates and terminates.
        assert_eq!(out.history.len(), 6);
        assert!((out.value - 3.9).abs() < 1e-9);
    }

    #[test]
    fn generic_climb_stops_below_min_gain() {
        // Adding anything past the first candidate improves by < 50%.
        let out = greedy_climb(&[1u32, 2], 0.5, |set| 10.0 - set.len() as f64);
        assert_eq!(out.selected.len(), 1);
        assert_eq!(out.value, 9.0);
    }
}

//! The searchable design space: seven tunable axes over the declarative
//! [`ExperimentSpec`].
//!
//! A design point is a vector of per-axis ordinals ([`SearchPoint`]); the
//! space knows how to decode a point into a one-scenario experiment spec
//! (fabric sizing via [`NocParams`], agent hyperparameters via
//! [`NnRecipe::SyntheticTuned`]), how to enumerate a point's single-axis
//! neighbors (hill climbing), and how to mutate one axis (the
//! evolutionary driver). Levels are small closed sets, so the whole space
//! is finite, hashable and replayable.

use noc_sim::codec::fnv1a64;
use noc_sim::{Pattern, RoutingKind, SplitMix64};
use rl_arb::RewardKind;

use super::super::spec::{
    ExperimentSpec, Lineup, NnRecipe, NocParams, Normalize, ScenarioSpec, TierParams, TopoSpec,
};

/// One design point: a per-axis ordinal into each axis' level list, in
/// [`SearchSpace::axes`] order.
pub type SearchPoint = Vec<usize>;

/// One tunable axis: its name and the human-facing labels of its levels
/// (the decode tables live in the space itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Stable axis name, recorded in the `SearchRecord`.
    pub name: &'static str,
    /// Level labels, in ordinal order.
    pub levels: Vec<String>,
}

/// Mesh/torus/ring side lengths: a point's fabric is built at
/// `side × side` scale (the ring lays the same router count out in one
/// cycle), so rows across the size axis stay comparable per-router.
const SIDES: [u16; 3] = [4, 6, 8];
/// The topology × routing pairs the fabric axis sweeps. Only
/// deadlock-free, topology-compatible pairs appear (the routing figure's
/// own pairing rules).
const FABRICS: [(&str, TopoSpec, RoutingKind); 4] = [
    ("mesh-xy", TopoSpec::Mesh, RoutingKind::XY),
    ("mesh-wfa", TopoSpec::Mesh, RoutingKind::WestFirstAdaptive),
    ("torus-dor", TopoSpec::Torus, RoutingKind::TorusDimOrder),
    ("ring-short", TopoSpec::Ring, RoutingKind::RingShortest),
];
/// Virtual-network counts. The NN encoder is sized
/// `ports × vnets × features`, so this axis also scales the agent (and
/// its gate cost).
const VNETS: [usize; 3] = [2, 3, 4];
/// Per-VC buffer depths in flits. The floor is the synthetic
/// `max_packet_flits` (5) — shallower buffers cannot hold one packet and
/// the simulator rejects them.
const VC_CAPS: [u32; 3] = [5, 8, 16];
/// Discount factor γ, in percent (integer-scaled so specs stay `Eq`).
const GAMMAS: [u8; 4] = [0, 20, 50, 90];
/// Learning rate, in units of 1e-4.
const LRS: [u32; 3] = [10, 100, 500];

/// Injection rate every point runs at: high enough to separate policies,
/// low enough that every fabric in the space stays stable.
const RATE: f64 = 0.30;

/// The design space: the paper-NoC axes, their decode tables, and the
/// point → spec translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// The axes, in point-ordinal order.
    pub axes: Vec<Axis>,
}

impl SearchSpace {
    /// The paper's NoC design space: fabric sizing (mesh/torus/ring side,
    /// VC count, buffer depth, routing) crossed with agent
    /// hyperparameters (γ, learning rate, reward formulation).
    pub fn paper_noc() -> Self {
        let axis = |name: &'static str, levels: Vec<String>| Axis { name, levels };
        SearchSpace {
            axes: vec![
                axis("size", SIDES.iter().map(|s| format!("{s}x{s}")).collect()),
                axis("fabric", FABRICS.iter().map(|(l, _, _)| l.to_string()).collect()),
                axis("vnets", VNETS.iter().map(|v| format!("v{v}")).collect()),
                axis("vc-capacity", VC_CAPS.iter().map(|c| format!("c{c}")).collect()),
                axis("gamma", GAMMAS.iter().map(|g| format!("g{g}")).collect()),
                axis("lr", LRS.iter().map(|l| format!("lr{l}")).collect()),
                axis(
                    "reward",
                    RewardKind::ALL.iter().map(|r| r.label().to_string()).collect(),
                ),
            ],
        }
    }

    /// Number of axes (the length of every valid [`SearchPoint`]).
    pub fn num_axes(&self) -> usize {
        self.axes.len()
    }

    /// The baseline point hill climbing starts from: the paper's 4x4
    /// X-Y mesh at the simulator-default fabric sizing and the tuned
    /// agent hyperparameters.
    pub fn default_point(&self) -> SearchPoint {
        vec![0, 0, 1, 1, 1, 2, 0]
    }

    /// A uniformly random point (every axis drawn independently).
    pub fn random_point(&self, rng: &mut SplitMix64) -> SearchPoint {
        self.axes
            .iter()
            .map(|a| rng.next_bounded(a.levels.len() as u64) as usize)
            .collect()
    }

    /// All single-axis ±1 neighbors of `point`, clamped to each axis'
    /// range, in axis-major (then −1 before +1) order.
    pub fn neighbors(&self, point: &SearchPoint) -> Vec<SearchPoint> {
        let mut out = Vec::new();
        for (axis, &ord) in point.iter().enumerate() {
            let levels = self.axes[axis].levels.len();
            if ord > 0 {
                let mut n = point.clone();
                n[axis] = ord - 1;
                out.push(n);
            }
            if ord + 1 < levels {
                let mut n = point.clone();
                n[axis] = ord + 1;
                out.push(n);
            }
        }
        out
    }

    /// Mutates one uniformly chosen axis of `point` to a different
    /// uniformly chosen level (in place). Axes with a single level are
    /// never chosen.
    pub fn mutate(&self, point: &mut SearchPoint, rng: &mut SplitMix64) {
        let axis = rng.next_bounded(self.axes.len() as u64) as usize;
        let levels = self.axes[axis].levels.len();
        if levels < 2 {
            return;
        }
        // Draw from the other `levels - 1` ordinals so the mutation
        // always changes the point.
        let step = 1 + rng.next_bounded(levels as u64 - 1) as usize;
        point[axis] = (point[axis] + step) % levels;
    }

    /// The human-facing level labels of `point`, in axis order.
    pub fn labels(&self, point: &SearchPoint) -> Vec<String> {
        point
            .iter()
            .enumerate()
            .map(|(axis, &ord)| self.axes[axis].levels[ord].clone())
            .collect()
    }

    /// One compact label for `point` (the scenario label its cells carry).
    pub fn point_label(&self, point: &SearchPoint) -> String {
        self.labels(point).join("/")
    }

    /// The virtual-network count `point` selects (sizes the NN encoder,
    /// and therefore the inference gate cost).
    pub fn vnets_of(&self, point: &SearchPoint) -> usize {
        VNETS[point[2]]
    }

    /// FNV-1a hash over the axis names and level labels — stamped into
    /// the `SearchRecord` so a resumed search can detect that the space
    /// definition changed underneath it.
    pub fn hash_hex(&self) -> String {
        let mut canon = String::from("search-space-v1");
        for a in &self.axes {
            canon.push('|');
            canon.push_str(a.name);
            canon.push('=');
            canon.push_str(&a.levels.join(","));
        }
        format!("{:016x}", fnv1a64(canon.as_bytes()))
    }

    /// Decodes `point` into its one-scenario [`ExperimentSpec`]: an NN
    /// line-up trained by [`NnRecipe::SyntheticTuned`] at the point's
    /// hyperparameters, running on the point's fabric. The spec's
    /// `hash_hex` is the point's identity in the result cache and the
    /// search memo.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong arity or an out-of-range ordinal —
    /// points come from this space's own proposal methods, so that is a
    /// driver bug.
    pub fn spec_for(&self, point: &SearchPoint) -> ExperimentSpec {
        assert_eq!(point.len(), self.num_axes(), "point arity mismatch");
        let side = SIDES[point[0]];
        let (_, topo, routing) = FABRICS[point[1]];
        let vnets = VNETS[point[2]];
        let vc_capacity_flits = VC_CAPS[point[3]];
        let gamma_pct = GAMMAS[point[4]];
        let lr_e4 = LRS[point[5]];
        let reward = RewardKind::ALL[point[6]];
        let label = self.point_label(point);
        ExperimentSpec {
            figure: "search-point".into(),
            output: "search-point".into(),
            title: format!("design point {label}"),
            lineup: Lineup::parse(&["nn"]),
            nn: Some(NnRecipe::SyntheticTuned { gamma_pct, lr_e4, reward }),
            scenarios: vec![ScenarioSpec::Synthetic {
                label,
                width: side,
                height: side,
                pattern: Pattern::UniformRandom,
                rate: RATE,
                topo,
                routing,
                starvation_threshold: None,
                noc: Some(NocParams { vnets, vc_capacity_flits }),
                lineup: None,
            }],
            faults: None,
            quick: TierParams {
                warmup: 200,
                measure: 800,
                seeds: 1,
                nn_epochs: 2,
                nn_epoch_cycles: 200,
                ..TierParams::zeroed()
            },
            full: TierParams {
                warmup: 1_000,
                measure: 4_000,
                seeds: 2,
                nn_epochs: 8,
                nn_epoch_cycles: 1_000,
                ..TierParams::zeroed()
            },
            normalize: Normalize::None,
        }
    }

    /// Convenience: the spec hash of `point` (see [`Self::spec_for`]).
    pub fn spec_hash(&self, point: &SearchPoint) -> String {
        self.spec_for(point).hash_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_point_is_in_range() {
        let space = SearchSpace::paper_noc();
        let p = space.default_point();
        assert_eq!(p.len(), space.num_axes());
        for (axis, &ord) in p.iter().enumerate() {
            assert!(ord < space.axes[axis].levels.len(), "axis {axis} out of range");
        }
        assert_eq!(space.point_label(&p), "4x4/mesh-xy/v3/c8/g20/lr500/global_age");
    }

    #[test]
    fn neighbors_differ_in_exactly_one_axis() {
        let space = SearchSpace::paper_noc();
        let p = space.default_point();
        let neighbors = space.neighbors(&p);
        assert!(!neighbors.is_empty());
        for n in &neighbors {
            let diffs: Vec<usize> =
                (0..p.len()).filter(|&i| n[i] != p[i]).collect();
            assert_eq!(diffs.len(), 1, "{n:?} is not a single-axis step from {p:?}");
            let axis = diffs[0];
            assert_eq!(n[axis].abs_diff(p[axis]), 1, "step must be ±1");
        }
        // Interior ordinals contribute two neighbors, edges one.
        let expected: usize = p
            .iter()
            .enumerate()
            .map(|(axis, &ord)| {
                usize::from(ord > 0) + usize::from(ord + 1 < space.axes[axis].levels.len())
            })
            .sum();
        assert_eq!(neighbors.len(), expected);
    }

    #[test]
    fn mutate_always_changes_the_point() {
        let space = SearchSpace::paper_noc();
        let mut rng = SplitMix64::new(7);
        for _ in 0..100 {
            let before = space.default_point();
            let mut after = before.clone();
            space.mutate(&mut after, &mut rng);
            assert_ne!(before, after, "mutation must change exactly one axis");
            assert_eq!(
                (0..before.len()).filter(|&i| before[i] != after[i]).count(),
                1
            );
        }
    }

    #[test]
    fn spec_hash_separates_points_and_is_stable() {
        let space = SearchSpace::paper_noc();
        let a = space.default_point();
        let mut b = a.clone();
        b[3] = 2; // deeper VC buffers
        assert_eq!(space.spec_hash(&a), space.spec_hash(&a));
        assert_ne!(space.spec_hash(&a), space.spec_hash(&b));
        // Every point decodes to a valid one-scenario spec.
        let spec = space.spec_for(&b);
        assert_eq!(spec.scenarios.len(), 1);
        assert!(spec.lineup.has_nn_slot());
    }

    #[test]
    fn space_hash_sees_level_changes() {
        let a = SearchSpace::paper_noc();
        let mut b = SearchSpace::paper_noc();
        b.axes[0].levels.push("10x10".into());
        assert_ne!(a.hash_hex(), b.hash_hex());
    }
}

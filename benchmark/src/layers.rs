//! What the simulation workloads share: the simulated totals over a run's
//! exact prefix, and the layer attribution of a traced run.

use noc_sim::{Arbiter, Pattern, SimConfig, SimStats, Simulator, SyntheticTraffic, Topology};

use crate::run::{Outcome, Sample};
use crate::stats::{fold_stats, timed, FNV_OFFSET};
use crate::trace::{ArbProbe, Tracer};

/// Cycles a fresh fabric runs before anything on it is timed.
pub const WARMUP_CYCLES: u64 = 2_000;

/// A simulator on `topo` with open-loop uniform-random traffic at `rate`.
pub fn synthetic_sim(
    topo: Topology,
    cfg: SimConfig,
    arbiter: Box<dyn Arbiter>,
    rate: f64,
    seed: u64,
) -> Simulator<SyntheticTraffic> {
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, rate, cfg.num_vnets, seed);
    Simulator::new(topo, cfg, arbiter, traffic).expect("valid simulator configuration")
}

/// Host cycles per second of `cycles` steady-state cycles on `sim`.
pub fn cycles_per_s(mut sim: Simulator<SyntheticTraffic>, cycles: u64) -> f64 {
    sim.run(WARMUP_CYCLES);
    let (ns, ()) = timed(|| sim.run(cycles));
    assert!(sim.stats().delivered > 0, "side point delivered nothing");
    cycles as f64 / (ns as f64 / 1e9)
}

/// Simulated totals over the exact prefix of a run. They depend on the
/// seed and the program only, never on the host.
#[derive(Debug, PartialEq, Eq)]
pub struct SimTotals {
    pub fnv: u64,
    pub grants: u64,
    pub arbiter_queries: u64,
    pub delivered: u64,
    pub latency_sum: u64,
}

impl Default for SimTotals {
    fn default() -> Self {
        SimTotals {
            fnv: FNV_OFFSET,
            grants: 0,
            arbiter_queries: 0,
            delivered: 0,
            latency_sum: 0,
        }
    }
}

impl SimTotals {
    pub fn fold(&mut self, stats: &SimStats) {
        self.fnv = fold_stats(self.fnv, stats);
        self.grants += stats.grants;
        self.arbiter_queries += stats.arbiter_queries;
        self.delivered += stats.delivered;
        self.latency_sum += stats.total_latency;
    }

    /// Mean message latency in simulated cycles.
    pub fn latency(&self) -> f64 {
        self.latency_sum as f64 / self.delivered as f64
    }

    /// The check values every simulation workload prints.
    pub fn report_exact(&self, out: &mut Outcome) {
        out.exact("stats_fnv", format!("{:016x}", self.fnv));
        out.exact("noc_sim.grants", self.grants);
        out.exact("noc_sim.arbiter_queries", self.arbiter_queries);
        out.exact("noc_sim.delivered", self.delivered);
        out.exact("sim_latency_cycles", format!("{:?}", self.latency()));
    }
}

fn wall_ns(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.ns).sum::<u64>() as f64
}

/// The two halves of a traced run — the same work bare and wrapped — and
/// what the wrappers saw.
pub struct Attribution<'a> {
    pub reference: &'a [Sample],
    pub traced: &'a [Sample],
    pub totals: &'a SimTotals,
    pub arbiter: &'a ArbProbe,
    /// Whether the policy is an NN (`rl_arb.*`) or classical (`noc_arbiters.*`).
    pub nn: bool,
    /// Net time inside the other wrapped traits (engine, controller).
    pub other_layers_ns: f64,
    pub bias_ns: f64,
}

impl Attribution<'_> {
    /// Wall time of the bare half: what every share is taken against, so
    /// `noc_sim.self_share` plus the layers' shares is 1 by construction
    /// and wrong by at most `trace.overhead`.
    pub fn reference_ns(&self) -> f64 {
        wall_ns(self.reference)
    }

    /// Fills the layer metrics every simulation workload derives from a
    /// wrapped run, the run's operation counts, and the tracer's timers
    /// and counts (attached to the innermost open span).
    pub fn report(&self, out: &mut Outcome, tracer: &mut Tracer) {
        let (probe, bias_ns, t) = (self.arbiter, self.bias_ns, self.totals);
        let ref_ns = self.reference_ns();
        let cycles: u64 = self.traced.iter().map(|s| s.cycles).sum();
        out.set("trace.overhead", 1.0 - ref_ns / wall_ns(self.traced));

        let arbiter_ns = probe.net_ns(bias_ns);
        let self_ns = (ref_ns - arbiter_ns - self.other_layers_ns).max(0.0);
        out.set("noc_sim.self_share", self_ns / ref_ns);
        out.set("noc_sim.ns_per_cycle", self_ns / cycles as f64);
        out.set("noc_sim.ns_per_grant", self_ns / t.grants as f64);
        let selects = probe.select.calls();
        if self.nn {
            let plans = probe.plan_router.calls().max(1);
            out.set("rl_arb.share", arbiter_ns / ref_ns);
            out.set("rl_arb.select_ns", probe.select.ns_per_call(bias_ns));
            out.set(
                "rl_arb.plan_router_ns",
                probe.plan_router.ns_per_call(bias_ns),
            );
            out.set("rl_arb.selects_per_plan", selects as f64 / plans as f64);
        } else {
            let candidates = probe.candidates.get() as f64;
            out.set("noc_arbiters.share", arbiter_ns / ref_ns);
            out.set("noc_arbiters.select_ns", probe.select.ns_per_call(bias_ns));
            out.set(
                "noc_arbiters.candidates_per_query",
                candidates / selects.max(1) as f64,
            );
            out.set(
                "noc_arbiters.queries_per_cycle",
                selects as f64 / cycles as f64,
            );
        }

        out.set("noc_sim.grants", t.grants as f64);
        out.set("noc_sim.arbiter_queries", t.arbiter_queries as f64);
        out.set("noc_sim.delivered", t.delivered as f64);
        out.set("noc_sim.latency_cycles", t.latency());
        tracer.add_count("noc_sim.grants", t.grants);
        tracer.add_count("noc_sim.arbiter_queries", t.arbiter_queries);
        tracer.add_count("noc_sim.delivered", t.delivered);
        let layer = if self.nn { "rl_arb" } else { "noc_arbiters" };
        tracer.add_timer(&format!("{layer}::select"), &probe.select, bias_ns);
        tracer.add_timer(
            &format!("{layer}::plan_router"),
            &probe.plan_router,
            bias_ns,
        );
        tracer.add_timer(&format!("{layer}::end_cycle"), &probe.end_cycle, bias_ns);

        let both = || self.reference.iter().chain(self.traced);
        out.attempted = both().count() as u64;
        out.failed = both().filter(|s| s.failed).count() as u64;
    }
}

//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names
//! (a unit test compares the two), and every emitted metric goes through
//! these tables, so a name cannot be printed without being declared.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// How long one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mesh8-classical",
        why: "8x8 mesh, uniform-random @ 0.20, global-age, no hooks: noc-sim step() does ~97% of the work and nn-mlp/rl-arb none; a hot-path change must move it, an inference change must not",
    },
    Workload {
        name: "mesh8-nn",
        why: "same fabric and traffic under a frozen 60-15-15 NN policy: arbitration is ~67% of wall time; its ratio to mesh8-classical is the NN-vs-global-age gap",
    },
    Workload {
        name: "apu-nn",
        why: "nine APU models through run_apu under a frozen 504-42-42 NN policy: 25 us per forward, ~94% of wall time, the largest NN slowdown in the repo; apu-sim and apu-workloads do work only here",
    },
    Workload {
        name: "mesh8-hooks",
        why: "short episodes with fault plan, invariant checker, VC controller and a checkpoint-JSON-restore split, construction inside the timed region: opt-in phases, low load and the codec",
    },
    Workload {
        name: "train-synth4",
        why: "the Fig. 5 training recipe (tuned_synthetic 4x4 @ 0.4) through Trainer::run: replay sampling, forward/backward and target sync; the only workload where train_tick/train_sse run",
    },
    Workload {
        name: "service-queue",
        why: "repro queue of six quick figures as a child process, cold then warm: plan/probe/queue/drain/assemble, cache and RunRecord I/O, run_parallel and process start-up",
    },
];

fn m(name: &str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the system sees, measured with tracing off. Every
/// workload reports every one of them (see the README for what an
/// operation is on each workload).
pub fn end_to_end() -> Vec<Metric> {
    let e = |name: &str, unit, better, bound| Metric {
        bound: Some(bound),
        ..m(name, unit, better)
    };
    vec![
        e("sim_cycles_per_s", "1/s", Better::Higher, 0.15),
        e("op_ms_p50", "ms", Better::Lower, 0.15),
        e("op_ms_p90", "ms", Better::Lower, 0.20),
        e("peak_rss_mb", "MB", Better::Lower, 0.15),
        e("setup_s", "s", Better::Lower, 0.25),
    ]
}

/// The six figures `service-queue` runs, in invocation order.
pub const FIGURES: [&str; 6] = [
    "load_sweep",
    "routing",
    "resilience",
    "ablation_routing",
    "extended_policies",
    "selfheal",
];

/// The classical arbiters whose `select` is replayed on the recorded
/// fixture.
pub const REPLAY_ARBITERS: [&str; 5] = ["round-robin", "fifo", "global-age", "islip", "rl-apu"];

/// `(path, batch)` variants of the forward kernels, per network shape.
pub const FWD_VARIANTS: [&str; 7] = [
    "f32.b1", "f32b.b1", "f32b.b4", "f32b.b16", "i8b.b1", "i8b.b4", "i8b.b16",
];

/// Metrics of single layers, `<layer>.<metric>[.<variant>]`, from the
/// traced run. A workload reports 0 for a name whose layer is not on its
/// path; the README says which workload owns each name.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher as H, Lower as L};
    let mut v = vec![
        // noc-sim, measured around the live run on every simulation workload.
        m("noc_sim.self_share", "ratio", L),
        m("noc_sim.ns_per_cycle", "ns", L),
        m("noc_sim.ns_per_grant", "ns", L),
        m("noc_sim.slice_ms_p50", "ms", L),
        m("noc_sim.slice_ms_p90", "ms", L),
        m("noc_sim.grants", "count", H),
        m("noc_sim.arbiter_queries", "count", L),
        m("noc_sim.delivered", "count", H),
        m("noc_sim.latency_cycles", "cycles", L),
        // noc-sim set-up.
        m("noc_sim.new_us.4x4", "us", L),
        m("noc_sim.new_us.8x8", "us", L),
        m("noc_sim.fault_plan_generate_us", "us", L),
        // noc-sim hooks.
        m("noc_sim.hook_cost.faults", "ratio", L),
        m("noc_sim.hook_cost.checker", "ratio", L),
        m("noc_sim.hook_cost.vcctl", "ratio", L),
        m("noc_sim.hook_cost.all", "ratio", L),
        m("noc_sim.checkpoint_ms", "ms", L),
        m("noc_sim.checkpoint_parse_ms", "ms", L),
        m("noc_sim.restore_ms", "ms", L),
        m("noc_sim.checkpoint_kb", "KB", L),
        // noc-sim side points.
        m("noc_sim.cycles_per_s.load005", "1/s", H),
        m("noc_sim.cycles_per_s.load024", "1/s", H),
        m("noc_sim.cycles_per_s.table_routing", "1/s", H),
        m("noc_sim.cycles_per_s.torus_dor", "1/s", H),
        // noc-arbiters.
        m("noc_arbiters.select_ns", "ns", L),
        m("noc_arbiters.share", "ratio", L),
        m("noc_arbiters.candidates_per_query", "count", L),
        m("noc_arbiters.queries_per_cycle", "count", L),
    ];
    for a in REPLAY_ARBITERS {
        v.push(m(&format!("noc_arbiters.select_ns.{a}"), "ns", L));
    }
    v.extend([
        // rl-arb inference.
        m("rl_arb.share", "ratio", L),
        m("rl_arb.select_ns", "ns", L),
        m("rl_arb.plan_router_ns", "ns", L),
        m("rl_arb.selects_per_plan", "count", H),
        m("rl_arb.encode_ns_per_row.w60", "ns", L),
        m("rl_arb.encode_ns_per_row.w504", "ns", L),
        m("rl_arb.cycles_per_s.f32_scalar", "1/s", H),
        m("rl_arb.cycles_per_s.int8", "1/s", H),
        // rl-arb training.
        m("rl_arb.epoch_ms_p50", "ms", L),
        m("rl_arb.epoch_ms_p85", "ms", L),
        m("rl_arb.decide_ns", "ns", L),
        m("rl_arb.train_tick_ns", "ns", L),
        m("rl_arb.replay_sample_ns", "ns", L),
        m("rl_arb.decisions", "count", H),
        m("rl_arb.learn_share_est", "ratio", L),
        m("rl_arb.vcctl_reallocate_ns", "ns", L),
        m("rl_arb.oracle_agreement", "ratio", H),
        m("rl_arb.nn_latency_ratio", "ratio", L),
        m("rl_arb.final_latency_cycles", "cycles", L),
    ]);
    // nn-mlp.
    for shape in ["s60", "s504"] {
        for variant in FWD_VARIANTS {
            v.push(m(
                &format!("nn_mlp.fwd_ns_per_row.{shape}.{variant}"),
                "ns",
                L,
            ));
        }
    }
    v.extend([
        m("nn_mlp.train_sse_ns.s60", "ns", L),
        m("nn_mlp.train_sse_ns.s504", "ns", L),
        // apu-sim.
        m("apu_sim.engine_share", "ratio", L),
        m("apu_sim.pull_ns_per_cycle", "ns", L),
        m("apu_sim.on_delivered_ns", "ns", L),
        m("apu_sim.make_sim_us", "us", L),
        m("apu_sim.completed_share", "ratio", H),
        m("apu_sim.exec_cycles", "cycles", L),
        m("apu_sim.cycles_per_s.classical", "1/s", H),
        // bench::sweep.
        m("bench_sweep.pool_speedup", "ratio", H),
        m("bench_sweep.pool_efficiency", "ratio", H),
    ]);
    // bench::exp.
    for f in FIGURES {
        v.push(m(&format!("bench_exp.cold_s.{f}"), "s", L));
    }
    v.extend([
        m("bench_exp.train_figure_s", "s", L),
        m("bench_exp.cells_per_s", "1/s", H),
        m("bench_exp.cache_store_us", "us", L),
        m("bench_exp.cache_load_us", "us", L),
        m("bench_exp.record_to_json_us", "us", L),
        m("bench_exp.record_from_json_us", "us", L),
        m("bench_exp.queue_drain_us_per_job", "us", L),
        m("bench_exp.artifact_resolve_warm_us", "us", L),
        m("bench_exp.cells", "count", H),
        m("bench_exp.sim_cycles_cold", "count", L),
        // tracing.
        m("trace.overhead", "ratio", L),
    ]);
    v
}

/// What `nocbench list` prints: every declared name with its unit,
/// direction and, for end-to-end metrics, bound.
pub fn list_text() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        out.push_str(&format!("workload {}\n", w.name));
    }
    for m in end_to_end() {
        let bound = m.bound.expect("end-to-end metrics have bounds");
        out.push_str(&format!(
            "end_to_end {} {} {} {bound}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    for m in per_layer() {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{self, field, items, number};
    use bench::exp::record::Json;
    use std::collections::BTreeSet;

    // Panicking forms of the result-file readers: a malformed
    // `BENCHMARK.json` is a test failure.
    fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
        field(v, key).unwrap()
    }
    fn arr(v: &Json) -> &[Json] {
        items(v).unwrap()
    }
    fn text(v: &Json) -> &str {
        report::text(v).unwrap()
    }
    fn num(v: &Json) -> f64 {
        number(v).unwrap()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_count_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer names",
            layers.len()
        );
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(e2e.iter().chain(&layers).map(|m| m.name.clone()));
        for name in names {
            assert!(valid_name(&name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        for metric in e2e.iter().chain(&layers) {
            assert!(metric.unit.len() <= 16, "unit of {}", metric.name);
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// The name set `nocbench list` prints is the one in `BENCHMARK.json`.
    #[test]
    fn list_prints_the_names_of_benchmark_json() {
        let doc = benchmark_json();
        let mut declared = Vec::new();
        for (section, kind) in [
            ("workloads", "workload"),
            ("end_to_end", "end_to_end"),
            ("per_layer", "per_layer"),
        ] {
            for entry in arr(get(&doc, section)) {
                declared.push(format!("{kind} {}", text(get(entry, "name"))));
            }
        }
        let listed: Vec<String> = list_text()
            .lines()
            .map(|l| l.split(' ').take(2).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(listed, declared);
    }

    /// The `[profile.release]` table of a manifest as sorted `key = value`
    /// lines, comments and blank lines dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    /// The numbers must measure the program users build: the benchmark's
    /// release profile is the root manifest's.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        let read = |rel: &str| {
            std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))).unwrap()
        };
        let (ours, root) = (
            release_profile(&read("Cargo.toml")),
            release_profile(&read("../Cargo.toml")),
        );
        assert!(
            !root.is_empty(),
            "the root manifest has a [profile.release] table"
        );
        assert_eq!(ours, root);
    }

    /// `BENCHMARK.json` must declare exactly what the program emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = &benchmark_json();
        let Json::Obj(fields) = doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(num(get(doc, "run_seconds")) as u64, RUN_SECONDS);
        assert_eq!(
            arr(get(doc, "paths")).iter().map(text).collect::<Vec<_>>(),
            ["benchmark"]
        );

        let workloads: Vec<(String, String)> = arr(get(doc, "workloads"))
            .iter()
            .map(|w| (text(get(w, "name")).into(), text(get(w, "why")).into()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, ours);

        let metrics = |key: &str| -> Vec<Metric> {
            arr(get(doc, key))
                .iter()
                .map(|e| {
                    let Json::Obj(fields) = e else {
                        panic!("metric entry is not an object")
                    };
                    Metric {
                        name: text(get(e, "name")).into(),
                        // Leaked so the parsed unit can sit in the same type as the tables'.
                        unit: Box::leak(text(get(e, "unit")).to_string().into_boxed_str()),
                        better: match text(get(e, "better")) {
                            "higher" => Better::Higher,
                            "lower" => Better::Lower,
                            other => panic!("bad direction {other}"),
                        },
                        bound: fields
                            .iter()
                            .find(|(k, _)| k == "bound")
                            .map(|(_, b)| num(b)),
                    }
                })
                .collect()
        };
        assert_eq!(metrics("end_to_end"), end_to_end());
        assert_eq!(metrics("per_layer"), per_layer());
    }
}

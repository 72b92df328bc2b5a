//! Fuzz-style robustness tests for every reader built on the shared
//! lexer in `noc_sim::codec`.
//!
//! The readers ingest files written by older versions of the tool, by
//! other machines, and — in regression tooling — by hand. The contract
//! under byte-level damage is *structured failure*: every mutated or
//! truncated document either parses or returns an `Err` (`None` from the
//! self-repairing result cache), and never panics, loops, or aborts the
//! process. One valid document of each kind goes through the same loop.

use proptest::prelude::*;

use bench::exp::search::SearchPointRecord;
use bench::exp::{CellRecord, ResultCache, RunRecord, SearchRecord, SEARCH_SCHEMA_VERSION};
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{
    FaultPlan, Pattern, SimCheckpoint, SimConfig, Simulator, SplitMix64, SyntheticTraffic,
    Topology,
};

/// A valid document and its reader (`true` = it parsed).
struct Corpus {
    name: &'static str,
    doc: String,
    parses: Box<dyn Fn(&str) -> bool>,
}

fn corpus(name: &'static str, doc: &str, parses: impl Fn(&str) -> bool + 'static) -> Corpus {
    // Trailing whitespace is insignificant, so strict prefixes are taken
    // of the trimmed text: each one then lacks a closing brace.
    Corpus { name, doc: doc.trim_end().to_string(), parses: Box::new(parses) }
}

fn fuzz_sim(seed: u64) -> Simulator<SyntheticTraffic> {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let cfg = SimConfig::synthetic(4, 4);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.15, cfg.num_vnets, seed);
    Simulator::new(topo, cfg, make_arbiter(PolicyKind::GlobalAge, seed), traffic).unwrap()
}

/// A mid-run snapshot carrying every optional block the format has but
/// the controller's: in-flight packets, a fault plan, checker books.
fn snapshot() -> String {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let mut sim = fuzz_sim(5);
    sim.set_fault_plan(&FaultPlan::generate(5, 0.5, &topo, 400));
    sim.enable_invariant_checker();
    sim.run(200);
    sim.checkpoint().unwrap().to_json().to_string()
}

fn search_record() -> SearchRecord {
    SearchRecord {
        schema_version: SEARCH_SCHEMA_VERSION,
        driver: "hc".into(),
        base_seed: 42,
        budget: 8,
        tier: "quick".into(),
        git_describe: "abc1234".into(),
        space_hash: "00ff00ff00ff00ff".into(),
        axes: vec![("size".into(), vec!["4x4".into(), "6x6".into()])],
        points: vec![SearchPointRecord {
            index: 0,
            round: 1,
            op: "init".into(),
            ordinals: vec![0, 1],
            labels: vec!["4x4".into(), "mesh-wfa".into()],
            spec_hash: "0123456789abcdef".into(),
            latency: 12.125,
            throughput: 0.30000000000000004,
            gates: 150000.5,
            score: 6062575.0,
            cache: "miss".into(),
        }],
        pareto: vec![0],
    }
}

/// `test` names the calling test: tests run on parallel threads and must
/// not share the cache entry they rewrite.
fn corpora(test: &str) -> Vec<Corpus> {
    const HASH: &str = "0011223344556677";
    let cache = ResultCache::new(
        std::env::temp_dir().join(format!("bench-codec-fuzz-{test}-{}", std::process::id())),
    );
    let cell = CellRecord {
        scenario: "4x4".into(),
        policy: "global_age".into(),
        seed: 7,
        artifact: None,
        fault_plan: Some("fedcba9876543210".into()),
        cell_hash: None,
        cache: None,
        metrics: vec![("avg_latency".into(), 12.5), ("p99".into(), 40.0)],
    };
    let entry = std::fs::read_to_string(cache.store(HASH, &cell).unwrap()).unwrap();
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    vec![
        corpus("RunRecord", include_str!("golden/run_record_v2.json"), |t| {
            RunRecord::from_json(t).is_ok()
        }),
        corpus(
            "Checkpoint",
            include_str!("../../rl-arb/tests/golden/checkpoint_v1.json"),
            |t| rl_arb::Checkpoint::from_json(t).is_ok(),
        ),
        corpus("FaultPlan", &FaultPlan::generate(7, 0.5, &topo, 10_000).to_json(), |t| {
            FaultPlan::from_json(t).is_ok()
        }),
        // `from_json` checks syntax and version; the fields are decoded
        // when the snapshot is applied to a fresh simulator.
        corpus("SimCheckpoint", &snapshot(), |t| {
            SimCheckpoint::from_json(t)
                .and_then(|ck| fuzz_sim(5).restore_checkpoint(&ck))
                .is_ok()
        }),
        corpus("cache cell", &entry, move |t| {
            std::fs::write(cache.path_for(HASH), t).unwrap();
            cache.load(HASH).is_some()
        }),
        corpus("SearchRecord", &search_record().to_json(), |t| {
            SearchRecord::from_json(t).is_ok()
        }),
    ]
}

/// Applies `n` seeded single-byte mutations (printable ASCII, so the
/// result stays valid UTF-8 — every corpus document is pure ASCII).
fn mutate(doc: &str, seed: u64, n: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        let pos = rng.next_bounded(bytes.len() as u64) as usize;
        bytes[pos] = 0x20 + rng.next_bounded(0x5f) as u8;
    }
    String::from_utf8(bytes).expect("ascii mutations keep ascii")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single- and multi-byte corruptions never panic a reader.
    #[test]
    fn mutated_documents_never_panic(seed in any::<u64>(), burst in any::<u32>()) {
        let n = 1 + (burst as usize % 8);
        for c in corpora("mutated") {
            // Ok (mutation hit insignificant whitespace / a value that
            // still validates) and Err are both acceptable; a panic fails
            // the test.
            let _ = (c.parses)(&mutate(&c.doc, seed, n));
        }
    }

    /// Truncation at every prefix length yields a structured error, not
    /// a panic.
    #[test]
    fn truncated_documents_never_panic(cut in any::<u64>()) {
        for c in corpora("truncated") {
            let len = (cut % c.doc.len() as u64) as usize;
            prop_assert!(
                !(c.parses)(&c.doc[..len]),
                "a strict prefix of the {} document must not parse", c.name
            );
        }
    }
}

/// The unmutated documents still parse — the fuzz corpus is live.
#[test]
fn corpus_documents_parse() {
    for c in corpora("live") {
        assert!((c.parses)(&c.doc), "the {} document parses", c.name);
    }
}

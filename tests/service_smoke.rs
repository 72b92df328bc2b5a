//! Tier-1 smoke of the layers the facade tests never reach: the
//! experiment service (plan / probe / queue / drain / assemble, result
//! cache and RunRecord I/O) and the simulator snapshot codec.

use std::sync::Mutex;

use bench::exp::driver::run_figures_queued;
use bench::CliArgs;
use ml_noc::noc_arbiters::{make_arbiter, PolicyKind};
use ml_noc::noc_sim::{
    simulated_cycles, Pattern, SimCheckpoint, SimConfig, Simulator, SyntheticTraffic, Topology,
};

/// `simulated_cycles` is process-wide, and the harness runs tests on
/// parallel threads: whoever simulates holds this.
static SIMULATING: Mutex<()> = Mutex::new(());

#[test]
fn warm_figure_answers_from_the_cache_with_the_same_record() {
    let _guard = SIMULATING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("ml-noc-service-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = |run: &str| CliArgs {
        quick: true,
        quiet: true,
        out_dir: dir.join(run),
        artifacts_dir: dir.join("artifacts"),
        cache_dir: dir.join("cache"),
        ..CliArgs::default()
    };

    let mut cold = run_figures_queued(&["routing"], &args("cold")).unwrap().remove(0);
    assert!(!cold.cells.is_empty());
    assert!(cold.cells.iter().all(|c| c.cache.as_deref() == Some("miss")));

    let before = simulated_cycles();
    let mut warm = run_figures_queued(&["routing"], &args("warm")).unwrap().remove(0);
    assert_eq!(simulated_cycles(), before, "a warm run simulates nothing");
    assert!(warm.cells.iter().all(|c| c.cache.as_deref() == Some("hit")));

    for cell in cold.cells.iter_mut().chain(&mut warm.cells) {
        cell.cache = None;
    }
    assert_eq!(cold, warm);
    let file = |run: &str, name: &str| std::fs::read(dir.join(run).join(name)).unwrap();
    assert_eq!(file("cold", "routing.csv"), file("warm", "routing.csv"));
    assert!(!file("cold", "routing.json").is_empty() && !file("warm", "routing.json").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

fn sim(seed: u64) -> Simulator<SyntheticTraffic> {
    sim_with(PolicyKind::GlobalAge, seed)
}

fn sim_with(kind: PolicyKind, seed: u64) -> Simulator<SyntheticTraffic> {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let cfg = SimConfig::synthetic(4, 4);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.2, cfg.num_vnets, seed);
    Simulator::new(topo, cfg, make_arbiter(kind, seed), traffic).unwrap()
}

#[test]
fn a_run_split_through_snapshot_text_matches_the_unsplit_run() {
    let _guard = SIMULATING.lock().unwrap_or_else(|e| e.into_inner());
    let mut whole = sim(9);
    whole.run(1_500);

    let mut first = sim(9);
    first.run(600);
    let text = first.checkpoint().unwrap().to_json().to_string();
    drop(first);
    let mut second = sim(9);
    second
        .restore_checkpoint(&SimCheckpoint::from_json(&text).unwrap())
        .unwrap();
    second.run(900);

    assert_eq!(format!("{:?}", second.stats()), format!("{:?}", whole.stats()));
    assert_eq!(
        second.checkpoint().unwrap().content_hash(),
        whole.checkpoint().unwrap().content_hash()
    );
}

#[test]
fn a_snapshot_naming_a_router_that_does_not_exist_is_refused() {
    let _guard = SIMULATING.lock().unwrap_or_else(|e| e.into_inner());
    let mut first = sim(4);
    first.run(600);
    let text = first.checkpoint().unwrap().to_json().to_string();

    // Rewrite the first arrival bound for a router, `[due,0,router,...`,
    // to router 999 of a 16-router mesh.
    let (head, tail) = text.split_at(text.find("\"arrivals\"").unwrap());
    let record = tail
        .lines()
        .find(|l| l.split(',').nth(1) == Some("0"))
        .expect("an arrival bound for a router");
    let mut fields: Vec<&str> = record.split(',').collect();
    fields[2] = "999";
    let bad = format!("{head}{}", tail.replacen(record, &fields.join(","), 1));

    // A refused restore leaves the simulator untouched, so the same
    // simulator then takes the untouched text and resumes the run.
    let mut resumed = sim(4);
    let err = resumed
        .restore_checkpoint(&SimCheckpoint::from_json(&bad).unwrap())
        .unwrap_err();
    assert!(err.contains("router 999"), "{err}");
    assert_eq!(resumed.cycle(), 0);
    resumed
        .restore_checkpoint(&SimCheckpoint::from_json(&text).unwrap())
        .unwrap();
    resumed.run(100);
    assert_eq!(resumed.cycle(), 700);
    first.run(100);
    assert_eq!(format!("{:?}", resumed.stats()), format!("{:?}", first.stats()));
}

#[test]
fn a_snapshot_with_a_longer_packet_on_a_link_restores_and_steps() {
    let _guard = SIMULATING.lock().unwrap_or_else(|e| e.into_inner());
    let mut first = sim(4);
    first.run(600);
    let text = first.checkpoint().unwrap().to_json().to_string();

    // Lengthen the first one-flit packet bound for a router,
    // `[due,0,router,in_port,vnet,id,…]` with `len_flits` (field 11) 1,
    // to two flits. Restore derives the downstream buffer's reservation
    // from the packets on links, so the arrival finds credit for both.
    let (head, tail) = text.split_at(text.find("\"arrivals\"").unwrap());
    let arrivals = &tail[..tail.find("\"tx_ends_cursor\"").unwrap()];
    let record = arrivals
        .lines()
        .find(|l| {
            let fields: Vec<&str> = l.split(',').collect();
            fields.get(1) == Some(&"0") && fields.get(11) == Some(&"1")
        })
        .expect("a one-flit packet bound for a router");
    let mut fields: Vec<&str> = record.split(',').collect();
    fields[11] = "2";
    let longer = format!("{head}{}", tail.replacen(record, &fields.join(","), 1));

    let mut resumed = sim(4);
    resumed
        .restore_checkpoint(&SimCheckpoint::from_json(&longer).unwrap())
        .unwrap();
    resumed.run(100);
    assert_eq!(resumed.cycle(), 700);
}

#[test]
fn a_round_robin_pointer_far_out_of_range_restores_and_steps() {
    let _guard = SIMULATING.lock().unwrap_or_else(|e| e.into_inner());
    let mut first = sim_with(PolicyKind::RoundRobin, 4);
    first.run(600);
    let text = first.checkpoint().unwrap().to_json().to_string();

    // The round-robin state is `n` and then `n` × (router, output,
    // pointer) words. Set the first pointer to 1000; a router of this
    // mesh rotates over 15 input slots.
    let key = "\"arbiter\": \"";
    let start = text.find(key).unwrap() + key.len();
    let end = start + text[start..].find('"').unwrap();
    let mut words: Vec<&str> = text[start..end].split(' ').collect();
    words[3] = "1000";
    let far = format!("{}{}{}", &text[..start], words.join(" "), &text[end..]);

    let mut resumed = sim_with(PolicyKind::RoundRobin, 4);
    resumed
        .restore_checkpoint(&SimCheckpoint::from_json(&far).unwrap())
        .unwrap();
    resumed.run(300);
    assert_eq!(resumed.cycle(), 900);
}

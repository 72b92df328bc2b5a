//! Property-based tests: every policy is safe on arbitrary candidate sets.

use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{
    Candidate, DestType, Features, MsgType, NetSnapshot, NodeId, OutputCtx, Pattern, RouterId,
    SimCheckpoint, SimConfig, Simulator, SyntheticTraffic, Topology,
};
use proptest::prelude::*;

fn candidate_strategy(num_ports: usize, num_vnets: usize) -> impl Strategy<Value = Candidate> {
    (
        0..num_ports,
        0..num_vnets,
        1u32..6,
        0u64..500,
        0u32..15,
        0u32..15,
        0u64..1000,
        0u8..3,
        0u8..3,
        any::<u64>(),
    )
        .prop_map(
            move |(port, vnet, payload, la, dist, hops, create, mt, dt, id)| Candidate {
                in_port: port,
                vnet,
                slot: port * num_vnets + vnet,
                features: Features {
                    payload_size: payload,
                    local_age: la,
                    distance: dist,
                    hop_count: hops.min(dist),
                    in_flight_from_src: 3,
                    inter_arrival: la / 2,
                    msg_type: MsgType::ALL[mt as usize],
                    dst_type: DestType::ALL[dt as usize],
                },
                packet_id: id,
                create_cycle: create,
                arrival_cycle: create + la,
                src: NodeId(0),
                dst: NodeId(1),
                port_degraded: false,
            },
        )
}

proptest! {
    /// Every policy returns an in-range index (or None) for arbitrary
    /// candidate lists, across many consecutive invocations.
    #[test]
    fn policies_return_valid_indices(
        seed in any::<u64>(),
        cands in proptest::collection::vec(candidate_strategy(6, 7), 1..12),
        cycles in 1u64..20,
    ) {
        // De-duplicate slots: the simulator never presents two candidates
        // from the same buffer.
        let mut seen = std::collections::HashSet::new();
        let cands: Vec<Candidate> =
            cands.into_iter().filter(|c| seen.insert(c.slot)).collect();
        prop_assume!(!cands.is_empty());
        let net = NetSnapshot::default();
        for kind in PolicyKind::ALL {
            let mut arb = make_arbiter(kind, seed);
            for cycle in 0..cycles {
                let ctx = OutputCtx {
                    router: RouterId(3),
                    out_port: (cycle % 6) as usize,
                    cycle,
                    num_ports: 6,
                    num_vnets: 7,
                    candidates: &cands,
                    net: &net,
                };
                if let Some(i) = arb.select(&ctx) {
                    prop_assert!(i < cands.len(), "{kind} returned {i} of {}", cands.len());
                }
            }
        }
    }

    /// Deterministic policies pick the same winner for the same input.
    #[test]
    fn deterministic_policies_are_deterministic(
        cands in proptest::collection::vec(candidate_strategy(5, 3), 2..8),
    ) {
        let mut seen = std::collections::HashSet::new();
        let cands: Vec<Candidate> =
            cands.into_iter().filter(|c| seen.insert(c.slot)).collect();
        prop_assume!(cands.len() >= 2);
        let net = NetSnapshot::default();
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 1,
            cycle: 50,
            num_ports: 5,
            num_vnets: 3,
            candidates: &cands,
            net: &net,
        };
        for kind in [
            PolicyKind::Fifo,
            PolicyKind::GlobalAge,
            PolicyKind::LocalAge,
            PolicyKind::RlSynth4x4,
            PolicyKind::RlSynth8x8,
            PolicyKind::RlApu,
            PolicyKind::Algorithm2,
        ] {
            let a = make_arbiter(kind, 1).select(&ctx);
            let b = make_arbiter(kind, 2).select(&ctx);
            prop_assert_eq!(a, b, "{} differed across instances", kind);
        }
    }

    /// Global-age always selects a candidate with the minimal creation
    /// cycle.
    #[test]
    fn global_age_selects_a_minimal_creation_cycle(
        cands in proptest::collection::vec(candidate_strategy(5, 3), 2..10),
    ) {
        let mut seen = std::collections::HashSet::new();
        let cands: Vec<Candidate> =
            cands.into_iter().filter(|c| seen.insert(c.slot)).collect();
        prop_assume!(cands.len() >= 2);
        let net = NetSnapshot::default();
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 1_000,
            num_ports: 5,
            num_vnets: 3,
            candidates: &cands,
            net: &net,
        };
        let chosen = make_arbiter(PolicyKind::GlobalAge, 0).select(&ctx).unwrap();
        let min = cands.iter().map(|c| c.create_cycle).min().unwrap();
        prop_assert_eq!(cands[chosen].create_cycle, min);
    }

    /// The distilled policy always grants a starving packet over any
    /// non-starving one (the §6.4 guarantee).
    #[test]
    fn distilled_policy_prefers_starving_packets(
        cands in proptest::collection::vec(candidate_strategy(6, 7), 2..10),
        which in 0usize..10,
    ) {
        let mut seen = std::collections::HashSet::new();
        let mut cands: Vec<Candidate> =
            cands.into_iter().filter(|c| seen.insert(c.slot)).collect();
        prop_assume!(cands.len() >= 2);
        // Make exactly one candidate starving, all others fresh.
        let idx = which % cands.len();
        for (i, c) in cands.iter_mut().enumerate() {
            c.features.local_age = if i == idx { 30 } else { 3 };
        }
        let net = NetSnapshot::default();
        let ctx = OutputCtx {
            router: RouterId(0),
            out_port: 0,
            cycle: 10_000,
            num_ports: 6,
            num_vnets: 7,
            candidates: &cands,
            net: &net,
        };
        let chosen = make_arbiter(PolicyKind::RlApu, 0).select(&ctx).unwrap();
        prop_assert_eq!(chosen, idx, "starving candidate was not granted");
    }
}

/// A 4x4 mesh under uniform random traffic at 0.3, traffic and arbiter
/// seed 9.
fn mesh_sim(kind: PolicyKind) -> Simulator<SyntheticTraffic> {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let cfg = SimConfig::synthetic(4, 4);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.3, cfg.num_vnets, 9);
    Simulator::new(topo, cfg, make_arbiter(kind, 9), traffic).unwrap()
}

/// Restores snapshot `text` onto a fresh `kind` simulator.
fn restored(kind: PolicyKind, text: &str) -> Simulator<SyntheticTraffic> {
    let mut sim = mesh_sim(kind);
    sim.restore_checkpoint(&SimCheckpoint::from_json(text).unwrap())
        .unwrap();
    sim
}

/// Every registered policy's hook state carries a run across a split: a
/// run checkpointed at cycle 400 and restored from the snapshot text onto
/// a fresh simulator ends at cycle 1,000 with the unsplit run's stats.
#[test]
fn every_policy_splits_through_snapshot_text() {
    for kind in PolicyKind::ALL {
        let mut whole = mesh_sim(kind);
        whole.run(1_000);
        let mut first = mesh_sim(kind);
        first.run(400);
        let text = first.checkpoint().unwrap().to_json().to_string();
        let mut second = restored(kind, &text);
        second.run(600);
        assert_eq!(
            format!("{:?}", second.stats()),
            format!("{:?}", whole.stats()),
            "{kind}"
        );
    }
}

/// `text` with every rotation pointer of its arbiter state set to `word`:
/// the words `pointers` picks out of the state.
fn with_pointers(text: &str, word: &str, pointers: fn(&[&str]) -> Vec<usize>) -> String {
    let key = "\"arbiter\": \"";
    let start = text.find(key).unwrap() + key.len();
    let end = start + text[start..].find('"').unwrap();
    let mut words: Vec<&str> = text[start..end].split(' ').collect();
    for at in pointers(&words) {
        words[at] = word;
    }
    format!("{}{}{}", &text[..start], words.join(" "), &text[end..])
}

/// A restored rotation pointer is reduced to the width the arbiter sees
/// when it uses it: iSLIP grant and accept pointers and wavefront
/// offsets far out of range restore, and the run goes on.
#[test]
fn rotation_pointers_out_of_range_restore_and_run() {
    // iSLIP: `n`, then `n` × (router, output, grant pointer), then `m`
    // and `m` × (router, input, accept pointer).
    let islip: fn(&[&str]) -> Vec<usize> = |w| {
        let grants: usize = w[0].parse().unwrap();
        let accepts: usize = w[1 + 3 * grants].parse().unwrap();
        let grant_ptrs = (0..grants).map(|i| 3 + 3 * i);
        grant_ptrs
            .chain((0..accepts).map(|i| 4 + 3 * (grants + i)))
            .collect()
    };
    // Wavefront: `n`, then `n` × (router, offset).
    let wavefront: fn(&[&str]) -> Vec<usize> = |w| {
        let n: usize = w[0].parse().unwrap();
        (0..n).map(|i| 2 + 2 * i).collect()
    };
    let max = u64::MAX.to_string();
    for (kind, pointers) in [
        (PolicyKind::Islip, islip),
        (PolicyKind::Wavefront, wavefront),
    ] {
        let mut first = mesh_sim(kind);
        first.run(400);
        let text = first.checkpoint().unwrap().to_json().to_string();
        for word in ["1000", &max] {
            let far = with_pointers(&text, word, pointers);
            assert!(far.len() > text.len(), "{kind}: no pointer rewritten");
            let mut sim = restored(kind, &far);
            sim.run(300);
            assert_eq!(sim.cycle(), 700, "{kind}");
        }
    }
}

//! Kernel loops: `select`, `encode`, `forward` and `train_sse` replayed on
//! candidate sets recorded from a live run, outside the simulator. Inputs
//! and results go through `black_box`.

use std::hint::black_box;

use nn_mlp::{Mlp, QuantScratch, QuantizedMlp, Scratch};
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{Arbiter, SimConfig, Topology};
use rl_arb::{NnPolicyArbiter, StateEncoder};

use crate::layers::synthetic_sim;
use crate::run::Outcome;
use crate::spec::{FWD_VARIANTS, REPLAY_ARBITERS};
use crate::stats::ns_per_call;
use crate::trace::{Fixture, Recorded, RecordingArbiter, FIXTURE_LEN};

/// Records a fixture from a live `width`×`width` mesh under global-age at
/// `rate` (full feature vectors, see [`RecordingArbiter`]).
pub fn record_mesh_fixture(width: u16, rate: f64, seed: u64) -> Vec<Recorded> {
    let topo = Topology::uniform_mesh(width, width).expect("valid mesh");
    let cfg = SimConfig::synthetic(width, width);
    let sink: Fixture = Fixture::default();
    let arbiter = RecordingArbiter::new(make_arbiter(PolicyKind::GlobalAge, seed), sink.clone());
    let mut sim = synthetic_sim(topo, cfg, Box::new(arbiter), rate, seed);
    sim.run(500); // past the empty-network transient
    sink.borrow_mut().clear();
    while sink.borrow().len() < FIXTURE_LEN {
        assert!(
            sim.cycle() < 200_000,
            "the mesh never contends at rate {rate}"
        );
        sim.run(100);
    }
    drop(sim);
    sink.take()
}

/// Nanoseconds per `plan_router` + `select` of one recorded output, the
/// call sequence the simulator makes for a contended port.
pub fn replay_select_ns(arbiter: &mut dyn Arbiter, fixture: &[Recorded]) -> f64 {
    let mut i = 0;
    ns_per_call(|| {
        let rec = black_box(&fixture[i]);
        arbiter.plan_router(&rec.router_ctx());
        black_box(arbiter.select(&rec.output_ctx()));
        i = (i + 1) % fixture.len();
    })
}

/// `noc_arbiters.select_ns.<arbiter>` for the five replayed policies.
pub fn classical_select_kernels(out: &mut Outcome, fixture: &[Recorded], seed: u64) {
    for name in REPLAY_ARBITERS {
        let kind: PolicyKind = name.parse().expect("a registry name");
        let mut arbiter = make_arbiter(kind, seed);
        let ns = replay_select_ns(arbiter.as_mut(), fixture);
        out.set(&format!("noc_arbiters.select_ns.{name}"), ns);
    }
}

/// Nanoseconds to encode one candidate set into its state row.
fn encode_ns_per_row(encoder: &StateEncoder, fixture: &[Recorded]) -> f64 {
    let mut buf = Vec::with_capacity(encoder.state_width());
    let mut i = 0;
    ns_per_call(|| {
        buf.clear();
        encoder.encode_append(&black_box(&fixture[i]).output_ctx(), &mut buf);
        black_box(&buf);
        i = (i + 1) % fixture.len();
    })
}

/// The encode, forward and train kernels of a frozen policy whose input is
/// `width` wide: `rl_arb.encode_ns_per_row.w<width>` and the `nn_mlp.*`
/// rows of shape `s<width>`.
pub fn policy_kernels(
    out: &mut Outcome,
    width: &str,
    policy: &NnPolicyArbiter,
    fixture: &[Recorded],
) {
    let encoder = policy.encoder();
    out.set(
        &format!("rl_arb.encode_ns_per_row.w{width}"),
        encode_ns_per_row(encoder, fixture),
    );
    let states: Vec<Vec<f64>> = fixture
        .iter()
        .map(|r| encoder.encode(&r.output_ctx()))
        .collect();
    mlp_kernels(out, &format!("s{width}"), policy.network(), &states);
}

/// `nn_mlp.fwd_ns_per_row.<shape>.<path>.<batch>` (seven variants over
/// `forward_into`, `forward_batch_into` and the INT8 batch kernel) and
/// `nn_mlp.train_sse_ns.<shape>`.
fn mlp_kernels(out: &mut Outcome, shape: &str, net: &Mlp, states: &[Vec<f64>]) {
    let width = net.input_size();
    // Row-major batches of consecutive fixture rows, as `plan_router` builds them.
    let batches =
        |rows: usize| -> Vec<Vec<f64>> { states.chunks_exact(rows).map(|c| c.concat()).collect() };
    let qnet = QuantizedMlp::from_mlp(net);
    for variant in FWD_VARIANTS {
        let (path, batch) = variant.split_once(".b").expect("variant is <path>.b<rows>");
        let rows: usize = batch.parse().expect("batch size");
        let inputs = batches(rows);
        assert!(inputs.iter().all(|b| b.len() == rows * width));
        let mut i = 0;
        let per_batch = match path {
            "f32" => {
                let mut scratch = Scratch::for_net(net);
                ns_per_call(|| {
                    black_box(net.forward_into(black_box(&inputs[i]), &mut scratch));
                    i = (i + 1) % inputs.len();
                })
            }
            "f32b" => {
                let mut scratch = Scratch::for_net(net);
                ns_per_call(|| {
                    black_box(net.forward_batch_into(black_box(&inputs[i]), rows, &mut scratch));
                    i = (i + 1) % inputs.len();
                })
            }
            "i8b" => {
                let mut scratch = QuantScratch::new();
                ns_per_call(|| {
                    black_box(qnet.forward_batch_into(black_box(&inputs[i]), rows, &mut scratch));
                    i = (i + 1) % inputs.len();
                })
            }
            other => unreachable!("unknown forward path {other}"),
        };
        out.set(
            &format!("nn_mlp.fwd_ns_per_row.{shape}.{variant}"),
            per_batch / rows as f64,
        );
    }

    // One SGD step per row towards the net's own output with one entry
    // moved, the shape of a Bellman target.
    let mut trained = net.clone();
    let targets: Vec<Vec<f64>> = states
        .iter()
        .map(|s| {
            let mut t = net.forward(s);
            t[0] += 0.5;
            t
        })
        .collect();
    let mut i = 0;
    let ns = ns_per_call(|| {
        black_box(trained.train_sse(black_box(&states[i]), &targets[i], 0.001, 1.0));
        i = (i + 1) % states.len();
    });
    out.set(&format!("nn_mlp.train_sse_ns.{shape}"), ns);
}

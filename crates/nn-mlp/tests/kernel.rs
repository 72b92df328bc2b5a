//! The float kernel's bits: a pin over the paper's two agent shapes, and a
//! property test of `DenseLayer`'s forward and backward passes against
//! naive row-major loops written here.
//!
//! Every arbitration decision, training curve and figure byte of the
//! reproduction flows through these loops, so a kernel change must keep
//! each output's accumulation order: `bias + w₀x₀ + w₁x₁ + …`, one add at a
//! time, inputs ascending. Values are compared by their bits (any NaN
//! equals any NaN: its payload is not specified).

use nn_mlp::{Activation, DenseLayer, Mlp, Scratch};
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv(hash: &mut u64, values: &[f64]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
}

/// SplitMix64: a seed-determined stream with no dependency on `rand`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A sparse state-like input: two in five values are `0.0`, one in five
/// is `-0.0`, the rest lie in `[-0.5, 1.0)`.
fn sparse_input(width: usize, key: u64) -> Vec<f64> {
    let mut s = Stream(key);
    (0..width)
        .map(|_| match s.below(5) {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => s.uniform(-0.5, 1.0),
        })
        .collect()
}

/// Every weight in row-major order (`o` outer, `i` inner), then the biases,
/// layer by layer.
fn parameters(net: &Mlp) -> Vec<f64> {
    let mut all = Vec::new();
    for layer in net.layers() {
        for o in 0..layer.outputs() {
            all.extend((0..layer.inputs()).map(|i| layer.weight(o, i)));
        }
        all.extend_from_slice(layer.biases());
    }
    all
}

/// Hashes `forward_into` on eight inputs, `forward_batch_into` on one to
/// four rows, the losses and parameters of 50 `train_sse` steps, and
/// `forward_into` again on the trained network.
fn kernel_hash(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> u64 {
    let mut net = Mlp::paper_agent(inputs, hidden, outputs, seed);
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|k| sparse_input(inputs, seed ^ (k << 32)))
        .collect();
    let mut hash = FNV_OFFSET;
    let mut scratch = Scratch::new();
    for x in &xs {
        fnv(&mut hash, net.forward_into(x, &mut scratch));
    }
    for rows in 1..=4 {
        let batch: Vec<f64> = xs[..rows].concat();
        fnv(
            &mut hash,
            net.forward_batch_into(&batch, rows, &mut scratch),
        );
    }
    for step in 0..50 {
        let x = &xs[step % xs.len()];
        let mut target = net.forward(x);
        target[step % outputs] += if step % 3 == 0 { 1.0 } else { -0.25 };
        let loss = net.train_sse(x, &target, 0.05, 1.0);
        fnv(&mut hash, &[loss]);
    }
    fnv(&mut hash, &parameters(&net));
    for x in &xs {
        fnv(&mut hash, net.forward_into(x, &mut scratch));
    }
    hash
}

/// The float kernel's output bits for the synthetic (60→15→15) and APU
/// (504→42→42) agents. A layout or loop change that moves one bit of one
/// Q-value, batch row, loss or trained weight fails here.
#[test]
fn kernel_bits_are_pinned() {
    assert_eq!(
        format!("{:016x}", kernel_hash(60, 15, 15, 7)),
        "0ecfd3bf8913c9eb"
    );
    assert_eq!(
        format!("{:016x}", kernel_hash(504, 42, 42, 11)),
        "08ece406920ab520"
    );
}

/// Bit equality, with every NaN equal to every other.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_all(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same(x, y))
}

/// A layer held the obvious way: `w[o][i]`, row-major.
struct Naive {
    inputs: usize,
    w: Vec<f64>,
    b: Vec<f64>,
    act: Activation,
}

impl Naive {
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.b
            .iter()
            .enumerate()
            .map(|(o, &bias)| {
                let mut acc = bias;
                for (w, x) in self.w[o * self.inputs..][..self.inputs].iter().zip(x) {
                    acc += w * x;
                }
                self.act.apply(acc)
            })
            .collect()
    }

    fn backward(&mut self, x: &[f64], y: &[f64], g: &[f64], lr: f64, clip: f64) -> Vec<f64> {
        let mut grad_input = vec![0.0; self.inputs];
        for o in 0..self.b.len() {
            let delta = g[o] * self.act.derivative_from_output(y[o]);
            if delta == 0.0 {
                continue;
            }
            let row = &mut self.w[o * self.inputs..][..self.inputs];
            for ((w, x), g) in row.iter_mut().zip(x).zip(&mut grad_input) {
                *g += delta * *w;
                *w -= lr * (delta * x).clamp(-clip, clip);
            }
            self.b[o] -= lr * delta.clamp(-clip, clip);
        }
        grad_input
    }

    fn matches(&self, layer: &DenseLayer) -> bool {
        let outputs = self.b.len();
        (0..outputs).all(|o| {
            (0..self.inputs).all(|i| same(layer.weight(o, i), self.w[o * self.inputs + i]))
        }) && same_all(layer.biases(), &self.b)
    }
}

/// A weight or bias: mostly finite, with exact zeros of both signs.
fn parameter(s: &mut Stream) -> f64 {
    match s.below(10) {
        0 => 0.0,
        1 => -0.0,
        _ => s.uniform(-2.0, 2.0),
    }
}

/// An input: exact zeros of both signs are common; one value in sixty is
/// infinite (which makes `0 · ∞ = NaN` against a zero weight).
fn input_value(s: &mut Stream) -> f64 {
    match s.below(60) {
        0..=19 => 0.0,
        20..=29 => -0.0,
        30 => f64::INFINITY,
        _ => s.uniform(-1.5, 1.5),
    }
}

const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Sigmoid,
    Activation::Relu,
    Activation::Tanh,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Forward (all three entry points) and backward agree bit for bit
    /// with the naive row-major loops, on layers that include `-0.0`
    /// biases and ±∞/NaN weights (where zero inputs must not be skipped),
    /// and on layers with neither (where they may be).
    #[test]
    fn kernel_matches_naive_row_major_loops(seed in any::<u64>()) {
        let mut s = Stream(seed);
        let inputs = 1 + s.below(24) as usize;
        let outputs = 1 + s.below(12) as usize;
        let act = ACTIVATIONS[s.below(4) as usize];
        let mut w: Vec<f64> = (0..inputs * outputs).map(|_| parameter(&mut s)).collect();
        // A quarter of the layers carry one non-finite weight.
        if s.below(4) == 0 {
            let at = s.below(w.len() as u64) as usize;
            w[at] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][s.below(3) as usize];
        }
        // About one layer in three carries a `-0.0` bias; the rest carry
        // none.
        let mut b: Vec<f64> = (0..outputs).map(|_| s.uniform(-1.0, 1.0)).collect();
        for bias in &mut b {
            match s.below(3 * outputs as u64) {
                0 => *bias = -0.0,
                1 => *bias = 0.0,
                _ => {}
            }
        }
        let mut layer = DenseLayer::from_parts(inputs, outputs, w.clone(), b.clone(), act);
        let mut naive = Naive { inputs, w, b, act };
        prop_assert!(naive.matches(&layer), "from_parts moved a parameter");

        let rows = s.below(5) as usize;
        let batch: Vec<f64> = (0..rows.max(1) * inputs).map(|_| input_value(&mut s)).collect();
        let x = &batch[..inputs];
        let expect = naive.forward(x);
        let got = layer.forward(x);
        prop_assert!(same_all(&got, &expect), "forward {:?} != naive {:?}", got, expect);
        let mut out = vec![f64::NAN; 3];
        layer.forward_into(x, &mut out);
        prop_assert!(same_all(&out, &expect), "forward_into {:?} != naive {:?}", out, expect);
        layer.forward_batch_into(&batch[..rows * inputs], rows, &mut out);
        let expect_batch: Vec<f64> =
            batch[..rows * inputs].chunks(inputs).flat_map(|r| naive.forward(r)).collect();
        prop_assert!(
            same_all(&out, &expect_batch),
            "forward_batch_into({} rows) {:?} != naive {:?}", rows, out, expect_batch
        );

        // Output gradients with exact zeros, so rows with `delta == 0` are
        // skipped; two steps, so the second runs on updated weights.
        for _ in 0..2 {
            let y = naive.forward(x);
            let g: Vec<f64> = (0..outputs)
                .map(|_| if s.below(3) == 0 { 0.0 } else { s.uniform(-3.0, 3.0) })
                .collect();
            let lr = s.uniform(0.001, 0.5);
            let clip = s.uniform(0.1, 5.0);
            let expect_grad = naive.backward(x, &y, &g, lr, clip);
            let grad = layer.backward(x, &y, &g, lr, clip);
            prop_assert!(same_all(&grad, &expect_grad), "grad_input {:?} != naive {:?}", grad, expect_grad);
            prop_assert!(naive.matches(&layer), "backward updated a parameter differently");
            let after = layer.forward(x);
            let expect_after = naive.forward(x);
            prop_assert!(same_all(&after, &expect_after), "forward after backward {:?} != naive {:?}", after, expect_after);
        }
    }
}

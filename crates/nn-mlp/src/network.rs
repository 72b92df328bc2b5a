//! Multi-layer perceptrons and SGD training.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::activation::Activation;
use crate::layer::DenseLayer;

/// A feed-forward multi-layer perceptron.
///
/// The paper's agent is a 1-hidden-layer MLP (sigmoid hidden, ReLU output);
/// [`Mlp::paper_agent`] builds exactly that shape.
///
/// ```
/// use nn_mlp::{Mlp, Activation};
/// let net = Mlp::new(&[4, 8, 2], &[Activation::Sigmoid, Activation::Relu], 42);
/// let q = net.forward(&[0.1, 0.2, 0.3, 0.4]);
/// assert_eq!(q.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

/// Reusable activation buffers for [`Mlp::forward_into`].
///
/// One scratch serves any network: the buffers grow to the widest layer on
/// first use and are reused (allocation-free) thereafter. Keep one per
/// inference site, not per call.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    ping: Vec<f64>,
    pong: Vec<f64>,
}

impl Scratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// A scratch with capacity preallocated for `net`, so even the first
    /// [`Mlp::forward_into`] call does not allocate.
    pub fn for_net(net: &Mlp) -> Self {
        let widest = net.layers.iter().map(DenseLayer::outputs).max().unwrap_or(0);
        Scratch {
            ping: Vec::with_capacity(widest),
            pong: Vec::with_capacity(widest),
        }
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes (`sizes[0]` is the input
    /// width) and one activation per layer transition, Xavier-initialized
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or
    /// `activations.len() != sizes.len() - 1`.
    pub fn new(sizes: &[usize], activations: &[Activation], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(
            activations.len(),
            sizes.len() - 1,
            "one activation per layer transition"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .zip(activations)
            .map(|(w, &a)| DenseLayer::xavier(w[0], w[1], a, &mut rng))
            .collect();
        Mlp { layers }
    }

    /// The network shape used throughout the paper: one sigmoid hidden
    /// layer and a ReLU output layer (§3.2 and §4.6).
    pub fn paper_agent(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> Self {
        Mlp::new(
            &[inputs, hidden, outputs],
            &[Activation::Sigmoid, Activation::Relu],
            seed,
        )
    }

    /// Builds an MLP from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer widths do not chain or `layers` is empty.
    pub fn from_layers(layers: Vec<DenseLayer>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].outputs(),
                pair[1].inputs(),
                "layer widths must chain"
            );
        }
        Mlp { layers }
    }

    /// The layers, input-side first.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers.last().unwrap().outputs()
    }

    /// Total trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.inputs() * l.outputs() + l.outputs())
            .sum()
    }

    /// Forward pass.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Allocation-free forward pass: activations ping-pong between the two
    /// buffers in `scratch`, and the returned slice borrows the one holding
    /// the output layer. After the first call with a given scratch, no heap
    /// allocation occurs — this is the inference path the NoC arbiter runs
    /// once per contended output port per cycle.
    ///
    /// Numerically identical to [`Mlp::forward`].
    pub fn forward_into<'s>(&self, input: &[f64], scratch: &'s mut Scratch) -> &'s [f64] {
        let Scratch { ping, pong } = scratch;
        let mut cur: &mut Vec<f64> = ping;
        let mut next: &mut Vec<f64> = pong;
        let (first, rest) = self.layers.split_first().expect("Mlp has at least one layer");
        first.forward_into(input, cur);
        for layer in rest {
            layer.forward_into(cur, next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Batched allocation-free forward pass: `inputs` holds `rows` samples
    /// back to back (`rows * self.input_size()` values) and the returned
    /// slice holds `rows * self.output_size()` Q-values in the same
    /// row-major layout.
    ///
    /// Row `r` of the result is **bit-identical** to
    /// `self.forward_into(&inputs[r*w..(r+1)*w], ..)`: every row runs
    /// through the same per-layer kernel (see
    /// [`crate::DenseLayer::forward_batch_into`]). The NoC arbiter relies
    /// on this to batch every contended output port of a router into one
    /// network pass per cycle without perturbing a single decision.
    ///
    /// The same [`Scratch`] type serves scalar and batched calls; buffers
    /// grow to `rows × widest layer` on first use and are reused thereafter.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows * self.input_size()`.
    pub fn forward_batch_into<'s>(
        &self,
        inputs: &[f64],
        rows: usize,
        scratch: &'s mut Scratch,
    ) -> &'s [f64] {
        assert_eq!(
            inputs.len(),
            rows * self.input_size(),
            "batch input width mismatch"
        );
        let Scratch { ping, pong } = scratch;
        let mut cur: &mut Vec<f64> = ping;
        let mut next: &mut Vec<f64> = pong;
        let (first, rest) = self.layers.split_first().expect("Mlp has at least one layer");
        first.forward_batch_into(inputs, rows, cur);
        for layer in rest {
            layer.forward_batch_into(cur, rows, next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Forward pass keeping every layer's output (needed for backprop).
    fn forward_trace(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for layer in &self.layers {
            let next = layer.forward(acts.last().unwrap());
            acts.push(next);
        }
        acts
    }

    /// Backpropagates `grad` (the loss gradient w.r.t. the output) through
    /// the layers, last first, updating each one. `acts` is
    /// [`Mlp::forward_trace`]'s. The first layer's input gradient has no
    /// reader, so it is not computed.
    fn backprop(&mut self, acts: &[Vec<f64>], mut grad: Vec<f64>, lr: f64, clip: f64) {
        let (first, rest) = self.layers.split_first_mut().expect("Mlp has at least one layer");
        for (idx, layer) in rest.iter_mut().enumerate().rev() {
            grad = layer.backward(&acts[idx + 1], &acts[idx + 2], &grad, lr, clip);
        }
        first.step(&acts[0], &acts[1], &grad, lr, clip, None);
    }

    /// One SGD step on squared error against `target`, returning the
    /// pre-update mean squared error. Gradients are clipped per element at
    /// `clip` (the paper found large unnormalized values destabilize
    /// training, §6.2).
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != self.output_size()`.
    pub fn train_mse(&mut self, input: &[f64], target: &[f64], lr: f64, clip: f64) -> f64 {
        assert_eq!(target.len(), self.output_size(), "target width mismatch");
        let acts = self.forward_trace(input);
        let out = acts.last().unwrap();
        let n = out.len() as f64;
        let grad: Vec<f64> = out
            .iter()
            .zip(target)
            .map(|(y, t)| 2.0 * (y - t) / n)
            .collect();
        let mse: f64 = out
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / n;
        self.backprop(&acts, grad, lr, clip);
        mse
    }

    /// One SGD step on the *sum* of squared errors (no division by output
    /// width). For sparse targets — e.g. Q-learning, where only one output
    /// differs from the current prediction — this keeps the gradient
    /// magnitude independent of the action-space size, which matters for
    /// convergence speed.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != self.output_size()`.
    pub fn train_sse(&mut self, input: &[f64], target: &[f64], lr: f64, clip: f64) -> f64 {
        assert_eq!(target.len(), self.output_size(), "target width mismatch");
        let acts = self.forward_trace(input);
        let out = acts.last().unwrap();
        let grad: Vec<f64> = out.iter().zip(target).map(|(y, t)| 2.0 * (y - t)).collect();
        let sse: f64 = out
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>();
        self.backprop(&acts, grad, lr, clip);
        sse
    }

    /// Squared-error loss on a single sample without updating weights.
    pub fn mse(&self, input: &[f64], target: &[f64]) -> f64 {
        let out = self.forward(input);
        out.iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / out.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_agent_shapes_match_the_paper() {
        // §4.6: 504 inputs, hidden and output layers of 42 neurons.
        let net = Mlp::paper_agent(504, 42, 42, 0);
        assert_eq!(net.input_size(), 504);
        assert_eq!(net.output_size(), 42);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.layers()[0].activation(), Activation::Sigmoid);
        assert_eq!(net.layers()[1].activation(), Activation::Relu);
        assert_eq!(net.num_parameters(), 504 * 42 + 42 + 42 * 42 + 42);
    }

    #[test]
    fn deterministic_from_seed() {
        let a = Mlp::paper_agent(10, 5, 3, 77);
        let b = Mlp::paper_agent(10, 5, 3, 77);
        assert_eq!(a, b);
        let c = Mlp::paper_agent(10, 5, 3, 78);
        assert_ne!(a, c);
    }

    #[test]
    fn learns_xor() {
        let mut net = Mlp::new(&[2, 8, 1], &[Activation::Tanh, Activation::Identity], 1);
        let data = [
            ([0.0, 0.0], [0.0]),
            ([0.0, 1.0], [1.0]),
            ([1.0, 0.0], [1.0]),
            ([1.0, 1.0], [0.0]),
        ];
        for _ in 0..4000 {
            for (x, t) in &data {
                net.train_mse(x, t, 0.1, 10.0);
            }
        }
        for (x, t) in &data {
            let y = net.forward(x)[0];
            assert!((y - t[0]).abs() < 0.2, "xor({x:?}) = {y}");
        }
    }

    #[test]
    fn forward_into_equals_forward_with_lazy_scratch() {
        let net = Mlp::paper_agent(6, 9, 4, 3);
        let mut scratch = Scratch::new();
        let x = [0.1, -0.3, 0.7, 0.0, 0.5, -0.9];
        assert_eq!(net.forward_into(&x, &mut scratch), &net.forward(&x)[..]);
        // Second call reuses the (now-sized) buffers.
        let y = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(net.forward_into(&y, &mut scratch), &net.forward(&y)[..]);
    }

    #[test]
    fn forward_batch_rows_are_bitwise_identical_to_scalar() {
        let net = Mlp::paper_agent(60, 15, 15, 7);
        let rows = 5;
        let inputs: Vec<f64> = (0..rows * 60)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 / 1000.0 - 0.3)
            .collect();
        let mut batch = Scratch::new();
        let q = net.forward_batch_into(&inputs, rows, &mut batch).to_vec();
        assert_eq!(q.len(), rows * net.output_size());
        let mut scalar = Scratch::new();
        for r in 0..rows {
            let row = net.forward_into(&inputs[r * 60..(r + 1) * 60], &mut scalar);
            for (o, (&b, &s)) in q[r * 15..(r + 1) * 15].iter().zip(row).enumerate() {
                assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "row {r} output {o}: batched {b} != scalar {s}"
                );
            }
        }
    }

    #[test]
    fn forward_batch_handles_single_row_and_empty_batch() {
        let net = Mlp::paper_agent(6, 9, 4, 3);
        let mut scratch = Scratch::new();
        let x = [0.1, -0.3, 0.7, 0.0, 0.5, -0.9];
        let one = net.forward_batch_into(&x, 1, &mut scratch).to_vec();
        assert_eq!(one, net.forward(&x));
        assert!(net.forward_batch_into(&[], 0, &mut scratch).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch input width mismatch")]
    fn forward_batch_rejects_ragged_input() {
        let net = Mlp::paper_agent(4, 3, 2, 0);
        let mut scratch = Scratch::new();
        net.forward_batch_into(&[0.0; 7], 2, &mut scratch);
    }

    #[test]
    fn train_mse_returns_decreasing_loss() {
        let mut net = Mlp::new(&[3, 6, 2], &[Activation::Sigmoid, Activation::Identity], 5);
        let x = [0.2, -0.4, 0.9];
        let t = [0.3, -0.1];
        let first = net.train_mse(&x, &t, 0.05, 10.0);
        let mut last = first;
        for _ in 0..500 {
            last = net.train_mse(&x, &t, 0.05, 10.0);
        }
        assert!(last < first * 0.01, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "layer widths must chain")]
    fn mismatched_layers_rejected() {
        use crate::layer::DenseLayer;
        let l1 = DenseLayer::from_parts(2, 3, vec![0.0; 6], vec![0.0; 3], Activation::Identity);
        let l2 = DenseLayer::from_parts(4, 1, vec![0.0; 4], vec![0.0], Activation::Identity);
        Mlp::from_layers(vec![l1, l2]);
    }

    #[test]
    #[should_panic(expected = "target width mismatch")]
    fn wrong_target_width_panics() {
        let mut net = Mlp::paper_agent(4, 3, 2, 0);
        net.train_mse(&[0.0; 4], &[0.0; 3], 0.1, 1.0);
    }
}

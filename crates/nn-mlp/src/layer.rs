//! A dense (fully connected) layer.

use rand::Rng;

use crate::activation::Activation;

/// A dense layer: `y = act(W x + b)`.
///
/// `W` is stored input-major (`inputs × outputs`): the weights leaving
/// input `i` are the contiguous slice `weights[i * outputs..][..outputs]`.
/// The forward pass walks the inputs in ascending order and adds
/// `w[i][·] · x_i` across all outputs at once, so each output is its own
/// accumulation chain `bias + w₀x₀ + w₁x₁ + …` (the row-major order, add for
/// add) and the outputs can be computed side by side. Read single weights
/// with [`DenseLayer::weight`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    inputs: usize,
    outputs: usize,
    /// Input-major weights, `weights[i * outputs + o]`.
    weights: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
    /// Every weight is finite and no bias is `-0.0`, so an input that is
    /// exactly zero adds `±0` to a sum that is never `-0.0` and can be
    /// skipped without changing a bit. Derived from the parameters, never
    /// set.
    skip_zeros: bool,
}

/// Whether zero inputs may be skipped (see `DenseLayer::skip_zeros`).
fn zeros_skippable(weights: &[f64], biases: &[f64]) -> bool {
    weights.iter().all(|w| w.is_finite()) && !has_negative_zero(biases)
}

fn has_negative_zero(values: &[f64]) -> bool {
    values.iter().any(|v| v.to_bits() == (-0.0f64).to_bits())
}

impl DenseLayer {
    /// Creates a layer with Xavier/Glorot-uniform initial weights drawn
    /// from the supplied RNG and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` is zero.
    pub fn xavier<R: Rng>(inputs: usize, outputs: usize, activation: Activation, rng: &mut R) -> Self {
        assert!(inputs > 0 && outputs > 0, "layer dimensions must be positive");
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        // Drawn in row-major order (`o` outer), stored input-major.
        let mut weights = vec![0.0; inputs * outputs];
        for o in 0..outputs {
            for i in 0..inputs {
                weights[i * outputs + o] = rng.gen_range(-limit..limit);
            }
        }
        DenseLayer::input_major(inputs, outputs, weights, vec![0.0; outputs], activation)
    }

    /// Creates a layer from explicit parameters (used by tests and model
    /// loading). `weights` is row-major, `weights[o * inputs + i]`, the
    /// order of the `mlp v1` text; it is transposed once into the layer's
    /// input-major layout.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` is zero or the parameter shapes are
    /// inconsistent.
    pub fn from_parts(
        inputs: usize,
        outputs: usize,
        weights: Vec<f64>,
        biases: Vec<f64>,
        activation: Activation,
    ) -> Self {
        assert!(inputs > 0 && outputs > 0, "layer dimensions must be positive");
        assert_eq!(weights.len(), inputs * outputs, "weight shape mismatch");
        assert_eq!(biases.len(), outputs, "bias shape mismatch");
        let mut input_major = vec![0.0; weights.len()];
        for (o, row) in weights.chunks_exact(inputs).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                input_major[i * outputs + o] = w;
            }
        }
        DenseLayer::input_major(inputs, outputs, input_major, biases, activation)
    }

    /// The layer over input-major `weights`, with `skip_zeros` derived.
    fn input_major(
        inputs: usize,
        outputs: usize,
        weights: Vec<f64>,
        biases: Vec<f64>,
        activation: Activation,
    ) -> Self {
        let skip_zeros = zeros_skippable(&weights, &biases);
        DenseLayer {
            inputs,
            outputs,
            weights,
            biases,
            activation,
            skip_zeros,
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Biases.
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// The weight connecting input `i` to output `o`.
    pub fn weight(&self, o: usize, i: usize) -> f64 {
        self.weights[i * self.outputs + o]
    }

    /// The one forward kernel: `out[o] = act(b[o] + Σᵢ w[i][o] · x[i])`, the
    /// sum taken one add at a time with `i` ascending. `out` must hold
    /// `self.outputs` values; its contents are overwritten.
    fn forward_row(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(&self.biases);
        for (w_i, &x_i) in self.weights.chunks_exact(self.outputs).zip(x) {
            if self.skip_zeros && x_i == 0.0 {
                continue;
            }
            for (acc, &w) in out.iter_mut().zip(w_i) {
                *acc += w * x_i;
            }
        }
        for v in out {
            *v = self.activation.apply(*v);
        }
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.inputs()`.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_into(input, &mut out);
        out
    }

    /// Forward pass into a caller-owned buffer: `out` is cleared and filled
    /// with the layer's activations. Once `out` has capacity for
    /// `self.outputs()` values this never allocates, which keeps per-decision
    /// inference off the heap (see [`crate::Mlp::forward_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.inputs()`.
    pub fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        assert_eq!(input.len(), self.inputs, "input width mismatch");
        out.clear();
        out.resize(self.outputs, 0.0);
        self.forward_row(input, out);
    }

    /// Batched forward pass: `inputs` holds `rows` samples back to back
    /// (row-major, `rows * self.inputs()` values) and `out` is filled with
    /// the activations in the same layout (`rows * self.outputs()`).
    ///
    /// Each row is one run of the same kernel as
    /// [`DenseLayer::forward_into`], so every row of the result is
    /// bit-identical to a scalar pass over that sample.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows * self.inputs()`.
    pub fn forward_batch_into(&self, inputs: &[f64], rows: usize, out: &mut Vec<f64>) {
        assert_eq!(
            inputs.len(),
            rows * self.inputs,
            "batch input width mismatch"
        );
        out.clear();
        out.resize(rows * self.outputs, 0.0);
        for (x, y) in inputs
            .chunks_exact(self.inputs)
            .zip(out.chunks_exact_mut(self.outputs))
        {
            self.forward_row(x, y);
        }
    }

    /// Backward pass for one sample.
    ///
    /// `output` must be the value returned by [`DenseLayer::forward`] for
    /// `input`, and `grad_output` the loss gradient w.r.t. that output.
    /// Applies an SGD update scaled by `lr` (with per-element gradient
    /// clipping at `clip`) and returns the gradient w.r.t. the input.
    ///
    /// Outputs whose `delta` is exactly zero are skipped; every other
    /// weight is read into the input gradient before it is updated, and
    /// each `grad_input[i]` sums over the outputs in ascending order.
    pub fn backward(
        &mut self,
        input: &[f64],
        output: &[f64],
        grad_output: &[f64],
        lr: f64,
        clip: f64,
    ) -> Vec<f64> {
        let mut grad_input = vec![0.0; self.inputs];
        self.step(input, output, grad_output, lr, clip, Some(&mut grad_input));
        grad_input
    }

    /// [`DenseLayer::backward`] writing the input gradient into
    /// `grad_input` (zeroed, `self.inputs()` long), or not computing it at
    /// all: a network's first layer has no use for it.
    pub(crate) fn step(
        &mut self,
        input: &[f64],
        output: &[f64],
        grad_output: &[f64],
        lr: f64,
        clip: f64,
        grad_input: Option<&mut [f64]>,
    ) {
        assert_eq!(input.len(), self.inputs);
        assert_eq!(output.len(), self.outputs);
        assert_eq!(grad_output.len(), self.outputs);
        let deltas: Vec<f64> = grad_output
            .iter()
            .zip(output)
            .map(|(&g, &y)| g * self.activation.derivative_from_output(y))
            .collect();
        if deltas.iter().all(|&delta| delta == 0.0) {
            return;
        }
        if let Some(grad_input) = grad_input {
            for (g, row) in grad_input.iter_mut().zip(self.weights.chunks_exact(self.outputs)) {
                for (&delta, &w) in deltas.iter().zip(row) {
                    if delta != 0.0 {
                        *g += delta * w;
                    }
                }
            }
        }
        let mut finite = true;
        for (row, &x) in self.weights.chunks_exact_mut(self.outputs).zip(input) {
            for (w, &delta) in row.iter_mut().zip(&deltas) {
                if delta != 0.0 {
                    *w -= lr * (delta * x).clamp(-clip, clip);
                }
                finite &= w.is_finite();
            }
        }
        for (b, &delta) in self.biases.iter_mut().zip(&deltas) {
            if delta != 0.0 {
                *b -= lr * delta.clamp(-clip, clip);
            }
        }
        self.skip_zeros = finite && !has_negative_zero(&self.biases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_computes_affine_map() {
        let layer = DenseLayer::from_parts(
            2,
            2,
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0.5, -0.5],
            Activation::Identity,
        );
        let y = layer.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn xavier_weights_lie_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = DenseLayer::xavier(10, 5, Activation::Relu, &mut rng);
        let limit = (6.0_f64 / 15.0).sqrt();
        assert!((0..5).all(|o| (0..10).all(|i| layer.weight(o, i).abs() <= limit)));
        assert!(layer.biases().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn backward_reduces_loss_on_simple_regression() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = DenseLayer::xavier(1, 1, Activation::Identity, &mut rng);
        // Learn y = 3x.
        let mut last_loss = f64::INFINITY;
        for _ in 0..200 {
            let x = [0.5];
            let y = layer.forward(&x);
            let err = y[0] - 1.5;
            layer.backward(&x, &y, &[2.0 * err], 0.1, 10.0);
            let loss = err * err;
            assert!(loss <= last_loss + 1e-9, "loss must not increase");
            last_loss = loss;
        }
        assert!(last_loss < 1e-6);
    }

    #[test]
    fn gradient_clipping_bounds_updates() {
        let mut layer =
            DenseLayer::from_parts(1, 1, vec![0.0], vec![0.0], Activation::Identity);
        let x = [1000.0];
        let y = layer.forward(&x);
        layer.backward(&x, &y, &[1000.0], 1.0, 1.0);
        // Without clipping the weight would move by 1e6; with clip=1 it
        // moves by exactly lr*clip = 1.
        assert!((layer.weight(0, 0) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let layer = DenseLayer::from_parts(2, 1, vec![1.0, 1.0], vec![0.0], Activation::Identity);
        layer.forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn bad_weight_shape_panics() {
        DenseLayer::from_parts(2, 2, vec![1.0], vec![0.0, 0.0], Activation::Identity);
    }
}

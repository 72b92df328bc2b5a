//! INT8 post-training quantization.
//!
//! The paper's Table 3 synthesizes the inference network "quantizing to
//! INT8". This module provides the corresponding software model: symmetric
//! per-layer weight quantization with i32 accumulators, so the hardware-cost
//! crate can count 8-bit MACs and tests can bound the quantization error.

use crate::activation::Activation;
use crate::network::Mlp;

/// One quantized dense layer: `int8` weights with a per-layer scale,
/// biases kept in `f64` (hardware would fold them into the accumulator).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    inputs: usize,
    outputs: usize,
    weights_q: Vec<i8>,
    scale: f64,
    biases: Vec<f64>,
    activation: Activation,
}

impl QuantizedLayer {
    /// Input width.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Per-layer dequantization scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The quantized weights, row-major.
    pub fn weights_q(&self) -> &[i8] {
        &self.weights_q
    }

    /// Multiply-accumulate count of one inference through this layer.
    pub fn macs(&self) -> usize {
        self.inputs * self.outputs
    }

    /// One layer of the fixed-point datapath on caller-owned buffers:
    /// quantize `input` against its own maximum into `xq`, accumulate in
    /// `i32`, dequantize and activate into `out`. Numerically identical to
    /// the corresponding layer step of [`QuantizedMlp::forward`].
    fn forward_into(&self, input: &[f64], xq: &mut Vec<i8>, out: &mut Vec<f64>) {
        assert_eq!(input.len(), self.inputs, "input width mismatch");
        let in_max = input.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-12);
        let in_scale = in_max / 127.0;
        xq.clear();
        xq.extend(
            input
                .iter()
                .map(|v| (v / in_scale).round().clamp(-127.0, 127.0) as i8),
        );
        out.clear();
        out.reserve(self.outputs);
        for o in 0..self.outputs {
            let row = &self.weights_q[o * self.inputs..(o + 1) * self.inputs];
            let acc: i32 = row
                .iter()
                .zip(xq.iter())
                .map(|(&w, &v)| w as i32 * v as i32)
                .sum();
            let deq = acc as f64 * self.scale * in_scale + self.biases[o];
            out.push(self.activation.apply(deq));
        }
    }
}

/// An INT8-quantized MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedLayer>,
}

/// Reusable buffers for [`QuantizedMlp::forward_into`] and
/// [`QuantizedMlp::forward_batch_into`]: the per-layer INT8 input vector,
/// the f64 activation ping-pong, and the batched-output accumulator. Sized
/// lazily on first use and reused (allocation-free) thereafter — keep one
/// per inference site, as with [`crate::Scratch`].
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    xq: Vec<i8>,
    ping: Vec<f64>,
    pong: Vec<f64>,
    batch: Vec<f64>,
}

impl QuantScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

impl QuantizedMlp {
    /// Quantizes a trained float network with symmetric per-layer scaling.
    pub fn from_mlp(net: &Mlp) -> Self {
        let layers = net
            .layers()
            .iter()
            .map(|l| {
                let row_major: Vec<f64> = (0..l.outputs())
                    .flat_map(|o| (0..l.inputs()).map(move |i| l.weight(o, i)))
                    .collect();
                let max = row_major
                    .iter()
                    .fold(0.0_f64, |m, w| m.max(w.abs()))
                    .max(1e-12);
                let scale = max / 127.0;
                let weights_q = row_major
                    .iter()
                    .map(|w| (w / scale).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                QuantizedLayer {
                    inputs: l.inputs(),
                    outputs: l.outputs(),
                    weights_q,
                    scale,
                    biases: l.biases().to_vec(),
                    activation: l.activation(),
                }
            })
            .collect();
        QuantizedMlp { layers }
    }

    /// The quantized layers.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }

    /// Total multiply-accumulate operations per inference.
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// Inference. Inputs are quantized to INT8 against their own maximum
    /// (inputs in this system are pre-normalized to `[0, 1]`), products
    /// accumulate in `i32`, and activations run on the dequantized value —
    /// the standard fixed-point datapath of an INT8 inference engine.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut x = input.to_vec();
        for layer in &self.layers {
            assert_eq!(x.len(), layer.inputs, "input width mismatch");
            let in_max = x.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-12);
            let in_scale = in_max / 127.0;
            let xq: Vec<i8> = x
                .iter()
                .map(|v| (v / in_scale).round().clamp(-127.0, 127.0) as i8)
                .collect();
            let mut out = Vec::with_capacity(layer.outputs);
            for o in 0..layer.outputs {
                let row = &layer.weights_q[o * layer.inputs..(o + 1) * layer.inputs];
                let acc: i32 = row
                    .iter()
                    .zip(&xq)
                    .map(|(&w, &v)| w as i32 * v as i32)
                    .sum();
                let deq = acc as f64 * layer.scale * in_scale + layer.biases[o];
                out.push(layer.activation.apply(deq));
            }
            x = out;
        }
        x
    }

    /// Allocation-free [`QuantizedMlp::forward`]: the fixed-point datapath
    /// on caller-owned buffers, returning a slice borrowing `scratch`.
    /// Numerically identical to `forward` — same quantization, same `i32`
    /// accumulation order, same dequantize-then-activate step.
    pub fn forward_into<'s>(&self, input: &[f64], scratch: &'s mut QuantScratch) -> &'s [f64] {
        let QuantScratch { xq, ping, pong, .. } = scratch;
        Self::row_into(&self.layers, input, xq, ping, pong)
    }

    /// Batched [`QuantizedMlp::forward_into`]: `inputs` holds `rows`
    /// samples back to back and the returned slice holds the outputs in the
    /// same row-major layout. Each input row is quantized against **its
    /// own** maximum — exactly as the scalar path quantizes it — so every
    /// row of the result is bit-identical to a scalar
    /// [`QuantizedMlp::forward_into`] call on that row.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows * input width`.
    pub fn forward_batch_into<'s>(
        &self,
        inputs: &[f64],
        rows: usize,
        scratch: &'s mut QuantScratch,
    ) -> &'s [f64] {
        let iw = self
            .layers
            .first()
            .expect("QuantizedMlp has at least one layer")
            .inputs;
        assert_eq!(inputs.len(), rows * iw, "batch input width mismatch");
        let ow = self.layers.last().unwrap().outputs;
        let QuantScratch { xq, ping, pong, batch } = scratch;
        batch.clear();
        batch.reserve(rows * ow);
        for r in 0..rows {
            let y = Self::row_into(
                &self.layers,
                &inputs[r * iw..(r + 1) * iw],
                xq,
                &mut *ping,
                &mut *pong,
            );
            batch.extend_from_slice(y);
        }
        batch
    }

    /// One sample through every layer on the given buffers; the returned
    /// slice borrows whichever ping-pong buffer holds the output layer.
    fn row_into<'a>(
        layers: &[QuantizedLayer],
        input: &[f64],
        xq: &mut Vec<i8>,
        ping: &'a mut Vec<f64>,
        pong: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        let mut cur: &mut Vec<f64> = ping;
        let mut next: &mut Vec<f64> = pong;
        let (first, rest) = layers
            .split_first()
            .expect("QuantizedMlp has at least one layer");
        first.forward_into(input, xq, cur);
        for layer in rest {
            layer.forward_into(cur, xq, next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantized_outputs_track_float_outputs() {
        let net = Mlp::paper_agent(60, 15, 15, 11);
        let q = QuantizedMlp::from_mlp(&net);
        let input: Vec<f64> = (0..60).map(|i| i as f64 / 60.0).collect();
        let yf = net.forward(&input);
        let yq = q.forward(&input);
        for (a, b) in yf.iter().zip(&yq) {
            assert!((a - b).abs() < 0.05, "float {a} vs int8 {b}");
        }
    }

    #[test]
    fn forward_into_is_bitwise_identical_to_forward() {
        let net = Mlp::paper_agent(60, 15, 15, 9);
        let q = QuantizedMlp::from_mlp(&net);
        let mut scratch = QuantScratch::new();
        for seed in 0..4_u64 {
            let input: Vec<f64> = (0..60)
                .map(|i| ((i as u64 * 31 + seed * 7919) % 997) as f64 / 997.0)
                .collect();
            let alloc = q.forward(&input);
            let free = q.forward_into(&input, &mut scratch);
            for (a, b) in alloc.iter().zip(free) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b}");
            }
        }
    }

    #[test]
    fn batched_rows_are_bitwise_identical_to_scalar() {
        let net = Mlp::paper_agent(60, 15, 15, 11);
        let q = QuantizedMlp::from_mlp(&net);
        let rows = 4;
        let inputs: Vec<f64> = (0..rows * 60)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 / 1000.0)
            .collect();
        let mut scratch = QuantScratch::new();
        let batched = q.forward_batch_into(&inputs, rows, &mut scratch).to_vec();
        assert_eq!(batched.len(), rows * 15);
        for r in 0..rows {
            let scalar = q.forward(&inputs[r * 60..(r + 1) * 60]);
            for (o, (&b, &s)) in batched[r * 15..(r + 1) * 15].iter().zip(&scalar).enumerate() {
                assert_eq!(b.to_bits(), s.to_bits(), "row {r} output {o}: {b} != {s}");
            }
        }
    }

    #[test]
    fn mac_count_matches_architecture() {
        let net = Mlp::paper_agent(504, 42, 42, 0);
        let q = QuantizedMlp::from_mlp(&net);
        assert_eq!(q.total_macs(), 504 * 42 + 42 * 42);
    }

    #[test]
    fn weights_fit_in_int8() {
        let net = Mlp::paper_agent(20, 10, 5, 3);
        let q = QuantizedMlp::from_mlp(&net);
        for layer in q.layers() {
            assert!(layer.weights_q().iter().all(|&w| w >= -127));
            assert!(layer.scale() > 0.0);
        }
    }
}

//! # nn-mlp — a minimal dense-MLP library
//!
//! The function approximator behind the reproduction's deep-Q-learning
//! agent. Written from scratch (no external ML dependencies) because the
//! paper's networks are tiny — the largest is a 504→42→42 perceptron — and
//! because the study needs full weight introspection for its
//! interpretability analysis (Figs. 4 and 7 heatmaps).
//!
//! * [`Mlp`] — feed-forward networks with per-sample SGD and gradient
//!   clipping ([`Mlp::paper_agent`] builds the paper's sigmoid/ReLU shape).
//! * [`DenseLayer`] — exposes every weight ([`DenseLayer::weight`]) for
//!   heatmap analysis.
//! * [`QuantizedMlp`] — INT8 post-training quantization, the inference
//!   datapath costed in the paper's Table 3.
//! * [`Mlp::to_text`] / [`Mlp::from_text`] — the `mlp v1` text format
//!   trained weights are stored in (`rl-arb`'s checkpoints embed it).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activation;
mod io;
mod layer;
mod network;
mod quantize;

pub use activation::Activation;
pub use io::ParseModelError;
pub use layer::DenseLayer;
pub use network::{Mlp, Scratch};
pub use quantize::{QuantScratch, QuantizedLayer, QuantizedMlp};

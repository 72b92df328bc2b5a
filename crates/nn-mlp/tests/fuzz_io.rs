//! Fuzz-style robustness tests for the model-text reader.
//!
//! Model text crosses machine and version boundaries inside checkpoints
//! (the content-addressed artifact store hands them to future builds; the
//! checkpoint JSON around it is fuzzed in `bench/tests/codec_fuzz.rs`),
//! so the reader must fail *structurally* on damaged input: every mutated
//! or truncated document returns an `Err` or a still-valid parse — never
//! a panic.

use proptest::prelude::*;

use nn_mlp::{Activation, Mlp};

/// A tiny deterministic xorshift so mutations need no external RNG.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Applies `n` seeded printable-ASCII single-byte mutations.
fn mutate(doc: &str, seed: u64, n: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let mut state = seed | 1;
    for _ in 0..n {
        let pos = (next(&mut state) % bytes.len() as u64) as usize;
        bytes[pos] = 0x20 + (next(&mut state) % 0x5f) as u8;
    }
    String::from_utf8(bytes).expect("ascii mutations keep ascii")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corrupted and truncated model text never panics `Mlp::from_text`.
    #[test]
    fn mutated_model_text_never_panics(seed in any::<u64>(), cut in any::<u32>()) {
        let model = Mlp::new(&[4, 3, 2], &[Activation::Sigmoid, Activation::Relu], 9);
        let text = model.to_text();
        let _ = Mlp::from_text(&mutate(&text, seed, 4));
        let len = (cut as usize) % text.len();
        let _ = Mlp::from_text(&text[..len]);
    }
}

/// The fuzz corpus is live: the unmutated input round-trips.
#[test]
fn golden_inputs_parse() {
    let model = Mlp::new(&[4, 3, 2], &[Activation::Sigmoid, Activation::Relu], 9);
    let back = Mlp::from_text(&model.to_text()).expect("model text round-trips");
    assert_eq!(model.to_text(), back.to_text());
}

/// Headers that promise more weights or layers than the text holds are
/// parse errors: the reader neither overflows `inputs * outputs` nor
/// reserves memory the text cannot fill.
#[test]
fn oversized_headers_are_parse_errors() {
    for text in [
        // 2^40 × 2^20 weights: the product overflows `usize`.
        "mlp v1\nlayers 1\nlayer 1099511627776 1048576 relu\n",
        // 10^18 layers, one of them present.
        "mlp v1\nlayers 1000000000000000000\nlayer 2 1 relu\nw 1 1\nb 0\n",
        // 10^16 weights: representable, far more than the text holds.
        "mlp v1\nlayers 1\nlayer 100000000 100000000 relu\nw 1\n",
    ] {
        assert!(Mlp::from_text(text).is_err(), "{text:?} parsed");
    }
}

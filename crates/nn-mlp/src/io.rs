//! Plain-text model persistence.
//!
//! Trained agents need to move between the figure binaries (train once on
//! `bfs`, evaluate everywhere) without pulling a serialization framework
//! into the workspace. The format is a line-oriented text file:
//!
//! ```text
//! mlp v1
//! layers <n>
//! layer <inputs> <outputs> <activation>
//! w <f64> <f64> ...        (one line per output row)
//! b <f64> ...
//! ```
//!
//! Floats are written with `{:e}` round-trip precision.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::activation::Activation;
use crate::layer::DenseLayer;
use crate::network::Mlp;

/// Errors raised while parsing a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    /// Line number (1-based) the error was detected at.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseModelError {}

fn activation_name(a: Activation) -> &'static str {
    match a {
        Activation::Identity => "identity",
        Activation::Sigmoid => "sigmoid",
        Activation::Relu => "relu",
        Activation::Tanh => "tanh",
    }
}

fn activation_from(name: &str, line: usize) -> Result<Activation, ParseModelError> {
    match name {
        "identity" => Ok(Activation::Identity),
        "sigmoid" => Ok(Activation::Sigmoid),
        "relu" => Ok(Activation::Relu),
        "tanh" => Ok(Activation::Tanh),
        other => Err(ParseModelError {
            line,
            message: format!("unknown activation '{other}'"),
        }),
    }
}

impl Mlp {
    /// Serializes the network to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("mlp v1\n");
        let _ = writeln!(out, "layers {}", self.layers().len());
        for layer in self.layers() {
            let _ = writeln!(
                out,
                "layer {} {} {}",
                layer.inputs(),
                layer.outputs(),
                activation_name(layer.activation())
            );
            for o in 0..layer.outputs() {
                out.push('w');
                for i in 0..layer.inputs() {
                    let _ = write!(out, " {:e}", layer.weight(o, i));
                }
                out.push('\n');
            }
            out.push('b');
            for b in layer.biases() {
                let _ = write!(out, " {b:e}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses a network from the text format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseModelError`] describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Mlp, ParseModelError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let mut next = |expect: &str| -> Result<(usize, String), ParseModelError> {
            lines.next().map(|(n, l)| (n, l.to_string())).ok_or_else(|| ParseModelError {
                line: 0,
                message: format!("unexpected end of file, expected {expect}"),
            })
        };

        let (n, header) = next("header")?;
        if header.trim() != "mlp v1" {
            return Err(ParseModelError {
                line: n,
                message: format!("bad header '{header}'"),
            });
        }
        let (n, count_line) = next("layer count")?;
        let num_layers: usize = count_line
            .strip_prefix("layers ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseModelError {
                line: n,
                message: "expected 'layers <n>'".into(),
            })?;

        let parse_floats = |line: &str, n: usize, prefix: char| -> Result<Vec<f64>, ParseModelError> {
            let body = line
                .strip_prefix(prefix)
                .ok_or_else(|| ParseModelError {
                    line: n,
                    message: format!("expected '{prefix}' row"),
                })?;
            body.split_whitespace()
                .map(|tok| {
                    f64::from_str(tok).map_err(|_| ParseModelError {
                        line: n,
                        message: format!("bad float '{tok}'"),
                    })
                })
                .collect()
        };

        // Sizes come from the text, so nothing is reserved beyond what the
        // text itself can hold.
        let mut layers = Vec::new();
        for _ in 0..num_layers {
            let (n, meta) = next("layer header")?;
            let parts: Vec<&str> = meta.split_whitespace().collect();
            if parts.len() != 4 || parts[0] != "layer" {
                return Err(ParseModelError {
                    line: n,
                    message: "expected 'layer <in> <out> <act>'".into(),
                });
            }
            let inputs: usize = parts[1].parse().map_err(|_| ParseModelError {
                line: n,
                message: "bad input width".into(),
            })?;
            let outputs: usize = parts[2].parse().map_err(|_| ParseModelError {
                line: n,
                message: "bad output width".into(),
            })?;
            if inputs == 0 || outputs == 0 {
                return Err(ParseModelError {
                    line: n,
                    message: "layer dimensions must be positive".into(),
                });
            }
            let activation = activation_from(parts[3], n)?;
            let count = inputs.checked_mul(outputs).ok_or_else(|| ParseModelError {
                line: n,
                message: format!("layer of {inputs} x {outputs} weights is too large"),
            })?;
            // Every weight takes at least two bytes of text (" 0").
            let mut weights = Vec::with_capacity(count.min(text.len() / 2));
            for _ in 0..outputs {
                let (wn, wline) = next("weight row")?;
                let row = parse_floats(&wline, wn, 'w')?;
                if row.len() != inputs {
                    return Err(ParseModelError {
                        line: wn,
                        message: format!("expected {inputs} weights, found {}", row.len()),
                    });
                }
                weights.extend(row);
            }
            let (bn, bline) = next("bias row")?;
            let biases = parse_floats(&bline, bn, 'b')?;
            if biases.len() != outputs {
                return Err(ParseModelError {
                    line: bn,
                    message: format!("expected {outputs} biases, found {}", biases.len()),
                });
            }
            layers.push(DenseLayer::from_parts(inputs, outputs, weights, biases, activation));
        }
        if layers.is_empty() {
            return Err(ParseModelError {
                line: 0,
                message: "model has no layers".into(),
            });
        }
        for pair in layers.windows(2) {
            if pair[0].outputs() != pair[1].inputs() {
                return Err(ParseModelError {
                    line: 0,
                    message: "layer widths do not chain".into(),
                });
            }
        }
        Ok(Mlp::from_layers(layers))
    }

    /// Writes the network to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a network from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or an
    /// `InvalidData`-wrapped [`ParseModelError`] for malformed content.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Mlp> {
        let text = std::fs::read_to_string(path)?;
        Mlp::from_text(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_network_exactly() {
        let net = Mlp::paper_agent(12, 7, 5, 99);
        let text = net.to_text();
        let back = Mlp::from_text(&text).unwrap();
        assert_eq!(net, back);
        // Behavioral equality too.
        let x: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn roundtrip_through_file() {
        let net = Mlp::new(
            &[3, 4, 2],
            &[Activation::Tanh, Activation::Identity],
            5,
        );
        let dir = std::env::temp_dir().join("nn_mlp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        net.save(&path).unwrap();
        let back = Mlp::load(&path).unwrap();
        assert_eq!(net, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_is_validated() {
        let err = Mlp::from_text("nope\nlayers 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("bad header"));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let net = Mlp::paper_agent(4, 3, 2, 1);
        let text = net.to_text();
        let cut: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(Mlp::from_text(&cut).is_err());
    }

    #[test]
    fn wrong_row_width_is_rejected() {
        let good = Mlp::paper_agent(2, 2, 1, 1).to_text();
        let bad = good.replacen("w ", "w 1.0 ", 1); // extra weight in row
        let err = Mlp::from_text(&bad).unwrap_err();
        assert!(err.message.contains("expected 2 weights"), "{err}");
    }

    #[test]
    fn unknown_activation_is_rejected() {
        let good = Mlp::paper_agent(2, 2, 1, 1).to_text();
        let bad = good.replace("sigmoid", "softmax");
        let err = Mlp::from_text(&bad).unwrap_err();
        assert!(err.message.contains("unknown activation"));
    }

    #[test]
    fn display_of_parse_error_mentions_line() {
        let e = ParseModelError {
            line: 7,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "model parse error at line 7: boom");
    }
}

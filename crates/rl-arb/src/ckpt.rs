//! Trained-model checkpoints — the artifact store's file format — and
//! the bridge between them and trained agents.
//!
//! A [`Checkpoint`] carries everything needed to rebuild the frozen
//! evaluation policy *without retraining*: the weights (round-trip exact),
//! the encoder geometry and feature bounds, and the full `agent.*`
//! hyperparameter set. [`policy_from_checkpoint`] is byte-equivalent to
//! `outcome.agent.freeze()` because the frozen arbiter's remaining inputs
//! (inference ε, tie-break RNG seed) are fixed constants.

use std::fmt::Write as _;

use nn_mlp::Mlp;
use noc_arbiters::RlInspiredSynthetic;
use noc_sim::codec::{json_num, json_str, Json, ObjExt};
use noc_sim::FeatureBounds;

use crate::agent::NnPolicyArbiter;
use crate::features::{Feature, FeatureSet, StateEncoder};
use crate::interpret::weight_heatmap;
use crate::train::TrainOutcome;

/// Version stamp of the checkpoint JSON schema
/// ([`Checkpoint::to_json`]). Bump on any breaking change and teach
/// consumers both shapes.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// A versioned trained-model checkpoint: the network plus everything a
/// consumer needs to rebuild the policy and audit where it came from.
///
/// The weights travel as the embedded `mlp v1` text (round-trip exact:
/// floats are written in Rust's shortest form that parses back to the
/// same bits), so `save → load` reproduces the `Mlp` bit-identically.
/// The `config` entries are an ordered string map holding the agent and
/// encoder configuration ([`checkpoint_from_outcome`] writes them).
///
/// Schema v1 layout:
///
/// ```json
/// {
///   "ckpt_schema": 1,
///   "recipe_hash": "<fnv-1a of the training recipe>",
///   "git_describe": "<producing checkout>",
///   "converged": true | false | null,
///   "curve": [..],
///   "accuracy": [..],
///   "config": {"k": "v", ...},
///   "model": "mlp v1\n..."
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Content hash of the training recipe that produced the model (the
    /// artifact store's addressing key).
    pub recipe_hash: String,
    /// `git describe` of the producing checkout (`"unknown"` offline).
    pub git_describe: String,
    /// The trainer's convergence verdict, when early-stop was armed;
    /// `None` when the trainer ran the full epoch budget unconditionally.
    pub converged: Option<bool>,
    /// Learning curve: average message latency per training epoch.
    pub curve: Vec<f64>,
    /// Oracle-match accuracy per training epoch.
    pub accuracy: Vec<f64>,
    /// Ordered key/value configuration entries (agent hyperparameters,
    /// encoder shape, feature bounds).
    pub config: Vec<(String, String)>,
    /// The trained network.
    pub model: Mlp,
}

impl Checkpoint {
    /// Looks up a config entry by key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Serializes the checkpoint as pretty-printed JSON (schema v1).
    ///
    /// Emission order is fixed, so equal checkpoints serialize to equal
    /// bytes — the property the golden-file test pins.
    pub fn to_json(&self) -> String {
        // Learning curves are always finite; a non-finite value would not
        // survive JSON and is a caller bug.
        let f64_list = |values: &[f64]| -> String {
            debug_assert!(values.iter().all(|v| v.is_finite()), "non-finite curve value");
            values.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(", ")
        };
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"ckpt_schema\": {CHECKPOINT_SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"recipe_hash\": {},", json_str(&self.recipe_hash));
        let _ = writeln!(s, "  \"git_describe\": {},", json_str(&self.git_describe));
        match self.converged {
            Some(c) => {
                let _ = writeln!(s, "  \"converged\": {c},");
            }
            None => s.push_str("  \"converged\": null,\n"),
        }
        let _ = writeln!(s, "  \"curve\": [{}],", f64_list(&self.curve));
        let _ = writeln!(s, "  \"accuracy\": [{}],", f64_list(&self.accuracy));
        if self.config.is_empty() {
            s.push_str("  \"config\": {},\n");
        } else {
            s.push_str("  \"config\": {\n");
            for (i, (k, v)) in self.config.iter().enumerate() {
                let _ = write!(s, "    {}: {}", json_str(k), json_str(v));
                s.push_str(if i + 1 < self.config.len() { ",\n" } else { "\n" });
            }
            s.push_str("  },\n");
        }
        let _ = writeln!(s, "  \"model\": {}", json_str(&self.model.to_text()));
        s.push_str("}\n");
        s
    }

    /// Parses a checkpoint back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: malformed
    /// JSON, a schema version this build does not understand, missing or
    /// mistyped fields, or an embedded model that fails [`Mlp::from_text`].
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object()?;
        let field = |key: &str| obj.get(key).ok_or_else(|| format!("missing '{key}'"));
        let schema = field("ckpt_schema")?.as_u64()?;
        if schema != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported checkpoint schema {schema} (this build reads v{CHECKPOINT_SCHEMA_VERSION})"
            ));
        }
        let converged = match field("converged")? {
            Json::Null => None,
            Json::Bool(b) => Some(*b),
            other => return Err(format!("'converged' must be bool or null, got {other:?}")),
        };
        let f64_list = |key: &str| -> Result<Vec<f64>, String> {
            field(key)?
                .as_array()?
                .iter()
                .map(|v| match v {
                    Json::Null => Err("expected number, got Null".to_string()),
                    v => v.as_f64(),
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("'{key}': {e}"))
        };
        let mut config = Vec::new();
        for (k, v) in field("config")?.as_object()? {
            config.push((k.clone(), v.as_str()?));
        }
        let model_text = field("model")?.as_str()?;
        let model = Mlp::from_text(&model_text).map_err(|e| format!("embedded model: {e}"))?;
        Ok(Checkpoint {
            recipe_hash: field("recipe_hash")?.as_str()?,
            git_describe: field("git_describe")?.as_str()?,
            converged,
            curve: f64_list("curve")?,
            accuracy: f64_list("accuracy")?,
            config,
            model,
        })
    }

    /// Writes the checkpoint to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or an
    /// `InvalidData`-wrapped message for malformed content.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Checkpoint> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Builds a schema-v1 checkpoint from a finished training run.
///
/// `recipe_hash` is the producing recipe's content hash (see
/// `TrainRecipe::hash_hex`); `git_describe` stamps the producing checkout.
pub fn checkpoint_from_outcome(
    outcome: &TrainOutcome,
    recipe_hash: &str,
    git_describe: &str,
) -> Checkpoint {
    let encoder = outcome.agent.encoder();
    let b = encoder.bounds();
    let mut config = vec![
        ("num_ports".to_string(), encoder.num_ports().to_string()),
        ("num_vnets".to_string(), encoder.num_vnets().to_string()),
        ("features".to_string(), encoder.features().to_list_string()),
        ("bounds.max_payload".to_string(), b.max_payload.to_string()),
        ("bounds.max_local_age".to_string(), b.max_local_age.to_string()),
        ("bounds.max_distance".to_string(), b.max_distance.to_string()),
        ("bounds.max_hop_count".to_string(), b.max_hop_count.to_string()),
        ("bounds.max_in_flight".to_string(), b.max_in_flight.to_string()),
        (
            "bounds.max_inter_arrival".to_string(),
            b.max_inter_arrival.to_string(),
        ),
    ];
    config.extend(outcome.agent.config().config_entries());
    Checkpoint {
        recipe_hash: recipe_hash.into(),
        git_describe: git_describe.into(),
        converged: outcome.converged,
        curve: outcome.curve.clone(),
        accuracy: outcome.accuracy.clone(),
        config,
        model: outcome.agent.network().clone(),
    }
}

fn config_u64(ckpt: &Checkpoint, key: &str) -> Result<u64, String> {
    ckpt.config_value(key)
        .ok_or_else(|| format!("checkpoint config missing '{key}'"))?
        .parse()
        .map_err(|_| format!("bad value for '{key}'"))
}

/// Rebuilds the state encoder a checkpointed agent was trained with.
///
/// # Errors
///
/// Returns a description of the first missing or unparseable entry.
pub fn encoder_from_checkpoint(ckpt: &Checkpoint) -> Result<StateEncoder, String> {
    let features = FeatureSet::from_list_string(
        ckpt.config_value("features")
            .ok_or_else(|| "checkpoint config missing 'features'".to_string())?,
    )?;
    let bounds = FeatureBounds {
        max_payload: config_u64(ckpt, "bounds.max_payload")? as u32,
        max_local_age: config_u64(ckpt, "bounds.max_local_age")?,
        max_distance: config_u64(ckpt, "bounds.max_distance")? as u32,
        max_hop_count: config_u64(ckpt, "bounds.max_hop_count")? as u32,
        max_in_flight: config_u64(ckpt, "bounds.max_in_flight")? as u32,
        max_inter_arrival: config_u64(ckpt, "bounds.max_inter_arrival")?,
    };
    Ok(StateEncoder::new(
        config_u64(ckpt, "num_ports")? as usize,
        config_u64(ckpt, "num_vnets")? as usize,
        features,
        bounds,
    ))
}

/// Rebuilds the frozen "NN" evaluation policy from a checkpoint —
/// byte-equivalent to freezing the just-trained agent, with zero training
/// steps.
///
/// # Errors
///
/// Returns an error for incomplete config entries or a model whose shape
/// does not match the reconstructed encoder.
pub fn policy_from_checkpoint(ckpt: &Checkpoint) -> Result<NnPolicyArbiter, String> {
    let encoder = encoder_from_checkpoint(ckpt)?;
    if ckpt.model.input_size() != encoder.state_width()
        || ckpt.model.output_size() != encoder.num_slots()
    {
        return Err(format!(
            "checkpoint model shape {}→{} does not match its encoder ({}→{})",
            ckpt.model.input_size(),
            ckpt.model.output_size(),
            encoder.state_width(),
            encoder.num_slots()
        ));
    }
    Ok(NnPolicyArbiter::new(ckpt.model.clone(), encoder))
}

/// The paper's §3.2 end game on a stored artifact: distills a
/// checkpointed synthetic-study agent into the implementable
/// shift-and-add arbiter. Feature importance is read off the weight
/// heatmap (mean `|w|` per feature row, the Fig. 4 readout); the relative
/// local-age / hop-count magnitudes pick the hardware shifts.
///
/// # Errors
///
/// Returns an error if the checkpoint cannot be decoded or its feature
/// set lacks local age or hop count (nothing to distill from).
pub fn distill_checkpoint(ckpt: &Checkpoint) -> Result<RlInspiredSynthetic, String> {
    let encoder = encoder_from_checkpoint(ckpt)?;
    if ckpt.model.input_size() != encoder.state_width() {
        return Err("checkpoint model does not match its encoder".into());
    }
    let mut la_row = None;
    let mut hc_row = None;
    let mut row = 0;
    for &f in encoder.features().features() {
        match f {
            Feature::LocalAge => la_row = Some(row),
            Feature::HopCount => hc_row = Some(row),
            _ => {}
        }
        row += f.width();
    }
    let (Some(la_row), Some(hc_row)) = (la_row, hc_row) else {
        return Err("distillation needs local_age and hop_count features".into());
    };
    let heat = weight_heatmap(&ckpt.model, &encoder);
    Ok(RlInspiredSynthetic::from_weights(
        heat.row_mean(la_row),
        heat.row_mean(hc_row),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_synthetic, TrainSpec};

    fn trained() -> TrainOutcome {
        let mut spec = TrainSpec::synthetic_4x4(5);
        spec.epochs = 2;
        spec.cycles_per_epoch = 300;
        train_synthetic(&spec)
    }

    #[test]
    fn checkpoint_round_trips_encoder_agent_and_weights() {
        let out = trained();
        let ckpt = checkpoint_from_outcome(&out, "abcd", "test");
        let json = ckpt.to_json();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back, ckpt);
        // Encoder round-trips exactly.
        assert_eq!(encoder_from_checkpoint(&back).unwrap(), *out.agent.encoder());
        // Weights round-trip exactly.
        assert_eq!(back.model, *out.agent.network());
        assert_eq!(back.curve, out.curve);
        assert_eq!(back.converged, None);
    }

    #[test]
    fn rebuilt_policy_matches_frozen_agent() {
        let out = trained();
        let ckpt = checkpoint_from_outcome(&out, "abcd", "test");
        let rebuilt = policy_from_checkpoint(&ckpt).unwrap();
        // The arbiter is not `PartialEq` (it carries an RNG), but its
        // entire state is seeded constants + the weights: the Debug
        // encodings matching means the two policies are bit-identical.
        assert_eq!(format!("{rebuilt:?}"), format!("{:?}", out.agent.freeze()));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let out = trained();
        let mut ckpt = checkpoint_from_outcome(&out, "abcd", "test");
        // Claim a different geometry than the stored model.
        for entry in &mut ckpt.config {
            if entry.0 == "num_vnets" {
                entry.1 = "7".into();
            }
        }
        let err = policy_from_checkpoint(&ckpt).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn distillation_consumes_checkpoints() {
        let out = trained();
        let ckpt = checkpoint_from_outcome(&out, "abcd", "test");
        // The synthetic feature set includes local age and hop count, so
        // distillation succeeds and yields a valid shift-and-add arbiter.
        let distilled = distill_checkpoint(&ckpt).unwrap();
        let _ = distilled.arbiter();
        // A feature set without hop count cannot be distilled.
        let mut stripped = ckpt.clone();
        for entry in &mut stripped.config {
            if entry.0 == "features" {
                entry.1 = "payload_size,local_age".into();
            }
        }
        assert!(distill_checkpoint(&stripped).is_err());
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            recipe_hash: "00ff00ff00ff00ff".into(),
            git_describe: "v0-test".into(),
            converged: Some(true),
            curve: vec![10.5, 7.25, 0.1 + 0.2], // deliberately awkward float
            accuracy: vec![0.5, 0.75],
            config: vec![
                ("hidden".into(), "15".into()),
                ("features".into(), "payload_size,local_age".into()),
                ("note \"quoted\"\n".into(), "tab\there".into()),
            ],
            model: Mlp::paper_agent(4, 3, 2, 7),
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_identically() {
        let ckpt = sample_checkpoint();
        let json = ckpt.to_json();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(ckpt, back);
        // Serialization is a fixpoint, so equal checkpoints mean equal bytes.
        assert_eq!(json, back.to_json());
        // And the embedded model is bitwise the same network.
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(ckpt.model.forward(&x), back.model.forward(&x));
    }

    #[test]
    fn checkpoint_roundtrips_through_file() {
        let mut ckpt = sample_checkpoint();
        ckpt.converged = None;
        let dir = std::env::temp_dir().join("rl_arb_ckpt_test");
        let path = dir.join("nested").join("a.ckpt.json");
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_schema_version_is_enforced() {
        let json = sample_checkpoint().to_json().replace(
            "\"ckpt_schema\": 1,",
            "\"ckpt_schema\": 99,",
        );
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert!(err.contains("unsupported checkpoint schema 99"), "{err}");
    }

    #[test]
    fn checkpoint_missing_field_is_reported() {
        let err = Checkpoint::from_json("{\"ckpt_schema\": 1}").unwrap_err();
        assert!(err.contains("missing 'converged'") || err.contains("missing '"), "{err}");
    }

    #[test]
    fn checkpoint_rejects_malformed_json() {
        assert!(Checkpoint::from_json("{\"ckpt_schema\": 1,").is_err());
        assert!(Checkpoint::from_json("[]").is_err());
        assert!(Checkpoint::from_json("{} trailing").is_err());
    }

    #[test]
    fn checkpoint_rejects_corrupt_embedded_model() {
        let json = sample_checkpoint().to_json().replace("mlp v1", "mlp v9");
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert!(err.contains("embedded model"), "{err}");
    }

    #[test]
    fn config_value_finds_entries() {
        let ckpt = sample_checkpoint();
        assert_eq!(ckpt.config_value("hidden"), Some("15"));
        assert_eq!(ckpt.config_value("absent"), None);
    }
}

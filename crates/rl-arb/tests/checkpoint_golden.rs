//! Checkpoint JSON schema tests: the serialized form is a versioned
//! interface, pinned by a checked-in golden file.
//!
//! To regenerate the golden after an intentional schema bump:
//! `BLESS=1 cargo test -p rl-arb --test checkpoint_golden`.

use nn_mlp::Mlp;
use rl_arb::{Checkpoint, CHECKPOINT_SCHEMA_VERSION};

fn sample_checkpoint() -> Checkpoint {
    Checkpoint {
        recipe_hash: "0123456789abcdef".into(),
        git_describe: "test-fixture".into(),
        converged: Some(false),
        curve: vec![42.5, 17.125, 9.0625],
        accuracy: vec![0.25, 0.5, 0.625],
        config: vec![
            ("num_ports".into(), "6".into()),
            ("hidden".into(), "15".into()),
            ("features".into(), "payload_size,local_age".into()),
        ],
        // Seeded init is deterministic (vendored StdRng), so the golden
        // pins real weight bytes, not just structure.
        model: Mlp::paper_agent(3, 2, 2, 7),
    }
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/checkpoint_v1.json"
);

/// The serialized form matches the checked-in golden byte-for-byte, and
/// the golden parses back to the identical checkpoint.
#[test]
fn checkpoint_matches_golden_schema() {
    let ckpt = sample_checkpoint();
    let json = ckpt.to_json();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("bless golden");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "Checkpoint JSON no longer matches the v{CHECKPOINT_SCHEMA_VERSION} golden; \
         if the schema change is intentional, bump CHECKPOINT_SCHEMA_VERSION and re-bless"
    );
    let parsed = Checkpoint::from_json(&golden).expect("golden parses");
    assert_eq!(parsed, ckpt, "golden does not round-trip");
}

/// Serialize → parse → serialize is a fixpoint.
#[test]
fn checkpoint_serialization_is_a_fixpoint() {
    let once = sample_checkpoint().to_json();
    let twice = Checkpoint::from_json(&once).unwrap().to_json();
    assert_eq!(once, twice);
}

/// The schema version field gates evolution: checkpoints always carry it.
#[test]
fn schema_version_is_stamped() {
    let json = sample_checkpoint().to_json();
    assert!(json.starts_with("{\n  \"ckpt_schema\": 1,"));
}

//! The content-addressed trained-artifact store.
//!
//! Training is the expensive, non-parallelizable part of every NN-bearing
//! figure. The store memoizes it on disk: a [`rl_arb::TrainRecipe`] is a
//! pure-data description of one training run, its FNV-1a content hash
//! names the artifact file (`<dir>/<hash>.ckpt.json`, a
//! [`rl_arb::Checkpoint`]), and [`ArtifactStore::resolve`] either loads
//! that checkpoint (zero training steps) or trains, saves and returns it.
//!
//! The rebuilt policy is bit-identical to freezing the just-trained agent
//! (the checkpoint round-trips weights, encoder geometry and feature
//! bounds exactly, and the frozen arbiter's remaining inputs are fixed
//! constants — pinned by `rl-arb`'s `rebuilt_policy_matches_frozen_agent`
//! test), so warm-store figure output is byte-identical to a cold run.

use std::path::{Path, PathBuf};

use rl_arb::{
    checkpoint_from_outcome, policy_from_checkpoint, Checkpoint, NnPolicyArbiter, TrainRecipe,
    Trainer,
};

use super::record::git_describe;
use crate::CliArgs;

/// A trained artifact resolved through the store.
#[derive(Debug)]
pub struct ResolvedArtifact {
    /// The frozen evaluation policy.
    pub policy: NnPolicyArbiter,
    /// The producing recipe's content hash (the artifact's identity; every
    /// NN cell records it in the `RunRecord`).
    pub recipe_hash: String,
    /// Whether the artifact was loaded from disk (no training happened).
    pub was_cached: bool,
    /// Where the checkpoint lives.
    pub path: PathBuf,
}

/// A directory of checkpoints addressed by recipe hash.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
    retrain: bool,
}

impl ArtifactStore {
    /// A store rooted at `dir`. With `retrain`, cached artifacts are
    /// ignored (and overwritten) — the `--retrain` escape hatch.
    pub fn new(dir: impl Into<PathBuf>, retrain: bool) -> Self {
        ArtifactStore { dir: dir.into(), retrain }
    }

    /// The store the given CLI arguments select.
    pub fn from_args(args: &CliArgs) -> Self {
        Self::new(&args.artifacts_dir, args.retrain)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The checkpoint path a recipe hash addresses.
    pub fn path_for(&self, recipe_hash: &str) -> PathBuf {
        self.dir.join(format!("{recipe_hash}.ckpt.json"))
    }

    /// Load-or-train: returns the frozen policy for `recipe`, training
    /// only when no usable checkpoint exists (or `--retrain` asked for a
    /// fresh one). A checkpoint that exists but fails to decode is
    /// reported and retrained over rather than trusted.
    ///
    /// # Errors
    ///
    /// Returns a description of an unresolvable recipe (e.g. an unknown
    /// APU benchmark name) or a failed checkpoint write.
    pub fn resolve(&self, recipe: &TrainRecipe) -> Result<ResolvedArtifact, String> {
        let recipe_hash = recipe.hash_hex();
        let path = self.path_for(&recipe_hash);
        if !self.retrain && path.exists() {
            match Checkpoint::load(&path)
                .map_err(|e| e.to_string())
                .and_then(|ckpt| {
                    if ckpt.recipe_hash != recipe_hash {
                        return Err(format!(
                            "stored recipe hash {} does not match file name",
                            ckpt.recipe_hash
                        ));
                    }
                    policy_from_checkpoint(&ckpt)
                }) {
                Ok(policy) => {
                    rl_arb::progress!(
                        "using cached NN artifact {recipe_hash} for {} ...",
                        recipe.label()
                    );
                    return Ok(ResolvedArtifact {
                        policy,
                        recipe_hash,
                        was_cached: true,
                        path,
                    });
                }
                Err(e) => {
                    rl_arb::progress!(
                        "artifact {} is unusable ({e}); retraining ...",
                        path.display()
                    );
                }
            }
        }
        let mut env = recipe.env()?;
        let outcome = Trainer::new(recipe.agent_config().clone()).run(env.as_mut());
        let ckpt = checkpoint_from_outcome(&outcome, &recipe_hash, &git_describe());
        // Atomic, so concurrent resolvers of the same recipe never observe
        // a half-written checkpoint.
        crate::write_atomic(&path, &ckpt.to_json())
            .map_err(|e| format!("writing artifact {}: {e}", path.display()))?;
        rl_arb::progress!("NN artifact {recipe_hash} written to {}", path.display());
        Ok(ResolvedArtifact {
            policy: outcome.agent.freeze(),
            recipe_hash,
            was_cached: false,
            path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_arb::{training_epochs, TrainSpec};

    fn tiny_recipe(seed: u64) -> TrainRecipe {
        let mut spec = TrainSpec::tuned_synthetic(4, 0.25, seed);
        spec.curriculum = Vec::new();
        spec.epochs = 2;
        spec.cycles_per_epoch = 300;
        TrainRecipe::Synthetic(spec)
    }

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir()
            .join(format!("bench-artifacts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::new(dir, false)
    }

    #[test]
    fn cold_resolve_trains_and_warm_resolve_loads_the_same_policy() {
        let store = temp_store("warm");
        let recipe = tiny_recipe(11);
        let cold = store.resolve(&recipe).unwrap();
        assert!(!cold.was_cached);
        assert!(cold.path.exists(), "checkpoint written");

        // Witnesses local to this test (the global epoch counter also
        // counts sibling tests training on other threads): a warm resolve
        // neither rewrites nor touches the checkpoint.
        let bytes = std::fs::read(&cold.path).unwrap();
        let mtime = std::fs::metadata(&cold.path).unwrap().modified().unwrap();
        let warm = store.resolve(&recipe).unwrap();
        assert!(warm.was_cached, "warm resolve must not train");
        assert_eq!(std::fs::read(&warm.path).unwrap(), bytes);
        assert_eq!(std::fs::metadata(&warm.path).unwrap().modified().unwrap(), mtime);
        assert_eq!(warm.recipe_hash, cold.recipe_hash);
        // Bit-identical policy (Debug covers weights + full arbiter state).
        assert_eq!(format!("{:?}", warm.policy), format!("{:?}", cold.policy));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn retrain_ignores_the_cache() {
        let store = temp_store("retrain");
        let recipe = tiny_recipe(12);
        store.resolve(&recipe).unwrap();
        let retrainer = ArtifactStore::new(store.dir(), true);
        let before = training_epochs();
        let again = retrainer.resolve(&recipe).unwrap();
        assert!(!again.was_cached);
        assert!(training_epochs() > before, "--retrain must train");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_artifacts_are_retrained_over() {
        let store = temp_store("corrupt");
        let recipe = tiny_recipe(13);
        let first = store.resolve(&recipe).unwrap();
        std::fs::write(&first.path, "not a checkpoint").unwrap();
        let again = store.resolve(&recipe).unwrap();
        assert!(!again.was_cached, "corrupt checkpoint must not be trusted");
        // The repaired artifact is readable again.
        assert!(store.resolve(&recipe).unwrap().was_cached);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unknown_benchmarks_are_reported() {
        let store = temp_store("unknown");
        let recipe = TrainRecipe::Apu(rl_arb::ApuTrainSpec::tuned(
            "no-such-benchmark",
            1,
            1_000,
            0.02,
            42,
        ));
        let err = store.resolve(&recipe).unwrap_err();
        assert!(err.contains("no-such-benchmark"), "{err}");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

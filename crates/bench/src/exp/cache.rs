//! Content-addressed result cache for simulation cells.
//!
//! Where [`super::artifacts::ArtifactStore`] caches *trained networks* by
//! training-recipe hash, `ResultCache` generalizes the idea to *simulation
//! results*: every cell of a run matrix is identified by a [`CellJob`] —
//! the canonical description of everything that determines its result
//! bits — and its [`CellRecord`] is stored under
//! `<cache-dir>/<hash>.cell.json`. A warm cache reproduces any
//! previously-run figure with zero simulated cycles; the driver stamps
//! each assembled cell with its hash and `"hit"`/`"miss"` provenance.
//!
//! Entries are written atomically (unique temp file + rename, the
//! `ArtifactStore` pattern), and corrupt, truncated or mis-keyed entries
//! load as `None` so the affected cell silently re-simulates.

use std::path::{Path, PathBuf};

use noc_sim::codec::{fnv1a64, Json, ObjExt};
use rl_arb::InferenceMode;

use super::backend::CellRecord;
use super::record::{cell_from_json, cell_to_json};
use super::spec::{ScenarioSpec, TierParams};
use crate::CliArgs;

/// Version stamp of the on-disk cache-entry schema *and* of the
/// [`CellJob`] canonical hash input. Bump on any change to either — old
/// entries then simply miss and re-simulate; no migration is needed.
/// (v2: `ScenarioSpec::Synthetic` gained the `noc` fabric-sizing field.
/// v3: the synthetic backend emits the self-healing recovery metrics, so
/// pre-v3 cells lack columns the selfheal renderer reads.)
pub const CACHE_SCHEMA_VERSION: u64 = 3;

/// The identity of one simulation cell: everything that determines the
/// cell's result bits, as pure data. Hashing a `CellJob` needs no
/// training and no simulation, so a fully warm run computes every key
/// without doing any work.
#[derive(Debug, Clone, PartialEq)]
pub struct CellJob {
    /// The scenario the cell runs.
    pub scenario: ScenarioSpec,
    /// Row label (carries the `@f<intensity>` suffix under a fault axis).
    pub label: String,
    /// Canonical policy name (`"nn"`, `"global_age"`, ...).
    pub policy: String,
    /// Sweep seed of this cell.
    pub seed: u64,
    /// Base seed of the run (feeds plan generation and training).
    pub base_seed: u64,
    /// Tier parameters the cell runs under.
    pub params: TierParams,
    /// Training-recipe hash of the NN artifact (`None` for builtins).
    pub artifact: Option<String>,
    /// Hash of the fault plan the cell runs under (`None` = fault-free).
    pub fault_plan: Option<String>,
    /// NN inference datapath. Only part of the identity for NN cells —
    /// builtin policies never touch the network, so their results are
    /// datapath-invariant.
    pub inference: InferenceMode,
}

impl CellJob {
    /// The canonical content-hash input. Every field that can change the
    /// result bits appears exactly once; `Debug` formats are stable for
    /// the plain-data spec types used here.
    fn canonical(&self) -> String {
        let opt = |v: &Option<String>| v.clone().unwrap_or_else(|| "-".into());
        let inference = match self.artifact {
            Some(_) => format!("{:?}", self.inference),
            None => "-".into(),
        };
        format!(
            "cell-cache-v{CACHE_SCHEMA_VERSION}|scenario={:?}|label={}|policy={}|seed={}|base_seed={}|params={:?}|artifact={}|fault_plan={}|inference={inference}",
            self.scenario,
            self.label,
            self.policy,
            self.seed,
            self.base_seed,
            self.params,
            opt(&self.artifact),
            opt(&self.fault_plan),
        )
    }

    /// FNV-1a content hash of the cell identity, as the 16-digit hex key
    /// the cache files are named by.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }
}

/// The on-disk, content-addressed cell-result store.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The cache the CLI flags select (`--cache-dir`).
    pub fn from_args(args: &CliArgs) -> Self {
        ResultCache::new(args.cache_dir.clone())
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a hash's entry lives at.
    pub fn path_for(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.cell.json"))
    }

    /// Loads the cell stored under `hash`. Missing, truncated, corrupt,
    /// version-skewed or mis-keyed entries all return `None` — the cell
    /// then re-simulates and the entry is rewritten, so a damaged cache
    /// self-repairs without any tooling.
    pub fn load(&self, hash: &str) -> Option<CellRecord> {
        let text = std::fs::read_to_string(self.path_for(hash)).ok()?;
        let value = Json::parse(&text).ok()?;
        let obj = value.as_object().ok()?;
        if obj.get("cache_schema_version")?.as_u64().ok()? != CACHE_SCHEMA_VERSION {
            return None;
        }
        if obj.get("cell_hash")?.as_str().ok()? != hash {
            return None;
        }
        let cell = cell_from_json(obj.get("cell")?).ok()?;
        // The embedded cell must agree with the entry's own key.
        if cell.cell_hash.as_deref() != Some(hash) {
            return None;
        }
        Some(cell)
    }

    /// Stores `cell` under `hash`, atomically (write to a unique temp
    /// file, then rename). The stored cell is normalized — `cell_hash`
    /// set, provenance (`cache`) cleared — so entry bytes are identical
    /// whether the producing run was cold or warm.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat the cache as best-effort.
    pub fn store(&self, hash: &str, cell: &CellRecord) -> std::io::Result<PathBuf> {
        let mut normalized = cell.clone();
        normalized.cell_hash = Some(hash.to_string());
        normalized.cache = None;
        let text = format!(
            "{{\n  \"cache_schema_version\": {CACHE_SCHEMA_VERSION},\n  \"cell_hash\": \"{hash}\",\n  \"cell\": {}\n}}\n",
            cell_to_json(&normalized)
        );
        let path = self.path_for(hash);
        crate::write_atomic(&path, &text)?;
        Ok(path)
    }
}

/// End-of-run cache accounting, printed by `repro --cache-stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Matrix cells the run assembled (hits + misses).
    pub cells: u64,
    /// Cells answered from the cache with zero simulation.
    pub hits: u64,
    /// Cells simulated this run (and stored for the next one).
    pub misses: u64,
    /// Simulator cycles actually stepped, training included (`0` on a
    /// fully warm run).
    pub simulated_cycles: u64,
}

impl CacheStats {
    /// Folds another accounting run into this one (counter-wise sum).
    pub fn absorb(&mut self, other: CacheStats) {
        self.cells += other.cells;
        self.hits += other.hits;
        self.misses += other.misses;
        self.simulated_cycles += other.simulated_cycles;
    }

    /// The one-line summary `--cache-stats` prints.
    pub fn summary(&self) -> String {
        format!(
            "cache-stats: cells={} hits={} misses={} simulated-cycles={}",
            self.cells, self.hits, self.misses, self.simulated_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::super::spec::{mesh4x4, TopoSpec};
    use noc_sim::{Pattern, RoutingKind};

    fn job(seed: u64) -> CellJob {
        CellJob {
            scenario: mesh4x4("4x4", Pattern::UniformRandom, 0.4, TopoSpec::Mesh, RoutingKind::XY),
            label: "4x4".into(),
            policy: "global_age".into(),
            seed,
            base_seed: 42,
            params: TierParams {
                warmup: 100,
                measure: 400,
                max_cycles: 0,
                seeds: 2,
                apu_scale: 0.0,
                nn_epochs: 0,
                nn_epoch_cycles: 0,
                nn_repeats: 0,
            },
            artifact: None,
            fault_plan: None,
            inference: InferenceMode::F32,
        }
    }

    fn cell(hash: Option<&str>) -> CellRecord {
        CellRecord {
            scenario: "4x4".into(),
            policy: "global_age".into(),
            seed: 7,
            artifact: None,
            fault_plan: None,
            cell_hash: hash.map(Into::into),
            cache: None,
            metrics: vec![("avg_latency".into(), 12.5)],
        }
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "mlnoc_result_cache_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        ResultCache::new(dir)
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let a = job(7);
        assert_eq!(a.hash_hex(), job(7).hash_hex(), "hash must be a pure function");
        assert_ne!(a.hash_hex(), job(8).hash_hex(), "seed must change the key");
        let mut b = job(7);
        b.policy = "fifo".into();
        assert_ne!(a.hash_hex(), b.hash_hex(), "policy must change the key");
        let mut c = job(7);
        c.fault_plan = Some("0123456789abcdef".into());
        assert_ne!(a.hash_hex(), c.hash_hex(), "fault plan must change the key");
        let mut d = job(7);
        if let ScenarioSpec::Synthetic { noc, .. } = &mut d.scenario {
            *noc = Some(super::super::spec::NocParams { vnets: 2, vc_capacity_flits: 5 });
        }
        assert_ne!(a.hash_hex(), d.hash_hex(), "fabric sizing must change the key");
    }

    #[test]
    fn inference_only_keys_nn_cells() {
        let mut builtin = job(7);
        builtin.inference = InferenceMode::Int8;
        assert_eq!(
            job(7).hash_hex(),
            builtin.hash_hex(),
            "builtin results are datapath-invariant"
        );
        let mut nn_f32 = job(7);
        nn_f32.artifact = Some("aa".into());
        let mut nn_int8 = nn_f32.clone();
        nn_int8.inference = InferenceMode::Int8;
        assert_ne!(nn_f32.hash_hex(), nn_int8.hash_hex());
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = temp_cache("round_trip");
        let hash = job(7).hash_hex();
        assert_eq!(cache.load(&hash), None, "cold cache misses");
        cache.store(&hash, &cell(None)).unwrap();
        let loaded = cache.load(&hash).expect("warm cache hits");
        assert_eq!(loaded.cell_hash.as_deref(), Some(hash.as_str()));
        assert_eq!(loaded.cache, None, "stored entries carry no provenance");
        assert_eq!(loaded.metrics, cell(None).metrics);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn stored_bytes_are_provenance_invariant() {
        let cache = temp_cache("normalize");
        let hash = job(7).hash_hex();
        let mut hit = cell(Some(&hash));
        hit.cache = Some("hit".into());
        cache.store(&hash, &hit).unwrap();
        let a = std::fs::read(cache.path_for(&hash)).unwrap();
        let mut miss = cell(Some(&hash));
        miss.cache = Some("miss".into());
        cache.store(&hash, &miss).unwrap();
        let b = std::fs::read(cache.path_for(&hash)).unwrap();
        assert_eq!(a, b, "entry bytes must not depend on the producing run");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupt_truncated_or_miskeyed_entries_miss() {
        let cache = temp_cache("corrupt");
        let hash = job(7).hash_hex();
        cache.store(&hash, &cell(None)).unwrap();
        let path = cache.path_for(&hash);

        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(cache.load(&hash), None, "truncated entry must miss");

        std::fs::write(&path, "not json at all").unwrap();
        assert_eq!(cache.load(&hash), None, "corrupt entry must miss");

        // A valid entry filed under the wrong key must miss too.
        cache.store(&hash, &cell(None)).unwrap();
        let other = job(8).hash_hex();
        std::fs::copy(&path, cache.path_for(&other)).unwrap();
        assert_eq!(cache.load(&other), None, "mis-keyed entry must miss");
        assert!(cache.load(&hash).is_some(), "the honest entry still hits");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn version_skewed_entries_miss() {
        let cache = temp_cache("version");
        let hash = job(7).hash_hex();
        cache.store(&hash, &cell(None)).unwrap();
        let path = cache.path_for(&hash);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace(
                &format!("\"cache_schema_version\": {CACHE_SCHEMA_VERSION}"),
                "\"cache_schema_version\": 999",
            ),
        )
        .unwrap();
        assert_eq!(cache.load(&hash), None, "future-versioned entry must miss");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn stats_summary_is_greppable() {
        let stats = CacheStats { cells: 18, hits: 18, misses: 0, simulated_cycles: 0 };
        assert_eq!(
            stats.summary(),
            "cache-stats: cells=18 hits=18 misses=0 simulated-cycles=0"
        );
    }
}

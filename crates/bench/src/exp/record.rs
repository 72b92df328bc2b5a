//! `RunRecord` — the versioned, structured result artifact.
//!
//! Every driver invocation writes one `RunRecord` JSON next to its text
//! table: per-cell metric values, the seed list, the normalization
//! reference, `git describe` and a hash of the `ExperimentSpec`. The
//! schema is the stable contract future sharded/remote execution and
//! regression tooling consume, so it is versioned
//! ([`RUN_RECORD_SCHEMA_VERSION`]) and round-trip tested against a golden
//! file.
//!
//! The build environment has no crates.io access, so serialization is a
//! small hand-rolled emitter over the workspace codec ([`noc_sim::codec`]),
//! whose [`Json`] tree keeps each number's lexeme so `u64` seeds survive
//! exactly.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use noc_sim::codec::Json;
use noc_sim::codec::{json_num, json_str, ObjExt};

use super::backend::CellRecord;

/// Version stamp of the `RunRecord` JSON schema. Bump on any breaking
/// change and teach consumers both shapes.
///
/// History:
/// * **v1** — initial schema.
/// * **v2** — cells may carry an optional `"fault_plan"` key (the
///   [`noc_sim::FaultPlan::hash_hex`] of the plan the cell ran under).
///   Fault-free cells omit the key, so v1 documents remain parseable by
///   the v2 reader (`tests/run_record.rs` pins this).
/// * **v3** — cells may carry optional `"cell_hash"` (the result-cache
///   content hash of the cell's job identity) and `"cache"` (`"hit"` /
///   `"miss"` provenance) keys. Cells that bypassed the cache omit both,
///   so v1/v2 documents remain parseable (`tests/run_record.rs` pins
///   both frozen goldens).
pub const RUN_RECORD_SCHEMA_VERSION: u64 = 3;

/// A rendered table: header row plus data rows, all strings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

/// The structured result of one driver invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Schema version ([`RUN_RECORD_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Canonical figure name.
    pub figure: String,
    /// Human title.
    pub title: String,
    /// Tier name (`"quick"` / `"full"`).
    pub tier: String,
    /// Backend name (`"synthetic"`, `"apu"`, or `"mixed"`).
    pub backend: String,
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// Every seed the sweep ran.
    pub seeds: Vec<u64>,
    /// Worker threads used (informational: results are thread-invariant).
    pub threads: u64,
    /// `git describe --always --dirty` of the producing checkout.
    pub git_describe: String,
    /// FNV-1a hash of the experiment spec (empty for custom figures).
    pub spec_hash: String,
    /// Canonical name of the normalization reference policy, if any.
    pub normalization: Option<String>,
    /// Per-cell raw values.
    pub cells: Vec<CellRecord>,
    /// The rendered table, machine-readable.
    pub table: Table,
}

impl RunRecord {
    /// Serializes the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"figure\": {},", json_str(&self.figure));
        let _ = writeln!(s, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(s, "  \"tier\": {},", json_str(&self.tier));
        let _ = writeln!(s, "  \"backend\": {},", json_str(&self.backend));
        let _ = writeln!(s, "  \"base_seed\": {},", self.base_seed);
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "  \"seeds\": [{}],", seeds.join(", "));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"git_describe\": {},", json_str(&self.git_describe));
        let _ = writeln!(s, "  \"spec_hash\": {},", json_str(&self.spec_hash));
        match &self.normalization {
            Some(n) => {
                let _ = writeln!(s, "  \"normalization\": {},", json_str(n));
            }
            None => s.push_str("  \"normalization\": null,\n"),
        }
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(s, "    {}", cell_to_json(c));
            s.push_str(if i + 1 < self.cells.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"table\": {\n");
        let headers: Vec<String> = self.table.headers.iter().map(|h| json_str(h)).collect();
        let _ = writeln!(s, "    \"headers\": [{}],", headers.join(", "));
        s.push_str("    \"rows\": [\n");
        for (i, row) in self.table.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|c| json_str(c)).collect();
            let _ = write!(s, "      [{}]", cells.join(", "));
            s.push_str(if i + 1 < self.table.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("    ]\n");
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// Parses a record back from JSON (the regression-tooling direction).
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object()?;
        let cells_json = obj.get("cells").ok_or("missing 'cells'")?.as_array()?;
        let mut cells = Vec::with_capacity(cells_json.len());
        for c in cells_json {
            cells.push(cell_from_json(c)?);
        }
        let table_obj = obj.get("table").ok_or("missing 'table'")?.as_object()?;
        let headers = table_obj
            .get("headers")
            .ok_or("missing table 'headers'")?
            .as_array()?
            .iter()
            .map(Json::as_str)
            .collect::<Result<Vec<_>, _>>()?;
        let mut rows = Vec::new();
        for row in table_obj.get("rows").ok_or("missing table 'rows'")?.as_array()? {
            rows.push(
                row.as_array()?
                    .iter()
                    .map(Json::as_str)
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        let get_str = |key: &str| -> Result<String, String> {
            obj.get(key).ok_or(format!("missing '{key}'"))?.as_str()
        };
        let normalization = match obj.get("normalization") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str()?),
        };
        Ok(RunRecord {
            schema_version: obj
                .get("schema_version")
                .ok_or("missing 'schema_version'")?
                .as_u64()?,
            figure: get_str("figure")?,
            title: get_str("title")?,
            tier: get_str("tier")?,
            backend: get_str("backend")?,
            base_seed: obj.get("base_seed").ok_or("missing 'base_seed'")?.as_u64()?,
            seeds: obj
                .get("seeds")
                .ok_or("missing 'seeds'")?
                .as_array()?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<Vec<_>, _>>()?,
            threads: obj.get("threads").ok_or("missing 'threads'")?.as_u64()?,
            git_describe: get_str("git_describe")?,
            spec_hash: get_str("spec_hash")?,
            normalization,
            cells,
            table: Table { headers, rows },
        })
    }

    /// Writes the record to `<dir>/<basename>.json`, creating the
    /// directory, and returns the path. I/O errors propagate.
    pub fn write(&self, dir: &Path, basename: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{basename}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable (results must still be writable offline).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Serializes one cell as a single-line JSON object. Shared by the
/// record emitter and the result cache so a cell's byte shape is
/// identical in both stores. Optional keys (`artifact`, `fault_plan`,
/// `cell_hash`, `cache`) appear only when present, so older-shape
/// documents keep their exact bytes.
pub(crate) fn cell_to_json(c: &CellRecord) -> String {
    let metrics: Vec<String> = c
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let opt = |key: &str, v: &Option<String>| match v {
        Some(s) => format!(", {}: {}", json_str(key), json_str(s)),
        None => String::new(),
    };
    format!(
        "{{\"scenario\": {}, \"policy\": {}, \"seed\": {}{}{}{}{}, \"metrics\": {{{}}}}}",
        json_str(&c.scenario),
        json_str(&c.policy),
        c.seed,
        opt("artifact", &c.artifact),
        opt("fault_plan", &c.fault_plan),
        opt("cell_hash", &c.cell_hash),
        opt("cache", &c.cache),
        metrics.join(", ")
    )
}

/// Parses one cell from its JSON value (inverse of [`cell_to_json`]).
pub(crate) fn cell_from_json(c: &Json) -> Result<CellRecord, String> {
    let co = c.as_object()?;
    let metrics_obj = co.get("metrics").ok_or("missing cell 'metrics'")?.as_object()?;
    let mut metrics = Vec::with_capacity(metrics_obj.len());
    for (k, v) in metrics_obj {
        metrics.push((k.clone(), v.as_f64()?));
    }
    let opt = |key: &str| -> Result<Option<String>, String> {
        match co.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => Ok(Some(v.as_str()?)),
        }
    };
    Ok(CellRecord {
        scenario: co.get("scenario").ok_or("missing cell 'scenario'")?.as_str()?,
        policy: co.get("policy").ok_or("missing cell 'policy'")?.as_str()?,
        seed: co.get("seed").ok_or("missing cell 'seed'")?.as_u64()?,
        artifact: opt("artifact")?,
        fault_plan: opt("fault_plan")?,
        cell_hash: opt("cell_hash")?,
        cache: opt("cache")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            schema_version: RUN_RECORD_SCHEMA_VERSION,
            figure: "fig09".into(),
            title: "normalized average execution time".into(),
            tier: "quick".into(),
            backend: "apu".into(),
            base_seed: 42,
            seeds: vec![42, 43],
            threads: 4,
            git_describe: "abc1234-dirty".into(),
            spec_hash: "00ff00ff00ff00ff".into(),
            normalization: Some("global-age".into()),
            cells: vec![CellRecord::new(
                "bfs".into(),
                "round-robin".into(),
                42,
                vec![("avg_exec".into(), 1234.5), ("tail_exec".into(), 2000.0)],
            )],
            table: Table {
                headers: vec!["workload".into(), "Round-robin".into()],
                rows: vec![vec!["bfs".into(), "1.046".into()]],
            },
        }
    }

    #[test]
    fn json_round_trips() {
        let rec = sample();
        let parsed = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn json_escapes_special_chars() {
        let mut rec = sample();
        rec.title = "quote \" backslash \\ newline \n tab \t".into();
        let parsed = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed.title, rec.title);
    }

    #[test]
    fn cell_artifacts_round_trip_and_absent_ones_stay_absent() {
        let mut rec = sample();
        rec.cells[0].artifact = Some("0123456789abcdef".into());
        let json = rec.to_json();
        assert!(json.contains("\"artifact\": \"0123456789abcdef\""));
        assert_eq!(RunRecord::from_json(&json).unwrap(), rec);
        rec.cells[0].artifact = None;
        let json = rec.to_json();
        assert!(!json.contains("artifact"), "no key for artifact-free cells");
        assert_eq!(RunRecord::from_json(&json).unwrap(), rec);
    }

    #[test]
    fn cell_fault_plans_round_trip_and_absent_ones_stay_absent() {
        let mut rec = sample();
        rec.cells[0].fault_plan = Some("fedcba9876543210".into());
        let json = rec.to_json();
        assert!(json.contains("\"fault_plan\": \"fedcba9876543210\""));
        assert_eq!(RunRecord::from_json(&json).unwrap(), rec);
        rec.cells[0].fault_plan = None;
        let json = rec.to_json();
        assert!(!json.contains("fault_plan"), "no key for fault-free cells");
        assert_eq!(RunRecord::from_json(&json).unwrap(), rec);
    }

    #[test]
    fn cell_cache_provenance_round_trips_and_absent_ones_stay_absent() {
        let mut rec = sample();
        rec.cells[0].cell_hash = Some("0011223344556677".into());
        rec.cells[0].cache = Some("hit".into());
        let json = rec.to_json();
        assert!(json.contains("\"cell_hash\": \"0011223344556677\""));
        assert!(json.contains("\"cache\": \"hit\""));
        assert_eq!(RunRecord::from_json(&json).unwrap(), rec);
        rec.cells[0].cell_hash = None;
        rec.cells[0].cache = None;
        let json = rec.to_json();
        assert!(!json.contains("cell_hash"), "no key for uncached cells");
        assert!(!json.contains("\"cache\""), "no key for uncached cells");
        assert_eq!(RunRecord::from_json(&json).unwrap(), rec);
    }

    #[test]
    fn null_normalization_round_trips() {
        let mut rec = sample();
        rec.normalization = None;
        let parsed = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed.normalization, None);
    }

    #[test]
    fn large_seeds_survive_exactly() {
        let mut rec = sample();
        rec.seeds = vec![u64::MAX, 0];
        rec.base_seed = u64::MAX;
        let parsed = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed.seeds, rec.seeds);
        assert_eq!(parsed.base_seed, u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunRecord::from_json("{").is_err());
        assert!(RunRecord::from_json("{} trailing").is_err());
        assert!(RunRecord::from_json("{\"figure\": 3}").is_err());
    }
}

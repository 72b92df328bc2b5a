//! `SearchRecord` — the versioned, structured trace of one search run.
//!
//! Every `repro search` invocation writes one `SearchRecord` JSON next to
//! its Pareto CSV: every evaluated point with its objective vector, cache
//! provenance and driver provenance (`op`), plus the Pareto-front
//! indices. The record deliberately excludes the thread count and any
//! timestamp, so two runs of the same `(driver, seed, budget, tier)` are
//! byte-identical for any `--threads` — and a killed search resumes by
//! replaying its own record (see [`super::runner`]).

use std::fmt::Write as _;

use noc_sim::codec::{json_num, json_str, Json, ObjExt};

/// Version stamp of the `SearchRecord` JSON schema. Bump on any breaking
/// change and teach consumers both shapes.
///
/// History:
/// * **v1** — initial schema: header (`driver`, `base_seed`, `budget`,
///   `tier`, `git_describe`, `space_hash`), the axis/level tables, the
///   per-point trace and the Pareto indices.
pub const SEARCH_SCHEMA_VERSION: u64 = 1;

/// One evaluated design point in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchPointRecord {
    /// Evaluation index (position in the trace, 0-based).
    pub index: u64,
    /// Proposal round the point came from (1-based).
    pub round: u64,
    /// Driver provenance: how the point was derived (`"init"`,
    /// `"neighbor(size)"`, `"mutate(2)"`, `"random"`).
    pub op: String,
    /// Per-axis ordinals of the point.
    pub ordinals: Vec<usize>,
    /// Per-axis level labels (redundant with `ordinals`, kept for
    /// human-readable records).
    pub labels: Vec<String>,
    /// Hash of the point's decoded `ExperimentSpec` — the key the result
    /// cache and the resume memo use.
    pub spec_hash: String,
    /// Objective: mean NN message latency (cycles).
    pub latency: f64,
    /// Objective: mean NN throughput (flits/cycle).
    pub throughput: f64,
    /// Objective: inference-engine gate count (32 nm).
    pub gates: f64,
    /// Scalar ranking score (lower is better).
    pub score: f64,
    /// Where this evaluation came from: `"miss"` (simulated this run),
    /// `"hit"` (all cells answered by the result cache), `"mixed"`
    /// (partial hit), or `"memo"` (replayed from a prior record while
    /// resuming).
    pub cache: String,
}

/// The structured trace of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRecord {
    /// Schema version ([`SEARCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Driver name (`"hc"`, `"evo"`, `"random"`).
    pub driver: String,
    /// Base seed of the run (feeds the proposal RNG and every cell).
    pub base_seed: u64,
    /// Evaluation budget the run was invoked with.
    pub budget: u64,
    /// Tier name (`"quick"` / `"full"`).
    pub tier: String,
    /// `git describe --always --dirty` of the producing checkout.
    pub git_describe: String,
    /// Hash of the search-space definition (axes and levels) — a resumed
    /// run refuses to replay a record from a different space.
    pub space_hash: String,
    /// The axes: `(name, level labels)` in ordinal order.
    pub axes: Vec<(String, Vec<String>)>,
    /// Every evaluated point, in evaluation order.
    pub points: Vec<SearchPointRecord>,
    /// Indices into `points` forming the Pareto front (minimize latency,
    /// maximize throughput, minimize gates), in evaluation order.
    pub pareto: Vec<u64>,
}

impl SearchRecord {
    /// Serializes the record as pretty-printed JSON. Floats use Rust's
    /// shortest round-trip form, so a parse → reserialize cycle is
    /// byte-stable (which is what makes resume replay exact).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"driver\": {},", json_str(&self.driver));
        let _ = writeln!(s, "  \"base_seed\": {},", self.base_seed);
        let _ = writeln!(s, "  \"budget\": {},", self.budget);
        let _ = writeln!(s, "  \"tier\": {},", json_str(&self.tier));
        let _ = writeln!(s, "  \"git_describe\": {},", json_str(&self.git_describe));
        let _ = writeln!(s, "  \"space_hash\": {},", json_str(&self.space_hash));
        s.push_str("  \"axes\": [\n");
        for (i, (name, levels)) in self.axes.iter().enumerate() {
            let levels: Vec<String> = levels.iter().map(|l| json_str(l)).collect();
            let _ = write!(
                s,
                "    {{\"name\": {}, \"levels\": [{}]}}",
                json_str(name),
                levels.join(", ")
            );
            s.push_str(if i + 1 < self.axes.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let ordinals: Vec<String> = p.ordinals.iter().map(usize::to_string).collect();
            let labels: Vec<String> = p.labels.iter().map(|l| json_str(l)).collect();
            let _ = write!(
                s,
                "    {{\"index\": {}, \"round\": {}, \"op\": {}, \"ordinals\": [{}], \"labels\": [{}], \"spec_hash\": {}, \"latency\": {}, \"throughput\": {}, \"gates\": {}, \"score\": {}, \"cache\": {}}}",
                p.index,
                p.round,
                json_str(&p.op),
                ordinals.join(", "),
                labels.join(", "),
                json_str(&p.spec_hash),
                json_num(p.latency),
                json_num(p.throughput),
                json_num(p.gates),
                json_num(p.score),
                json_str(&p.cache),
            );
            s.push_str(if i + 1 < self.points.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        let pareto: Vec<String> = self.pareto.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "  \"pareto\": [{}]", pareto.join(", "));
        s.push_str("}\n");
        s
    }

    /// Parses a record back from JSON (the resume direction).
    ///
    /// # Errors
    ///
    /// Malformed JSON and missing or mistyped fields are reported; a
    /// version skew is reported explicitly so the caller can choose to
    /// start fresh.
    pub fn from_json(text: &str) -> Result<SearchRecord, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object()?;
        let get = |key: &str| obj.get(key).ok_or(format!("missing '{key}'"));
        let schema_version = get("schema_version")?.as_u64()?;
        if schema_version != SEARCH_SCHEMA_VERSION {
            return Err(format!(
                "search record schema v{schema_version} (this build reads v{SEARCH_SCHEMA_VERSION})"
            ));
        }
        let mut axes = Vec::new();
        for a in get("axes")?.as_array()? {
            let ao = a.as_object()?;
            let name = ao.get("name").ok_or("missing axis 'name'")?.as_str()?;
            let levels = ao
                .get("levels")
                .ok_or("missing axis 'levels'")?
                .as_array()?
                .iter()
                .map(Json::as_str)
                .collect::<Result<Vec<_>, _>>()?;
            axes.push((name, levels));
        }
        let mut points = Vec::new();
        for p in get("points")?.as_array()? {
            let po = p.as_object()?;
            let pget = |key: &str| po.get(key).ok_or(format!("missing point '{key}'"));
            points.push(SearchPointRecord {
                index: pget("index")?.as_u64()?,
                round: pget("round")?.as_u64()?,
                op: pget("op")?.as_str()?,
                ordinals: pget("ordinals")?
                    .as_array()?
                    .iter()
                    .map(|v| v.as_u64().map(|n| n as usize))
                    .collect::<Result<Vec<_>, _>>()?,
                labels: pget("labels")?
                    .as_array()?
                    .iter()
                    .map(Json::as_str)
                    .collect::<Result<Vec<_>, _>>()?,
                spec_hash: pget("spec_hash")?.as_str()?,
                latency: pget("latency")?.as_f64()?,
                throughput: pget("throughput")?.as_f64()?,
                gates: pget("gates")?.as_f64()?,
                score: pget("score")?.as_f64()?,
                cache: pget("cache")?.as_str()?,
            });
        }
        Ok(SearchRecord {
            schema_version,
            driver: get("driver")?.as_str()?,
            base_seed: get("base_seed")?.as_u64()?,
            budget: get("budget")?.as_u64()?,
            tier: get("tier")?.as_str()?,
            git_describe: get("git_describe")?.as_str()?,
            space_hash: get("space_hash")?.as_str()?,
            axes,
            points,
            pareto: get("pareto")?
                .as_array()?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchRecord {
        SearchRecord {
            schema_version: SEARCH_SCHEMA_VERSION,
            driver: "hc".into(),
            base_seed: 42,
            budget: 8,
            tier: "quick".into(),
            git_describe: "abc1234".into(),
            space_hash: "00ff00ff00ff00ff".into(),
            axes: vec![("size".into(), vec!["4x4".into(), "6x6".into()])],
            points: vec![SearchPointRecord {
                index: 0,
                round: 1,
                op: "init".into(),
                ordinals: vec![0, 1],
                labels: vec!["4x4".into(), "mesh-wfa".into()],
                spec_hash: "0123456789abcdef".into(),
                latency: 12.125,
                throughput: 0.30000000000000004,
                gates: 150000.5,
                score: 6062575.0,
                cache: "miss".into(),
            }],
            pareto: vec![0],
        }
    }

    #[test]
    fn json_round_trips() {
        let rec = sample();
        let parsed = SearchRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn reserialization_is_byte_stable() {
        // Shortest round-trip floats mean parse → to_json reproduces the
        // exact bytes — the property resume replay rests on.
        let json = sample().to_json();
        let cycled = SearchRecord::from_json(&json).unwrap().to_json();
        assert_eq!(json, cycled);
    }

    #[test]
    fn version_skew_is_an_explicit_error() {
        let json = sample().to_json().replace(
            &format!("\"schema_version\": {SEARCH_SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        let err = SearchRecord::from_json(&json).unwrap_err();
        assert!(err.contains("schema v999"), "got: {err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SearchRecord::from_json("{").is_err());
        assert!(SearchRecord::from_json("{\"schema_version\": 1}").is_err());
    }
}

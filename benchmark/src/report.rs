//! `nocbench all` (every workload, each in its own child process, one
//! after another, into one result file) and `nocbench compare` (two result
//! files against the benchmark's own bounds).

use std::process::{Command, Stdio};

use bench::exp::record::Json;
use bench::sweep::default_threads;

use crate::spec::{self, Better};

pub fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    match v {
        Json::Obj(o) => o
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key \"{key}\"")),
        other => Err(format!("expected an object with \"{key}\", got {other:?}")),
    }
}

pub fn number(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(n) => n.parse().map_err(|_| format!("bad number {n}")),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

pub fn items(v: &Json) -> Result<&[Json], String> {
    match v {
        Json::Arr(a) => Ok(a),
        other => Err(format!("expected an array, got {other:?}")),
    }
}

pub fn text(v: &Json) -> Result<&str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

/// Runs every workload and writes `benchmark/out/result.json`
/// (`result-traced.json` with `--traced`).
pub fn all(args: &[String]) -> Result<(), String> {
    let (mut seed, mut seconds, mut traced) = (42u64, spec::RUN_SECONDS as f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => traced = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?
            }
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seconds needs a number")?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut traces = Vec::new();
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        // One child at a time: a workload never shares the host with another.
        let output = Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().filter(|l| l.starts_with('{'));
        for line in &lines {
            // Names read `<metric>@<workload>`, so a line stands on its own.
            match line
                .strip_prefix("  metric ")
                .and_then(|l| l.split_once(' '))
            {
                Some((name, rest)) => println!("  metric {name}@{} {rest}", w.name),
                None => println!("{line}"),
            }
        }
        let Some(result) = result else {
            return Err(format!(
                "{} printed no result (exit {})",
                w.name, output.status
            ));
        };
        all_correct &= output.status.success();
        let exact: Vec<String> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("  exact ")?.split_once(' '))
            .map(|(name, value)| format!("\"{name}\": \"{value}\""))
            .collect();
        entries.push(format!(
            "    {{\"name\": \"{}\", \"exact\": {{{}}}, \"result\": {result}}}",
            w.name,
            exact.join(", ")
        ));
        if traced {
            let path = crate::trace_path(w.name);
            traces.push(
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
            );
        }
    }
    // What `run.sh` measured around `cargo build`, in milliseconds.
    let build_s = std::env::var("NOCBENCH_BUILD_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map_or("null".to_string(), |ms| format!("{}", ms / 1e3));
    println!(
        "build_s {build_s} s (host), available_parallelism {}",
        default_threads()
    );
    let text = format!(
        "{{\n  \"schema\": 1,\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"traced\": {traced},\n  \"available_parallelism\": {},\n  \"build_s\": {build_s},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        default_threads(),
        entries.join(",\n"),
    );
    let dir = crate::out_dir();
    let path = dir.join(if traced {
        "result-traced.json"
    } else {
        "result.json"
    });
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    if traced {
        let path = dir.join("trace.json");
        std::fs::write(&path, format!("[\n{}]\n", traces.join(",\n")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    if all_correct {
        Ok(())
    } else {
        Err("a correctness check or an operation failed".into())
    }
}

/// One row of the comparison.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub a: String,
    pub b: String,
    /// Signed change of B against A as a share of A, positive when worse.
    pub worse_by: Option<f64>,
    pub bound: Option<f64>,
    pub verdict: &'static str,
}

/// Compares two result files of `nocbench all`: one row per (end-to-end
/// metric, workload) against the metric's bound, and one per exact value,
/// which must be equal.
pub fn compare_texts(a: &str, b: &str) -> Result<Vec<Row>, String> {
    let (a, b) = (Json::parse(a)?, Json::parse(b)?);
    for key in ["seed", "seconds", "traced"] {
        if field(&a, key)? != field(&b, key)? {
            return Err(format!(
                "the two files differ in \"{key}\": exact values cannot be compared"
            ));
        }
    }
    let e2e = spec::end_to_end();
    let mut rows = Vec::new();
    let (wa, wb) = (
        items(field(&a, "workloads")?)?,
        items(field(&b, "workloads")?)?,
    );
    if wa.len() != wb.len() {
        return Err("the two files hold different workload sets".into());
    }
    for (ea, eb) in wa.iter().zip(wb) {
        let name = field(ea, "name")?;
        if name != field(eb, "name")? {
            return Err("the two files hold different workload sets".into());
        }
        let workload = text(name)?.to_string();
        let (ra, rb) = (field(ea, "result")?, field(eb, "result")?);
        let (ma, mb) = (field(ra, "metrics")?, field(rb, "metrics")?);
        for m in &e2e {
            // A traced file holds per-layer metrics only; they have no bounds.
            let (Ok(va), Ok(vb)) = (field(ma, &m.name), field(mb, &m.name)) else {
                continue;
            };
            let (va, vb) = (number(field(va, "value")?)?, number(field(vb, "value")?)?);
            let change = (vb - va) / va;
            let worse_by = if m.better == Better::Higher {
                -change
            } else {
                change
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            rows.push(Row {
                metric: m.name.clone(),
                workload: workload.clone(),
                a: format!("{va:.6}"),
                b: format!("{vb:.6}"),
                worse_by: Some(worse_by),
                bound: Some(bound),
                verdict: if worse_by > bound {
                    "WORSE"
                } else if worse_by < -bound {
                    "better"
                } else {
                    "ok"
                },
            });
        }
        for key in ["correct", "failed"] {
            let (va, vb) = (field(ra, key)?, field(rb, key)?);
            let clean =
                |v: &Json| matches!(v, Json::Bool(true)) || matches!(v, Json::Num(n) if n == "0");
            let text = |v: &Json| match v {
                Json::Bool(b) => b.to_string(),
                Json::Num(n) => n.clone(),
                other => format!("{other:?}"),
            };
            rows.push(Row {
                metric: key.to_string(),
                workload: workload.clone(),
                a: text(va),
                b: text(vb),
                worse_by: None,
                bound: None,
                verdict: if clean(va) && clean(vb) {
                    "ok"
                } else {
                    "FAILED"
                },
            });
        }
        let (Json::Obj(xa), xb) = (field(ea, "exact")?, field(eb, "exact")?) else {
            return Err("\"exact\" is not an object".into());
        };
        let Json::Obj(xb_fields) = xb else {
            return Err("\"exact\" is not an object".into());
        };
        if xa.len() != xb_fields.len() {
            return Err(format!(
                "{workload}: the two files hold different exact values"
            ));
        }
        for (key, va) in xa {
            let vb = field(xb, key)?;
            let text = |v: &Json| match v {
                Json::Str(s) => s.clone(),
                other => format!("{other:?}"),
            };
            rows.push(Row {
                metric: key.clone(),
                workload: workload.clone(),
                a: text(va),
                b: text(vb),
                worse_by: None,
                bound: None,
                verdict: if va == vb { "equal" } else { "DIFFERS" },
            });
        }
    }
    Ok(rows)
}

pub fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: nocbench compare <A.json> <B.json>".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = compare_texts(&read(a)?, &read(b)?)?;
    println!(
        "{:<28} {:<16} {:>22} {:>22} {:>9} {:>7}  verdict",
        "metric", "workload", "A", "B", "worse by", "bound"
    );
    for r in &rows {
        let pct = |v: Option<f64>| v.map_or(String::new(), |v| format!("{:+.2}%", v * 100.0));
        println!(
            "{:<28} {:<16} {:>22} {:>22} {:>9} {:>7}  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            pct(r.worse_by),
            r.bound
                .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
            r.verdict
        );
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, "WORSE" | "DIFFERS" | "FAILED"))
        .count();
    if bad == 0 {
        println!("B is within every bound of A, and every exact value is equal");
        Ok(())
    } else {
        Err(format!("{bad} row(s) outside a bound, unequal or failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(cps: f64, fnv: &str) -> String {
        format!(
            "{{\"schema\": 1, \"seed\": 42, \"seconds\": 10, \"traced\": false, \"workloads\": [\
             {{\"name\": \"mesh8-classical\", \"exact\": {{\"stats_fnv\": \"{fnv}\"}}, \"result\": \
             {{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\
             \"sim_cycles_per_s\": {{\"value\": {cps}, \"unit\": \"1/s\"}}, \
             \"op_ms_p50\": {{\"value\": 60.0, \"unit\": \"ms\"}}}}}}}}]}}"
        )
    }

    fn verdicts(a: &str, b: &str) -> Vec<(String, &'static str)> {
        compare_texts(a, b)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn equal_files_agree() {
        let v = verdicts(&file(60_000.0, "ab"), &file(60_000.0, "ab"));
        assert_eq!(
            v,
            [
                ("sim_cycles_per_s".to_string(), "ok"),
                ("op_ms_p50".to_string(), "ok"),
                ("correct".to_string(), "ok"),
                ("failed".to_string(), "ok"),
                ("stats_fnv".to_string(), "equal"),
            ]
        );
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Higher is better and the bound is 15 %: 14 % slower passes, 16 % fails,
        // 16 % faster is reported as better.
        assert_eq!(verdicts(&file(100.0, "ab"), &file(86.0, "ab"))[0].1, "ok");
        assert_eq!(
            verdicts(&file(100.0, "ab"), &file(84.0, "ab"))[0].1,
            "WORSE"
        );
        assert_eq!(
            verdicts(&file(100.0, "ab"), &file(116.0, "ab"))[0].1,
            "better"
        );
    }

    #[test]
    fn exact_values_must_be_equal_and_seeds_must_match() {
        assert_eq!(
            verdicts(&file(100.0, "ab"), &file(100.0, "ac"))[4].1,
            "DIFFERS"
        );
        let other_seed = file(100.0, "ab").replace("\"seed\": 42", "\"seed\": 43");
        assert!(compare_texts(&file(100.0, "ab"), &other_seed).is_err());
    }
}

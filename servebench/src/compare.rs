//! `servebench compare <dir-a> <dir-b>`: do two sets of runs agree?
//!
//! For every workload and end-to-end metric of `BENCHMARK.json` it prints
//! each set's median and quartiles (as Python's
//! `statistics.quantiles(values, n=4)` gives them), each set's spread —
//! the distance between the quartiles as a share of the median — and the
//! change of the second median against the first, `median B / median A −
//! 1`.  The sets agree on a metric when both spreads (except that of
//! `setup_s`) and the size of the change, in either direction, stay within
//! the metric's bound.  Runs that report `correct: false` are listed and
//! make the sets disagree.

use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

struct Metric {
    name: String,
    bound: f64,
}

/// The untraced runs of one directory: the correct ones by workload, and
/// the files of the incorrect ones.
struct RunSet {
    runs: BTreeMap<String, Vec<BTreeMap<String, f64>>>,
    incorrect: Vec<String>,
}

pub fn main(args: &[String]) -> Result<i32, String> {
    let mut positional = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            positional.push(arg.clone());
        }
    }
    let [a, b] = positional.as_slice() else {
        return Err("usage: servebench compare <dir-a> <dir-b> [--benchmark BENCHMARK.json]".into());
    };
    let metrics = end_to_end_metrics(Path::new(&benchmark))?;
    let (set_a, set_b) = (load(Path::new(a))?, load(Path::new(b))?);

    let mut all_agree = set_a.incorrect.is_empty() && set_b.incorrect.is_empty();
    for file in set_a.incorrect.iter().chain(&set_b.incorrect) {
        println!("incorrect run, left out: {file}");
    }
    let (set_a, set_b) = (set_a.runs, set_b.runs);
    println!(
        "{:<13} {:<12} {:>12} {:>25} {:>7} {:>12} {:>25} {:>7} {:>8} {:>6}  agree",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "spr A",
        "median B",
        "quartiles B",
        "spr B",
        "change",
        "bound"
    );
    for (workload, runs_a) in &set_a {
        let Some(runs_b) = set_b.get(workload) else {
            println!("{workload:<13} missing from {b}");
            all_agree = false;
            continue;
        };
        println!("{workload:<13} runs: {} vs {}", runs_a.len(), runs_b.len());
        for m in &metrics {
            let values = |runs: &Vec<BTreeMap<String, f64>>| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(&m.name).copied()).collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<13} {:<12} missing", m.name);
                all_agree = false;
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let (sa, sb) = (spread(qa), spread(qb));
            let change = qb[1] / qa[1] - 1.0;
            let spreads_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let agree = spreads_ok && change.abs() <= m.bound;
            all_agree &= agree;
            println!(
                "{:<13} {:<12} {:>12.5} {:>25} {:>6.1}% {:>12.5} {:>25} {:>6.1}% {:>7.1}% {:>5.0}%  {}",
                workload,
                m.name,
                qa[1],
                format!("[{:.5}, {:.5}]", qa[0], qa[2]),
                sa * 100.0,
                qb[1],
                format!("[{:.5}, {:.5}]", qb[0], qb[2]),
                sb * 100.0,
                change * 100.0,
                m.bound * 100.0,
                if agree { "yes" } else { "NO" }
            );
        }
    }
    Ok(if all_agree { 0 } else { 1 })
}

fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        Value::F64(v) => Some(*v),
        _ => None,
    }
}

fn end_to_end_metrics(path: &Path) -> Result<Vec<Metric>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = field(&doc, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Metric {
                name: field(m, "name")?.as_str()?.to_string(),
                bound: number(field(m, "bound")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// The untraced results of a directory.
fn load(dir: &Path) -> Result<RunSet, String> {
    let mut out = RunSet { runs: BTreeMap::new(), incorrect: Vec::new() };
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let doc: Value =
            serde_json::from_str(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let traced = field(&doc, "trace").and_then(number).unwrap_or(0.0) != 0.0;
        let result = field(&doc, "result").ok_or("result missing")?;
        let correct = matches!(field(result, "correct"), Some(Value::Bool(true)));
        if traced {
            continue;
        }
        if !correct {
            out.incorrect.push(path.display().to_string());
            continue;
        }
        let workload = field(&doc, "workload").and_then(Value::as_str).ok_or("workload missing")?;
        let metrics = field(result, "metrics").and_then(Value::as_map).ok_or("metrics missing")?;
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), number(field(m, "value")?)?)))
            .collect();
        out.runs.entry(workload.to_string()).or_default().push(values);
    }
    Ok(out)
}

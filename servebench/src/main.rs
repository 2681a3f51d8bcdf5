//! `servebench` — the served cleaning-loop benchmark.
//!
//! ```text
//! servebench --workload <clean_loop|answer_reads|routed_mix> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! servebench compare <dir-a> <dir-b> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints one JSON object as its last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`, plus the attempted and failed operation counts.  It also
//! writes that object (with its workload, seed and trace flag) into the
//! `--out` directory, which `compare` reads.  The `serve` and
//! `fleet-serve` subcommands are the serving processes a run starts.
//! See README.md.

#![forbid(unsafe_code)]

mod compare;
mod gen;
mod net;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Round, Runner, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("fleet-serve") => fleet_serve(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(match code {
        Ok(code) => code,
        Err(err) => {
            eprintln!("servebench: {err}");
            2
        }
    });
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

/// A store-backed `pdb-server`, as `pdb serve` starts it (the fleet
/// spawns shards with the same arguments).
fn serve(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let config = pdb_server::ServerConfig {
        addr: parsed(&f, "addr", Some("127.0.0.1:0".to_string()))?,
        threads: parsed(&f, "threads", Some(1))?,
        store_dir: Some(parsed(&f, "store-dir", None)?),
        compact_every: parsed(&f, "compact-every", Some(1024))?,
        ..pdb_server::ServerConfig::default()
    };
    let server = pdb_server::Server::bind(&config).map_err(|e| format!("binding: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("{}{addr} ({} threads)", pdb_fleet::SHARD_READY_PREFIX, config.threads);
    server.run().map_err(|e| format!("serving: {e}"))?;
    Ok(0)
}

/// A `pdb-fleet` router over [`workload::SHARDS`] store-backed shard
/// processes, as `pdb fleet serve` starts it.  Each shard gets two workers: the router's
/// forwarding connection and the control connection shutdown uses.
fn fleet_serve(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let config = pdb_fleet::FleetConfig {
        program: std::env::current_exe().map_err(|e| e.to_string())?,
        shards: workload::SHARDS,
        threads: 2,
        store_dir: Some(PathBuf::from(parsed::<String>(&f, "store-dir", None)?)),
        compact_every: parsed(&f, "compact-every", Some(1024))?,
        flush: pdb_store::FlushPolicy::PerRecord,
    };
    let fleet = std::sync::Arc::new(
        pdb_fleet::Fleet::spawn(config).map_err(|e| format!("spawning shards: {e}"))?,
    );
    for status in fleet.statuses() {
        println!(
            "pdb-fleet shard {} pid {} listening on {}",
            status.index, status.pid, status.addr
        );
    }
    let router =
        pdb_fleet::Router::bind("127.0.0.1:0", fleet).map_err(|e| format!("binding: {e}"))?;
    let addr = router.local_addr().map_err(|e| e.to_string())?;
    println!("pdb-fleet router listening on {addr}");
    router.run().map_err(|e| format!("routing: {e}"))?;
    Ok(0)
}

/// One benchmark run.
fn run(args: &[String]) -> Result<i32, String> {
    let f = flags(args)?;
    let name: String = parsed(&f, "workload", None)?;
    let seed: u64 = parsed(&f, "seed", Some(1))?;
    let seconds: f64 = parsed(&f, "seconds", Some(10.0))?;
    let traced = match parsed::<u8>(&f, "trace", Some(0))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let out_dir = PathBuf::from(parsed(&f, "out", Some("servebench/out/results".to_string()))?);
    let workload = Workload::named(&name).ok_or_else(|| {
        format!("unknown workload {name:?} (clean_loop, answer_reads, routed_mix)")
    })?;
    let work =
        trace::fresh_dir(&PathBuf::from(format!("servebench/out/work-{}", std::process::id())))?;

    // A fixed number of rounds, so a faster program gets no more tries at
    // its best round than a slower one.
    let measured = ((seconds / workload.round_s).ceil() as usize).max(2);
    let mut runner = Runner::new(workload, seed, work.clone());
    let started = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let outcome = (|| {
        // One round to warm caches and lazy set-up, not reported.
        runner.round(false)?;
        // A traced run alternates untraced and traced rounds, so it can
        // report its own tracing overhead.
        while rounds.len() < measured {
            let traced_round = traced && rounds.len() % 2 == 1;
            rounds.push((traced_round, runner.round(traced_round)?));
        }
        Ok::<(), String>(())
    })();
    let correct = outcome.is_ok();
    if let Err(err) = &outcome {
        eprintln!("servebench: {name} seed {seed}: {err}");
    }

    let metrics: Vec<(String, f64, &str)> = if !correct {
        Vec::new()
    } else if traced {
        let tracer = runner.tracer.as_mut().expect("a traced run traced a round");
        let spans_path = out_dir.join(format!("spans-{name}-seed{seed}.jsonl"));
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let self_times = tracer.finish(&spans_path)?;
        eprintln!("self time by span ({} spans, {}):", tracer.span_count(), spans_path.display());
        for (span, secs) in self_times.iter().take(16) {
            eprintln!("  {span:<44} {:>10.1} ms", secs * 1e3);
        }
        eprintln!("latency samples:");
        for (name, n) in tracer.sample_counts() {
            eprintln!("  {name:<44} {n:>10}");
        }
        let mut metrics = tracer.metrics();
        let ops = |traced: bool| {
            let (n, s) = rounds
                .iter()
                .filter(|r| r.0 == traced)
                .fold((0, 0.0), |(n, s), (_, r)| (n + r.timed_requests, s + r.timed_s));
            n as f64 / s
        };
        let (untraced_ops, traced_ops) = (ops(false), ops(true));
        metrics.push(("engine.drift_max".into(), runner.drift, "1"));
        metrics.push(("store.recovery_drift_max".into(), runner.recovery_drift, "1"));
        let miss_share = runner.drift_misses as f64 / runner.drift_checks.max(1) as f64;
        metrics.push(("engine.drift_miss_share".into(), miss_share, "1"));
        metrics.push(("trace.ops_per_s".into(), traced_ops, "1/s"));
        metrics.push(("trace.overhead_pct".into(), (untraced_ops / traced_ops - 1.0) * 100.0, "%"));
        metrics
    } else {
        end_to_end(&rounds)
    };
    std::fs::remove_dir_all(&work).map_err(|e| e.to_string())?;

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        runner.attempted.max(1),
        runner.failed
    );
    for (i, (metric, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    eprintln!(
        "{name} seed {seed}: {} rounds in {:.1} s, {} requests, {} operations attempted, {} failed",
        rounds.len() + 1,
        started.elapsed().as_secs_f64(),
        runner.requests,
        runner.attempted,
        runner.failed
    );
    for (i, (traced, r)) in rounds.iter().enumerate() {
        eprintln!(
            "  round {i:>2}{}: {:>8.1} requests/s, step p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
            if *traced { " (traced)" } else { "" },
            r.timed_requests as f64 / r.timed_s,
            stats::median(&r.step_ms),
            stats::quantile(&r.step_ms, 0.90),
            stats::quantile(&r.step_ms, 0.99)
        );
    }
    if let Some(miss) = &runner.drift_check_miss {
        eprintln!("  drift check (fixed input, every round): {miss}");
    }
    eprintln!(
        "  collapsed-session checks that missed the recomputation by more than {:e}: {} of {}{}",
        oracle::TOL,
        runner.drift_misses,
        runner.drift_checks,
        runner.first_drift_miss.as_ref().map_or(String::new(), |m| format!(", first: {m}"))
    );
    for (metric, value, unit) in &metrics {
        eprintln!("  {metric:<36} {value:>14.4} {unit}");
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"result\": {json}}}\n",
        u8::from(traced)
    );
    let file = out_dir.join(format!(
        "{name}-seed{seed}-trace{}-{}.json",
        u8::from(traced),
        std::process::id()
    ));
    std::fs::write(&file, record).map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("{json}");
    Ok(if correct { 0 } else { 1 })
}

/// The end-to-end metrics of an untraced run, each taken over its fixed
/// number of measured rounds: the median round for set-up, recovery and
/// memory; the steps of every round pooled for the median step; and the
/// least disturbed round for throughput and the 90th percentile, the two
/// figures this host's interference moves most (README.md, "End-to-end
/// metrics").  A round takes 1000 steps, so its 90th percentile has a
/// hundred steps beyond it.
fn end_to_end(rounds: &[(bool, Round)]) -> Vec<(String, f64, &'static str)> {
    let rounds: Vec<&Round> = rounds.iter().map(|(_, r)| r).collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(|r| f(r)).collect::<Vec<_>>();
    let median = |f: &dyn Fn(&Round) -> f64| stats::median(&per_round(f));
    let highest =
        |f: &dyn Fn(&Round) -> f64| per_round(f).into_iter().fold(f64::NEG_INFINITY, f64::max);
    let lowest = |f: &dyn Fn(&Round) -> f64| per_round(f).into_iter().fold(f64::INFINITY, f64::min);
    let steps: Vec<f64> = rounds.iter().flat_map(|r| r.step_ms.iter().copied()).collect();
    vec![
        ("setup_s".into(), median(&|r| r.setup_s), "s"),
        ("ops_per_s".into(), highest(&|r| r.timed_requests as f64 / r.timed_s), "1/s"),
        ("step_p50_ms".into(), stats::median(&steps), "ms"),
        ("step_p90_ms".into(), lowest(&|r| stats::quantile(&r.step_ms, 0.90)), "ms"),
        ("recovery_s".into(), median(&|r| r.recovery_s), "s"),
        ("rss_mb".into(), median(&|r| r.rss_mib), "MiB"),
    ]
}

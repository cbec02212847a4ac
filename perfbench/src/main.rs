//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench repeat --workload <name> [--first-seed 0]
//! ```
//!
//! A run sets up one workload, drives it closed-loop for `--seconds`, checks
//! every output, and prints one JSON line last: `correct`, `attempted`,
//! `failed` and the metrics — the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`. A traced run alternates untraced rounds
//! with rounds that run per-layer probes after each operation, writes
//! the layer table and the tracing overhead to `results/`, and prints the
//! per-layer metrics. `repeat` makes ten untraced runs of one workload
//! over consecutive seeds and prints each metric's median and quartile
//! spread next to its bound from `BENCHMARK.json`.

mod checks;
mod client;
mod common;
mod cosim;
mod explore;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use automode_core::json::Json;
use common::{Clock, Collector, Timings};

/// The workloads, each run in its own process.
const WORKLOADS: &[&str] = &["sweep_hot", "sweep_edit", "explore_engine", "cosim_engine"];

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("first_result_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name, unit, and the end-to-end metric each should
/// move (written down before measuring).
const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "core.text.parse_us",
        "us",
        "sweep_edit first_result_ms, latency_p50_ms; setup_s elsewhere",
    ),
    (
        "sim.elaborate_us",
        "us",
        "sweep_edit first_result_ms, latency_p50_ms; cosim_engine latency; setup_s elsewhere",
    ),
    (
        "kernel.prepare_us",
        "us",
        "sweep_edit first_result_ms, latency_p50_ms; cosim_engine latency; setup_s elsewhere",
    ),
    (
        "sim.compile_us",
        "us",
        "sweep_edit first_result_ms, latency_p50_ms; setup_s elsewhere",
    ),
    (
        "kernel.nodes",
        "count",
        "sweep_edit compile time; a work count",
    ),
    (
        "core.json.parse_us",
        "us",
        "sweep_edit latency_p50_ms (large model bodies)",
    ),
    (
        "service.cache.hit_ratio",
        "ratio",
        "1 on sweep_hot, 0 on sweep_edit; sweep_edit peak_rss_mb",
    ),
    (
        "service.cache.evictions",
        "1/op",
        "0 on sweep_hot, 1 per request on sweep_edit; peak_rss_mb",
    ),
    (
        "kernel.run_batch_ms_per_shard",
        "ms",
        "sweep_hot scenarios_per_s, latency_p50_ms",
    ),
    (
        "kernel.ns_per_node_lane_step",
        "ns",
        "sweep_hot scenarios_per_s, latency_p50_ms",
    ),
    (
        "sweep.oracle_ms_per_shard",
        "ms",
        "sweep_hot scenarios_per_s, first_result_ms; sweep_edit latency_p50_ms",
    ),
    (
        "sweep.oracle_shards",
        "1/op",
        "sweep_hot first_result_ms; sweep_edit latency_p50_ms; a work count",
    ),
    (
        "sweep.stimulus_us_per_shard",
        "us",
        "sweep_hot latency, peak_rss_mb",
    ),
    (
        "sweep.encode_us_per_scenario",
        "us",
        "sweep_hot latency, peak_rss_mb",
    ),
    (
        "sweep.bytes_per_scenario",
        "bytes",
        "sweep_hot latency, peak_rss_mb; a work count",
    ),
    (
        "service.sweep.execute_ms",
        "ms",
        "latency_p50_ms of both sweeps",
    ),
    (
        "service.pool.steals",
        "count",
        "latency_p50_ms of both sweeps",
    ),
    (
        "service.http.overhead_ms",
        "ms",
        "latency_p50_ms of both sweeps (on sweep_edit it includes the miss's compile)",
    ),
    (
        "explore.runner_ms_per_generation",
        "ms",
        "explore_engine scenarios_per_s",
    ),
    (
        "explore.shrink_ms_per_repro",
        "ms",
        "explore_engine first_result_ms, latency_p90_ms",
    ),
    (
        "explore.search_ms_per_call",
        "ms",
        "explore_engine latency_p50_ms",
    ),
    (
        "explore.states_covered",
        "count",
        "a work count: identical under a speed-only change",
    ),
    (
        "explore.transitions_covered",
        "count",
        "a work count: identical under a speed-only change",
    ),
    (
        "explore.repros",
        "count",
        "a work count: identical under a speed-only change",
    ),
    (
        "platform.cosim_ms_per_run",
        "ms",
        "cosim_engine scenarios_per_s, latency",
    ),
    (
        "kernel.step_ns_per_node",
        "ns",
        "cosim_engine scenarios_per_s, latency",
    ),
    (
        "kernel.la_run_ms_per_run",
        "ms",
        "cosim_engine scenarios_per_s, latency",
    ),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    collector: Collector,
    /// Median set-up time and host speed of the run.
    clock: Clock,
    peak_rss_mb: f64,
    /// Per-layer values (traced runs); layers a workload does not
    /// exercise are absent and print as 0.
    layers: BTreeMap<&'static str, f64>,
    /// End-to-end timings of the untraced and the traced rounds of a
    /// traced run.
    overhead: Option<(Timings, Timings)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench repeat --workload <name> [--first-seed K]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Parses `--key value` pairs into a map; rejects anything else.
fn flags(argv: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let (Some(key), Some(v)) = (k.strip_prefix("--"), it.next()) else {
            usage()
        };
        out.insert(key.to_string(), v.clone());
    }
    out
}

fn get<T: std::str::FromStr>(f: &BTreeMap<String, String>, key: &str, default: Option<T>) -> T {
    match f.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => default.unwrap_or_else(|| usage()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("repeat") {
        std::process::exit(repeat(&flags(&argv[1..])));
    }
    let f = flags(&argv);
    let args = Args {
        workload: get(&f, "workload", None),
        seed: get(&f, "seed", None),
        seconds: get(&f, "seconds", None),
        trace: match get::<u8>(&f, "trace", Some(0)) {
            0 => false,
            1 => true,
            _ => usage(),
        },
    };
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    let result = match args.workload.as_str() {
        "sweep_hot" => sweep::run(&args, false),
        "sweep_edit" => sweep::run(&args, true),
        "explore_engine" => explore::run(&args),
        _ => cosim::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        if let Err(e) = write_table(&args, &outcome) {
            eprintln!("perfbench: cannot write the layer table: {e}");
        }
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                (
                    *name,
                    outcome.layers.get(name).copied().unwrap_or(0.0),
                    *unit,
                )
            })
            .collect()
    } else {
        let clock = &outcome.clock;
        let wall = outcome.collector.timing_metrics(&Clock::default());
        eprintln!(
            "perfbench: host speed {:.4} (calibration median {:.1} us); wall-clock: setup_s {:.4}, {}",
            clock.speed,
            clock.calibration_s * 1e6,
            clock.setup_s(false),
            wall.iter()
                .map(|(n, v)| format!("{n} {v:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let mut values: BTreeMap<&str, f64> = outcome
            .collector
            .timing_metrics(clock)
            .into_iter()
            .collect();
        values.insert("setup_s", clock.setup_s(true));
        values.insert("peak_rss_mb", outcome.peak_rss_mb);
        END_TO_END
            .iter()
            .map(|(name, unit)| (*name, values[name], *unit))
            .collect()
    };
    let c = &outcome.collector;
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.violations.is_empty(),
        c.attempted,
        c.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// Writes the traced run's layer table and its tracing overhead to
/// `results/<workload>-seed<n>.trace.txt` beside this package's manifest.
fn write_table(args: &Args, o: &Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.trace.txt", args.workload, args.seed));
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut t = String::new();
    let _ = writeln!(
        t,
        "workload {}  seed {}  seconds {}  cpus {cpus}  operations {}  host speed {:.4}",
        args.workload, args.seed, args.seconds, o.collector.attempted, o.clock.speed
    );
    let _ = writeln!(
        t,
        "\n{:<34} {:>14} {:<6} should move",
        "layer metric", "value", "unit"
    );
    for (name, unit, moves) in PER_LAYER {
        match o.layers.get(name) {
            Some(v) => {
                let _ = writeln!(t, "{name:<34} {v:>14.4} {unit:<6} {moves}");
            }
            None => {
                let _ = writeln!(
                    t,
                    "{name:<34} {:>14} {unit:<6} (not exercised: prints 0)",
                    "-"
                );
            }
        }
    }
    if let Some((plain, traced)) = &o.overhead {
        let _ = writeln!(
            t,
            "\ntracing overhead: untraced vs traced rounds of this run (wall clock)\n{:<20} {:>12} {:>12} {:>12}",
            "metric", "untraced", "traced", "difference"
        );
        for ((name, a), (_, b)) in plain.iter().zip(traced) {
            let _ = writeln!(
                t,
                "{name:<20} {a:>12.4} {b:>12.4} {:>+11.2}%",
                if *a == 0.0 { 0.0 } else { (b - a) / a * 100.0 }
            );
        }
    }
    std::fs::write(&path, t)?;
    eprintln!("perfbench: layer table written to {}", path.display());
    Ok(())
}

/// Runs `repeat` makes of one workload.
const REPEAT_RUNS: u64 = 10;

/// `repeat`: runs this binary untraced once per seed, for the run length
/// of `BENCHMARK.json` in the working directory, and prints each metric's
/// median, quartiles and spread next to its bound. Returns the exit code.
fn repeat(f: &BTreeMap<String, String>) -> i32 {
    let workload: String = get(f, "workload", None);
    let first: u64 = get(f, "first-seed", Some(0));
    if !WORKLOADS.contains(&workload.as_str())
        || f.keys().any(|k| k != "workload" && k != "first-seed")
    {
        usage();
    }
    let Some(doc) = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|b| automode_core::json::parse(&b).ok())
    else {
        eprintln!("perfbench repeat: no readable BENCHMARK.json in the working directory");
        return 1;
    };
    let Some(seconds) = doc.get("run_seconds").and_then(|v| v.as_f64()) else {
        eprintln!("perfbench repeat: BENCHMARK.json has no run_seconds");
        return 1;
    };
    let bound = |name: &str| -> Option<f64> {
        doc.get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for seed in first..first + REPEAT_RUNS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn a benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(doc) = stdout
            .lines()
            .last()
            .and_then(|l| automode_core::json::parse(l).ok())
        else {
            eprintln!("seed {seed}: no result (exit {:?})", out.status.code());
            return 1;
        };
        let n = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        println!(
            "seed {seed}: correct {:?} attempted {} failed {}",
            doc.get("correct").and_then(|v| v.as_bool()),
            n("attempted"),
            n("failed")
        );
        shares.push(n("failed") / n("attempted"));
        if let Some(Json::Obj(ms)) = doc.get("metrics") {
            for (name, m) in ms {
                let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    println!(
        "\n{workload}: {REPEAT_RUNS} runs of {seconds} s, failed share {:?}",
        shares.first()
    );
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>8} {:>6} {:>8}",
        "metric", "median", "q1", "q3", "spread", "bound", "ok(<b/3)"
    );
    for (name, v) in &values {
        let (q1, q3) = stats::quartiles(v);
        let s = stats::spread(v);
        let (b, ok) = match bound(name) {
            Some(b) => (format!("{b:.2}"), if s < b / 3.0 { "yes" } else { "NO" }),
            None => ("-".into(), "-"),
        };
        println!(
            "{name:<34} {:>12.4} {q1:>12.4} {q3:>12.4} {s:>8.4} {b:>6} {ok:>8}",
            stats::median(v)
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = automode_core::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let table = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(table("end_to_end"), e2e);
        assert_eq!(table("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}

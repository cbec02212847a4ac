//! Output checks built on properties of the models and of the method,
//! not on stored copies of earlier output.
//!
//! * Sweeps run averaging-block networks (`y = a*0.5 + b*0.5`) fed by one
//!   input, so every output equals that input bit for bit on every tick,
//!   and the `in:in` echo must equal a ramp computed here.
//! * A sweep stream is complete: status 200, header line, one line per
//!   scenario in order, a done line, and the terminating chunk.
//! * An explorer repro replays to its signature and trace on a freshly
//!   compiled scalar `CompiledSim::run` plus the monitor; coverage never
//!   shrinks and is bounded by the layout; repro signatures are distinct.
//! * Co-simulation verdicts follow from the fault injected.

use std::net::SocketAddr;
use std::time::Duration;

use automode_core::json::{parse, Json};
use automode_explore::{signature_of_error, signature_of_report, ExploreReport, Repro};
use automode_kernel::{FaultKind, Stream};
use automode_service::get;
use automode_sim::{CompiledSim, ContractMonitor};
use automode_transform::cosim::CosimReport;

/// The ramp a sweep's `ramp` stimulus must deliver, computed from the
/// request's parameters: `from + (to - from) * t / (ticks - 1)`.
pub fn ramp(from: f64, to: f64, ticks: usize) -> Vec<f64> {
    (0..ticks)
        .map(|t| {
            let frac = if ticks <= 1 {
                0.0
            } else {
                t as f64 / (ticks - 1) as f64
            };
            from + (to - from) * frac
        })
        .collect()
}

/// Splits canonical trace text (`automode-trace v1`) into named columns
/// of printed values, checking the declared tick and signal counts.
pub fn trace_columns(text: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut lines = text.lines();
    if lines.next() != Some("automode-trace v1") {
        return Err("trace lacks the `automode-trace v1` header".into());
    }
    let count = |line: Option<&str>, key: &str| -> Result<usize, String> {
        line.and_then(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("trace lacks a `{key}` line"))
    };
    let ticks = count(lines.next(), "ticks ")?;
    let signals = count(lines.next(), "signals ")?;
    let mut cols: Vec<(String, Vec<String>)> = Vec::new();
    for line in lines {
        if let Some(name) = line.strip_prefix("signal ") {
            cols.push((name.to_string(), Vec::with_capacity(ticks)));
            continue;
        }
        let (_, col) = cols
            .last_mut()
            .ok_or_else(|| format!("value line before any signal: {line:?}"))?;
        let (t, v) = line
            .trim_start()
            .split_once(' ')
            .ok_or_else(|| format!("malformed value line {line:?}"))?;
        if t.parse::<usize>().ok() != Some(col.len()) {
            return Err(format!("tick {t} out of order"));
        }
        col.push(v.to_string());
    }
    if cols.len() != signals {
        return Err(format!("{} signals, header says {signals}", cols.len()));
    }
    if let Some((name, col)) = cols.iter().find(|(_, c)| c.len() != ticks) {
        return Err(format!(
            "signal {name} has {} ticks, header says {ticks}",
            col.len()
        ));
    }
    Ok(cols)
}

/// Checks a single-input averaging network's trace: `in:in` equals
/// `expected` and every other signal equals it too, bit for bit.
pub fn check_echo_trace(text: &str, expected: &[f64]) -> Result<(), String> {
    let cols = trace_columns(text)?;
    if cols.first().map_or(0, |(_, c)| c.len()) != expected.len() {
        return Err(format!("trace is not {} ticks long", expected.len()));
    }
    if !cols.iter().any(|(n, _)| n == "in:in") {
        return Err("trace lacks the in:in echo".into());
    }
    if !cols.iter().any(|(n, _)| !n.starts_with("in:")) {
        return Err("trace has no output signal".into());
    }
    for (name, col) in &cols {
        for (t, (printed, want)) in col.iter().zip(expected).enumerate() {
            let got: f64 = printed
                .parse()
                .map_err(|_| format!("{name}@{t}: {printed:?} is not a float"))?;
            if got.to_bits() != want.to_bits() {
                return Err(format!("{name}@{t}: {printed} != expected {want}"));
            }
        }
    }
    Ok(())
}

/// What a sweep response must contain.
#[derive(Debug, Clone, Copy)]
pub struct SweepExpect {
    /// Scenarios requested.
    pub count: usize,
    /// Ticks per scenario.
    pub ticks: usize,
    /// Lanes per shard.
    pub lanes: usize,
    /// Ramp start for every scenario.
    pub from: f64,
    /// Ramp end for scenario 0.
    pub to: f64,
    /// Ramp end increment per scenario.
    pub to_step: f64,
    /// Expected cache outcome (`hit` or `miss`).
    pub cache: &'static str,
    /// The server's oracle sampling period in shards.
    pub oracle_every: usize,
}

/// Counts read off a checked sweep stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepSeen {
    /// Shards the oracle re-ran.
    pub oracle_shards: u64,
    /// Bytes of scenario lines (newlines excluded).
    pub scenario_bytes: usize,
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("missing field `{}`", path.join(".")))?;
    }
    Ok(cur)
}

fn uint(doc: &Json, path: &[&str]) -> Result<u64, String> {
    field(doc, path)?
        .as_u64()
        .ok_or_else(|| format!("`{}` is not an integer", path.join(".")))
}

fn text<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a str, String> {
    field(doc, path)?
        .as_str()
        .ok_or_else(|| format!("`{}` is not a string", path.join(".")))
}

/// Checks one `POST /sweep` response stream end to end.
pub fn check_sweep_stream(
    status: u16,
    lines: &[String],
    complete: bool,
    want: &SweepExpect,
) -> Result<SweepSeen, String> {
    if status != 200 {
        return Err(format!("status {status}: {:?}", lines.first()));
    }
    if !complete {
        return Err("stream lacks its terminating chunk".into());
    }
    if lines.len() != want.count + 2 {
        return Err(format!(
            "{} lines, want {} (header + scenarios + done)",
            lines.len(),
            want.count + 2
        ));
    }
    let shards = want.count.div_ceil(want.lanes) as u64;
    let head = parse(&lines[0]).map_err(|e| format!("header: {e}"))?;
    if text(&head, &["sweep", "cache"])? != want.cache {
        return Err(format!("cache outcome is not `{}`", want.cache));
    }
    if uint(&head, &["sweep", "scenarios"])? != want.count as u64
        || uint(&head, &["sweep", "shards"])? != shards
    {
        return Err("header scenario or shard count differs from the request".into());
    }
    let mut seen = SweepSeen::default();
    for (i, line) in lines[1..=want.count].iter().enumerate() {
        seen.scenario_bytes += line.len();
        let doc = parse(line).map_err(|e| format!("scenario line {i}: {e}"))?;
        if uint(&doc, &["scenario"])? != i as u64 {
            return Err(format!(
                "line {i} carries scenario {:?}",
                doc.get("scenario")
            ));
        }
        let trace = text(&doc, &["result", "trace"]).map_err(|e| format!("scenario {i}: {e}"))?;
        let expected = ramp(want.from, want.to + want.to_step * i as f64, want.ticks);
        check_echo_trace(trace, &expected).map_err(|e| format!("scenario {i}: {e}"))?;
    }
    let done = parse(&lines[want.count + 1]).map_err(|e| format!("done line: {e}"))?;
    if text(&done, &["done", "status"])? != "ok" {
        return Err(format!("sweep status: {}", lines[want.count + 1]));
    }
    seen.oracle_shards = uint(&done, &["done", "oracle_shards"])?;
    if uint(&done, &["done", "scenarios"])? != want.count as u64
        || uint(&done, &["done", "shards"])? != shards
        || uint(&done, &["done", "oracle_divergences"])? != 0
        || seen.oracle_shards != shards.div_ceil(want.oracle_every as u64)
    {
        return Err(format!("done line disagrees: {}", lines[want.count + 1]));
    }
    Ok(seen)
}

/// What `GET /stats` must report after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsExpect {
    /// Sweeps posted.
    pub sweeps: u64,
    /// Scenarios in those sweeps.
    pub scenarios: u64,
    /// K-lane shards those sweeps split into.
    pub shards: u64,
    /// Oracle-checked shards.
    pub oracle_shards: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache evictions.
    pub evictions: u64,
}

/// Checks a `GET /stats` body against what the client sent.
pub fn check_stats(body: &str, want: &StatsExpect) -> Result<(), String> {
    let doc = parse(body).map_err(|e| format!("stats: {e}"))?;
    let got = StatsExpect {
        sweeps: uint(&doc, &["sweeps", "total"])?,
        scenarios: uint(&doc, &["sweeps", "scenarios"])?,
        shards: uint(&doc, &["pool", "executed"])?,
        oracle_shards: uint(&doc, &["sweeps", "oracle_shards"])?,
        hits: uint(&doc, &["cache", "hits"])?,
        misses: uint(&doc, &["cache", "misses"])?,
        evictions: uint(&doc, &["cache", "evictions"])?,
    };
    let failed = uint(&doc, &["sweeps", "failed"])?;
    let divergences = uint(&doc, &["sweeps", "oracle_divergences"])?;
    if got != *want || failed != 0 || divergences != 0 {
        return Err(format!(
            "stats {got:?} failed={failed} divergences={divergences}, want {want:?}"
        ));
    }
    Ok(())
}

/// Polls `GET /stats` until it matches `want`, for up to a second, and
/// returns the matching body. The pool counts a job only after the job
/// has published its shard, so right after a stream's last line
/// `pool.executed` can still lag by one.
pub fn await_stats(addr: SocketAddr, want: &StatsExpect) -> Result<String, String> {
    let mut last = String::new();
    for _ in 0..200 {
        let (status, body) = get(addr, "/stats").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET /stats: status {status}"));
        }
        match check_stats(&body, want) {
            Ok(()) => return Ok(body),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(last)
}

/// Replays `repro` on a scalar `CompiledSim::run` (compiled separately
/// from the explorer's handle) and checks that the monitor yields its
/// signature and the trace its `trace_text`.
pub fn check_repro(
    sim: &mut CompiledSim,
    monitor: &ContractMonitor,
    repro: &Repro,
) -> Result<(), String> {
    let sc = &repro.scenario;
    let streams: Vec<(String, Stream)> = sc.streams();
    let inputs: Vec<(&str, Stream)> = streams
        .iter()
        .map(|(n, s)| (n.as_str(), s.clone()))
        .collect();
    let faults: Vec<(&str, FaultKind)> = sc
        .faults
        .iter()
        .map(|g| (g.signal.as_str(), g.kind.to_fault_kind()))
        .collect();
    let result = sim
        .set_faults(&faults)
        .and_then(|()| sim.run(&inputs, sc.ticks));
    sim.clear_faults();
    let (signature, trace) = match result {
        Ok(run) => (
            signature_of_report(&monitor.check(&run.trace)),
            run.trace.to_canonical_text(),
        ),
        Err(e) => (Some(signature_of_error(&e)), String::new()),
    };
    if signature.as_deref() != Some(repro.signature.as_str()) {
        return Err(format!(
            "repro {} replays to signature {signature:?}",
            repro.signature
        ));
    }
    if trace != repro.trace_text {
        return Err(format!(
            "repro {} replays to a different trace",
            repro.signature
        ));
    }
    Ok(())
}

/// Checks an exploration report's bookkeeping: per-generation scenario
/// counts, coverage that never shrinks and stays within the layout
/// totals, and at most `max_repros` repros with distinct signatures.
pub fn check_coverage(
    report: &ExploreReport,
    population: usize,
    max_repros: usize,
) -> Result<(), String> {
    let (mut s, mut t) = (0, 0);
    for (g, gen) in report.generations.iter().enumerate() {
        if gen.generation != g || gen.scenarios_run != (g + 1) * population {
            return Err(format!("generation {g} bookkeeping: {gen:?}"));
        }
        if gen.states_covered < s || gen.transitions_covered < t {
            return Err(format!("coverage shrank at generation {g}"));
        }
        (s, t) = (gen.states_covered, gen.transitions_covered);
    }
    if s > report.total_states || t > report.total_transitions {
        return Err(format!(
            "coverage {s}/{t} exceeds layout {}/{}",
            report.total_states, report.total_transitions
        ));
    }
    if s == 0 {
        return Err("no state covered".into());
    }
    if report.repros.len() > max_repros {
        return Err(format!(
            "{} repros, at most {max_repros} asked for",
            report.repros.len()
        ));
    }
    let mut signatures: Vec<&str> = report.repros.iter().map(|r| r.signature.as_str()).collect();
    signatures.sort_unstable();
    if let Some(w) = signatures.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("two repros share signature {}", w[0]));
    }
    Ok(())
}

/// The co-simulation points of one envelope study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CosimPoint {
    /// No fault.
    Nominal,
    /// Periodic frame loss.
    LostFrame,
    /// Interference beyond the bus's capacity.
    Saturated,
}

/// Checks the verdict a co-simulation point must reach.
pub fn check_cosim(point: CosimPoint, report: &CosimReport) -> Result<(), String> {
    let o = &report.outcome;
    let ok = match point {
        CosimPoint::Nominal => {
            o.envelope_misses() == 0 && report.robustness.is_clean() && report.semantics_preserved()
        }
        CosimPoint::LostFrame => {
            !report.robustness.is_clean() && report.metrics.detection_latency().is_some()
        }
        CosimPoint::Saturated => o.envelope_misses() > 0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{point:?}: {} envelope misses, {} violations, detection latency {:?}",
            o.envelope_misses(),
            report.robustness.violations.len(),
            report.metrics.detection_latency()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::post_timed;
    use automode_kernel::Value;
    use automode_service::{serve, ServerConfig};
    use automode_sim::stimulus;

    fn small_dfd() -> (automode_core::Model, automode_core::ComponentId) {
        automode_bench::random_causal_dfd(8, 3)
    }

    /// Replaces the value printed at `tick` of `signal` with `with`.
    fn edit_value(text: &str, signal: &str, tick: usize, with: &str) -> String {
        let mut out = Vec::new();
        let mut current = "";
        for line in text.lines() {
            if let Some(name) = line.strip_prefix("signal ") {
                current = name;
                out.push(line.to_string());
            } else if current == signal && line.trim_start().starts_with(&format!("{tick} ")) {
                out.push(format!("  {tick} {with}"));
            } else {
                out.push(line.to_string());
            }
        }
        out.join("\n") + "\n"
    }

    #[test]
    fn echo_check_rejects_one_flipped_output_bit() {
        let (m, id) = small_dfd();
        let mut sim = CompiledSim::new(&m, id).unwrap();
        let run = sim
            .run(&[("in", stimulus::ramp(0.25, 3.5, 12))], 12)
            .unwrap();
        let text = run.trace.to_canonical_text();
        let want = ramp(0.25, 3.5, 12);
        check_echo_trace(&text, &want).unwrap();

        let flipped = f64::from_bits(want[5].to_bits() ^ 1);
        let bad = edit_value(&text, "out", 5, &Value::Float(flipped).to_string());
        assert_ne!(bad, text);
        assert!(check_echo_trace(&bad, &want).is_err());
        // The input echo is checked against the ramp computed here too.
        let bad_in = edit_value(&text, "in:in", 0, &Value::Float(0.5).to_string());
        assert!(check_echo_trace(&bad_in, &want).is_err());
        // A trace without outputs cannot pass vacuously.
        let only_in = "automode-trace v1\nticks 1\nsignals 1\nsignal in:in\n  0 0.25\n";
        assert!(check_echo_trace(only_in, &want[..1]).is_err());
    }

    #[test]
    fn stream_check_rejects_dropped_line_and_truncation() {
        let (m, _) = small_dfd();
        let cfg = ServerConfig {
            workers: 1,
            conn_threads: 1,
            ..ServerConfig::default()
        };
        let oracle_every = cfg.oracle_every;
        let server = serve(cfg).unwrap();
        let want = SweepExpect {
            count: 40,
            ticks: 10,
            lanes: 16,
            from: -1.0,
            to: 2.0,
            to_step: 0.125,
            cache: "miss",
            oracle_every,
        };
        let body = crate::sweep::sweep_body(
            &automode_core::text::to_text(&m),
            want.count,
            want.ticks,
            want.lanes,
            (want.from, want.to, want.to_step),
        );
        let s = post_timed(server.addr(), "/sweep", &body, 1).unwrap();
        assert!(s.first_result_s.is_some());
        let seen = check_sweep_stream(s.status, &s.lines, s.complete, &want).unwrap();
        assert_eq!(seen.oracle_shards, 1);

        let mut dropped = s.lines.clone();
        dropped.remove(7);
        assert!(check_sweep_stream(s.status, &dropped, s.complete, &want).is_err());
        let mut duplicated = s.lines.clone();
        duplicated[7] = duplicated[8].clone();
        assert!(check_sweep_stream(s.status, &duplicated, s.complete, &want).is_err());
        assert!(check_sweep_stream(s.status, &s.lines, false, &want).is_err());
        let hit = SweepExpect {
            cache: "hit",
            ..want
        };
        assert!(check_sweep_stream(s.status, &s.lines, s.complete, &hit).is_err());

        let mut expect = StatsExpect {
            sweeps: 1,
            scenarios: 40,
            shards: 3,
            oracle_shards: 1,
            hits: 0,
            misses: 1,
            evictions: 0,
        };
        let stats = await_stats(server.addr(), &expect).unwrap();
        expect.hits = 1;
        assert!(check_stats(&stats, &expect).is_err());
        server.shutdown();
    }

    #[test]
    fn repro_check_rejects_altered_trace_and_coverage_check_rejects_regress() {
        let (model, repros, report) = crate::explore::sample_exploration();
        assert!(!repros.is_empty(), "the sample exploration found no repro");
        let mut sim = CompiledSim::new(&model.0, model.1).unwrap();
        let monitor = automode_explore::exact_output_monitor(&model.0, model.1);
        for r in &repros {
            check_repro(&mut sim, &monitor, r).unwrap();
        }
        let r = &repros[0];
        let mut altered = r.clone();
        altered.trace_text = altered.trace_text.replacen("  0 ", "  0 9", 1);
        assert_ne!(altered.trace_text, r.trace_text);
        assert!(check_repro(&mut sim, &monitor, &altered).is_err());
        let mut resigned = r.clone();
        resigned.signature.push_str("+other");
        assert!(check_repro(&mut sim, &monitor, &resigned).is_err());

        let (population, max) = (crate::explore::POPULATION, crate::explore::MAX_REPROS);
        check_coverage(&report, population, max).unwrap();
        let mut regress = report.clone();
        let last = regress.generations.len() - 1;
        regress.generations[last].states_covered = 0;
        assert!(check_coverage(&regress, population, max).is_err());
        let mut duplicate = report.clone();
        duplicate.repros.push(r.clone());
        assert!(check_coverage(&duplicate, population, max + 1).is_err());
        assert!(check_coverage(&report, population, report.repros.len() - 1).is_err());
    }

    #[test]
    fn cosim_check_tells_points_apart() {
        let study = crate::cosim::Study::new(1).unwrap();
        let reports = study.run_all().unwrap();
        for (point, report) in study.points().zip(&reports) {
            check_cosim(point, report).unwrap();
        }
        let nominal = &reports[0];
        assert!(check_cosim(CosimPoint::Saturated, nominal).is_err());
        assert!(check_cosim(CosimPoint::LostFrame, nominal).is_err());
        assert!(check_cosim(CosimPoint::Nominal, &reports[1]).is_err());
    }
}

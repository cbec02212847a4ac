//! `explore_engine`: in-process coverage-guided exploration of the
//! reengineered engine controller with shrinking, as the `explore` CLI
//! verb sets it up (its port ranges and `exact_output_monitor`). The
//! work is many small coverage-instrumented batches plus scalar shrink
//! replays; there is no HTTP.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use automode_core::text::{from_text, to_text};
use automode_core::{ComponentId, Model};
use automode_explore::{
    exact_output_monitor, explore, DirectRunner, ExploreConfig, ExploreReport, LaneOutcome,
    PopulationRunner, Repro, Scenario, ScenarioSpace, Shrinker,
};
use automode_kernel::CoverageLayout;
use automode_sim::{elaborate, CompiledSim, ContractMonitor};
use rand::Rng;

use crate::checks::{check_coverage, check_repro};
use crate::common::{first_traced_round, peak_rss_mb, rng, segments, Layers, Phases};
use crate::{Args, Outcome};

/// Ticks per explored scenario (the CLI's horizon).
const TICKS: usize = 8;
/// Generations per `explore()` call.
const GENERATIONS: usize = 12;
/// Scenarios per generation.
pub const POPULATION: usize = 16;
/// Distinct violation signatures kept (and shrunk) per call.
pub const MAX_REPROS: usize = 8;

/// Everything one exploration needs, built once.
struct Rig {
    model: Model,
    root: ComponentId,
    runner: DirectRunner,
    shrinker: Shrinker,
    space: ScenarioSpace,
    /// A second, independently compiled handle that replays repros on
    /// the scalar `run` path.
    checker: CompiledSim,
    monitor: ContractMonitor,
}

impl Rig {
    fn new() -> Result<Rig, String> {
        let r = automode_engine::reengineer_engine().map_err(|e| e.to_string())?;
        let (model, root) = (r.model, r.root);
        let sim = Arc::new(CompiledSim::new(&model, root).map_err(|e| e.to_string())?);
        let monitor = exact_output_monitor(&model, root);
        let runner = DirectRunner::new(sim.clone()).with_monitor(monitor.clone());
        let shrinker = Shrinker::new(&sim).with_monitor(monitor.clone());
        let space = ScenarioSpace::from_component(&model, root, TICKS)
            .with_range("rpm", 0.0, 7000.0)
            .with_range("throttle", 0.0, 1.0)
            .with_range("o2", 0.0, 2.0);
        let checker = CompiledSim::new(&model, root).map_err(|e| e.to_string())?;
        Ok(Rig {
            model,
            root,
            runner,
            shrinker,
            space,
            checker,
            monitor,
        })
    }

    fn config(seed: u64) -> ExploreConfig {
        ExploreConfig {
            seed,
            generations: GENERATIONS,
            population: POPULATION,
            guided: true,
            max_repros: MAX_REPROS,
        }
    }

    /// Checks a report's coverage bookkeeping and replays every repro.
    fn check(&mut self, report: &ExploreReport) -> Result<(), String> {
        check_coverage(report, POPULATION, MAX_REPROS)?;
        for r in &report.repros {
            check_repro(&mut self.checker, &self.monitor, r)?;
        }
        Ok(())
    }
}

/// A [`PopulationRunner`] that times every call into the wrapped runner.
struct TimedRunner<'a> {
    inner: &'a DirectRunner,
    spent_s: Cell<f64>,
    calls: Cell<usize>,
}

impl PopulationRunner for TimedRunner<'_> {
    fn layout(&self) -> Arc<CoverageLayout> {
        self.inner.layout()
    }

    fn run(&self, scenarios: &[Scenario]) -> Vec<LaneOutcome> {
        let t = Instant::now();
        let out = self.inner.run(scenarios);
        self.spent_s
            .set(self.spent_s.get() + t.elapsed().as_secs_f64());
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// Decomposes one exploration into runner, search and shrink time: the
/// same call without a shrinker (shrinking never feeds back into the
/// search), then each first-found scenario shrunk on its own. The shrunk
/// repros must equal the ones the undecomposed call returned.
fn probe(rig: &Rig, seed: u64, want: &[Repro], layers: &mut Layers) -> Result<(), String> {
    let timed = TimedRunner {
        inner: &rig.runner,
        spent_s: Cell::new(0.0),
        calls: Cell::new(0),
    };
    let t = Instant::now();
    let raw = explore(&timed, None, &rig.space, &Rig::config(seed), |_| {});
    let total_s = t.elapsed().as_secs_f64();
    let runner_s = timed.spent_s.get();
    layers.push(
        "explore.runner_ms_per_generation",
        runner_s * 1e3 / timed.calls.get().max(1) as f64,
    );
    layers.push("explore.search_ms_per_call", (total_s - runner_s) * 1e3);
    if raw.repros.len() != want.len() {
        return Err(format!(
            "{} repros without shrinking, {} with",
            raw.repros.len(),
            want.len()
        ));
    }
    for (found, shrunk) in raw.repros.iter().zip(want) {
        let t = Instant::now();
        let again = rig.shrinker.shrink(&found.scenario, &found.signature);
        layers.time("explore.shrink_ms_per_repro", t, 1e3, 1.0);
        if again.signature != shrunk.signature
            || again.scenario != shrunk.scenario
            || again.trace_text != shrunk.trace_text
        {
            return Err(format!("shrinking {} on its own differs", found.signature));
        }
    }
    Ok(())
}

/// Compile layers of the engine model, measured once per traced call.
fn probe_compile(rig: &Rig, layers: &mut Layers) -> Result<(), String> {
    let text = to_text(&rig.model);
    let t = Instant::now();
    let parsed = from_text(&text).map_err(|e| e.to_string())?;
    layers.time("core.text.parse_us", t, 1e6, 1.0);
    std::hint::black_box(parsed);
    let t = Instant::now();
    let net = elaborate(&rig.model, rig.root).map_err(|e| e.to_string())?;
    layers.time("sim.elaborate_us", t, 1e6, 1.0);
    let t = Instant::now();
    let ready = net.prepare().map_err(|e| e.to_string())?;
    layers.time("kernel.prepare_us", t, 1e6, 1.0);
    layers.push("kernel.nodes", ready.node_count() as f64);
    let t = Instant::now();
    let sim = CompiledSim::new(&rig.model, rig.root).map_err(|e| e.to_string())?;
    layers.time("sim.compile_us", t, 1e6, 1.0);
    std::hint::black_box(sim);
    Ok(())
}

/// A small exploration with repros, for the checkers' own tests.
#[cfg(test)]
pub fn sample_exploration() -> ((Model, ComponentId), Vec<Repro>, ExploreReport) {
    let rig = Rig::new().unwrap();
    let report = (0..16)
        .map(|s| {
            explore(
                &rig.runner,
                Some(&rig.shrinker),
                &rig.space,
                &Rig::config(s),
                |_| {},
            )
        })
        .find(|r| !r.repros.is_empty())
        .expect("some seed finds a violation");
    ((rig.model, rig.root), report.repros.clone(), report)
}

/// Runs `explore_engine`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut phases = Phases::default();
    let mut layers = Layers::default();
    let mut counts: Vec<[f64; 3]> = Vec::new();
    let clock = segments(args.seconds, args.trace, |seg| {
        // Set-up: reengineering, two compiles, and one warm-up call.
        let mut rig = seg.set_up(|| {
            let rig = Rig::new()?;
            explore(
                &rig.runner,
                Some(&rig.shrinker),
                &rig.space,
                &Rig::config(args.seed),
                |_| {},
            );
            Ok(rig)
        })?;
        seg.rounds(|i, traced| {
            let seed: u64 = rng(args.seed, i as u64).gen();
            let c = phases.side(traced);
            let t0 = Instant::now();
            let mut first = None;
            let report = explore(
                &rig.runner,
                Some(&rig.shrinker),
                &rig.space,
                &Rig::config(seed),
                |_| {
                    first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
                },
            );
            let latency = t0.elapsed().as_secs_f64();
            match first {
                Some(first) => c.ok(i, latency, first, report.scenarios_run() as u64),
                None => c.fail("no generation reported"),
            }
            if let Err(e) = rig.check(&report) {
                c.violation(format!("explore seed {seed}: {e}"));
            }
            if traced {
                // Work counts of the first traced round only: a fixed set of
                // calls, so a speed-only change leaves them identical.
                if first_traced_round(i) {
                    let (s, t) = report.final_coverage();
                    counts.push([s as f64, t as f64, report.repros.len() as f64]);
                }
                if let Err(e) = probe(&rig, seed, &report.repros, &mut layers)
                    .and_then(|()| probe_compile(&rig, &mut layers))
                {
                    c.violation(format!("layer probe, seed {seed}: {e}"));
                }
            }
        });
        Ok(())
    })?;

    let mut out = Outcome::default();
    (out.collector, out.overhead) = phases.finish(args.trace);
    let mut values = layers.medians();
    let mean = |k: usize| counts.iter().map(|c| c[k]).sum::<f64>() / counts.len().max(1) as f64;
    values.insert("explore.states_covered", mean(0));
    values.insert("explore.transitions_covered", mean(1));
    values.insert("explore.repros", mean(2));
    out.layers = values;
    out.clock = clock;
    out.peak_rss_mb = peak_rss_mb();
    Ok(out)
}

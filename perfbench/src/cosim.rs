//! `cosim_engine`: envelope studies of the Fig. 7 two-ECU engine
//! deployment. One operation is one study: `CosimHarness::run` at the
//! nominal point, with periodic frame loss, and at two bus-load points
//! past saturation. It is the only workload that runs `platform` and
//! `transform`, and the only one that steps the kernel one tick at a
//! time (on the platform's cluster bodies and in the LA reference).

use std::cell::Cell;
use std::time::Instant;

use automode_core::ccd::{Ccd, FixedPriorityDataIntegrityPolicy};
use automode_core::text::{from_text, to_text};
use automode_core::Model;
use automode_kernel::{KernelError, Message, ReadyNetwork, Trace, TraceEquivalence, Value};
use automode_platform::cosim::{ClusterStep, CosimConfig, PlatformFault};
use automode_sim::{elaborate, elaborate_ccd, stimulus, CompiledSim};
use automode_transform::cosim::{CosimHarness, CosimReport};
use automode_transform::{deploy, Deployment, DeploymentSpec};
use rand::Rng;

use crate::checks::{check_cosim, CosimPoint};
use crate::common::{grid, peak_rss_mb, rng, segments, Layers, Phases};
use crate::{Args, Outcome};

/// Base ticks (1 ms each) per co-simulation run: long enough that the
/// first (nominal) report is not a sub-millisecond measurement.
const TICKS: u64 = 2_000;

/// The deployment, stimulus and fault points of one seeded study.
pub struct Study {
    model: Model,
    ccd: Ccd,
    spec: DeploymentSpec,
    deployment: Deployment,
    stimulus: Trace,
    points: Vec<(CosimPoint, Vec<PlatformFault>)>,
}

impl Study {
    /// Builds the study for `seed`: the rpm ramp's ends and the first lost
    /// frame instance are drawn from it.
    pub fn new(seed: u64) -> Result<Study, String> {
        let (model, ccd, spec) =
            automode_engine::engine_cosim_parts().map_err(|e| e.to_string())?;
        let deployment = deploy(
            &model,
            &ccd,
            &FixedPriorityDataIntegrityPolicy::new(),
            &spec,
        )
        .map_err(|e| e.to_string())?;
        let mut draw = rng(seed, 3);
        let n = TICKS as usize;
        let rpm = stimulus::ramp(
            grid(&mut draw, 700.0, 900.0, 25.0),
            grid(&mut draw, 6800.0, 7200.0, 25.0),
            n,
        );
        // Pedal to the floor within the first 40 % of the run, then held.
        let full = (n * 2 / 5).max(1);
        let throttle: automode_kernel::Stream = (0..n)
            .map(|k| Message::present(Value::Float((k as f64 / full as f64).min(1.0))))
            .collect();
        let mut stim = Trace::new();
        stim.insert("fuel_control.rpm", rpm.clone());
        stim.insert("ignition_control.rpm", rpm);
        stim.insert("fuel_control.throttle", throttle);
        // An 8-byte frame takes ~266 us at 500 kbit/s: a babbler with a
        // shorter period offers more than the bus carries. The periods are
        // fixed because they set how many frames a run simulates.
        let babble = |period_us| PlatformFault::BusLoad {
            id: 0x08,
            dlc: 8,
            period_us,
            offset_us: 50,
        };
        let points = vec![
            (CosimPoint::Nominal, Vec::new()),
            (
                CosimPoint::LostFrame,
                vec![PlatformFault::LostFrame {
                    frame: "f_engine_ecu_10tick".into(),
                    every: 4,
                    phase: rng(seed, 4).gen_range(0..4),
                }],
            ),
            (CosimPoint::Saturated, vec![babble(240)]),
            (CosimPoint::Saturated, vec![babble(220)]),
        ];
        Ok(Study {
            model,
            ccd,
            spec,
            deployment,
            stimulus: stim,
            points,
        })
    }

    /// The study's points, in run order.
    pub fn points(&self) -> impl Iterator<Item = CosimPoint> + '_ {
        self.points.iter().map(|(p, _)| *p)
    }

    /// One bound harness per point.
    fn harnesses(&self) -> Result<Vec<CosimHarness<'_>>, String> {
        self.points
            .iter()
            .map(|(_, faults)| {
                let config = CosimConfig {
                    faults: faults.clone(),
                    ..CosimConfig::default()
                };
                CosimHarness::new(&self.model, &self.ccd, &self.deployment, &self.spec, config)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Runs every point once (for the checkers' own tests).
    #[cfg(test)]
    pub fn run_all(&self) -> Result<Vec<CosimReport>, String> {
        self.harnesses()?
            .iter()
            .map(|h| h.run(&self.stimulus, TICKS).map_err(|e| e.to_string()))
            .collect()
    }
}

/// A cluster body that times each kernel `step` and counts node-steps.
struct TimedBody<'a> {
    net: ReadyNetwork,
    nodes: u64,
    acc: &'a Cell<(f64, u64)>,
}

impl ClusterStep for TimedBody<'_> {
    fn step(&mut self, _k: u64, inputs: &[Message]) -> Result<Vec<Message>, KernelError> {
        let t = Instant::now();
        let out = self.net.step_tick_observed(inputs)?.to_vec();
        let (s, n) = self.acc.get();
        self.acc
            .set((s + t.elapsed().as_secs_f64(), n + self.nodes));
        Ok(out)
    }
}

/// Re-runs one point layer by layer: fresh cluster bodies (elaborate,
/// prepare), the platform co-simulation on them, then the LA reference.
/// Both traces must equal the ones the harness reported.
fn probe(
    study: &Study,
    harness: &CosimHarness<'_>,
    want: &CosimReport,
    layers: &mut Layers,
) -> Result<(), String> {
    let acc = Cell::new((0.0, 0u64));
    let (mut elab_s, mut prep_s) = (0.0, 0.0);
    let mut bodies: Vec<Box<dyn ClusterStep + '_>> = Vec::new();
    for cluster in &study.ccd.clusters {
        let t = Instant::now();
        let net = elaborate(&study.model, cluster.component).map_err(|e| e.to_string())?;
        elab_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let net = net.prepare().map_err(|e| e.to_string())?;
        prep_s += t.elapsed().as_secs_f64();
        let nodes = net.node_count() as u64;
        bodies.push(Box::new(TimedBody {
            net,
            nodes,
            acc: &acc,
        }));
    }
    layers.push("sim.elaborate_us", elab_s * 1e6);
    layers.push("kernel.prepare_us", prep_s * 1e6);
    let t = Instant::now();
    let outcome = harness
        .cosim()
        .run(&mut bodies, &study.stimulus, TICKS)
        .map_err(|e| e.to_string())?;
    layers.time("platform.cosim_ms_per_run", t, 1e3, 1.0);
    drop(bodies);
    let (step_s, node_steps) = acc.get();
    layers.push(
        "kernel.step_ns_per_node",
        step_s * 1e9 / node_steps.max(1) as f64,
    );

    let t = Instant::now();
    let la_net = elaborate_ccd(&study.model, &study.ccd).map_err(|e| e.to_string())?;
    let names: Vec<String> = la_net.input_names().map(str::to_owned).collect();
    let rows: Vec<Vec<Message>> = (0..TICKS as usize)
        .map(|k| {
            names
                .iter()
                .map(|n| {
                    study
                        .stimulus
                        .signal(n)
                        .and_then(|s| s.get(k))
                        .cloned()
                        .unwrap_or(Message::Absent)
                })
                .collect()
        })
        .collect();
    let la_trace = la_net.run(&rows).map_err(|e| e.to_string())?;
    layers.time("kernel.la_run_ms_per_run", t, 1e3, 1.0);

    let exact = TraceEquivalence::exact();
    if let Some(d) = outcome.trace.diff(&want.outcome.trace, &exact) {
        return Err(format!("platform trace differs from the harness run: {d}"));
    }
    if let Some(d) = la_trace.diff(&want.la_trace, &exact) {
        return Err(format!("LA trace differs from the harness run: {d}"));
    }
    Ok(())
}

/// Compile layers of the cluster components, once per traced study.
fn probe_compile(study: &Study, layers: &mut Layers) -> Result<(), String> {
    let text = to_text(&study.model);
    let t = Instant::now();
    let parsed = from_text(&text).map_err(|e| e.to_string())?;
    layers.time("core.text.parse_us", t, 1e6, 1.0);
    std::hint::black_box(parsed);
    let (mut compile_s, mut nodes) = (0.0, 0);
    for cluster in &study.ccd.clusters {
        let t = Instant::now();
        let sim = CompiledSim::new(&study.model, cluster.component).map_err(|e| e.to_string())?;
        compile_s += t.elapsed().as_secs_f64();
        nodes += sim.stats().nodes;
    }
    layers.push("sim.compile_us", compile_s * 1e6);
    layers.push("kernel.nodes", nodes as f64);
    Ok(())
}

/// Runs `cosim_engine`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut phases = Phases::default();
    let mut layers = Layers::default();
    let clock = segments(args.seconds, args.trace, |seg| {
        // Set-up: deployment, stimulus, one harness per point, and one
        // warm-up study. The kept harnesses are rebuilt below (~0.1 ms).
        let study = seg.set_up(|| {
            let s = Study::new(args.seed)?;
            for h in s.harnesses()? {
                h.run(&s.stimulus, TICKS).map_err(|e| e.to_string())?;
            }
            Ok(s)
        })?;
        let harnesses = study.harnesses()?;
        seg.rounds(|i, traced| {
            let c = phases.side(traced);
            let t0 = Instant::now();
            let mut first = None;
            let mut reports = Vec::with_capacity(harnesses.len());
            for h in &harnesses {
                match h.run(&study.stimulus, TICKS) {
                    Ok(r) => reports.push(r),
                    Err(e) => {
                        c.fail(&e.to_string());
                        return;
                    }
                }
                first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
            }
            let latency = t0.elapsed().as_secs_f64();
            c.ok(i, latency, first.unwrap_or(latency), reports.len() as u64);
            for (point, report) in study.points().zip(&reports) {
                if let Err(e) = check_cosim(point, report) {
                    c.violation(e);
                }
            }
            if traced {
                for (h, report) in harnesses.iter().zip(&reports) {
                    if let Err(e) = probe(&study, h, report, &mut layers) {
                        c.violation(format!("layer probe: {e}"));
                    }
                }
                if let Err(e) = probe_compile(&study, &mut layers) {
                    c.violation(format!("layer probe: {e}"));
                }
            }
        });
        Ok(())
    })?;

    let mut out = Outcome::default();
    (out.collector, out.overhead) = phases.finish(args.trace);
    out.layers = layers.medians();
    out.clock = clock;
    out.peak_rss_mb = peak_rss_mb();
    Ok(out)
}

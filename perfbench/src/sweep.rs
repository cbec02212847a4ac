//! The two sweep-service workloads, driven over loopback HTTP by one
//! closed-loop client.
//!
//! * `sweep_hot` posts one `random_causal_dfd(64)` model again and again:
//!   after the warm-up miss every request hits the compiled-model cache,
//!   so the time goes to `run_batch`, the sampled oracle, encoding and
//!   HTTP.
//! * `sweep_edit` cycles through one more mode-rich `moded_controller`
//!   than the cache holds, with the cache already full, so every request
//!   misses and evicts. Compiling one elaborates every mode while a run
//!   steps only the active one, and each request has few scenarios, so
//!   most of the time goes to `.amdl` parse, elaboration and `prepare`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use automode_bench::{moded_controller, random_causal_dfd};
use automode_core::json::JsonWriter;
use automode_core::text::{from_text, to_text};
use automode_service::sweep::scenario_line;
use automode_service::{
    execute, get, serve, ExecOpts, Server, ServerConfig, SweepSpec, WorkerPool,
};
use automode_sim::{elaborate, stimulus, BatchScenario, CompiledSim};
use rand::rngs::StdRng;

use crate::checks::{await_stats, check_sweep_stream, StatsExpect, SweepExpect};
use crate::client::post_timed;
use crate::common::{grid, peak_rss_mb, rng, segments, sim_workers, Layers, Phases};
use crate::stats::median;
use crate::{Args, Outcome};

/// Lanes per batch shard (the service's production width).
const LANES: usize = 32;
/// Ticks per scenario.
const TICKS: usize = 40;
/// Nodes of the hot model (the ROADMAP baseline shape).
const HOT_NODES: usize = 64;
/// The hot model's generator seed. The model is the same in every run so
/// that runs do the same work; `--seed` draws the stimulus.
const HOT_MODEL_SEED: u64 = 7;
/// Scenarios per hot request: sixteen K-lane shards, so the 1/16 oracle
/// checks exactly one shard per request, its production rate.
const HOT_COUNT: usize = 16 * LANES;
/// Scenarios per edit request: part of one shard, which the oracle always
/// checks. Few scenarios keep the run short next to the compile.
const EDIT_COUNT: usize = 8;
/// Modes of each edit model, and expression blocks per mode. Compile
/// cost grows with modes x blocks, run cost only with blocks.
const EDIT_MODES: usize = 48;
const EDIT_BLOCKS: usize = 24;
/// Compiled models the server keeps.
const CACHE_CAPACITY: usize = 8;
/// Distinct edit models, posted in a cycle: one more than the cache
/// holds, so the LRU cache misses and evicts on every request.
const EDIT_MODELS: usize = CACHE_CAPACITY + 1;
/// The edit models' generator seed, the same in every run so that runs
/// do the same work; `--seed` draws the ramps.
const EDIT_MODEL_SEED: u64 = 11;

/// The server settings both sweep workloads use.
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: sim_workers(),
        conn_threads: 1,
        cache_shards: 1,
        cache_capacity: CACHE_CAPACITY,
        ..ServerConfig::default()
    }
}

/// A `POST /sweep` body: `count` ramp scenarios of `ticks` ticks on port
/// `in`, scenario `i` ramping from `from` to `to + i * to_step`, with the
/// canonical trace of every scenario in the stream.
pub fn sweep_body(
    model_text: &str,
    count: usize,
    ticks: usize,
    lanes: usize,
    (from, to, to_step): (f64, f64, f64),
) -> String {
    let mut w = JsonWriter::with_capacity(model_text.len() + 256);
    w.begin_object();
    w.field("model").string(model_text);
    w.field("count").uint(count as u64);
    w.field("ticks").uint(ticks as u64);
    w.field("lanes").uint(lanes as u64);
    w.field("trace").boolean(true);
    w.field("inputs").begin_array();
    w.begin_object();
    w.field("port").string("in");
    w.field("kind").string("ramp");
    w.field("from").number(from);
    w.field("to").number(to);
    w.field("to_step").number(to_step);
    w.end_object();
    w.end_array();
    w.end_object();
    w.finish()
}

/// One request with everything needed to check and decompose it.
struct Request {
    body: String,
    expect: SweepExpect,
}

impl Request {
    fn new(model_text: &str, count: usize, ramp: (f64, f64, f64), cache: &'static str) -> Request {
        Request {
            body: sweep_body(model_text, count, TICKS, LANES, ramp),
            expect: SweepExpect {
                count,
                ticks: TICKS,
                lanes: LANES,
                from: ramp.0,
                to: ramp.1,
                to_step: ramp.2,
                cache,
                oracle_every: server_config().oracle_every,
            },
        }
    }

    /// The same request expecting another cache outcome.
    fn with_cache(&self, cache: &'static str) -> Request {
        Request {
            body: self.body.clone(),
            expect: SweepExpect {
                cache,
                ..self.expect
            },
        }
    }
}

/// Ramp parameters: exact binary fractions, so the JSON round trip is
/// exact. Edit ramps climb through several mode thresholds (2, 4, 6, ...).
fn ramp_for(draw: &mut StdRng, edit: bool) -> (f64, f64, f64) {
    if edit {
        (
            grid(draw, 0.0, 1.0, 0.125),
            grid(draw, 6.0, 10.0, 0.25),
            0.0625,
        )
    } else {
        let from = grid(draw, -2.0, 2.0, 0.125);
        (from, from + grid(draw, 1.0, 4.0, 0.25), 0.0078125)
    }
}

fn edit_model_text(index: u64) -> String {
    let (m, _) = moded_controller(EDIT_MODES, EDIT_BLOCKS, EDIT_MODEL_SEED + index);
    to_text(&m)
}

/// A running server plus what the client has sent it.
struct Session {
    server: Server,
    sent: StatsExpect,
}

impl Session {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Posts `req`, checks the stream, and books what the server must
    /// have counted. Returns (latency s, first result s, oracle shards,
    /// scenario bytes) or the failure.
    fn post(&mut self, req: &Request) -> Result<(f64, f64, u64, usize), Failure> {
        let s = post_timed(self.addr(), "/sweep", &req.body, 1)
            .map_err(|e| Failure::Op(format!("POST /sweep: {e}")))?;
        if s.status != 200 {
            return Err(Failure::Op(format!(
                "status {}: {:?}",
                s.status,
                s.lines.first()
            )));
        }
        let e = &req.expect;
        self.sent.sweeps += 1;
        self.sent.scenarios += e.count as u64;
        let shards = e.count.div_ceil(e.lanes) as u64;
        self.sent.shards += shards;
        self.sent.oracle_shards += shards.div_ceil(e.oracle_every as u64);
        if e.cache == "hit" {
            self.sent.hits += 1;
        } else {
            self.sent.misses += 1;
            if self.sent.misses > CACHE_CAPACITY as u64 {
                self.sent.evictions += 1;
            }
        }
        let seen = check_sweep_stream(s.status, &s.lines, s.complete, e).map_err(Failure::Check)?;
        let first = s
            .first_result_s
            .ok_or_else(|| Failure::Check("no first result".into()))?;
        Ok((s.total_s, first, seen.oracle_shards, seen.scenario_bytes))
    }
}

enum Failure {
    /// The program failed the operation.
    Op(String),
    /// The program reported success but its output broke a check.
    Check(String),
}

/// Starts a server and brings it to the state timed operations expect:
/// the hot model compiled, or the cache full of edit models. Returns the
/// session and the requests its `k`-th timed operation posts, in a cycle
/// at index `k + CACHE_CAPACITY`: the hot request, or the edit request
/// whose model the cache evicted longest ago.
fn set_up(args: &Args, edit: bool) -> Result<(Session, Vec<Request>), String> {
    let server = serve(server_config()).map_err(|e| format!("bind: {e}"))?;
    let mut session = Session {
        server,
        sent: StatsExpect::default(),
    };
    let mut draw = rng(args.seed, 1);
    let cycle: Vec<Request> = if edit {
        (0..EDIT_MODELS as u64)
            .map(|j| {
                Request::new(
                    &edit_model_text(j),
                    EDIT_COUNT,
                    ramp_for(&mut draw, true),
                    "miss",
                )
            })
            .collect()
    } else {
        let (m, _) = random_causal_dfd(HOT_NODES, HOT_MODEL_SEED);
        let ramp = ramp_for(&mut draw, false);
        vec![Request::new(&to_text(&m), HOT_COUNT, ramp, "hit")]
    };
    // The warm-ups compile the hot model, or fill the cache with all edit
    // models but the last.
    let warmups = &cycle[..cycle.len().min(CACHE_CAPACITY)];
    for req in warmups {
        match session.post(&req.with_cache("miss")) {
            Ok(_) => {}
            Err(Failure::Op(e) | Failure::Check(e)) => return Err(format!("warm-up: {e}")),
        }
    }
    Ok((session, cycle))
}

/// The per-layer decomposition of one request, timed from here by calling
/// each layer's public entry point on the same input; `execute` runs on
/// `pool`, a pool of the server's size.
fn probe(
    pool: &WorkerPool,
    req: &Request,
    latency_s: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let doc = automode_core::json::parse(&req.body)?;
    let spec = SweepSpec::from_json(&doc).map_err(|e| e.to_string())?;
    layers.time("core.json.parse_us", t, 1e6, 1.0);

    let t = Instant::now();
    let model = from_text(&spec.model).map_err(|e| e.to_string())?;
    layers.time("core.text.parse_us", t, 1e6, 1.0);
    let root = model.root().ok_or("model has no root")?;
    let t = Instant::now();
    let net = elaborate(&model, root).map_err(|e| e.to_string())?;
    layers.time("sim.elaborate_us", t, 1e6, 1.0);
    let t = Instant::now();
    let ready = net.prepare().map_err(|e| e.to_string())?;
    layers.time("kernel.prepare_us", t, 1e6, 1.0);
    drop(ready);
    let t = Instant::now();
    let sim = Arc::new(CompiledSim::new(&model, root).map_err(|e| e.to_string())?);
    layers.time("sim.compile_us", t, 1e6, 1.0);
    let nodes = sim.stats().nodes;
    layers.push("kernel.nodes", nodes as f64);

    // Shard 0, exactly as a pool job builds, runs, checks and encodes it.
    let e = &req.expect;
    let lanes = e.lanes.min(e.count);
    let t = Instant::now();
    let inputs: Vec<Vec<(&str, automode_kernel::Stream)>> = (0..lanes)
        .map(|i| {
            vec![(
                "in",
                stimulus::ramp(e.from, e.to + e.to_step * i as f64, e.ticks),
            )]
        })
        .collect();
    let batch: Vec<BatchScenario> = inputs
        .iter()
        .map(|inp| BatchScenario::new(inp, e.ticks))
        .collect();
    layers.time("sweep.stimulus_us_per_shard", t, 1e6, 1.0);
    let t = Instant::now();
    let runs = sim.run_batch(&batch).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    layers.push("kernel.run_batch_ms_per_shard", secs * 1e3);
    layers.push(
        "kernel.ns_per_node_lane_step",
        secs * 1e9 / (nodes * lanes * e.ticks) as f64,
    );
    let mut oracle = (*sim).clone();
    oracle.set_batch_vectorization(false);
    let t = Instant::now();
    let slow = oracle.run_batch(&batch).map_err(|e| e.to_string())?;
    layers.time("sweep.oracle_ms_per_shard", t, 1e3, 1.0);
    if slow != runs {
        return Err("typed lanes and the scalar oracle disagree".into());
    }
    let t = Instant::now();
    let bytes: usize = runs
        .iter()
        .enumerate()
        .map(|(i, run)| scenario_line(i, run, true, None, None).len())
        .sum();
    layers.time("sweep.encode_us_per_scenario", t, 1e6, lanes as f64);
    std::hint::black_box(bytes);

    let spec = Arc::new(spec);
    let opts = ExecOpts {
        oracle_every: server_config().oracle_every,
        queue_cap: server_config().queue_cap,
    };
    let mut lines = 0usize;
    let t = Instant::now();
    let outcome = execute(&spec, &sim, pool, opts, &mut |_| {
        lines += 1;
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let exec_s = t.elapsed().as_secs_f64();
    if outcome.failed || lines != e.count {
        return Err(format!("in-memory execute: {outcome:?}, {lines} lines"));
    }
    layers.push("service.sweep.execute_ms", exec_s * 1e3);
    layers.push("service.http.overhead_ms", (latency_s - exec_s) * 1e3);
    Ok(())
}

/// Runs `sweep_hot` (`edit == false`) or `sweep_edit`.
pub fn run(args: &Args, edit: bool) -> Result<Outcome, String> {
    let pool = args.trace.then(|| WorkerPool::new(sim_workers()));
    let mut phases = Phases::default();
    let mut layers = Layers::default();
    let mut oracle_shards = Vec::new();
    let mut bytes_per_scenario = Vec::new();
    let mut counted = Counters::default();
    let mut stats_errors = Vec::new();
    let clock = segments(args.seconds, args.trace, |seg| {
        let (mut session, cycle) = seg.set_up(|| set_up(args, edit))?;
        let before = stats_snapshot(session.addr())?;
        let mut posted = 0;
        seg.rounds(|i, traced| {
            let req = &cycle[(posted + CACHE_CAPACITY) % cycle.len()];
            posted += 1;
            let c = phases.side(traced);
            match session.post(req) {
                Ok((lat, first, oracle, bytes)) => {
                    c.ok(i, lat, first, req.expect.count as u64);
                    oracle_shards.push(oracle as f64);
                    bytes_per_scenario.push(bytes as f64 / req.expect.count as f64);
                    if let Some(pool) = pool.as_ref().filter(|_| traced) {
                        if let Err(e) = probe(pool, req, lat, &mut layers) {
                            c.violation(format!("layer probe: {e}"));
                        }
                    }
                }
                Err(Failure::Op(e)) => c.fail(&e),
                Err(Failure::Check(e)) => c.violation(e),
            }
        });
        let after = stats_snapshot(session.addr())?;
        counted.hits += after.hits - before.hits;
        counted.misses += after.misses - before.misses;
        counted.evictions += after.evictions - before.evictions;
        counted.steals += after.steals - before.steals;
        if let Err(e) = await_stats(session.addr(), &session.sent) {
            stats_errors.push(format!("GET /stats: {e}"));
        }
        session.server.shutdown();
        Ok(())
    })?;

    let mut out = Outcome::default();
    (out.collector, out.overhead) = phases.finish(args.trace);
    for e in stats_errors {
        out.collector.violation(e);
    }
    let requests = counted.hits + counted.misses;
    if requests > 0 {
        layers.push(
            "service.cache.hit_ratio",
            counted.hits as f64 / requests as f64,
        );
        layers.push(
            "service.cache.evictions",
            counted.evictions as f64 / requests as f64,
        );
    }
    layers.push("service.pool.steals", counted.steals as f64);
    if let Some(p) = pool {
        p.shutdown();
    }
    out.layers = layers.medians();
    out.layers
        .insert("sweep.oracle_shards", median(&oracle_shards));
    out.layers
        .insert("sweep.bytes_per_scenario", median(&bytes_per_scenario));
    out.clock = clock;
    out.peak_rss_mb = peak_rss_mb();
    Ok(out)
}

/// The cache and pool counters of `GET /stats`.
#[derive(Debug, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    steals: u64,
}

fn stats_snapshot(addr: SocketAddr) -> Result<Counters, String> {
    let (_, body) = get(addr, "/stats").map_err(|e| e.to_string())?;
    let doc = automode_core::json::parse(&body)?;
    let n = |a: &str, b: &str| {
        doc.get(a)
            .and_then(|o| o.get(b))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    Ok(Counters {
        hits: n("cache", "hits"),
        misses: n("cache", "misses"),
        evictions: n("cache", "evictions"),
        steals: n("pool", "steals"),
    })
}

//! Pieces every workload shares: the closed loop of segments and whole
//! rounds, the host-speed calibration, the end-to-end sample collector,
//! per-layer samples, and the seeded generator for input parameters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, percentile};

/// Operations per round.
const ROUND: usize = 10;
/// Rounds every run completes, however long they take: `latency_p90_ms`
/// needs at least 100 operations.
const MIN_ROUNDS: usize = 10;
/// Segments of an untraced run, each with its own timed set-up;
/// `setup_s` is the median of their set-up times.
const SETUP_REPEATS: usize = 7;

/// Seconds the calibration kernel takes on the host the benchmark was set
/// up on (the median of its samples over the runs recorded in
/// `README.md`). Calibrated timings are in seconds of that host.
const CALIBRATION_REF_S: f64 = 0.000_75;

/// A fixed, allocation-free computation that the benchmark times between
/// operations, so that a run can tell how fast the host is running at the
/// moments it measures. It is the benchmark's own code, untouched by any
/// change to the program: sorting, hash probing with data-dependent
/// branches, floating-point arithmetic and number formatting, over
/// buffers allocated once.
#[derive(Debug)]
pub struct Calibration {
    keys: Vec<u64>,
    table: Vec<u64>,
    text: String,
    samples_s: Vec<f64>,
}

impl Calibration {
    const KEYS: usize = 16_384;

    fn new() -> Calibration {
        Calibration {
            keys: vec![0; Self::KEYS],
            table: vec![0; 2 * Self::KEYS],
            text: String::with_capacity(16 * Self::KEYS),
            samples_s: Vec::new(),
        }
    }

    /// Runs the kernel once and records how long it took.
    fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(self.kernel());
        self.samples_s.push(t.elapsed().as_secs_f64());
    }

    /// The same work every call: the inputs are regenerated from a fixed
    /// seed.
    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x % 1_000_003 + 1;
        }
        self.keys.sort_unstable();
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut probes = 0u64;
        for &k in &self.keys {
            let mut slot = (k.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 40) as usize & mask;
            while self.table[slot] != 0 && self.table[slot] != k {
                slot = (slot + 1) & mask;
                probes += 1;
            }
            self.table[slot] = k;
        }
        let mut f = 0.0f64;
        for &k in self.keys.iter().step_by(2) {
            f = f.mul_add(0.999, (k as f64).sqrt());
        }
        self.text.clear();
        for &k in self.keys.iter().step_by(8) {
            let _ = write!(self.text, "{},", k as f64 / 7.0);
        }
        probes + f as u64 + self.text.len() as u64
    }

    /// How many times faster the host ran while `samples_s` were taken
    /// than the host the benchmark was set up on: the reference time over
    /// their median. A timing multiplied by it is in calibrated seconds.
    fn speed(samples_s: &[f64]) -> f64 {
        let m = median(samples_s);
        if m > 0.0 {
            CALIBRATION_REF_S / m
        } else {
            1.0
        }
    }
}

/// What [`segments`] measures besides the operations.
#[derive(Debug, Default)]
pub struct Clock {
    /// Set-up time of each segment, wall seconds, with the round that
    /// followed it.
    setups: Vec<(f64, usize)>,
    /// Host speed during each round of the run, from the calibration
    /// samples taken after its operations; see [`Calibration::speed`].
    round_speed: Vec<f64>,
    /// Host speed over the whole run.
    pub speed: f64,
    /// Median calibration sample, seconds.
    pub calibration_s: f64,
}

impl Clock {
    /// The speed of the round that operation `op` belongs to; 1 for an
    /// empty clock, which leaves wall time as it is.
    pub fn factor(&self, op: usize) -> f64 {
        self.round_speed.get(op / ROUND).copied().unwrap_or(1.0)
    }

    /// Median set-up time, each set-up scaled by the speed of the round
    /// that followed it (`calibrated`) or in wall seconds.
    pub fn setup_s(&self, calibrated: bool) -> f64 {
        let v: Vec<f64> = self
            .setups
            .iter()
            .map(|&(s, round)| {
                if calibrated {
                    s * self.factor(round * ROUND)
                } else {
                    s
                }
            })
            .collect();
        median(&v)
    }
}

/// Runs the closed loop of one run as a sequence of segments and returns
/// the set-up times and the host speed. `segment` is called once per
/// segment (once in a traced run, [`SETUP_REPEATS`] times otherwise): it
/// sets the workload up afresh through [`Segment::set_up`], runs its
/// operations through [`Segment::rounds`], and drops its state before the
/// next segment sets up. Set-ups are spread over the run, so `setup_s`
/// samples the host at several moments. Only one set-up is alive at a
/// time, and the heap pages a finished segment freed are handed back to
/// the kernel before the next one starts, so the peak RSS reflects one
/// segment rather than the allocator's leftovers from earlier ones.
pub fn segments(
    seconds: f64,
    trace: bool,
    mut segment: impl FnMut(&mut Segment) -> Result<(), String>,
) -> Result<Clock, String> {
    let n = if trace { 1 } else { SETUP_REPEATS };
    let mut seg = Segment {
        start: Instant::now(),
        trace,
        next: 0,
        end_s: 0.0,
        last: false,
        setups: Vec::with_capacity(n),
        calibration: Calibration::new(),
    };
    for k in 1..=n {
        seg.end_s = seconds * k as f64 / n as f64;
        seg.last = k == n;
        segment(&mut seg)?;
        release_freed_memory();
    }
    let samples = &seg.calibration.samples_s;
    Ok(Clock {
        setups: seg.setups,
        round_speed: samples.chunks(ROUND).map(Calibration::speed).collect(),
        speed: Calibration::speed(samples),
        calibration_s: median(samples),
    })
}

/// Returns free heap pages to the kernel (glibc `malloc_trim`). A
/// segment's server threads allocate in their own malloc arenas; without
/// this, what a finished segment freed stays resident in arenas the next
/// segment's threads may not reuse, and the process's peak RSS grows by
/// whole sessions from run to run.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases free
        // memory; no live allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One segment of a run; see [`segments`].
#[derive(Debug)]
pub struct Segment {
    start: Instant,
    trace: bool,
    /// Index of the run's next operation.
    next: usize,
    /// Seconds after the run's start at which the segment ends.
    end_s: f64,
    last: bool,
    setups: Vec<(f64, usize)>,
    /// One calibration sample per operation, in operation order.
    calibration: Calibration,
}

impl Segment {
    /// Runs and times the segment's set-up.
    pub fn set_up<T>(&mut self, set_up: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let r = set_up()?;
        self.setups
            .push((t.elapsed().as_secs_f64(), self.next / ROUND));
        Ok(r)
    }

    /// Runs `op(i, traced)` for the run's next operation indices in whole
    /// rounds of ten, at least one, until the segment's share of the run
    /// has passed; the last segment also until the run has done
    /// [`MIN_ROUNDS`] rounds. Whole rounds make every run attempt the same
    /// operation mix. In a traced run every second round is traced, so
    /// untraced and traced operations meet the same host conditions and
    /// their difference is the tracing overhead. The calibration kernel
    /// runs after every operation, outside its timing.
    pub fn rounds(&mut self, mut op: impl FnMut(usize, bool)) {
        loop {
            for _ in 0..ROUND {
                op(self.next, self.trace && (self.next / ROUND) % 2 == 1);
                self.calibration.sample();
                self.next += 1;
            }
            if self.start.elapsed().as_secs_f64() >= self.end_s
                && (!self.last || self.next >= MIN_ROUNDS * ROUND)
            {
                return;
            }
        }
    }
}

/// Whether operation `i` is in the first traced round of a traced run.
pub fn first_traced_round(i: usize) -> bool {
    i / ROUND == 1
}

/// End-to-end samples of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Collector {
    /// Index of each sampled operation in the run.
    pub ops: Vec<usize>,
    /// Per-operation latency, send to last result, seconds.
    pub latency: Vec<f64>,
    /// Per-operation time to the first usable result, seconds.
    pub first: Vec<f64>,
    /// Scenarios completed by successful operations.
    pub scenarios: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations the program reported as failed.
    pub failed: u64,
    /// Outputs that broke a property check (the program claimed success).
    pub violations: Vec<String>,
}

impl Collector {
    /// Records successful operation `op`.
    pub fn ok(&mut self, op: usize, latency_s: f64, first_s: f64, scenarios: u64) {
        self.attempted += 1;
        self.ops.push(op);
        self.latency.push(latency_s);
        self.first.push(first_s);
        self.scenarios += scenarios;
    }

    /// Records one operation the program failed.
    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("perfbench: operation failed: {why}");
        }
    }

    /// Records an output that broke a check.
    pub fn violation(&mut self, why: String) {
        if self.violations.len() < 3 {
            eprintln!("perfbench: check failed: {why}");
        }
        self.violations.push(why);
    }

    /// The end-to-end metrics other than `setup_s` and `peak_rss_mb`,
    /// each operation's times multiplied by its round's speed on `clock`
    /// (an empty clock gives wall time). `scenarios_per_s` is scenarios
    /// per second of timed (send-to-last-result) time.
    pub fn timing_metrics(&self, clock: &Clock) -> Timings {
        let scaled = |xs: &[f64]| -> Vec<f64> {
            xs.iter()
                .zip(&self.ops)
                .map(|(x, &op)| x * clock.factor(op))
                .collect()
        };
        let (latency, first) = (scaled(&self.latency), scaled(&self.first));
        let busy: f64 = latency.iter().sum();
        let per_s = if busy > 0.0 {
            self.scenarios as f64 / busy
        } else {
            0.0
        };
        vec![
            ("scenarios_per_s", per_s),
            ("latency_p50_ms", median(&latency) * 1e3),
            ("latency_p90_ms", percentile(&latency, 0.9) * 1e3),
            ("first_result_ms", median(&first) * 1e3),
        ]
    }
}

/// Named end-to-end timings of one side of a run.
pub type Timings = Vec<(&'static str, f64)>;

/// A run's end-to-end samples, split by untraced and traced rounds.
#[derive(Debug, Default)]
pub struct Phases {
    plain: Collector,
    traced: Collector,
}

impl Phases {
    /// The collector for an operation of the given kind.
    pub fn side(&mut self, traced: bool) -> &mut Collector {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    /// Both sides merged; for a traced run also each side's timings.
    pub fn finish(self, trace: bool) -> (Collector, Option<(Timings, Timings)>) {
        let wall = Clock::default();
        let overhead = trace.then(|| {
            (
                self.plain.timing_metrics(&wall),
                self.traced.timing_metrics(&wall),
            )
        });
        let (mut all, t) = (self.plain, self.traced);
        all.ops.extend(t.ops);
        all.latency.extend(t.latency);
        all.first.extend(t.first);
        all.scenarios += t.scenarios;
        all.attempted += t.attempted;
        all.failed += t.failed;
        all.violations.extend(t.violations);
        (all, overhead)
    }
}

/// Per-layer samples keyed by metric name; each metric reports the
/// median of its samples unless a workload sets it directly.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds the seconds elapsed since `t0`, scaled to `unit_per_s`
    /// (1e3 for ms, 1e6 for us) and divided by `per`.
    pub fn time(&mut self, name: &'static str, t0: Instant, unit_per_s: f64, per: f64) {
        self.push(name, t0.elapsed().as_secs_f64() * unit_per_s / per);
    }

    /// Median of each metric's samples.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.samples.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seeded generator for stream `stream` of run seed `seed`: the same
/// pair always replays the same values, and the program under test only
/// ever sees the inputs drawn from it.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// A multiple of `step` in `[lo, hi)`, so that it prints and parses back
/// exactly.
pub fn grid(rng: &mut StdRng, lo: f64, hi: f64, step: f64) -> f64 {
    let n = ((hi - lo) / step) as u64;
    lo + step * rng.gen_range(0..n.max(1)) as f64
}

/// Worker threads for the simulation pool: one core stays free for the
/// closed-loop client and the connection handler, so busy threads never
/// exceed the host's CPUs.
pub fn sim_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .saturating_sub(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_kernel_repeats_the_same_work() {
        let mut c = Calibration::new();
        let first = c.kernel();
        assert_eq!(c.kernel(), first);
        c.sample();
        c.sample();
        assert_eq!(c.samples_s.len(), 2);
    }

    /// Each operation's times scale by its own round's speed, and
    /// `scenarios_per_s` by the scaled busy time.
    #[test]
    fn timings_scale_by_round_speed() {
        let clock = Clock {
            setups: vec![(0.2, 0), (0.1, 1)],
            round_speed: vec![2.0, 0.5],
            speed: 1.0,
            calibration_s: CALIBRATION_REF_S,
        };
        let mut c = Collector::default();
        c.ok(3, 0.010, 0.001, 4);
        c.ok(ROUND + 1, 0.040, 0.004, 4);
        let m: BTreeMap<_, _> = c.timing_metrics(&clock).into_iter().collect();
        // Scaled latencies: 0.020 s and 0.020 s.
        assert!((m["latency_p50_ms"] - 20.0).abs() < 1e-9);
        assert!((m["first_result_ms"] - 2.0).abs() < 1e-9);
        assert!((m["scenarios_per_s"] - 8.0 / 0.040).abs() < 1e-9);
        let wall: BTreeMap<_, _> = c.timing_metrics(&Clock::default()).into_iter().collect();
        assert!((wall["latency_p50_ms"] - 25.0).abs() < 1e-9);
        // Set-ups: 0.2 * 2 and 0.1 * 0.5.
        assert!((clock.setup_s(true) - 0.225).abs() < 1e-9);
        assert!((clock.setup_s(false) - 0.15).abs() < 1e-9);
    }
}

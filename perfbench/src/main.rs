//! Pinned end-to-end and per-layer benchmark of the m3 workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! perfbench record-digests [workload]
//! perfbench baselines <workload>
//! ```
//!
//! Each invocation runs one workload in its own process, so `peak_rss_mb`
//! is that workload's peak. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a separate traced run. End-to-end times are scaled to a
//! reference host speed by an interleaved probe (see `host`). Workload
//! definitions and the reasons for them live in `BENCHMARK.json` at the
//! repository root and in `README.md`.
//!
//! `record-digests` recomputes the per-seed estimate digests the runs
//! check against and prints them in the format of `digests.txt`;
//! `baselines` is the child process the runs time the baselines in.

mod baseline;
mod estimate;
mod host;
mod replay;
mod serve;

use m3_core::prelude::NetworkEstimate;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Run seeds are folded into this many input seeds, so that every seed a
/// caller passes has a recorded digest in `digests.txt`.
pub const INPUT_SEEDS: u64 = 64;

/// Sampled paths per estimate (k in the paper's Fig. 4).
pub const K_PATHS: usize = 100;

/// Seed of the fixed, untrained estimator every workload uses.
pub const MODEL_SEED: u64 = 7;

/// Set-up is repeated at least `SETUP_MIN_REPEATS` times and until
/// `SETUP_MIN_S` seconds have gone into it (at most `SETUP_MAX_REPEATS`
/// times), each after a host probe; `setup_s` is the median, scaled by the
/// median of those probes.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 30;
const SETUP_MIN_S: f64 = 1.5;

/// The flow set the baselines run on and the first pool entry of every
/// `estimate-*` run: the ROADMAP's pinned scenario seeds, whatever the run
/// seed, so that baseline runtimes do not move with the inputs.
pub const PINNED_WORKLOAD_SEED: u64 = 23;
pub const PINNED_SAMPLE_SEED: u64 = 13;

const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

pub const WORKLOADS: [&str; 3] = ["estimate-small", "estimate-large", "serve-mixed"];

/// Attempt accounting for one operation kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounts {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub shed: u64,
    pub refused: u64,
}

/// Everything one run measured, in output order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub ops: BTreeMap<&'static str, OpCounts>,
    /// Correctness mismatches, each described in one line.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn op(&mut self, kind: &'static str) -> &mut OpCounts {
        self.ops.entry(kind).or_default()
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`
/// (`succeeded_frac` and `peak_rss_mb` are added from the run's counts
/// and the process). Times are raw wall times here; `emit` scales each by
/// the host factor of the phase it was measured in. `estimates_per_s` is
/// stored as reported.
#[derive(Default)]
pub struct EndToEnd {
    pub estimate_ms: Vec<f64>,
    pub estimates_per_s: f64,
    pub request_ms: Vec<f64>,
    pub delta_ms: Vec<f64>,
    /// Already scaled (set-up has probes of its own).
    pub setup_s: f64,
    /// Host probes of the run's loop, which scale `request_ms` and
    /// `delta_ms` (see `host::scale`).
    pub probes: Vec<host::Sample>,
    /// Host probes of the phase `estimate_ms` was measured in.
    pub estimate_probes: Vec<host::Sample>,
    pub sensitivity: host::Sensitivity,
}

impl EndToEnd {
    pub fn emit(&self, report: &mut Report) {
        let k = host::scale(&self.probes, self.sensitivity);
        let ke = host::scale(&self.estimate_probes, self.sensitivity);
        let (m, c) = host::medians(&self.probes);
        let (me, ce) = host::medians(&self.estimate_probes);
        eprintln!(
            "perfbench: host probe p50 (memory, compute) ms: loop {m:.4} {c:.4}, \
             estimates {me:.4} {ce:.4}; times scaled by {k:.5} and {ke:.5}"
        );
        let t = |v: &[f64], p: f64| k * pct(v, p);
        report.metric("estimate_p50_ms", ke * pct(&self.estimate_ms, 50.0), "ms");
        report.metric("estimate_p90_ms", ke * pct(&self.estimate_ms, 90.0), "ms");
        report.metric("estimates_per_s", self.estimates_per_s, "1/s");
        report.metric("request_p50_ms", t(&self.request_ms, 50.0), "ms");
        report.metric("request_p90_ms", t(&self.request_ms, 90.0), "ms");
        report.metric("delta_p50_ms", t(&self.delta_ms, 50.0), "ms");
        report.metric("delta_p90_ms", t(&self.delta_ms, 90.0), "ms");
        let ok = succeeded_frac(report);
        report.metric("succeeded_frac", ok, "frac");
        report.metric("setup_s", self.setup_s, "s");
    }
}

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// a workload does not exercise reads 0. Times are raw wall times;
/// `host.*_probe_ms` give the factor to scale them by.
#[derive(Default)]
pub struct PerLayer {
    pub stages: Vec<replay::Stages>,
    /// Leading replays whose counts are summed (a fixed prefix, so the
    /// counts repeat exactly for a seed).
    pub counted: usize,
    /// Untraced `try_estimate` times of the same inputs, for the overhead.
    pub untraced_ms: Vec<f64>,
    pub cache: m3_core::prelude::CacheStats,
    pub hit_request_ms: Vec<f64>,
    pub miss_request_ms: Vec<f64>,
    pub submit_ms: Vec<f64>,
    pub queue_depth: Vec<f64>,
    pub retries: u64,
    pub degraded: u64,
    pub workload_materialize_ms: Vec<f64>,
    pub session_apply_ms: Vec<f64>,
    pub session_dirty: Vec<f64>,
    pub session_reused: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub baselines: Option<baseline::Baselines>,
    pub probes: Vec<host::Sample>,
}

impl PerLayer {
    pub fn emit(&self, report: &mut Report) {
        let st = &self.stages;
        let med = |f: fn(&replay::Stages) -> f64| pct(&st.iter().map(f).collect::<Vec<_>>(), 50.0);
        let counted = &st[..self.counted.min(st.len())];
        let sum = |f: fn(&replay::Stages) -> u64| counted.iter().map(f).sum::<u64>() as f64;
        report.metric("decompose.index_ms", med(|s| s.index_ms), "ms");
        report.metric("decompose.sample_ms", med(|s| s.sample_ms), "ms");
        report.metric("pathsim.materialize_ms", med(|s| s.materialize_ms), "ms");
        report.metric(
            "pathsim.unique_scenarios",
            sum(|s| s.unique_scenarios),
            "count",
        );
        report.metric("flowsim.busy_ms", med(|s| s.flowsim_ms), "ms");
        report.metric("flowsim.runs", sum(|s| s.flowsim_runs), "count");
        report.metric("flowsim.events", sum(|s| s.flowsim_events), "count");
        report.metric("features.busy_ms", med(|s| s.features_ms), "ms");
        report.metric("nn.forward_ms", med(|s| s.forward_ms), "ms");
        report.metric("nn.rows", sum(|s| s.nn_rows), "count");
        report.metric(
            "nn.forward_us_per_row",
            med(|s| 1e3 * s.forward_ms / s.nn_rows.max(1) as f64),
            "us",
        );
        report.metric("aggregate.busy_ms", med(|s| s.aggregate_ms), "ms");
        let c = &self.cache;
        report.metric("cache.hits", c.hits as f64, "count");
        report.metric("cache.misses", c.misses as f64, "count");
        report.metric("cache.evictions", c.evictions as f64, "count");
        report.metric("cache.pinned", c.pinned as f64, "count");
        report.metric("cache.hit_ratio", c.hit_rate(), "frac");
        report.metric(
            "cache.hit_request_p50_ms",
            pct(&self.hit_request_ms, 50.0),
            "ms",
        );
        report.metric(
            "cache.miss_request_p50_ms",
            pct(&self.miss_request_ms, 50.0),
            "ms",
        );
        report.metric("journal.submit_ms_p50", pct(&self.submit_ms, 50.0), "ms");
        report.metric("journal.submit_ms_p90", pct(&self.submit_ms, 90.0), "ms");
        report.metric("service.queue_depth_mean", mean(&self.queue_depth), "count");
        report.metric(
            "service.queue_depth_max",
            pct(&self.queue_depth, 100.0),
            "count",
        );
        report.metric("service.retries", self.retries as f64, "count");
        report.metric("service.degraded", self.degraded as f64, "count");
        report.metric(
            "workload.materialize_ms",
            pct(&self.workload_materialize_ms, 50.0),
            "ms",
        );
        report.metric("session.apply_ms", pct(&self.session_apply_ms, 50.0), "ms");
        report.metric(
            "session.dirty_paths_mean",
            mean(&self.session_dirty),
            "count",
        );
        report.metric(
            "session.reused_paths_mean",
            mean(&self.session_reused),
            "count",
        );
        report.metric("loadgen.late_max_ms", pct(&self.late_ms, 100.0), "ms");
        let unattributed: Vec<f64> = st
            .iter()
            .map(|s| 1.0 - s.attributed_ms() / s.total_ms)
            .collect();
        report.metric("trace.unattributed_frac", pct(&unattributed, 50.0), "frac");
        let untraced = pct(&self.untraced_ms, 50.0);
        let overhead = if untraced > 0.0 {
            med(|s| s.total_ms) / untraced - 1.0
        } else {
            0.0
        };
        report.metric("trace.overhead_frac", overhead, "frac");
        let (m, c) = host::medians(&self.probes);
        report.metric("host.memory_probe_ms", m, "ms");
        report.metric("host.compute_probe_ms", c, "ms");
        let speedup = |base_s: f64| {
            if untraced > 0.0 {
                base_s * 1e3 / untraced
            } else {
                0.0
            }
        };
        let b = self.baselines.as_ref();
        report.metric("baseline.netsim_s", b.map_or(0.0, |b| b.netsim_s), "s");
        report.metric("baseline.parsimon_s", b.map_or(0.0, |b| b.parsimon_s), "s");
        report.metric("baseline.ns3path_s", b.map_or(0.0, |b| b.ns3path_s), "s");
        report.metric(
            "baseline.speedup_vs_netsim",
            b.map_or(0.0, |b| speedup(b.netsim_s)),
            "ratio",
        );
        report.metric(
            "baseline.speedup_vs_parsimon",
            b.map_or(0.0, |b| speedup(b.parsimon_s)),
            "ratio",
        );
    }
}

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
}

impl Args {
    /// The seed the workload's inputs are made from.
    pub fn input_seed(&self) -> u64 {
        self.seed % INPUT_SEEDS
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from("perfbench/target");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch,
    })
}

/// FNV-1a over 64-bit words: the estimate digest the runs compare.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold one estimate's value (samples and counts, not its timings).
    pub fn estimate(&mut self, e: &NetworkEstimate) {
        for &c in &e.bucket_counts {
            self.word(c as u64);
        }
        for bucket in &e.bucket_samples {
            self.word(bucket.len() as u64);
            for x in bucket {
                self.word(x.to_bits());
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Whether two estimates carry bit-identical values.
pub fn same_estimate(a: &NetworkEstimate, b: &NetworkEstimate) -> bool {
    a.bucket_counts == b.bucket_counts
        && a.bucket_samples.len() == b.bucket_samples.len()
        && a.bucket_samples
            .iter()
            .zip(&b.bucket_samples)
            .all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            })
}

/// The digest recorded for `(workload, input seed)`, if any.
pub fn recorded_digest(workload: &str, input_seed: u64) -> Option<&'static str> {
    RECORDED_DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == input_seed).then_some(d)
    })
}

/// Check a run's digest against the recorded one.
pub fn check_digest(report: &mut Report, workload: &str, input_seed: u64, digest: Digest) {
    match recorded_digest(workload, input_seed) {
        Some(d) if d == digest.hex() => {}
        Some(d) => report.mismatch(format!(
            "{workload} input seed {input_seed}: digest {} != recorded {d}",
            digest.hex()
        )),
        None => report.mismatch(format!(
            "{workload} input seed {input_seed}: no recorded digest"
        )),
    }
}

/// Set up repeatedly (see `SETUP_MIN_REPEATS`), disposing of all but the
/// last set-up; returns it with the median set-up time in seconds, scaled
/// to the reference host speed.
pub fn repeated_setup<T>(
    probe: &mut host::Probe,
    sensitivity: host::Sensitivity,
    mut make: impl FnMut() -> T,
    mut dispose: impl FnMut(T),
) -> (T, f64) {
    let mut secs: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPEATS);
    let mut probes = Vec::with_capacity(SETUP_MAX_REPEATS);
    let mut last = None;
    while secs.len() < SETUP_MIN_REPEATS
        || (secs.iter().sum::<f64>() < SETUP_MIN_S && secs.len() < SETUP_MAX_REPEATS)
    {
        if let Some(old) = last.take() {
            dispose(old);
        }
        probes.push(probe.sample());
        let t = Instant::now();
        last = Some(make());
        secs.push(t.elapsed().as_secs_f64());
    }
    let setup_s = host::scale(&probes, sensitivity) * pct(&secs, 50.0);
    (last.expect("at least one set-up"), setup_s)
}

/// Nearest-rank percentile (`p` in [0, 100]) of unsorted samples; 0 when
/// there are none.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// 64-bit mix (splitmix64): derives every input seed from the run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_result(args: &Args, report: &Report) {
    let mut ops = String::new();
    for (kind, c) in &report.ops {
        if !ops.is_empty() {
            ops.push_str(", ");
        }
        ops.push_str(&format!(
            "\"{kind}\": {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"shed\": {}, \"refused\": {}}}",
            c.attempted, c.succeeded, c.failed, c.shed, c.refused
        ));
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"input_seed\": {}, \"trace\": {}, \"threads\": {}, \"ops\": {{{ops}}}}}",
        args.workload,
        args.seed,
        args.input_seed(),
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for m in &report.mismatches {
        eprintln!("perfbench: mismatch: {m}");
    }
    let attempted: u64 = report.ops.values().map(|c| c.attempted).sum();
    let failed: u64 = report
        .ops
        .values()
        .map(|c| c.failed + c.shed + c.refused)
        .sum::<u64>()
        + report.mismatches.len() as u64;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.mismatches.is_empty(),
        attempted.max(1),
        metrics.join(", ")
    );
}

/// The fraction of operations that succeeded with a correct result.
pub fn succeeded_frac(report: &Report) -> f64 {
    let attempted: u64 = report.ops.values().map(|c| c.attempted).sum();
    let succeeded: u64 = report.ops.values().map(|c| c.succeeded).sum();
    let ok = succeeded.saturating_sub(report.mismatches.len() as u64);
    ok as f64 / attempted.max(1) as f64
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("record-digests") {
        let only = std::env::args().nth(2);
        for w in WORKLOADS
            .into_iter()
            .filter(|w| only.as_deref().is_none_or(|o| o == *w))
        {
            for s in 0..INPUT_SEEDS {
                let d = match w {
                    "serve-mixed" => serve::digest_only(s),
                    _ => estimate::digest_only(w, s),
                };
                println!("{w} {s} {}", d.hex());
            }
        }
        return ExitCode::SUCCESS;
    }
    if std::env::args().nth(1).as_deref() == Some("baselines") {
        return baseline::child_main(&std::env::args().nth(2).unwrap_or_default());
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut probe = host::Probe::new();
    let mut report = match args.workload {
        "serve-mixed" => serve::run(&args, &mut probe),
        w => estimate::run(w, &args, &mut probe),
    };
    let rss = peak_rss_mb();
    if !args.trace {
        report.metric("peak_rss_mb", rss, "MiB");
    }
    print_result(&args, &report);
    if report.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

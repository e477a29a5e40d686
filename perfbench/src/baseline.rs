//! The paper's baselines on the pinned flow set of a workload's fabric:
//! full packet-level simulation (`m3-netsim`), Parsimon (`m3-parsimon`)
//! and per-path packet simulation ("ns-3-path", `ns3_path_estimate`).
//!
//! The traced run times them in a child process of its own, started after
//! the workload's loop: its heap history is the same in every run,
//! whatever the seed, and the workload's memory does not include them.

use crate::estimate::scenario;
use crate::{Report, K_PATHS, PINNED_SAMPLE_SEED, PINNED_WORKLOAD_SEED};
use m3_core::prelude::ns3_path_estimate;
use m3_netsim::prelude::run_simulation;
use m3_parsimon::parsimon_estimate;
use m3_serve::prelude::TopoSpec;
use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const KINDS: [&str; 3] = ["baseline.netsim", "baseline.parsimon", "baseline.ns3path"];

/// Each baseline runs at least `MIN_REPS` times and for `MIN_TOTAL_S`
/// seconds, then until one more run no longer lowers its fastest time by
/// `MIN_HOLDS`, and at most `MAX_REPS` times. The fastest run is reported:
/// host contention only ever adds time, and on a shared machine the
/// fastest of a few seconds of runs moves far less between runs than their
/// median does.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 25;
const MIN_TOTAL_S: f64 = 2.5;
const MIN_HOLDS: f64 = 0.02;

/// Fastest runtimes in seconds.
pub struct Baselines {
    pub netsim_s: f64,
    pub parsimon_s: f64,
    pub ns3path_s: f64,
}

/// Time `f` until its fastest run holds; `f` reports whether its output
/// is usable, and each run counts as one `kind` operation.
fn fastest_runtime(report: &mut Report, kind: &'static str, mut f: impl FnMut() -> bool) -> f64 {
    let mut best = f64::INFINITY;
    let (mut reps, mut total) = (0, 0.0);
    loop {
        let t = Instant::now();
        let ok = f();
        let secs = t.elapsed().as_secs_f64();
        let op = report.op(kind);
        op.attempted += 1;
        if ok {
            op.succeeded += 1;
        } else {
            op.failed += 1;
        }
        let improved = secs < best * (1.0 - MIN_HOLDS);
        best = best.min(secs);
        reps += 1;
        total += secs;
        if reps >= MAX_REPS || (reps >= MIN_REPS && total >= MIN_TOTAL_S && !improved) {
            return best;
        }
    }
}

/// The child process: time every baseline on `workload`'s pinned flow set
/// and print one `<kind> <fastest_s> <attempted> <succeeded>` line each.
pub fn child_main(workload: &str) -> ExitCode {
    let spec = match workload {
        "estimate-large" => scenario(TopoSpec::FatTreeLarge, 40_000),
        _ => scenario(TopoSpec::FatTreeSmall { oversub: 2 }, 4_000),
    };
    let (topo, flows, config) = spec
        .materialize(PINNED_WORKLOAD_SEED)
        .expect("pinned scenario materializes");
    let mut report = Report::default();
    let secs = [
        fastest_runtime(&mut report, KINDS[0], || {
            let out = black_box(run_simulation(&topo, config, flows.clone()));
            out.records.len() == flows.len()
        }),
        fastest_runtime(&mut report, KINDS[1], || {
            black_box(parsimon_estimate(&topo, &flows, &config)).len() == flows.len()
        }),
        fastest_runtime(&mut report, KINDS[2], || {
            let e = black_box(ns3_path_estimate(
                &topo,
                &flows,
                &config,
                K_PATHS,
                PINNED_SAMPLE_SEED,
            ));
            e.bucket_counts.iter().sum::<usize>() > 0
        }),
    ];
    for (kind, s) in KINDS.iter().zip(secs) {
        let c = report.op(kind);
        println!("{kind} {s} {} {}", c.attempted, c.succeeded);
    }
    ExitCode::SUCCESS
}

/// Run the baselines of `workload` in a child process and wait for it.
/// A child that fails counts as one failed operation per baseline.
pub fn run(report: &mut Report, workload: &str) -> Option<Baselines> {
    let out = std::env::current_exe()
        .and_then(|exe| {
            Command::new(exe)
                .args(["baselines", workload])
                .stderr(Stdio::inherit())
                .output()
        })
        .ok()
        .filter(|o| o.status.success());
    let stdout = out.map_or_else(String::new, |o| {
        String::from_utf8_lossy(&o.stdout).into_owned()
    });
    let mut secs = [None; 3];
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let Some(i) = KINDS.iter().position(|k| f.first() == Some(k)) else {
            continue;
        };
        let (Some(s), Some(a), Some(ok)) = (
            f.get(1).and_then(|v| v.parse::<f64>().ok()),
            f.get(2).and_then(|v| v.parse::<u64>().ok()),
            f.get(3).and_then(|v| v.parse::<u64>().ok()),
        ) else {
            continue;
        };
        let c = report.op(KINDS[i]);
        c.attempted += a;
        c.succeeded += ok;
        c.failed += a - ok.min(a);
        secs[i] = Some(s);
    }
    for (i, s) in secs.iter().enumerate() {
        if s.is_none() {
            let c = report.op(KINDS[i]);
            c.attempted += 1;
            c.failed += 1;
        }
    }
    Some(Baselines {
        netsim_s: secs[0]?,
        parsimon_s: secs[1]?,
        ns3path_s: secs[2]?,
    })
}

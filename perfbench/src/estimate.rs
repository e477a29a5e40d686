//! `estimate-small` and `estimate-large`: one caller in a closed loop of
//! back-to-back uncached `M3Estimator::try_estimate` calls.
//!
//! Operations alternate between a request (the base scenario of one pool
//! entry) and a what-if delta on it (the same scenario and sample seed
//! with one crossed link's capacity changed), answered the sessionless
//! way: a from-scratch estimate of the changed scenario. Sample seeds
//! rotate with every pair, so no two estimates share inputs. A host probe
//! runs before every operation (see `host`), in the timed and the traced
//! run alike.

use crate::host::{self, Probe};
use crate::replay::{Replayer, Stages};
use crate::{
    baseline, check_digest, mix, ms, repeated_setup, same_estimate, Args, Digest, EndToEnd,
    PerLayer, Report, K_PATHS, MODEL_SEED, PINNED_WORKLOAD_SEED,
};
use m3_core::prelude::*;
use m3_netsim::prelude::{Bps, FlowSpec, LinkId, SimConfig, Topology};
use m3_nn::prelude::{M3Net, ModelConfig};
use m3_serve::prelude::{ConfigSpec, ScenarioSpec, TopoSpec, WorkloadSpec};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

struct Params {
    topology: TopoSpec,
    n_flows: usize,
    /// Distinct generated workloads per run; the first is the pinned one.
    pool: usize,
    /// Leading operations covered by the recorded digest.
    digest_ops: usize,
}

fn params(workload: &str) -> Params {
    match workload {
        "estimate-small" => Params {
            topology: TopoSpec::FatTreeSmall { oversub: 2 },
            n_flows: 4_000,
            pool: 8,
            digest_ops: 16,
        },
        "estimate-large" => Params {
            topology: TopoSpec::FatTreeLarge,
            n_flows: 40_000,
            pool: 2,
            digest_ops: 8,
        },
        other => unreachable!("not an estimate workload: {other}"),
    }
}

/// Matrix B, WebServer sizes, sigma 1, load 0.5: the pinned scenario.
pub fn scenario(topology: TopoSpec, n_flows: usize) -> ScenarioSpec {
    ScenarioSpec {
        topology,
        workload: WorkloadSpec {
            n_flows,
            matrix: "B".into(),
            sizes: "WebServer".into(),
            sigma: 1.0,
            max_load: 0.5,
        },
        config: ConfigSpec::default(),
    }
}

struct Entry {
    topo: Topology,
    flows: Vec<FlowSpec>,
    config: SimConfig,
    /// Links some flow crosses: the candidates for what-if deltas.
    crossed: Vec<LinkId>,
}

struct Setup {
    est: M3Estimator,
    pool: Vec<Entry>,
    materialize_ms: Vec<f64>,
}

fn setup(p: &Params, input_seed: u64, warm: bool) -> Setup {
    let est = M3Estimator::new(M3Net::new(ModelConfig::repro_default(SPEC_DIM), MODEL_SEED));
    let spec = scenario(p.topology.clone(), p.n_flows);
    let mut materialize_ms = Vec::with_capacity(p.pool);
    let pool: Vec<Entry> = (0..p.pool as u64)
        .map(|e| {
            let t = Instant::now();
            let workload_seed = match e {
                0 => PINNED_WORKLOAD_SEED,
                _ => mix(input_seed, e),
            };
            let (topo, flows, config) = spec
                .materialize(workload_seed)
                .expect("scenario materializes");
            materialize_ms.push(ms(t));
            let crossed: BTreeSet<LinkId> = flows.iter().flat_map(|f| f.path.clone()).collect();
            Entry {
                topo,
                flows,
                config,
                crossed: crossed.into_iter().collect(),
            }
        })
        .collect();
    if warm {
        let e = &pool[0];
        black_box(
            est.try_estimate(
                &e.topo,
                &e.flows,
                &e.config,
                K_PATHS,
                0,
                &EstimateOptions::default(),
            )
            .expect("warm-up estimate"),
        );
    }
    Setup {
        est,
        pool,
        materialize_ms,
    }
}

/// Operation `i`: its pool entry, sample seed, and (for a delta) the link
/// whose capacity changes and its new bandwidth.
struct Op {
    entry: usize,
    sample_seed: u64,
    delta: Option<(LinkId, Bps)>,
}

fn op(s: &Setup, input_seed: u64, i: usize) -> Op {
    let pair = (i / 2) as u64;
    let entry = (pair % s.pool.len() as u64) as usize;
    let sample_seed = mix(input_seed ^ 0x5eed, pair);
    let delta = (i % 2 == 1).then(|| {
        let e = &s.pool[entry];
        let r = mix(sample_seed, 1);
        let link = e.crossed[(r % e.crossed.len() as u64) as usize];
        let factor = 40 + (r >> 32) % 50;
        (link, e.topo.link(link).bandwidth / 100 * factor)
    });
    Op {
        entry,
        sample_seed,
        delta,
    }
}

/// The topology operation `o` estimates on (a copy only for deltas).
fn topology<'a>(s: &'a Setup, o: &Op, scratch: &'a mut Option<Topology>) -> &'a Topology {
    let base = &s.pool[o.entry].topo;
    match o.delta {
        None => base,
        Some((link, bw)) => {
            let mut t = base.clone();
            t.set_link_bandwidth(link, bw);
            scratch.insert(t)
        }
    }
}

fn estimate_op(s: &Setup, o: &Op, topo: &Topology) -> Result<NetworkEstimate, M3Error> {
    let e = &s.pool[o.entry];
    s.est.try_estimate(
        topo,
        &e.flows,
        &e.config,
        K_PATHS,
        o.sample_seed,
        &EstimateOptions::default(),
    )
}

pub fn op_digest(e: &NetworkEstimate) -> u64 {
    let mut d = Digest::default();
    d.estimate(e);
    d.value()
}

/// The recorded-digest value for `(workload, input_seed)`: the estimates
/// of the first `digest_ops` operations, folded in order.
pub fn digest_only(workload: &str, input_seed: u64) -> Digest {
    let p = params(workload);
    let s = setup(&p, input_seed, false);
    let mut d = Digest::default();
    for i in 0..p.digest_ops {
        let o = op(&s, input_seed, i);
        let mut scratch = None;
        let topo = topology(&s, &o, &mut scratch);
        let e = estimate_op(&s, &o, topo).expect("digest estimate");
        d.word(op_digest(&e));
    }
    d
}

pub fn run(workload: &'static str, args: &Args, probe: &mut Probe) -> Report {
    let p = params(workload);
    let seed = args.input_seed();
    let mut report = Report::default();

    let sensitivity = host::sensitivity(workload);
    let (s, setup_s) = repeated_setup(probe, sensitivity, || setup(&p, seed, true), drop);
    let replayer = Replayer::default();
    if args.trace {
        // Warm the replay's own workspaces and arenas as set-up warmed the
        // estimator's.
        let o = op(&s, seed, 0);
        let e = &s.pool[o.entry];
        let _ = replayer.estimate(&s.est, &e.topo, &e.flows, &e.config, K_PATHS, 0);
    }

    let mut e2e = EndToEnd {
        setup_s,
        sensitivity,
        ..EndToEnd::default()
    };
    let mut layers = PerLayer {
        counted: p.digest_ops,
        workload_materialize_ms: s.materialize_ms.clone(),
        ..PerLayer::default()
    };
    let mut digests: Vec<Option<u64>> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds || i < p.digest_ops {
        e2e.probes.push(probe.sample());
        let due = Instant::now();
        let o = op(&s, seed, i);
        let kind = if o.delta.is_some() {
            "delta"
        } else {
            "request"
        };
        let mut scratch = None;
        let topo = topology(&s, &o, &mut scratch);
        let e = &s.pool[o.entry];
        let replay =
            || replayer.estimate(&s.est, topo, &e.flows, &e.config, K_PATHS, o.sample_seed);
        // The traced run alternates which of the pair goes first.
        let replayed_first = (args.trace && (i / 2) % 2 == 1).then(replay);
        let t = Instant::now();
        let r = estimate_op(&s, &o, topo);
        let est_ms = ms(t);
        let lat_ms = ms(due);
        let replayed = replayed_first.or_else(|| args.trace.then(replay));
        let c = report.op(kind);
        c.attempted += 1;
        match r {
            Ok(est) if est.degradation.is_clean() => {
                c.succeeded += 1;
                digests.push(Some(op_digest(&est)));
                e2e.estimate_ms.push(est_ms);
                if kind == "delta" {
                    e2e.delta_ms.push(lat_ms);
                } else {
                    e2e.request_ms.push(lat_ms);
                }
                layers.untraced_ms.push(est_ms);
                if let Some(rep) = replayed {
                    check_replay(&mut report, &mut layers, i, &est, rep);
                }
            }
            Ok(_) => {
                c.failed += 1;
                digests.push(None);
            }
            Err(err) => {
                c.failed += 1;
                digests.push(None);
                eprintln!("perfbench: {workload} op {i}: {err}");
            }
        }
        i += 1;
    }
    // Loop time without the probes, scaled like every other time.
    let probing_ms: f64 = e2e.probes.iter().map(|p| p.memory_ms + p.compute_ms).sum();
    let busy_s = start.elapsed().as_secs_f64() - probing_ms / 1e3;
    e2e.estimates_per_s = i as f64 / (busy_s * host::scale(&e2e.probes, sensitivity));
    e2e.estimate_probes = e2e.probes.clone();
    layers.probes = e2e.probes.clone();

    let mut d = Digest::default();
    for w in &digests[..p.digest_ops] {
        d.word(w.unwrap_or(0));
    }
    check_digest(&mut report, workload, seed, d);

    if !args.trace {
        // Every timed estimate must match the stage-by-stage replay; the
        // traced run compares them pair by pair instead.
        for (j, w) in digests.iter().enumerate() {
            let Some(w) = *w else { continue };
            let o = op(&s, seed, j);
            let mut scratch = None;
            let topo = topology(&s, &o, &mut scratch);
            let e = &s.pool[o.entry];
            match replayer.estimate(&s.est, topo, &e.flows, &e.config, K_PATHS, o.sample_seed) {
                Ok((rep, _)) if op_digest(&rep) == w => {}
                Ok(_) => report.mismatch(format!("op {j}: try_estimate != replay")),
                Err(err) => report.mismatch(format!("op {j}: replay failed: {err}")),
            }
        }
    }

    if args.trace {
        layers.baselines = baseline::run(&mut report, workload);
        layers.emit(&mut report);
    } else {
        e2e.emit(&mut report);
    }
    report
}

/// Compare one traced replay with the timed estimate of the same inputs.
pub fn check_replay(
    report: &mut Report,
    layers: &mut PerLayer,
    i: usize,
    est: &NetworkEstimate,
    replayed: Result<(NetworkEstimate, Stages), String>,
) {
    match replayed {
        Ok((rep, stages)) => {
            if !same_estimate(est, &rep) {
                report.mismatch(format!("op {i}: try_estimate != replay"));
            }
            layers.stages.push(stages);
        }
        Err(err) => report.mismatch(format!("op {i}: replay failed: {err}")),
    }
}

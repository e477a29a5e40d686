//! `serve-mixed`: an open loop from one generator thread into a journaled
//! `Service` with the default configuration.
//!
//! The read side is small-fabric `EstimateRequest`s at a fixed rate, a
//! stated share of them repeating a small hot set of scenarios (cache
//! hits skip flowSim, features and the forward pass; materialization and
//! decomposition are still paid). The write side is `LinkCapacity` deltas
//! applied through `Service::apply_delta` to a large-fabric session
//! opened at set-up (journaled, cache-pinned, surgically re-estimated).
//! Every latency is timed from the operation's due time, so a slow
//! synchronous delta or a stall counts against the sends behind it.
//! The generator runs a host probe (see `host`) in the idle gap
//! `PROBE_LEAD` before each due time, and one before each from-scratch
//! verification estimate after the loop.

use crate::estimate::{check_replay, op_digest, scenario};
use crate::host::{self, Probe};
use crate::replay::Replayer;
use crate::{
    baseline, check_digest, mix, ms, repeated_setup, same_estimate, Args, Digest, EndToEnd,
    PerLayer, Report, K_PATHS, MODEL_SEED,
};
use m3_core::prelude::*;
use m3_netsim::prelude::{Bps, LinkId};
use m3_nn::prelude::{M3Net, ModelConfig};
use m3_serve::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Requests sent per second: under half the cache-miss capacity of the
/// default two-worker service on two cores (≈26 requests/s saturated),
/// leaving headroom for a slow host before requests overlap.
pub const REQUEST_RATE: f64 = 8.0;
/// Distinct hot scenarios. Every other request is hot (a 50% hot share),
/// each hot scenario twice in a row: A, A, B, B, A, ... on even requests.
pub const HOT_SET: u64 = 2;
/// Flows of the request scenario (small fabric) and of the session
/// scenario (large fabric).
const REQUEST_FLOWS: usize = 4_000;
const SESSION_FLOWS: usize = 4_000;
/// Leading scheduled requests covered by the recorded digest.
const DIGEST_REQUESTS: usize = 16;
/// Links the deltas rotate over, each dirtying exactly one of the
/// session's sampled paths (a 1%-dirty what-if).
const DELTA_LINKS: usize = 8;
/// How long to wait for the last accepted requests to settle.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(120);
/// How often the observer samples the queue depth.
const DEPTH_TICK: Duration = Duration::from_millis(10);
/// How long before a due time the generator probes the host, when it is
/// idle that long: a probe takes ≈8 ms on a quiet host, ≈12 ms on a busy
/// one, and the request before it has long settled 95 ms after its send.
const PROBE_LEAD: Duration = Duration::from_millis(30);

fn request_spec() -> ScenarioSpec {
    scenario(TopoSpec::FatTreeSmall { oversub: 2 }, REQUEST_FLOWS)
}

fn session_spec() -> ScenarioSpec {
    scenario(TopoSpec::FatTreeLarge, SESSION_FLOWS)
}

fn session_seed(input_seed: u64) -> u64 {
    mix(input_seed ^ 0x5e55, 0)
}

/// The seed (materialization and sampling) of scheduled request `k`:
/// even requests are hot, odd ones fresh.
fn request_seed(input_seed: u64, k: u64) -> u64 {
    if k.is_multiple_of(2) {
        mix(input_seed ^ 0x407, (k / 4) % HOT_SET)
    } else {
        mix(input_seed ^ 0xf5e, k)
    }
}

enum Event {
    Request {
        k: u64,
        seed: u64,
    },
    Delta {
        j: u64,
        link: LinkId,
        bandwidth: Bps,
    },
}

/// The whole open-loop schedule, in due order, built from the seed: each
/// request is preceded, at the same due time, by one session delta. The
/// delta then runs while no request is in flight, its cache insert lands
/// before the request probes the cache (so the cache counts repeat for a
/// seed), and its time counts against the request's latency.
fn schedule(input_seed: u64, seconds: f64, links: &[(LinkId, Bps)]) -> Vec<(Duration, Event)> {
    let mut ev = Vec::new();
    for k in 0..(seconds * REQUEST_RATE) as u64 {
        let due = Duration::from_secs_f64(k as f64 / REQUEST_RATE);
        let (link, base) = links[(k as usize) % links.len()];
        // A fresh capacity every time, so a dirty path never cache-hits.
        let bandwidth = base / 2 + (k + 1) * 1_000_000;
        ev.push((
            due,
            Event::Delta {
                j: k,
                link,
                bandwidth,
            },
        ));
        let seed = request_seed(input_seed, k);
        ev.push((due, Event::Request { k, seed }));
    }
    ev
}

/// Links whose capacity change dirties exactly one of the session's
/// sampled paths, with their base bandwidth.
fn delta_links(input_seed: u64) -> Vec<(LinkId, Bps)> {
    let seed = session_seed(input_seed);
    let (topo, flows, _) = session_spec()
        .materialize(seed)
        .expect("session scenario materializes");
    let index = PathIndex::build(&topo, &flows);
    let sampled = index.sample_paths(K_PATHS, seed);
    let n = topo.link_count() as u64;
    let start = mix(seed, 1) % n;
    let mut links = Vec::with_capacity(DELTA_LINKS);
    for off in 0..n {
        let link = LinkId(((start + off) % n) as u32);
        let bandwidth = topo.link(link).bandwidth;
        let probe = ScenarioDelta::LinkCapacity {
            link: link.0,
            bandwidth,
        };
        let dirty = index.dirty_groups(&flows, &probe);
        let hit = sampled.iter().filter(|g| dirty.contains(g)).count();
        if hit == 1 {
            links.push((link, bandwidth));
            if links.len() == DELTA_LINKS {
                break;
            }
        }
    }
    assert!(
        !links.is_empty(),
        "no link dirties exactly one sampled path"
    );
    links
}

fn estimator() -> M3Estimator {
    M3Estimator::new(M3Net::new(ModelConfig::repro_default(SPEC_DIM), MODEL_SEED))
}

struct Setup {
    svc: Service,
    session: u64,
    links: Vec<(LinkId, Bps)>,
}

fn setup(input_seed: u64, journal: &Path) -> Setup {
    let links = delta_links(input_seed);
    let svc = Service::start_journaled(estimator(), ServiceConfig::default(), journal)
        .expect("journal opens");
    let seed = session_seed(input_seed);
    let (session, _) = svc
        .open_session(OpenSessionRequest::new(session_spec(), K_PATHS, seed))
        .expect("session opens");
    // Warm-up: one request, on a scenario the schedule never sends.
    let id = svc
        .submit(EstimateRequest::new(
            request_spec(),
            K_PATHS,
            mix(input_seed ^ 0xa4a, 0),
        ))
        .expect("warm-up request accepted");
    svc.wait_idle(SETTLE_TIMEOUT);
    assert!(
        matches!(svc.outcome(id), Some(JobOutcome::Completed { .. })),
        "warm-up request completes"
    );
    Setup {
        svc,
        session,
        links,
    }
}

/// The from-scratch estimate of a request seed, with its timings.
fn direct(est: &M3Estimator, seed: u64) -> (NetworkEstimate, f64, f64) {
    let t = Instant::now();
    let (topo, flows, config) = request_spec()
        .materialize(seed)
        .expect("request scenario materializes");
    let mat_ms = ms(t);
    let t = Instant::now();
    let e = est
        .try_estimate(
            &topo,
            &flows,
            &config,
            K_PATHS,
            seed,
            &EstimateOptions::default(),
        )
        .expect("direct estimate");
    (e, mat_ms, ms(t))
}

fn session_base_estimate(est: &M3Estimator, input_seed: u64) -> NetworkEstimate {
    let seed = session_seed(input_seed);
    let (topo, flows, config) = session_spec()
        .materialize(seed)
        .expect("session scenario materializes");
    est.try_estimate(
        &topo,
        &flows,
        &config,
        K_PATHS,
        seed,
        &EstimateOptions::default(),
    )
    .expect("session base estimate")
}

/// The recorded-digest value: the session's base scenario, then the first
/// `DIGEST_REQUESTS` scheduled requests, estimated from scratch.
pub fn digest_only(input_seed: u64) -> Digest {
    let est = estimator();
    let mut d = Digest::default();
    d.word(op_digest(&session_base_estimate(&est, input_seed)));
    for k in 0..DIGEST_REQUESTS as u64 {
        d.word(op_digest(&direct(&est, request_seed(input_seed, k)).0));
    }
    d
}

/// One request's observed end: its latency from due and its outcome.
struct Settled {
    k: u64,
    seed: u64,
    latency_ms: f64,
    outcome: Option<JobOutcome>,
}

pub fn run(args: &Args, probe: &mut Probe) -> Report {
    let seed = args.input_seed();
    let mut report = Report::default();
    std::fs::create_dir_all(&args.scratch).expect("scratch directory");
    let journal: PathBuf = args
        .scratch
        .join(format!("serve-mixed-{}.journal", std::process::id()));

    let sensitivity = host::sensitivity("serve-mixed");
    let (s, setup_s) = repeated_setup(
        probe,
        sensitivity,
        || setup(seed, &journal),
        |old| old.svc.shutdown(),
    );
    let mut e2e = EndToEnd {
        setup_s,
        sensitivity,
        ..EndToEnd::default()
    };
    let mut layers = PerLayer::default();

    let events = schedule(seed, args.seconds, &s.links);
    let pending: Mutex<Vec<(u64, u64, u64, Instant)>> = Mutex::new(Vec::new());
    let sent_all = AtomicBool::new(false);
    let mut applied: Vec<ScenarioDelta> = Vec::new();
    let start = Instant::now();
    let (settled, depths, end) = thread::scope(|scope| {
        let observer = scope.spawn(|| observe(&s.svc, &pending, &sent_all));
        for (due_off, ev) in &events {
            let due = start + *due_off;
            let now = Instant::now();
            if due > now + PROBE_LEAD {
                thread::sleep(due - PROBE_LEAD - now);
                e2e.probes.push(probe.sample());
            }
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            layers.late_ms.push(ms(due));
            match *ev {
                Event::Request { k, seed } => {
                    let c = report.op("request");
                    c.attempted += 1;
                    let t = Instant::now();
                    let r = s
                        .svc
                        .submit(EstimateRequest::new(request_spec(), K_PATHS, seed));
                    layers.submit_ms.push(ms(t));
                    match r {
                        Ok(id) => pending
                            .lock()
                            .expect("pending lock: no holder panics")
                            .push((id, k, seed, due)),
                        Err(SubmitError::QueueFull { .. }) => c.shed += 1,
                        Err(e) => {
                            c.refused += 1;
                            eprintln!("perfbench: request {k} refused: {e}");
                        }
                    }
                }
                Event::Delta { j, link, bandwidth } => {
                    let c = report.op("delta");
                    c.attempted += 1;
                    let delta = ScenarioDelta::LinkCapacity {
                        link: link.0,
                        bandwidth,
                    };
                    let t = Instant::now();
                    let r = s.svc.apply_delta(s.session, &delta);
                    layers.session_apply_ms.push(ms(t));
                    let lat = ms(due);
                    match r {
                        Ok(u) => {
                            c.succeeded += 1;
                            e2e.delta_ms.push(lat);
                            layers.session_dirty.push(u.dirty_paths as f64);
                            layers.session_reused.push(u.reused_paths as f64);
                            applied.push(delta);
                        }
                        Err(e) => {
                            c.failed += 1;
                            eprintln!("perfbench: delta {j} failed: {e}");
                        }
                    }
                }
            }
        }
        sent_all.store(true, Ordering::SeqCst);
        observer.join().expect("observer thread exits cleanly")
    });
    let wall_s = (end - start).as_secs_f64();

    let stats = s.svc.stats();
    layers.cache = stats.cache;
    layers.retries = stats.retries;
    layers.degraded = stats.degraded;
    layers.queue_depth = depths;

    // Served outcomes against from-scratch estimates of the same requests.
    let est = estimator();
    let replayer = Replayer::default();
    let mut order: Vec<u64> = (0..DIGEST_REQUESTS as u64)
        .map(|k| request_seed(seed, k))
        .collect();
    order.extend(settled.iter().map(|r| r.seed));
    let mut directs: BTreeMap<u64, NetworkEstimate> = BTreeMap::new();
    let mut digest_seeds = Vec::new();
    for (n, &rs) in order.iter().enumerate() {
        if n < DIGEST_REQUESTS {
            digest_seeds.push(rs);
        }
        if directs.contains_key(&rs) {
            continue;
        }
        e2e.estimate_probes.push(probe.sample());
        let (e, mat_ms, est_ms) = direct(&est, rs);
        e2e.estimate_ms.push(est_ms);
        layers.untraced_ms.push(est_ms);
        layers.workload_materialize_ms.push(mat_ms);
        // Each distinct request is estimated twice, which doubles the
        // timed samples (to ≥10 beyond the p90) and checks determinism.
        e2e.estimate_probes.push(probe.sample());
        let (again, _, again_ms) = direct(&est, rs);
        e2e.estimate_ms.push(again_ms);
        if !same_estimate(&e, &again) {
            report.mismatch(format!("request {n}: from-scratch estimate not repeatable"));
        }
        if args.trace {
            let (topo, flows, config) = request_spec()
                .materialize(rs)
                .expect("request scenario materializes");
            let rep = replayer.estimate(&est, &topo, &flows, &config, K_PATHS, rs);
            check_replay(&mut report, &mut layers, n, &e, rep);
        }
        directs.insert(rs, e);
    }
    layers.counted = directs.len().min(DIGEST_REQUESTS);

    let mut completed = 0usize;
    for r in &settled {
        let c = report.op("request");
        match &r.outcome {
            Some(JobOutcome::Completed { estimate, .. }) => {
                c.succeeded += 1;
                completed += 1;
                e2e.request_ms.push(r.latency_ms);
                let t = &estimate.timings;
                if t.cache_hits > t.cache_misses {
                    layers.hit_request_ms.push(r.latency_ms);
                } else {
                    layers.miss_request_ms.push(r.latency_ms);
                }
                if !same_estimate(estimate, &directs[&r.seed]) {
                    report.mismatch(format!("request {}: served != direct estimate", r.k));
                }
            }
            Some(JobOutcome::Shed { .. }) => c.shed += 1,
            Some(other) => {
                c.failed += 1;
                eprintln!("perfbench: request {} did not complete: {other:?}", r.k);
            }
            None => {
                c.failed += 1;
                eprintln!("perfbench: request {} never settled", r.k);
            }
        }
    }
    // Bound by the offered rate, not by host speed: reported unscaled.
    e2e.estimates_per_s = completed as f64 / wall_s;
    layers.probes = e2e.probes.clone();

    let mut d = Digest::default();
    d.word(op_digest(&session_base_estimate(&est, seed)));
    for rs in &digest_seeds {
        d.word(op_digest(&directs[rs]));
    }
    check_digest(&mut report, "serve-mixed", seed, d);

    // The session after every applied delta against a from-scratch
    // estimate of the same final scenario.
    let sseed = session_seed(seed);
    let (topo, flows, config) = session_spec()
        .materialize(sseed)
        .expect("session scenario materializes");
    let mut state = ScenarioState::new(topo, flows, config);
    for delta in &applied {
        state.apply(delta).expect("an applied delta applies again");
    }
    let scratch = est
        .try_estimate(
            &state.topo,
            &state.effective_flows(),
            &state.config,
            K_PATHS,
            sseed,
            &EstimateOptions::default(),
        )
        .expect("from-scratch session estimate");
    match s.svc.session_estimate(s.session) {
        Some(live) if same_estimate(&live, &scratch) => {}
        Some(_) => report.mismatch("session estimate != from-scratch estimate".into()),
        None => report.mismatch("session closed unexpectedly".into()),
    }
    s.svc.shutdown();
    let _ = std::fs::remove_file(&journal);

    if args.trace {
        layers.baselines = baseline::run(&mut report, "serve-mixed");
        layers.emit(&mut report);
    } else {
        e2e.emit(&mut report);
    }
    report
}

/// Poll pending requests until every sent one has settled (or the settle
/// timeout passes), sampling the queue depth every `DEPTH_TICK`. Returns
/// the settled requests, the depth samples and when the last one settled.
fn observe(
    svc: &Service,
    pending: &Mutex<Vec<(u64, u64, u64, Instant)>>,
    sent_all: &AtomicBool,
) -> (Vec<Settled>, Vec<f64>, Instant) {
    let mut settled = Vec::new();
    let mut depths = Vec::new();
    let mut next_tick = Instant::now();
    let mut last = Instant::now();
    let mut sent_at: Option<Instant> = None;
    loop {
        let done = sent_all.load(Ordering::SeqCst);
        let waiting: Vec<(u64, u64, u64, Instant)> = pending
            .lock()
            .expect("pending lock: no holder panics")
            .clone();
        let mut finished = Vec::new();
        for &(id, k, seed, due) in &waiting {
            if let Some(outcome) = svc.outcome(id) {
                last = Instant::now();
                settled.push(Settled {
                    k,
                    seed,
                    latency_ms: ms(due),
                    outcome: Some(outcome),
                });
                finished.push(id);
            }
        }
        if !finished.is_empty() {
            pending
                .lock()
                .expect("pending lock: no holder panics")
                .retain(|p| !finished.contains(&p.0));
        }
        if Instant::now() >= next_tick {
            depths.push(svc.stats().queue_depth as f64);
            next_tick += DEPTH_TICK;
        }
        if done {
            let sent_at = *sent_at.get_or_insert_with(Instant::now);
            let left = pending.lock().expect("pending lock: no holder panics");
            if left.is_empty() {
                break;
            }
            if sent_at.elapsed() > SETTLE_TIMEOUT {
                for &(_, k, seed, _) in left.iter() {
                    settled.push(Settled {
                        k,
                        seed,
                        latency_ms: f64::INFINITY,
                        outcome: None,
                    });
                }
                break;
            }
        }
        thread::sleep(Duration::from_micros(250));
    }
    settled.sort_by_key(|r| r.k);
    (settled, depths, last)
}

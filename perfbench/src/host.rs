//! Host-speed probe: a fixed reference computation timed between the
//! benchmark's operations, so that time metrics can be scaled to a
//! reference host speed.
//!
//! On a host shared with other tenants, the speed of the program moves
//! with their load. On a 2-vCPU shared Xeon VM, the per-second median of
//! one `estimate-large` estimate moved between 52 and 90 ms within a
//! single 10 s run, a random-access loop over 32 MiB moved by up to 75%
//! from one second to the next, and a compute-only loop by 10%. Which of
//! the two a workload follows depends on its size: memory contention
//! dominates the 40k-flow estimates, while the 4k-flow ones slowed by 25%
//! in phases where the memory loop barely moved. So the probe times both
//! parts separately.
//!
//! A time `t` measured in a run is reported as
//! `t * (MEMORY_REF_MS / m)^a * (COMPUTE_REF_MS / c)^b`, where `m` and `c`
//! are the median memory and compute probe times of the same run (or of
//! the same phase) and `a`, `b` the workload's `Sensitivity`. The probe is
//! the benchmark's own code and calls nothing in the workspace, so a
//! change to the program moves the scaled times exactly as it moves the
//! raw ones. Probes run only while the program under test is idle
//! (between closed-loop operations, in the idle gap before an open-loop
//! send), so its own load does not slow them.

use crate::pct;
use std::hint::black_box;
use std::time::Instant;

/// The probe parts' times on a quiet host, in ms: scaled times read close
/// to raw wall times when nothing else loads the host.
pub const MEMORY_REF_MS: f64 = 5.0;
pub const COMPUTE_REF_MS: f64 = 3.0;

/// 32 MiB of 64-bit words, well past any private cache.
const MEMORY_WORDS: usize = 1 << 22;
/// Random read-modify-writes per probe (≈5 ms on a quiet host).
const MEMORY_STEPS: usize = 300_000;
/// Steps of a dependent floating-point chain per probe (≈3 ms).
const COMPUTE_STEPS: usize = 1_000_000;

/// One probe's two timings, in ms.
#[derive(Clone, Copy, Default)]
pub struct Sample {
    pub memory_ms: f64,
    pub compute_ms: f64,
}

pub struct Probe {
    buf: Vec<u64>,
    runs: u64,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            buf: (0..MEMORY_WORDS as u64).collect(),
            runs: 0,
        }
    }

    /// Run the probe once.
    pub fn sample(&mut self) -> Sample {
        self.runs += 1;
        let t = Instant::now();
        let n = self.buf.len();
        let mut x = self.runs | 1;
        let mut acc = 0u64;
        for _ in 0..MEMORY_STEPS {
            // xorshift64 picks the word: independent of the data read, so
            // the core keeps several misses in flight, as the estimator does.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize % n;
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc ^ x;
        }
        black_box(acc);
        let memory_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let mut a = self.runs as f64;
        for j in 0..COMPUTE_STEPS {
            a = a * 1.000_000_1 + (j as f64).sqrt();
        }
        black_box(a);
        Sample {
            memory_ms,
            compute_ms: t.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// How strongly a workload's times follow each probe part: the exponents
/// `a` (memory) and `b` (compute) above.
#[derive(Clone, Copy, Default)]
pub struct Sensitivity {
    pub memory: f64,
    pub compute: f64,
}

/// Chosen on the 2-vCPU VM above from a grid of exponents (steps of 0.25
/// and 0.5) as the one with the smallest worst spread (IQR / median) of
/// the timed metrics' run values over eight 15 s runs, each on its own
/// seed, and checked on two later sets of ten: `estimate-large` 0.33
/// unscaled, 0.085 at (0.75, 0.5); `estimate-small` 0.11 unscaled, 0.07
/// at (0.5, 0.5); `serve-mixed` 0.14 unscaled, 0.08 at (0.5, 0.5).
pub fn sensitivity(workload: &str) -> Sensitivity {
    match workload {
        "estimate-large" => Sensitivity {
            memory: 0.75,
            compute: 0.5,
        },
        _ => Sensitivity {
            memory: 0.5,
            compute: 0.5,
        },
    }
}

/// Median memory and compute probe times of `probes` (0 when empty).
pub fn medians(probes: &[Sample]) -> (f64, f64) {
    let m: Vec<f64> = probes.iter().map(|p| p.memory_ms).collect();
    let c: Vec<f64> = probes.iter().map(|p| p.compute_ms).collect();
    (pct(&m, 50.0), pct(&c, 50.0))
}

/// The factor that scales times measured alongside `probes` to the
/// reference host speed (1 when there are no probes).
pub fn scale(probes: &[Sample], s: Sensitivity) -> f64 {
    match medians(probes) {
        (m, c) if m > 0.0 && c > 0.0 => {
            (MEMORY_REF_MS / m).powf(s.memory) * (COMPUTE_REF_MS / c).powf(s.compute)
        }
        _ => 1.0,
    }
}

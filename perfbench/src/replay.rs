//! The traced run's stage-by-stage replay of one uncached estimate.
//!
//! It makes the same public calls, in the same order and with the same
//! parallel fan-out, as `M3Estimator::try_estimate` with default options,
//! and times each layer from here. Its estimate must be bit-identical to
//! `try_estimate` on the same inputs, so that the stage times describe
//! the production computation.

use crate::ms;
use m3_core::features::decode_log;
use m3_core::prelude::*;
use m3_flowsim::prelude::{FluidBudget, FluidRunStats, FluidWorkspace};
use m3_flowsim::types::FluidFctRecord;
use m3_netsim::prelude::{FlowSpec, SimConfig, Topology};
use m3_nn::prelude::{ArenaPool, SampleInput};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer times (ms) and counts of one replayed estimate.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub index_ms: f64,
    pub sample_ms: f64,
    pub materialize_ms: f64,
    pub flowsim_ms: f64,
    pub features_ms: f64,
    pub forward_ms: f64,
    pub aggregate_ms: f64,
    pub total_ms: f64,
    pub unique_scenarios: u64,
    pub flowsim_runs: u64,
    pub flowsim_events: u64,
    pub nn_rows: u64,
}

impl Stages {
    pub fn attributed_ms(&self) -> f64 {
        self.index_ms
            + self.sample_ms
            + self.materialize_ms
            + self.flowsim_ms
            + self.features_ms
            + self.forward_ms
            + self.aggregate_ms
    }
}

/// Warm per-replay scratch, owned here as the estimator owns its own:
/// fluid-engine workspaces and forward-pass arenas.
#[derive(Default)]
pub struct Replayer {
    fluid: Mutex<Vec<(FluidWorkspace, Vec<FluidFctRecord>)>>,
    arenas: ArenaPool,
}

fn fg_counts(data: &PathScenarioData) -> [usize; NUM_OUTPUT_BUCKETS] {
    let mut counts = [0usize; NUM_OUTPUT_BUCKETS];
    for f in &data.fg {
        counts[output_bucket(f.size)] += 1;
    }
    counts
}

impl Replayer {
    pub fn estimate(
        &self,
        est: &M3Estimator,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
    ) -> Result<(NetworkEstimate, Stages), String> {
        let mut st = Stages::default();
        let t_total = Instant::now();

        // Input validation belongs to no layer below: it shows up in
        // `trace.unattributed_frac`.
        config.validate_spec().map_err(|e| e.to_string())?;
        validate_workload(topo, flows).map_err(|e| e.to_string())?;

        let t = Instant::now();
        let index = PathIndex::build(topo, flows);
        st.index_ms = ms(t);

        let t = Instant::now();
        let sampled = index.sample_paths(k_paths, seed);
        st.sample_ms = ms(t);
        if sampled.is_empty() {
            return Err("workload has no populated paths to sample".into());
        }

        let t = Instant::now();
        let datas: Vec<PathScenarioData> = sampled
            .par_iter()
            .map(|&g| PathScenarioData::from_group(topo, flows, &index, g, config))
            .collect();
        let specs: Vec<Vec<f32>> = datas
            .iter()
            .map(|d| spec_vector(config, d.fg_base_rtt, d.fg_bottleneck))
            .collect();
        let mut slot_by_key: HashMap<u64, usize> = HashMap::new();
        let mut uniq: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(datas.len());
        for (i, (d, s)) in datas.iter().zip(&specs).enumerate() {
            let key = scenario_fingerprint(d, s, est.use_context);
            let slot = *slot_by_key.entry(key).or_insert_with(|| {
                uniq.push(i);
                uniq.len() - 1
            });
            slot_of.push(slot);
        }
        st.materialize_ms = ms(t);
        st.unique_scenarios = uniq.len() as u64;

        let t = Instant::now();
        let budget = FluidBudget::default();
        let sims: Vec<Result<(FlowsimResult, FluidRunStats), String>> = uniq
            .par_iter()
            .map(|&i| {
                let (mut ws, mut records) = self
                    .fluid
                    .lock()
                    .expect("fluid pool lock: no holder panics")
                    .pop()
                    .unwrap_or_default();
                let r = datas[i]
                    .try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records)
                    .map_err(|e| e.to_string());
                self.fluid
                    .lock()
                    .expect("fluid pool lock: no holder panics")
                    .push((ws, records));
                r
            })
            .collect();
        st.flowsim_ms = ms(t);
        let mut results = Vec::with_capacity(sims.len());
        for r in sims {
            let (sim, stats) = r?;
            st.flowsim_runs += 1;
            st.flowsim_events += stats.events;
            results.push(sim);
        }

        let t = Instant::now();
        let slots: Vec<usize> = (0..uniq.len()).collect();
        let inputs: Vec<SampleInput> = slots
            .par_iter()
            .map(|&s| {
                let i = uniq[s];
                let (fg_map, bg_maps) = datas[i].features(&results[s]);
                SampleInput {
                    fg: fg_map.encode_log(),
                    bg: bg_maps.iter().map(|m| m.encode_log()).collect(),
                    spec: specs[i].clone(),
                    use_context: est.use_context,
                }
            })
            .collect();
        st.features_ms = ms(t);

        let t = Instant::now();
        let outputs = est.net.predict_batch_pooled(&inputs, &self.arenas);
        st.forward_ms = ms(t);
        st.nn_rows = outputs.len() as u64;

        let t = Instant::now();
        let mut resolved: Vec<PathDistribution> = Vec::with_capacity(outputs.len());
        for (s, out) in outputs.iter().enumerate() {
            if !out.iter().all(|v| v.is_finite()) {
                return Err(format!(
                    "forward pass produced non-finite output at slot {s}"
                ));
            }
            resolved.push(PathDistribution::from_model_output(
                &decode_log(out),
                fg_counts(&datas[uniq[s]]),
            ));
        }
        let dists: Vec<PathDistribution> = slot_of.iter().map(|&s| resolved[s].clone()).collect();
        let estimate = NetworkEstimate::aggregate(&dists);
        st.aggregate_ms = ms(t);

        st.total_ms = ms(t_total);
        Ok((estimate, st))
    }
}

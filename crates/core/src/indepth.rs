//! The in-depth baseline: request tracing without subsystem features.
//!
//! §3.2: in-depth models capture "an application's control flow, namely
//! trace the steps of a request's execution through the system" and model
//! incoming traffic accurately, but "although accurate in capturing user
//! behavior patterns, [the approach] does not capture the features of the
//! workload in various subsystems", impeding performance/power modeling.
//!
//! Concretely: this model learns the request classes (phase sequences and
//! probabilities — exactly what a Dapper/queueing-network view gives) and
//! per-phase *durations*, plus the arrival process. It generates requests
//! whose timing structure is right but whose phases are opaque — no sizes,
//! banks or LBNs.

use kooza_sim::rng::Rng64;
use kooza_stats::dist::Distribution;
use kooza_trace::TraceSet;

use crate::class::{assemble_observations, Observations};
use crate::structure::StructureModel;
use crate::subsystem::NetworkModel;
use crate::{PhaseDemand, Result, SyntheticRequest, WorkloadModel};

/// The in-depth baseline model.
#[derive(Debug)]
pub struct InDepthModel {
    arrivals: NetworkModel,
    structure: StructureModel,
    trained_requests: usize,
}

impl InDepthModel {
    /// Trains from a trace's span trees and arrival stream.
    ///
    /// # Errors
    ///
    /// Errors if the trace lacks network records or span trees.
    pub fn fit(trace: &TraceSet) -> Result<Self> {
        Self::fit_observations(&assemble_observations(trace)?)
    }

    /// Trains on per-request observations already joined from a trace (by
    /// [`assemble_observations`]), in arrival order, so a caller fitting
    /// several models on one trace joins it once.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](InDepthModel::fit), including too few
    /// observations.
    pub fn fit_observations(observations: &Observations) -> Result<Self> {
        Ok(InDepthModel {
            arrivals: NetworkModel::fit(observations)?,
            structure: StructureModel::fit(observations)?,
            trained_requests: observations.len(),
        })
    }

    /// The learned structure (classes and phase durations).
    pub fn structure(&self) -> &StructureModel {
        &self.structure
    }

    /// Number of requests in the training trace.
    pub fn trained_requests(&self) -> usize {
        self.trained_requests
    }
}

impl WorkloadModel for InDepthModel {
    fn name(&self) -> &'static str {
        "in-depth"
    }

    fn generate(&self, n: usize, rng: &mut Rng64) -> Vec<SyntheticRequest> {
        (0..n)
            .map(|_| {
                let class = self.structure.sample_class(rng);
                let phases = class
                    .phase_durations
                    .iter()
                    .map(|d| PhaseDemand::Opaque {
                        duration_nanos: d.sample(rng).max(0.0) as u64,
                    })
                    .collect();
                SyntheticRequest {
                    interarrival_secs: self.arrivals.sample_gap(rng),
                    phases,
                }
            })
            .collect()
    }

    fn captures_request_features(&self) -> bool {
        false
    }

    fn captures_time_dependencies(&self) -> bool {
        true
    }

    fn parameter_count(&self) -> usize {
        // Arrival fit + per-class sequence and duration summaries.
        2 + self
            .structure
            .classes()
            .iter()
            .map(|c| 1 + 2 * c.signature.0.len())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};

    fn trace(mix: WorkloadMix, n: u64, seed: u64) -> TraceSet {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        Cluster::new(&config).unwrap().run(n, seed).trace
    }

    #[test]
    fn latency_structure_preserved() {
        let t = trace(WorkloadMix::read_heavy(), 800, 71);
        let model = InDepthModel::fit(&t).unwrap();
        let mut rng = Rng64::new(72);
        let reqs = model.generate(800, &mut rng);
        // Synthetic end-to-end time (sum of opaque phases) matches the
        // original latency distribution.
        let obs = assemble_observations(&t).unwrap();
        let orig: Vec<f64> = obs.iter().map(|o| o.latency_nanos as f64 / 1e9).collect();
        let synth: Vec<f64> = reqs
            .iter()
            .map(|r| {
                r.phases
                    .iter()
                    .map(|p| match p {
                        PhaseDemand::Opaque { duration_nanos } => *duration_nanos as f64 / 1e9,
                        _ => 0.0,
                    })
                    .sum()
            })
            .collect();
        let orig_mean: f64 = orig.iter().sum::<f64>() / orig.len() as f64;
        let synth_mean: f64 = synth.iter().sum::<f64>() / synth.len() as f64;
        assert!(
            (orig_mean - synth_mean).abs() / orig_mean < 0.1,
            "orig {orig_mean} synth {synth_mean}"
        );
    }

    #[test]
    fn no_subsystem_features_generated() {
        let model = InDepthModel::fit(&trace(WorkloadMix::mixed(), 500, 73)).unwrap();
        let mut rng = Rng64::new(74);
        let reqs = model.generate(100, &mut rng);
        for r in &reqs {
            assert_eq!(r.network_in_bytes(), 0);
            assert!(r.disk_demand().is_none());
            assert!(r.memory_demand().is_none());
            assert!(r.phases.iter().all(|p| matches!(p, PhaseDemand::Opaque { .. })));
        }
    }

    #[test]
    fn arrival_rate_preserved() {
        let model = InDepthModel::fit(&trace(WorkloadMix::read_heavy(), 1500, 75)).unwrap();
        let mut rng = Rng64::new(76);
        let reqs = model.generate(3000, &mut rng);
        let mean_gap: f64 =
            reqs.iter().map(|r| r.interarrival_secs).sum::<f64>() / reqs.len() as f64;
        assert!((1.0 / mean_gap - 50.0).abs() < 6.0, "rate {}", 1.0 / mean_gap);
    }

    #[test]
    fn trait_properties() {
        let model = InDepthModel::fit(&trace(WorkloadMix::read_heavy(), 200, 77)).unwrap();
        assert_eq!(model.name(), "in-depth");
        assert!(!model.captures_request_features());
        assert!(model.captures_time_dependencies());
        assert!(model.parameter_count() > 0);
    }
}

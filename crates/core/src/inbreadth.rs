//! The in-breadth baseline: per-subsystem models with **no** structure.
//!
//! §3.1: in-breadth modeling's "most obvious disadvantage ... is its
//! inability to capture the time dependencies of a request as it
//! progresses through the system. Not being able to capture an
//! application's structure can result in invalid stressing of the system."
//!
//! Concretely, this model trains the same four subsystem models KOOZA uses
//! but (a) samples each subsystem **independently** — destroying
//! cross-subsystem correlations — and (b) emits every request with the
//! same fixed, assumed phase order, disk always included (it cannot know
//! that some requests are absorbed by the buffer cache).

use kooza_sim::rng::Rng64;
use kooza_trace::TraceSet;

use crate::class::{assemble_observations, Observations};
use crate::subsystem::{CpuChainModel, MemoryChainModel, NetworkModel, StorageChainModel};
use crate::{PhaseDemand, Result, SyntheticRequest, WorkloadModel};

/// The in-breadth baseline model.
#[derive(Debug)]
pub struct InBreadthModel {
    network: NetworkModel,
    cpu: CpuChainModel,
    memory: Option<MemoryChainModel>,
    storage: Option<StorageChainModel>,
    trained_requests: usize,
}

impl InBreadthModel {
    /// Trains the four subsystem models on a trace (ignoring span trees —
    /// this family does not use structural information).
    ///
    /// # Errors
    ///
    /// Errors if network or CPU streams are unusable.
    pub fn fit(trace: &TraceSet) -> Result<Self> {
        Self::fit_observations(&assemble_observations(trace)?)
    }

    /// Trains on per-request observations already joined from a trace (by
    /// [`assemble_observations`]), in arrival order, so a caller fitting
    /// several models on one trace joins it once.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](InBreadthModel::fit), including too few
    /// observations.
    pub fn fit_observations(observations: &Observations) -> Result<Self> {
        Ok(InBreadthModel {
            network: NetworkModel::fit(observations)?,
            cpu: CpuChainModel::fit(observations)?,
            memory: MemoryChainModel::fit(observations).ok(),
            storage: StorageChainModel::fit(observations).ok(),
            trained_requests: observations.len(),
        })
    }

    /// Number of requests in the training trace.
    pub fn trained_requests(&self) -> usize {
        self.trained_requests
    }
}

impl WorkloadModel for InBreadthModel {
    fn name(&self) -> &'static str {
        "in-breadth"
    }

    fn generate(&self, n: usize, rng: &mut Rng64) -> Vec<SyntheticRequest> {
        let mut out = Vec::with_capacity(n);
        let mut cpu_state = self.cpu.initial(rng);
        let mut mem_state = self.memory.as_ref().map(|m| m.initial(rng));
        let mut disk_state = self.storage.as_ref().map(|s| s.initial(rng));
        for _ in 0..n {
            // Fixed assumed order; every subsystem sampled independently
            // from its marginal model.
            let mut phases = Vec::with_capacity(6);
            phases.push(PhaseDemand::NetworkIn { bytes: self.network.sample_in_size(rng) });
            let (next_cpu, busy) = self.cpu.next(cpu_state, rng);
            cpu_state = next_cpu;
            phases.push(PhaseDemand::Cpu { busy_nanos: busy / 2 });
            if let (Some(mem), Some(state)) = (&self.memory, &mut mem_state) {
                let (bank, bytes, op) = mem.next(*state, rng);
                *state = bank;
                phases.push(PhaseDemand::Memory { bank: bank as u32, bytes, op });
            }
            if let (Some(disk), Some(state)) = (&self.storage, &mut disk_state) {
                let (bucket, lbn, bytes, op) = disk.next(*state, rng);
                *state = bucket;
                phases.push(PhaseDemand::Disk { lbn, bytes, op });
            }
            phases.push(PhaseDemand::Cpu { busy_nanos: busy / 2 });
            phases.push(PhaseDemand::NetworkOut { bytes: self.network.sample_out_size(rng) });
            out.push(SyntheticRequest {
                interarrival_secs: self.network.sample_gap(rng),
                phases,
            });
        }
        out
    }

    fn captures_request_features(&self) -> bool {
        true
    }

    fn captures_time_dependencies(&self) -> bool {
        false
    }

    fn parameter_count(&self) -> usize {
        self.network.parameter_count()
            + self.cpu.parameter_count()
            + self.memory.as_ref().map(|m| m.parameter_count()).unwrap_or(0)
            + self.storage.as_ref().map(|s| s.parameter_count()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
    use kooza_trace::record::IoOp;

    fn trace(mix: WorkloadMix, n: u64, seed: u64) -> TraceSet {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        Cluster::new(&config).unwrap().run(n, seed).trace
    }

    #[test]
    fn marginal_features_preserved() {
        let model = InBreadthModel::fit(&trace(WorkloadMix::read_heavy(), 600, 61)).unwrap();
        let mut rng = Rng64::new(62);
        let reqs = model.generate(500, &mut rng);
        let mean_net: f64 =
            reqs.iter().map(|r| r.payload_bytes() as f64).sum::<f64>() / reqs.len() as f64;
        assert!((mean_net - 65536.0).abs() < 1.0, "payload {mean_net}");
    }

    #[test]
    fn cross_subsystem_correlation_destroyed() {
        // On the mixed workload, some synthetic requests pair a 64 KB
        // network demand with a 1 MB disk write (or vice versa) — the
        // "invalid stressing" the paper warns about. KOOZA never does this
        // (see kooza::tests::cross_subsystem_correlation_preserved).
        let model = InBreadthModel::fit(&trace(WorkloadMix::mixed(), 1000, 63)).unwrap();
        let mut rng = Rng64::new(64);
        let reqs = model.generate(1000, &mut rng);
        let mismatched = reqs
            .iter()
            .filter(|r| {
                r.disk_demand()
                    .map(|(bytes, _)| bytes != r.payload_bytes())
                    .unwrap_or(false)
            })
            .count();
        assert!(mismatched > 100, "only {mismatched} mismatched requests");
    }

    #[test]
    fn always_emits_disk_even_for_cached_workloads() {
        // Hot working set: the real system absorbs most reads in cache,
        // but the structure-blind model stresses the disk on every request.
        let mix = WorkloadMix { n_chunks: 16, ..WorkloadMix::read_heavy() };
        let model = InBreadthModel::fit(&trace(mix, 800, 65)).unwrap();
        let mut rng = Rng64::new(66);
        let reqs = model.generate(300, &mut rng);
        assert!(reqs.iter().all(|r| r.disk_demand().is_some()));
    }

    #[test]
    fn fixed_order_is_always_the_same() {
        let model = InBreadthModel::fit(&trace(WorkloadMix::mixed(), 400, 67)).unwrap();
        let mut rng = Rng64::new(68);
        let reqs = model.generate(50, &mut rng);
        for r in &reqs {
            assert!(matches!(r.phases[0], PhaseDemand::NetworkIn { .. }));
            assert!(matches!(r.phases.last(), Some(PhaseDemand::NetworkOut { .. })));
        }
    }

    #[test]
    fn trait_properties() {
        let model = InBreadthModel::fit(&trace(WorkloadMix::read_heavy(), 200, 69)).unwrap();
        assert_eq!(model.name(), "in-breadth");
        assert!(model.captures_request_features());
        assert!(!model.captures_time_dependencies());
        assert!(model.parameter_count() > 0);
        let _ = IoOp::Read; // silence unused import in cfg(test) paths
    }
}

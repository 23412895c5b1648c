//! The KOOZA combined model.

use kooza_sim::rng::Rng64;
use kooza_stats::dist::Distribution;
use kooza_trace::record::IoOp;
use kooza_trace::TraceSet;

use crate::class::{assemble_observations, Observations};
use crate::structure::StructureModel;
use crate::subsystem::{CpuChainModel, MemoryChainModel, NetworkModel, StorageChainModel};
use crate::{PhaseDemand, Result, SyntheticRequest, WorkloadModel};

/// Model-detail knobs (§4: "The detail of the model is configurable and
/// since its structure is distributed ... the designer can adjust the
/// level of detail to the part of the system that is of interest").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KoozaOptions {
    /// LBN locality buckets in the storage chain (spatial granularity).
    pub lbn_buckets: usize,
    /// Utilization bins in the CPU chain.
    pub cpu_bins: usize,
}

impl Default for KoozaOptions {
    fn default() -> Self {
        KoozaOptions {
            lbn_buckets: crate::subsystem::LBN_BUCKETS,
            cpu_bins: crate::subsystem::CPU_BINS,
        }
    }
}

impl KoozaOptions {
    /// A coarse, few-parameter configuration (4 buckets, 3 bins) — cheap to
    /// train and inspect, at some fidelity cost.
    pub fn coarse() -> Self {
        KoozaOptions {
            lbn_buckets: 4,
            cpu_bins: 3,
        }
    }

    /// A fine-grained configuration (256 buckets, 20 bins) for storage- or
    /// CPU-focused studies.
    pub fn fine() -> Self {
        KoozaOptions {
            lbn_buckets: 256,
            cpu_bins: 20,
        }
    }
}

/// The combined workload model of §4: four per-subsystem models plus the
/// time-dependency structure queue.
///
/// * **Network**: a queueing model — fitted inter-arrival distribution and
///   ingress sizes.
/// * **CPU / memory / storage**: Markov chains over utilization bins,
///   memory banks and LBN buckets respectively.
/// * **Structure**: request classes mined from span trees, with
///   class-conditional feature distributions that preserve cross-subsystem
///   correlations (a 64 KB read's network, memory and disk demands stay
///   together).
#[derive(Debug)]
pub struct Kooza {
    network: NetworkModel,
    cpu: CpuChainModel,
    memory: Option<MemoryChainModel>,
    storage: Option<StorageChainModel>,
    structure: StructureModel,
    trained_requests: usize,
}

impl Kooza {
    /// Trains the model on a multi-subsystem trace with default detail.
    ///
    /// # Errors
    ///
    /// Errors if the trace lacks network records or complete span trees,
    /// or any mandatory subsystem cannot be fitted.
    pub fn fit(trace: &TraceSet) -> Result<Self> {
        Self::fit_with(trace, KoozaOptions::default())
    }

    /// Trains with explicit detail knobs.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](Kooza::fit), plus invalid (zero) knob values.
    pub fn fit_with(trace: &TraceSet, options: KoozaOptions) -> Result<Self> {
        Self::fit_observations(&assemble_observations(trace)?, options)
    }

    /// Trains on per-request observations already joined from a trace (by
    /// [`assemble_observations`]), in arrival order. Callers that also
    /// validate against the observations, and the per-server
    /// [`crate::KoozaFleet`], assemble once and fit from the result.
    ///
    /// # Errors
    ///
    /// Same as [`fit_with`](Kooza::fit_with), including too few
    /// observations.
    pub fn fit_observations(observations: &Observations, options: KoozaOptions) -> Result<Self> {
        kooza_obs::global::stage("train", || {
            let network = NetworkModel::fit(observations)?;
            let cpu = CpuChainModel::fit_with_bins(observations, options.cpu_bins)?;
            // Memory/storage streams may legitimately be absent (e.g. a fully
            // cache-resident workload never touches disk).
            let memory = MemoryChainModel::fit(observations).ok();
            let storage =
                StorageChainModel::fit_with_buckets(observations, options.lbn_buckets).ok();
            let structure = StructureModel::fit(observations)?;
            kooza_obs::global::counter_add("train.models", 1);
            kooza_obs::global::counter_add("train.requests", observations.len() as u64);
            Ok(Kooza {
                network,
                cpu,
                memory,
                storage,
                structure,
                trained_requests: observations.len(),
            })
        })
    }

    /// The network (queueing) model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The CPU Markov model.
    pub fn cpu(&self) -> &CpuChainModel {
        &self.cpu
    }

    /// The memory Markov model, if the trace had memory traffic.
    pub fn memory(&self) -> Option<&MemoryChainModel> {
        self.memory.as_ref()
    }

    /// The storage Markov model, if the trace had disk traffic.
    pub fn storage(&self) -> Option<&StorageChainModel> {
        self.storage.as_ref()
    }

    /// The structure queue.
    pub fn structure(&self) -> &StructureModel {
        &self.structure
    }

    /// Number of requests the model was trained on.
    pub fn trained_requests(&self) -> usize {
        self.trained_requests
    }
}

impl WorkloadModel for Kooza {
    fn name(&self) -> &'static str {
        "kooza"
    }

    fn generate(&self, n: usize, rng: &mut Rng64) -> Vec<SyntheticRequest> {
        kooza_obs::global::counter_add("generate.requests", n as u64);
        kooza_obs::global::stage("generate", || self.generate_impl(n, rng))
    }

    fn captures_request_features(&self) -> bool {
        true
    }

    fn captures_time_dependencies(&self) -> bool {
        true
    }

    fn parameter_count(&self) -> usize {
        self.network.parameter_count()
            + self.cpu.parameter_count()
            + self.memory.as_ref().map(|m| m.parameter_count()).unwrap_or(0)
            + self.storage.as_ref().map(|s| s.parameter_count()).unwrap_or(0)
            + self.structure.parameter_count()
    }
}

impl Kooza {
    fn generate_impl(&self, n: usize, rng: &mut Rng64) -> Vec<SyntheticRequest> {
        let mut out = Vec::with_capacity(n);
        // Chain states persist across requests so generated traces keep
        // the trained temporal/spatial locality.
        let mut mem_state = self.memory.as_ref().map(|m| m.initial(rng));
        let mut disk_state = self.storage.as_ref().map(|s| s.initial(rng));
        for _ in 0..n {
            let class = self.structure.sample_class(rng);
            let cpu_phases = class.cpu_phase_count().max(1);
            let total_busy = class.cpu_busy.sample(rng).max(0.0) as u64;
            let per_phase_busy = total_busy / cpu_phases as u64;
            let mut phases = Vec::with_capacity(class.signature.0.len());
            for (idx, phase) in class.signature.0.iter().enumerate() {
                let demand = if phase == "network.in" {
                    PhaseDemand::NetworkIn {
                        bytes: class.net_in.sample(rng).max(0.0) as u64,
                    }
                } else if phase.starts_with("cpu") {
                    PhaseDemand::Cpu { busy_nanos: per_phase_busy }
                } else if phase.starts_with("memory") {
                    match (&self.memory, &class.mem_size) {
                        (Some(mem), Some(sizes)) => {
                            let state = mem_state.get_or_insert_with(|| mem.initial(rng));
                            let (bank, _, _) = mem.next(*state, rng);
                            *state = bank;
                            PhaseDemand::Memory {
                                bank: bank as u32,
                                bytes: sizes.sample(rng).max(0.0) as u64,
                                op: if rng.chance(class.mem_read_fraction) {
                                    IoOp::Read
                                } else {
                                    IoOp::Write
                                },
                            }
                        }
                        _ => PhaseDemand::Opaque {
                            duration_nanos: class.phase_durations[idx].sample(rng).max(0.0) as u64,
                        },
                    }
                } else if phase.starts_with("disk") {
                    match (&self.storage, &class.disk_size) {
                        (Some(disk), Some(sizes)) => {
                            let state = disk_state.get_or_insert_with(|| disk.initial(rng));
                            let (bucket, lbn, _, _) = disk.next(*state, rng);
                            *state = bucket;
                            PhaseDemand::Disk {
                                lbn,
                                bytes: sizes.sample(rng).max(0.0) as u64,
                                op: if rng.chance(class.disk_read_fraction) {
                                    IoOp::Read
                                } else {
                                    IoOp::Write
                                },
                            }
                        }
                        _ => PhaseDemand::Opaque {
                            duration_nanos: class.phase_durations[idx].sample(rng).max(0.0) as u64,
                        },
                    }
                } else if phase == "network.out" {
                    PhaseDemand::NetworkOut {
                        bytes: class.net_out.sample(rng).max(0.0) as u64,
                    }
                } else {
                    // Phases KOOZA has no subsystem model for (e.g.
                    // replication) are reproduced by duration.
                    PhaseDemand::Opaque {
                        duration_nanos: class.phase_durations[idx].sample(rng).max(0.0) as u64,
                    }
                };
                phases.push(demand);
            }
            out.push(SyntheticRequest {
                interarrival_secs: self.network.sample_gap(rng),
                phases,
            });
        }
        out
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
    fn fit_and_generate_read_heavy() {
        let model = Kooza::fit(&trace(WorkloadMix::read_heavy(), 600, 41)).unwrap();
        assert_eq!(model.trained_requests(), 600);
        let mut rng = Rng64::new(42);
        let reqs = model.generate(500, &mut rng);
        assert_eq!(reqs.len(), 500);
        // Request features match the trained workload.
        let mean_net: f64 =
            reqs.iter().map(|r| r.payload_bytes() as f64).sum::<f64>() / reqs.len() as f64;
        assert!((mean_net - 65536.0).abs() < 1.0, "net {mean_net}");
        for r in &reqs {
            if let Some((bytes, op)) = r.memory_demand() {
                assert_eq!(bytes, 16 * 1024);
                assert_eq!(op, IoOp::Read);
            }
            if let Some((bytes, op)) = r.disk_demand() {
                assert_eq!(bytes, 65536);
                assert_eq!(op, IoOp::Read);
            }
        }
    }

    #[test]
    fn generated_structure_matches_figure_one() {
        let mix = WorkloadMix { n_chunks: 100_000, zipf_skew: 0.5, ..WorkloadMix::read_heavy() };
        let model = Kooza::fit(&trace(mix, 400, 43)).unwrap();
        let mut rng = Rng64::new(44);
        let reqs = model.generate(50, &mut rng);
        for r in &reqs {
            // Full read pipeline: net-in, cpu, memory, disk, cpu, net-out.
            assert_eq!(r.phases.len(), 6, "{:?}", r.phases);
            assert!(matches!(r.phases[0], PhaseDemand::NetworkIn { .. }));
            assert!(matches!(r.phases[1], PhaseDemand::Cpu { .. }));
            assert!(matches!(r.phases[2], PhaseDemand::Memory { .. }));
            assert!(matches!(r.phases[3], PhaseDemand::Disk { .. }));
            assert!(matches!(r.phases[4], PhaseDemand::Cpu { .. }));
            assert!(matches!(r.phases[5], PhaseDemand::NetworkOut { .. }));
        }
    }

    #[test]
    fn cross_subsystem_correlation_preserved() {
        // Mixed workload: in a single synthetic request, network and disk
        // sizes must agree (64 KB read or 1 MB write), never mix.
        let model = Kooza::fit(&trace(WorkloadMix::mixed(), 1000, 45)).unwrap();
        let mut rng = Rng64::new(46);
        let reqs = model.generate(500, &mut rng);
        for r in &reqs {
            if let Some((disk_bytes, op)) = r.disk_demand() {
                let payload = r.payload_bytes();
                match op {
                    IoOp::Read => {
                        assert_eq!(payload, 65536, "read with payload {payload}");
                        assert_eq!(disk_bytes, 65536);
                        assert_eq!(r.network_in_bytes(), 1024); // header
                    }
                    IoOp::Write => {
                        assert_eq!(payload, 1024 * 1024, "write with payload {payload}");
                        assert_eq!(disk_bytes, 1024 * 1024);
                        assert_eq!(r.network_out_bytes(), 1024); // ack
                    }
                }
            }
        }
    }

    #[test]
    fn interarrival_rate_preserved() {
        let model = Kooza::fit(&trace(WorkloadMix::read_heavy(), 1500, 47)).unwrap();
        let mut rng = Rng64::new(48);
        let reqs = model.generate(3000, &mut rng);
        let mean_gap: f64 =
            reqs.iter().map(|r| r.interarrival_secs).sum::<f64>() / reqs.len() as f64;
        assert!((1.0 / mean_gap - 50.0).abs() < 6.0, "rate {}", 1.0 / mean_gap);
    }

    #[test]
    fn trait_properties() {
        let model = Kooza::fit(&trace(WorkloadMix::read_heavy(), 200, 49)).unwrap();
        assert_eq!(model.name(), "kooza");
        assert!(model.captures_request_features());
        assert!(model.captures_time_dependencies());
        assert!(model.parameter_count() > 0);
    }

    #[test]
    fn unmodelled_phase_learned_as_opaque() {
        // Replicated writes carry a `replicate` phase, which no subsystem
        // model covers: KOOZA reproduces it by its duration.
        let mut config = ClusterConfig::cluster(3);
        config.workload = WorkloadMix::write_heavy();
        let outcome = Cluster::new(&config).unwrap().run(400, 52);
        let model = Kooza::fit(&outcome.trace).unwrap();
        let signature = &model.structure().dominant().signature.0;
        let replicate = signature.iter().position(|p| p == "replicate").expect("writes replicate");
        let mut rng = Rng64::new(53);
        let reqs = model.generate(50, &mut rng);
        let dominant: Vec<_> = reqs.iter().filter(|r| r.phases.len() == signature.len()).collect();
        assert!(!dominant.is_empty());
        for r in dominant {
            let phase = &r.phases[replicate];
            assert!(matches!(phase, PhaseDemand::Opaque { .. }), "{phase:?}");
        }
    }

    #[test]
    fn detail_knobs_trade_parameters_for_fidelity() {
        use crate::kooza::KoozaOptions;
        let t = trace(WorkloadMix::read_heavy(), 800, 54);
        let coarse = Kooza::fit_with(&t, KoozaOptions::coarse()).unwrap();
        let default = Kooza::fit(&t).unwrap();
        let fine = Kooza::fit_with(&t, KoozaOptions::fine()).unwrap();
        assert!(coarse.parameter_count() < default.parameter_count());
        assert!(default.parameter_count() < fine.parameter_count());
        // Even the coarse model preserves the first-order features.
        let mut rng = Rng64::new(55);
        let reqs = coarse.generate(300, &mut rng);
        let mean_net: f64 =
            reqs.iter().map(|r| r.payload_bytes() as f64).sum::<f64>() / reqs.len() as f64;
        assert!((mean_net - 65536.0).abs() < 1.0);
    }

    #[test]
    fn zero_knobs_rejected() {
        use crate::kooza::KoozaOptions;
        let t = trace(WorkloadMix::read_heavy(), 100, 56);
        assert!(Kooza::fit_with(&t, KoozaOptions { lbn_buckets: 64, cpu_bins: 0 }).is_err());
        // Zero storage buckets only degrade the storage model (it is
        // optional), so training still succeeds without it.
        let m = Kooza::fit_with(&t, KoozaOptions { lbn_buckets: 0, cpu_bins: 10 }).unwrap();
        assert!(m.storage().is_none());
    }

    #[test]
    fn deterministic_generation() {
        let model = Kooza::fit(&trace(WorkloadMix::mixed(), 300, 50)).unwrap();
        let a = model.generate(50, &mut Rng64::new(51));
        let b = model.generate(50, &mut Rng64::new(51));
        assert_eq!(a, b);
    }
}

//! The time-dependency structure queue.
//!
//! §4: "a queue, configurable for each workload, that demonstrates the
//! structure of the application, i.e. the order in which each model
//! becomes active." Trained from span trees: each distinct leaf-phase
//! sequence is a *class*; the queue stores class probabilities plus the
//! class-conditional feature distributions that tie the four subsystem
//! models together per request.

use kooza_sim::rng::Rng64;
use kooza_stats::dist::Empirical;
use kooza_trace::record::IoOp;

use crate::class::{group_by_class, ClassSignature, Observations, RequestObservation};
use crate::{ModelError, Result};

/// Class-conditional feature distributions for one request class.
#[derive(Debug)]
pub struct ClassModel {
    /// The class's phase sequence.
    pub signature: ClassSignature,
    /// Fraction of requests in this class.
    pub probability: f64,
    /// Ingress sizes, bytes.
    pub net_in: Empirical,
    /// Egress sizes, bytes.
    pub net_out: Empirical,
    /// Total CPU busy time, nanoseconds.
    pub cpu_busy: Empirical,
    /// Memory access sizes, bytes (absent if the class touches no memory).
    pub mem_size: Option<Empirical>,
    /// Memory read fraction.
    pub mem_read_fraction: f64,
    /// Disk access sizes, bytes (absent if the class touches no disk).
    pub disk_size: Option<Empirical>,
    /// Disk read fraction.
    pub disk_read_fraction: f64,
    /// Per-phase durations, nanoseconds, aligned with the signature.
    pub phase_durations: Vec<Empirical>,
}

impl ClassModel {
    /// Fits the class whose members are rows `members` of `observations`.
    fn fit(
        signature: ClassSignature,
        observations: &Observations,
        members: &[usize],
        total: usize,
    ) -> Result<Self> {
        let rows = || {
            members
                .iter()
                .map(|&i| observations.get(i).expect("class members are rows of the table"))
        };
        let collect = |f: &dyn Fn(RequestObservation<'_>) -> f64| -> Vec<f64> {
            rows().map(f).collect()
        };
        let net_in = Empirical::from_sample(&collect(&|o| o.network_in_bytes as f64))?;
        let net_out = Empirical::from_sample(&collect(&|o| o.network_out_bytes as f64))?;
        let cpu_busy = Empirical::from_sample(&collect(&|o| o.cpu_busy_nanos as f64))?;
        let mem_sizes: Vec<f64> =
            rows().flat_map(|o| o.memory.iter().map(|m| m.1 as f64)).collect();
        let mem_reads = rows().flat_map(|o| o.memory.iter()).filter(|m| m.2 == IoOp::Read).count();
        let disk_sizes: Vec<f64> =
            rows().flat_map(|o| o.storage.iter().map(|s| s.1 as f64)).collect();
        let disk_reads =
            rows().flat_map(|o| o.storage.iter()).filter(|s| s.2 == IoOp::Read).count();
        // Every phase's durations in one pass over the members, each in
        // member order.
        let n_phases = signature.0.len();
        let mut durations = vec![Vec::with_capacity(members.len()); n_phases];
        for o in rows() {
            for (column, phase) in durations.iter_mut().zip(o.phases) {
                column.push(phase.duration_nanos as f64);
            }
        }
        let mut phase_durations = Vec::with_capacity(n_phases);
        for column in &durations {
            phase_durations.push(Empirical::from_sample(column)?);
        }
        Ok(ClassModel {
            signature,
            probability: members.len() as f64 / total as f64,
            net_in,
            net_out,
            cpu_busy,
            mem_read_fraction: if mem_sizes.is_empty() {
                0.0
            } else {
                mem_reads as f64 / mem_sizes.len() as f64
            },
            mem_size: if mem_sizes.is_empty() {
                None
            } else {
                Some(Empirical::from_sample(&mem_sizes)?)
            },
            disk_read_fraction: if disk_sizes.is_empty() {
                0.0
            } else {
                disk_reads as f64 / disk_sizes.len() as f64
            },
            disk_size: if disk_sizes.is_empty() {
                None
            } else {
                Some(Empirical::from_sample(&disk_sizes)?)
            },
            phase_durations,
        })
    }

    /// Number of CPU phases in the signature.
    pub fn cpu_phase_count(&self) -> usize {
        self.signature.0.iter().filter(|p| p.starts_with("cpu")).count()
    }
}

/// The trained structure queue: request classes with probabilities and
/// class-conditional features.
#[derive(Debug)]
pub struct StructureModel {
    classes: Vec<ClassModel>,
    /// The classes' probabilities, in class order: what
    /// [`sample_class`](Self::sample_class) draws from.
    weights: Vec<f64>,
}

impl StructureModel {
    /// Trains from per-request observations.
    ///
    /// # Errors
    ///
    /// Errors if no observations are given.
    pub fn fit(observations: &Observations) -> Result<Self> {
        if observations.is_empty() {
            return Err(ModelError::InsufficientRequests { needed: 1, got: 0 });
        }
        let groups = group_by_class(observations);
        let total = observations.len();
        let classes = groups
            .into_iter()
            .map(|(sig, members)| ClassModel::fit(sig, observations, &members, total))
            .collect::<Result<Vec<ClassModel>>>()?;
        let weights = classes.iter().map(|c| c.probability).collect();
        Ok(StructureModel { classes, weights })
    }

    /// The trained classes, most frequent first.
    pub fn classes(&self) -> &[ClassModel] {
        &self.classes
    }

    /// The most frequent class (the application's dominant structure).
    pub fn dominant(&self) -> &ClassModel {
        &self.classes[0]
    }

    /// Samples a class according to the observed frequencies.
    pub fn sample_class(&self, rng: &mut Rng64) -> &ClassModel {
        &self.classes[rng.choose_weighted(&self.weights)]
    }

    /// Free-parameter count: class probabilities plus the per-class
    /// distinct feature values.
    pub fn parameter_count(&self) -> usize {
        let mut count = self.classes.len();
        for c in &self.classes {
            count += c.signature.0.len(); // the sequence itself
            count += 3; // net_in, net_out, cpu means (empirical summaries)
            count += c.mem_size.is_some() as usize + c.disk_size.is_some() as usize;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::assemble_observations;
    use kooza_stats::dist::Distribution;
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};

    fn observations(mix: WorkloadMix, n: u64, seed: u64) -> Observations {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        let trace = Cluster::new(&config).unwrap().run(n, seed).trace;
        assemble_observations(&trace).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let obs = observations(WorkloadMix::mixed(), 800, 31);
        let s = StructureModel::fit(&obs).unwrap();
        let total: f64 = s.classes().iter().map(|c| c.probability).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(!s.classes().is_empty());
    }

    #[test]
    fn dominant_class_matches_workload() {
        // Pure 64 KB reads over a cold working set: the dominant class is
        // the full Figure-1 read pipeline.
        let mix = WorkloadMix { n_chunks: 100_000, zipf_skew: 0.5, ..WorkloadMix::read_heavy() };
        let obs = observations(mix, 400, 32);
        let s = StructureModel::fit(&obs).unwrap();
        let dom = s.dominant();
        assert!(dom.probability > 0.9, "p = {}", dom.probability);
        assert_eq!(
            dom.signature.0,
            vec!["network.in", "cpu.lookup", "memory.r", "disk.r", "cpu.aggregate", "network.out"]
        );
        assert_eq!(dom.cpu_phase_count(), 2);
        assert!(dom.disk_size.is_some());
        assert!(dom.mem_size.is_some());
    }

    #[test]
    fn class_conditional_features_are_correlated() {
        // Mixed workload: read classes carry 64 KB, write classes 1 MB —
        // the joint structure in-breadth models lose.
        let obs = observations(WorkloadMix::mixed(), 1000, 33);
        let s = StructureModel::fit(&obs).unwrap();
        for c in s.classes() {
            let is_write = c.disk_read_fraction < 0.5 && c.disk_size.is_some();
            if is_write && c.probability > 0.05 {
                assert!(c.net_in.mean() > 500_000.0, "write class net {}", c.net_in.mean());
            }
            if c.disk_read_fraction > 0.5 && c.probability > 0.05 {
                assert!(c.net_in.mean() < 100_000.0, "read class net {}", c.net_in.mean());
            }
        }
    }

    #[test]
    fn sampling_respects_frequencies() {
        let mix = WorkloadMix { n_chunks: 30, ..WorkloadMix::read_heavy() };
        let obs = observations(mix, 1000, 34);
        let s = StructureModel::fit(&obs).unwrap();
        let mut rng = Rng64::new(35);
        let mut counts = vec![0usize; s.classes().len()];
        for _ in 0..5000 {
            let c = s.sample_class(&mut rng);
            let idx = s
                .classes()
                .iter()
                .position(|k| k.signature == c.signature)
                .unwrap();
            counts[idx] += 1;
        }
        for (i, c) in s.classes().iter().enumerate() {
            let observed = counts[i] as f64 / 5000.0;
            assert!(
                (observed - c.probability).abs() < 0.05,
                "class {i}: {} vs {}",
                observed,
                c.probability
            );
        }
    }

    #[test]
    fn phase_durations_align_with_signature() {
        let obs = observations(WorkloadMix::read_heavy(), 300, 36);
        let s = StructureModel::fit(&obs).unwrap();
        for c in s.classes() {
            assert_eq!(c.phase_durations.len(), c.signature.0.len());
            for d in &c.phase_durations {
                assert!(d.mean() > 0.0);
            }
        }
    }

    #[test]
    fn empty_observations_error() {
        assert!(StructureModel::fit(&Observations::default()).is_err());
    }

    #[test]
    fn parameter_count_grows_with_classes() {
        let one_class = observations(
            WorkloadMix { n_chunks: 100_000, zipf_skew: 0.5, ..WorkloadMix::read_heavy() },
            300,
            37,
        );
        let many_class = observations(WorkloadMix::mixed(), 800, 38);
        let s1 = StructureModel::fit(&one_class).unwrap();
        let s2 = StructureModel::fit(&many_class).unwrap();
        assert!(s2.parameter_count() > s1.parameter_count());
    }
}

//! The four per-subsystem models (§4: "four simple models that reflect the
//! behavior of a workload in the four main parts of the system").
//!
//! Storage, CPU and memory use Markov chains — "we want to capture the
//! sequence of states and the probabilities of switching between them" —
//! while the network model is a queueing model: the fitted inter-arrival
//! distribution plus the request-size marginal.

use kooza_markov::{MarkovChain, MarkovChainBuilder};
use kooza_sim::rng::Rng64;
use kooza_stats::dist::{Distribution, Empirical, Exponential};
use kooza_stats::fit::FitPipeline;
use kooza_trace::record::IoOp;

use crate::class::Observations;
use crate::{ModelError, Result};

/// Default number of LBN locality buckets the storage chain tracks.
pub(crate) const LBN_BUCKETS: usize = 64;
/// Default number of CPU-utilization bins the CPU chain tracks.
pub(crate) const CPU_BINS: usize = 10;

fn empirical(values: &[f64], what: &'static str) -> Result<Empirical> {
    if values.is_empty() {
        return Err(ModelError::MissingStream(what));
    }
    Empirical::from_sample(values).map_err(ModelError::Stats)
}

/// The network model: fitted inter-arrival distribution (the "simple
/// queueing model" of §4) plus the ingress-size marginal.
#[derive(Debug)]
pub struct NetworkModel {
    interarrival: Box<dyn Distribution>,
    family: &'static str,
    sizes_in: Empirical,
    sizes_out: Empirical,
    mean_rate: f64,
}

impl NetworkModel {
    /// Trains from arrival-ordered observations.
    ///
    /// # Errors
    ///
    /// Errors if fewer than 3 observations are available.
    pub fn fit(observations: &Observations) -> Result<Self> {
        if observations.len() < 3 {
            return Err(ModelError::InsufficientRequests { needed: 3, got: observations.len() });
        }
        let gaps: Vec<f64> = observations
            .iter()
            .zip(observations.iter().skip(1))
            .map(|(a, b)| (b.arrival_nanos.saturating_sub(a.arrival_nanos)) as f64 / 1e9)
            .filter(|&g| g > 0.0)
            .collect();
        let sizes_in: Vec<f64> = observations.iter().map(|o| o.network_in_bytes as f64).collect();
        let sizes_out: Vec<f64> =
            observations.iter().map(|o| o.network_out_bytes as f64).collect();
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
        // KS-ranked fit over timing families; fall back to exponential on
        // degenerate gaps.
        let (interarrival, family): (Box<dyn Distribution>, &'static str) =
            match FitPipeline::timing().run(&gaps) {
                Ok(report) => {
                    // Keep the pipeline's own fitted winner instead of
                    // re-fitting it from scratch.
                    let best = report.into_best();
                    (best.dist, best.family)
                }
                Err(_) => (
                    Box::new(
                        Exponential::with_mean(mean_gap.max(1e-9)).map_err(ModelError::Stats)?,
                    ),
                    "exponential",
                ),
            };
        Ok(NetworkModel {
            interarrival,
            family,
            sizes_in: empirical(&sizes_in, "network ingress sizes")?,
            sizes_out: empirical(&sizes_out, "network egress sizes")?,
            mean_rate: if mean_gap > 0.0 { 1.0 / mean_gap } else { 0.0 },
        })
    }

    /// The family the inter-arrival fit selected.
    pub fn interarrival_family(&self) -> &'static str {
        self.family
    }

    /// Mean arrival rate, requests/second.
    pub fn mean_rate(&self) -> f64 {
        self.mean_rate
    }

    /// Samples an inter-arrival gap, seconds.
    pub fn sample_gap(&self, rng: &mut Rng64) -> f64 {
        self.interarrival.sample(rng).max(0.0)
    }

    /// Samples an ingress wire size, bytes.
    pub fn sample_in_size(&self, rng: &mut Rng64) -> u64 {
        self.sizes_in.sample(rng).max(0.0) as u64
    }

    /// Samples an egress wire size, bytes.
    pub fn sample_out_size(&self, rng: &mut Rng64) -> u64 {
        self.sizes_out.sample(rng).max(0.0) as u64
    }

    /// Free-parameter count.
    pub fn parameter_count(&self) -> usize {
        2 + distinct(&self.sizes_in) + distinct(&self.sizes_out)
    }
}

fn distinct(e: &Empirical) -> usize {
    let mut vals = e.values().to_vec();
    vals.dedup();
    vals.len()
}

/// The CPU model: a Markov chain over utilization bins plus per-bin busy
/// times. "The processor model quantifies the CPU utilization achieved for
/// a given request."
#[derive(Debug)]
pub struct CpuChainModel {
    chain: MarkovChain,
    /// Busy-time samples (ns) per utilization bin.
    busy_by_bin: Vec<Vec<f64>>,
    max_utilization: f64,
    bins: usize,
}

impl CpuChainModel {
    /// Trains with the default bin count.
    ///
    /// # Errors
    ///
    /// Errors on empty input.
    pub fn fit(observations: &Observations) -> Result<Self> {
        Self::fit_with_bins(observations, CPU_BINS)
    }

    /// Trains with an explicit utilization-bin count — the paper's
    /// configurable detail knob ("the designer can adjust the level of
    /// detail to the part of the system that is of interest").
    ///
    /// # Errors
    ///
    /// Errors on empty input or `bins == 0`.
    pub fn fit_with_bins(observations: &Observations, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(ModelError::InsufficientRequests { needed: 1, got: 0 });
        }
        if observations.is_empty() {
            return Err(ModelError::InsufficientRequests { needed: 1, got: 0 });
        }
        let max_utilization = observations
            .iter()
            .map(|o| o.cpu_utilization)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let bin_of = |u: f64| -> usize {
            (((u / max_utilization) * bins as f64) as usize).min(bins - 1)
        };
        let mut builder = MarkovChainBuilder::new(bins).with_smoothing(0.05);
        let mut busy_by_bin = vec![Vec::new(); bins];
        let mut prev: Option<usize> = None;
        for obs in observations.iter() {
            let bin = bin_of(obs.cpu_utilization);
            busy_by_bin[bin].push(obs.cpu_busy_nanos as f64);
            if let Some(p) = prev {
                builder.record_transition(p, bin);
            } else {
                builder.record_start(bin);
            }
            prev = Some(bin);
        }
        Ok(CpuChainModel {
            chain: builder.build()?,
            busy_by_bin,
            max_utilization,
            bins,
        })
    }

    /// The utilization-bin chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Largest utilization seen in training.
    pub fn max_utilization(&self) -> f64 {
        self.max_utilization
    }

    /// Walks the chain one step from `state` and samples a busy time (ns).
    pub fn next(&self, state: usize, rng: &mut Rng64) -> (usize, u64) {
        let next = self.chain.next_state(state, rng);
        (next, self.sample_busy(next, rng))
    }

    /// Samples a start state.
    pub fn initial(&self, rng: &mut Rng64) -> usize {
        self.chain.sample_initial(rng)
    }

    /// Samples a busy time for a bin, falling back to neighbouring bins
    /// when the bin is empty (smoothed chains can reach unseen bins).
    pub fn sample_busy(&self, bin: usize, rng: &mut Rng64) -> u64 {
        for delta in 0..self.bins {
            for candidate in [bin.saturating_sub(delta), (bin + delta).min(self.bins - 1)] {
                if !self.busy_by_bin[candidate].is_empty() {
                    return *rng.choose(&self.busy_by_bin[candidate]) as u64;
                }
            }
        }
        0
    }

    /// Free-parameter count.
    pub fn parameter_count(&self) -> usize {
        self.bins * self.bins + self.bins
    }
}

/// The memory model: a Markov chain over banks, plus size and op mix.
/// Spatial locality "in the granularity of ... Memory Banks".
#[derive(Debug)]
pub struct MemoryChainModel {
    chain: MarkovChain,
    sizes: Empirical,
    read_fraction: f64,
    n_banks: usize,
}

impl MemoryChainModel {
    /// Trains from arrival-ordered observations.
    ///
    /// # Errors
    ///
    /// Errors if no memory accesses are present.
    pub fn fit(observations: &Observations) -> Result<Self> {
        let accesses = observations.memory();
        if accesses.is_empty() {
            return Err(ModelError::MissingStream("memory"));
        }
        let n_banks = accesses.iter().map(|a| a.0).max().unwrap() as usize + 1;
        let mut builder = MarkovChainBuilder::new(n_banks).with_smoothing(0.05);
        let mut prev: Option<usize> = None;
        for &(bank, _, _) in accesses {
            if let Some(p) = prev {
                builder.record_transition(p, bank as usize);
            } else {
                builder.record_start(bank as usize);
            }
            prev = Some(bank as usize);
        }
        let sizes: Vec<f64> = accesses.iter().map(|a| a.1 as f64).collect();
        let reads = accesses.iter().filter(|a| a.2 == IoOp::Read).count();
        Ok(MemoryChainModel {
            chain: builder.build()?,
            sizes: empirical(&sizes, "memory sizes")?,
            read_fraction: reads as f64 / accesses.len() as f64,
            n_banks,
        })
    }

    /// The bank chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.n_banks
    }

    /// Observed read fraction.
    pub fn read_fraction(&self) -> f64 {
        self.read_fraction
    }

    /// Walks the bank chain one step and samples a `(bank, size, op)`.
    pub fn next(&self, state: usize, rng: &mut Rng64) -> (usize, u64, IoOp) {
        let bank = self.chain.next_state(state, rng);
        let size = self.sizes.sample(rng).max(0.0) as u64;
        let op = if rng.chance(self.read_fraction) { IoOp::Read } else { IoOp::Write };
        (bank, size, op)
    }

    /// Samples a start bank.
    pub fn initial(&self, rng: &mut Rng64) -> usize {
        self.chain.sample_initial(rng)
    }

    /// Free-parameter count.
    pub fn parameter_count(&self) -> usize {
        self.n_banks * self.n_banks + distinct(&self.sizes) + 1
    }
}

/// The storage model: a Markov chain over LBN locality buckets ("spatial
/// locality in the granularity of Logical Block Ranges"), plus size and
/// op mix, and uniform placement within a bucket.
#[derive(Debug)]
pub struct StorageChainModel {
    chain: MarkovChain,
    sizes: Empirical,
    read_fraction: f64,
    lbn_min: u64,
    bucket_width: u64,
    buckets: usize,
    /// Observed LBNs per bucket: generation resamples these, preserving
    /// sub-bucket (chunk-level) locality the way Sankar et al.'s
    /// hierarchical state diagram refines its locality groups.
    lbns_by_bucket: Vec<Vec<u64>>,
}

impl StorageChainModel {
    /// Trains with the default LBN-bucket count.
    ///
    /// # Errors
    ///
    /// Errors if no storage accesses are present.
    pub fn fit(observations: &Observations) -> Result<Self> {
        Self::fit_with_buckets(observations, LBN_BUCKETS)
    }

    /// Trains with an explicit LBN-bucket count — the spatial-locality
    /// granularity knob.
    ///
    /// # Errors
    ///
    /// Errors if no storage accesses are present or `buckets == 0`.
    pub fn fit_with_buckets(observations: &Observations, buckets: usize) -> Result<Self> {
        if buckets == 0 {
            return Err(ModelError::MissingStream("storage buckets"));
        }
        let accesses = observations.storage();
        if accesses.is_empty() {
            return Err(ModelError::MissingStream("storage"));
        }
        let lbn_min = accesses.iter().map(|a| a.0).min().unwrap();
        let lbn_max = accesses.iter().map(|a| a.0).max().unwrap();
        let bucket_width = ((lbn_max - lbn_min) / buckets as u64).max(1);
        let bucket_of = |lbn: u64| -> usize {
            (((lbn - lbn_min) / bucket_width) as usize).min(buckets - 1)
        };
        let mut builder = MarkovChainBuilder::new(buckets).with_smoothing(0.02);
        let mut lbns_by_bucket: Vec<Vec<u64>> = vec![Vec::new(); buckets];
        let mut prev: Option<usize> = None;
        for &(lbn, _, _) in accesses {
            let b = bucket_of(lbn);
            lbns_by_bucket[b].push(lbn);
            if let Some(p) = prev {
                builder.record_transition(p, b);
            } else {
                builder.record_start(b);
            }
            prev = Some(b);
        }
        let sizes: Vec<f64> = accesses.iter().map(|a| a.1 as f64).collect();
        let reads = accesses.iter().filter(|a| a.2 == IoOp::Read).count();
        Ok(StorageChainModel {
            chain: builder.build()?,
            sizes: empirical(&sizes, "storage sizes")?,
            read_fraction: reads as f64 / accesses.len() as f64,
            lbn_min,
            bucket_width,
            buckets,
            lbns_by_bucket,
        })
    }

    /// The LBN-bucket chain.
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Observed read fraction.
    pub fn read_fraction(&self) -> f64 {
        self.read_fraction
    }

    /// Walks the bucket chain one step. The LBN is resampled from the
    /// accesses observed in that bucket (preserving chunk-level locality);
    /// buckets the smoothed chain reaches without observations fall back
    /// to uniform placement.
    pub fn next(&self, state: usize, rng: &mut Rng64) -> (usize, u64, u64, IoOp) {
        let bucket = self.chain.next_state(state, rng);
        let observed = &self.lbns_by_bucket[bucket];
        let lbn = if observed.is_empty() {
            self.lbn_min + bucket as u64 * self.bucket_width + rng.next_bounded(self.bucket_width)
        } else {
            *rng.choose(observed)
        };
        let size = self.sizes.sample(rng).max(0.0) as u64;
        let op = if rng.chance(self.read_fraction) { IoOp::Read } else { IoOp::Write };
        (bucket, lbn, size, op)
    }

    /// Samples a start bucket.
    pub fn initial(&self, rng: &mut Rng64) -> usize {
        self.chain.sample_initial(rng)
    }

    /// Free-parameter count.
    pub fn parameter_count(&self) -> usize {
        self.buckets * self.buckets + distinct(&self.sizes) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::assemble_observations;
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
    use kooza_trace::TraceSet;

    fn trace(mix: WorkloadMix, n: u64) -> TraceSet {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        Cluster::new(&config).unwrap().run(n, 21).trace
    }

    fn observations(mix: WorkloadMix, n: u64) -> Observations {
        assemble_observations(&trace(mix, n)).unwrap()
    }

    #[test]
    fn network_model_recovers_rate_and_size() {
        let obs = observations(WorkloadMix::read_heavy(), 2000);
        let m = NetworkModel::fit(&obs).unwrap();
        // 50 req/s Poisson arrivals with 64 KB requests.
        assert!((m.mean_rate() - 50.0).abs() < 5.0, "rate {}", m.mean_rate());
        assert_eq!(m.interarrival_family(), "exponential");
        let mut rng = Rng64::new(1);
        // Reads: 1 KB request header in, 64 KB payload out.
        let mean_in: f64 =
            (0..500).map(|_| m.sample_in_size(&mut rng) as f64).sum::<f64>() / 500.0;
        assert!((mean_in - 1024.0).abs() < 1.0, "in {mean_in}");
        let mean_out: f64 =
            (0..500).map(|_| m.sample_out_size(&mut rng) as f64).sum::<f64>() / 500.0;
        assert!((mean_out - 65536.0).abs() < 1.0, "out {mean_out}");
        // Generated gaps reproduce the rate.
        let mean_gap: f64 = (0..2000).map(|_| m.sample_gap(&mut rng)).sum::<f64>() / 2000.0;
        assert!((1.0 / mean_gap - 50.0).abs() < 6.0, "gen rate {}", 1.0 / mean_gap);
    }

    #[test]
    fn cpu_model_busy_times_match() {
        let obs = observations(WorkloadMix::read_heavy(), 1000);
        let m = CpuChainModel::fit(&obs).unwrap();
        let orig_mean: f64 =
            obs.iter().map(|o| o.cpu_busy_nanos as f64).sum::<f64>() / obs.len() as f64;
        let mut rng = Rng64::new(2);
        let mut state = m.initial(&mut rng);
        let mut total = 0u64;
        let n = 2000;
        for _ in 0..n {
            let (next, busy) = m.next(state, &mut rng);
            state = next;
            total += busy;
        }
        let gen_mean = total as f64 / n as f64;
        assert!(
            (gen_mean - orig_mean).abs() / orig_mean < 0.1,
            "orig {orig_mean} gen {gen_mean}"
        );
    }

    #[test]
    fn memory_model_banks_and_ops() {
        let obs = observations(WorkloadMix::read_heavy(), 1000);
        let m = MemoryChainModel::fit(&obs).unwrap();
        assert!(m.n_banks() <= 8);
        assert_eq!(m.read_fraction(), 1.0);
        let mut rng = Rng64::new(3);
        let mut state = m.initial(&mut rng);
        for _ in 0..200 {
            let (bank, size, op) = m.next(state, &mut rng);
            assert!(bank < m.n_banks());
            assert_eq!(size, 16 * 1024);
            assert_eq!(op, IoOp::Read);
            state = bank;
        }
    }

    #[test]
    fn storage_model_locality_preserved() {
        // Handcrafted stream: long runs in a low region then a high region
        // of the LBN space. The bucket chain must learn that stickiness.
        use kooza_trace::record::{Direction, NetworkRecord, StorageRecord};
        use kooza_trace::{Span, SpanId, TraceId};
        let mut rng = Rng64::new(4);
        let mut trace = TraceSet::new();
        let mut region_low = true;
        for i in 0..2000u64 {
            if rng.chance(0.02) {
                region_low = !region_low;
            }
            let lbn = if region_low {
                rng.next_bounded(1_000_000)
            } else {
                900_000_000 + rng.next_bounded(1_000_000)
            };
            // One request a millisecond: a root and its one disk phase,
            // an ingress record and one 64 KB read at `lbn`.
            let (t, at) = (TraceId(i), i * 1_000_000);
            trace.spans.push(Span::new(t, SpanId(0), None, "request", at, at + 5_000_000));
            trace.spans.push(Span::new(t, SpanId(1), Some(SpanId(0)), "disk", at, at + 4_000_000));
            let (ts_nanos, request_id) = (at, i);
            let direction = Direction::Ingress;
            trace.network.push(NetworkRecord { ts_nanos, size: 1024, direction, request_id });
            let op = IoOp::Read;
            trace.storage.push(StorageRecord { ts_nanos, lbn, size: 65536, op, request_id });
        }
        let m = StorageChainModel::fit(&assemble_observations(&trace).unwrap()).unwrap();
        // Generated sequences stay in one region for long runs: successive
        // accesses land in the same half of the LBN space ≥ 90% of steps.
        let mut state = m.initial(&mut rng);
        let mut prev_low: Option<bool> = None;
        let mut same = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            let (bucket, lbn, size, op) = m.next(state, &mut rng);
            assert!(bucket < LBN_BUCKETS);
            assert_eq!(size, 65536);
            assert_eq!(op, IoOp::Read);
            state = bucket;
            let low = lbn < 450_000_000;
            if let Some(p) = prev_low {
                total += 1;
                if p == low {
                    same += 1;
                }
            }
            prev_low = Some(low);
        }
        let frac = same as f64 / total as f64;
        assert!(frac > 0.9, "same-region fraction {frac}");
    }

    #[test]
    fn models_error_on_missing_streams() {
        // Write-heavy with full cache coverage never happens; instead use
        // an empty observation list and a list with no storage records.
        assert!(NetworkModel::fit(&Observations::default()).is_err());
        assert!(CpuChainModel::fit(&Observations::default()).is_err());
        let mut trace = trace(WorkloadMix::read_heavy(), 20);
        trace.storage.clear();
        trace.memory.clear();
        let obs = assemble_observations(&trace).unwrap();
        assert!(StorageChainModel::fit(&obs).is_err());
        assert!(MemoryChainModel::fit(&obs).is_err());
    }

    #[test]
    fn parameter_counts_positive() {
        let obs = observations(WorkloadMix::mixed(), 500);
        assert!(NetworkModel::fit(&obs).unwrap().parameter_count() > 0);
        assert!(CpuChainModel::fit(&obs).unwrap().parameter_count() > 0);
        assert!(MemoryChainModel::fit(&obs).unwrap().parameter_count() > 0);
        assert!(StorageChainModel::fit(&obs).unwrap().parameter_count() > 0);
    }
}

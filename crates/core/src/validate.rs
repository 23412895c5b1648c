//! Table-2-style validation: request features and latency, original vs
//! synthetic.
//!
//! The paper's Table 2 compares, per user request class, the network
//! request size, CPU utilization, memory size/type, storage size/type, and
//! latency of original vs KOOZA-generated requests, reporting ≤1%
//! variation on features and ≤6.6% on latency.
//!
//! [`fault_drift`] extends the harness to faulty clusters: it trains KOOZA
//! on a healthy trace and on a fault-injected trace of the same workload,
//! validates both, and reports how much each Table-2 error moves — the
//! robustness question the paper's healthy-cluster setup leaves open.

use kooza_gfs::{Cluster, ClusterConfig, FaultSpec, FaultStats};
use kooza_sim::rng::Rng64;
use kooza_trace::record::IoOp;
use kooza_trace::TraceSet;

use crate::class::{assemble_observations, Observations};
use crate::kooza::KoozaOptions;
use crate::replay::{replay_loaded_latency_secs, ReplayConfig};
use crate::{Kooza, SyntheticRequest, WorkloadModel};

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Subsystem the metric belongs to.
    pub subsystem: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Original (trace) value.
    pub original: f64,
    /// Synthetic (model) value.
    pub synthetic: f64,
    /// Variation: relative % for sizes/latency, percentage points for
    /// utilizations and fractions.
    pub variation: f64,
    /// Unit label for display.
    pub unit: &'static str,
}

/// The full validation report for one model on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Model name.
    pub model: String,
    /// Compared metrics.
    pub rows: Vec<ValidationRow>,
}

impl ValidationReport {
    /// Worst feature variation (all rows except latency).
    pub fn max_feature_variation(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.metric != "latency")
            .map(|r| r.variation)
            .fold(0.0, f64::max)
    }

    /// Latency variation (%), if measured.
    pub fn latency_variation(&self) -> Option<f64> {
        self.rows.iter().find(|r| r.metric == "latency").map(|r| r.variation)
    }

    /// Renders an aligned text table (what the experiment binaries print).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<22} {:>16} {:>16} {:>12}\n",
            "Subsystem", "Metric", "Original", "Synthetic", "Variation"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<22} {:>12.4} {:<3} {:>12.4} {:<3} {:>10.2}{}\n",
                r.subsystem,
                r.metric,
                r.original,
                r.unit,
                r.synthetic,
                r.unit,
                r.variation,
                if r.metric == "latency" || r.unit == "B" || r.unit == "ms" { "%" } else { "pp" },
            ));
        }
        out
    }
}

fn mean<I: Iterator<Item = f64>>(iter: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for x in iter {
        sum += x;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

fn rel_variation(original: f64, synthetic: f64) -> f64 {
    if original == 0.0 {
        if synthetic == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        (synthetic - original).abs() / original.abs() * 100.0
    }
}

/// Validates a model's synthetic requests against the original
/// observations, replaying synthetics through `replay_config` for latency.
///
/// NaN synthetic values (a model that generates no such feature, like the
/// in-depth baseline) yield a 100% variation for that row.
pub fn validate(
    model: &dyn WorkloadModel,
    observations: &Observations,
    synthetic: &[SyntheticRequest],
    replay_config: ReplayConfig,
) -> ValidationReport {
    kooza_obs::global::counter_add("validate.cases", 1);
    kooza_obs::global::stage("validate", || {
        validate_impl(model, observations, synthetic, replay_config)
    })
}

fn validate_impl(
    model: &dyn WorkloadModel,
    observations: &Observations,
    synthetic: &[SyntheticRequest],
    replay_config: ReplayConfig,
) -> ValidationReport {
    let mut rows = Vec::new();

    // Network request size: the payload (max of ingress/egress wire
    // sizes), matching the paper's Table 2 where a 64 KB read's network
    // request size is 64 KB even though only the response carries it.
    let orig_net = mean(
        observations
            .iter()
            .map(|o| o.network_in_bytes.max(o.network_out_bytes) as f64),
    );
    let synth_net = mean(synthetic.iter().map(|r| r.payload_bytes() as f64));
    rows.push(ValidationRow {
        subsystem: "network",
        metric: "request size",
        original: orig_net,
        synthetic: synth_net,
        variation: rel_variation(orig_net, synth_net),
        unit: "B",
    });

    // Latency: original from span roots; synthetic via replay.
    let orig_latency = mean(observations.iter().map(|o| o.latency_nanos as f64 / 1e6));
    let replayed = replay_loaded_latency_secs(synthetic, replay_config);
    let synth_latency = mean(replayed.iter().map(|s| s * 1e3));

    // CPU utilization: busy over lifetime.
    let orig_util = mean(observations.iter().map(|o| o.cpu_utilization)) * 100.0;
    let synth_util = {
        let busies: Vec<f64> = synthetic.iter().map(|r| r.cpu_busy_nanos() as f64 / 1e9).collect();
        let utils: Vec<f64> = busies
            .iter()
            .zip(&replayed)
            .filter(|(_, &l)| l > 0.0)
            .map(|(&b, &l)| b / l)
            .collect();
        if utils.is_empty() {
            f64::NAN
        } else {
            mean(utils.into_iter()) * 100.0
        }
    };
    rows.push(ValidationRow {
        subsystem: "processor",
        metric: "cpu utilization",
        original: orig_util,
        synthetic: if synth_util.is_nan() { 0.0 } else { synth_util },
        variation: if synth_util.is_nan() {
            orig_util
        } else {
            (synth_util - orig_util).abs()
        },
        unit: "%",
    });

    // Memory size and type.
    let orig_mem = mean(
        observations
            .iter()
            .filter(|o| !o.memory.is_empty())
            .map(|o| o.memory.iter().map(|m| m.1 as f64).sum::<f64>()),
    );
    let synth_mem = mean(
        synthetic
            .iter()
            .filter_map(|r| r.memory_demand().map(|(b, _)| b as f64)),
    );
    rows.push(ValidationRow {
        subsystem: "memory",
        metric: "size",
        original: nan_to(orig_mem, 0.0),
        synthetic: nan_to(synth_mem, 0.0),
        variation: if synth_mem.is_nan() || orig_mem.is_nan() {
            if orig_mem.is_nan() && synth_mem.is_nan() { 0.0 } else { 100.0 }
        } else {
            rel_variation(orig_mem, synth_mem)
        },
        unit: "B",
    });
    let orig_mem_read = mean(
        observations
            .iter()
            .flat_map(|o| o.memory.iter())
            .map(|m| (m.2 == IoOp::Read) as u8 as f64),
    ) * 100.0;
    let synth_mem_read = mean(
        synthetic
            .iter()
            .filter_map(|r| r.memory_demand().map(|(_, op)| (op == IoOp::Read) as u8 as f64)),
    ) * 100.0;
    rows.push(ValidationRow {
        subsystem: "memory",
        metric: "read fraction",
        original: nan_to(orig_mem_read, 0.0),
        synthetic: nan_to(synth_mem_read, 0.0),
        variation: (nan_to(synth_mem_read, 0.0) - nan_to(orig_mem_read, 0.0)).abs(),
        unit: "%",
    });

    // Storage size and type.
    let orig_disk = mean(
        observations
            .iter()
            .filter(|o| !o.storage.is_empty())
            .map(|o| o.storage.iter().map(|s| s.1 as f64).sum::<f64>()),
    );
    let synth_disk = mean(
        synthetic
            .iter()
            .filter_map(|r| r.disk_demand().map(|(b, _)| b as f64)),
    );
    rows.push(ValidationRow {
        subsystem: "storage",
        metric: "size",
        original: nan_to(orig_disk, 0.0),
        synthetic: nan_to(synth_disk, 0.0),
        variation: if synth_disk.is_nan() || orig_disk.is_nan() {
            if orig_disk.is_nan() && synth_disk.is_nan() { 0.0 } else { 100.0 }
        } else {
            rel_variation(orig_disk, synth_disk)
        },
        unit: "B",
    });
    let orig_disk_read = mean(
        observations
            .iter()
            .flat_map(|o| o.storage.iter())
            .map(|s| (s.2 == IoOp::Read) as u8 as f64),
    ) * 100.0;
    let synth_disk_read = mean(
        synthetic
            .iter()
            .filter_map(|r| r.disk_demand().map(|(_, op)| (op == IoOp::Read) as u8 as f64)),
    ) * 100.0;
    rows.push(ValidationRow {
        subsystem: "storage",
        metric: "read fraction",
        original: nan_to(orig_disk_read, 0.0),
        synthetic: nan_to(synth_disk_read, 0.0),
        variation: (nan_to(synth_disk_read, 0.0) - nan_to(orig_disk_read, 0.0)).abs(),
        unit: "%",
    });

    rows.push(ValidationRow {
        subsystem: "perf",
        metric: "latency",
        original: orig_latency,
        synthetic: synth_latency,
        variation: rel_variation(orig_latency, synth_latency),
        unit: "ms",
    });

    ValidationReport {
        model: model.name().to_string(),
        rows,
    }
}

fn nan_to(x: f64, fallback: f64) -> f64 {
    if x.is_nan() {
        fallback
    } else {
        x
    }
}

/// One metric's movement between the healthy and faulty validations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDriftRow {
    /// Subsystem the metric belongs to.
    pub subsystem: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Validation variation when trained on the healthy trace.
    pub healthy_variation: f64,
    /// Validation variation when trained on the faulty trace.
    pub faulty_variation: f64,
    /// `faulty - healthy`: positive means faults made the model worse.
    pub drift: f64,
}

/// How KOOZA's Table-2 errors move when its training trace comes from a
/// fault-injected cluster instead of a healthy one.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDriftReport {
    /// Validation of the model trained on the healthy trace.
    pub healthy: ValidationReport,
    /// Validation of the model trained on the faulty trace.
    pub faulty: ValidationReport,
    /// Fault counters of the faulty run (evidence faults actually fired).
    pub fault_stats: FaultStats,
    /// Requests the healthy run completed.
    pub healthy_completed: u64,
    /// Requests the faulty run completed (failures excluded).
    pub faulty_completed: u64,
}

impl FaultDriftReport {
    /// Per-metric drift, pairing rows by (subsystem, metric).
    pub fn drift_rows(&self) -> Vec<FaultDriftRow> {
        self.healthy
            .rows
            .iter()
            .filter_map(|h| {
                let f = self
                    .faulty
                    .rows
                    .iter()
                    .find(|f| f.subsystem == h.subsystem && f.metric == h.metric)?;
                Some(FaultDriftRow {
                    subsystem: h.subsystem,
                    metric: h.metric,
                    healthy_variation: h.variation,
                    faulty_variation: f.variation,
                    drift: f.variation - h.variation,
                })
            })
            .collect()
    }

    /// Worst absolute feature drift (all rows except latency).
    pub fn max_feature_drift(&self) -> f64 {
        self.drift_rows()
            .iter()
            .filter(|r| r.metric != "latency")
            .map(|r| r.drift.abs())
            .fold(0.0, f64::max)
    }

    /// Latency drift, if both sides measured it.
    pub fn latency_drift(&self) -> Option<f64> {
        self.drift_rows().iter().find(|r| r.metric == "latency").map(|r| r.drift)
    }

    /// Renders the drift table plus a fault summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<22} {:>12} {:>12} {:>10}\n",
            "Subsystem", "Metric", "Healthy", "Faulty", "Drift"
        ));
        for r in self.drift_rows() {
            out.push_str(&format!(
                "{:<10} {:<22} {:>11.2}% {:>11.2}% {:>+9.2}%\n",
                r.subsystem, r.metric, r.healthy_variation, r.faulty_variation, r.drift,
            ));
        }
        let f = &self.fault_stats;
        out.push_str(&format!(
            "faults: {} crashes, {} retries, {} failovers, {} re-replications, \
             {} failed requests ({}/{} completed)\n",
            f.crashes,
            f.retries,
            f.failovers,
            f.rereplications,
            f.requests_failed,
            self.faulty_completed,
            self.healthy_completed,
        ));
        out
    }
}

/// Trains and validates KOOZA on one trace (one side of the drift report).
fn fit_and_validate(
    trace: &TraceSet,
    replay_config: ReplayConfig,
    seed: u64,
) -> crate::Result<ValidationReport> {
    let obs = assemble_observations(trace)?;
    let model = Kooza::fit_observations(&obs, KoozaOptions::default())?;
    let mut rng = Rng64::new(seed ^ 0x5EED_FA17);
    let synthetic = model.generate(obs.len(), &mut rng);
    Ok(validate(&model, &obs, &synthetic, replay_config))
}

/// Runs the same workload on a healthy and a fault-injected cluster,
/// trains KOOZA on both traces, validates both models, and reports the
/// per-metric error drift. Both runs share `config` (minus the fault spec)
/// and the workload seed, so the drift isolates the effect of the faults.
///
/// # Errors
///
/// Returns [`crate::ModelError::Cluster`] for an invalid configuration or
/// fault spec, or a training error if a trace is too damaged to fit (for
/// example, every request failed).
pub fn fault_drift(
    config: &ClusterConfig,
    faults: FaultSpec,
    n_requests: u64,
    seed: u64,
) -> crate::Result<FaultDriftReport> {
    kooza_obs::global::counter_add("validate.fault_drift.cases", 1);
    kooza_obs::global::stage("fault_drift", || {
        let mut healthy_cfg = config.clone();
        healthy_cfg.faults = None;
        let mut faulty_cfg = config.clone();
        faulty_cfg.faults = Some(faults);
        let healthy = Cluster::new(&healthy_cfg)?.run(n_requests, seed);
        let faulty = Cluster::new(&faulty_cfg)?.run(n_requests, seed);
        let replay_config = ReplayConfig::from(config);
        Ok(FaultDriftReport {
            healthy: fit_and_validate(&healthy.trace, replay_config, seed)?,
            faulty: fit_and_validate(&faulty.trace, replay_config, seed)?,
            fault_stats: faulty.stats.faults,
            healthy_completed: healthy.stats.completed,
            faulty_completed: faulty.stats.completed,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::assemble_observations;
    use crate::{InDepthModel, Kooza};
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
    use kooza_sim::rng::Rng64;

    fn setup(mix: WorkloadMix, n: u64, seed: u64) -> (ClusterConfig, kooza_trace::TraceSet) {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        let trace = Cluster::new(&config).unwrap().run(n, seed).trace;
        (config, trace)
    }

    #[test]
    fn kooza_validates_read_class_within_paper_bounds() {
        // The Table 2 claim: features within ~1%, latency within ~7%.
        let (config, trace) = setup(WorkloadMix::read_heavy(), 1500, 81);
        let obs = assemble_observations(&trace).unwrap();
        let model = Kooza::fit(&trace).unwrap();
        let mut rng = Rng64::new(82);
        let synthetic = model.generate(1500, &mut rng);
        let report = validate(&model, &obs, &synthetic, ReplayConfig::from(&config));
        assert!(
            report.max_feature_variation() < 2.0,
            "feature variation {}\n{}",
            report.max_feature_variation(),
            report.render()
        );
        let lat = report.latency_variation().unwrap();
        assert!(lat < 15.0, "latency variation {lat}\n{}", report.render());
    }

    #[test]
    fn kooza_validates_write_class() {
        let (config, trace) = setup(WorkloadMix::write_heavy(), 800, 83);
        let obs = assemble_observations(&trace).unwrap();
        let model = Kooza::fit(&trace).unwrap();
        let mut rng = Rng64::new(84);
        let synthetic = model.generate(800, &mut rng);
        let report = validate(&model, &obs, &synthetic, ReplayConfig::from(&config));
        assert!(
            report.max_feature_variation() < 2.0,
            "feature variation {}\n{}",
            report.max_feature_variation(),
            report.render()
        );
    }

    #[test]
    fn indepth_fails_feature_validation() {
        let (config, trace) = setup(WorkloadMix::read_heavy(), 500, 85);
        let obs = assemble_observations(&trace).unwrap();
        let model = InDepthModel::fit(&trace).unwrap();
        let mut rng = Rng64::new(86);
        let synthetic = model.generate(500, &mut rng);
        let report = validate(&model, &obs, &synthetic, ReplayConfig::from(&config));
        // No features generated → ~100% variation on sizes.
        assert!(report.max_feature_variation() > 50.0);
        // But latency is still close (it captures time dependencies).
        let lat = report.latency_variation().unwrap();
        assert!(lat < 15.0, "latency variation {lat}");
    }

    #[test]
    fn fault_drift_compares_healthy_and_faulty_training() {
        let mut config = ClusterConfig::cluster(4);
        config.workload = WorkloadMix::mixed();
        config.workload.mean_interarrival_secs = 0.1;
        let faults =
            kooza_gfs::FaultSpec::parse("mttf=3,mttr=0.5,timeout=0.4,retries=10").unwrap();
        let report = fault_drift(&config, faults, 600, 91).unwrap();
        assert!(report.fault_stats.crashes > 0, "{:?}", report.fault_stats);
        assert_eq!(report.healthy_completed, 600);
        let rows = report.drift_rows();
        assert_eq!(rows.len(), report.healthy.rows.len(), "every metric paired");
        for r in &rows {
            assert!(
                (r.faulty_variation - r.healthy_variation - r.drift).abs() < 1e-9,
                "drift arithmetic broken for {}/{}",
                r.subsystem,
                r.metric
            );
        }
        assert!(report.latency_drift().is_some());
        let text = report.render();
        assert!(text.contains("Drift") && text.contains("crashes"), "{text}");
    }

    #[test]
    fn fault_drift_is_deterministic() {
        let mut config = ClusterConfig::cluster(3);
        config.workload = WorkloadMix::mixed();
        config.workload.mean_interarrival_secs = 0.1;
        let faults = kooza_gfs::FaultSpec::parse("mttf=4,mttr=0.5").unwrap();
        let a = fault_drift(&config, faults, 400, 93).unwrap();
        let b = fault_drift(&config, faults, 400, 93).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn render_contains_all_rows() {
        let (config, trace) = setup(WorkloadMix::read_heavy(), 300, 87);
        let obs = assemble_observations(&trace).unwrap();
        let model = Kooza::fit(&trace).unwrap();
        let mut rng = Rng64::new(88);
        let synthetic = model.generate(300, &mut rng);
        let report = validate(&model, &obs, &synthetic, ReplayConfig::from(&config));
        let text = report.render();
        for needle in ["network", "processor", "memory", "storage", "latency"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}

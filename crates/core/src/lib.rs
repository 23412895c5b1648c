//! KOOZA: a combined datacenter workload model.
//!
//! The paper's §4 proposes a model that bridges in-breadth (per-subsystem)
//! and in-depth (request-tracing) approaches: per server, four simple
//! models — Markov chains for storage, CPU and memory, a queueing model for
//! the network — plus a configurable *time-dependency queue* that encodes
//! the application's structure (the order in which each model becomes
//! active).
//!
//! This crate implements that design, the two baseline families it is
//! cross-examined against, and the harnesses for the paper's Tables 1–2:
//!
//! * [`Kooza`] — the combined model (the paper's contribution).
//! * [`InBreadthModel`] — four per-subsystem models with **no** structure:
//!   subsystems are sampled independently and arranged in a fixed,
//!   assumed order.
//! * [`InDepthModel`] — a queueing/tracing model: request classes and
//!   per-phase *durations*, but no subsystem features.
//! * [`validate`] — Table-2-style feature/latency validation.
//! * [`crossexam`] — the quantitative Table-1 cross-examination.
//! * [`replay`] — replays synthetic requests through the same hardware
//!   models that produced the training traces, yielding latencies.
//! * [`power`] — the §5 extension: a per-subsystem server power model
//!   driven by synthetic workloads (only feature-bearing models can use
//!   it — the in-depth family's limitation, mechanized).
//! * [`fleet`] — multiple model instances, one per server (§4's scaling
//!   path to real-application scenarios).
//!
//! # Quickstart
//!
//! ```
//! use kooza::{Kooza, WorkloadModel};
//! use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
//! use kooza_sim::rng::Rng64;
//!
//! // 1. Produce a training trace from the GFS simulator.
//! let mut config = ClusterConfig::small();
//! config.workload = WorkloadMix::read_heavy();
//! let outcome = Cluster::new(&config)?.run(500, 1);
//!
//! // 2. Train KOOZA on it.
//! let model = Kooza::fit(&outcome.trace)?;
//!
//! // 3. Generate synthetic requests with the same behaviour.
//! let mut rng = Rng64::new(2);
//! let synthetic = model.generate(100, &mut rng);
//! assert_eq!(synthetic.len(), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod class;
pub mod crossexam;
pub mod fleet;
pub mod inbreadth;
pub mod indepth;
pub mod kooza;
pub mod power;
pub mod replay;
pub mod structure;
pub mod subsystem;
pub mod validate;

pub use crate::kooza::Kooza;
pub use class::{ClassSignature, ObservedPhase, Observations, PhaseId, RequestObservation};
pub use fleet::KoozaFleet;
pub use inbreadth::InBreadthModel;
pub use indepth::InDepthModel;
pub use replay::{replay_loaded_latency_secs, ReplayConfig};
pub use validate::{fault_drift, FaultDriftReport, FaultDriftRow};

use kooza_sim::rng::Rng64;
use kooza_trace::record::IoOp;

/// One resource demand inside a synthetic request, in structural order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseDemand {
    /// Request arrives over the network.
    NetworkIn {
        /// Payload bytes.
        bytes: u64,
    },
    /// CPU processing.
    Cpu {
        /// Busy time in nanoseconds.
        busy_nanos: u64,
    },
    /// Memory traffic.
    Memory {
        /// Bank accessed.
        bank: u32,
        /// Bytes moved.
        bytes: u64,
        /// Access type.
        op: IoOp,
    },
    /// Disk I/O.
    Disk {
        /// Starting logical block.
        lbn: u64,
        /// Bytes moved.
        bytes: u64,
        /// Access type.
        op: IoOp,
    },
    /// Response leaves over the network.
    NetworkOut {
        /// Payload bytes.
        bytes: u64,
    },
    /// An opaque timed phase (used by in-depth models, which know the
    /// duration of a step but not its resource content).
    Opaque {
        /// Phase duration in nanoseconds.
        duration_nanos: u64,
    },
}

/// A synthetic request produced by a workload model.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticRequest {
    /// Gap to the previous request, seconds.
    pub interarrival_secs: f64,
    /// Resource demands in execution order.
    pub phases: Vec<PhaseDemand>,
}

impl SyntheticRequest {
    /// Total network ingress bytes.
    pub fn network_in_bytes(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| match p {
                PhaseDemand::NetworkIn { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total network egress bytes.
    pub fn network_out_bytes(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| match p {
                PhaseDemand::NetworkOut { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// The request's network payload: the larger of ingress and egress
    /// wire sizes (a read's payload crosses on egress, a write's on
    /// ingress) — the paper's Table-2 "network request size".
    pub fn payload_bytes(&self) -> u64 {
        self.network_in_bytes().max(self.network_out_bytes())
    }

    /// Total CPU busy nanoseconds.
    pub fn cpu_busy_nanos(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| match p {
                PhaseDemand::Cpu { busy_nanos } => *busy_nanos,
                _ => 0,
            })
            .sum()
    }

    /// Total memory bytes with the dominant op, if any memory phase exists.
    pub fn memory_demand(&self) -> Option<(u64, IoOp)> {
        self.demand(|p| match p {
            PhaseDemand::Memory { bytes, op, .. } => Some((*bytes, *op)),
            _ => None,
        })
    }

    /// Total disk bytes with the dominant op, if any disk phase exists.
    pub fn disk_demand(&self) -> Option<(u64, IoOp)> {
        self.demand(|p| match p {
            PhaseDemand::Disk { bytes, op, .. } => Some((*bytes, *op)),
            _ => None,
        })
    }

    /// Sums the bytes of phases matched by `pick`; the op of the *first*
    /// matching phase wins (the request's dominant access type). `None`
    /// when no phase matches.
    fn demand(&self, pick: impl Fn(&PhaseDemand) -> Option<(u64, IoOp)>) -> Option<(u64, IoOp)> {
        let mut bytes = 0;
        let mut op = None;
        for p in &self.phases {
            if let Some((b, o)) = pick(p) {
                bytes += b;
                op.get_or_insert(o);
            }
        }
        op.map(|o| (bytes, o))
    }
}

/// A trained workload model that can generate synthetic requests.
///
/// The three families the paper cross-examines all implement this; the
/// validation and cross-examination harnesses are written once against it.
///
/// `Sync` is part of the contract: the cross-examination harness hands
/// `&dyn WorkloadModel` references to `kooza-exec` worker threads, one
/// model family per task.
pub trait WorkloadModel: std::fmt::Debug + Sync {
    /// Model family name (`"kooza"`, `"in-breadth"`, `"in-depth"`).
    fn name(&self) -> &'static str;

    /// Generates `n` synthetic requests.
    fn generate(&self, n: usize, rng: &mut Rng64) -> Vec<SyntheticRequest>;

    /// Whether the family models per-subsystem request features (Table 1,
    /// column "Request Features").
    fn captures_request_features(&self) -> bool;

    /// Whether the family models the order of execution through the
    /// system (Table 1, column "Time Dependencies").
    fn captures_time_dependencies(&self) -> bool;

    /// Number of free parameters in the trained model (Table 1,
    /// "Ease-of-Use" is a function of model complexity).
    fn parameter_count(&self) -> usize;
}

/// Errors from model training.
#[derive(Debug)]
pub enum ModelError {
    /// The training trace lacked a required record stream.
    MissingStream(&'static str),
    /// Too few complete requests to train on.
    InsufficientRequests {
        /// Minimum required.
        needed: usize,
        /// Found in the trace.
        got: usize,
    },
    /// An underlying statistical routine failed.
    Stats(kooza_stats::StatsError),
    /// An underlying Markov routine failed.
    Markov(kooza_markov::MarkovError),
    /// A cluster simulation inside a harness rejected its configuration.
    Cluster(kooza_gfs::GfsError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::MissingStream(s) => write!(f, "training trace has no {s} records"),
            ModelError::InsufficientRequests { needed, got } => {
                write!(f, "need at least {needed} complete requests, found {got}")
            }
            ModelError::Stats(e) => write!(f, "statistics failure: {e}"),
            ModelError::Markov(e) => write!(f, "markov failure: {e}"),
            ModelError::Cluster(e) => write!(f, "cluster simulation failure: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Stats(e) => Some(e),
            ModelError::Markov(e) => Some(e),
            ModelError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kooza_gfs::GfsError> for ModelError {
    fn from(e: kooza_gfs::GfsError) -> Self {
        ModelError::Cluster(e)
    }
}

impl From<kooza_stats::StatsError> for ModelError {
    fn from(e: kooza_stats::StatsError) -> Self {
        ModelError::Stats(e)
    }
}

impl From<kooza_markov::MarkovError> for ModelError {
    fn from(e: kooza_markov::MarkovError) -> Self {
        ModelError::Markov(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_sums_bytes_and_first_op_wins() {
        // Pins the accumulation semantics shared by memory_demand and
        // disk_demand: bytes sum across matching phases, the first
        // matching phase's op is the reported (dominant) op, and phases
        // of other kinds are ignored.
        let req = SyntheticRequest {
            interarrival_secs: 0.0,
            phases: vec![
                PhaseDemand::NetworkIn { bytes: 1024 },
                PhaseDemand::Memory { bank: 0, bytes: 100, op: IoOp::Write },
                PhaseDemand::Disk { lbn: 7, bytes: 4096, op: IoOp::Read },
                PhaseDemand::Memory { bank: 1, bytes: 28, op: IoOp::Read },
                PhaseDemand::Disk { lbn: 8, bytes: 512, op: IoOp::Write },
                PhaseDemand::NetworkOut { bytes: 2048 },
            ],
        };
        assert_eq!(req.memory_demand(), Some((128, IoOp::Write)));
        assert_eq!(req.disk_demand(), Some((4608, IoOp::Read)));

        let no_io = SyntheticRequest {
            interarrival_secs: 0.0,
            phases: vec![
                PhaseDemand::NetworkIn { bytes: 1024 },
                PhaseDemand::Cpu { busy_nanos: 10 },
                PhaseDemand::Opaque { duration_nanos: 20 },
            ],
        };
        assert_eq!(no_io.memory_demand(), None);
        assert_eq!(no_io.disk_demand(), None);
        assert_eq!(no_io.payload_bytes(), 1024);
    }
}

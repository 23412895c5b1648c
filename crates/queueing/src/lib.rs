//! Queueing substrate: arrival processes, analytic queues, simulated
//! queueing networks, closed-network analysis and SQS-style sampled
//! simulation.
//!
//! No model depends on it: KOOZA and both baselines fit their network
//! model with `kooza-stats`' `FitPipeline`. The extended experiments, the
//! micro bench and the property tests use it:
//!
//! * [`arrival`] — Poisson, renewal, Markov-modulated (MMPP) and
//!   SURGE-style user-equivalent arrival processes.
//! * [`analytic`] — closed forms for M/M/1, M/M/c (Erlang-C) and M/G/1
//!   (Pollaczek–Khinchine).
//! * [`network`] — an event-driven open queueing-network simulator.
//! * [`mva`] — exact Mean Value Analysis for closed networks and the
//!   Kingman G/G/1 approximation.
//! * [`sqs`] — Meisner et al.'s stochastic queueing simulation: empirical
//!   characterization plus sampled simulation.

// Indexed loops are the clearer idiom in the numerical kernels below.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod arrival;
pub mod mva;
pub mod network;
pub mod sqs;

/// Errors from queueing-model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// Offered load meets or exceeds capacity; steady state does not exist.
    Unstable {
        /// Offered utilization ρ.
        rho: f64,
    },
    /// A parameter was out of its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Structural problem in a network/model description.
    InvalidTopology(String),
    /// Not enough data for characterization.
    InsufficientData {
        /// Minimum required.
        needed: usize,
        /// Provided.
        got: usize,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Unstable { rho } => write!(f, "queue unstable at utilization {rho}"),
            QueueError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            QueueError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            QueueError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueueError>;

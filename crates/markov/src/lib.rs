//! Markov modeling substrate.
//!
//! KOOZA's storage, CPU and memory models are Markov chains trained on
//! per-subsystem traces "because we want to capture the sequence of states
//! and the probabilities of switching between them" (§4). This crate
//! provides:
//!
//! * [`MarkovChain`] — first-order discrete chains: training by transition
//!   counting with Laplace smoothing, generation, stationary distribution
//!   and log-likelihood scoring.
//! * [`GaussianHmm`] — a hidden Markov model with Gaussian emissions and
//!   Baum–Welch training: the simplified form of Moro et al.'s Ergodic
//!   Continuous HMM memory model.
//!
//! # Example
//!
//! ```
//! use kooza_markov::MarkovChainBuilder;
//! use kooza_sim::rng::Rng64;
//!
//! // Train on an alternating sequence; the chain learns the alternation.
//! let seq = [0usize, 1, 0, 1, 0, 1, 0, 1, 0, 1];
//! let chain = MarkovChainBuilder::new(2).observe_sequence(&seq).build()?;
//! assert!(chain.transition_probability(0, 1) > 0.8);
//! let mut rng = Rng64::new(1);
//! let generated = chain.generate(100, &mut rng);
//! assert_eq!(generated.len(), 100);
//! # Ok::<(), kooza_markov::MarkovError>(())
//! ```

// Indexed loops are the clearer idiom in the numerical kernels below.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chain;
mod hmm;

pub use chain::{MarkovChain, MarkovChainBuilder};
pub use hmm::{GaussianHmm, HmmFit};

/// Errors from Markov-model construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// A state or symbol index exceeded the declared space.
    StateOutOfRange {
        /// The offending index.
        state: usize,
        /// The number of valid states.
        n_states: usize,
    },
    /// The model was declared with an empty state space.
    EmptyStateSpace,
    /// A probability row did not sum to 1.
    NotStochastic {
        /// Row index.
        row: usize,
        /// Actual row sum.
        sum: f64,
    },
    /// Not enough observations to train.
    InsufficientData {
        /// Minimum needed.
        needed: usize,
        /// Provided.
        got: usize,
    },
    /// An iterative algorithm (power iteration, Baum–Welch) diverged or an
    /// input sequence had zero likelihood under the current model.
    NumericalFailure(&'static str),
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::StateOutOfRange { state, n_states } => {
                write!(f, "state {state} out of range for {n_states} states")
            }
            MarkovError::EmptyStateSpace => write!(f, "state space must be non-empty"),
            MarkovError::NotStochastic { row, sum } => {
                write!(f, "row {row} sums to {sum}, expected 1")
            }
            MarkovError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
            MarkovError::NumericalFailure(what) => write!(f, "numerical failure in {what}"),
        }
    }
}

impl std::error::Error for MarkovError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MarkovError>;

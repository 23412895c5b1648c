//! Statistics substrate for datacenter workload modeling.
//!
//! Everything KOOZA and its baseline models need, implemented from
//! scratch (the `statrs`/`linfa` ecosystems do not yet cover this pipeline):
//!
//! * [`dist`] — continuous and discrete distributions with analytic
//!   pdf/cdf/quantile and reproducible sampling.
//! * [`fit`] — maximum-likelihood fitting and a KS-ranked fitting pipeline,
//!   the methodology of Feitelson's workload-modeling survey.
//! * [`ks`] — one- and two-sample Kolmogorov–Smirnov tests.
//! * [`ad`] — the Anderson–Darling test (tail-sensitive second opinion).
//! * [`sorted`] — sort-once sample views for the fitting pipeline's
//!   candidate loop.
//! * [`acf`] — autocorrelation analysis and ACF-matching synthesis (Li's
//!   two-phase synthetic-workload generation).
//! * [`hurst`] — self-similarity (Hurst exponent) estimation via rescaled
//!   range and aggregated variance.
//! * [`pca`] — principal component analysis for feature-space reduction
//!   (Abrahao's CPU-pattern categorization; KOOZA §4).
//! * [`cluster`] — k-means and Gaussian-mixture model-based clustering.
//! * [`regression`] — the least-squares line fit behind [`hurst`].
//! * [`matrix`] — a small dense linear-algebra kernel backing the above.
//! * [`summary`] — percentiles, burstiness and dispersion measures.
//!
//! # Example: identify an arrival-time distribution
//!
//! ```
//! use kooza_sim::rng::Rng64;
//! use kooza_stats::dist::{Distribution, Exponential};
//! use kooza_stats::fit::FitPipeline;
//!
//! let mut rng = Rng64::new(1);
//! let exp = Exponential::new(4.0).unwrap();
//! let data: Vec<f64> = (0..2000).map(|_| exp.sample(&mut rng)).collect();
//! let report = FitPipeline::standard().run(&data).unwrap();
//! assert_eq!(report.best().family, "exponential");
//! ```

// Indexed loops are the clearer idiom in the numerical kernels below.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acf;
pub mod ad;
pub mod cluster;
pub mod dist;
pub mod fit;
pub mod hurst;
pub mod ks;
pub mod matrix;
pub mod pca;
pub mod regression;
pub mod sorted;
pub mod special;
pub mod summary;

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was out of its valid domain.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The input sample was empty or too small for the requested operation.
    InsufficientData {
        /// How many points are required.
        needed: usize,
        /// How many were provided.
        got: usize,
    },
    /// The input contained NaN or infinite values.
    NonFiniteData,
    /// An iterative algorithm failed to converge.
    NoConvergence {
        /// Name of the algorithm.
        what: &'static str,
    },
    /// Input did not satisfy a structural requirement (e.g. dimension mismatch).
    InvalidInput(String),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            StatsError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
            StatsError::NonFiniteData => write!(f, "input contains non-finite values"),
            StatsError::NoConvergence { what } => write!(f, "{what} failed to converge"),
            StatsError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

pub(crate) fn ensure_finite(data: &[f64]) -> Result<()> {
    if data.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(StatsError::NonFiniteData)
    }
}

pub(crate) fn ensure_len(data: &[f64], needed: usize) -> Result<()> {
    if data.len() < needed {
        Err(StatsError::InsufficientData {
            needed,
            got: data.len(),
        })
    } else {
        Ok(())
    }
}

//! Shared sorted-sample views for the goodness-of-fit hot path.
//!
//! Every KS/AD call clones and sorts its input, and the fitting pipeline
//! runs the one-sample KS test once per candidate family — so a seven-way
//! pipeline used to sort the same data seven times. [`SortedSample`] sorts
//! once; [`crate::ks::ks_one_sample_presorted`] borrows it, turning the
//! candidate loop into one sort plus O(k·n) scans.

use crate::{ensure_finite, ensure_len, Result};

/// An owned sample, validated (finite, non-empty) and sorted ascending.
///
/// The sort uses [`f64::total_cmp`], so construction never panics; NaN is
/// rejected up front as [`crate::StatsError::NonFiniteData`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSample {
    values: Vec<f64>,
}

impl SortedSample {
    /// Validates and sorts a copy of `data`.
    ///
    /// # Errors
    ///
    /// Errors on empty input or non-finite values.
    ///
    /// ```
    /// use kooza_stats::sorted::SortedSample;
    ///
    /// let s = SortedSample::new(&[3.0, 1.0, 2.0])?;
    /// assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    /// # Ok::<(), kooza_stats::StatsError>(())
    /// ```
    pub fn new(data: &[f64]) -> Result<Self> {
        ensure_len(data, 1)?;
        ensure_finite(data)?;
        Ok(Self::from_validated(data.to_vec()))
    }

    /// Sorts data the caller has already validated, skipping the checks.
    pub(crate) fn from_validated(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        SortedSample { values }
    }

    /// The sample values, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample size (construction guarantees at least one point).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: empty input is rejected at construction.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        self.values[self.values.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatsError;

    #[test]
    fn sorts_and_exposes_extremes() {
        let s = SortedSample::new(&[5.0, -1.0, 3.0, 0.5]).unwrap();
        assert_eq!(s.values(), &[-1.0, 0.5, 3.0, 5.0]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(matches!(
            SortedSample::new(&[]),
            Err(StatsError::InsufficientData { needed: 1, got: 0 })
        ));
        assert_eq!(SortedSample::new(&[1.0, f64::NAN]), Err(StatsError::NonFiniteData));
        assert_eq!(SortedSample::new(&[f64::INFINITY]), Err(StatsError::NonFiniteData));
    }
}

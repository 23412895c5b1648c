//! Descriptive summaries used throughout workload characterization:
//! percentiles, coefficient of variation and burstiness.

use crate::{ensure_finite, ensure_len, Result};

/// A full descriptive summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (p50).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes a summary of `data`.
    ///
    /// # Errors
    ///
    /// Errors on empty or non-finite input.
    pub fn of(data: &[f64]) -> Result<Self> {
        ensure_len(data, 1)?;
        ensure_finite(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Ok(Summary {
            count: n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }

    /// Coefficient of variation `σ / μ`; infinite if the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.std_dev / self.mean.abs()
        }
    }
}

/// Linear-interpolated percentile of already-sorted data (`p` in `[0, 100]`).
///
/// # Panics
///
/// Panics if `data` is empty or `p` is out of range.
pub fn percentile_sorted(data: &[f64], p: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of empty data");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100], got {p}");
    if data.len() == 1 {
        return data[0];
    }
    let rank = p / 100.0 * (data.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    data[lo] + (data[hi] - data[lo]) * frac
}

/// Linear-interpolated percentile of unsorted data.
///
/// # Panics
///
/// Panics if `data` is empty or `p` is out of range.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_sorted(&sorted, p)
}

/// Squared coefficient of variation of inter-arrival times — the classic
/// burstiness measure: 1 for Poisson, > 1 bursty, < 1 smooth.
///
/// # Errors
///
/// Errors with fewer than two inter-arrival times.
pub fn burstiness_cv2(interarrivals: &[f64]) -> Result<f64> {
    ensure_len(interarrivals, 2)?;
    ensure_finite(interarrivals)?;
    let s = Summary::of(interarrivals)?;
    let cv = s.cv();
    Ok(cv * cv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Exponential, Pareto};
    use kooza_sim::rng::Rng64;

    #[test]
    fn summary_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_point() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.median, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&data, 0.0), 10.0);
        assert_eq!(percentile(&data, 100.0), 40.0);
        assert_eq!(percentile(&data, 50.0), 25.0);
        // 25th: rank 0.75 → 10 + 0.75*10 = 17.5
        assert!((percentile(&data, 25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn poisson_interarrivals_have_cv2_near_one() {
        let d = Exponential::new(10.0).unwrap();
        let mut rng = Rng64::new(200);
        let gaps: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let b = burstiness_cv2(&gaps).unwrap();
        assert!((b - 1.0).abs() < 0.1, "cv² {b}");
    }

    #[test]
    fn heavy_tail_interarrivals_are_bursty() {
        let d = Pareto::new(0.1, 1.3).unwrap();
        let mut rng = Rng64::new(201);
        let gaps: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let b = burstiness_cv2(&gaps).unwrap();
        assert!(b > 2.0, "cv² {b}");
    }

    #[test]
    fn errors_on_tiny_input() {
        assert!(burstiness_cv2(&[1.0]).is_err());
    }
}

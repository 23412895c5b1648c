//! Descriptive summaries used throughout workload characterization:
//! percentiles, coefficient of variation, burstiness and dispersion indices.

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

/// Index of dispersion for counts (IDC) at a given window size: variance of
/// per-window event counts divided by their mean. IDC ≈ 1 for Poisson,
/// grows with window size for self-similar traffic.
///
/// `events` are event timestamps (seconds, monotone); `window` is the bin
/// width in the same unit.
///
/// # Errors
///
/// Errors if fewer than 2 windows are covered.
pub fn index_of_dispersion(events: &[f64], window: f64) -> Result<f64> {
    ensure_len(events, 2)?;
    ensure_finite(events)?;
    if window <= 0.0 {
        return Err(crate::StatsError::InvalidInput("window must be positive".into()));
    }
    let start = events[0];
    let end = events[events.len() - 1];
    let n_windows = ((end - start) / window).floor() as usize;
    if n_windows < 2 {
        return Err(crate::StatsError::InsufficientData { needed: 2, got: n_windows });
    }
    let mut counts = vec![0.0f64; n_windows];
    for &t in events {
        let idx = ((t - start) / window) as usize;
        if idx < n_windows {
            counts[idx] += 1.0;
        }
    }
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    if mean == 0.0 {
        return Ok(0.0);
    }
    let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (counts.len() - 1) as f64;
    Ok(var / mean)
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
    fn idc_poisson_near_one() {
        let d = Exponential::new(100.0).unwrap();
        let mut rng = Rng64::new(202);
        let mut t = 0.0;
        let events: Vec<f64> = (0..50_000)
            .map(|_| {
                t += d.sample(&mut rng);
                t
            })
            .collect();
        let idc = index_of_dispersion(&events, 1.0).unwrap();
        assert!((idc - 1.0).abs() < 0.3, "IDC {idc}");
    }

    #[test]
    fn errors_on_tiny_input() {
        assert!(burstiness_cv2(&[1.0]).is_err());
        assert!(index_of_dispersion(&[0.0, 0.5], 1.0).is_err());
    }
}

//! Self-similarity estimation: the Hurst exponent.
//!
//! Feitelson's characterization checklist (stationarity, self-similarity,
//! burstiness, heavy tails) needs a self-similarity measure; the two
//! classical estimators are implemented here:
//!
//! * [`hurst_rs`] — rescaled-range (R/S) analysis;
//! * [`hurst_aggregated_variance`] — the variance of aggregated series
//!   decays as `m^(2H-2)`.
//!
//! `H ≈ 0.5` means short-range dependence (Poisson-like); `H → 1` means
//! long-range dependence / self-similar traffic.

use crate::regression::linear_fit;
use crate::{ensure_finite, ensure_len, Result, StatsError};

/// Hurst exponent via rescaled-range (R/S) analysis.
///
/// Splits the series into blocks of growing size, computes the rescaled
/// range `R/S` per block size, and fits `log(R/S) ~ H log(n)`.
///
/// # Errors
///
/// Errors if the series is shorter than 32 points or degenerate.
pub fn hurst_rs(data: &[f64]) -> Result<f64> {
    ensure_len(data, 32)?;
    ensure_finite(data)?;
    let n = data.len();
    let mut log_sizes = Vec::new();
    let mut log_rs = Vec::new();
    let mut size = 8usize;
    while size <= n / 2 {
        let mut rs_values = Vec::new();
        for chunk in data.chunks(size) {
            if chunk.len() < size {
                break;
            }
            if let Some(rs) = rescaled_range(chunk) {
                rs_values.push(rs);
            }
        }
        if !rs_values.is_empty() {
            let mean_rs = rs_values.iter().sum::<f64>() / rs_values.len() as f64;
            if mean_rs > 0.0 {
                log_sizes.push((size as f64).ln());
                log_rs.push(mean_rs.ln());
            }
        }
        size *= 2;
    }
    if log_sizes.len() < 2 {
        return Err(StatsError::InsufficientData { needed: 2, got: log_sizes.len() });
    }
    let (slope, _intercept) = linear_fit(&log_sizes, &log_rs)?;
    Ok(slope.clamp(0.0, 1.0))
}

/// R/S statistic of one block; `None` if the block is constant or has
/// fewer than two points (no deviation to rescale by).
///
/// Uses the *sample* standard deviation (n − 1 divisor): R/S is computed
/// on small blocks (down to 8 points here), where the population form
/// biases S low and inflates every R/S value — the same finite-sample
/// concern the Anis–Lloyd correction addresses.
fn rescaled_range(chunk: &[f64]) -> Option<f64> {
    if chunk.len() < 2 {
        return None;
    }
    let n = chunk.len() as f64;
    let mean = chunk.iter().sum::<f64>() / n;
    let std =
        (chunk.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    if std == 0.0 {
        return None;
    }
    let mut cum = 0.0;
    let mut min_dev: f64 = 0.0;
    let mut max_dev: f64 = 0.0;
    for &x in chunk {
        cum += x - mean;
        min_dev = min_dev.min(cum);
        max_dev = max_dev.max(cum);
    }
    Some((max_dev - min_dev) / std)
}

/// Hurst exponent via the aggregated-variance method.
///
/// For an exactly second-order self-similar process, the variance of the
/// `m`-aggregated series scales as `m^(2H-2)`; the estimator fits that
/// power law across aggregation levels.
///
/// # Errors
///
/// Errors if the series is shorter than 64 points or degenerate.
pub fn hurst_aggregated_variance(data: &[f64]) -> Result<f64> {
    ensure_len(data, 64)?;
    ensure_finite(data)?;
    let n = data.len();
    let mut log_m = Vec::new();
    let mut log_var = Vec::new();
    let mut m = 1usize;
    while n / m >= 8 {
        let means: Vec<f64> = data
            .chunks(m)
            .filter(|c| c.len() == m)
            .map(|c| c.iter().sum::<f64>() / m as f64)
            .collect();
        if means.len() >= 4 {
            let mu = means.iter().sum::<f64>() / means.len() as f64;
            let var = means.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / means.len() as f64;
            if var > 0.0 {
                log_m.push((m as f64).ln());
                log_var.push(var.ln());
            }
        }
        m *= 2;
    }
    if log_m.len() < 3 {
        return Err(StatsError::InsufficientData { needed: 3, got: log_m.len() });
    }
    let (slope, _) = linear_fit(&log_m, &log_var)?;
    // slope = 2H − 2 → H = 1 + slope/2.
    Ok((1.0 + slope / 2.0).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_sim::rng::Rng64;

    /// Generates fractional Gaussian noise with Hurst exponent `h` by the
    /// (approximate) successive-random-addition method — sufficient to test the
    /// estimators.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < h < 1` and `n > 0`.
    fn fgn_approximate(h: f64, n: usize, rng: &mut Rng64) -> Vec<f64> {
        assert!(h > 0.0 && h < 1.0, "Hurst exponent must be in (0,1), got {h}");
        assert!(n > 0, "need a positive length");
        // Build fractional Brownian motion by aggregating scaled noise octaves,
        // then difference it to get fGn. `next_power_of_two` keeps the level
        // count exact for n < 2 and non-power-of-two n, where the float
        // `log2().ceil()` form was fragile; the cap keeps the shift below the
        // word size for absurd n instead of overflowing.
        let levels = (n.next_power_of_two().trailing_zeros() as usize + 1).min(usize::BITS as usize - 2);
        let size = 1usize << levels;
        let mut fbm = vec![0.0f64; size + 1];
        let mut scale = 1.0;
        let mut step = size;
        // Midpoint displacement.
        let gauss = |rng: &mut Rng64| {
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        fbm[size] = gauss(rng) * scale;
        while step > 1 {
            let half = step / 2;
            scale *= 0.5f64.powf(h);
            let mut i = half;
            while i < size {
                fbm[i] = 0.5 * (fbm[i - half] + fbm[i + half]) + gauss(rng) * scale;
                i += step;
            }
            step = half;
        }
        (1..=n.min(size)).map(|i| fbm[i] - fbm[i - 1]).collect()
    }

    #[test]
    fn white_noise_has_h_near_half() {
        let mut rng = Rng64::new(400);
        let data: Vec<f64> = (0..8192)
            .map(|_| {
                let u1 = rng.next_f64_open();
                let u2 = rng.next_f64();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        let h_rs = hurst_rs(&data).unwrap();
        let h_av = hurst_aggregated_variance(&data).unwrap();
        assert!((h_rs - 0.5).abs() < 0.12, "R/S H = {h_rs}");
        assert!((h_av - 0.5).abs() < 0.12, "AggVar H = {h_av}");
    }

    #[test]
    fn persistent_fgn_has_high_h() {
        let mut rng = Rng64::new(401);
        let data = fgn_approximate(0.85, 8192, &mut rng);
        let h_av = hurst_aggregated_variance(&data).unwrap();
        assert!(h_av > 0.7, "AggVar H = {h_av}");
        let h_rs = hurst_rs(&data).unwrap();
        assert!(h_rs > 0.65, "R/S H = {h_rs}");
    }

    #[test]
    fn estimators_order_series_correctly() {
        // A persistent series must score higher than white noise on both
        // estimators (relative ordering is the property that matters for
        // workload classification).
        let mut rng = Rng64::new(402);
        let noise: Vec<f64> = (0..4096)
            .map(|_| {
                let u1 = rng.next_f64_open();
                let u2 = rng.next_f64();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        let persistent = fgn_approximate(0.9, 4096, &mut rng);
        assert!(
            hurst_aggregated_variance(&persistent).unwrap()
                > hurst_aggregated_variance(&noise).unwrap()
        );
        assert!(hurst_rs(&persistent).unwrap() > hurst_rs(&noise).unwrap());
    }

    #[test]
    fn short_series_rejected() {
        assert!(hurst_rs(&[1.0; 8]).is_err());
        assert!(hurst_aggregated_variance(&[1.0; 16]).is_err());
    }

    #[test]
    fn rescaled_range_uses_sample_std() {
        // Regression: [0, 1] has mean 0.5, range of cumulative deviations
        // 0.5, and sample std √0.5 ≈ 0.7071 — so R/S ≈ 0.7071. The old
        // population form (divisor n) gave std 0.5 and R/S exactly 1.0.
        let rs = rescaled_range(&[0.0, 1.0]).unwrap();
        assert!((rs - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12, "R/S {rs}");
    }

    #[test]
    fn rescaled_range_degenerate_blocks() {
        // Fewer than two points: no deviation to rescale by.
        assert_eq!(rescaled_range(&[]), None);
        assert_eq!(rescaled_range(&[3.0]), None);
        // Constant blocks have zero std.
        assert_eq!(rescaled_range(&[2.0; 16]), None);
    }

    #[test]
    fn constant_series_errors_instead_of_panicking() {
        // Every block is constant → no usable R/S points → a clean error.
        assert!(hurst_rs(&[5.0; 256]).is_err());
        assert!(hurst_aggregated_variance(&[5.0; 256]).is_err());
    }

    #[test]
    fn fgn_tiny_lengths_are_exact() {
        // Boundary audit of the octave-count computation: n = 1, 2 and a
        // non-power-of-two n must all produce exactly n samples without
        // panicking.
        for n in [1usize, 2, 3, 5, 7, 9, 1000] {
            let mut rng = Rng64::new(404 + n as u64);
            let data = fgn_approximate(0.7, n, &mut rng);
            assert_eq!(data.len(), n, "n = {n}");
            assert!(data.iter().all(|x| x.is_finite()), "n = {n}");
        }
    }

    #[test]
    fn fgn_length_is_respected() {
        let mut rng = Rng64::new(403);
        assert_eq!(fgn_approximate(0.7, 1000, &mut rng).len(), 1000);
    }

    #[test]
    #[should_panic(expected = "Hurst exponent")]
    fn fgn_rejects_bad_h() {
        fgn_approximate(1.5, 10, &mut Rng64::new(0));
    }
}

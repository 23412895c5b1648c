//! Autocorrelation analysis and ACF-matching synthesis.
//!
//! Li's two-phase synthetic-workload generation (phase 1: fit the marginal,
//! phase 2: generate autocorrelations matching the real data) is implemented
//! here as:
//!
//! 1. [`acf`] — the sample autocorrelation function;
//! 2. [`ArModel::fit`] — Yule–Walker AR(p) fitting via Levinson–Durbin;
//! 3. [`synthesize_with_acf`] — generate a Gaussian AR series with the
//!    fitted correlation structure, then quantile-transform it onto the
//!    empirical marginal of the original data (an ARTA-style transform),
//!    so the synthetic series matches *both* the marginal distribution and
//!    the short-range autocorrelation of the original.

use kooza_sim::rng::Rng64;

use crate::dist::{Distribution, Empirical};
use crate::special::normal_cdf;
use crate::{ensure_finite, ensure_len, Result, StatsError};

/// Sample autocorrelation of `data` at lags `0..=max_lag`.
///
/// # Errors
///
/// Errors if the series is shorter than `max_lag + 2` or constant.
///
/// ```
/// use kooza_stats::acf::acf;
/// let series = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
/// let r = acf(&series, 2)?;
/// assert!((r[0] - 1.0).abs() < 1e-12);
/// assert!(r[1] < -0.8); // strong alternation
/// # Ok::<(), kooza_stats::StatsError>(())
/// ```
pub fn acf(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    ensure_len(data, max_lag + 2)?;
    ensure_finite(data)?;
    let n = data.len();
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        return Err(StatsError::InvalidInput("constant series has no autocorrelation".into()));
    }
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let num: f64 = (0..n - lag)
            .map(|i| (data[i] - mean) * (data[i + lag] - mean))
            .sum();
        out.push(num / denom);
    }
    Ok(out)
}

/// An autoregressive model `x_t = Σ φ_i x_{t-i} + ε_t` fitted from the ACF.
#[derive(Debug, Clone, PartialEq)]
pub struct ArModel {
    phi: Vec<f64>,
    noise_var: f64,
}

impl ArModel {
    /// Fits AR(`order`) by solving the Yule–Walker equations with
    /// Levinson–Durbin recursion.
    ///
    /// # Errors
    ///
    /// Errors if the series is too short, constant, or the recursion
    /// produces a non-stationary model (|partial correlation| ≥ 1).
    pub fn fit(data: &[f64], order: usize) -> Result<Self> {
        if order == 0 {
            return Err(StatsError::InvalidInput("AR order must be positive".into()));
        }
        let r = acf(data, order)?;
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;

        // Levinson–Durbin on normalized autocorrelations.
        let mut phi = vec![0.0; order];
        let mut prev = vec![0.0; order];
        let mut e = 1.0; // normalized prediction error
        for k in 0..order {
            let mut acc = r[k + 1];
            for j in 0..k {
                acc -= prev[j] * r[k - j];
            }
            let kappa = acc / e;
            if kappa.abs() >= 1.0 {
                return Err(StatsError::NoConvergence { what: "Levinson-Durbin (non-stationary)" });
            }
            phi[k] = kappa;
            for j in 0..k {
                phi[j] = prev[j] - kappa * prev[k - 1 - j];
            }
            e *= 1.0 - kappa * kappa;
            prev[..=k].copy_from_slice(&phi[..=k]);
        }
        Ok(ArModel {
            phi,
            noise_var: (e * var).max(0.0),
        })
    }

    /// The AR coefficients φ.
    pub fn coefficients(&self) -> &[f64] {
        &self.phi
    }

    /// Generates `n` points of a zero-mean Gaussian AR series (with a
    /// burn-in of 10 × order discarded).
    pub fn generate(&self, n: usize, rng: &mut Rng64) -> Vec<f64> {
        let p = self.phi.len();
        let burn = 10 * p;
        let sd = self.noise_var.sqrt();
        let mut hist = vec![0.0f64; p];
        let mut out = Vec::with_capacity(n);
        for step in 0..n + burn {
            // Box–Muller normal draw.
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64();
            let eps = sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let x: f64 = self.phi.iter().zip(hist.iter()).map(|(a, b)| a * b).sum::<f64>() + eps;
            hist.rotate_right(1);
            hist[0] = x;
            if step >= burn {
                out.push(x);
            }
        }
        out
    }
}

/// Phase-2 synthesis: a synthetic series with the marginal distribution of
/// `data` and (approximately) its AR(`order`) autocorrelation structure.
///
/// # Errors
///
/// Propagates fitting errors from [`ArModel::fit`] / [`Empirical`].
pub fn synthesize_with_acf(
    data: &[f64],
    order: usize,
    n: usize,
    rng: &mut Rng64,
) -> Result<Vec<f64>> {
    let ar = ArModel::fit(data, order)?;
    let marginal = Empirical::from_sample(data)?;
    let gaussian = ar.generate(n, rng);
    // Standardize, map through Φ to uniforms, then through the empirical
    // quantile function onto the target marginal.
    let mean = gaussian.iter().sum::<f64>() / gaussian.len().max(1) as f64;
    let sd = (gaussian.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
        / gaussian.len().max(1) as f64)
        .sqrt()
        .max(1e-12);
    Ok(gaussian
        .into_iter()
        .map(|x| {
            let u = normal_cdf((x - mean) / sd).clamp(1e-9, 1.0 - 1e-9);
            marginal.quantile(u)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1_series(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::new(seed);
        let mut x = 0.0;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64();
            let eps = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            x = phi * x + eps;
            out.push(x);
        }
        out
    }

    #[test]
    fn acf_lag_zero_is_one() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin()).collect();
        let r = acf(&data, 5).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn acf_of_iid_noise_is_small() {
        let mut rng = Rng64::new(300);
        let data: Vec<f64> = (0..5000).map(|_| rng.next_f64()).collect();
        let r = acf(&data, 3).unwrap();
        for lag in 1..=3 {
            assert!(r[lag].abs() < 0.05, "lag {lag}: {}", r[lag]);
        }
    }

    #[test]
    fn acf_rejects_constant_or_short() {
        assert!(acf(&[1.0, 1.0, 1.0, 1.0], 1).is_err());
        assert!(acf(&[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn ar1_fit_recovers_phi() {
        let data = ar1_series(0.7, 20_000, 301);
        let model = ArModel::fit(&data, 1).unwrap();
        let phi = model.coefficients()[0];
        assert!((phi - 0.7).abs() < 0.03, "phi {phi}");
    }

    #[test]
    fn ar2_fit_is_stationary() {
        let data = ar1_series(0.5, 10_000, 302);
        let model = ArModel::fit(&data, 2).unwrap();
        // φ2 should be near zero for an AR(1) source.
        assert!(model.coefficients()[1].abs() < 0.05);
    }

    #[test]
    fn generated_series_matches_target_acf() {
        let data = ar1_series(0.6, 20_000, 303);
        let model = ArModel::fit(&data, 1).unwrap();
        let mut rng = Rng64::new(304);
        let synth = model.generate(20_000, &mut rng);
        let r = acf(&synth, 1).unwrap();
        assert!((r[1] - 0.6).abs() < 0.05, "acf1 {}", r[1]);
    }

    #[test]
    fn synthesis_matches_marginal_and_acf() {
        // Positively-correlated exponential-ish data.
        let base = ar1_series(0.65, 20_000, 305);
        let data: Vec<f64> = base.iter().map(|x| x.exp()).collect();
        let mut rng = Rng64::new(306);
        let synth = synthesize_with_acf(&data, 1, 20_000, &mut rng).unwrap();

        // Marginal: two-sample KS should accept.
        let t = crate::ks::ks_two_sample(&data, &synth).unwrap();
        assert!(t.statistic < 0.03, "KS D = {}", t.statistic);

        // Autocorrelation at lag 1 preserved approximately. The quantile
        // transform onto a skewed marginal attenuates correlation (the
        // classic ARTA distortion), so the check is directional plus a
        // generous band rather than exact equality.
        let r_orig = acf(&data, 1).unwrap()[1];
        let r_synth = acf(&synth, 1).unwrap()[1];
        assert!(r_synth > 0.15, "synthetic series lost its correlation: {r_synth}");
        assert!((r_orig - r_synth).abs() < 0.25, "orig {r_orig}, synth {r_synth}");
    }

    #[test]
    fn fit_order_zero_rejected() {
        let data = ar1_series(0.5, 100, 307);
        assert!(ArModel::fit(&data, 0).is_err());
    }
}

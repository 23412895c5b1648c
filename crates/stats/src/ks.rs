//! Kolmogorov–Smirnov tests.
//!
//! Feitelson's workload-modeling methodology identifies the family of a
//! request-arrival distribution by KS distance; the fitting pipeline in
//! [`crate::fit`] ranks candidate families with the one-sample test here.

use crate::dist::Distribution;
use crate::sorted::SortedSample;
use crate::{ensure_finite, ensure_len, Result};

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic D — the supremum distance between cdfs.
    pub statistic: f64,
    /// Asymptotic p-value for the null "the sample follows the reference".
    pub p_value: f64,
    /// Effective sample size used for the p-value.
    pub n_effective: f64,
}

impl KsTest {
    /// Whether the null hypothesis survives at significance `alpha`.
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Kolmogorov distribution survival function
/// `Q(λ) = 2 Σ (-1)^{j-1} exp(-2 j² λ²)` with the Stephens small-sample
/// correction applied by the callers.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda < 1e-8 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64) * (j as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// One-sample KS test of `data` against a reference distribution.
///
/// # Errors
///
/// Returns an error if `data` is empty or contains non-finite values.
///
/// ```
/// use kooza_sim::rng::Rng64;
/// use kooza_stats::dist::{Distribution, Exponential};
/// use kooza_stats::ks::ks_one_sample;
///
/// let d = Exponential::new(1.0)?;
/// let mut rng = Rng64::new(9);
/// let data: Vec<f64> = (0..500).map(|_| d.sample(&mut rng)).collect();
/// let test = ks_one_sample(&data, &d)?;
/// assert!(test.accepts(0.01));
/// # Ok::<(), kooza_stats::StatsError>(())
/// ```
pub fn ks_one_sample(data: &[f64], reference: &dyn Distribution) -> Result<KsTest> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(one_sample_sorted(&sorted, reference))
}

/// One-sample KS test against an already-sorted sample.
///
/// The sort- and validation-free variant of [`ks_one_sample`] for callers
/// that test one sample against many references (the fitting pipeline runs
/// this once per candidate family over a single [`SortedSample`]).
pub fn ks_one_sample_presorted(sample: &SortedSample, reference: &dyn Distribution) -> KsTest {
    one_sample_sorted(sample.values(), reference)
}

fn one_sample_sorted(sorted: &[f64], reference: &dyn Distribution) -> KsTest {
    let n = sorted.len() as f64;
    let mut d_max: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = reference.cdf(x);
        let ecdf_hi = (i as f64 + 1.0) / n;
        let ecdf_lo = i as f64 / n;
        d_max = d_max.max((ecdf_hi - f).abs()).max((f - ecdf_lo).abs());
    }
    // Stephens' correction for finite n.
    let sqrt_n = n.sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d_max;
    KsTest {
        statistic: d_max,
        p_value: kolmogorov_q(lambda),
        n_effective: n,
    }
}

/// Two-sample KS test: are `a` and `b` drawn from the same distribution?
///
/// # Errors
///
/// Returns an error if either sample is empty or non-finite.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<KsTest> {
    ensure_len(a, 1)?;
    ensure_len(b, 1)?;
    ensure_finite(a)?;
    ensure_finite(b)?;
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    Ok(two_sample_sorted(&sa, &sb))
}

fn two_sample_sorted(sa: &[f64], sb: &[f64]) -> KsTest {
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d_max: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let xa = sa[i];
        let xb = sb[j];
        let x = xa.min(xb);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na;
        let fb = j as f64 / nb;
        d_max = d_max.max((fa - fb).abs());
    }
    let ne = na * nb / (na + nb);
    let sqrt_ne = ne.sqrt();
    let lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d_max;
    KsTest {
        statistic: d_max,
        p_value: kolmogorov_q(lambda),
        n_effective: ne,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, LogNormal, Normal, Pareto};
    use kooza_sim::rng::Rng64;

    #[test]
    fn accepts_true_distribution() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let mut rng = Rng64::new(100);
        let data: Vec<f64> = (0..1000).map(|_| d.sample(&mut rng)).collect();
        let t = ks_one_sample(&data, &d).unwrap();
        assert!(t.statistic < 0.05, "D = {}", t.statistic);
        assert!(t.accepts(0.01), "p = {}", t.p_value);
    }

    #[test]
    fn rejects_wrong_distribution() {
        let true_d = Pareto::new(1.0, 1.5).unwrap();
        let wrong_d = Exponential::with_mean(3.0).unwrap();
        let mut rng = Rng64::new(101);
        let data: Vec<f64> = (0..1000).map(|_| true_d.sample(&mut rng)).collect();
        let t = ks_one_sample(&data, &wrong_d).unwrap();
        assert!(!t.accepts(0.05), "p = {}", t.p_value);
    }

    #[test]
    fn statistic_is_exact_for_tiny_sample() {
        // One point at the median of N(0,1): D = 0.5 exactly.
        let d = Normal::standard();
        let t = ks_one_sample(&[0.0], &d).unwrap();
        assert!((t.statistic - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_sample_same_source_accepts() {
        // A single seed can legitimately land in the rejection region, so
        // check the acceptance *rate* across seeds: at alpha = 0.01, at
        // least 17 of 20 same-source pairs must be accepted.
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let mut accepted = 0;
        for seed in 0..20 {
            let mut rng = Rng64::new(1000 + seed);
            let a: Vec<f64> = (0..800).map(|_| d.sample(&mut rng)).collect();
            let b: Vec<f64> = (0..800).map(|_| d.sample(&mut rng)).collect();
            if ks_two_sample(&a, &b).unwrap().accepts(0.01) {
                accepted += 1;
            }
        }
        assert!(accepted >= 17, "only {accepted}/20 same-source pairs accepted");
    }

    #[test]
    fn two_sample_different_sources_rejects() {
        let d1 = Normal::new(0.0, 1.0).unwrap();
        let d2 = Normal::new(1.0, 1.0).unwrap();
        let mut rng = Rng64::new(103);
        let a: Vec<f64> = (0..500).map(|_| d1.sample(&mut rng)).collect();
        let b: Vec<f64> = (0..500).map(|_| d2.sample(&mut rng)).collect();
        let t = ks_two_sample(&a, &b).unwrap();
        assert!(!t.accepts(0.05), "p = {}", t.p_value);
    }

    #[test]
    fn two_sample_identical_data_zero_statistic() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let t = ks_two_sample(&a, &a).unwrap();
        assert_eq!(t.statistic, 0.0);
        assert!((t.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kolmogorov_q_reference_values() {
        // Q(0.828) ≈ 0.5; Q(1.36) ≈ 0.049 (the classic 5% critical value).
        assert!((kolmogorov_q(0.828) - 0.5).abs() < 0.01);
        assert!((kolmogorov_q(1.36) - 0.049).abs() < 0.005);
    }

    #[test]
    fn errors_on_empty() {
        let d = Normal::standard();
        assert!(ks_one_sample(&[], &d).is_err());
        assert!(ks_two_sample(&[], &[1.0]).is_err());
        assert!(ks_two_sample(&[1.0], &[]).is_err());
    }
}

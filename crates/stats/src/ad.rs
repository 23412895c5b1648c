//! The Anderson–Darling goodness-of-fit test.
//!
//! KS weighs all quantiles equally; Anderson–Darling up-weights the tails,
//! which is where DC workloads misbehave (heavy-tailed sizes and
//! inter-arrivals). The fitting pipeline uses KS for ranking (the paper's
//! methodology); AD is the second opinion for tail-sensitive decisions.

use crate::dist::Distribution;
use crate::{ensure_finite, ensure_len, Result, StatsError};

/// Result of an Anderson–Darling test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdTest {
    /// The A² statistic.
    pub statistic: f64,
    /// The small-sample-adjusted statistic `A²*`.
    pub adjusted: f64,
    /// Approximate p-value (case 0: fully specified distribution;
    /// D'Agostino & Stephens).
    pub p_value: f64,
}

impl AdTest {
    /// Whether the null hypothesis survives at significance `alpha`.
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// One-sample Anderson–Darling test of `data` against a reference
/// distribution.
///
/// # Errors
///
/// Errors on empty or non-finite input, or if the reference cdf returns 0
/// or 1 at an observed point (infinite statistic — a gross mismatch).
pub fn ad_one_sample(data: &[f64], reference: &dyn Distribution) -> Result<AdTest> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    one_sample_sorted(&sorted, reference)
}

fn one_sample_sorted(sorted: &[f64], reference: &dyn Distribution) -> Result<AdTest> {
    let n = sorted.len();
    let nf = n as f64;
    let mut s = 0.0;
    for i in 0..n {
        let fi = reference.cdf(sorted[i]).clamp(1e-12, 1.0 - 1e-12);
        let fni = reference.cdf(sorted[n - 1 - i]).clamp(1e-12, 1.0 - 1e-12);
        if fi <= 1e-12 && fni >= 1.0 - 1e-12 {
            return Err(StatsError::InvalidInput(
                "reference cdf degenerate at observed points".into(),
            ));
        }
        s += (2.0 * i as f64 + 1.0) * (fi.ln() + (1.0 - fni).ln());
    }
    let a2 = -nf - s / nf;
    let adjusted = a2 * (1.0 + 0.75 / nf + 2.25 / (nf * nf));
    // Case-0 (fully specified reference) p-value via the Marsaglia &
    // Marsaglia (2004) asymptotic cdf with their finite-n correction.
    let cdf = (adinf(a2) + errfix(n, adinf(a2))).clamp(0.0, 1.0);
    Ok(AdTest {
        statistic: a2,
        adjusted,
        p_value: 1.0 - cdf,
    })
}

/// Asymptotic cdf of the case-0 A² statistic (Marsaglia & Marsaglia 2004).
fn adinf(z: f64) -> f64 {
    if z <= 0.0 {
        return 0.0;
    }
    if z < 2.0 {
        (-1.233_714_1 / z).exp() / z.sqrt()
            * (2.000_12
                + (0.247_105
                    - (0.064_982_1 - (0.034_796_2 - (0.011_672 - 0.001_686_91 * z) * z) * z) * z)
                    * z)
    } else {
        (-(1.0776 - (2.306_95 - (0.434_24 - (0.082_433 - (0.008_056 - 0.000_314_6 * z) * z) * z) * z) * z)
            .exp())
        .exp()
    }
}

/// Finite-sample correction to [`adinf`] (Marsaglia & Marsaglia 2004).
fn errfix(n: usize, x: f64) -> f64 {
    let nf = n as f64;
    if x > 0.8 {
        return (-130.2137
            + (745.2337 - (1705.091 - (1950.646 - (1116.360 - 255.7844 * x) * x) * x) * x) * x)
            / nf;
    }
    let c = 0.01265 + 0.1757 / nf;
    if x < c {
        let mut t = x / c;
        t = t.sqrt() * (1.0 - t) * (49.0 * t - 102.0);
        t * (0.0037 / (nf * nf) + 0.00078 / nf + 0.00006) / nf
    } else {
        let mut t = (x - c) / (0.8 - c);
        t = -0.000_226_33
            + (6.54034 - (14.6538 - (14.458 - (8.259 - 1.91864 * t) * t) * t) * t) * t;
        t * (0.04213 + 0.01365 / nf) / nf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, LogNormal, Normal, Pareto};
    use kooza_sim::rng::Rng64;

    fn sample<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn accepts_true_distribution() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let t = ad_one_sample(&sample(&d, 2000, 1900), &d).unwrap();
        assert!(t.accepts(0.01), "p = {}", t.p_value);
        assert!(t.statistic < 2.0, "A² = {}", t.statistic);
    }

    #[test]
    fn rejects_wrong_distribution() {
        let true_d = Pareto::new(1.0, 1.5).unwrap();
        let wrong = Exponential::with_mean(3.0).unwrap();
        let t = ad_one_sample(&sample(&true_d, 2000, 1901), &wrong).unwrap();
        assert!(!t.accepts(0.05), "p = {}", t.p_value);
    }

    #[test]
    fn more_tail_sensitive_than_ks_on_tail_mismatch() {
        // Match the body, distort the tail: lognormal data vs a normal fit
        // with the same mean/variance. AD's statistic exceeds its 5%
        // critical value (~2.49) by more than KS exceeds its own scaled
        // critical value.
        let data_d = LogNormal::new(0.0, 0.6).unwrap();
        let data = sample(&data_d, 3000, 1902);
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        let approx = Normal::new(mean, var.sqrt()).unwrap();
        let ad = ad_one_sample(&data, &approx).unwrap();
        assert!(!ad.accepts(0.05), "AD should reject, p = {}", ad.p_value);
        assert!(ad.statistic > 2.49, "A² = {}", ad.statistic);
    }

    #[test]
    fn acceptance_rate_calibrated() {
        // Under the null, ~95% of samples should be accepted at alpha=0.05.
        let d = Exponential::new(2.0).unwrap();
        let mut accepted = 0;
        let trials = 60;
        for seed in 0..trials {
            let data = sample(&d, 400, 2000 + seed);
            if ad_one_sample(&data, &d).unwrap().accepts(0.05) {
                accepted += 1;
            }
        }
        assert!(accepted >= 50, "accepted {accepted}/{trials}");
    }

    #[test]
    fn errors_on_bad_input() {
        let d = Normal::standard();
        assert!(ad_one_sample(&[], &d).is_err());
        assert!(ad_one_sample(&[1.0], &d).is_err());
        assert!(ad_one_sample(&[1.0, f64::NAN], &d).is_err());
    }
}

//! Maximum-likelihood distribution fitting and the KS-ranked fitting
//! pipeline.
//!
//! This is the Feitelson methodology end to end: propose candidate
//! families, fit each by MLE, rank by Kolmogorov–Smirnov distance, and
//! report the ranking so a modeler can inspect (not just trust) the winner.

use crate::dist::{
    Distribution, Exponential, Gamma, LogNormal, Normal, Pareto, Uniform, Weibull,
};
use crate::ks::{ks_one_sample_presorted, KsTest};
use crate::sorted::SortedSample;
use crate::special::digamma;
use crate::{ensure_finite, ensure_len, Result, StatsError};

/// One-pass moment sums over a sample, shared by every fit estimator.
///
/// Σx, min/max, and — when the data are strictly positive — the per-point
/// logs with their sum. [`FitPipeline::run`] computes this once and hands
/// it to each candidate family, so the lognormal, Weibull and gamma fitters
/// no longer re-walk and re-log the same data. All sums fold in input
/// order, so estimates are bit-identical to the per-fitter passes they
/// replace.
#[derive(Debug, Clone)]
pub struct SampleMoments {
    n: usize,
    sum: f64,
    min: f64,
    max: f64,
    /// `ln(x)` per point, in input order; `None` unless every x > 0.
    logs: Option<Vec<f64>>,
    sum_log: f64,
}

impl SampleMoments {
    /// Computes the shared sums in one pass over `data` (plus one log pass
    /// when the data are strictly positive).
    pub fn compute(data: &[f64]) -> Self {
        let sum = data.iter().sum::<f64>();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let logs: Option<Vec<f64>> = if !data.is_empty() && data.iter().all(|&x| x > 0.0) {
            Some(data.iter().map(|x| x.ln()).collect())
        } else {
            None
        };
        let sum_log = logs.as_deref().map_or(0.0, |l| l.iter().sum());
        SampleMoments { n: data.len(), sum, min, max, logs, sum_log }
    }

    /// Sample size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean Σx / n.
    pub fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Per-point logs in input order, if the data are strictly positive.
    pub fn logs(&self) -> Option<&[f64]> {
        self.logs.as_deref()
    }

    /// Mean of the logs Σln x / n, if the data are strictly positive.
    pub fn mean_log(&self) -> Option<f64> {
        self.logs.as_ref().map(|_| self.sum_log / self.n as f64)
    }
}

/// The positive-support families share this rejection.
fn logs_or_reject(m: &SampleMoments) -> Result<&[f64]> {
    m.logs().ok_or_else(|| {
        StatsError::InvalidInput("this family requires strictly positive data".into())
    })
}

/// MLE fit of an exponential distribution (`rate = 1 / mean`).
///
/// # Errors
///
/// Errors on empty/non-finite input or a non-positive sample mean.
pub fn fit_exponential(data: &[f64]) -> Result<Exponential> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    fit_exponential_with(data, &SampleMoments::compute(data))
}

fn fit_exponential_with(data: &[f64], m: &SampleMoments) -> Result<Exponential> {
    ensure_len(data, 1)?;
    let mean = m.mean();
    if mean <= 0.0 {
        return Err(StatsError::InvalidInput("exponential fit needs positive mean".into()));
    }
    Exponential::with_mean(mean)
}

/// MLE fit of a normal distribution (`μ = mean`, `σ² = Σ(x-μ)²/n`).
///
/// # Errors
///
/// Errors on fewer than two points, non-finite input, or zero variance.
pub fn fit_normal(data: &[f64]) -> Result<Normal> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    fit_normal_with(data, &SampleMoments::compute(data))
}

fn fit_normal_with(data: &[f64], m: &SampleMoments) -> Result<Normal> {
    ensure_len(data, 2)?;
    let mu = m.mean();
    let var = data.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / data.len() as f64;
    Normal::new(mu, var.sqrt())
}

/// MLE fit of a log-normal distribution (normal fit of the logs).
///
/// # Errors
///
/// Errors unless the data are strictly positive with at least two points.
pub fn fit_lognormal(data: &[f64]) -> Result<LogNormal> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    fit_lognormal_with(data, &SampleMoments::compute(data))
}

fn fit_lognormal_with(data: &[f64], m: &SampleMoments) -> Result<LogNormal> {
    ensure_len(data, 2)?;
    let logs = logs_or_reject(m)?;
    let mu = m.mean_log().expect("logs present");
    let var = logs.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / logs.len() as f64;
    LogNormal::new(mu, var.sqrt())
}

/// MLE fit of a Pareto distribution (`x_m = min`, `α = n / Σ ln(x/x_m)`).
///
/// # Errors
///
/// Errors unless the data are strictly positive with at least two points and
/// not all identical.
pub fn fit_pareto(data: &[f64]) -> Result<Pareto> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    fit_pareto_with(data, &SampleMoments::compute(data))
}

fn fit_pareto_with(data: &[f64], m: &SampleMoments) -> Result<Pareto> {
    ensure_len(data, 2)?;
    logs_or_reject(m)?;
    let xm = m.min();
    let sum_log: f64 = data.iter().map(|&x| (x / xm).ln()).sum();
    if sum_log <= 0.0 {
        return Err(StatsError::InvalidInput("pareto fit needs non-degenerate data".into()));
    }
    Pareto::new(xm, data.len() as f64 / sum_log)
}

/// MLE fit of a Weibull distribution by Newton iteration on the shape.
///
/// # Errors
///
/// Errors unless the data are strictly positive with at least two points,
/// or if the iteration fails to converge.
pub fn fit_weibull(data: &[f64]) -> Result<Weibull> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    fit_weibull_with(data, &SampleMoments::compute(data))
}

fn fit_weibull_with(data: &[f64], m: &SampleMoments) -> Result<Weibull> {
    ensure_len(data, 2)?;
    let logs = logs_or_reject(m)?;
    let n = data.len() as f64;
    let mean_log = m.mean_log().expect("logs present");
    // Initial guess from the method of moments on logs:
    // Var(ln X) = π²/(6k²) for Weibull.
    let var_log = logs.iter().map(|x| (x - mean_log).powi(2)).sum::<f64>() / n;
    let mut k = if var_log > 0.0 {
        (std::f64::consts::PI / (6.0 * var_log).sqrt()).max(0.05)
    } else {
        return Err(StatsError::InvalidInput("weibull fit needs non-degenerate data".into()));
    };
    for _ in 0..200 {
        // g(k) = Σ x^k ln x / Σ x^k − 1/k − mean_log
        let mut s0 = 0.0;
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        for (&x, &lx) in data.iter().zip(logs) {
            let xk = x.powf(k);
            s0 += xk;
            s1 += xk * lx;
            s2 += xk * lx * lx;
        }
        let g = s1 / s0 - 1.0 / k - mean_log;
        let dg = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
        let step = g / dg;
        let next = (k - step).max(k / 4.0).min(k * 4.0);
        if (next - k).abs() < 1e-12 * k.max(1.0) {
            k = next;
            break;
        }
        k = next;
    }
    if !k.is_finite() || k <= 0.0 {
        return Err(StatsError::NoConvergence { what: "weibull shape MLE" });
    }
    let scale = (data.iter().map(|&x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
    Weibull::new(k, scale)
}

/// MLE fit of a gamma distribution (Minka's initializer plus Newton steps on
/// the digamma equation). Errors unless the data are strictly positive with
/// at least two points.
fn fit_gamma_with(data: &[f64], m: &SampleMoments) -> Result<Gamma> {
    ensure_len(data, 2)?;
    logs_or_reject(m)?;
    let mean = m.mean();
    let mean_log = m.mean_log().expect("logs present");
    let s = mean.ln() - mean_log;
    if s <= 0.0 {
        return Err(StatsError::InvalidInput("gamma fit needs non-degenerate data".into()));
    }
    let mut k = (3.0 - s + ((s - 3.0).powi(2) + 24.0 * s).sqrt()) / (12.0 * s);
    for _ in 0..50 {
        // Solve ln k − ψ(k) = s.
        let f = k.ln() - digamma(k) - s;
        // d/dk (ln k − ψ(k)) = 1/k − ψ'(k); approximate ψ' numerically.
        let h = 1e-6 * k.max(1e-3);
        let dpsi = (digamma(k + h) - digamma(k - h)) / (2.0 * h);
        let df = 1.0 / k - dpsi;
        let step = f / df;
        let next = (k - step).max(k / 4.0).min(k * 4.0);
        if (next - k).abs() < 1e-12 * k.max(1.0) {
            k = next;
            break;
        }
        k = next;
    }
    if !k.is_finite() || k <= 0.0 {
        return Err(StatsError::NoConvergence { what: "gamma shape MLE" });
    }
    Gamma::new(k, mean / k)
}

/// Fit of a uniform distribution (`lo = min`, `hi = max` widened by half a
/// ULP-scale margin so the maximum stays inside the support). Errors on
/// degenerate (constant) data.
fn fit_uniform_with(m: &SampleMoments) -> Result<Uniform> {
    if m.n() < 2 {
        return Err(StatsError::InsufficientData { needed: 2, got: m.n() });
    }
    let lo = m.min();
    let hi = m.max();
    let width = hi - lo;
    if width <= 0.0 {
        return Err(StatsError::InvalidInput("uniform fit needs non-constant data".into()));
    }
    Uniform::new(lo, hi + width * 1e-9)
}

/// One fitted candidate in a [`FitReport`].
#[derive(Debug)]
pub struct FitEntry {
    /// Family name (`"exponential"`, `"lognormal"`, ...).
    pub family: &'static str,
    /// The fitted distribution.
    pub dist: Box<dyn Distribution>,
    /// KS test of the data against the fitted distribution.
    pub ks: KsTest,
    /// Free-parameter count of the family (parsimony tie-breaking).
    pub n_params: usize,
}

/// Ranked fitting results, best (smallest KS statistic) first.
#[derive(Debug)]
pub struct FitReport {
    entries: Vec<FitEntry>,
}

impl FitReport {
    /// The best-fitting candidate.
    pub fn best(&self) -> &FitEntry {
        &self.entries[0]
    }

    /// All candidates, best first.
    pub fn entries(&self) -> &[FitEntry] {
        &self.entries
    }

    /// The entry for a specific family, if it fitted successfully.
    pub fn family(&self, name: &str) -> Option<&FitEntry> {
        self.entries.iter().find(|e| e.family == name)
    }

    /// Consumes the report, returning the winning entry by value — so a
    /// caller can keep the fitted distribution without re-fitting it.
    pub fn into_best(self) -> FitEntry {
        self.entries.into_iter().next().expect("FitReport is never empty")
    }
}

/// Which families a [`FitPipeline`] tries: name, fitter, free parameters.
/// Fitters take the raw data plus the pipeline's shared [`SampleMoments`].
type Fitter = fn(&[f64], &SampleMoments) -> Result<Box<dyn Distribution>>;
type Candidate = (&'static str, Fitter, usize);

fn boxed<D: Distribution + 'static>(r: Result<D>) -> Result<Box<dyn Distribution>> {
    r.map(|d| Box::new(d) as Box<dyn Distribution>)
}

/// A distribution-fitting pipeline: candidate families fitted by MLE and
/// ranked by KS distance.
///
/// ```
/// use kooza_sim::rng::Rng64;
/// use kooza_stats::dist::{Distribution, Pareto};
/// use kooza_stats::fit::FitPipeline;
///
/// let d = Pareto::new(1.0, 1.8)?;
/// let mut rng = Rng64::new(12);
/// let data: Vec<f64> = (0..3000).map(|_| d.sample(&mut rng)).collect();
/// let report = FitPipeline::standard().run(&data)?;
/// assert_eq!(report.best().family, "pareto");
/// # Ok::<(), kooza_stats::StatsError>(())
/// ```
#[derive(Debug)]
pub struct FitPipeline {
    candidates: Vec<Candidate>,
}

impl FitPipeline {
    /// The standard candidate set: exponential, lognormal, Pareto, Weibull,
    /// gamma, normal and uniform.
    pub fn standard() -> Self {
        FitPipeline {
            candidates: vec![
                ("exponential", |d, m| boxed(fit_exponential_with(d, m)), 1),
                ("lognormal", |d, m| boxed(fit_lognormal_with(d, m)), 2),
                ("pareto", |d, m| boxed(fit_pareto_with(d, m)), 2),
                ("weibull", |d, m| boxed(fit_weibull_with(d, m)), 2),
                ("gamma", |d, m| boxed(fit_gamma_with(d, m)), 2),
                ("normal", |d, m| boxed(fit_normal_with(d, m)), 2),
                ("uniform", |_, m| boxed(fit_uniform_with(m)), 2),
            ],
        }
    }

    /// A lighter candidate set for positive-valued timing data only
    /// (exponential, lognormal, Pareto, Weibull) — the families the
    /// network-modeling papers actually contrast.
    pub fn timing() -> Self {
        FitPipeline {
            candidates: vec![
                ("exponential", |d, m| boxed(fit_exponential_with(d, m)), 1),
                ("lognormal", |d, m| boxed(fit_lognormal_with(d, m)), 2),
                ("pareto", |d, m| boxed(fit_pareto_with(d, m)), 2),
                ("weibull", |d, m| boxed(fit_weibull_with(d, m)), 2),
            ],
        }
    }

    /// Fits every candidate and ranks by KS statistic, with a parsimony
    /// tie-break: when a family with fewer free parameters fits essentially
    /// as well as the leader (KS statistic within 15% relative), the simpler
    /// family is preferred. Without this, Weibull (which *contains*
    /// exponential at shape 1) would absorb every exponential sample.
    ///
    /// Families that fail to fit (wrong support, no convergence) are
    /// silently dropped — a pipeline over arbitrary trace data must tolerate
    /// that.
    ///
    /// # Errors
    ///
    /// Errors if the input is unusable for *every* candidate, or empty.
    pub fn run(&self, data: &[f64]) -> Result<FitReport> {
        ensure_len(data, 2)?;
        ensure_finite(data)?;
        // One moment pass and one sort, shared by every candidate: the KS
        // ranking loop is O(k·n) instead of k sorts of the same data.
        let moments = SampleMoments::compute(data);
        let sorted = SortedSample::from_validated(data.to_vec());
        let mut entries = Vec::new();
        for &(name, fitter, n_params) in &self.candidates {
            let Ok(dist) = fitter(data, &moments) else { continue };
            let ks = ks_one_sample_presorted(&sorted, dist.as_ref());
            entries.push(FitEntry { family: name, dist, ks, n_params });
        }
        if entries.is_empty() {
            return Err(StatsError::InvalidInput("no candidate family fit the data".into()));
        }
        entries.sort_by(|a, b| a.ks.statistic.total_cmp(&b.ks.statistic));
        // Parsimony: pull the simplest near-tied family to the front. Two KS
        // statistics closer than the sampling noise floor (~0.6/√n) are
        // statistically indistinguishable, so the extra parameter buys
        // nothing real.
        let noise_floor = 0.6 / (data.len() as f64).sqrt();
        let tie_threshold =
            entries[0].ks.statistic + (entries[0].ks.statistic * 0.15).max(noise_floor);
        let winner = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.ks.statistic <= tie_threshold)
            .min_by_key(|(i, e)| (e.n_params, *i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if winner != 0 {
            let e = entries.remove(winner);
            entries.insert(0, e);
        }
        Ok(FitReport { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_sim::rng::Rng64;

    fn sample<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        let d = Exponential::new(3.0).unwrap();
        let fitted = fit_exponential(&sample(&d, 20_000, 1)).unwrap();
        assert!((fitted.rate() - 3.0).abs() < 0.1, "rate {}", fitted.rate());
    }

    #[test]
    fn normal_fit_recovers_params() {
        let d = Normal::new(-4.0, 2.5).unwrap();
        let fitted = fit_normal(&sample(&d, 20_000, 2)).unwrap();
        assert!((fitted.mu() + 4.0).abs() < 0.1);
        assert!((fitted.sigma() - 2.5).abs() < 0.1);
    }

    #[test]
    fn lognormal_fit_recovers_params() {
        let d = LogNormal::new(1.0, 0.7).unwrap();
        let fitted = fit_lognormal(&sample(&d, 20_000, 3)).unwrap();
        assert!((fitted.mu() - 1.0).abs() < 0.05);
        assert!((fitted.sigma() - 0.7).abs() < 0.05);
    }

    #[test]
    fn pareto_fit_recovers_params() {
        let d = Pareto::new(2.0, 2.5).unwrap();
        let fitted = fit_pareto(&sample(&d, 20_000, 4)).unwrap();
        assert!((fitted.xm() - 2.0).abs() < 0.01);
        assert!((fitted.alpha() - 2.5).abs() < 0.1, "alpha {}", fitted.alpha());
    }

    #[test]
    fn weibull_fit_recovers_params() {
        let d = Weibull::new(1.8, 3.0).unwrap();
        let fitted = fit_weibull(&sample(&d, 20_000, 5)).unwrap();
        assert!((fitted.shape() - 1.8).abs() < 0.1, "shape {}", fitted.shape());
        assert!((fitted.scale() - 3.0).abs() < 0.1, "scale {}", fitted.scale());
    }

    #[test]
    fn gamma_fit_recovers_params() {
        let d = Gamma::new(4.0, 0.5).unwrap();
        let data = sample(&d, 20_000, 6);
        let fitted = fit_gamma_with(&data, &SampleMoments::compute(&data)).unwrap();
        assert!((fitted.shape() - 4.0).abs() < 0.3, "shape {}", fitted.shape());
        assert!((fitted.scale() - 0.5).abs() < 0.05, "scale {}", fitted.scale());
    }

    #[test]
    fn uniform_fit_covers_range() {
        let d = Uniform::new(5.0, 9.0).unwrap();
        let fitted = fit_uniform_with(&SampleMoments::compute(&sample(&d, 10_000, 7))).unwrap();
        assert!((fitted.lo() - 5.0).abs() < 0.01);
        assert!((fitted.hi() - 9.0).abs() < 0.01);
    }

    #[test]
    fn lognormal_rejects_nonpositive() {
        assert!(fit_lognormal(&[1.0, -2.0, 3.0]).is_err());
        assert!(fit_pareto(&[0.0, 1.0]).is_err());
        assert!(fit_weibull(&[-1.0, 1.0]).is_err());
        assert!(fit_gamma_with(&[0.0, 1.0], &SampleMoments::compute(&[0.0, 1.0])).is_err());
    }

    #[test]
    fn degenerate_data_rejected() {
        assert!(fit_uniform_with(&SampleMoments::compute(&[2.0, 2.0, 2.0])).is_err());
        assert!(fit_pareto(&[3.0, 3.0, 3.0]).is_err());
    }

    #[test]
    fn pipeline_identifies_each_family() {
        // Distinct-shape cases the pipeline must separate.
        let cases: Vec<(&str, Box<dyn Distribution>)> = vec![
            ("exponential", Box::new(Exponential::new(1.0).unwrap())),
            ("pareto", Box::new(Pareto::new(1.0, 1.5).unwrap())),
            ("normal", Box::new(Normal::new(50.0, 3.0).unwrap())),
            ("uniform", Box::new(Uniform::new(10.0, 20.0).unwrap())),
        ];
        for (i, (family, d)) in cases.iter().enumerate() {
            let mut rng = Rng64::new(100 + i as u64);
            let data: Vec<f64> = (0..4000).map(|_| d.sample(&mut rng)).collect();
            let report = FitPipeline::standard().run(&data).unwrap();
            assert_eq!(report.best().family, *family, "case {family}");
        }
    }

    #[test]
    fn pipeline_tolerates_negative_data() {
        // Negative values knock out the positive-support families but the
        // pipeline still returns normal/uniform candidates.
        let d = Normal::new(0.0, 1.0).unwrap();
        let data = sample(&d, 2000, 8);
        let report = FitPipeline::standard().run(&data).unwrap();
        assert_eq!(report.best().family, "normal");
        assert!(report.family("pareto").is_none());
    }

    #[test]
    fn pipeline_ranks_by_ks() {
        let d = LogNormal::new(0.0, 0.5).unwrap();
        let data = sample(&d, 3000, 9);
        let report = FitPipeline::standard().run(&data).unwrap();
        let stats: Vec<f64> = report.entries().iter().map(|e| e.ks.statistic).collect();
        // Entries after the (possibly parsimony-promoted) winner stay sorted.
        for w in stats[1..].windows(2) {
            assert!(w[0] <= w[1], "not sorted: {stats:?}");
        }
        // The winner is within the parsimony tie window of the true minimum.
        let min = stats.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(stats[0] <= min + (min * 0.15).max(0.6 / (data.len() as f64).sqrt()) + 1e-12);
    }

    #[test]
    fn timing_pipeline_excludes_normal() {
        let d = Exponential::new(1.0).unwrap();
        let data = sample(&d, 1000, 10);
        let report = FitPipeline::timing().run(&data).unwrap();
        assert!(report.family("normal").is_none());
        assert!(report.family("exponential").is_some());
    }
}

//! Clustering: k-means (k-means++ seeding) and model-based clustering via a
//! diagonal-covariance Gaussian mixture fitted with EM.
//!
//! Li's grid-workload methodology uses *model-based clustering* as phase 1
//! of synthetic-workload generation: cluster the joint feature space, then
//! fit per-cluster marginals. [`GaussianMixture`] is that tool;
//! [`kmeans`] is both its initializer and a baseline.

use kooza_sim::rng::Rng64;

use crate::{Result, StatsError};

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input row.
    pub assignments: Vec<usize>,
    /// Total within-cluster sum of squared distances.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn validate_rows(rows: &[Vec<f64>], k: usize) -> Result<usize> {
    if k == 0 {
        return Err(StatsError::InvalidInput("k must be positive".into()));
    }
    if rows.len() < k {
        return Err(StatsError::InsufficientData { needed: k, got: rows.len() });
    }
    let dim = rows[0].len();
    if dim == 0 {
        return Err(StatsError::InvalidInput("rows must be non-empty".into()));
    }
    for row in rows {
        if row.len() != dim {
            return Err(StatsError::InvalidInput("ragged rows".into()));
        }
        if !row.iter().all(|x| x.is_finite()) {
            return Err(StatsError::NonFiniteData);
        }
    }
    Ok(dim)
}

/// k-means with k-means++ seeding and Lloyd iterations.
///
/// # Errors
///
/// Errors on `k == 0`, fewer rows than clusters, ragged or non-finite rows.
///
/// ```
/// use kooza_sim::rng::Rng64;
/// use kooza_stats::cluster::kmeans;
/// let rows = vec![
///     vec![0.0, 0.1], vec![0.1, 0.0], vec![0.05, 0.05],
///     vec![9.0, 9.1], vec![9.1, 9.0], vec![8.95, 9.05],
/// ];
/// let result = kmeans(&rows, 2, 100, &mut Rng64::new(1))?;
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_ne!(result.assignments[0], result.assignments[3]);
/// # Ok::<(), kooza_stats::StatsError>(())
/// ```
pub fn kmeans(rows: &[Vec<f64>], k: usize, max_iter: usize, rng: &mut Rng64) -> Result<KMeans> {
    let dim = validate_rows(rows, k)?;
    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(rows[rng.next_bounded(rows.len() as u64) as usize].clone());
    while centroids.len() < k {
        let weights: Vec<f64> = rows
            .iter()
            .map(|r| {
                centroids
                    .iter()
                    .map(|c| sq_dist(r, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let idx = if total > 0.0 {
            rng.choose_weighted(&weights)
        } else {
            rng.next_bounded(rows.len() as u64) as usize
        };
        centroids.push(rows[idx].clone());
    }

    let mut assignments = vec![0usize; rows.len()];
    let mut iterations = 0;
    for iter in 0..max_iter.max(1) {
        iterations = iter + 1;
        // Assign.
        let mut changed = false;
        for (i, row) in rows.iter().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    sq_dist(row, &centroids[a])
                        .partial_cmp(&sq_dist(row, &centroids[b]))
                        .unwrap()
                })
                .unwrap();
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (row, &a) in rows.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &v) in sums[a].iter_mut().zip(row) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centroids[c] = sums[c].clone();
            } else {
                // Re-seed an empty cluster at the point farthest from its centroid.
                let far = rows
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        sq_dist(a, &centroids[assignments[0]])
                            .partial_cmp(&sq_dist(b, &centroids[assignments[0]]))
                            .unwrap()
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids[c] = rows[far].clone();
            }
        }
        if !changed && iter > 0 {
            break;
        }
    }
    let inertia = rows
        .iter()
        .zip(&assignments)
        .map(|(r, &a)| sq_dist(r, &centroids[a]))
        .sum();
    Ok(KMeans {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

/// A diagonal-covariance Gaussian mixture model fitted by EM.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    /// Mixing weights, one per component (sum to 1).
    pub weights: Vec<f64>,
    /// Component means.
    pub means: Vec<Vec<f64>>,
    /// Component per-dimension variances.
    pub variances: Vec<Vec<f64>>,
    /// Final mean log-likelihood per observation.
    pub log_likelihood: f64,
    /// EM iterations executed.
    pub iterations: usize,
}

impl GaussianMixture {
    /// Fits a `k`-component diagonal GMM with EM, initialized from k-means.
    ///
    /// # Errors
    ///
    /// Same validation as [`kmeans`].
    pub fn fit(rows: &[Vec<f64>], k: usize, max_iter: usize, rng: &mut Rng64) -> Result<Self> {
        let dim = validate_rows(rows, k)?;
        let n = rows.len();
        let km = kmeans(rows, k, 50, rng)?;

        let mut weights = vec![0.0f64; k];
        let mut means = km.centroids.clone();
        let mut variances = vec![vec![0.0f64; dim]; k];
        // Initialize from the k-means partition.
        let mut counts = vec![0usize; k];
        for (row, &a) in rows.iter().zip(&km.assignments) {
            counts[a] += 1;
            for d in 0..dim {
                let diff = row[d] - means[a][d];
                variances[a][d] += diff * diff;
            }
        }
        let global_var = {
            let gm: Vec<f64> = (0..dim)
                .map(|d| rows.iter().map(|r| r[d]).sum::<f64>() / n as f64)
                .collect();
            (0..dim)
                .map(|d| rows.iter().map(|r| (r[d] - gm[d]).powi(2)).sum::<f64>() / n as f64)
                .collect::<Vec<f64>>()
        };
        for c in 0..k {
            weights[c] = (counts[c] as f64 / n as f64).max(1e-6);
            for d in 0..dim {
                variances[c][d] = if counts[c] > 1 {
                    (variances[c][d] / counts[c] as f64).max(1e-9)
                } else {
                    global_var[d].max(1e-9)
                };
            }
        }

        let log_density = |row: &[f64], mean: &[f64], var: &[f64]| -> f64 {
            let mut acc = 0.0;
            for d in 0..row.len() {
                let z = (row[d] - mean[d]).powi(2) / var[d];
                acc += -0.5 * (z + var[d].ln() + (2.0 * std::f64::consts::PI).ln());
            }
            acc
        };

        let mut resp = vec![vec![0.0f64; k]; n];
        let mut ll_prev = f64::NEG_INFINITY;
        let mut log_likelihood = ll_prev;
        let mut iterations = 0;
        for iter in 0..max_iter.max(1) {
            iterations = iter + 1;
            // E-step.
            let mut ll = 0.0;
            for (i, row) in rows.iter().enumerate() {
                let logs: Vec<f64> = (0..k)
                    .map(|c| weights[c].ln() + log_density(row, &means[c], &variances[c]))
                    .collect();
                let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let sum_exp: f64 = logs.iter().map(|l| (l - m).exp()).sum();
                let log_total = m + sum_exp.ln();
                ll += log_total;
                for c in 0..k {
                    resp[i][c] = (logs[c] - log_total).exp();
                }
            }
            log_likelihood = ll / n as f64;
            // M-step.
            for c in 0..k {
                let nk: f64 = resp.iter().map(|r| r[c]).sum();
                if nk < 1e-9 {
                    continue;
                }
                weights[c] = nk / n as f64;
                for d in 0..dim {
                    let mu = rows
                        .iter()
                        .zip(&resp)
                        .map(|(row, r)| r[c] * row[d])
                        .sum::<f64>()
                        / nk;
                    means[c][d] = mu;
                }
                for d in 0..dim {
                    let var = rows
                        .iter()
                        .zip(&resp)
                        .map(|(row, r)| r[c] * (row[d] - means[c][d]).powi(2))
                        .sum::<f64>()
                        / nk;
                    variances[c][d] = var.max(1e-9);
                }
            }
            if (log_likelihood - ll_prev).abs() < 1e-9 {
                break;
            }
            ll_prev = log_likelihood;
        }
        Ok(GaussianMixture {
            weights,
            means,
            variances,
            log_likelihood,
            iterations,
        })
    }

    /// Number of components.
    pub fn n_components(&self) -> usize {
        self.weights.len()
    }

    /// Draws a synthetic observation from the mixture.
    pub fn sample(&self, rng: &mut Rng64) -> Vec<f64> {
        let c = rng.choose_weighted(&self.weights);
        self.means[c]
            .iter()
            .zip(&self.variances[c])
            .map(|(&m, &v)| {
                let u1 = rng.next_f64_open();
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                m + v.sqrt() * z
            })
            .collect()
    }

    /// Bayesian information criterion (lower is better): −2·LL·n + p·ln n.
    pub fn bic(&self, n: usize) -> f64 {
        let k = self.weights.len();
        let dim = self.means[0].len();
        let params = (k - 1) + k * dim * 2;
        -2.0 * self.log_likelihood * n as f64 + params as f64 * (n as f64).ln()
    }
}

/// Chooses the number of GMM components in `1..=max_k` minimizing BIC —
/// the standard model-based-clustering selection rule.
///
/// # Errors
///
/// Propagates fitting errors if *every* candidate fails.
pub fn select_components(
    rows: &[Vec<f64>],
    max_k: usize,
    rng: &mut Rng64,
) -> Result<GaussianMixture> {
    let mut best: Option<GaussianMixture> = None;
    let mut best_bic = f64::INFINITY;
    let mut last_err = None;
    for k in 1..=max_k.max(1) {
        match GaussianMixture::fit(rows, k, 200, rng) {
            Ok(gmm) => {
                let bic = gmm.bic(rows.len());
                if bic < best_bic {
                    best_bic = bic;
                    best = Some(gmm);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.ok_or_else(|| last_err.unwrap_or(StatsError::InvalidInput("no viable k".into())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n_each: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Rng64::new(seed);
        let mut rows = Vec::new();
        for _ in 0..n_each {
            rows.push(vec![rng.next_f64(), rng.next_f64()]);
            rows.push(vec![10.0 + rng.next_f64(), 10.0 + rng.next_f64()]);
        }
        rows
    }

    #[test]
    fn kmeans_separates_blobs() {
        let rows = two_blobs(50, 600);
        let mut rng = Rng64::new(601);
        let km = kmeans(&rows, 2, 100, &mut rng).unwrap();
        // Even-indexed rows are blob A, odd blob B.
        let a = km.assignments[0];
        let b = km.assignments[1];
        assert_ne!(a, b);
        for (i, &asg) in km.assignments.iter().enumerate() {
            assert_eq!(asg, if i % 2 == 0 { a } else { b }, "row {i}");
        }
    }

    #[test]
    fn kmeans_inertia_decreases_with_k() {
        let rows = two_blobs(30, 602);
        let mut rng = Rng64::new(603);
        let i1 = kmeans(&rows, 1, 100, &mut rng).unwrap().inertia;
        let i2 = kmeans(&rows, 2, 100, &mut rng).unwrap().inertia;
        let i4 = kmeans(&rows, 4, 100, &mut rng).unwrap().inertia;
        assert!(i2 < i1);
        assert!(i4 <= i2);
    }

    #[test]
    fn kmeans_validates_input() {
        let mut rng = Rng64::new(604);
        assert!(kmeans(&[], 1, 10, &mut rng).is_err());
        assert!(kmeans(&[vec![1.0]], 0, 10, &mut rng).is_err());
        assert!(kmeans(&[vec![1.0]], 2, 10, &mut rng).is_err());
        assert!(kmeans(&[vec![1.0], vec![1.0, 2.0]], 1, 10, &mut rng).is_err());
        assert!(kmeans(&[vec![f64::NAN], vec![1.0]], 1, 10, &mut rng).is_err());
    }

    #[test]
    fn gmm_recovers_mixture_structure() {
        let rows = two_blobs(100, 605);
        let mut rng = Rng64::new(606);
        let gmm = GaussianMixture::fit(&rows, 2, 200, &mut rng).unwrap();
        // Weights near 0.5 each.
        assert!((gmm.weights[0] - 0.5).abs() < 0.05, "{:?}", gmm.weights);
        // One mean near (0.5, 0.5), the other near (10.5, 10.5).
        let near = |m: &Vec<f64>, t: f64| (m[0] - t).abs() < 0.3 && (m[1] - t).abs() < 0.3;
        assert!(
            (near(&gmm.means[0], 0.5) && near(&gmm.means[1], 10.5))
                || (near(&gmm.means[1], 0.5) && near(&gmm.means[0], 10.5)),
            "{:?}",
            gmm.means
        );
    }

    #[test]
    fn gmm_sampling_reflects_mixture() {
        let rows = two_blobs(100, 609);
        let mut rng = Rng64::new(610);
        let gmm = GaussianMixture::fit(&rows, 2, 200, &mut rng).unwrap();
        let mut low = 0;
        let mut high = 0;
        for _ in 0..1000 {
            let s = gmm.sample(&mut rng);
            if s[0] < 5.0 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(low > 300 && high > 300, "low {low} high {high}");
    }

    #[test]
    fn bic_selects_two_components_for_two_blobs() {
        let rows = two_blobs(80, 611);
        let mut rng = Rng64::new(612);
        let gmm = select_components(&rows, 4, &mut rng).unwrap();
        assert_eq!(gmm.n_components(), 2, "picked {}", gmm.n_components());
    }

    #[test]
    fn gmm_log_likelihood_improves_over_iterations() {
        let rows = two_blobs(60, 613);
        let mut rng_a = Rng64::new(614);
        let short = GaussianMixture::fit(&rows, 2, 1, &mut rng_a).unwrap();
        let mut rng_b = Rng64::new(614);
        let long = GaussianMixture::fit(&rows, 2, 100, &mut rng_b).unwrap();
        assert!(long.log_likelihood >= short.log_likelihood - 1e-9);
    }
}

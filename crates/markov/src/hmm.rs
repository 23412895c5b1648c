//! A hidden Markov model with Baum–Welch training and Viterbi decoding.
//!
//! [`GaussianHmm`] emits real values from per-state normal distributions —
//! the simplified, diagonal form of Moro et al.'s Ergodic Continuous HMM
//! used to model sequences of memory references.
//!
//! Training uses the standard scaled forward–backward recursion, so
//! sequences of hundreds of thousands of observations train without
//! underflow.

use kooza_sim::rng::{Rng64, WeightedIndex};

use crate::{MarkovError, Result};

/// Outcome of a Baum–Welch training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmmFit {
    /// Final total log-likelihood of the training sequence.
    pub log_likelihood: f64,
    /// EM iterations executed.
    pub iterations: usize,
    /// Whether the likelihood improvement fell below the tolerance.
    pub converged: bool,
}

/// Scaled forward–backward over a matrix of per-step emission likelihoods
/// (`emis[t][i]` = likelihood of observation `t` in state `i`).
///
/// Returns `(gamma, xi_sum, log_likelihood)` where `gamma[t][i]` is the
/// posterior state occupancy and `xi_sum[i][j]` the expected transition
/// counts summed over time.
#[allow(clippy::type_complexity)]
fn forward_backward(
    a: &[Vec<f64>],
    pi: &[f64],
    emis: &[Vec<f64>],
) -> Result<(Vec<Vec<f64>>, Vec<Vec<f64>>, f64)> {
    let t_len = emis.len();
    let n = pi.len();
    if t_len == 0 {
        return Err(MarkovError::InsufficientData { needed: 1, got: 0 });
    }
    let mut alpha = vec![vec![0.0f64; n]; t_len];
    let mut scale = vec![0.0f64; t_len];

    // Forward.
    for i in 0..n {
        alpha[0][i] = pi[i] * emis[0][i];
    }
    scale[0] = alpha[0].iter().sum();
    if scale[0] <= 0.0 {
        return Err(MarkovError::NumericalFailure("forward pass (zero likelihood)"));
    }
    alpha[0].iter_mut().for_each(|x| *x /= scale[0]);
    for t in 1..t_len {
        for j in 0..n {
            let s: f64 = (0..n).map(|i| alpha[t - 1][i] * a[i][j]).sum();
            alpha[t][j] = s * emis[t][j];
        }
        scale[t] = alpha[t].iter().sum();
        if scale[t] <= 0.0 {
            return Err(MarkovError::NumericalFailure("forward pass (zero likelihood)"));
        }
        let c = scale[t];
        alpha[t].iter_mut().for_each(|x| *x /= c);
    }
    let log_likelihood: f64 = scale.iter().map(|c| c.ln()).sum();

    // Backward (same scaling constants).
    let mut beta = vec![vec![0.0f64; n]; t_len];
    beta[t_len - 1].iter_mut().for_each(|x| *x = 1.0);
    for t in (0..t_len - 1).rev() {
        for i in 0..n {
            beta[t][i] = (0..n)
                .map(|j| a[i][j] * emis[t + 1][j] * beta[t + 1][j])
                .sum::<f64>()
                / scale[t + 1];
        }
    }

    // Posteriors.
    let mut gamma = vec![vec![0.0f64; n]; t_len];
    for t in 0..t_len {
        let mut norm = 0.0;
        for i in 0..n {
            gamma[t][i] = alpha[t][i] * beta[t][i];
            norm += gamma[t][i];
        }
        if norm > 0.0 {
            gamma[t].iter_mut().for_each(|x| *x /= norm);
        }
    }
    let mut xi_sum = vec![vec![0.0f64; n]; n];
    for t in 0..t_len - 1 {
        let mut norm = 0.0;
        let mut local = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                let v = alpha[t][i] * a[i][j] * emis[t + 1][j] * beta[t + 1][j];
                local[i][j] = v;
                norm += v;
            }
        }
        if norm > 0.0 {
            for i in 0..n {
                for j in 0..n {
                    xi_sum[i][j] += local[i][j] / norm;
                }
            }
        }
    }
    Ok((gamma, xi_sum, log_likelihood))
}

/// Viterbi decoding over log-space emission likelihoods.
fn viterbi_path(a: &[Vec<f64>], pi: &[f64], log_emis: &[Vec<f64>]) -> Vec<usize> {
    let t_len = log_emis.len();
    let n = pi.len();
    if t_len == 0 {
        return Vec::new();
    }
    let log = |x: f64| x.max(1e-300).ln();
    let mut delta = vec![vec![f64::NEG_INFINITY; n]; t_len];
    let mut psi = vec![vec![0usize; n]; t_len];
    for i in 0..n {
        delta[0][i] = log(pi[i]) + log_emis[0][i];
    }
    for t in 1..t_len {
        for j in 0..n {
            let (best_i, best_v) = (0..n)
                .map(|i| (i, delta[t - 1][i] + log(a[i][j])))
                .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
                .unwrap();
            delta[t][j] = best_v + log_emis[t][j];
            psi[t][j] = best_i;
        }
    }
    let mut path = vec![0usize; t_len];
    path[t_len - 1] = (0..n)
        .max_by(|&x, &y| delta[t_len - 1][x].partial_cmp(&delta[t_len - 1][y]).unwrap())
        .unwrap();
    for t in (0..t_len - 1).rev() {
        path[t] = psi[t + 1][path[t + 1]];
    }
    path
}

fn validate_square(a: &[Vec<f64>], n: usize) -> Result<()> {
    if a.len() != n {
        return Err(MarkovError::StateOutOfRange { state: a.len(), n_states: n });
    }
    for (i, row) in a.iter().enumerate() {
        if row.len() != n {
            return Err(MarkovError::StateOutOfRange { state: row.len(), n_states: n });
        }
        let sum: f64 = row.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(MarkovError::NotStochastic { row: i, sum });
        }
    }
    Ok(())
}

/// A hidden Markov model with per-state Gaussian emissions (a simplified
/// Ergodic Continuous HMM).
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianHmm {
    n_states: usize,
    a: Vec<Vec<f64>>,
    pi: Vec<f64>,
    means: Vec<f64>,
    vars: Vec<f64>,
}

impl GaussianHmm {
    /// Constructs a Gaussian-emission HMM.
    ///
    /// # Errors
    ///
    /// Errors on malformed stochastic rows or non-positive variances.
    pub fn new(
        a: Vec<Vec<f64>>,
        pi: Vec<f64>,
        means: Vec<f64>,
        vars: Vec<f64>,
    ) -> Result<Self> {
        let n = pi.len();
        if n == 0 {
            return Err(MarkovError::EmptyStateSpace);
        }
        validate_square(&a, n)?;
        if means.len() != n || vars.len() != n {
            return Err(MarkovError::StateOutOfRange { state: means.len(), n_states: n });
        }
        if vars.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
            return Err(MarkovError::NumericalFailure("non-positive emission variance"));
        }
        Ok(GaussianHmm {
            n_states: n,
            a,
            pi,
            means,
            vars,
        })
    }

    /// Initialization for EM: states seeded on data quantiles with the
    /// overall variance, transitions mildly sticky.
    ///
    /// # Errors
    ///
    /// Errors if `obs` has fewer than `n_states + 1` points.
    pub fn init_from_data(n_states: usize, obs: &[f64], rng: &mut Rng64) -> Result<Self> {
        if n_states == 0 {
            return Err(MarkovError::EmptyStateSpace);
        }
        if obs.len() <= n_states {
            return Err(MarkovError::InsufficientData { needed: n_states + 1, got: obs.len() });
        }
        let mut sorted = obs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = obs.iter().sum::<f64>() / obs.len() as f64;
        let var = (obs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / obs.len() as f64)
            .max(1e-9);
        let means: Vec<f64> = (0..n_states)
            .map(|i| {
                let q = (i as f64 + 0.5) / n_states as f64;
                let idx = ((q * sorted.len() as f64) as usize).min(sorted.len() - 1);
                sorted[idx] + (rng.next_f64() - 0.5) * 1e-6 * (var.sqrt() + 1.0)
            })
            .collect();
        let mut a = vec![vec![0.0; n_states]; n_states];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if i == j { 0.8 } else { 0.2 / (n_states as f64 - 1.0).max(1.0) };
            }
            if n_states == 1 {
                row[0] = 1.0;
            }
        }
        GaussianHmm::new(a, vec![1.0 / n_states as f64; n_states], means, vec![var; n_states])
    }

    /// Number of hidden states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Per-state emission means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-state emission variances.
    pub fn variances(&self) -> &[f64] {
        &self.vars
    }

    /// Transition matrix.
    pub fn transitions(&self) -> &[Vec<f64>] {
        &self.a
    }

    fn emission_matrix(&self, obs: &[f64]) -> Vec<Vec<f64>> {
        let norm: Vec<f64> = self
            .vars
            .iter()
            .map(|v| 1.0 / (2.0 * std::f64::consts::PI * v).sqrt())
            .collect();
        obs.iter()
            .map(|&o| {
                (0..self.n_states)
                    .map(|i| {
                        let z = (o - self.means[i]).powi(2) / (2.0 * self.vars[i]);
                        // Floor keeps far-tail observations from zeroing the
                        // whole forward pass.
                        (norm[i] * (-z).exp()).max(1e-290)
                    })
                    .collect()
            })
            .collect()
    }

    /// Total log-likelihood of a real-valued observation sequence.
    ///
    /// # Errors
    ///
    /// Errors on empty input or numerical failure.
    pub fn log_likelihood(&self, obs: &[f64]) -> Result<f64> {
        let emis = self.emission_matrix(obs);
        forward_backward(&self.a, &self.pi, &emis).map(|(_, _, ll)| ll)
    }

    fn baum_welch_step(&mut self, obs: &[f64]) -> Result<f64> {
        let emis = self.emission_matrix(obs);
        let (gamma, xi_sum, ll) = forward_backward(&self.a, &self.pi, &emis)?;
        let n = self.n_states;
        let t_len = obs.len();
        self.pi = gamma[0].clone();
        for i in 0..n {
            let occupancy: f64 = (0..t_len - 1).map(|t| gamma[t][i]).sum();
            if occupancy > 0.0 {
                for j in 0..n {
                    self.a[i][j] = xi_sum[i][j] / occupancy;
                }
            }
            let s: f64 = self.a[i].iter().sum();
            if s > 0.0 {
                self.a[i].iter_mut().for_each(|x| *x /= s);
            }
        }
        for i in 0..n {
            let occupancy: f64 = (0..t_len).map(|t| gamma[t][i]).sum();
            if occupancy > 1e-12 {
                let mean = (0..t_len).map(|t| gamma[t][i] * obs[t]).sum::<f64>() / occupancy;
                let var = (0..t_len)
                    .map(|t| gamma[t][i] * (obs[t] - mean).powi(2))
                    .sum::<f64>()
                    / occupancy;
                self.means[i] = mean;
                self.vars[i] = var.max(1e-9);
            }
        }
        Ok(ll)
    }

    /// Trains with Baum–Welch: each pass re-estimates the initial,
    /// transition and emission parameters from the posteriors under the
    /// current ones, so the log-likelihood never falls. Stops when it
    /// improves by less than `tol` or after `max_iter` passes, and reports
    /// the log-likelihood under the final parameters.
    ///
    /// # Errors
    ///
    /// Errors on too-short input or numerical failure.
    pub fn train(&mut self, obs: &[f64], max_iter: usize, tol: f64) -> Result<HmmFit> {
        if obs.len() < 2 {
            return Err(MarkovError::InsufficientData { needed: 2, got: obs.len() });
        }
        let mut prev = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        for iter in 0..max_iter.max(1) {
            iterations = iter + 1;
            let ll = self.baum_welch_step(obs)?;
            if (ll - prev).abs() < tol && iter > 0 {
                converged = true;
                break;
            }
            prev = ll;
        }
        let final_ll = self.log_likelihood(obs)?;
        Ok(HmmFit {
            log_likelihood: final_ll,
            iterations,
            converged,
        })
    }

    /// Most likely hidden-state path (Viterbi).
    pub fn viterbi(&self, obs: &[f64]) -> Vec<usize> {
        let emis = self.emission_matrix(obs);
        let log_emis: Vec<Vec<f64>> = emis
            .iter()
            .map(|row| row.iter().map(|&p| p.ln()).collect())
            .collect();
        viterbi_path(&self.a, &self.pi, &log_emis)
    }

    /// Generates `(hidden_states, observations)` of length `len`.
    pub fn generate(&self, len: usize, rng: &mut Rng64) -> (Vec<usize>, Vec<f64>) {
        let mut states = Vec::with_capacity(len);
        let mut values = Vec::with_capacity(len);
        if len == 0 {
            return (states, values);
        }
        // Cumulative tables amortize the per-step linear CDF scans over the
        // whole walk (bit-identical draws; see `WeightedIndex`).
        let pi_cum = WeightedIndex::new(&self.pi);
        let a_cum: Vec<WeightedIndex> = self.a.iter().map(|r| WeightedIndex::new(r)).collect();
        let mut s = pi_cum.sample(rng);
        for _ in 0..len {
            states.push(s);
            let u1 = rng.next_f64_open();
            let u2 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            values.push(self.means[s] + self.vars[s].sqrt() * z);
            s = a_cum[s].sample(rng);
        }
        (states, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state_gaussian() -> GaussianHmm {
        GaussianHmm::new(
            vec![vec![0.95, 0.05], vec![0.05, 0.95]],
            vec![0.5, 0.5],
            vec![0.0, 10.0],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn gaussian_validation() {
        assert!(GaussianHmm::new(vec![], vec![], vec![], vec![]).is_err());
        assert!(GaussianHmm::new(
            vec![vec![1.0]],
            vec![1.0],
            vec![0.0],
            vec![0.0], // zero variance
        )
        .is_err());
    }

    #[test]
    fn gaussian_em_recovers_means() {
        let source = two_state_gaussian();
        let mut rng = Rng64::new(903);
        let (_, obs) = source.generate(3000, &mut rng);
        let mut model = GaussianHmm::init_from_data(2, &obs, &mut rng).unwrap();
        model.train(&obs, 100, 1e-6).unwrap();
        let mut means = model.means().to_vec();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.0).abs() < 0.5, "means {means:?}");
        assert!((means[1] - 10.0).abs() < 0.5, "means {means:?}");
    }

    #[test]
    fn gaussian_em_recovers_stickiness() {
        let source = two_state_gaussian();
        let mut rng = Rng64::new(904);
        let (_, obs) = source.generate(5000, &mut rng);
        let mut model = GaussianHmm::init_from_data(2, &obs, &mut rng).unwrap();
        model.train(&obs, 100, 1e-6).unwrap();
        // Both self-transitions should be strong.
        assert!(model.transitions()[0][0] > 0.85);
        assert!(model.transitions()[1][1] > 0.85);
    }

    #[test]
    fn gaussian_viterbi_segments_by_level() {
        let source = two_state_gaussian();
        let mut rng = Rng64::new(905);
        let (states, obs) = source.generate(2000, &mut rng);
        let decoded = source.viterbi(&obs);
        let agree = states.iter().zip(&decoded).filter(|(a, b)| a == b).count() as f64
            / states.len() as f64;
        assert!(agree > 0.95, "agreement {agree}");
    }

    #[test]
    fn gaussian_hmm_beats_single_gaussian_on_bimodal_data() {
        // The Moro et al. claim in miniature: for regime-switching data an
        // HMM explains the sequence far better than an iid Gaussian.
        let source = two_state_gaussian();
        let mut rng = Rng64::new(906);
        let (_, obs) = source.generate(2000, &mut rng);
        let mut hmm = GaussianHmm::init_from_data(2, &obs, &mut rng).unwrap();
        let hmm_fit = hmm.train(&obs, 100, 1e-6).unwrap();
        // iid Gaussian = one-state HMM.
        let mut single = GaussianHmm::init_from_data(1, &obs, &mut rng).unwrap();
        let single_fit = single.train(&obs, 100, 1e-6).unwrap();
        assert!(
            hmm_fit.log_likelihood > single_fit.log_likelihood + 100.0,
            "hmm {} vs single {}",
            hmm_fit.log_likelihood,
            single_fit.log_likelihood
        );
    }

    #[test]
    fn gaussian_init_needs_enough_data() {
        let mut rng = Rng64::new(907);
        assert!(GaussianHmm::init_from_data(5, &[1.0, 2.0], &mut rng).is_err());
        assert!(GaussianHmm::init_from_data(0, &[1.0, 2.0], &mut rng).is_err());
    }

    #[test]
    fn train_rejects_tiny_input() {
        let mut hmm = two_state_gaussian();
        assert!(hmm.train(&[0.0], 10, 1e-6).is_err());
    }

    #[test]
    fn generate_zero_length() {
        let g = two_state_gaussian();
        let (s, o) = g.generate(0, &mut Rng64::new(1));
        assert!(s.is_empty() && o.is_empty());
    }
}

//! First-order discrete Markov chains.

use std::sync::OnceLock;

use kooza_sim::rng::{Rng64, WeightedIndex};

use crate::{MarkovError, Result};

/// A trained first-order Markov chain over states `0..n_states`.
///
/// Rows of the transition matrix are probability distributions; the initial
/// distribution is learned from sequence starts (or defaults to uniform).
///
/// Sampling is hot-path optimized: every transition row (and the initial
/// distribution) carries a [`WeightedIndex`] cumulative table, so
/// [`MarkovChain::next_state`] is one uniform plus an O(log n) binary
/// search instead of a linear CDF scan — and bit-identical to the scan it
/// replaced (see `WeightedIndex`'s equivalence contract in `kooza-sim`).
/// Row tables are built lazily on first sample, each in one O(n) pass:
/// training pipelines build many chains (one per subsystem) whose rows are
/// mostly never sampled, and the fits that are never generated from would
/// otherwise pay for every row's table.
#[derive(Debug)]
pub struct MarkovChain {
    n_states: usize,
    /// Row-stochastic transition matrix, `transition[i][j] = P(j | i)`.
    transition: Vec<Vec<f64>>,
    /// Initial state distribution.
    initial: Vec<f64>,
    /// Per-row cumulative sampling tables, aligned with `transition`,
    /// built on first use (the table is a pure function of the row).
    transition_cum: Vec<OnceLock<WeightedIndex>>,
    /// Cumulative sampling table for `initial`.
    initial_cum: OnceLock<WeightedIndex>,
}

impl Clone for MarkovChain {
    fn clone(&self) -> Self {
        // Carry over any already-built tables so a clone does not re-pay
        // their construction; missing ones stay lazy.
        let clone_cell = |cell: &OnceLock<WeightedIndex>| {
            let out = OnceLock::new();
            if let Some(table) = cell.get() {
                let _ = out.set(table.clone());
            }
            out
        };
        MarkovChain {
            n_states: self.n_states,
            transition: self.transition.clone(),
            initial: self.initial.clone(),
            transition_cum: self.transition_cum.iter().map(clone_cell).collect(),
            initial_cum: clone_cell(&self.initial_cum),
        }
    }
}

impl PartialEq for MarkovChain {
    fn eq(&self, other: &Self) -> bool {
        // The cumulative tables are derived data; chain identity is the
        // distributions themselves.
        self.n_states == other.n_states
            && self.transition == other.transition
            && self.initial == other.initial
    }
}

/// Builder that accumulates transition counts and produces a
/// [`MarkovChain`] with Laplace smoothing.
///
/// ```
/// use kooza_markov::MarkovChainBuilder;
/// let chain = MarkovChainBuilder::new(3)
///     .with_smoothing(0.5)
///     .observe_sequence(&[0, 1, 2, 1, 0])
///     .build()?;
/// assert_eq!(chain.n_states(), 3);
/// # Ok::<(), kooza_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MarkovChainBuilder {
    n_states: usize,
    counts: Vec<Vec<f64>>,
    initial_counts: Vec<f64>,
    smoothing: f64,
    observed_transitions: usize,
}

impl MarkovChainBuilder {
    /// Starts a builder for a chain over `n_states` states with the default
    /// Laplace smoothing of 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `n_states == 0`.
    pub fn new(n_states: usize) -> Self {
        assert!(n_states > 0, "state space must be non-empty");
        MarkovChainBuilder {
            n_states,
            counts: vec![vec![0.0; n_states]; n_states],
            initial_counts: vec![0.0; n_states],
            smoothing: 1.0,
            observed_transitions: 0,
        }
    }

    /// Sets the Laplace smoothing pseudo-count (0 disables smoothing; rows
    /// never observed then fall back to uniform).
    ///
    /// # Panics
    ///
    /// Panics if `smoothing` is negative or non-finite.
    pub fn with_smoothing(mut self, smoothing: f64) -> Self {
        assert!(
            smoothing.is_finite() && smoothing >= 0.0,
            "smoothing must be finite and non-negative"
        );
        self.smoothing = smoothing;
        self
    }

    /// Records every adjacent transition in a sequence, plus its start as an
    /// initial-state observation.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of range.
    pub fn observe_sequence(mut self, seq: &[usize]) -> Self {
        if let Some(&first) = seq.first() {
            assert!(first < self.n_states, "state {first} out of range");
            self.initial_counts[first] += 1.0;
        }
        for w in seq.windows(2) {
            self = self.observe_transition(w[0], w[1]);
        }
        self
    }

    /// Records a single transition.
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range.
    pub fn observe_transition(mut self, from: usize, to: usize) -> Self {
        assert!(from < self.n_states, "state {from} out of range");
        assert!(to < self.n_states, "state {to} out of range");
        self.counts[from][to] += 1.0;
        self.observed_transitions += 1;
        self
    }

    /// Non-consuming variant of [`observe_transition`] for loop-heavy
    /// training code.
    ///
    /// [`observe_transition`]: MarkovChainBuilder::observe_transition
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range.
    pub fn record_transition(&mut self, from: usize, to: usize) {
        assert!(from < self.n_states, "state {from} out of range");
        assert!(to < self.n_states, "state {to} out of range");
        self.counts[from][to] += 1.0;
        self.observed_transitions += 1;
    }

    /// Records `state` as a sequence start (non-consuming).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn record_start(&mut self, state: usize) {
        assert!(state < self.n_states, "state {state} out of range");
        self.initial_counts[state] += 1.0;
    }

    /// Number of transitions observed so far.
    pub fn observed_transitions(&self) -> usize {
        self.observed_transitions
    }

    /// Normalizes counts into a [`MarkovChain`].
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InsufficientData`] if no transitions were
    /// observed and smoothing is zero.
    pub fn build(self) -> Result<MarkovChain> {
        if self.observed_transitions == 0 && self.smoothing == 0.0 {
            return Err(MarkovError::InsufficientData { needed: 1, got: 0 });
        }
        let n = self.n_states;
        let mut transition = Vec::with_capacity(n);
        for row in &self.counts {
            let total: f64 = row.iter().sum::<f64>() + self.smoothing * n as f64;
            if total == 0.0 {
                // Unobserved row with zero smoothing: uniform fallback.
                transition.push(vec![1.0 / n as f64; n]);
            } else {
                transition.push(row.iter().map(|c| (c + self.smoothing) / total).collect());
            }
        }
        let init_total: f64 = self.initial_counts.iter().sum();
        let initial = if init_total == 0.0 {
            vec![1.0 / n as f64; n]
        } else {
            self.initial_counts.iter().map(|c| c / init_total).collect()
        };
        Ok(MarkovChain::assemble(transition, initial))
    }
}

impl MarkovChain {
    /// Constructs a chain directly from a transition matrix and initial
    /// distribution.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotStochastic`] if any row (or the initial
    /// distribution) does not sum to 1 within 1e-9, or
    /// [`MarkovError::EmptyStateSpace`] for an empty matrix.
    pub fn from_matrix(transition: Vec<Vec<f64>>, initial: Vec<f64>) -> Result<Self> {
        let n = transition.len();
        if n == 0 {
            return Err(MarkovError::EmptyStateSpace);
        }
        for (i, row) in transition.iter().enumerate() {
            if row.len() != n {
                return Err(MarkovError::StateOutOfRange { state: row.len(), n_states: n });
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 || row.iter().any(|&p| !(0.0..=1.0 + 1e-12).contains(&p)) {
                return Err(MarkovError::NotStochastic { row: i, sum });
            }
        }
        if initial.len() != n {
            return Err(MarkovError::StateOutOfRange { state: initial.len(), n_states: n });
        }
        let init_sum: f64 = initial.iter().sum();
        if (init_sum - 1.0).abs() > 1e-9 {
            return Err(MarkovError::NotStochastic { row: usize::MAX, sum: init_sum });
        }
        Ok(MarkovChain::assemble(transition, initial))
    }

    /// Builds the chain from already-validated stochastic rows (every row
    /// and `initial` sum to a positive total, so the deferred
    /// `WeightedIndex` constructions cannot panic).
    fn assemble(transition: Vec<Vec<f64>>, initial: Vec<f64>) -> Self {
        let transition_cum = transition.iter().map(|_| OnceLock::new()).collect();
        MarkovChain {
            n_states: transition.len(),
            transition,
            initial,
            transition_cum,
            initial_cum: OnceLock::new(),
        }
    }

    /// The cumulative table for one transition row, built on first use.
    fn row_table(&self, row: usize) -> &WeightedIndex {
        self.transition_cum[row].get_or_init(|| WeightedIndex::new(&self.transition[row]))
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// `P(to | from)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range states.
    pub fn transition_probability(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.n_states && to < self.n_states, "state out of range");
        self.transition[from][to]
    }

    /// The transition matrix row for `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn row(&self, from: usize) -> &[f64] {
        assert!(from < self.n_states, "state out of range");
        &self.transition[from]
    }

    /// The initial-state distribution.
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// Samples a start state from the initial distribution.
    pub fn sample_initial(&self, rng: &mut Rng64) -> usize {
        self.initial_cum
            .get_or_init(|| WeightedIndex::new(&self.initial))
            .sample(rng)
    }

    /// Samples the successor of `current` — one uniform plus a binary
    /// search over the row's precomputed cumulative table.
    ///
    /// # Panics
    ///
    /// Panics if `current` is out of range.
    pub fn next_state(&self, current: usize, rng: &mut Rng64) -> usize {
        assert!(current < self.n_states, "state out of range");
        self.row_table(current).sample(rng)
    }

    /// Generates a state sequence of length `len` starting from a sampled
    /// initial state.
    pub fn generate(&self, len: usize, rng: &mut Rng64) -> Vec<usize> {
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        let mut state = self.sample_initial(rng);
        out.push(state);
        for _ in 1..len {
            state = self.next_state(state, rng);
            out.push(state);
        }
        out
    }

    /// The stationary distribution, by power iteration.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NumericalFailure`] if 10 000 iterations do not
    /// converge (periodic or pathological chains).
    pub fn stationary(&self) -> Result<Vec<f64>> {
        let n = self.n_states;
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..10_000 {
            let mut next = vec![0.0; n];
            for (i, p) in pi.iter().enumerate() {
                for j in 0..n {
                    next[j] += p * self.transition[i][j];
                }
            }
            let diff: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if diff < 1e-13 {
                return Ok(pi);
            }
        }
        Err(MarkovError::NumericalFailure("stationary power iteration"))
    }

    /// Log-likelihood of an observed sequence under this chain
    /// (initial probability of the first state plus transition terms).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::StateOutOfRange`] on invalid states.
    pub fn log_likelihood(&self, seq: &[usize]) -> Result<f64> {
        let mut ll = 0.0;
        if let Some(&first) = seq.first() {
            if first >= self.n_states {
                return Err(MarkovError::StateOutOfRange { state: first, n_states: self.n_states });
            }
            ll += self.initial[first].max(1e-300).ln();
        }
        for w in seq.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a >= self.n_states || b >= self.n_states {
                return Err(MarkovError::StateOutOfRange {
                    state: a.max(b),
                    n_states: self.n_states,
                });
            }
            ll += self.transition[a][b].max(1e-300).ln();
        }
        Ok(ll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(p01: f64, p10: f64) -> MarkovChain {
        MarkovChain::from_matrix(
            vec![vec![1.0 - p01, p01], vec![p10, 1.0 - p10]],
            vec![0.5, 0.5],
        )
        .unwrap()
    }

    #[test]
    fn builder_learns_transition_frequencies() {
        // 0 → 0 three times, 0 → 1 once.
        let chain = MarkovChainBuilder::new(2)
            .with_smoothing(0.0)
            .observe_transition(0, 0)
            .observe_transition(0, 0)
            .observe_transition(0, 0)
            .observe_transition(0, 1)
            .observe_transition(1, 0)
            .build()
            .unwrap();
        assert!((chain.transition_probability(0, 0) - 0.75).abs() < 1e-12);
        assert!((chain.transition_probability(0, 1) - 0.25).abs() < 1e-12);
        assert_eq!(chain.transition_probability(1, 0), 1.0);
    }

    #[test]
    fn smoothing_avoids_zero_probabilities() {
        let chain = MarkovChainBuilder::new(3)
            .observe_sequence(&[0, 1, 0, 1])
            .build()
            .unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(chain.transition_probability(i, j) > 0.0);
            }
        }
    }

    #[test]
    fn rows_are_stochastic_after_build() {
        let chain = MarkovChainBuilder::new(4)
            .observe_sequence(&[0, 1, 2, 3, 0, 2, 1])
            .build()
            .unwrap();
        for i in 0..4 {
            let sum: f64 = chain.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn empty_builder_without_smoothing_errors() {
        assert!(MarkovChainBuilder::new(2).with_smoothing(0.0).build().is_err());
        // With smoothing, an untrained chain is uniform.
        let c = MarkovChainBuilder::new(2).build().unwrap();
        assert!((c.transition_probability(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_matrix_validates() {
        assert!(matches!(
            MarkovChain::from_matrix(vec![], vec![]),
            Err(MarkovError::EmptyStateSpace)
        ));
        assert!(matches!(
            MarkovChain::from_matrix(vec![vec![0.6, 0.6], vec![0.5, 0.5]], vec![0.5, 0.5]),
            Err(MarkovError::NotStochastic { row: 0, .. })
        ));
        assert!(MarkovChain::from_matrix(
            vec![vec![0.5, 0.5], vec![0.1, 0.9]],
            vec![0.9, 0.2]
        )
        .is_err());
    }

    #[test]
    fn stationary_of_symmetric_chain_is_uniform() {
        let chain = two_state(0.3, 0.3);
        let pi = chain.stationary().unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
        assert!((pi[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stationary_known_asymmetric() {
        // p01 = 0.2, p10 = 0.8 → π = (0.8, 0.2)
        let chain = two_state(0.2, 0.8);
        let pi = chain.stationary().unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-9, "{pi:?}");
        assert!((pi[1] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn generation_visits_states_per_stationary() {
        let chain = two_state(0.2, 0.8);
        let mut rng = Rng64::new(700);
        let seq = chain.generate(100_000, &mut rng);
        let ones = seq.iter().filter(|&&s| s == 1).count() as f64 / seq.len() as f64;
        assert!((ones - 0.2).abs() < 0.01, "fraction of 1s: {ones}");
    }

    #[test]
    fn generate_zero_length() {
        let chain = two_state(0.5, 0.5);
        assert!(chain.generate(0, &mut Rng64::new(1)).is_empty());
    }

    #[test]
    fn log_likelihood_prefers_generating_chain() {
        let a = two_state(0.9, 0.9); // alternating
        let b = two_state(0.1, 0.1); // sticky
        let mut rng = Rng64::new(701);
        let seq = a.generate(2000, &mut rng);
        assert!(a.log_likelihood(&seq).unwrap() > b.log_likelihood(&seq).unwrap());
    }

    #[test]
    fn log_likelihood_rejects_invalid_state() {
        let chain = two_state(0.5, 0.5);
        assert!(chain.log_likelihood(&[0, 5]).is_err());
    }

    #[test]
    fn trained_chain_recovers_source_matrix() {
        let source = two_state(0.25, 0.65);
        let mut rng = Rng64::new(702);
        let seq = source.generate(200_000, &mut rng);
        let trained = MarkovChainBuilder::new(2)
            .with_smoothing(0.0)
            .observe_sequence(&seq)
            .build()
            .unwrap();
        // Mean total-variation distance between matching rows of the chains.
        let tv = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| {
                (source.transition_probability(i, j) - trained.transition_probability(i, j)).abs()
            })
            .sum::<f64>()
            / 4.0;
        assert!(tv < 0.01, "TV distance {tv}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_out_of_range_panics() {
        let _ = MarkovChainBuilder::new(2).observe_transition(0, 2);
    }
}

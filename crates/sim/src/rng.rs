//! Reproducible pseudo-random number generation.
//!
//! The workspace deliberately avoids the `rand` crate for core randomness so
//! that experiment outputs are bit-stable across toolchain and dependency
//! upgrades. [`Rng64`] is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend; both are public-domain algorithms.
//!
//! Distribution samplers (exponential, normal, Pareto, ...) live in
//! `kooza-stats`; this module only provides the uniform source.

/// A deterministic 64-bit PRNG (xoshiro256++).
///
/// ```
/// use kooza_sim::rng::Rng64;
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including 0) is valid; the state is expanded through
    /// SplitMix64 so correlated seeds do not produce correlated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Derives an independent child generator.
    ///
    /// Useful for giving each simulated component its own stream so that
    /// adding draws in one component does not perturb another.
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Derives the generator for stream `stream` of seed `seed` — the
    /// parallel-execution discipline: every task derives its randomness
    /// from `(seed, task index)` through SplitMix64, so seed `s` + task
    /// `i` yields the same stream at any thread count and in any
    /// completion order.
    ///
    /// ```
    /// use kooza_sim::rng::Rng64;
    /// let mut a = Rng64::for_stream(7, 3);
    /// let mut b = Rng64::for_stream(7, 3);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// assert_ne!(Rng64::for_stream(7, 4).next_u64(), b.next_u64());
    /// ```
    pub fn for_stream(seed: u64, stream: u64) -> Rng64 {
        // Decorrelate the seed, mix the stream id in, and decorrelate
        // again: adjacent (seed, stream) pairs land far apart in the
        // SplitMix64 sequence, and the Rng64 constructor expands the
        // result through SplitMix64 a further four times.
        let mut sm = seed;
        let mixed = splitmix64(&mut sm) ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut sm2 = mixed;
        Rng64::new(splitmix64(&mut sm2))
    }

    /// Next uniform 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]`; never returns exactly 0, so it is safe to
    /// pass to `ln()` when sampling exponentials.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_bounded(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.next_bounded(items.len() as u64) as usize]
    }

    /// Samples an index according to a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty, contain a negative value, or sum to 0.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "cannot choose from empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "weights must be finite and non-negative");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        scan(weights, self.next_f64() * total)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The linear CDF scan behind [`Rng64::choose_weighted`]: subtracts the
/// weights from the scaled uniform `u` in slice order and returns the
/// first index whose weight exceeds what is left.
fn scan(weights: &[f64], mut u: f64) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1 // floating-point slack: attribute to the last bucket
}

/// A precomputed weighted-sampling table for repeated draws from the same
/// weights: [`Rng64::choose_weighted`]'s per-call validation and summation
/// are paid once, in one O(n) pass at construction, and every draw is one
/// uniform plus an O(log n) binary search.
///
/// The table is **bit-equivalent** to the linear scan: for any generator
/// state, `WeightedIndex::new(w).sample(rng)` returns exactly the index
/// `rng.choose_weighted(w)` would have, consuming the same single uniform.
/// The scan's remainder `fl(fl(u−w₀)−w₁)…` and the running sums
/// `fl(fl(w₀+w₁)+w₂)…` round differently, so a plain search over the sums
/// can disagree with the scan for a uniform next to a step boundary. Both
/// rounding errors are bounded by the guard band `β = 2n·ulp(2·total)`:
/// a uniform farther than `β` from every running sum lands in the step
/// the binary search finds, and a uniform inside the band (or any uniform,
/// when `β` is not finite) is handed to the scan itself over the stored
/// weights. For weights summing to about 1 the band is at most
/// `2n·2⁻⁵¹` wide (`5.7e-14` for 64 weights), so random draws practically
/// never scan.
///
/// ```
/// use kooza_sim::rng::{Rng64, WeightedIndex};
/// let weights = [0.2, 0.5, 0.3];
/// let table = WeightedIndex::new(&weights);
/// let (mut a, mut b) = (Rng64::new(7), Rng64::new(7));
/// for _ in 0..100 {
///     assert_eq!(table.sample(&mut a), b.choose_weighted(&weights));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    /// Sum of the weights, folded in slice order (the scan's scale factor).
    total: f64,
    /// The running sums `c_0..=c_{n-2}` of the weights, folded in slice
    /// order, between a `-∞` and a `+∞` sentinel: `sums[i + 1] = c_i`.
    /// Non-decreasing, length `n + 1`.
    sums: Vec<f64>,
    /// The guard band `2n·ulp(2·total)`, or `+∞` when that is not finite.
    band: f64,
    /// The weights, for the exact scan inside the band.
    weights: Vec<f64>,
}

impl WeightedIndex {
    /// Builds the table for a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics exactly when [`Rng64::choose_weighted`] would: empty weights,
    /// a negative or non-finite weight, or an all-zero sum.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "cannot choose from empty weights");
        let n = weights.len();
        let mut sums = Vec::with_capacity(n + 1);
        sums.push(f64::NEG_INFINITY);
        let mut total = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and non-negative");
            total += w;
            sums.push(total);
        }
        assert!(total > 0.0, "weights must not all be zero");
        // The last running sum is the total; the +∞ sentinel takes its slot.
        sums[n] = f64::INFINITY;
        let twice = 2.0 * total;
        let band = 2.0 * n as f64 * (twice.next_up() - twice);
        WeightedIndex {
            total,
            sums,
            band: if band.is_finite() { band } else { f64::INFINITY },
            weights: weights.to_vec(),
        }
    }

    /// Number of weights the table was built from.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the table is empty (never: construction requires weights).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The weight sum the scan scales its uniform by.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draws an index, consuming one uniform — bit-equivalent to
    /// `rng.choose_weighted(weights)` on the same generator state.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.index_for(rng.next_f64() * self.total)
    }

    /// The index the linear scan would pick for scaled uniform `u`.
    fn index_for(&self, u: f64) -> usize {
        self.search(u).unwrap_or_else(|| scan(&self.weights, u))
    }

    /// The number of running sums `<= u`, or `None` when `u` lies within
    /// the guard band of the sum below or above it, where the scan's
    /// rounding may pick the neighbouring step instead.
    fn search(&self, u: f64) -> Option<usize> {
        let n = self.weights.len();
        let j = self.sums[1..n].partition_point(|&c| c <= u);
        let (below, above) = (self.sums[j], self.sums[j + 1]);
        (u - below >= self.band && above - u > self.band).then_some(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_check::gen::{u64_range, usize_range, zip3};
    use kooza_check::{checker, ensure};

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(8);
        assert_ne!(Rng64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn known_vector_stability() {
        // Regression lock: if these change, every experiment output changes.
        let mut r = Rng64::new(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = Rng64::new(0);
        let again: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(first, again);
        assert_eq!(first.len(), 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng64::new(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bounded_is_in_range_and_roughly_uniform() {
        let mut r = Rng64::new(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = r.next_bounded(10);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng64::new(4);
        for _ in 0..1_000 {
            let v = r.next_range(100, 110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut r = Rng64::new(6);
        let mut hits = [0u32; 3];
        for _ in 0..30_000 {
            hits[r.choose_weighted(&[0.0, 1.0, 3.0])] += 1;
        }
        assert_eq!(hits[0], 0);
        let ratio = hits[2] as f64 / hits[1] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn for_stream_is_stable_and_decorrelated() {
        // Same (seed, stream) → same sequence; this is what makes
        // parallel fan-out reproducible at any thread count.
        let a: Vec<u64> = {
            let mut r = Rng64::for_stream(42, 5);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::for_stream(42, 5);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        // Adjacent streams and adjacent seeds differ from the start.
        assert_ne!(Rng64::for_stream(42, 6).next_u64(), a[0]);
        assert_ne!(Rng64::for_stream(43, 5).next_u64(), a[0]);
        // Streams are pairwise distinct over a modest fan-out.
        let firsts: std::collections::HashSet<u64> =
            (0..1000).map(|i| Rng64::for_stream(42, i).next_u64()).collect();
        assert_eq!(firsts.len(), 1000);
    }

    #[test]
    fn fork_streams_diverge() {
        let mut parent = Rng64::new(9);
        let mut a = parent.fork();
        let mut b = parent.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(10);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn bounded_zero_panics() {
        Rng64::new(0).next_bounded(0);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn choose_empty_panics() {
        let empty: [u8; 0] = [];
        Rng64::new(0).choose(&empty);
    }

    /// Replica of the `choose_weighted` linear scan on an externally
    /// supplied scaled uniform, for boundary-exact comparison.
    fn linear_scan(weights: &[f64], mut u: f64) -> usize {
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Smallest `x >= 0` with `x - w >= t` under IEEE-754 round-to-nearest
    /// (`w`, `t` non-negative). Starts from the rounded candidate `w + t`
    /// and walks the few ULPs to the exact boundary.
    fn smallest_surviving(w: f64, t: f64) -> f64 {
        let mut x = w + t;
        while x - w < t {
            x = x.next_up();
        }
        loop {
            let down = x.next_down();
            if down >= 0.0 && down - w >= t {
                x = down;
            } else {
                return x;
            }
        }
    }

    /// The oracle: the scan's exact step boundaries. `boundaries[i]` is the
    /// smallest scaled uniform that carries the scan past index `i`, found
    /// by inverting its subtraction chain right to left: the remainder
    /// entering step `i` must be `>= w[i]`, and the remainder entering
    /// step `k` must map, under the scan's own `fl(x - w[k])`, to at least
    /// the step-`(k + 1)` requirement. O(n²) in the number of weights.
    fn exact_boundaries(weights: &[f64]) -> Vec<f64> {
        (0..weights.len() - 1)
            .map(|i| {
                let mut t = weights[i];
                for k in (0..i).rev() {
                    t = smallest_surviving(weights[k], t);
                }
                t
            })
            .collect()
    }

    /// The running sums `c_0..=c_{n-1}` of the weights, folded in order.
    fn running_sums(weights: &[f64]) -> Vec<f64> {
        let mut sum = 0.0;
        weights
            .iter()
            .map(|&w| {
                sum += w;
                sum
            })
            .collect()
    }

    /// A weight vector of `len` weights drawn from `seed`, in one of six
    /// shapes: uniform on (0, 1); 2^U(−40, 20); 30% exact zeros; equal
    /// thirds or tenths; a smoothed count row as `MarkovChainBuilder`
    /// normalizes it, `(count + 0.02) / total`; and two weights whose sum
    /// overflows to +∞ (at least two weights).
    fn weights_of(shape: usize, len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::new(seed);
        let mut weights: Vec<f64> = match shape {
            0 => (0..len).map(|_| rng.next_f64()).collect(),
            1 => (0..len).map(|_| (60.0 * rng.next_f64() - 40.0).exp2()).collect(),
            2 => (0..len)
                .map(|_| if rng.chance(0.3) { 0.0 } else { rng.next_f64() })
                .collect(),
            3 => vec![if seed.is_multiple_of(2) { 1.0 / 3.0 } else { 0.1 }; len],
            4 => {
                // A few hot states and a long tail of unseen ones.
                let mut counts = vec![0.0f64; len];
                let hot = 1 + rng.next_bounded(len as u64) as usize;
                for _ in 0..rng.next_bounded(40 * len as u64) {
                    counts[rng.next_bounded(hot as u64) as usize] += 1.0;
                }
                let total: f64 = counts.iter().sum::<f64>() + 0.02 * len as f64;
                counts.iter().map(|c| (c + 0.02) / total).collect()
            }
            _ => {
                let n = len.max(2);
                let mut w: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
                let a = rng.next_bounded(n as u64) as usize;
                let b = (a + 1 + rng.next_bounded(n as u64 - 1) as usize) % n;
                w[a] = 0.75 * f64::MAX;
                w[b] = 0.75 * f64::MAX;
                w
            }
        };
        if weights.iter().all(|&w| w == 0.0) {
            let mid = weights.len() / 2;
            weights[mid] = 1.0;
        }
        weights
    }

    #[test]
    fn weighted_index_matches_choose_weighted_streams() {
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0],
            vec![0.0, 1.0, 3.0],
            vec![0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
            vec![1e-12, 0.5, 1e-12, 0.5],
            vec![3.0, 0.0, 0.0, 2.0],
            (1..=33).map(|i| 1.0 / i as f64).collect(),
            // Finite weights whose sum overflows: every draw scans.
            vec![0.75 * f64::MAX, 1.0, 0.75 * f64::MAX, 2.0],
        ];
        for (case, weights) in cases.iter().enumerate() {
            let table = WeightedIndex::new(weights);
            assert_eq!(table.len(), weights.len());
            let mut a = Rng64::new(900 + case as u64);
            let mut b = a.clone();
            for _ in 0..5_000 {
                assert_eq!(
                    table.sample(&mut a),
                    b.choose_weighted(weights),
                    "case {case} diverged"
                );
            }
            // Same number of uniforms consumed: the streams stay in step.
            assert_eq!(a, b, "case {case} consumed differently");
        }
    }

    #[test]
    fn weighted_index_exact_at_step_boundaries() {
        // The scan's index is a step function of u. Probe each of the
        // oracle's exact boundaries and its ULP neighbours — the values
        // where a naive prefix-sum comparison can disagree.
        let cases: Vec<Vec<f64>> = vec![
            vec![0.1, 0.2, 0.3, 0.4],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            vec![0.0, 0.7, 0.0, 0.3],
            vec![1e-300, 1.0, 1e-300],
            (0..16).map(|i| ((i * 2654435761u64) % 97) as f64 + 0.1).collect(),
        ];
        for weights in &cases {
            let table = WeightedIndex::new(weights);
            let probes: Vec<f64> = exact_boundaries(weights)
                .iter()
                .flat_map(|&t| [t.next_down(), t, t.next_up()])
                .chain([0.0, table.total() * 0.5, table.total().next_down()])
                .filter(|&u| u >= 0.0)
                .collect();
            for u in probes {
                assert_eq!(
                    table.index_for(u),
                    linear_scan(weights, u),
                    "weights {weights:?} diverge at u = {u:e}"
                );
            }
        }
    }

    /// The table picks the scan's index for every probe that can tell
    /// them apart: a zero uniform scaled by the total (NaN when the total
    /// is +∞), the total and the value below it, every exact boundary and
    /// every running sum ±8 ULPs, and 200 seeded uniforms —
    /// over weight vectors of every shape `weights_of` draws. The exact
    /// boundaries all lie within the guard band of their running sums,
    /// and the probes next to them reach the exact scan, so both branches
    /// of a draw are checked.
    #[test]
    fn weighted_index_matches_scan_on_any_weights() {
        checker("weighted_index_matches_scan_on_any_weights").run(
            zip3(usize_range(0, 6), usize_range(1, 301), u64_range(0, 1 << 32)),
            |&(shape, len, seed)| {
                let weights = weights_of(shape, len, seed);
                let table = WeightedIndex::new(&weights);
                let total = table.total();
                let boundaries = exact_boundaries(&weights);
                let sums = running_sums(&weights);
                let mut probes = vec![0.0 * total, total, total.next_down()];
                for &x in boundaries.iter().chain(&sums) {
                    let (mut below, mut above) = (x, x);
                    probes.push(x);
                    for _ in 0..8 {
                        below = below.next_down();
                        above = above.next_up();
                        probes.extend([below, above]);
                    }
                }
                let mut rng = Rng64::new(seed);
                probes.extend((0..200).map(|_| rng.next_f64() * total));
                let mut scanned = 0;
                for &u in &probes {
                    let (fast, slow) = (table.index_for(u), linear_scan(&weights, u));
                    ensure!(fast == slow, "index {fast} != scan {slow} at u = {u:e}");
                    scanned += usize::from(table.search(u).is_none());
                }
                if table.band.is_finite() {
                    for (i, (&t, &c)) in boundaries.iter().zip(&sums).enumerate() {
                        ensure!(
                            (t - c).abs() <= table.band,
                            "boundary {i} at {t:e} lies outside the band {:e} of {c:e}",
                            table.band
                        );
                    }
                }
                ensure!(
                    weights.len() == 1 || scanned > 0,
                    "no probe of {} weights reached the exact scan",
                    weights.len()
                );
                Ok(())
            },
        );
    }

    #[test]
    fn weighted_index_draws_from_a_smoothed_row_never_scan() {
        // A 64-state storage-chain row as `MarkovChainBuilder` normalizes
        // it (smoothing 0.02), from a seeded sequence with locality: the
        // band is at most 5.7e-14 wide, so no seeded draw falls in it.
        let mut rng = Rng64::new(64);
        let mut counts = [0.0f64; 64];
        let mut state = 0u64;
        for _ in 0..2_000 {
            state = (state + rng.next_bounded(5)) % 64;
            counts[state as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum::<f64>() + 0.02 * 64.0;
        let row: Vec<f64> = counts.iter().map(|c| (c + 0.02) / total).collect();
        let table = WeightedIndex::new(&row);
        let scanned = (0..100_000)
            .filter(|_| table.search(rng.next_f64() * table.total()).is_none())
            .count();
        assert_eq!(scanned, 0);
    }

    #[test]
    fn weighted_index_single_state_consumes_one_uniform() {
        let table = WeightedIndex::new(&[2.5]);
        let mut a = Rng64::new(1);
        let mut b = a.clone();
        assert_eq!(table.sample(&mut a), 0);
        b.next_f64();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn weighted_index_rejects_zero_weights() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty weights")]
    fn weighted_index_rejects_empty() {
        WeightedIndex::new(&[]);
    }
}

//! Arrival processes.
//!
//! All times are in seconds. An [`ArrivalProcess`] yields successive
//! inter-arrival gaps; [`arrival_times`] accumulates them into absolute
//! timestamps for trace generation.

use std::collections::BinaryHeap;

use kooza_sim::rng::Rng64;
use kooza_stats::dist::{Distribution, Exponential, Pareto};

use crate::{QueueError, Result};

/// A stream of inter-arrival gaps (seconds).
pub trait ArrivalProcess: std::fmt::Debug {
    /// The next inter-arrival gap, in seconds (non-negative).
    fn next_gap(&mut self, rng: &mut Rng64) -> f64;

    /// Long-run mean arrival rate in events/second, if known analytically.
    fn mean_rate(&self) -> Option<f64> {
        None
    }
}

/// Accumulates `n` gaps from a process into absolute arrival times.
pub fn arrival_times(process: &mut dyn ArrivalProcess, n: usize, rng: &mut Rng64) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += process.next_gap(rng);
            t
        })
        .collect()
}

/// Poisson arrivals: iid exponential gaps — the textbook (and, per the
/// paper's surveyed evidence, usually *wrong*) DC traffic model.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    gap: Exponential,
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with `rate` events/second.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidParameter`] unless `rate > 0`.
    pub fn new(rate: f64) -> Result<Self> {
        let gap = Exponential::new(rate)
            .map_err(|_| QueueError::InvalidParameter { name: "rate", value: rate })?;
        Ok(PoissonArrivals { gap, rate })
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        self.gap.sample(rng)
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// Renewal arrivals: iid gaps from an arbitrary distribution (lognormal,
/// Weibull, Pareto, empirical, ...).
#[derive(Debug)]
pub struct RenewalArrivals {
    gap: Box<dyn Distribution>,
}

impl RenewalArrivals {
    /// Wraps any positive-support distribution as an arrival process.
    pub fn new(gap: Box<dyn Distribution>) -> Self {
        RenewalArrivals { gap }
    }
}

impl ArrivalProcess for RenewalArrivals {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        self.gap.sample(rng).max(0.0)
    }

    fn mean_rate(&self) -> Option<f64> {
        let m = self.gap.mean();
        (m.is_finite() && m > 0.0).then(|| 1.0 / m)
    }
}

/// A Markov-modulated Poisson process: the source moves between phases
/// with exponential holding times; while in phase `i` arrivals are Poisson
/// at `rates[i]`. Captures the non-stationary, bursty request streams the
/// OLTP characterizations (Sengupta & Ganesan) report.
#[derive(Debug, Clone)]
pub struct MmppArrivals {
    /// Arrival rate per phase.
    rates: Vec<f64>,
    /// Phase-switch rate per phase (1 / mean holding time).
    switch_rates: Vec<f64>,
    /// Phase-transition probabilities (row-stochastic, zero diagonal
    /// preferred but not required).
    routing: Vec<Vec<f64>>,
    phase: usize,
}

impl MmppArrivals {
    /// Creates an MMPP.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError`] variants for empty/mismatched inputs or
    /// non-positive rates.
    pub fn new(rates: Vec<f64>, switch_rates: Vec<f64>, routing: Vec<Vec<f64>>) -> Result<Self> {
        let n = rates.len();
        if n == 0 {
            return Err(QueueError::InvalidTopology("MMPP needs at least one phase".into()));
        }
        if switch_rates.len() != n || routing.len() != n {
            return Err(QueueError::InvalidTopology("MMPP dimension mismatch".into()));
        }
        for &r in &rates {
            if !(r.is_finite() && r >= 0.0) {
                return Err(QueueError::InvalidParameter { name: "rate", value: r });
            }
        }
        for &s in &switch_rates {
            if !(s.is_finite() && s > 0.0) {
                return Err(QueueError::InvalidParameter { name: "switch_rate", value: s });
            }
        }
        for row in &routing {
            if row.len() != n {
                return Err(QueueError::InvalidTopology("MMPP routing row mismatch".into()));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(QueueError::InvalidTopology(format!(
                    "MMPP routing row sums to {sum}"
                )));
            }
        }
        Ok(MmppArrivals {
            rates,
            switch_rates,
            routing,
            phase: 0,
        })
    }

    /// A convenient two-phase bursty source: a quiet phase and a burst
    /// phase, symmetric switching.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation.
    pub fn bursty(quiet_rate: f64, burst_rate: f64, switch_rate: f64) -> Result<Self> {
        MmppArrivals::new(
            vec![quiet_rate, burst_rate],
            vec![switch_rate, switch_rate],
            vec![vec![0.0, 1.0], vec![1.0, 0.0]],
        )
    }

    /// Current phase index.
    pub fn phase(&self) -> usize {
        self.phase
    }
}

impl ArrivalProcess for MmppArrivals {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        let mut elapsed = 0.0;
        // Competing exponentials: next arrival vs next phase switch.
        loop {
            let lambda = self.rates[self.phase];
            let q = self.switch_rates[self.phase];
            let t_switch = -rng.next_f64_open().ln() / q;
            if lambda > 0.0 {
                let t_arrival = -rng.next_f64_open().ln() / lambda;
                if t_arrival <= t_switch {
                    return elapsed + t_arrival;
                }
            }
            elapsed += t_switch;
            self.phase = rng.choose_weighted(&self.routing[self.phase]);
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        // Time-stationary phase probabilities ∝ routing-stationary / switch
        // rate. For the common symmetric two-phase case this reduces to the
        // simple average; solve generally by power iteration on the
        // embedded chain.
        let n = self.rates.len();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..10_000 {
            let mut next = vec![0.0; n];
            for (i, p) in pi.iter().enumerate() {
                for j in 0..n {
                    next[j] += p * self.routing[i][j];
                }
            }
            let diff: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if diff < 1e-13 {
                break;
            }
        }
        // Convert embedded-chain probabilities to time fractions.
        let weights: Vec<f64> = pi
            .iter()
            .zip(&self.switch_rates)
            .map(|(p, q)| p / q)
            .collect();
        let total: f64 = weights.iter().sum();
        Some(
            weights
                .iter()
                .zip(&self.rates)
                .map(|(w, r)| w / total * r)
                .sum(),
        )
    }
}

/// Total-order wrapper for event times (no NaNs by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("event times are finite")
    }
}

/// SURGE-style user-equivalent arrivals: `n_users` independent users cycle
/// through think time (Pareto, heavy-tailed per Barford & Crovella) and a
/// burst of object requests with small gaps. Contrast with the
/// infinite-source model that sends constant traffic with no user
/// variability (Joo et al.'s comparison).
#[derive(Debug)]
pub struct UserEquivalentArrivals {
    think: Pareto,
    objects_per_page: f64,
    object_gap: Exponential,
    /// Min-heap of (next request time, user index, remaining objects).
    pending: BinaryHeap<std::cmp::Reverse<(OrderedF64, usize, u32)>>,
    now: f64,
    n_users: usize,
    initialized: bool,
}

impl UserEquivalentArrivals {
    /// Creates a user-equivalent source.
    ///
    /// * `n_users` — concurrent user equivalents.
    /// * `mean_think_secs` — mean think time between pages (Pareto α=1.5).
    /// * `objects_per_page` — mean embedded objects fetched per page.
    /// * `object_gap_secs` — mean gap between object fetches in a page.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidParameter`] on non-positive parameters.
    pub fn new(
        n_users: usize,
        mean_think_secs: f64,
        objects_per_page: f64,
        object_gap_secs: f64,
    ) -> Result<Self> {
        if n_users == 0 {
            return Err(QueueError::InvalidParameter { name: "n_users", value: 0.0 });
        }
        for (name, v) in [
            ("mean_think_secs", mean_think_secs),
            ("objects_per_page", objects_per_page),
            ("object_gap_secs", object_gap_secs),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(QueueError::InvalidParameter { name, value: v });
            }
        }
        let alpha = 1.5;
        let xm = mean_think_secs * (alpha - 1.0) / alpha;
        Ok(UserEquivalentArrivals {
            think: Pareto::new(xm, alpha).expect("validated above"),
            objects_per_page,
            object_gap: Exponential::with_mean(object_gap_secs).expect("validated above"),
            pending: BinaryHeap::new(),
            now: 0.0,
            n_users,
            initialized: false,
        })
    }

    fn page_objects(&self, rng: &mut Rng64) -> u32 {
        // Geometric-ish object count with the configured mean, at least 1.
        let p = 1.0 / self.objects_per_page.max(1.0);
        let mut k = 1u32;
        while !rng.chance(p) && k < 1000 {
            k += 1;
        }
        k
    }
}

impl ArrivalProcess for UserEquivalentArrivals {
    fn next_gap(&mut self, rng: &mut Rng64) -> f64 {
        if !self.initialized {
            self.initialized = true;
            for user in 0..self.n_users {
                let t = self.think.sample(rng);
                let objs = self.page_objects(rng);
                self.pending
                    .push(std::cmp::Reverse((OrderedF64(t), user, objs)));
            }
        }
        let std::cmp::Reverse((OrderedF64(t), user, remaining)) =
            self.pending.pop().expect("every user is always scheduled");
        let gap = (t - self.now).max(0.0);
        self.now = t;
        let next = if remaining > 1 {
            // More objects in this page: short gap.
            (OrderedF64(t + self.object_gap.sample(rng)), user, remaining - 1)
        } else {
            // Page done: think, then a new page.
            let objs = self.page_objects(rng);
            (OrderedF64(t + self.think.sample(rng)), user, objs)
        };
        self.pending.push(std::cmp::Reverse(next));
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_stats::summary::burstiness_cv2;

    #[test]
    fn poisson_rate_and_cv() {
        let mut p = PoissonArrivals::new(50.0).unwrap();
        let mut rng = Rng64::new(1200);
        let gaps: Vec<f64> = (0..20_000).map(|_| p.next_gap(&mut rng)).collect();
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((1.0 / mean_gap - 50.0).abs() < 2.0, "rate {}", 1.0 / mean_gap);
        let cv2 = burstiness_cv2(&gaps).unwrap();
        assert!((cv2 - 1.0).abs() < 0.1, "cv² {cv2}");
        assert_eq!(p.mean_rate(), Some(50.0));
    }

    #[test]
    fn poisson_rejects_bad_rate() {
        assert!(PoissonArrivals::new(0.0).is_err());
        assert!(PoissonArrivals::new(-1.0).is_err());
    }

    #[test]
    fn renewal_with_pareto_is_bursty() {
        let gap = Pareto::new(0.001, 1.2).unwrap();
        let mut p = RenewalArrivals::new(Box::new(gap));
        let mut rng = Rng64::new(1201);
        let gaps: Vec<f64> = (0..20_000).map(|_| p.next_gap(&mut rng)).collect();
        let cv2 = burstiness_cv2(&gaps).unwrap();
        assert!(cv2 > 2.0, "cv² {cv2}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let mut m = MmppArrivals::bursty(10.0, 500.0, 1.0).unwrap();
        let mut rng = Rng64::new(1202);
        let gaps: Vec<f64> = (0..30_000).map(|_| m.next_gap(&mut rng)).collect();
        let cv2 = burstiness_cv2(&gaps).unwrap();
        assert!(cv2 > 1.5, "cv² {cv2}");
    }

    #[test]
    fn mmpp_mean_rate_two_phase_symmetric() {
        let m = MmppArrivals::bursty(10.0, 100.0, 2.0).unwrap();
        // Symmetric switching: half the time in each phase.
        let r = m.mean_rate().unwrap();
        assert!((r - 55.0).abs() < 1e-6, "rate {r}");
    }

    #[test]
    fn mmpp_observed_rate_matches_analytic() {
        let mut m = MmppArrivals::bursty(20.0, 200.0, 5.0).unwrap();
        let analytic = m.mean_rate().unwrap();
        let mut rng = Rng64::new(1203);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| m.next_gap(&mut rng)).sum();
        let observed = n as f64 / total;
        assert!(
            (observed - analytic).abs() / analytic < 0.1,
            "observed {observed} vs analytic {analytic}"
        );
    }

    #[test]
    fn mmpp_validation() {
        assert!(MmppArrivals::new(vec![], vec![], vec![]).is_err());
        assert!(MmppArrivals::new(vec![1.0], vec![0.0], vec![vec![1.0]]).is_err());
        assert!(MmppArrivals::new(vec![1.0], vec![1.0], vec![vec![0.5]]).is_err());
    }

    #[test]
    fn user_equivalents_produce_page_bursts() {
        let mut u = UserEquivalentArrivals::new(20, 5.0, 8.0, 0.01).unwrap();
        let mut rng = Rng64::new(1205);
        let gaps: Vec<f64> = (0..20_000).map(|_| u.next_gap(&mut rng)).collect();
        // Bimodal gaps: many tiny in-page gaps, some large think-time gaps.
        let tiny = gaps.iter().filter(|&&g| g < 0.05).count() as f64 / gaps.len() as f64;
        assert!(tiny > 0.5, "tiny-gap fraction {tiny}");
        let cv2 = burstiness_cv2(&gaps).unwrap();
        assert!(cv2 > 1.5, "cv² {cv2}");
    }

    #[test]
    fn user_equivalents_validation() {
        assert!(UserEquivalentArrivals::new(0, 1.0, 1.0, 1.0).is_err());
        assert!(UserEquivalentArrivals::new(5, 0.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn arrival_times_are_monotone() {
        let mut p = PoissonArrivals::new(100.0).unwrap();
        let mut rng = Rng64::new(1206);
        let times = arrival_times(&mut p, 1000, &mut rng);
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(times.len(), 1000);
    }
}

//! Statistics collectors for simulation output.
//!
//! * [`Tally`] — per-observation statistics (Welford mean/variance, min/max).
//! * [`TimeWeighted`] — time-averaged piecewise-constant signals such as
//!   queue length or busy-server count.

use crate::time::SimTime;

/// Streaming per-observation statistics using Welford's algorithm.
///
/// ```
/// use kooza_sim::Tally;
/// let mut t = Tally::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     t.record(x);
/// }
/// assert_eq!(t.mean(), 2.5);
/// assert_eq!(t.count(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another tally into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Tally) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Call [`record`](TimeWeighted::record) whenever the signal changes value;
/// the collector integrates the *previous* value over the elapsed interval.
///
/// ```
/// use kooza_sim::{SimTime, TimeWeighted};
/// let mut w = TimeWeighted::new();
/// w.record(SimTime::from_nanos(0), 2.0);   // signal becomes 2 at t=0
/// w.record(SimTime::from_nanos(10), 4.0);  // 2 held for 10ns
/// // mean over [0, 20): (2*10 + 4*10) / 20 = 3
/// assert_eq!(w.mean_until(SimTime::from_nanos(20), 4.0), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeWeighted {
    last_time: Option<SimTime>,
    last_value: f64,
    weighted_sum: f64,
    start: Option<SimTime>,
}

impl TimeWeighted {
    /// Creates an empty collector.
    pub fn new() -> Self {
        TimeWeighted::default()
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous record.
    pub fn record(&mut self, now: SimTime, value: f64) {
        if let Some(last) = self.last_time {
            assert!(now >= last, "time-weighted records must be non-decreasing in time");
            self.weighted_sum += self.last_value * (now - last).as_nanos() as f64;
        } else {
            self.start = Some(now);
        }
        self.last_time = Some(now);
        self.last_value = value;
    }

    /// Time-averaged value over `[first record, now]`, where the signal has
    /// held `current_value` since the last record. Returns 0 before any
    /// record.
    pub fn mean_until(&self, now: SimTime, current_value: f64) -> f64 {
        let (Some(start), Some(last)) = (self.start, self.last_time) else {
            return 0.0;
        };
        let tail = now.saturating_since(last).as_nanos() as f64 * current_value;
        let span = now.saturating_since(start).as_nanos() as f64;
        if span == 0.0 {
            current_value
        } else {
            (self.weighted_sum + tail) / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic set is 4; sample variance 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn tally_empty_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn tally_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = Tally::new();
        let mut b = Tally::new();
        data[..37].iter().for_each(|&x| a.record(x));
        data[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn tally_merge_with_empty() {
        let mut a = Tally::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&Tally::new());
        assert_eq!(a, before);
        let mut empty = Tally::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn time_weighted_piecewise() {
        let mut w = TimeWeighted::new();
        w.record(SimTime::from_nanos(0), 1.0);
        w.record(SimTime::from_nanos(4), 3.0);
        w.record(SimTime::from_nanos(8), 0.0);
        // [0,4): 1, [4,8): 3, [8,16): 0 → (4 + 12 + 0) / 16 = 1.0
        assert_eq!(w.mean_until(SimTime::from_nanos(16), 0.0), 1.0);
    }

    #[test]
    fn time_weighted_before_any_record() {
        let w = TimeWeighted::new();
        assert_eq!(w.mean_until(SimTime::from_secs(1), 5.0), 0.0);
    }

    #[test]
    fn time_weighted_zero_span() {
        let mut w = TimeWeighted::new();
        w.record(SimTime::from_nanos(5), 7.0);
        assert_eq!(w.mean_until(SimTime::from_nanos(5), 7.0), 7.0);
    }
}

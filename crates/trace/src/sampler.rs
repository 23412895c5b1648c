//! Trace sampling.
//!
//! Dapper's key overhead lever is sampling 1 of every 1000 requests while
//! keeping sampled traces *complete* — so the decision must be a pure
//! function of the trace id, identical on every server a request touches.
//! [`Sampler`] hashes the trace id.

use crate::span::TraceId;

/// Deterministic 1-in-N sampler keyed on the trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    rate: u32,
}

/// SplitMix64-style finalizer used as the id hash.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Sampler {
    /// Keeps roughly one in `rate` traces (`rate = 1` keeps all).
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn one_in(rate: u32) -> Self {
        assert!(rate > 0, "sampling rate must be positive");
        Sampler { rate }
    }

    /// Whether this trace is sampled. Pure function of the id: every
    /// participant in the request reaches the same verdict.
    pub fn keep(&self, trace_id: TraceId) -> bool {
        if self.rate == 1 {
            return true;
        }
        mix(trace_id.0).is_multiple_of(self.rate as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_one_keeps_everything() {
        let s = Sampler::one_in(1);
        for id in 0..100 {
            assert!(s.keep(TraceId(id)));
        }
    }

    #[test]
    fn rate_is_approximately_respected() {
        let s = Sampler::one_in(100);
        let kept = (0..100_000).filter(|&id| s.keep(TraceId(id))).count();
        assert!((700..1300).contains(&kept), "kept {kept} of 100000");
    }

    #[test]
    fn decision_is_deterministic() {
        let s = Sampler::one_in(7);
        for id in 0..1000 {
            assert_eq!(s.keep(TraceId(id)), s.keep(TraceId(id)));
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_panics() {
        Sampler::one_in(0);
    }
}

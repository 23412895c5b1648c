//! Closed-form queueing results: M/M/1, M/M/c (Erlang-C) and M/G/1
//! (Pollaczek–Khinchine).
//!
//! These are the ground truth the simulated networks in [`crate::network`]
//! are validated against.

use crate::{QueueError, Result};

/// Steady-state metrics of a queueing station. Times are in the same unit
/// as the input rates' inverse (seconds when rates are per-second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueMetrics {
    /// Server utilization ρ in `[0, 1)`.
    pub utilization: f64,
    /// Mean number of jobs in the system (queue + service), `L`.
    pub mean_jobs: f64,
    /// Mean waiting time in queue (excluding service), `Wq`.
    pub mean_wait: f64,
    /// Mean response time (waiting + service), `W`.
    pub mean_response: f64,
    /// Probability an arriving job waits (Erlang-C for M/M/c; ρ for M/M/1).
    pub p_wait: f64,
}

fn check_positive(name: &'static str, v: f64) -> Result<()> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(QueueError::InvalidParameter { name, value: v })
    }
}

/// M/M/1 steady state.
///
/// # Errors
///
/// Returns [`QueueError::Unstable`] if `lambda >= mu`, or
/// [`QueueError::InvalidParameter`] for non-positive rates.
///
/// ```
/// use kooza_queueing::analytic::mm1;
/// let m = mm1(8.0, 10.0)?;
/// assert!((m.utilization - 0.8).abs() < 1e-12);
/// assert!((m.mean_jobs - 4.0).abs() < 1e-12);     // ρ/(1−ρ)
/// assert!((m.mean_response - 0.5).abs() < 1e-12); // 1/(μ−λ)
/// # Ok::<(), kooza_queueing::QueueError>(())
/// ```
pub fn mm1(lambda: f64, mu: f64) -> Result<QueueMetrics> {
    check_positive("lambda", lambda)?;
    check_positive("mu", mu)?;
    let rho = lambda / mu;
    if rho >= 1.0 {
        return Err(QueueError::Unstable { rho });
    }
    let mean_response = 1.0 / (mu - lambda);
    Ok(QueueMetrics {
        utilization: rho,
        mean_jobs: rho / (1.0 - rho),
        mean_wait: rho / (mu - lambda),
        mean_response,
        p_wait: rho,
    })
}

/// M/M/c steady state via the Erlang-C formula.
///
/// # Errors
///
/// Returns [`QueueError::Unstable`] if `lambda >= c·mu`, or
/// [`QueueError::InvalidParameter`] for non-positive inputs.
pub fn mmc(lambda: f64, mu: f64, c: usize) -> Result<QueueMetrics> {
    check_positive("lambda", lambda)?;
    check_positive("mu", mu)?;
    if c == 0 {
        return Err(QueueError::InvalidParameter { name: "c", value: 0.0 });
    }
    let a = lambda / mu; // offered load in Erlangs
    let rho = a / c as f64;
    if rho >= 1.0 {
        return Err(QueueError::Unstable { rho });
    }
    // Erlang C: compute in log-space-free iterative form.
    let mut sum = 0.0;
    let mut term = 1.0; // a^k / k!
    for k in 0..c {
        if k > 0 {
            term *= a / k as f64;
        }
        sum += term;
    }
    let term_c = term * a / c as f64; // a^c / c!
    let erlang_c = term_c / (1.0 - rho) / (sum + term_c / (1.0 - rho));
    let mean_wait = erlang_c / (c as f64 * mu - lambda);
    let mean_response = mean_wait + 1.0 / mu;
    Ok(QueueMetrics {
        utilization: rho,
        mean_jobs: lambda * mean_response,
        mean_wait,
        mean_response,
        p_wait: erlang_c,
    })
}

/// M/G/1 steady state via Pollaczek–Khinchine.
///
/// `service_mean` and `service_scv` (squared coefficient of variation
/// `σ²/mean²`) describe the general service distribution.
///
/// # Errors
///
/// Returns [`QueueError::Unstable`] if `lambda * service_mean >= 1`, or
/// [`QueueError::InvalidParameter`] for invalid inputs.
pub fn mg1(lambda: f64, service_mean: f64, service_scv: f64) -> Result<QueueMetrics> {
    check_positive("lambda", lambda)?;
    check_positive("service_mean", service_mean)?;
    if !(service_scv.is_finite() && service_scv >= 0.0) {
        return Err(QueueError::InvalidParameter { name: "service_scv", value: service_scv });
    }
    let rho = lambda * service_mean;
    if rho >= 1.0 {
        return Err(QueueError::Unstable { rho });
    }
    // Wq = ρ (1 + C²) E[S] / (2 (1 − ρ))
    let mean_wait = rho * (1.0 + service_scv) * service_mean / (2.0 * (1.0 - rho));
    let mean_response = mean_wait + service_mean;
    Ok(QueueMetrics {
        utilization: rho,
        mean_jobs: lambda * mean_response,
        mean_wait,
        mean_response,
        p_wait: rho,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_textbook_case() {
        let m = mm1(2.0, 5.0).unwrap();
        assert!((m.utilization - 0.4).abs() < 1e-12);
        assert!((m.mean_response - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.mean_wait - (1.0 / 3.0 - 0.2)).abs() < 1e-12);
        // Little's law: L = λW.
        assert!((m.mean_jobs - 2.0 * m.mean_response).abs() < 1e-12);
    }

    #[test]
    fn mm1_unstable_rejected() {
        assert!(matches!(mm1(5.0, 5.0), Err(QueueError::Unstable { .. })));
        assert!(matches!(mm1(6.0, 5.0), Err(QueueError::Unstable { .. })));
        assert!(mm1(0.0, 5.0).is_err());
    }

    #[test]
    fn mmc_with_one_server_equals_mm1() {
        let a = mm1(3.0, 4.0).unwrap();
        let b = mmc(3.0, 4.0, 1).unwrap();
        assert!((a.mean_wait - b.mean_wait).abs() < 1e-12);
        assert!((a.mean_response - b.mean_response).abs() < 1e-12);
        assert!((a.p_wait - b.p_wait).abs() < 1e-12);
    }

    #[test]
    fn mmc_known_erlang_c_value() {
        // λ=15, μ=1, c=20 → Erlang-C = 0.16042938... (independently computed
        // from the closed form with exact factorials).
        let m = mmc(15.0, 1.0, 20).unwrap();
        assert!((m.p_wait - 0.160_429_387).abs() < 1e-8, "ErlangC {}", m.p_wait);
    }

    #[test]
    fn mmc_more_servers_less_waiting() {
        let w2 = mmc(10.0, 6.0, 2).unwrap().mean_wait;
        let w4 = mmc(10.0, 6.0, 4).unwrap().mean_wait;
        let w8 = mmc(10.0, 6.0, 8).unwrap().mean_wait;
        assert!(w2 > w4 && w4 > w8);
    }

    #[test]
    fn mmc_unstable_rejected() {
        assert!(mmc(10.0, 1.0, 10).is_err());
        assert!(mmc(10.0, 1.0, 0).is_err());
    }

    #[test]
    fn mg1_with_exponential_service_equals_mm1() {
        // Exponential service: SCV = 1.
        let mu = 4.0f64;
        let a = mm1(3.0, mu).unwrap();
        let b = mg1(3.0, 1.0 / mu, 1.0).unwrap();
        assert!((a.mean_wait - b.mean_wait).abs() < 1e-12);
        assert!((a.mean_response - b.mean_response).abs() < 1e-12);
    }

    #[test]
    fn mg1_deterministic_halves_waiting() {
        // M/D/1 waits exactly half of M/M/1.
        let exp = mg1(3.0, 0.2, 1.0).unwrap();
        let det = mg1(3.0, 0.2, 0.0).unwrap();
        assert!((det.mean_wait - exp.mean_wait / 2.0).abs() < 1e-12);
    }

    #[test]
    fn mg1_heavy_tail_service_hurts() {
        let light = mg1(3.0, 0.2, 1.0).unwrap();
        let heavy = mg1(3.0, 0.2, 20.0).unwrap();
        assert!(heavy.mean_wait > 5.0 * light.mean_wait);
    }

    #[test]
    fn mg1_validation() {
        assert!(mg1(5.0, 0.2, 1.0).is_err()); // rho = 1
        assert!(mg1(1.0, 0.2, -1.0).is_err());
        assert!(mg1(1.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn littles_law_holds_across_models() {
        for m in [
            mm1(4.0, 9.0).unwrap(),
            mmc(12.0, 5.0, 4).unwrap(),
            mg1(4.0, 0.1, 2.5).unwrap(),
        ] {
            let lambda = m.mean_jobs / m.mean_response;
            let recomputed = lambda * m.mean_response;
            assert!((recomputed - m.mean_jobs).abs() < 1e-9);
        }
    }
}

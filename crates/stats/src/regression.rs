//! Ordinary least squares: the bivariate fit behind the Hurst estimators'
//! log-log fits.

use crate::{ensure_finite, Result, StatsError};

/// Fits `y = slope * x + intercept`, returning `(slope, intercept)`.
///
/// # Errors
///
/// Errors if fewer than two points are given, inputs differ in length or
/// contain non-finite values, or `x` is constant.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Result<(f64, f64)> {
    if x.len() != y.len() {
        return Err(StatsError::InvalidInput("x and y must have equal length".into()));
    }
    if x.len() < 2 {
        return Err(StatsError::InsufficientData { needed: 2, got: x.len() });
    }
    ensure_finite(x)?;
    ensure_finite(y)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|xi| (xi - mx).powi(2)).sum();
    if sxx == 0.0 {
        return Err(StatsError::InvalidInput("x is constant".into()));
    }
    let sxy: f64 = x.iter().zip(y).map(|(xi, yi)| (xi - mx) * (yi - my)).sum();
    let slope = sxy / sxx;
    Ok((slope, my - slope * mx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept) = linear_fit(&x, &y).unwrap();
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_rejects_bad_input() {
        assert!(linear_fit(&[1.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_err());
    }
}

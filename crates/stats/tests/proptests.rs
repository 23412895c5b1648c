//! Property-based tests for the statistics substrate, on the deterministic
//! in-repo `kooza-check` harness.

use kooza_check::gen::{f64_range, u64_range, zip2, zip3, zip4};
use kooza_check::{checker, ensure, ensure_eq};

use kooza_sim::rng::Rng64;
use kooza_stats::dist::{
    DiscreteDistribution, Distribution, Exponential, Gamma, Geometric, LogNormal, Normal, Pareto,
    Poisson, Uniform, Weibull, Zipf,
};
use kooza_stats::fit::{
    fit_exponential, fit_lognormal, fit_normal, fit_pareto, fit_weibull, FitPipeline,
};
use kooza_stats::ks::{ks_one_sample, ks_one_sample_presorted};
use kooza_stats::sorted::SortedSample;
use kooza_stats::special::{gamma_p, gamma_q, ln_gamma, normal_cdf, normal_quantile};

/// pdf is non-negative, cdf in [0,1], mean finite where defined.
#[test]
fn density_and_cdf_sanity() {
    checker("density_and_cdf_sanity").run(
        zip3(f64_range(-100.0, 100.0), f64_range(0.01, 100.0), f64_range(0.2, 5.0)),
        |&(x, rate, shape)| {
            let dists: Vec<Box<dyn Distribution>> = vec![
                Box::new(Exponential::new(rate).unwrap()),
                Box::new(Normal::new(0.0, shape).unwrap()),
                Box::new(LogNormal::new(0.0, shape).unwrap()),
                Box::new(Weibull::new(shape, 1.0).unwrap()),
                Box::new(Gamma::new(shape, 1.0).unwrap()),
                Box::new(Uniform::new(-1.0, 1.0).unwrap()),
            ];
            for d in &dists {
                ensure!(d.pdf(x) >= 0.0, "{} pdf({x}) < 0", d.name());
                let c = d.cdf(x);
                ensure!((0.0..=1.0).contains(&c), "{} cdf({x}) = {c}", d.name());
            }
            Ok(())
        },
    );
}

/// MLE fitting recovers parameters of the generating family within a
/// sampling-noise tolerance.
#[test]
fn mle_recovers_parameters() {
    checker("mle_recovers_parameters").cases(32).run(
        zip3(u64_range(0, 500), f64_range(0.2, 20.0), f64_range(0.2, 1.5)),
        |&(seed, rate, sigma)| {
            let n = 4000;
            let mut rng = Rng64::new(seed);

            let d = Exponential::new(rate).unwrap();
            let data: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let fit = fit_exponential(&data).unwrap();
            ensure!((fit.rate() - rate).abs() / rate < 0.15, "rate {} vs {rate}", fit.rate());

            let d = LogNormal::new(1.0, sigma).unwrap();
            let data: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let fit = fit_lognormal(&data).unwrap();
            ensure!((fit.sigma() - sigma).abs() < 0.12, "sigma {} vs {sigma}", fit.sigma());

            let d = Normal::new(-2.0, sigma).unwrap();
            let data: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let fit = fit_normal(&data).unwrap();
            ensure!((fit.mu() + 2.0).abs() < 0.15, "mu {} vs -2", fit.mu());

            let alpha = 1.0 + sigma; // 1.2..2.5
            let d = Pareto::new(1.0, alpha).unwrap();
            let data: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let fit = fit_pareto(&data).unwrap();
            ensure!((fit.alpha() - alpha).abs() / alpha < 0.15, "alpha {}", fit.alpha());
            Ok(())
        },
    );
}

/// The presorted one-sample KS test over a shared [`SortedSample`] returns
/// bit-identical results to the sort-per-call original, for arbitrary
/// sample sizes and shapes.
#[test]
fn presorted_tests_bit_identical() {
    checker("presorted_tests_bit_identical").run(
        zip3(u64_range(0, 500), f64_range(0.2, 5.0), u64_range(2, 400)),
        |&(seed, shape, n)| {
            let d = Weibull::new(shape, 1.0).unwrap();
            let mut rng = Rng64::new(seed);
            let a: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let sa = SortedSample::new(&a).unwrap();
            let reference = Exponential::new(1.0).unwrap();
            ensure_eq!(
                ks_one_sample(&a, &reference).unwrap(),
                ks_one_sample_presorted(&sa, &reference)
            );
            Ok(())
        },
    );
}

/// The pipeline's shared-moments + shared-sort candidate loop produces the
/// same fits and KS statistics as running each standalone fitter and a
/// fresh KS test per family.
#[test]
fn pipeline_shared_moments_match_standalone_fits() {
    checker("pipeline_shared_moments_match_standalone_fits").cases(48).run(
        zip2(u64_range(0, 300), f64_range(0.3, 1.2)),
        |&(seed, sigma)| {
            let d = LogNormal::new(0.0, sigma).unwrap();
            let mut rng = Rng64::new(seed);
            let data: Vec<f64> = (0..600).map(|_| d.sample(&mut rng)).collect();
            let report = FitPipeline::timing().run(&data).unwrap();
            for entry in report.entries() {
                let standalone: Box<dyn Distribution> = match entry.family {
                    "exponential" => Box::new(fit_exponential(&data).unwrap()),
                    "lognormal" => Box::new(fit_lognormal(&data).unwrap()),
                    "pareto" => Box::new(fit_pareto(&data).unwrap()),
                    "weibull" => Box::new(fit_weibull(&data).unwrap()),
                    _ => continue,
                };
                ensure_eq!(entry.ks, ks_one_sample(&data, standalone.as_ref()).unwrap());
            }
            Ok(())
        },
    );
}

/// Special-function identities hold across the domain.
#[test]
fn special_function_identities() {
    checker("special_function_identities").run(
        zip3(f64_range(0.1, 30.0), f64_range(0.0, 60.0), f64_range(0.001, 0.999)),
        |&(a, x, p)| {
            ensure!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-10, "P + Q != 1");
            // ln Γ satisfies the recurrence.
            ensure!(
                (ln_gamma(a + 1.0) - a.ln() - ln_gamma(a)).abs() < 1e-8,
                "ln Γ recurrence fails at {a}"
            );
            // Φ and Φ⁻¹ invert.
            ensure!(
                (normal_cdf(normal_quantile(p)) - p).abs() < 1e-8,
                "Φ(Φ⁻¹({p})) off"
            );
            Ok(())
        },
    );
}

/// Discrete distributions: pmf sums to ~1 and samples stay in range.
#[test]
fn discrete_distributions_normalized() {
    checker("discrete_distributions_normalized").run(
        zip4(
            f64_range(0.5, 20.0), // lambda
            u64_range(2, 200),    // n
            f64_range(0.3, 2.0),  // s
            f64_range(0.05, 0.95), // gp
        ),
        |&(lambda, n, s, gp)| {
            let poisson = Poisson::new(lambda).unwrap();
            let total: f64 = (0..300).map(|k| poisson.pmf(k)).sum();
            ensure!((total - 1.0).abs() < 1e-6, "poisson pmf sums to {total}");

            let zipf = Zipf::new(n, s).unwrap();
            let total: f64 = (1..=n).map(|k| zipf.pmf(k)).sum();
            ensure!((total - 1.0).abs() < 1e-9, "zipf pmf sums to {total}");
            let mut rng = Rng64::new(n ^ 77);
            for _ in 0..20 {
                let k = zipf.sample(&mut rng);
                ensure!((1..=n).contains(&k), "zipf sample {k} outside [1, {n}]");
            }

            let geom = Geometric::new(gp).unwrap();
            ensure!(
                (geom.cdf(200) - 1.0).abs() < 1e-4 || gp < 0.06,
                "geometric cdf(200) far from 1 at p = {gp}"
            );
            Ok(())
        },
    );
}

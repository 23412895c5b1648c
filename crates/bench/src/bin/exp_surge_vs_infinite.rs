//! EXP-B — Infinite-source vs SURGE-style user-equivalent traffic (Joo et
//! al.).
//!
//! §2.1.3: Joo et al. "conclude that results for the two models vary
//! greatly, therefore the accuracy of the model in capturing user behavior
//! ... \[is\] instrumental for the fidelity of the observed results." We
//! drive the same M/M/c service tier with (a) an infinite-source constant-
//! rate model and (b) a user-equivalent model with heavy-tailed think
//! times, at matched mean rates, and compare the latency the two predict.

use kooza_bench::{banner, section, EXPERIMENT_SEED};
use kooza_queueing::arrival::{ArrivalProcess, PoissonArrivals, UserEquivalentArrivals};
use kooza_queueing::network::{simulate, NetworkConfig, NodeConfig};
use kooza_sim::rng::Rng64;
use kooza_stats::dist::Exponential;
use kooza_stats::summary::percentile;

fn measure(
    label: &str,
    arrivals: &mut dyn ArrivalProcess,
    servers: usize,
    mu: f64,
    seed: u64,
) -> (f64, f64, f64) {
    let config = NetworkConfig::tandem(vec![NodeConfig {
        name: label.into(),
        servers,
        service: Box::new(Exponential::new(mu).unwrap()),
    }]);
    let mut rng = Rng64::new(seed);
    let res = simulate(&config, arrivals, 60_000, &mut rng).expect("simulation runs");
    let p99 = percentile(&res.sojourn_samples, 99.0);
    (res.mean_response_secs(), p99, res.nodes[0].utilization)
}

fn main() {
    banner("EXP-B", "Infinite-source vs SURGE user-equivalent traffic");

    // Service tier: 4 servers, 50 req/s each.
    let servers = 4;
    let mu = 50.0;

    section("matched-mean-rate comparison (4 × 50 req/s tier)");
    println!(
        "{:<26} {:>10} {:>14} {:>14} {:>8}",
        "traffic model", "rate", "mean lat (ms)", "p99 lat (ms)", "util"
    );
    for target_rate in [80.0, 120.0, 160.0] {
        // Infinite-source: constant-rate Poisson.
        let mut inf = PoissonArrivals::new(target_rate).unwrap();
        let (inf_mean, inf_p99, inf_util) =
            measure("tier", &mut inf, servers, mu, EXPERIMENT_SEED);

        // User equivalents tuned to the same mean rate: each user cycles
        // ~6 objects then thinks; rate ≈ users * objects / (think + 6*gap).
        let think = 3.0;
        let object_gap = 0.01;
        let objects = 6.0;
        let per_user = objects / (think + objects * object_gap);
        let users = (target_rate / per_user).round() as usize;
        let mut surge = UserEquivalentArrivals::new(users, think, objects, object_gap).unwrap();
        let (s_mean, s_p99, s_util) = measure("tier", &mut surge, servers, mu, EXPERIMENT_SEED);

        println!(
            "{:<26} {:>10.0} {:>14.2} {:>14.2} {:>8.2}",
            "infinite-source", target_rate, inf_mean * 1e3, inf_p99 * 1e3, inf_util
        );
        println!(
            "{:<26} {:>10.0} {:>14.2} {:>14.2} {:>8.2}",
            format!("user-equivalent ({users}u)"),
            target_rate,
            s_mean * 1e3,
            s_p99 * 1e3,
            s_util
        );
        println!(
            "{:<26} {:>10} {:>13.1}x {:>13.1}x",
            "  divergence", "", s_mean / inf_mean, s_p99 / inf_p99
        );
    }
    println!(
        "\npaper claim (Joo et al.): the two traffic models give greatly\n\
         different results at identical mean load — the user-equivalent\n\
         model's page bursts inflate tail latency well beyond the\n\
         infinite-source prediction."
    );
}

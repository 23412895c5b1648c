//! EXP-I — Multiple model instances scale to multi-server scenarios (§4/§5).
//!
//! §4: "Scaling to multiple servers in order to simulate real-application
//! scenarios requires multiple instances of the model." We run a 4-server
//! replicated GFS cluster, train one KOOZA instance per server from its own
//! trace, then check that the per-server models reproduce each server's
//! arrival rate and latency — and that fleet model size grows linearly
//! (the Table-1 scalability column, measured).

use kooza::fleet::observations_by_server;
use kooza::{KoozaFleet, ReplayConfig};
use kooza_bench::{banner, section, EXPERIMENT_SEED};
use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
use kooza_sim::rng::Rng64;

fn main() {
    banner("EXP-I", "Per-server model instances on a replicated cluster");

    let n_servers = 4;
    let mut config = ClusterConfig::cluster(n_servers);
    config.workload = WorkloadMix {
        read_fraction: 1.0,
        mean_interarrival_secs: 0.008,
        n_chunks: 4000,
        zipf_skew: 0.8,
        ..WorkloadMix::read_heavy()
    };
    let mut cluster = Cluster::new(&config).expect("config");
    let outcome = cluster.run(4000, EXPERIMENT_SEED);

    // The fleet joins the run's trace into per-request observations,
    // groups them by serving chunkserver and fits the instances in parallel.
    let fleet = KoozaFleet::fit(&outcome).expect("fleet trains");
    let mut rng = Rng64::new(EXPERIMENT_SEED + 4);
    let streams = fleet.generate_per_server(1000, &mut rng);

    section("per-server fidelity");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "server", "rate orig", "rate model", "lat orig (ms)", "lat model (ms)"
    );
    let groups = observations_by_server(&outcome).expect("assembles");
    for (i, obs) in groups.iter().enumerate() {
        let (first, last) = (obs.iter().next().unwrap(), obs.iter().next_back().unwrap());
        let span_secs = (last.arrival_nanos - first.arrival_nanos) as f64 / 1e9;
        let orig_rate = (obs.len() - 1) as f64 / span_secs;
        let orig_lat = obs.iter().map(|o| o.latency_nanos as f64 / 1e6).sum::<f64>()
            / obs.len() as f64;
        let model_rate = fleet.server(i).network().mean_rate();
        let replayed =
            kooza::replay_loaded_latency_secs(&streams[i], ReplayConfig::from(&config));
        let model_lat = replayed.iter().sum::<f64>() / replayed.len() as f64 * 1e3;
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>14.2} {:>14.2}",
            i, orig_rate, model_rate, orig_lat, model_lat
        );
    }
    println!(
        "\naggregate: cluster offered {:.0} req/s; fleet models sum to {:.1} req/s",
        1.0 / config.workload.mean_interarrival_secs,
        fleet.aggregate_rate()
    );

    section("scalability (parameters grow linearly in servers)");
    println!(
        "{} servers → {} trained parameters ({} per server on average)",
        fleet.len(),
        fleet.parameter_count(),
        fleet.parameter_count() / fleet.len()
    );
    println!(
        "\npaper claim (§4, Table 1 'Scalability'): per-server instances keep\n\
         the model structure constant while state grows linearly — no\n\
         cross-server coupling beyond shared request ids."
    );
}

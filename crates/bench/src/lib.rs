//! Shared plumbing for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper (or one of
//! the extended experiments in DESIGN.md). They share the workload setups
//! and the text-report conventions defined here, and they all print the
//! seed they ran with, so every number in EXPERIMENTS.md is reproducible
//! with a single `cargo run -p kooza-bench --bin <name>`.

#![warn(missing_docs)]

pub mod harness;
pub mod incast;

use kooza_gfs::{Cluster, ClusterConfig, ClusterOutcome, WorkloadMix};

/// The seed every experiment uses unless it sweeps seeds explicitly.
pub const EXPERIMENT_SEED: u64 = 2011;

/// Prints a banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("seed = {EXPERIMENT_SEED}");
    println!("================================================================");
}

/// Prints a section separator.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// The paper's first user request: 64 KB reads against a single
/// chunkserver (cold working set so the full Figure-1 pipeline runs).
pub fn read_64k_cluster() -> (ClusterConfig, Cluster) {
    let mut config = ClusterConfig::small();
    config.workload = WorkloadMix {
        n_chunks: 100_000,
        zipf_skew: 0.5,
        ..WorkloadMix::read_heavy()
    };
    let cluster = Cluster::new(&config).expect("valid config");
    (config, cluster)
}

/// The paper's second user request: 4 MB writes against a single
/// chunkserver.
pub fn write_4m_cluster() -> (ClusterConfig, Cluster) {
    let mut config = ClusterConfig::small();
    config.workload = WorkloadMix::write_heavy();
    let cluster = Cluster::new(&config).expect("valid config");
    (config, cluster)
}

/// The cross-examination workload: mixed reads/writes over a warm working
/// set, so both cross-subsystem correlations and cache structure matter.
pub fn mixed_cluster() -> (ClusterConfig, Cluster) {
    let mut config = ClusterConfig::small();
    config.workload = WorkloadMix {
        n_chunks: 120,
        ..WorkloadMix::mixed()
    };
    let cluster = Cluster::new(&config).expect("valid config");
    (config, cluster)
}

/// Runs a cluster for `n` requests at the experiment seed.
pub fn run(cluster: &mut Cluster, n: u64) -> ClusterOutcome {
    cluster.run(n, EXPERIMENT_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_construct_and_run() {
        let (_, mut c) = read_64k_cluster();
        assert_eq!(run(&mut c, 10).stats.completed, 10);
        let (_, mut c) = write_4m_cluster();
        assert_eq!(run(&mut c, 5).stats.completed, 5);
        let (_, mut c) = mixed_cluster();
        assert_eq!(run(&mut c, 10).stats.completed, 10);
    }
}

//! Simulation-core hot-path benchmark: the wall time of the incremental
//! fabric re-rating, the tombstone-free event queue, and the alloc-free
//! KTC/span plumbing.
//!
//! Two benches, named to match the archived reports so `--baseline`
//! diffs line up:
//!
//! * `fabric_incast_32` — the shared incast driver at fan-out 32
//!   (see [`kooza_bench::incast`]): a restart storm on one saturated
//!   receiver link, dominated by fabric re-rates and cancellations.
//!   Runs in both modes; `scripts/verify.sh` smoke-runs it. Its work is
//!   gated exactly instead: `kooza_bench::incast`'s unit test pins the
//!   run's outcome, flow count and re-rate counts, which no host can
//!   move. Compare its wall time only against a parent build timed
//!   alternately on the same host.
//! * `cluster_1m_single` — the paper-scale million-request cluster from
//!   the shard bench on a single engine, dominated by the event queue
//!   and per-request span traffic. Full mode only: the smoke-sized run
//!   is too short to diff against the archived full-mode median.

use std::hint::black_box;

use kooza_bench::harness::Harness;
use kooza_bench::incast::incast;
use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};

/// Same cluster the shard bench measures (64 servers, mixed workload),
/// so the archived medians stay comparable across reports.
fn bench_config() -> ClusterConfig {
    let mut config = ClusterConfig::cluster(64);
    config.workload = WorkloadMix {
        mean_interarrival_secs: 0.0005,
        n_chunks: 20_000,
        ..WorkloadMix::mixed()
    };
    config
}

fn main() {
    let mut h = Harness::from_args();
    // The cluster bench runs on a single engine with its config's default
    // topology; the incast driver hardwires its own rack:4:2 fabric.
    h.set_shards(1);

    h.bench_function("fabric_incast_32", |b| b.iter(|| black_box(incast(32))));

    if h.is_full() {
        let config = bench_config();
        h.bench_function("cluster_1m_single", |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(&config).unwrap();
                black_box(cluster.run(1_000_000, 42).stats.completed)
            })
        });
    }
    h.finish();
}

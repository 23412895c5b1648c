//! Shared-fabric benchmark: the flow-level rack/spine fabric vs the
//! ideal fixed-service links, plus the incast degradation curve.
//!
//! Wall-clock benches measure what the fabric costs the simulator (flow
//! re-rating on every start/finish). The `notes.incast` table in the
//! JSON report (`KOOZA_BENCH_JSON`, archived as `BENCH_fabric.json`)
//! records *simulated* completion times of an N-to-1 incast with
//! timeout/restart recovery: past the point where the fair share per
//! flow can no longer beat the timeout, restarts pile load onto the
//! saturated receiver link and completion time degrades super-linearly
//! in the fan-out — the regime a fixed-capacity link model cannot
//! express at all.

use std::hint::black_box;

use kooza_bench::harness::Harness;
use kooza_bench::incast::{incast, STRIPE, TIMEOUT};
use kooza_gfs::{Cluster, ClusterConfig, Topology, WorkloadMix};
use kooza_json::Json;

/// The cluster the wall-clock benches run: same shape as the shard
/// bench, with the topology switched between ideal links and the fabric.
fn bench_config(topology: Topology) -> ClusterConfig {
    let mut config = ClusterConfig::cluster(16);
    config.workload = WorkloadMix {
        mean_interarrival_secs: 0.001,
        n_chunks: 4_000,
        ..WorkloadMix::mixed()
    };
    config.topology = topology;
    config
}

fn main() {
    let mut h = Harness::from_args();
    h.set_topology("rack:4:2");
    let n_requests: u64 = if h.is_full() { 200_000 } else { 2_000 };

    // Simulated incast curve (deterministic, mode-independent).
    let fanouts = [1usize, 2, 4, 8, 16, 32];
    let mut curve = Vec::new();
    println!("incast into one 1 GbE host (rack:4:2 fabric, {} KB stripes, {} ms timeout):", STRIPE / 1024, TIMEOUT.as_millis_f64());
    println!("{:>8} {:>16} {:>10} {:>14}", "fan-out", "completion (ms)", "restarts", "ms per stripe");
    for fanout in fanouts {
        let run = incast(fanout);
        let ms = run.completion.as_millis_f64();
        println!("{:>8} {:>16.2} {:>10} {:>14.2}", fanout, ms, run.restarts, ms / fanout as f64);
        curve.push(Json::Object(vec![
            ("fanout".into(), Json::U64(fanout as u64)),
            ("completion_ms".into(), Json::F64(ms)),
            ("restarts".into(), Json::U64(run.restarts)),
            ("ms_per_stripe".into(), Json::F64(ms / fanout as f64)),
        ]));
    }
    h.note("incast", Json::Array(curve.clone()));

    // Super-linearity guard: growing the fan-out 4x from the last
    // timeout-free point must cost more than 4x in completion time
    // (the restart storm, not just the longer queue).
    let ms_at = |f: usize| {
        let idx = fanouts.iter().position(|&x| x == f).unwrap();
        curve[idx].get("completion_ms").unwrap().as_f64().unwrap()
    };
    assert!(
        ms_at(32) > 4.0 * 1.5 * ms_at(8),
        "incast degradation is not super-linear: {} ms at 8, {} ms at 32",
        ms_at(8),
        ms_at(32)
    );

    // Wall-clock cost of the fabric machinery itself.
    h.bench_function("fabric_incast_32", |b| b.iter(|| black_box(incast(32))));

    let ideal = bench_config(Topology::None);
    h.bench_function("cluster_ideal_links", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(&ideal).unwrap();
            black_box(cluster.run(n_requests, 42).stats.completed)
        })
    });
    let rack = bench_config(Topology::Rack { servers_per_rack: 4, oversub: 2.0 });
    h.bench_function("cluster_rack_fabric", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(&rack).unwrap();
            black_box(cluster.run(n_requests, 42).stats.completed)
        })
    });
    h.finish();
}

//! The simulation side of the benchmark: the three `sim_*` cluster
//! shapes, one timed simulation (`Cluster::run`/`run_sharded` plus the
//! KTC encode), and the checks and exact counts of its output.

use std::collections::BTreeMap;

use kooza_gfs::{
    default_shards, Cluster, ClusterConfig, ClusterOutcome, FaultSpec, Topology, WorkloadMix,
};
use kooza_trace::TraceSet;

use crate::spans::timed;

/// Requests per `sim_ideal`/`sim_sharded` simulation.
const IDEAL_REQUESTS: u64 = 15_000;
/// Requests per `sim_fabric_faults` simulation, and simulations per phase.
const FAULT_REQUESTS: u64 = 1_250;
const FAULT_SUB_RUNS: u64 = 32;

/// One cluster shape and how much of it a simulation runs.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub config: ClusterConfig,
    pub requests: u64,
    /// Shards handed to `run_sharded`; 1 runs the single engine.
    pub shards: usize,
    /// This simulation is number `sub_run` of `sub_runs` per phase; it
    /// runs at workload seed `seed * sub_runs + sub_run`.
    pub sub_run: u64,
    pub sub_runs: u64,
}

impl SimSpec {
    fn new(config: ClusterConfig, requests: u64) -> Self {
        SimSpec {
            config,
            requests,
            shards: 1,
            sub_run: 0,
            sub_runs: 1,
        }
    }

    /// The workload seed this simulation runs at.
    pub fn seed(&self, seed: u64) -> u64 {
        seed.wrapping_mul(self.sub_runs).wrapping_add(self.sub_run)
    }
}

/// 64 chunkservers, 70% 64 KB reads / 30% 1 MB writes, 0.5 ms mean
/// Poisson interarrival over a 20k-chunk working set, ideal links, no
/// faults, every request traced: the shape of `cluster_1m_single`.
pub fn ideal() -> SimSpec {
    let mut config = ClusterConfig::cluster(64);
    config.workload = WorkloadMix {
        n_chunks: 20_000,
        mean_interarrival_secs: 0.5e-3,
        ..WorkloadMix::mixed()
    };
    SimSpec::new(config, IDEAL_REQUESTS)
}

/// `ideal` run through the sharded engine at its default shard count.
/// Fault-free on purpose: sharded fault runs panic today (see README).
pub fn sharded() -> SimSpec {
    let spec = ideal();
    let shards = default_shards(&spec.config);
    SimSpec { shards, ..spec }
}

/// 16 chunkservers on a 4-per-rack fabric with 2:1 uplinks, a
/// write-dominated mix (3-way replicated 1 MB writes), crashes, 1 s
/// client timeouts and retries, and 1-in-16 span sampling. A phase runs
/// [`FAULT_SUB_RUNS`] short simulations at derived seeds: retry storms
/// make the cost of one long run vary threefold from seed to seed, and
/// short runs keep each storm bounded.
pub fn fabric_faults() -> Vec<SimSpec> {
    let mut config = ClusterConfig::cluster(16);
    config.topology = Topology::Rack {
        servers_per_rack: 4,
        oversub: 2.0,
    };
    config.workload = WorkloadMix {
        read_fraction: 0.3,
        n_chunks: 4_000,
        mean_interarrival_secs: 8e-3,
        ..WorkloadMix::mixed()
    };
    config.trace_sampling = 16;
    config.faults = Some(FaultSpec {
        mttf_secs: 200.0,
        mttr_secs: 2.0,
        retry_timeout_secs: 1.0,
        max_retries: 8,
        ..FaultSpec::default()
    });
    (0..FAULT_SUB_RUNS)
        .map(|sub_run| SimSpec {
            sub_run,
            sub_runs: FAULT_SUB_RUNS,
            ..SimSpec::new(config.clone(), FAULT_REQUESTS)
        })
        .collect()
}

/// One simulation and its encoded trace.
pub struct SimRun {
    pub outcome: ClusterOutcome,
    pub ktc: Vec<u8>,
    pub run_s: f64,
    pub write_s: f64,
}

/// Builds the cluster (the `gfs.setup` span).
pub fn build(spec: &SimSpec) -> Result<Cluster, String> {
    timed("gfs.setup", || Cluster::new(&spec.config))
        .0
        .map_err(|e| format!("Cluster::new: {e}"))
}

/// Runs one simulation of `spec` at `seed` and encodes its trace to KTC.
pub fn simulate(cluster: &mut Cluster, spec: &SimSpec, seed: u64) -> Result<SimRun, String> {
    let (outcome, run_s) = timed("gfs.run", || {
        if spec.shards > 1 {
            cluster.run_sharded(spec.requests, spec.seed(seed), spec.shards)
        } else {
            cluster.run(spec.requests, spec.seed(seed))
        }
    });
    let (ktc, write_s) = timed("trace.ktc_write", || {
        let mut ktc = Vec::new();
        outcome.trace.write_ktc(&mut ktc).map(|()| ktc)
    });
    let ktc = ktc.map_err(|e| format!("write_ktc: {e}"))?;
    Ok(SimRun {
        outcome,
        ktc,
        run_s,
        write_s,
    })
}

/// Checks that every request resolved exactly once, as completed or
/// failed.
pub fn check_requests(run: &SimRun, spec: &SimSpec) -> Result<(), String> {
    let stats = &run.outcome.stats;
    let failed = stats.faults.requests_failed;
    if stats.completed + failed != spec.requests {
        return Err(format!(
            "{} completed + {failed} failed != {} requests",
            stats.completed, spec.requests
        ));
    }
    let mut ids: Vec<u64> = run.outcome.requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() as u64 != spec.requests || run.outcome.requests.len() as u64 != spec.requests {
        return Err(format!(
            "{} outcomes with {} distinct ids for {} requests",
            run.outcome.requests.len(),
            ids.len(),
            spec.requests
        ));
    }
    let failed_outcomes = run.outcome.requests.iter().filter(|r| r.failed).count() as u64;
    if failed_outcomes != failed {
        return Err(format!(
            "{failed_outcomes} failed outcomes but {failed} failed requests"
        ));
    }
    Ok(())
}

/// Checks that `decoded` (the KTC bytes read back) holds as many records
/// of each stream, and as many spans, as the trace that was written.
pub fn check_decoded(written: &TraceSet, decoded: &TraceSet) -> Result<(), String> {
    let shape = |t: &TraceSet| {
        [
            t.storage.len(),
            t.cpu.len(),
            t.memory.len(),
            t.network.len(),
            t.spans.len(),
        ]
    };
    if shape(written) != shape(decoded) {
        return Err(format!(
            "KTC round trip changed stream sizes (storage, cpu, memory, network, spans): \
             wrote {:?}, read {:?}",
            shape(written),
            shape(decoded)
        ));
    }
    Ok(())
}

/// The nearest-rank `q` quantile of sorted values.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact work counts and simulated statistics of a set of simulations.
/// They repeat exactly for a fixed seed, at any thread count.
pub fn counts(runs: &[&SimRun]) -> BTreeMap<&'static str, f64> {
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut latencies = Vec::new();
    for run in runs {
        let stats = &run.outcome.stats;
        let f = &stats.faults;
        let trace = &run.outcome.trace;
        for (name, value) in [
            ("gfs.requests_completed", stats.completed),
            ("gfs.requests_failed", f.requests_failed),
            ("gfs.fault.crashes", f.crashes),
            ("gfs.fault.retries", f.retries),
            ("gfs.fault.timeouts", f.timeouts),
            ("gfs.fault.failovers", f.failovers),
            ("gfs.fault.rereplications", f.rereplications),
            ("sim.events", stats.events_processed),
            ("trace.spans", trace.spans.len() as u64),
            ("trace.records", (trace.len() - trace.spans.len()) as u64),
            ("trace.ktc.write_bytes", run.ktc.len() as u64),
        ] {
            *c.entry(name).or_default() += value as f64;
        }
        let high_water = c.entry("sim.pending_high_water").or_default();
        *high_water = high_water.max(stats.pending_high_water as f64);
        *c.entry("sim.simulated_s").or_default() += stats.makespan_secs;
        latencies.extend(
            run.outcome
                .requests
                .iter()
                .filter(|r| !r.failed)
                .map(|r| r.latency_nanos),
        );
    }
    latencies.sort_unstable();
    c.insert(
        "gfs.sim_latency_p50_ms",
        quantile(&latencies, 0.50) as f64 / 1e6,
    );
    c.insert(
        "gfs.sim_latency_p99_ms",
        quantile(&latencies, 0.99) as f64 / 1e6,
    );
    c
}

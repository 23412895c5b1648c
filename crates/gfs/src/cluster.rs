//! The event-driven GFS cluster simulation: the public API and the
//! one-shard hosting of the protocol.
//!
//! Requests follow the paper's Figure 1: network in → CPU (lookup) →
//! memory (buffer access) → disk (unless the buffer cache hits) → CPU
//! (aggregate) → network out. Writes additionally replicate to secondary
//! chunkservers before acknowledging.
//!
//! The protocol is written once, as handlers over a per-shard host context
//! (`cluster/shard.rs`). [`Cluster::run`] hosts it on one shard that owns
//! every server; [`Cluster::run_sharded`] hosts a fault-free, ideal-link
//! cluster on N shards advancing in lockstep time windows
//! (`cluster/sharded.rs`).
//!
//! Every request is instrumented (subject to Dapper-style 1-in-N trace
//! sampling): per-subsystem records plus a span tree land in a
//! [`TraceSet`]. Sampled requests pay a configurable CPU overhead per
//! span, so the overhead-vs-sampling-rate experiment (Dapper's "<1.5%")
//! has something real to measure.

use kooza_sim::rng::Rng64;
use kooza_sim::Tally;
use kooza_trace::TraceSet;

use crate::config::ClusterConfig;
use crate::master::Master;

mod shard;
mod sharded;
pub use sharded::default_shards;

/// Summary of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Global request id.
    pub id: u64,
    /// `true` for reads, `false` for writes.
    pub is_read: bool,
    /// Request payload size, bytes.
    pub size: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_nanos: u64,
    /// Whether the request's trace was sampled.
    pub sampled: bool,
    /// CPU busy time attributed to the request, nanoseconds.
    pub cpu_busy_nanos: u64,
    /// Whether the buffer cache absorbed the read.
    pub cache_hit: bool,
    /// Retry attempts the client made beyond the first.
    pub retries: u32,
    /// Whether the request rode through a fault: it retried or its disk
    /// I/O ran inside a degraded (post-recovery) window.
    pub faulted: bool,
    /// Whether the client abandoned the request after exhausting retries.
    pub failed: bool,
}

/// Fault-path counters for one run; all zeros when faults are disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Chunkserver crash events delivered.
    pub crashes: u64,
    /// Chunkserver recovery events delivered.
    pub recoveries: u64,
    /// Client retry attempts issued.
    pub retries: u64,
    /// Attempt timeouts that fired.
    pub timeouts: u64,
    /// Retries that switched to a different chunkserver.
    pub failovers: u64,
    /// Client packets lost to link drops.
    pub link_drops: u64,
    /// Replica placements repaired (master-driven plus write-triggered).
    pub rereplications: u64,
    /// Requests abandoned after exhausting retries.
    pub requests_failed: u64,
    /// In-service and queued station jobs destroyed by crashes.
    pub jobs_lost: u64,
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Requests completed (excludes requests that failed under faults).
    pub completed: u64,
    /// Latency distribution (seconds).
    pub latency_secs: Tally,
    /// Simulated makespan, seconds.
    pub makespan_secs: f64,
    /// Per-chunkserver CPU utilization.
    pub cpu_utilization: Vec<f64>,
    /// Per-chunkserver disk utilization.
    pub disk_utilization: Vec<f64>,
    /// Total CPU busy time across servers, seconds.
    pub total_cpu_busy_secs: f64,
    /// CPU time spent on tracing instrumentation, seconds.
    pub tracing_busy_secs: f64,
    /// Simulation events the engine processed.
    pub events_processed: u64,
    /// Deepest the engine's pending-event queue ever got.
    pub pending_high_water: u64,
    /// Requests served by each chunkserver (primary only).
    pub requests_per_server: Vec<u64>,
    /// Deepest any of a chunkserver's station queues (CPU, disk, net in,
    /// net out) ever got, per server.
    pub queue_high_water_per_server: Vec<u64>,
    /// Fault-path counters (all zeros when `ClusterConfig::faults` is
    /// `None`).
    pub faults: FaultStats,
}

impl ClusterStats {
    /// Completed requests per simulated second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.makespan_secs > 0.0 {
            self.completed as f64 / self.makespan_secs
        } else {
            0.0
        }
    }

    /// Fraction of CPU work that went to tracing instrumentation.
    pub fn tracing_overhead_fraction(&self) -> f64 {
        if self.total_cpu_busy_secs > 0.0 {
            self.tracing_busy_secs / self.total_cpu_busy_secs
        } else {
            0.0
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The collected multi-subsystem trace (whole cluster, time-sorted).
    /// Each record stream is stably sorted by timestamp. The spans are in
    /// (start, span id) order, and spans that tie on both keep recording
    /// order: requests in completion order (the order of
    /// [`Self::requests`]), each request's spans by span id.
    pub trace: TraceSet,
    /// The chunkserver each request was last dispatched to, indexed by
    /// request id (0 for a request no attempt ever reached). §4:
    /// "Scaling to multiple servers in order to simulate real-application
    /// scenarios requires multiple instances of the model" — each
    /// instance trains on the requests this map assigns to its server.
    pub server_of: Vec<usize>,
    /// Aggregate statistics.
    pub stats: ClusterStats,
    /// Per-request outcomes, completion order.
    pub requests: Vec<RequestOutcome>,
}

/// The cluster simulator.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    master: Master,
}

impl Cluster {
    /// Builds a cluster from a validated configuration.
    ///
    /// The configuration is borrowed and cloned exactly once, so callers
    /// can build many clusters (trial sweeps, per-rate sweeps) from one
    /// config without deep-copying it themselves.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GfsError::InvalidConfig`] on bad parameters.
    pub fn new(config: &ClusterConfig) -> crate::Result<Self> {
        config.validate()?;
        // Placement is part of the cluster identity; derive its seed from
        // structure so `run(seed)` controls only the workload.
        let mut placement_rng = Rng64::new(0xC0FF_EE00 ^ config.n_chunkservers as u64);
        let master = Master::place(
            config.workload.n_chunks,
            config.n_chunkservers,
            config.replication,
            &mut placement_rng,
        )?;
        Ok(Cluster { config: config.clone(), master })
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs `n_requests` requests with the given workload seed, returning
    /// the trace, statistics and per-request outcomes. Deterministic:
    /// equal `(config, n_requests, seed)` gives identical outcomes.
    ///
    /// This is the one-shard hosting of the protocol: one engine, the
    /// placement from [`Cluster::new`], and a mailbox that hands every
    /// message to its handler at once. Re-replication rewrites placement
    /// on a copy of the master, so `run` is idempotent on the cluster.
    pub fn run(&mut self, n_requests: u64, seed: u64) -> ClusterOutcome {
        let all = 0..self.config.n_chunkservers;
        let mut shards =
            shard::Shard::build(&self.config, self.master.clone(), n_requests, seed, &[all], None);
        shards[0].run_alone();
        shard::finish(self, shards)
    }

    /// Publishes one finished run's aggregate metrics to the global
    /// observability registry (no-op unless `--obs` enabled it).
    ///
    /// Runs may execute inside `par_map` workers, so only commutative
    /// operations appear here — counter adds, gauge maxima, integer
    /// histogram records — keeping the registry state identical at any
    /// thread count. One `with_registry` call takes the lock once
    /// per run, not once per event.
    fn publish_metrics(&self, stats: &ClusterStats, outcomes: &[RequestOutcome]) {
        if !kooza_obs::global::is_enabled() {
            return;
        }
        /// Request latency buckets, nanoseconds: 1µs … 10s by decades.
        const LATENCY_BOUNDS: &[u64] = &[
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
            10_000_000_000,
        ];
        /// Per-server request-count buckets.
        const REQUESTS_BOUNDS: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];
        /// Station queue-depth buckets.
        const QUEUE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        kooza_obs::global::with_registry(|reg| {
            reg.counter_add("gfs.requests_completed", stats.completed);
            reg.counter_add("gfs.events_processed", stats.events_processed);
            reg.counter_add("gfs.runs", 1);
            reg.gauge_max("gfs.pending_high_water", stats.pending_high_water as f64);
            let latency = reg.histogram_mut("gfs.request_latency_nanos", LATENCY_BOUNDS);
            for outcome in outcomes {
                latency.record(outcome.latency_nanos);
            }
            let loads = reg.histogram_mut("gfs.server.requests", REQUESTS_BOUNDS);
            for &n in &stats.requests_per_server {
                loads.record(n);
            }
            let queues = reg.histogram_mut("gfs.server.queue_high_water", QUEUE_BOUNDS);
            for &depth in &stats.queue_high_water_per_server {
                queues.record(depth);
            }
            // Fault counters only exist when faults are configured, so a
            // healthy run's report stays byte-identical to before.
            if self.config.faults.is_some() {
                let f = &stats.faults;
                reg.counter_add("gfs.fault.crashes", f.crashes);
                reg.counter_add("gfs.fault.recoveries", f.recoveries);
                reg.counter_add("gfs.fault.retries", f.retries);
                reg.counter_add("gfs.fault.timeouts", f.timeouts);
                reg.counter_add("gfs.fault.failovers", f.failovers);
                reg.counter_add("gfs.fault.link_drops", f.link_drops);
                reg.counter_add("gfs.fault.rereplications", f.rereplications);
                reg.counter_add("gfs.fault.requests_failed", f.requests_failed);
                reg.counter_add("gfs.fault.jobs_lost", f.jobs_lost);
                let degraded =
                    reg.histogram_mut("gfs.fault.degraded_latency_nanos", LATENCY_BOUNDS);
                for outcome in outcomes.iter().filter(|o| o.faulted && !o.failed) {
                    degraded.record(outcome.latency_nanos);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Topology, WorkloadMix};
    use crate::fault::FaultPlan;
    use kooza_sim::SimDuration;
    use kooza_trace::record::IoOp;

    fn run_small(mix: WorkloadMix, n: u64, seed: u64) -> ClusterOutcome {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        Cluster::new(&config).unwrap().run(n, seed)
    }

    #[test]
    fn completes_every_request() {
        let out = run_small(WorkloadMix::mixed(), 500, 1);
        assert_eq!(out.stats.completed, 500);
        assert_eq!(out.requests.len(), 500);
        assert_eq!(out.trace.cpu.len(), 500);
        // One ingress + one egress network record per request.
        assert_eq!(out.trace.network.len(), 1000);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_small(WorkloadMix::mixed(), 300, 7);
        let b = run_small(WorkloadMix::mixed(), 300, 7);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        let c = run_small(WorkloadMix::mixed(), 300, 8);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn read_heavy_mix_produces_reads() {
        let out = run_small(WorkloadMix::read_heavy(), 400, 2);
        assert!(out.requests.iter().all(|r| r.is_read));
        assert!(out
            .trace
            .storage
            .iter()
            .all(|r| r.op == IoOp::Read));
        // 64 KB reads.
        assert!(out.requests.iter().all(|r| r.size == 64 * 1024));
    }

    #[test]
    fn write_latency_exceeds_read_latency() {
        let reads = run_small(WorkloadMix::read_heavy(), 300, 3);
        let writes = run_small(WorkloadMix::write_heavy(), 300, 3);
        assert!(
            writes.stats.latency_secs.mean() > 3.0 * reads.stats.latency_secs.mean(),
            "writes {} reads {}",
            writes.stats.latency_secs.mean(),
            reads.stats.latency_secs.mean()
        );
    }

    #[test]
    fn cache_hits_happen_and_skip_disk() {
        // Hot working set: fewer chunks than cache slots.
        let mix = WorkloadMix { n_chunks: 16, ..WorkloadMix::read_heavy() };
        let out = run_small(mix, 1000, 4);
        let hits = out.requests.iter().filter(|r| r.cache_hit).count();
        assert!(hits > 500);
        // Disk records only for the misses.
        assert_eq!(out.trace.storage.len(), 1000 - hits);
        // Cache-hit reads are faster on average.
        let mean = |v: Vec<u64>| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let hit_lat = mean(out.requests.iter().filter(|r| r.cache_hit).map(|r| r.latency_nanos).collect());
        let miss_lat = mean(out.requests.iter().filter(|r| !r.cache_hit).map(|r| r.latency_nanos).collect());
        assert!(miss_lat > hit_lat, "miss {miss_lat} hit {hit_lat}");
    }

    #[test]
    fn span_trees_follow_figure_one() {
        let mix = WorkloadMix { n_chunks: 100_000, zipf_skew: 0.5, ..WorkloadMix::read_heavy() };
        let out = run_small(mix, 50, 5);
        let trees = out.trace.span_trees();
        assert_eq!(trees.len(), 50);
        for tree in &trees {
            let phases = tree.phase_sequence();
            // Cache misses: the full Figure-1 pipeline.
            if phases.len() == 6 {
                assert_eq!(
                    phases,
                    vec!["network.in", "cpu.lookup", "memory", "disk", "cpu.aggregate", "network.out"]
                );
            } else {
                // Cache hits skip the disk phase.
                assert_eq!(
                    phases,
                    vec!["network.in", "cpu.lookup", "memory", "cpu.aggregate", "network.out"]
                );
            }
        }
    }

    #[test]
    fn sampling_reduces_spans_and_overhead() {
        let mut config = ClusterConfig::small();
        config.workload = WorkloadMix::read_heavy();
        config.trace_sampling = 10;
        let mut cluster = Cluster::new(&config).unwrap();
        let out = cluster.run(2000, 6);
        let sampled = out.requests.iter().filter(|r| r.sampled).count();
        assert!((100..400).contains(&sampled), "sampled {sampled}");
        // Only sampled requests have spans.
        assert_eq!(out.trace.span_trees().len(), sampled);
        // Overhead fraction shrinks accordingly.
        let mut full_config = ClusterConfig::small();
        full_config.workload = WorkloadMix::read_heavy();
        full_config.trace_sampling = 1;
        let full = Cluster::new(&full_config).unwrap().run(2000, 6);
        assert!(
            out.stats.tracing_overhead_fraction() < full.stats.tracing_overhead_fraction() / 4.0
        );
    }

    #[test]
    fn replication_touches_multiple_disks() {
        let mut config = ClusterConfig::cluster(3);
        config.workload = WorkloadMix::write_heavy();
        config.workload.mean_interarrival_secs = 0.2; // light load
        let mut cluster = Cluster::new(&config).unwrap();
        let out = cluster.run(100, 7);
        assert_eq!(out.stats.completed, 100);
        // All three disks saw traffic (replication fans writes out).
        for (i, u) in out.stats.disk_utilization.iter().enumerate() {
            assert!(*u > 0.0, "disk {i} idle");
        }
        // Replicated writes are slower than they would be unreplicated.
        let mut solo_config = ClusterConfig::cluster(3);
        solo_config.replication = 1;
        solo_config.workload = WorkloadMix::write_heavy();
        solo_config.workload.mean_interarrival_secs = 0.2;
        let solo = Cluster::new(&solo_config).unwrap().run(100, 7);
        assert!(
            out.stats.latency_secs.mean() > solo.stats.latency_secs.mean(),
            "replicated {} solo {}",
            out.stats.latency_secs.mean(),
            solo.stats.latency_secs.mean()
        );
    }

    #[test]
    fn cpu_utilization_is_modest_for_reads() {
        // The Table-2 shape: a 64 KB read spends a few percent of its
        // lifetime on CPU.
        let mix = WorkloadMix { n_chunks: 100_000, zipf_skew: 0.5, ..WorkloadMix::read_heavy() };
        let out = run_small(mix, 300, 8);
        let mean_util: f64 = out.trace.cpu.iter().map(|c| c.utilization).sum::<f64>()
            / out.trace.cpu.len() as f64;
        assert!(
            (0.005..0.25).contains(&mean_util),
            "per-request CPU utilization {mean_util}"
        );
    }

    #[test]
    fn memory_records_match_table_two_ratios() {
        let out = run_small(WorkloadMix::read_heavy(), 100, 9);
        for m in &out.trace.memory {
            assert_eq!(m.size, 64 * 1024 / 4); // 16 KB per 64 KB read
            assert_eq!(m.op, IoOp::Read);
        }
        let out = run_small(WorkloadMix::write_heavy(), 50, 9);
        for m in &out.trace.memory {
            assert_eq!(m.size, 4 * 1024 * 1024 / 16); // 256 KB per 4 MB write
            assert_eq!(m.op, IoOp::Write);
        }
    }

    #[test]
    fn server_of_maps_every_request_to_a_chunkserver() {
        let mut config = ClusterConfig::cluster(3);
        config.workload = WorkloadMix::mixed();
        let out = Cluster::new(&config).unwrap().run(400, 11);
        assert_eq!(out.server_of.len(), 400);
        let mut load = vec![0u64; 3];
        for &server in &out.server_of {
            load[server] += 1;
        }
        assert_eq!(load, out.stats.requests_per_server);
        // Every server served a share of the mixed workload.
        assert!(load.iter().all(|&n| n > 0), "load {load:?}");
    }

    #[test]
    fn zero_requests_is_empty() {
        let out = run_small(WorkloadMix::mixed(), 0, 1);
        assert_eq!(out.stats.completed, 0);
        assert!(out.trace.is_empty());
    }

    /// An 8-server cluster on a rack fabric: 2 racks of 4, each uplink
    /// carrying half its hosts' aggregate bandwidth.
    fn rack_config(n: usize) -> ClusterConfig {
        let mut config = ClusterConfig::cluster(n);
        config.topology = Topology::Rack { servers_per_rack: 4, oversub: 2.0 };
        config.workload = WorkloadMix::mixed();
        config
    }

    #[test]
    fn fabric_mode_completes_every_request() {
        let out = Cluster::new(&rack_config(8)).unwrap().run(300, 41);
        assert_eq!(out.stats.completed, 300);
        assert_eq!(out.requests.len(), 300);
        // Same trace shape as the legacy path: one ingress + one egress
        // network record per request.
        assert_eq!(out.trace.network.len(), 600);
    }

    #[test]
    fn fabric_mode_is_deterministic_and_seed_sensitive() {
        let config = rack_config(8);
        let a = Cluster::new(&config).unwrap().run(250, 43);
        let b = Cluster::new(&config).unwrap().run(250, 43);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        let c = Cluster::new(&config).unwrap().run(250, 44);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn fabric_contention_slows_requests_versus_ideal_links() {
        // Heavy load on shared links must cost latency relative to the
        // legacy model, where every server owns an uncontended full-rate
        // link in each direction.
        let mut shared = rack_config(8);
        shared.workload.mean_interarrival_secs = 0.002;
        let mut ideal = shared.clone();
        ideal.topology = Topology::None;
        let on_fabric = Cluster::new(&shared).unwrap().run(300, 45);
        let on_links = Cluster::new(&ideal).unwrap().run(300, 45);
        assert_eq!(on_fabric.stats.completed, 300);
        assert!(
            on_fabric.stats.latency_secs.mean() > on_links.stats.latency_secs.mean(),
            "fabric {} ideal {}",
            on_fabric.stats.latency_secs.mean(),
            on_links.stats.latency_secs.mean()
        );
    }

    #[test]
    fn fabric_faulty_run_resolves_every_request() {
        let mut config = rack_config(8);
        config.workload.mean_interarrival_secs = 0.1;
        config.faults =
            Some(FaultSpec::parse("mttf=1.5,mttr=0.3,timeout=0.4,retries=10,detect=0.1").unwrap());
        let a = Cluster::new(&config).unwrap().run(400, 47);
        let f = &a.stats.faults;
        assert!(f.crashes > 0, "no crashes: {f:?}");
        assert_eq!(a.stats.completed + f.requests_failed, 400);
        let b = Cluster::new(&config).unwrap().run(400, 47);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.stats.faults, b.stats.faults);
    }

    use crate::fault::FaultSpec;

    /// A 4-server cluster under a harsh fault regime: ~1.5 s MTTF per
    /// server against a ~50 s workload guarantees crashes mid-run.
    fn faulty_config(spec: &str) -> ClusterConfig {
        let mut config = ClusterConfig::cluster(4);
        config.workload = WorkloadMix::mixed();
        config.workload.mean_interarrival_secs = 0.1;
        config.faults = Some(FaultSpec::parse(spec).unwrap());
        config
    }

    #[test]
    fn faulty_run_resolves_every_request() {
        let config = faulty_config("mttf=1.5,mttr=0.3,timeout=0.4,retries=10");
        let out = Cluster::new(&config).unwrap().run(500, 21);
        let f = &out.stats.faults;
        assert!(f.crashes > 0, "no crashes in 50 s at 1.5 s MTTF: {f:?}");
        assert_eq!(f.crashes, f.recoveries + (f.crashes - f.recoveries), "sanity");
        assert!(f.retries > 0, "crashes but no retries: {f:?}");
        // Every request resolved: completed or explicitly failed.
        assert_eq!(out.stats.completed + f.requests_failed, 500);
        assert_eq!(out.requests.len(), 500);
        // Outcome flags agree with the counters.
        let failed = out.requests.iter().filter(|r| r.failed).count() as u64;
        assert_eq!(failed, f.requests_failed);
        let retried = out.requests.iter().filter(|r| r.retries > 0).count();
        assert!(retried > 0);
        assert!(out.requests.iter().all(|r| !r.faulted || r.retries > 0 || !r.failed));
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let config = faulty_config("mttf=2,mttr=0.5,drop=0.02");
        let a = Cluster::new(&config).unwrap().run(300, 9);
        let b = Cluster::new(&config).unwrap().run(300, 9);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.stats.faults, b.stats.faults);
        // A different fault seed shifts the fault pattern but not the
        // request count.
        let other = faulty_config("mttf=2,mttr=0.5,drop=0.02,seed=77");
        let c = Cluster::new(&other).unwrap().run(300, 9);
        assert_eq!(c.requests.len(), 300);
        assert_ne!(a.stats.faults, c.stats.faults);
    }

    #[test]
    fn crashes_trigger_rereplication() {
        // Long down windows under a write workload: both the master-driven
        // and the write-triggered repair paths get exercised.
        let mut config = faulty_config("mttf=2,mttr=4,timeout=0.3,retries=12,detect=0.1");
        config.workload.read_fraction = 0.0;
        let out = Cluster::new(&config).unwrap().run(400, 13);
        let f = &out.stats.faults;
        assert!(f.crashes > 0, "{f:?}");
        assert!(f.rereplications > 0, "no replicas repaired: {f:?}");
        assert!(f.failovers > 0, "writes never failed over: {f:?}");
    }

    #[test]
    fn requests_fail_when_every_replica_stays_down() {
        // Nearly-permanent outages with a tiny retry budget: some requests
        // must exhaust their retries and fail.
        let config = faulty_config("mttf=0.5,mttr=60,timeout=0.2,retries=2,backoff=1");
        let out = Cluster::new(&config).unwrap().run(300, 17);
        let f = &out.stats.faults;
        assert!(f.requests_failed > 0, "nothing failed: {f:?}");
        assert!(out.stats.completed < 300);
        for r in out.requests.iter().filter(|r| r.failed) {
            assert_eq!(r.retries, 2, "failed before exhausting retries");
            assert!(r.faulted);
        }
    }

    #[test]
    fn abandoning_the_last_request_runs_on_to_the_next_crash_or_recovery() {
        // The one-shard hosting keeps the single engine's stop rule:
        // quiescence is checked after completions, crashes, recoveries
        // and fabric ticks, not after an abandonment.
        let config = faulty_config("mttf=0.5,mttr=60,timeout=0.2,retries=2,backoff=1");
        let out = Cluster::new(&config).unwrap().run(300, 17);
        assert!(out.requests.last().unwrap().failed, "the run must end on an abandonment");
        let horizon = SimDuration::from_secs_f64(300.0 * 0.1 * 2.0 + 120.0);
        let plan = FaultPlan::generate(&config.faults.unwrap(), 4, horizon);
        let end = (out.stats.makespan_secs * 1e9).round() as u64;
        let on_boundary = (0..4)
            .flat_map(|s| plan.windows(s).iter().flat_map(|w| [w.down, w.up]))
            .any(|t| t.as_nanos().abs_diff(end) <= 1);
        assert!(on_boundary, "makespan {end} ns is not a crash or recovery instant");
    }

    #[test]
    fn link_drops_are_survivable_and_counted() {
        let config = faulty_config("mttf=1000,mttr=0.1,drop=0.1,timeout=0.3,retries=10");
        let out = Cluster::new(&config).unwrap().run(400, 19);
        let f = &out.stats.faults;
        assert!(f.link_drops > 0, "10% drop over 400 requests: {f:?}");
        assert!(f.timeouts >= f.link_drops, "every drop must time out: {f:?}");
        assert_eq!(out.stats.completed + f.requests_failed, 400);
    }

    #[test]
    fn disabled_faults_report_zero_fault_stats() {
        let out = run_small(WorkloadMix::mixed(), 200, 23);
        assert_eq!(out.stats.faults, FaultStats::default());
        assert!(out.requests.iter().all(|r| !r.faulted && !r.failed && r.retries == 0));
    }
}

//! The N-shard hosting of the GFS protocol: per-server-group shards, each
//! owning its own engine, advancing in lockstep time windows, with
//! cross-shard mail exchanged at the window barrier (see
//! [`kooza_sim::ShardedEngine`]).
//!
//! # Roles
//!
//! Servers are split into contiguous *groups* ([`kooza_sim::shard_ranges`]);
//! shard `g` owns group `g`'s chunkservers. Shard 0 additionally runs the
//! control plane. Placement is *group-aligned* ([`Master::place_grouped`]):
//! every replica set lives inside one group, so write fanout and
//! re-replication pipelines never leave their shard — only client↔server
//! hops (`Attempt`/`Cancel`/`Done`), repair commands and placement commits
//! cross shard boundaries.
//!
//! # Determinism
//!
//! All randomness lives on the control shard, whose draws depend only on
//! the canonical event order; serving shards are RNG-free (the hardware
//! models are deterministic state machines). Messages buffered during a
//! window are delivered at the barrier in canonical `(send time, sending
//! shard, send seq)` order, so for a fixed `(config, n_requests, seed,
//! shards)` the output is byte-identical at any thread count — the shards
//! may be stepped serially or by [`kooza_exec::par_for_each_mut`] on the
//! persistent pool, and nothing observable changes.
//!
//! # Semantics relative to one shard
//!
//! The handlers are the one-shard hosting's; a request that clamps to one
//! shard runs [`Cluster::run`] itself. At N shards, group-aligned
//! placement changes which servers hold which chunk, and each cross-shard
//! hop lands at the next window boundary. The remaining differences come
//! from the mailbox and the per-attempt serving records and are listed,
//! each next to the test that pins it, in DESIGN.md §11.
//!
//! The window width is derived from the configuration alone
//! (≈50 mean interarrival gaps, clamped to [0.2 ms, 20 ms]) so the
//! simulation — not the host — decides the barrier cadence.

use kooza_sim::{shard_ranges, ShardedEngine, SimDuration};

use super::shard::{self, Shard, ShardMsg};
use super::{Cluster, ClusterOutcome};
use crate::config::ClusterConfig;
use crate::master::Master;

/// The default shard count for a cluster: one shard per ~8 chunkservers,
/// capped at 8 — small clusters (including [`ClusterConfig::small`]) stay
/// on one shard. Derived from the configuration only, never from the
/// host, so "auto" is the same simulation on every machine.
/// [`effective_shards`] further clamps to what replication allows.
pub fn default_shards(config: &ClusterConfig) -> usize {
    (config.n_chunkservers / 8).clamp(1, 8)
}

/// The shard count [`Cluster::run_sharded`] actually runs a request for
/// `requested` shards with: every group must hold a full replica set, so
/// at most `n_chunkservers / replication` groups, and at least one.
pub fn effective_shards(config: &ClusterConfig, requested: usize) -> usize {
    requested
        .min(config.n_chunkservers / config.replication.max(1))
        .max(1)
}

/// Window width for a configuration: ~50 mean request gaps, clamped to
/// [0.2 ms, 20 ms]. Wide enough that most events stay window-local. The
/// one-window cross-shard hop is not small against service times: a
/// 64-server read workload averages 3.484 ms latency on one shard and
/// 13.553 ms on 8 (DESIGN.md §11).
fn window_width(config: &ClusterConfig) -> SimDuration {
    SimDuration::from_secs_f64(
        (config.workload.mean_interarrival_secs * 50.0).clamp(2.0e-4, 2.0e-2),
    )
}

impl Cluster {
    /// Runs `n_requests` requests with the given workload seed on a
    /// sharded, time-windowed multi-engine simulation (see the module
    /// docs). `shards` is clamped by [`effective_shards`]; a request that
    /// clamps to 1 is [`Cluster::run`].
    ///
    /// Deterministic: equal `(config, n_requests, seed, shards)` gives
    /// identical outcomes at any worker-thread count.
    pub fn run_sharded(&mut self, n_requests: u64, seed: u64, shards: usize) -> ClusterOutcome {
        let cfg = &self.config;
        let n_shards = effective_shards(cfg, shards);
        if n_shards <= 1 {
            return self.run(n_requests, seed);
        }
        let ranges = shard_ranges(cfg.n_chunkservers, n_shards);
        // Group-aligned placement is part of the sharded cluster identity;
        // like `Cluster::new`, its seed derives from structure so `seed`
        // controls only the workload.
        let master = Master::place_grouped(
            cfg.workload.n_chunks,
            cfg.n_chunkservers,
            cfg.replication,
            n_shards,
            0xC0FF_EE00 ^ cfg.n_chunkservers as u64,
        )
        .expect("config validated and shards clamped");
        let mut barrier: ShardedEngine<ShardMsg> = ShardedEngine::new(n_shards, window_width(cfg));
        let outboxes = Some(barrier.outboxes());
        let mut shards = Shard::build(cfg, master, n_requests, seed, &ranges, outboxes);

        // The window loop: step every shard (in parallel — each only
        // touches its own state), exchange mailboxes at the barrier in
        // canonical order, deliver at the boundary instant, repeat until
        // the cluster is quiescent. Pre-scheduled fault-horizon events
        // past that point are abandoned, like the one-shard early break.
        loop {
            let until = barrier.window_end();
            kooza_exec::par_for_each_mut(&mut shards, |_, shard| shard.step(until));
            let inboxes = barrier.exchange(shards.iter_mut().map(Shard::outbox));
            let mut delivered = 0;
            for (shard, inbox) in shards.iter_mut().zip(inboxes) {
                delivered += inbox.len();
                for env in inbox {
                    shard.post(until, env.msg);
                }
            }
            if delivered == 0 && shards[0].quiescent() && shards.iter().all(Shard::idle) {
                break;
            }
        }
        if kooza_obs::global::is_enabled() {
            kooza_obs::global::with_registry(|reg| {
                reg.counter_add("sim.shard.shards", n_shards as u64);
                reg.counter_add("sim.shard.windows", barrier.windows());
                reg.counter_add("sim.shard.messages", barrier.messages());
            });
        }
        shard::finish(self, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadMix;
    use crate::fault::FaultSpec;
    use std::collections::HashMap;

    use crate::{CpuModel, RequestOutcome};

    /// A cluster big enough for 4 groups of 3 (replication 3).
    fn sharded_config() -> ClusterConfig {
        let mut config = ClusterConfig::cluster(12);
        config.workload = WorkloadMix::mixed();
        config
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_single_engine() {
        let config = ClusterConfig::small();
        let legacy = Cluster::new(&config).unwrap().run(300, 7);
        let sharded = Cluster::new(&config).unwrap().run_sharded(300, 7, 1);
        assert_eq!(legacy.trace, sharded.trace);
        assert_eq!(legacy.requests, sharded.requests);
        assert_eq!(legacy.stats.faults, sharded.stats.faults);
        // `small()` has 1 server: any shard request clamps to 1.
        let clamped = Cluster::new(&config).unwrap().run_sharded(300, 7, 8);
        assert_eq!(legacy.trace, clamped.trace);
    }

    #[test]
    fn effective_shards_respects_replication() {
        let config = sharded_config(); // 12 servers, replication 3
        assert_eq!(effective_shards(&config, 4), 4);
        assert_eq!(effective_shards(&config, 8), 4);
        assert_eq!(effective_shards(&config, 1), 1);
        assert_eq!(effective_shards(&ClusterConfig::small(), 8), 1);
        let mut big = ClusterConfig::cluster(64);
        assert_eq!(default_shards(&big), 8);
        big.n_chunkservers = 7;
        assert_eq!(default_shards(&big), 1);
    }

    #[test]
    fn sharded_run_completes_every_request() {
        let config = sharded_config();
        let out = Cluster::new(&config).unwrap().run_sharded(500, 1, 4);
        assert_eq!(out.stats.completed, 500);
        assert_eq!(out.requests.len(), 500);
        assert_eq!(out.trace.cpu.len(), 500);
        // One ingress + one egress network record per request.
        assert_eq!(out.trace.network.len(), 1000);
        // The request ids cover the full range exactly once.
        let mut ids: Vec<u64> = out.requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<u64>>());
        // Span trees still follow Figure 1.
        for tree in out.trace.span_trees() {
            let phases = tree.phase_sequence();
            assert!(phases.first() == Some(&"network.in"), "{phases:?}");
            assert!(phases.last() == Some(&"network.out"), "{phases:?}");
        }
    }

    #[test]
    fn sharded_run_is_deterministic_and_seed_sensitive() {
        let config = sharded_config();
        let a = Cluster::new(&config).unwrap().run_sharded(400, 9, 4);
        let b = Cluster::new(&config).unwrap().run_sharded(400, 9, 4);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        let c = Cluster::new(&config).unwrap().run_sharded(400, 10, 4);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn sharded_output_is_identical_at_any_thread_count() {
        let config = sharded_config();
        let baseline = kooza_exec::thread_override();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            kooza_exec::set_thread_override(Some(threads));
            runs.push(Cluster::new(&config).unwrap().run_sharded(400, 3, 4));
        }
        kooza_exec::set_thread_override(baseline);
        assert_eq!(runs[0].trace, runs[1].trace);
        assert_eq!(runs[0].trace, runs[2].trace);
        assert_eq!(runs[0].requests, runs[1].requests);
        assert_eq!(runs[0].requests, runs[2].requests);
    }

    #[test]
    fn sharded_faulty_run_resolves_every_request() {
        let mut config = sharded_config();
        config.workload.mean_interarrival_secs = 0.05;
        config.faults =
            Some(FaultSpec::parse("mttf=3,mttr=0.5,timeout=0.4,retries=10,detect=0.1").unwrap());
        let a = Cluster::new(&config).unwrap().run_sharded(400, 21, 4);
        let f = &a.stats.faults;
        assert!(f.crashes > 0, "no crashes: {f:?}");
        assert_eq!(a.stats.completed + f.requests_failed, 400);
        assert_eq!(a.requests.len(), 400);
        let failed = a.requests.iter().filter(|r| r.failed).count() as u64;
        assert_eq!(failed, f.requests_failed);
        // Deterministic under faults too.
        let b = Cluster::new(&config).unwrap().run_sharded(400, 21, 4);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.stats.faults, b.stats.faults);
    }

    #[test]
    fn sharded_writes_replicate_within_their_group() {
        let mut config = sharded_config();
        config.workload = WorkloadMix::write_heavy();
        config.workload.mean_interarrival_secs = 0.05;
        let out = Cluster::new(&config).unwrap().run_sharded(200, 5, 4);
        assert_eq!(out.stats.completed, 200);
        // Replication fans every write out inside its group: every group
        // has at least one busy disk, and per-request traffic stays in
        // the group that served it.
        let ranges = shard_ranges(12, 4);
        for range in &ranges {
            let busy = range.clone().any(|s| out.stats.disk_utilization[s] > 0.0);
            assert!(busy, "group {range:?} saw no disk traffic");
        }
    }

    #[test]
    fn sharded_fabric_run_completes_and_is_deterministic() {
        let mut config = sharded_config();
        config.topology = crate::config::Topology::Rack { servers_per_rack: 3, oversub: 1.5 };
        let a = Cluster::new(&config).unwrap().run_sharded(300, 51, 4);
        assert_eq!(a.stats.completed, 300);
        assert_eq!(a.trace.network.len(), 600);
        let b = Cluster::new(&config).unwrap().run_sharded(300, 51, 4);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        // One shard is the one-shard hosting, fabric included.
        let legacy = Cluster::new(&config).unwrap().run(300, 51);
        let one = Cluster::new(&config).unwrap().run_sharded(300, 51, 1);
        assert_eq!(legacy.trace, one.trace);
    }

    #[test]
    fn repair_whose_target_crashed_in_transit_is_reported_lost() {
        // Control picks a live repair target that crashes before the
        // barrier delivers the command; the source shard must report the
        // repair lost instead of shipping the chunk to a down NIC.
        let mut config = sharded_config();
        config.faults = Some(FaultSpec::parse("mttf=5,mttr=2,timeout=0.5,retries=8").unwrap());
        let out = Cluster::new(&config).unwrap().run_sharded(1000, 1, 2);
        assert_eq!(out.stats.completed + out.stats.faults.requests_failed, 1000);
        let mut ids: Vec<u64> = out.requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1000).collect::<Vec<u64>>());
    }

    /// Timeouts that race service times: attempts time out mid-pipeline or
    /// just after finishing, and some requests exhaust their retries.
    fn racing_config() -> ClusterConfig {
        let mut config = sharded_config();
        config.workload.mean_interarrival_secs = 0.01;
        let spec = "mttf=1000,mttr=1,timeout=0.05,retries=2,backoff=1";
        config.faults = Some(FaultSpec::parse(spec).unwrap());
        config
    }

    /// `racing_config` hosted on one shard and on two.
    fn racing_runs() -> [ClusterOutcome; 2] {
        let config = racing_config();
        [1, 2].map(|shards| Cluster::new(&config).unwrap().run_sharded(600, 3, shards))
    }

    #[test]
    fn retried_request_cpu_counts_every_attempt_at_one_shard_and_the_last_at_n() {
        let config = racing_config();
        let cpu = CpuModel::new(config.cpu);
        let overhead = SimDuration::from_secs_f64(config.tracing_overhead_secs);
        // Both CPU stages of one complete attempt, with tracing overhead.
        let one_attempt = |r: &RequestOutcome| {
            let stages = cpu.phase(1024) + cpu.phase(r.size);
            (stages + if r.sampled { overhead + overhead } else { SimDuration::ZERO }).as_nanos()
        };
        let [one, two] = racing_runs();
        let retried = |out: &ClusterOutcome| -> Vec<(u64, u64)> {
            let done = out.requests.iter().filter(|r| !r.failed && r.retries > 0);
            done.map(|r| (r.cpu_busy_nanos, one_attempt(r))).collect()
        };
        // One shard bills the CPU stages cancelled attempts reached.
        assert!(retried(&one).iter().any(|&(busy, attempt)| busy > attempt));
        // N shards report the completing attempt's serving record only.
        let at_n = retried(&two);
        assert!(!at_n.is_empty());
        assert!(at_n.iter().all(|&(busy, attempt)| busy == attempt), "{at_n:?}");
    }

    #[test]
    fn failed_request_reports_serving_cpu_and_cache_hit_only_at_one_shard() {
        let [one, two] = racing_runs();
        assert!(one.requests.iter().any(|r| r.failed && r.cpu_busy_nanos > 0));
        // At N shards the control plane's record never sees the serving side.
        let failed: Vec<&RequestOutcome> = two.requests.iter().filter(|r| r.failed).collect();
        assert!(!failed.is_empty());
        assert!(failed.iter().all(|r| r.cpu_busy_nanos == 0 && !r.cache_hit));
    }

    #[test]
    fn cancelled_attempt_phases_stay_in_the_span_tree_only_at_one_shard() {
        // Trees with a serving phase before the last retry: phases of a
        // cancelled attempt.
        let cancelled = |out: &ClusterOutcome| {
            let trees = out.trace.span_trees();
            let with = trees.iter().filter(|t| {
                let phases = t.phase_sequence();
                let last_retry = phases.iter().rposition(|&p| p == "fault.retry");
                last_retry.is_some_and(|i| phases[..i].contains(&"network.in"))
            });
            with.count()
        };
        let [one, two] = racing_runs();
        assert!(cancelled(&one) > 0);
        assert!(two.requests.iter().any(|r| r.sampled && !r.failed && r.retries > 0));
        assert_eq!(cancelled(&two), 0);
    }

    #[test]
    fn completion_racing_its_timeout_in_one_window_retries_only_at_n() {
        let config = racing_config();
        let timeout = config.faults.unwrap().timeout_for_attempt(0).as_nanos();
        // Completed requests that retried although an attempt finished
        // serving (its CPU record) before the first attempt's timer fired.
        let raced = |out: &ClusterOutcome| {
            let mut served: HashMap<u64, Vec<u64>> = HashMap::new();
            for c in &out.trace.cpu {
                served.entry(c.request_id).or_default().push(c.ts_nanos);
            }
            let retried = out.requests.iter().filter(|r| !r.failed && r.retries > 0);
            let raced = retried.filter(|r| {
                let ts = &served[&r.id];
                let start = ts.iter().max().expect("completed") - r.latency_nanos;
                ts.iter().any(|&t| t < start + timeout)
            });
            raced.count()
        };
        let [one, two] = racing_runs();
        // One shard: a completion cancels its timer in the same instant.
        assert_eq!(raced(&one), 0);
        // N shards: `Done` waits for the barrier, so a timer firing later
        // in the same window retries a completed attempt.
        assert!(raced(&two) > 0);
    }

    #[test]
    fn zero_requests_sharded_is_empty() {
        let config = sharded_config();
        let out = Cluster::new(&config).unwrap().run_sharded(0, 1, 4);
        assert_eq!(out.stats.completed, 0);
        assert!(out.trace.is_empty());
    }
}

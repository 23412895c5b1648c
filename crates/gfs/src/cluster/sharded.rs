//! The N-shard hosting of the GFS protocol: per-server-group shards, each
//! owning its own engine, advancing in lockstep time windows, with
//! cross-shard mail exchanged at the window barrier (see
//! [`kooza_sim::ShardedEngine`]).
//!
//! It hosts fault-free runs on ideal links only. A fault-injected or
//! rack-fabric configuration runs on one shard whatever shard count is
//! asked for: its crashes, timeouts and repairs would race the barrier, and
//! a fabric split across shards gives a rack one uplink per shard.
//!
//! # Roles
//!
//! Servers are split into contiguous *groups* ([`kooza_sim::shard_ranges`]);
//! shard `g` owns group `g`'s chunkservers. Shard 0 additionally runs the
//! control plane. Placement is *group-aligned* ([`Master::place_grouped`]):
//! every replica set lives inside one group, so write fanout never leaves
//! its shard — only client↔server hops (`Attempt`/`Done`) cross shard
//! boundaries.
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
//! hop lands at the next window boundary (DESIGN.md §11).
//!
//! The window width is derived from the configuration alone
//! (≈50 mean interarrival gaps, clamped to [0.2 ms, 20 ms]) so the
//! simulation — not the host — decides the barrier cadence.

use kooza_sim::{shard_ranges, ShardedEngine, SimDuration};

use super::shard::{self, Shard, ShardMsg};
use super::{Cluster, ClusterOutcome};
use crate::config::{ClusterConfig, Topology};
use crate::master::Master;

/// The default shard count for a cluster: one shard per ~8 chunkservers,
/// capped at 8 — small clusters (including [`ClusterConfig::small`]) stay
/// on one shard. Derived from the configuration only, never from the
/// host, so it gives the same simulation on every machine.
/// [`Cluster::run_sharded`] further clamps it.
pub fn default_shards(config: &ClusterConfig) -> usize {
    (config.n_chunkservers / 8).clamp(1, 8)
}

/// The shard count [`Cluster::run_sharded`] runs a request for `requested`
/// shards with: one for a fault-injected or rack-fabric configuration;
/// otherwise as many as asked, up to one group per full replica set
/// (`n_chunkservers / replication`), and at least one.
fn effective_shards(config: &ClusterConfig, requested: usize) -> usize {
    if config.faults.is_some() || config.topology != Topology::None {
        return 1;
    }
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
    /// docs). `shards` is clamped to one for a fault-injected or
    /// rack-fabric configuration, and so that every shard group holds a
    /// full replica set; a request that clamps to 1 is [`Cluster::run`].
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
    fn dispatches_land_at_the_next_window_boundary() {
        // A light read load: each attempt finds its server's ingress NIC
        // idle, so `network.in` ends one header transfer after the attempt
        // reached the server.
        let mut config = sharded_config();
        config.workload = WorkloadMix {
            mean_interarrival_secs: 1.0,
            ..WorkloadMix::read_heavy()
        };
        let width = window_width(&config).as_nanos();
        let header = crate::LinkModel::new(config.link).transfer(1024).as_nanos();
        for shards in [1, 4] {
            let out = Cluster::new(&config).unwrap().run_sharded(100, 3, shards);
            let ingress: Vec<_> = out
                .trace
                .spans
                .iter()
                .filter(|s| s.name == "network.in")
                .collect();
            assert_eq!(ingress.len(), 100);
            for span in ingress {
                let (sent, reached) = (span.start_nanos, span.end_nanos - header);
                // One shard delivers at once; N shards at the end of the
                // window the dispatch happened in.
                let expected = if shards == 1 {
                    sent
                } else {
                    (sent / width + 1) * width
                };
                assert_eq!(reached, expected, "{shards} shards, dispatch at {sent} ns");
            }
        }
    }

    #[test]
    fn faults_and_fabrics_run_on_one_shard() {
        let mut faulty = sharded_config();
        faulty.workload.mean_interarrival_secs = 0.05;
        faulty.faults =
            Some(FaultSpec::parse("mttf=3,mttr=0.5,timeout=0.4,retries=10,detect=0.1").unwrap());
        let mut rack = sharded_config();
        rack.topology = Topology::Rack {
            servers_per_rack: 3,
            oversub: 1.5,
        };
        for config in [faulty, rack] {
            assert_eq!(effective_shards(&config, 4), 1);
            let one = Cluster::new(&config).unwrap().run(400, 21);
            let four = Cluster::new(&config).unwrap().run_sharded(400, 21, 4);
            assert_eq!(one.trace, four.trace);
            assert_eq!(one.requests, four.requests);
            assert_eq!(one.stats.faults, four.stats.faults);
            let crashes = one.stats.faults.crashes;
            assert_eq!(crashes > 0, config.faults.is_some(), "{crashes} crashes");
        }
    }

    #[test]
    fn zero_requests_sharded_is_empty() {
        let config = sharded_config();
        let out = Cluster::new(&config).unwrap().run_sharded(0, 1, 4);
        assert_eq!(out.stats.completed, 0);
        assert!(out.trace.is_empty());
    }
}

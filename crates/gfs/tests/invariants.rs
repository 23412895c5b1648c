//! Invariant tests for the GFS simulator across randomized
//! configurations, on the deterministic in-repo `kooza-check` harness.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use kooza_check::gen::{choice, f64_range, u32_range, u64_range, usize_range, zip2, zip4, zip5};
use kooza_check::{checker, ensure, ensure_eq, PropResult};

use kooza_gfs::{
    Cluster, ClusterConfig, ClusterOutcome, FaultPlan, FaultSpec, GfsError, Topology,
    WorkloadMix, FAULT_HORIZON_SLACK_SECS, MAX_EXPECTED_WINDOWS,
};
use kooza_sim::SimDuration;
use kooza_trace::record::Direction;
use kooza_trace::Span;

/// The trace's spans are in the order the simulator records and sorts
/// them, rebuilt here from the outcome alone: each completed, sampled
/// request's spans in span id order, the requests in completion order
/// (the order of `out.requests`), then a stable sort by (start, span id).
/// Spans that tie on (start, span id) therefore keep completion order.
fn spans_in_completion_order(out: &ClusterOutcome) -> PropResult {
    let mut by_trace: HashMap<u64, Vec<Span>> = HashMap::new();
    for span in &out.trace.spans {
        by_trace.entry(span.trace_id.0).or_default().push(span.clone());
    }
    let mut expected = Vec::with_capacity(out.trace.spans.len());
    for r in out.requests.iter().filter(|r| r.sampled && !r.failed) {
        let mut spans = by_trace.remove(&r.id).unwrap_or_default();
        spans.sort_by_key(|s| s.span_id);
        expected.extend(spans);
    }
    let orphans = by_trace.len();
    ensure!(orphans == 0, "spans of {orphans} traces with no completed, sampled request");
    expected.sort_by_key(|s| (s.start_nanos, s.span_id));
    ensure!(expected == out.trace.spans, "span order is not completion order stably sorted");
    Ok(())
}

/// Conservation and well-formedness across random workloads: every
/// request completes exactly once, record counts line up, span trees
/// are valid, and timestamps are within the makespan.
#[test]
fn conservation_and_wellformedness() {
    checker("conservation_and_wellformedness").cases(24).run(
        zip5(
            u64_range(0, 10_000),      // seed
            u32_range(0, 101),         // read_pct
            u64_range(1, 5_000),       // n_chunks
            u32_range(5, 15),          // zipf_x10
            choice(vec![1u32, 7, 50]), // sampling
        ),
        |&(seed, read_pct, n_chunks, zipf_x10, sampling)| {
            let n_requests = 300u64;
            let mut config = ClusterConfig::small();
            config.trace_sampling = sampling;
            config.workload = WorkloadMix {
                read_fraction: f64::from(read_pct) / 100.0,
                n_chunks,
                zipf_skew: f64::from(zipf_x10) / 10.0,
                // Keep load stable regardless of mix.
                mean_interarrival_secs: 0.1,
                ..WorkloadMix::mixed()
            };
            let mut cluster = Cluster::new(&config).unwrap();
            let outcome = cluster.run(n_requests, seed);

            // Conservation.
            ensure_eq!(outcome.stats.completed, n_requests);
            ensure_eq!(outcome.requests.len(), n_requests as usize);
            ensure_eq!(outcome.trace.cpu.len(), n_requests as usize);
            // One ingress + one egress per request.
            ensure_eq!(outcome.trace.network.len(), 2 * n_requests as usize);
            // Memory touched exactly once per request.
            ensure_eq!(outcome.trace.memory.len(), n_requests as usize);
            // Disk at most once per request (cache hits skip it).
            ensure!(outcome.trace.storage.len() <= n_requests as usize, "extra disk records");

            // Latencies positive; utilizations in range.
            for r in &outcome.requests {
                ensure!(r.latency_nanos > 0, "request with zero latency");
            }
            for u in outcome
                .stats
                .cpu_utilization
                .iter()
                .chain(&outcome.stats.disk_utilization)
            {
                ensure!((0.0..=1.0 + 1e-9).contains(u), "utilization {u}");
            }

            // Span trees valid and only for sampled requests.
            let sampled = outcome.requests.iter().filter(|r| r.sampled).count();
            let trees = outcome.trace.span_trees();
            ensure_eq!(trees.len(), sampled);
            let makespan_nanos = (outcome.stats.makespan_secs * 1e9) as u64 + 1;
            for tree in &trees {
                ensure!(tree.root().name == "request", "root span is {}", tree.root().name);
                ensure!(tree.root().end_nanos <= makespan_nanos, "span past makespan");
                let phases = tree.phase_sequence();
                ensure!(
                    phases.first().map(|p| *p == "network.in").unwrap_or(false),
                    "first phase {phases:?}"
                );
                ensure!(
                    phases.last().map(|p| *p == "network.out").unwrap_or(false),
                    "last phase {phases:?}"
                );
            }
            spans_in_completion_order(&outcome)
        },
    );
}

/// Replication factor never changes the number of completed requests
/// or loses trace records.
#[test]
fn replication_conserves_requests() {
    checker("replication_conserves_requests").cases(24).run(
        zip2(choice(vec![1usize, 2, 3]), u64_range(0, 1000)),
        |&(replication, seed)| {
            let mut config = ClusterConfig::cluster(3);
            config.replication = replication;
            config.workload = WorkloadMix::write_heavy();
            config.workload.mean_interarrival_secs = 0.3;
            let mut cluster = Cluster::new(&config).unwrap();
            let outcome = cluster.run(100, seed);
            ensure_eq!(outcome.stats.completed, 100);
            ensure_eq!(outcome.trace.storage.len(), 100); // primary writes only
            Ok(())
        },
    );
}

/// Every request id in `0..n` resolves exactly once, completed or failed.
fn resolves_once(out: &ClusterOutcome, n: u64) -> PropResult {
    ensure_eq!(out.stats.completed + out.stats.faults.requests_failed, n);
    let mut ids: Vec<u64> = out.requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ensure!(ids.iter().copied().eq(0..n), "ids resolved other than once each: {ids:?}");
    Ok(())
}

/// `server_of` names a chunkserver for every request, and its histogram
/// is the per-server load the stats report.
fn server_map_matches_load(out: &ClusterOutcome, n_servers: usize, n: u64) -> PropResult {
    ensure_eq!(out.server_of.len(), n as usize);
    let mut load = vec![0u64; n_servers];
    for &server in &out.server_of {
        ensure!(server < n_servers, "server {server} out of range (< {n_servers})");
        load[server] += 1;
    }
    ensure_eq!(load, out.stats.requests_per_server);
    Ok(())
}

/// Serializes thread-override sweeps: the override is process-global and
/// this binary's tests run concurrently.
static THREAD_SWEEP: Mutex<()> = Mutex::new(());

/// `run_sharded` at thread override 1 and then 2; restores the override
/// it found.
fn sharded_at_one_and_two_threads(
    config: &ClusterConfig,
    n: u64,
    seed: u64,
    shards: usize,
) -> [ClusterOutcome; 2] {
    let _turn = THREAD_SWEEP.lock().unwrap_or_else(PoisonError::into_inner);
    let saved = kooza_exec::thread_override();
    let runs = [1, 2].map(|threads| {
        kooza_exec::set_thread_override(Some(threads));
        Cluster::new(config).unwrap().run_sharded(n, seed, shards)
    });
    kooza_exec::set_thread_override(saved);
    runs
}

/// Station utilizations are fractions, and the CPU busy time they
/// integrate to over the makespan is the busy time the run billed: equal
/// on a fault-free run, and at most the billed time under faults, since
/// jobs lost at a crash are billed but never served.
fn utilization_matches_billed_busy(config: &ClusterConfig, out: &ClusterOutcome) -> PropResult {
    let stats = &out.stats;
    for u in stats.cpu_utilization.iter().chain(&stats.disk_utilization) {
        ensure!((0.0..=1.0).contains(u), "utilization {u} outside [0, 1]");
    }
    let cores = config.cpu.cores as f64;
    let integrated: f64 =
        stats.cpu_utilization.iter().map(|u| u * stats.makespan_secs * cores).sum();
    let billed = stats.total_cpu_busy_secs;
    ensure!(
        integrated <= billed * (1.0 + 1e-9),
        "integrated CPU busy {integrated} s exceeds billed {billed} s"
    );
    if config.faults.is_none() {
        ensure!(
            (integrated - billed).abs() <= 1e-9 * billed,
            "integrated CPU busy {integrated} s differs from billed {billed} s"
        );
    }
    Ok(())
}

/// Runs one configuration on `shards` shards and through both one-shard
/// entry points: every hosting returns and resolves every request once,
/// maps every request to a chunkserver consistently with its stats,
/// integrates its CPU utilization to its billed busy time, the sharded
/// run is the same at 1 and 2 threads, and `run` and `run_sharded(.., 1)`
/// are the same simulation. A fault-injected or rack-fabric configuration
/// runs on one shard whatever the count asked for, so there `run` equals
/// `run_sharded(.., shards)` too.
fn hostings_agree(config: &ClusterConfig, n: u64, seed: u64, shards: usize) -> PropResult {
    let [sharded, two_threads] = sharded_at_one_and_two_threads(config, n, seed, shards);
    resolves_once(&sharded, n)?;
    server_map_matches_load(&sharded, config.n_chunkservers, n)?;
    utilization_matches_billed_busy(config, &sharded)?;
    spans_in_completion_order(&sharded)?;
    ensure!(sharded.trace == two_threads.trace, "traces differ at 1 and 2 threads");
    ensure_eq!(sharded.requests, two_threads.requests);
    ensure_eq!(sharded.server_of, two_threads.server_of);
    ensure_eq!(format!("{:?}", sharded.stats), format!("{:?}", two_threads.stats));
    let one = Cluster::new(config).unwrap().run(n, seed);
    resolves_once(&one, n)?;
    server_map_matches_load(&one, config.n_chunkservers, n)?;
    utilization_matches_billed_busy(config, &one)?;
    spans_in_completion_order(&one)?;
    let via_sharded = Cluster::new(config).unwrap().run_sharded(n, seed, 1);
    ensure!(one.trace == via_sharded.trace, "run and run_sharded(.., 1) traces differ");
    ensure_eq!(one.requests, via_sharded.requests);
    if config.faults.is_some() || config.topology != Topology::None {
        ensure!(
            one.trace == sharded.trace,
            "run and run_sharded(.., {shards}) traces differ"
        );
        ensure_eq!(one.requests, sharded.requests);
        ensure_eq!(format!("{:?}", one.stats), format!("{:?}", sharded.stats));
    }
    Ok(())
}

/// Both hostings resolve every request exactly once across cluster size,
/// shard count, topology and fault injection.
#[test]
fn every_hosting_resolves_every_request_once() {
    checker("every_hosting_resolves_every_request_once").cases(12).run(
        zip5(
            choice(vec![3usize, 6, 9, 12]), // servers
            choice(vec![1usize, 2, 4]),     // shards
            choice(vec![false, true]),      // rack topology
            choice(vec![false, true]),      // faults
            u64_range(0, 1_000),            // seed
        ),
        |&(servers, shards, rack, faults, seed)| {
            let mut config = ClusterConfig::cluster(servers);
            config.workload = WorkloadMix::mixed();
            if rack {
                config.topology = Topology::Rack { servers_per_rack: 3, oversub: 1.5 };
            }
            if faults {
                let spec = "mttf=3,mttr=0.5,timeout=0.4,retries=10,detect=0.1";
                config.faults = Some(FaultSpec::parse(spec).unwrap());
            }
            hostings_agree(&config, 300, seed, shards)
        },
    );
}

/// Tay's utilization law on rack uplinks: a rack's egress throughput is at
/// most its uplink's capacity. Twelve servers sit in racks of 4 at
/// oversubscription 4, so each uplink carries one host link's bandwidth,
/// and 64 KB reads of 16 cache-resident chunks arrive far faster than the
/// three uplinks drain them, so every rack runs saturated. Asked for on 4
/// shards, whose server groups each straddle two racks, the run must still
/// give each rack one uplink. A rack's throughput is its requests' egress
/// bytes over the time from its first egress record to its last
/// completion (ingress timestamp plus latency).
#[test]
fn saturated_racks_run_at_their_uplink_capacity() {
    let mut config = ClusterConfig::cluster(12);
    config.topology = Topology::Rack {
        servers_per_rack: 4,
        oversub: 4.0,
    };
    config.workload = WorkloadMix {
        n_chunks: 16,
        mean_interarrival_secs: 50e-6,
        ..WorkloadMix::read_heavy()
    };
    let uplink = config.link.bandwidth_bytes_per_sec;
    for seed in 1..=3 {
        let out = Cluster::new(&config).unwrap().run_sharded(2_000, seed, 4);
        let rack_of = |id: u64| out.server_of[id as usize] / 4;
        // Per rack: egress bytes, first egress record, last completion.
        let mut racks = [(0u64, u64::MAX, 0u64); 3];
        let mut arrival = HashMap::new();
        for rec in &out.trace.network {
            match rec.direction {
                Direction::Ingress => {
                    arrival.insert(rec.request_id, rec.ts_nanos);
                }
                Direction::Egress => {
                    let rack = &mut racks[rack_of(rec.request_id)];
                    rack.0 += rec.size;
                    rack.1 = rack.1.min(rec.ts_nanos);
                }
            }
        }
        for r in &out.requests {
            let rack = &mut racks[rack_of(r.id)];
            rack.2 = rack.2.max(arrival[&r.id] + r.latency_nanos);
        }
        for (rack, &(bytes, first, last)) in racks.iter().enumerate() {
            let throughput = bytes as f64 / ((last - first) as f64 * 1e-9);
            let ratio = throughput / uplink;
            assert!(
                (ratio - 1.0).abs() <= 0.01,
                "seed {seed}: rack {rack} moved {ratio:.3}x its uplink's capacity"
            );
        }
    }
}

/// Span order as a fixed case with real ties: on `sim_ideal`'s cluster
/// shape, spans of different requests share a (start, span id), and the
/// ties keep completion order.
#[test]
fn tied_spans_keep_completion_order() {
    let mut config = ClusterConfig::cluster(64);
    config.workload = WorkloadMix {
        n_chunks: 20_000,
        mean_interarrival_secs: 0.5e-3,
        ..WorkloadMix::mixed()
    };
    let out = Cluster::new(&config).unwrap().run(1_000, 1);
    let ties = out
        .trace
        .spans
        .windows(2)
        .filter(|w| (w[0].start_nanos, w[0].span_id) == (w[1].start_nanos, w[1].span_id))
        .count();
    assert!(ties > 0, "no tied spans to order");
    if let Err(e) = spans_in_completion_order(&out) {
        panic!("{e:?}");
    }
}

/// Number of MTTF/MTTR classes [`extreme_mean`] draws from.
const MEAN_CLASSES: usize = 10;

/// An MTTF or MTTR from one corner of the domain: zero, negative, NaN,
/// ±infinite, subnormal, tiny, either side of the window cap, huge and the
/// largest finite value. `u` in `[0, 1)` picks the value within a class.
fn extreme_mean(class: usize, u: f64) -> f64 {
    match class {
        0 => 0.0,
        1 => -1.0 - 1e3 * u,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::from_bits(1 + (u * 1e6) as u64),
        6 => 10f64.powf(-300.0 + 297.0 * u),
        7 => 10f64.powf(-3.0 + 4.0 * u),
        8 => 10f64.powf(1.0 + 307.0 * u),
        _ => f64::MAX,
    }
}

/// Every fault spec is either rejected with a typed error or schedules a
/// plan within the window cap, so no spec can make plan generation, or
/// the down-window scans over the plan, grow without bound. Each case
/// sweeps every MTTF class against every MTTR class. The check allows
/// twice `MAX_EXPECTED_WINDOWS` per server, since the cap bounds the
/// expected count and a sampled plan scatters around it.
#[test]
fn fault_specs_are_rejected_or_bounded() {
    checker("fault_specs_are_rejected_or_bounded").run(
        zip4(f64_range(0.0, 1.0), f64_range(0.0, 1.0), usize_range(1, 5), u64_range(0, 1_000)),
        |&(u_mttf, u_mttr, servers, seed)| {
            for class in 0..MEAN_CLASSES * MEAN_CLASSES {
                let mttf_secs = extreme_mean(class / MEAN_CLASSES, u_mttf);
                let mttr_secs = extreme_mean(class % MEAN_CLASSES, u_mttr);
                let spec = FaultSpec { mttf_secs, mttr_secs, seed, ..FaultSpec::default() };
                if let Err(e) = spec.validate() {
                    ensure!(matches!(e, GfsError::InvalidConfig { field: "faults", .. }), "{e}");
                    continue;
                }
                let horizon = SimDuration::from_secs_f64(FAULT_HORIZON_SLACK_SECS);
                let plan = FaultPlan::generate(&spec, servers, horizon);
                for s in 0..servers {
                    let windows = plan.windows(s).len();
                    ensure!(
                        windows as f64 <= 2.0 * MAX_EXPECTED_WINDOWS,
                        "mttf {mttf_secs} s, mttr {mttr_secs} s: server {s} has {windows} windows"
                    );
                }
            }
            Ok(())
        },
    );
}

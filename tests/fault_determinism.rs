//! Fault-injection determinism regression: with a nonzero fault plan, the
//! per-request outcome log and the stripped `--obs` report must be
//! byte-identical whether the `kooza-exec` pool runs 1, 2 or 8 workers.
//!
//! The fault plan is generated with `Rng64::for_stream` keyed by the spec
//! seed, client retries consume a per-trial fault stream, and the fault
//! counters are published as commutative adds — so nothing about crashes,
//! failovers, re-replication or degraded-disk slowdowns may depend on the
//! worker schedule.

use kooza::fault_drift;
use kooza_gfs::{Cluster, ClusterConfig, FaultSpec, WorkloadMix};
use kooza_obs::strip_nondeterministic;

const SEED: u64 = 4011;

fn faulty_config() -> ClusterConfig {
    let mut config = ClusterConfig::cluster(4);
    config.workload = WorkloadMix {
        mean_interarrival_secs: 0.05,
        ..WorkloadMix::mixed()
    };
    config.faults = Some(
        FaultSpec::parse("mttf=2,mttr=0.5,timeout=0.3,retries=10,detect=0.1")
            .expect("valid fault spec"),
    );
    config
}

/// One instrumented pass: parallel fault-injected trials plus a
/// healthy-vs-faulty drift report. Returns `(outcome log, raw obs JSONL)`;
/// the log carries every per-request field the fault path touches.
fn instrumented_faulty_run() -> (String, String) {
    kooza_obs::global::enable();

    // Three trials of (requests, seed), each on its own cluster in a pool
    // worker.
    let config = faulty_config();
    let trials = [(400, SEED), (300, SEED + 1), (200, SEED + 2)];
    let outcomes = kooza_exec::par_map(&trials, |&(n_requests, seed)| {
        Cluster::new(&config)
            .expect("valid config")
            .run(n_requests, seed)
    });

    let mut log = String::new();
    for (&(_, seed), outcome) in trials.iter().zip(&outcomes) {
        for r in &outcome.requests {
            log += &format!(
                "{{\"trial\":{},\"id\":{},\"read\":{},\"size\":{},\"latency\":{},\
                 \"cpu\":{},\"cache\":{},\"retries\":{},\"faulted\":{},\"failed\":{}}}\n",
                seed,
                r.id,
                r.is_read,
                r.size,
                r.latency_nanos,
                r.cpu_busy_nanos,
                r.cache_hit,
                r.retries,
                r.faulted,
                r.failed,
            );
        }
        log += &format!(
            "trial {}: completed {} faults {:?}\n",
            seed, outcome.stats.completed, outcome.stats.faults,
        );
    }

    // The drift harness trains KOOZA on both a healthy and a faulty trace;
    // its rendered table pins the whole model pipeline under faults.
    let drift = fault_drift(
        &ClusterConfig::cluster(4),
        FaultSpec::parse("mttf=3,mttr=0.5,timeout=0.4,retries=10").expect("valid fault spec"),
        300,
        SEED + 3,
    )
    .expect("drift report");
    log += &drift.render();

    let report = kooza_obs::global::report().expect("enabled");
    kooza_obs::global::disable();
    (log, report.to_jsonl())
}

#[test]
fn fault_injected_runs_are_byte_identical_across_thread_counts() {
    // One #[test] drives all thread counts: the thread override and the
    // observability sink are process-global, so sweeping inside a single
    // test keeps this binary free of cross-test races.
    let mut results = Vec::new();
    for threads in [1usize, 2, 8] {
        kooza_exec::set_thread_override(Some(threads));
        let (log, raw) = instrumented_faulty_run();
        let stripped = strip_nondeterministic(&raw).expect("well-formed JSONL");
        results.push((threads, log, stripped));
    }
    kooza_exec::set_thread_override(None);

    let (_, log_ref, obs_ref) = &results[0];
    // The plan actually fired: retries and faulted requests in the log,
    // fault counters in the stripped report.
    assert!(log_ref.contains("\"faulted\":true"), "no request rode through a fault");
    assert!(log_ref.contains("\"retries\":"), "outcome log lacks retry counts");
    assert!(log_ref.contains("crashes:"), "outcome log lacks fault stats");
    for needle in [
        "gfs.fault.crashes",
        "gfs.fault.retries",
        "gfs.fault.failovers",
        "validate.fault_drift.cases",
        "\"fault_drift\"",
    ] {
        assert!(obs_ref.contains(needle), "stripped report lacks {needle}");
    }
    assert!(!obs_ref.contains("\"wall\""), "strip left wall-clock fields behind");

    for (threads, log, obs) in &results[1..] {
        assert_eq!(log, log_ref, "outcome log at {threads} threads diverged from serial");
        assert_eq!(obs, obs_ref, "stripped obs report at {threads} threads diverged");
    }
}

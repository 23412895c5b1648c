//! Fabric determinism regressions, two halves:
//!
//! 1. **Rack mode is deterministic.** With `--topology rack:4:2` enabled
//!    the full Table-1/Table-2 pipeline, the fault-injected outcome log
//!    and the stripped obs report are byte-identical across 1/2/8 exec
//!    workers — the shared fabric re-rates flows only at event times, so
//!    thread scheduling must not leak in. Rack runs are hosted on one
//!    shard whatever shard count is asked for, so there is no shard axis.
//! 2. **`--topology none` is the pre-fabric simulator.** The same
//!    pipeline with the default topology is compared byte-for-byte
//!    against golden fixtures generated at the commit *before* the
//!    fabric landed (`tests/fixtures/pre_fabric_*.golden`), healthy
//!    tables at one and at four shards. Fault runs are hosted on one
//!    shard too, so the fault log asked for on four shards must be the
//!    one-shard golden. Any drift in the legacy path — however the fabric
//!    code is refactored — fails this test.

use kooza::class::assemble_observations;
use kooza::crossexam::cross_examine;
use kooza::validate::validate;
use kooza::{InBreadthModel, InDepthModel, Kooza, ReplayConfig, WorkloadModel};
use kooza_gfs::{Cluster, ClusterConfig, FaultSpec, Topology, WorkloadMix};
use kooza_json::{to_string, Json};
use kooza_obs::strip_nondeterministic;
use kooza_sim::rng::Rng64;

const SEED: u64 = 7011;
const SHARD_COUNTS: [usize; 2] = [1, 4];
const RACK: Topology = Topology::Rack { servers_per_rack: 4, oversub: 2.0 };

/// Same cluster as `shard_determinism.rs` (and the golden fixtures),
/// with the topology injected.
fn sharded_config(topology: Topology) -> ClusterConfig {
    let mut config = ClusterConfig::cluster(12);
    config.workload = WorkloadMix {
        n_chunks: 400,
        ..WorkloadMix::mixed()
    };
    config.topology = topology;
    config
}

fn faulty_config(topology: Topology) -> ClusterConfig {
    let mut config = sharded_config(topology);
    config.workload.mean_interarrival_secs = 0.05;
    config.faults = Some(
        FaultSpec::parse("mttf=3,mttr=0.5,timeout=0.4,retries=10,detect=0.1")
            .expect("valid fault spec"),
    );
    config
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Table 2 at test scale (identical recipe to the fixture generator).
fn table2_json(topology: Topology, shards: usize) -> Json {
    let config = sharded_config(topology);
    let outcome = Cluster::new(&config).expect("config").run_sharded(500, SEED, shards);
    let observations = assemble_observations(&outcome.trace).expect("assembles");
    let model = Kooza::fit(&outcome.trace).expect("trains");
    let mut rng = Rng64::new(SEED + 1);
    let synthetic = model.generate(500, &mut rng);
    let report = validate(&model, &observations, &synthetic, ReplayConfig::from(&config));
    obj(vec![
        (
            "rows",
            Json::Array(
                report
                    .rows
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("subsystem", Json::str(r.subsystem)),
                            ("metric", Json::str(r.metric)),
                            ("original", Json::F64(r.original)),
                            ("synthetic", Json::F64(r.synthetic)),
                            ("variation", Json::F64(r.variation)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("max_feature_variation", Json::F64(report.max_feature_variation())),
        (
            "latency_variation",
            report.latency_variation().map(Json::F64).unwrap_or(Json::Null),
        ),
    ])
}

/// Table 1 at test scale (identical recipe to the fixture generator).
fn table1_json(topology: Topology, shards: usize) -> Json {
    let config = sharded_config(topology);
    let trace = Cluster::new(&config)
        .expect("config")
        .run_sharded(500, SEED + 2, shards)
        .trace;
    let observations = assemble_observations(&trace).expect("assembles");
    let kooza = Kooza::fit(&trace).expect("kooza");
    let inb = InBreadthModel::fit(&trace).expect("in-breadth");
    let ind = InDepthModel::fit(&trace).expect("in-depth");
    let table = cross_examine(
        &[&inb, &ind, &kooza],
        &observations,
        ReplayConfig::from(&config),
        500,
        SEED + 3,
    );
    Json::Array(
        table
            .rows
            .iter()
            .map(|r| {
                obj(vec![
                    ("model", Json::str(r.model.clone())),
                    ("feature_error", Json::F64(r.feature_error)),
                    ("latency_ks", Json::F64(r.latency_ks)),
                    ("parameter_count", Json::U64(r.parameter_count as u64)),
                ])
            })
            .collect(),
    )
}

fn tables(topology: Topology, shards: usize) -> String {
    to_string(&obj(vec![
        ("table2", table2_json(topology, shards)),
        ("table1", table1_json(topology, shards)),
    ]))
}

/// The per-request outcome log of a fault-injected sharded run
/// (identical recipe to the fixture generator).
fn faulty_log(topology: Topology, shards: usize) -> String {
    let config = faulty_config(topology);
    let outcome = Cluster::new(&config).expect("config").run_sharded(400, SEED + 4, shards);
    let mut log = String::new();
    for r in &outcome.requests {
        log += &format!(
            "{{\"id\":{},\"read\":{},\"size\":{},\"latency\":{},\"cpu\":{},\
             \"cache\":{},\"retries\":{},\"faulted\":{},\"failed\":{}}}\n",
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
        "completed {} faults {:?}\n",
        outcome.stats.completed, outcome.stats.faults,
    );
    log
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn fabric_runs_are_deterministic_and_legacy_path_matches_golden() {
    // One #[test] drives everything: the thread override and the obs
    // sink are process-global, so a single test keeps this binary free
    // of cross-test races.

    // Half 2 first (cheap): the default topology reproduces the golden
    // pre-fabric outputs byte-for-byte at both shard counts.
    for shards in SHARD_COUNTS {
        assert_eq!(
            tables(Topology::None, shards),
            fixture(&format!("pre_fabric_tables_s{shards}.golden")),
            "legacy tables at {shards} shard(s) drifted from the pre-fabric simulator"
        );
        assert_eq!(
            faulty_log(Topology::None, shards),
            fixture("pre_fabric_faultlog_s1.golden"),
            "legacy fault log asked for on {shards} shard(s) drifted from the one-shard golden"
        );
    }

    // Half 1: rack mode across thread counts.
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        kooza_exec::set_thread_override(Some(threads));
        kooza_obs::global::enable();
        let t = tables(RACK, 1);
        let log = faulty_log(RACK, 1);
        let raw = kooza_obs::global::report().expect("enabled").to_jsonl();
        kooza_obs::global::disable();
        let stripped = strip_nondeterministic(&raw).expect("well-formed JSONL");
        outputs.push((threads, t, log, stripped));
    }
    kooza_exec::set_thread_override(None);

    let (_, rack_tables, rack_log, obs_ref) = &outputs[0];
    assert!(rack_tables.contains("table2") && rack_tables.contains("latency_ks"));
    assert!(
        rack_log.contains("completed "),
        "outcome log lacks the summary line"
    );
    for needle in [
        "net.fabric.flows",
        "net.fabric.rerates",
        "net.fabric.link_utilization",
    ] {
        assert!(obs_ref.contains(needle), "stripped report lacks {needle}");
    }
    for (threads, t, log, obs) in &outputs[1..] {
        assert_eq!(
            t, rack_tables,
            "rack tables at {threads} threads diverged from serial"
        );
        assert_eq!(
            log, rack_log,
            "rack fault log at {threads} threads diverged from serial"
        );
        assert_eq!(
            obs, obs_ref,
            "rack obs at {threads} threads diverged from serial"
        );
    }

    // The fabric must actually change behavior: an oversubscribed rack
    // run cannot coincide with the ideal-link golden output.
    assert_ne!(
        rack_tables,
        &fixture("pre_fabric_tables_s1.golden"),
        "rack topology unexpectedly produced the ideal-link tables"
    );
    assert_ne!(
        rack_log,
        &fixture("pre_fabric_faultlog_s1.golden"),
        "rack topology unexpectedly produced the ideal-link fault log"
    );
}

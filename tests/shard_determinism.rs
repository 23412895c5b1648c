//! Sharded-execution determinism regression: for a fixed shard count, the
//! Table-1/Table-2 kooza-json pipeline fed by a sharded simulation and the
//! stripped `--obs` report must be byte-identical whether the `kooza-exec`
//! pool runs 1, 2 or 8 workers.
//!
//! This is the contract DESIGN.md's "Sharded execution" section states:
//! shards exchange messages at window barriers in canonical
//! `(time, shard, seq)` order, all randomness lives on the control shard,
//! and stepping the shards serially or on any number of pool workers
//! changes nothing observable. `shards = 1` additionally delegates to the
//! single-engine path, so the sweep pins sharded-1 == legacy for free.
//! Fault-injected runs are hosted on one shard whatever count is asked
//! for; `fault_determinism.rs` and `fabric_determinism.rs` pin them.

use kooza::class::assemble_observations;
use kooza::crossexam::cross_examine;
use kooza::validate::validate;
use kooza::{InBreadthModel, InDepthModel, Kooza, ReplayConfig, WorkloadModel};
use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
use kooza_json::{to_string, Json};
use kooza_obs::strip_nondeterministic;
use kooza_sim::rng::Rng64;

const SEED: u64 = 7011;
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// A cluster wide enough for four shard groups at replication 3.
fn sharded_config() -> ClusterConfig {
    let mut config = ClusterConfig::cluster(12);
    config.workload = WorkloadMix {
        n_chunks: 400,
        ..WorkloadMix::mixed()
    };
    config
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Table 2 at test scale, trained on a sharded simulation's trace.
fn table2_json(shards: usize) -> Json {
    let config = sharded_config();
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

/// Table 1 at test scale: the three model families cross-examined on a
/// sharded simulation's trace.
fn table1_json(shards: usize) -> Json {
    let config = sharded_config();
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

/// One full instrumented pass at a given shard count. Returns the
/// kooza-json pipeline output and the raw obs JSONL (the caller strips
/// it).
fn instrumented_pass(shards: usize) -> (String, String) {
    kooza_obs::global::enable();
    let tables = to_string(&obj(vec![
        ("table2", table2_json(shards)),
        ("table1", table1_json(shards)),
    ]));
    let report = kooza_obs::global::report().expect("enabled");
    kooza_obs::global::disable();
    (tables, report.to_jsonl())
}

#[test]
fn sharded_runs_are_byte_identical_across_thread_counts() {
    // One #[test] drives the whole sweep: the thread override and the
    // observability sink are process-global, so a single test keeps this
    // binary free of cross-test races. The grid is threads x shards x
    // {tables, stripped obs}; outputs must agree across thread counts for
    // each fixed shard count (different shard counts are different —
    // documented — simulations).
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        kooza_exec::set_thread_override(Some(threads));
        for shards in SHARD_COUNTS {
            let (tables, raw) = instrumented_pass(shards);
            let stripped = strip_nondeterministic(&raw).expect("well-formed JSONL");
            outputs.push((threads, shards, tables, stripped));
        }
    }
    kooza_exec::set_thread_override(None);

    for &reference_shards in &SHARD_COUNTS {
        let (_, _, tables_ref, obs_ref) = outputs
            .iter()
            .find(|(t, s, ..)| *t == 1 && *s == reference_shards)
            .expect("serial reference ran");
        assert!(tables_ref.contains("table2") && tables_ref.contains("latency_ks"));
        if reference_shards > 1 {
            for needle in ["sim.shard.shards", "sim.shard.windows", "sim.shard.messages"] {
                assert!(obs_ref.contains(needle), "stripped report lacks {needle}");
            }
        }
        assert!(!obs_ref.contains("\"wall\""), "strip left wall-clock fields behind");

        for (threads, shards, tables, obs) in &outputs {
            if *shards != reference_shards || *threads == 1 {
                continue;
            }
            assert_eq!(
                tables, tables_ref,
                "tables at {threads} threads, {shards} shards diverged from serial"
            );
            assert_eq!(
                obs, obs_ref,
                "stripped obs at {threads} threads, {shards} shards diverged from serial"
            );
        }
    }

    // Different shard counts are genuinely different simulations (grouped
    // placement, windowed hops): the sweep would be vacuous if 1 == 4.
    let (_, _, t1, ..) = outputs.iter().find(|(t, s, ..)| *t == 1 && *s == 1).unwrap();
    let (_, _, t4, ..) = outputs.iter().find(|(t, s, ..)| *t == 1 && *s == 4).unwrap();
    assert_ne!(t1, t4, "sharded execution unexpectedly matched the single engine");
}

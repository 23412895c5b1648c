//! Observability determinism regression: the `--obs` report, with its
//! wall-clock fields stripped, must be byte-identical whether the
//! `kooza-exec` pool runs 1, 2 or 8 workers.
//!
//! This is the contract DESIGN.md's "Observability" section states: stage
//! trees, counters, gauges and histograms describe the *work*, not the
//! schedule. Only the clearly-marked `wall` fields (and the whole `meta`
//! and `pool` lines) may vary run-to-run — and `strip_nondeterministic`
//! removes exactly those.

use kooza::class::assemble_observations;
use kooza::crossexam::cross_examine;
use kooza::validate::validate;
use kooza::{Kooza, KoozaFleet, ReplayConfig, WorkloadModel};
use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
use kooza_obs::strip_nondeterministic;
use kooza_sim::rng::Rng64;

const SEED: u64 = 2011;

/// An instrumented end-to-end run: simulate, train (single model and
/// fleet), generate, validate, cross-examine — every stage span and
/// metric family the workspace emits, including pool profiles from the
/// parallel fan-outs.
fn instrumented_run() -> String {
    kooza_obs::global::enable();

    let mut config = ClusterConfig::small();
    config.workload = WorkloadMix {
        n_chunks: 120,
        ..WorkloadMix::mixed()
    };
    let outcome = Cluster::new(&config).expect("config").run(600, SEED);
    let observations = assemble_observations(&outcome.trace).expect("assembles");
    let model = Kooza::fit(&outcome.trace).expect("trains");
    let mut rng = Rng64::new(SEED + 1);
    let synthetic = model.generate(600, &mut rng);
    let _report = validate(&model, &observations, &synthetic, ReplayConfig::from(&config));
    let _table = cross_examine(
        &[&model],
        &observations,
        ReplayConfig::from(&config),
        600,
        SEED + 2,
    );

    let mut fleet_config = ClusterConfig::cluster(3);
    fleet_config.workload = WorkloadMix {
        read_fraction: 1.0,
        mean_interarrival_secs: 0.01,
        n_chunks: 4000,
        zipf_skew: 0.8,
        ..WorkloadMix::read_heavy()
    };
    let fleet_outcome = Cluster::new(&fleet_config).expect("config").run(2000, SEED + 3);
    let fleet = KoozaFleet::fit(&fleet_outcome).expect("fleet");
    let mut fleet_rng = Rng64::new(SEED + 4);
    let _streams = fleet.generate_per_server(100, &mut fleet_rng);

    let report = kooza_obs::global::report().expect("enabled");
    kooza_obs::global::disable();
    report.to_jsonl()
}

#[test]
fn stripped_obs_report_is_byte_identical_across_thread_counts() {
    // One #[test] drives all thread counts: both the thread override and
    // the observability sink are process-global, so sweeping inside a
    // single test keeps this binary free of cross-test races.
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        kooza_exec::set_thread_override(Some(threads));
        let raw = instrumented_run();
        let stripped = strip_nondeterministic(&raw).expect("well-formed JSONL");
        outputs.push((threads, raw, stripped));
    }
    kooza_exec::set_thread_override(None);

    let (_, raw, reference) = &outputs[0];
    // The report actually contains the instrumentation, raw and stripped.
    for needle in ["\"train\"", "\"generate\"", "\"replay\"", "\"validate\"",
        "\"crossexam\"", "\"fleet.train\"", "\"fleet.generate\"",
        "validate.cases", "gfs.requests_completed", "replay.latency_nanos"]
    {
        assert!(reference.contains(needle), "stripped report lacks {needle}");
    }
    assert!(raw.contains("\"kind\":\"pool\""), "raw report lacks pool profiles");
    assert!(!reference.contains("\"wall\""), "strip left wall-clock fields behind");

    for (threads, _, stripped) in &outputs[1..] {
        assert_eq!(
            stripped, reference,
            "stripped obs report at {threads} threads diverged from serial"
        );
    }
}

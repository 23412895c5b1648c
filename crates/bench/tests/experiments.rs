//! Every experiment binary prints exactly its committed stdout.
//!
//! `tests/fixtures/<bin>.stdout` holds each binary's output. The output
//! is the same at any thread count and in debug and release builds, so
//! any difference is a change in what the experiment computes. A change
//! that alters an experiment on purpose regenerates its fixture:
//!
//! ```text
//! cargo run --release -p kooza-bench --bin <bin> > crates/bench/tests/fixtures/<bin>.stdout
//! ```

use std::process::Command;

/// Runs `exe` and compares its stdout with `expected`.
fn prints_its_fixture(bin: &str, exe: &str, expected: &[u8]) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(out.status.success(), "{bin} exited with {}", out.status);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(expected),
        "{bin} stdout differs from tests/fixtures/{bin}.stdout"
    );
}

macro_rules! experiments {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            prints_its_fixture(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                include_bytes!(concat!("fixtures/", stringify!($bin), ".stdout")),
            );
        }
    )*};
}

experiments!(
    fig1_gfs_structure,
    fig2_model_structure,
    table1_cross_examination,
    table2_validation,
    exp_arrival_fitting,
    exp_surge_vs_infinite,
    exp_memory_hmm,
    exp_clustering_acf,
    exp_sqs_scaling,
    exp_dapper_overhead,
    exp_structure_ablation,
    exp_pca_reduction,
    exp_fleet_scaling,
    exp_granularity,
    exp_incast_fabric,
);

//! TAB1 — Qualitative comparison between in-breadth, in-depth and KOOZA,
//! scored quantitatively.
//!
//! The paper's Table 1 assigns checkmarks; this harness *measures* the two
//! load-bearing columns on a common workload (mixed reads/writes over a
//! warm working set, where both cross-subsystem correlations and cache
//! structure matter):
//!
//! * Request features — mean relative error of per-subsystem feature means;
//! * Time dependencies — KS distance between original and replayed
//!   synthetic latency distributions;
//!
//! and reports parameter counts (the paper's "Ease-of-Use =
//! f(Model Complexity)") plus the derived completeness column.

use kooza::class::assemble_observations;
use kooza::crossexam::cross_examine;
use kooza::kooza::KoozaOptions;
use kooza::{InBreadthModel, InDepthModel, Kooza, ReplayConfig};
use kooza_bench::{banner, mixed_cluster, run, section, EXPERIMENT_SEED};

fn main() {
    banner("TAB1", "Cross-examination of in-breadth, in-depth and KOOZA");

    let (config, mut cluster) = mixed_cluster();
    let outcome = run(&mut cluster, 2000);
    let observations = assemble_observations(&outcome.trace).expect("trace assembles");

    let kooza =
        Kooza::fit_observations(&observations, KoozaOptions::default()).expect("kooza trains");
    let inbreadth = InBreadthModel::fit_observations(&observations).expect("in-breadth trains");
    let indepth = InDepthModel::fit_observations(&observations).expect("in-depth trains");

    let table = cross_examine(
        &[&inbreadth, &indepth, &kooza],
        &observations,
        ReplayConfig::from(&config),
        2000,
        EXPERIMENT_SEED + 2,
    );

    section("measured Table 1");
    print!("{}", table.render());

    section("paper's qualitative Table 1 (for comparison)");
    println!("{:<12} {:>16} {:>14} {:>13}", "Model", "RequestFeatures", "TimeDeps", "Completeness");
    println!("{:<12} {:>16} {:>14} {:>13}", "in-breadth", "✓", "✗", "✗");
    println!("{:<12} {:>16} {:>14} {:>13}", "in-depth", "✗", "✓", "✗");
    println!("{:<12} {:>16} {:>14} {:>13}", "kooza", "✓", "✓", "✓");
    println!();
    println!(
        "note: on this cache-warm workload the in-breadth model's disk\n\
         overshoot (it cannot see cache hits without structure) degrades\n\
         its measured feature fidelity too — the paper's §3.1 'invalid\n\
         stressing of the system', quantified."
    );
}

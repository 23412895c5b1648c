//! Trace characterization: the in-breadth toolbox applied to a raw trace.
//!
//! Runs the full characterization pipeline of the surveyed literature on a
//! simulated GFS trace: per-subsystem profiles (Gulati-style storage
//! features, Abrahao-style CPU pattern classes), arrival-distribution
//! fitting with KS ranking (Feitelson), burstiness and self-similarity
//! measures.
//!
//! Run with: `cargo run --example trace_characterization`

use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
use kooza_stats::fit::FitPipeline;
use kooza_stats::hurst::hurst_aggregated_variance;
use kooza_trace::characterize::{arrival_profile, cpu_profile, memory_profile, storage_profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ClusterConfig::small();
    config.workload = WorkloadMix::mixed();
    let outcome = Cluster::new(&config)?.run(3000, 9);
    let trace = &outcome.trace;

    println!("== storage profile (Gulati et al. feature set) ==");
    let sp = storage_profile(&trace.storage)?;
    println!("I/Os: {}", sp.count);
    println!("read fraction: {:.2}", sp.read_fraction);
    println!("mean size: {:.0} B", sp.mean_size);
    println!("sequential fraction: {:.3}", sp.sequential_fraction);
    if let Some(seek) = &sp.seek_distance {
        println!("seek distance: mean {:.0} LBNs, p95 {:.0}", seek.mean, seek.p95);
    }

    println!("\n== CPU profile (Abrahao et al. pattern classes) ==");
    let cp = cpu_profile(&trace.cpu)?;
    println!(
        "utilization: mean {:.2}%, p99 {:.2}%",
        cp.utilization.mean * 100.0,
        cp.utilization.p99 * 100.0
    );
    println!("pattern: {:?} (period lag: {:?})", cp.pattern, cp.period_lag);

    println!("\n== memory profile ==");
    let mp = memory_profile(&trace.memory)?;
    println!("accesses: {}, read fraction {:.2}", mp.count, mp.read_fraction);
    println!("same-bank locality: {:.3}", mp.same_bank_fraction);
    println!("bank counts: {:?}", mp.bank_counts);

    println!("\n== arrival profile + distribution fitting (Feitelson) ==");
    let ap = arrival_profile(&trace.network)?;
    println!("arrivals: {} at {:.1} req/s", ap.count, ap.rate_per_sec);
    println!("burstiness cv²: {:.2}", ap.burstiness_cv2.unwrap_or(f64::NAN));
    let report = FitPipeline::timing().run(&ap.interarrivals)?;
    println!("KS-ranked inter-arrival fits:");
    for entry in report.entries() {
        println!(
            "  {:<12} D = {:.4}  p = {:.4}  mean-LL = {:.2}",
            entry.family,
            entry.ks.statistic,
            entry.ks.p_value,
            entry.dist.mean_log_likelihood(&ap.interarrivals)
        );
    }

    // Self-similarity of the arrival counts.
    let window = 0.1;
    let mut counts = vec![
        0.0f64;
        (ap.interarrivals.iter().sum::<f64>() / window).ceil() as usize + 1
    ];
    let mut t = 0.0;
    for gap in &ap.interarrivals {
        t += gap;
        let idx = (t / window) as usize;
        if idx < counts.len() {
            counts[idx] += 1.0;
        }
    }
    if counts.len() >= 64 {
        println!(
            "\nHurst exponent of arrival counts (aggregated variance): {:.3}",
            hurst_aggregated_variance(&counts)?
        );
        println!("(≈0.5 = short-range dependence; this workload uses Poisson arrivals)");
    }
    Ok(())
}

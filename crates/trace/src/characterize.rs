//! Per-subsystem workload characterization.
//!
//! These are the trace-derived feature profiles the in-breadth literature
//! builds its models from: Gulati et al.'s storage features (seek distance,
//! I/O sizes, read:write ratio, outstanding I/Os), Feitelson's arrival
//! features (inter-arrival distribution, burstiness), and Abrahao et al.'s
//! CPU pattern classes (periodic, noisy, spiky).

use kooza_stats::acf::acf;
use kooza_stats::summary::{burstiness_cv2, Summary};

use crate::record::{CpuRecord, Direction, IoOp, MemoryRecord, NetworkRecord, StorageRecord};
use crate::{Result, TraceError};

/// Storage workload profile (Gulati et al.'s feature set).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageProfile {
    /// Number of I/Os.
    pub count: usize,
    /// Fraction of reads in `[0, 1]`.
    pub read_fraction: f64,
    /// Mean request size in bytes.
    pub mean_size: f64,
    /// Summary of absolute seek distances (LBN deltas between successive I/Os).
    pub seek_distance: Option<Summary>,
    /// Fraction of sequential accesses (seek distance ≤ previous size in blocks).
    pub sequential_fraction: f64,
    /// Summary of inter-arrival times in seconds.
    pub interarrival: Option<Summary>,
}

/// Characterizes a storage trace.
///
/// # Errors
///
/// Returns [`TraceError::Empty`] for an empty trace.
pub fn storage_profile(records: &[StorageRecord]) -> Result<StorageProfile> {
    if records.is_empty() {
        return Err(TraceError::Empty("storage records"));
    }
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|r| r.ts_nanos);
    let reads = sorted.iter().filter(|r| r.op == IoOp::Read).count();
    let mean_size =
        sorted.iter().map(|r| r.size as f64).sum::<f64>() / sorted.len() as f64;
    let seeks: Vec<f64> = sorted
        .windows(2)
        .map(|w| (w[1].lbn as i64 - w[0].lbn as i64).unsigned_abs() as f64)
        .collect();
    let sequential = sorted
        .windows(2)
        .filter(|w| {
            let end = w[0].lbn + w[0].size.div_ceil(512).max(1);
            w[1].lbn >= w[0].lbn && w[1].lbn <= end
        })
        .count();
    // saturating_sub: the sort makes underflow impossible today, but this
    // is the canonical interarrival computation — keep it panic-free even
    // if the sort above is ever reordered or removed.
    let gaps: Vec<f64> = sorted
        .windows(2)
        .map(|w| w[1].ts_nanos.saturating_sub(w[0].ts_nanos) as f64 / 1e9)
        .collect();
    Ok(StorageProfile {
        count: sorted.len(),
        read_fraction: reads as f64 / sorted.len() as f64,
        mean_size,
        seek_distance: if seeks.is_empty() { None } else { Some(Summary::of(&seeks).unwrap()) },
        sequential_fraction: if sorted.len() < 2 {
            0.0
        } else {
            sequential as f64 / (sorted.len() - 1) as f64
        },
        interarrival: if gaps.is_empty() { None } else { Some(Summary::of(&gaps).unwrap()) },
    })
}

/// Network arrival profile (Feitelson's checklist inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProfile {
    /// Number of ingress events.
    pub count: usize,
    /// Mean request size in bytes.
    pub mean_size: f64,
    /// Inter-arrival times in seconds, time-ordered (input to distribution
    /// fitting).
    pub interarrivals: Vec<f64>,
    /// Squared coefficient of variation of inter-arrivals (1 = Poisson-like).
    pub burstiness_cv2: Option<f64>,
    /// Mean arrival rate in requests/second.
    pub rate_per_sec: f64,
}

/// Characterizes the ingress side of a network trace.
///
/// # Errors
///
/// Returns [`TraceError::Empty`] if there are no ingress records.
pub fn arrival_profile(records: &[NetworkRecord]) -> Result<ArrivalProfile> {
    let mut ingress: Vec<&NetworkRecord> = records
        .iter()
        .filter(|r| r.direction == Direction::Ingress)
        .collect();
    if ingress.is_empty() {
        return Err(TraceError::Empty("ingress network records"));
    }
    ingress.sort_by_key(|r| r.ts_nanos);
    let mean_size =
        ingress.iter().map(|r| r.size as f64).sum::<f64>() / ingress.len() as f64;
    let interarrivals: Vec<f64> = ingress
        .windows(2)
        .map(|w| w[1].ts_nanos.saturating_sub(w[0].ts_nanos) as f64 / 1e9)
        .collect();
    let span_secs = ingress
        .last()
        .unwrap()
        .ts_nanos
        .saturating_sub(ingress[0].ts_nanos) as f64
        / 1e9;
    let burstiness = burstiness_cv2(&interarrivals).ok();
    // A single record (or all records at one timestamp) has zero span;
    // reporting 0.0 would read downstream as "no traffic" for a trace
    // that plainly has some. Flooring the span at 1 ns — the trace clock
    // resolution — gives the largest rate the data can support instead.
    let rate_per_sec = if span_secs > 0.0 {
        (ingress.len() - 1) as f64 / span_secs
    } else {
        ingress.len() as f64 / 1e-9
    };
    Ok(ArrivalProfile {
        count: ingress.len(),
        mean_size,
        burstiness_cv2: burstiness,
        rate_per_sec,
        interarrivals,
    })
}

/// Abrahao et al.'s CPU utilization pattern classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuPattern {
    /// Strong autocorrelation peak at a non-trivial lag.
    Periodic,
    /// High p99/mean ratio: rare large excursions.
    Spiky,
    /// Neither: irregular moderate variation.
    Noisy,
}

/// CPU utilization profile with Abrahao-style pattern classification.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuProfile {
    /// Summary of utilization samples.
    pub utilization: Summary,
    /// Classified pattern.
    pub pattern: CpuPattern,
    /// Lag of the strongest autocorrelation peak, if periodic.
    pub period_lag: Option<usize>,
}

/// Characterizes a CPU-utilization sample series.
///
/// # Errors
///
/// Returns [`TraceError::Empty`] for an empty trace.
pub fn cpu_profile(records: &[CpuRecord]) -> Result<CpuProfile> {
    if records.is_empty() {
        return Err(TraceError::Empty("cpu records"));
    }
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|r| r.ts_nanos);
    let series: Vec<f64> = sorted.iter().map(|r| r.utilization).collect();
    let utilization = Summary::of(&series).map_err(|e| TraceError::MalformedTree(e.to_string()))?;

    // Spiky: p99 dwarfs the mean.
    let spiky = utilization.mean > 0.0 && utilization.p99 / utilization.mean.max(1e-9) > 4.0;

    // Periodic: an interior ACF peak above 0.4.
    let max_lag = (series.len() / 3).min(200);
    let mut period_lag = None;
    if max_lag >= 2 {
        if let Ok(r) = acf(&series, max_lag) {
            let mut best = (0usize, 0.0f64);
            for (lag, &v) in r.iter().enumerate().skip(2) {
                // Require a local maximum, not a decaying shoulder.
                if v > best.1 && v > r[lag - 1] {
                    best = (lag, v);
                }
            }
            if best.1 > 0.4 {
                period_lag = Some(best.0);
            }
        }
    }
    let pattern = if period_lag.is_some() {
        CpuPattern::Periodic
    } else if spiky {
        CpuPattern::Spiky
    } else {
        CpuPattern::Noisy
    };
    Ok(CpuProfile {
        utilization,
        pattern,
        period_lag,
    })
}

/// Memory access profile: bank popularity and locality.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryProfile {
    /// Number of accesses.
    pub count: usize,
    /// Fraction of reads.
    pub read_fraction: f64,
    /// Accesses per bank, indexed by bank id.
    pub bank_counts: Vec<u64>,
    /// Fraction of successive accesses hitting the same bank (temporal
    /// bank locality).
    pub same_bank_fraction: f64,
    /// Mean access size in bytes.
    pub mean_size: f64,
}

/// Characterizes a memory-access trace.
///
/// # Errors
///
/// Returns [`TraceError::Empty`] for an empty trace.
pub fn memory_profile(records: &[MemoryRecord]) -> Result<MemoryProfile> {
    if records.is_empty() {
        return Err(TraceError::Empty("memory records"));
    }
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|r| r.ts_nanos);
    let max_bank = sorted.iter().map(|r| r.bank).max().unwrap() as usize;
    let mut bank_counts = vec![0u64; max_bank + 1];
    for r in &sorted {
        bank_counts[r.bank as usize] += 1;
    }
    let reads = sorted.iter().filter(|r| r.op == IoOp::Read).count();
    let same_bank = sorted.windows(2).filter(|w| w[0].bank == w[1].bank).count();
    Ok(MemoryProfile {
        count: sorted.len(),
        read_fraction: reads as f64 / sorted.len() as f64,
        bank_counts,
        same_bank_fraction: if sorted.len() < 2 {
            0.0
        } else {
            same_bank as f64 / (sorted.len() - 1) as f64
        },
        mean_size: sorted.iter().map(|r| r.size as f64).sum::<f64>() / sorted.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage_rec(ts: u64, lbn: u64, size: u64, op: IoOp) -> StorageRecord {
        StorageRecord { ts_nanos: ts, lbn, size, op, request_id: 0 }
    }

    /// Generates a synthetic CPU-utilization sample series with a chosen
    /// Abrahao pattern class — the "recreate synthetic workloads with CPU
    /// utilization patterns that resemble those in the original application"
    /// half of that paper, closing the loop with `cpu_profile`'s classifier.
    ///
    /// * `Periodic` — a sinusoid with period `n / 10` samples plus light noise.
    /// * `Spiky` — a low floor with rare large excursions (~2% of samples).
    /// * `Noisy` — uniform jitter around a moderate level.
    ///
    /// Samples are spaced `interval_nanos` apart starting at 0 and clamped to
    /// `[0, 1]`.
    fn generate_cpu_pattern(
        pattern: CpuPattern,
        n: usize,
        interval_nanos: u64,
        rng: &mut kooza_sim::rng::Rng64,
    ) -> Vec<CpuRecord> {
        let period = (n as f64 / 10.0).max(4.0);
        (0..n)
            .map(|i| {
                let utilization = match pattern {
                    CpuPattern::Periodic => {
                        0.5 + 0.35 * (i as f64 * 2.0 * std::f64::consts::PI / period).sin()
                            + 0.03 * (rng.next_f64() - 0.5)
                    }
                    CpuPattern::Spiky => {
                        if rng.chance(0.02) {
                            0.85 + 0.1 * rng.next_f64()
                        } else {
                            0.02 + 0.02 * rng.next_f64()
                        }
                    }
                    CpuPattern::Noisy => 0.3 + 0.25 * rng.next_f64(),
                }
                .clamp(0.0, 1.0);
                CpuRecord {
                    ts_nanos: i as u64 * interval_nanos,
                    utilization,
                    busy_nanos: (utilization * interval_nanos as f64) as u64,
                    request_id: i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn storage_profile_sequential_run() {
        // Perfectly sequential 4 KB reads: 8 blocks apart.
        let recs: Vec<StorageRecord> = (0..100)
            .map(|i| storage_rec(i * 1000, i * 8, 4096, IoOp::Read))
            .collect();
        let p = storage_profile(&recs).unwrap();
        assert_eq!(p.count, 100);
        assert_eq!(p.read_fraction, 1.0);
        assert_eq!(p.mean_size, 4096.0);
        assert!(p.sequential_fraction > 0.99, "seq {}", p.sequential_fraction);
        assert_eq!(p.seek_distance.as_ref().unwrap().mean, 8.0);
    }

    #[test]
    fn storage_profile_random_pattern() {
        let mut rng = kooza_sim::rng::Rng64::new(1100);
        let recs: Vec<StorageRecord> = (0..200)
            .map(|i| {
                storage_rec(
                    i * 1000,
                    rng.next_bounded(1_000_000),
                    65536,
                    if rng.chance(0.3) { IoOp::Read } else { IoOp::Write },
                )
            })
            .collect();
        let p = storage_profile(&recs).unwrap();
        assert!(p.sequential_fraction < 0.05);
        assert!((p.read_fraction - 0.3).abs() < 0.1);
        assert!(p.seek_distance.unwrap().mean > 100_000.0);
    }

    #[test]
    fn storage_profile_empty_errors() {
        assert!(storage_profile(&[]).is_err());
    }

    #[test]
    fn arrival_profile_poisson_like() {
        use kooza_stats::dist::{Distribution, Exponential};
        let d = Exponential::new(1000.0).unwrap(); // 1000 req/s
        let mut rng = kooza_sim::rng::Rng64::new(1101);
        let mut t = 0.0f64;
        let recs: Vec<NetworkRecord> = (0..5000)
            .map(|i| {
                t += d.sample(&mut rng);
                NetworkRecord {
                    ts_nanos: (t * 1e9) as u64,
                    size: 64 * 1024,
                    direction: Direction::Ingress,
                    request_id: i,
                }
            })
            .collect();
        let p = arrival_profile(&recs).unwrap();
        assert_eq!(p.count, 5000);
        assert!((p.rate_per_sec - 1000.0).abs() / 1000.0 < 0.1, "rate {}", p.rate_per_sec);
        let b = p.burstiness_cv2.unwrap();
        assert!((b - 1.0).abs() < 0.2, "cv² {b}");
        assert_eq!(p.mean_size, 65536.0);
    }

    #[test]
    fn single_record_reports_positive_rate() {
        // Regression: one ingress record has zero span and used to report
        // rate_per_sec 0.0 — "no traffic" for a trace with traffic.
        let recs = vec![NetworkRecord {
            ts_nanos: 5_000,
            size: 4096,
            direction: Direction::Ingress,
            request_id: 0,
        }];
        let p = arrival_profile(&recs).unwrap();
        assert_eq!(p.count, 1);
        assert!(p.rate_per_sec > 0.0, "rate {}", p.rate_per_sec);
        assert!(p.rate_per_sec.is_finite());
        assert!(p.interarrivals.is_empty());
    }

    #[test]
    fn same_timestamp_records_report_positive_rate() {
        // Regression: all records sharing one timestamp is the other
        // zero-span shape — a burst the clock could not resolve, not an
        // idle trace.
        let recs: Vec<NetworkRecord> = (0..3)
            .map(|i| NetworkRecord {
                ts_nanos: 1_000_000,
                size: 100,
                direction: Direction::Ingress,
                request_id: i,
            })
            .collect();
        let p = arrival_profile(&recs).unwrap();
        assert_eq!(p.count, 3);
        assert!(p.rate_per_sec > 0.0, "rate {}", p.rate_per_sec);
        assert!(p.rate_per_sec.is_finite());
        assert_eq!(p.interarrivals, vec![0.0, 0.0]);
    }

    #[test]
    fn arrival_profile_ignores_egress() {
        let recs = vec![NetworkRecord {
            ts_nanos: 0,
            size: 10,
            direction: Direction::Egress,
            request_id: 0,
        }];
        assert!(arrival_profile(&recs).is_err());
    }

    fn cpu_series(values: &[f64]) -> Vec<CpuRecord> {
        values
            .iter()
            .enumerate()
            .map(|(i, &u)| CpuRecord {
                ts_nanos: i as u64 * 1_000_000,
                utilization: u,
                busy_nanos: (u * 1e6) as u64,
                request_id: i as u64,
            })
            .collect()
    }

    #[test]
    fn cpu_periodic_pattern_detected() {
        let values: Vec<f64> = (0..600)
            .map(|i| 0.5 + 0.4 * (i as f64 * 2.0 * std::f64::consts::PI / 24.0).sin())
            .collect();
        let p = cpu_profile(&cpu_series(&values)).unwrap();
        assert_eq!(p.pattern, CpuPattern::Periodic);
        let lag = p.period_lag.unwrap();
        assert!((20..=28).contains(&lag), "lag {lag}");
    }

    #[test]
    fn cpu_spiky_pattern_detected() {
        // Spikes at aperiodic positions — regular spacing would correctly
        // classify as periodic instead.
        let mut values = vec![0.02; 500];
        let mut rng = kooza_sim::rng::Rng64::new(1103);
        for _ in 0..6 {
            values[rng.next_bounded(500) as usize] = 0.9;
        }
        let p = cpu_profile(&cpu_series(&values)).unwrap();
        assert_eq!(p.pattern, CpuPattern::Spiky);
    }

    #[test]
    fn cpu_noisy_pattern_detected() {
        let mut rng = kooza_sim::rng::Rng64::new(1102);
        let values: Vec<f64> = (0..500).map(|_| 0.3 + 0.2 * rng.next_f64()).collect();
        let p = cpu_profile(&cpu_series(&values)).unwrap();
        assert_eq!(p.pattern, CpuPattern::Noisy);
        assert!(p.period_lag.is_none());
    }

    #[test]
    fn memory_profile_bank_locality() {
        // Runs of 10 accesses per bank → high same-bank fraction.
        let recs: Vec<MemoryRecord> = (0..200)
            .map(|i| MemoryRecord {
                ts_nanos: i as u64,
                bank: ((i / 10) % 4) as u32,
                size: 64,
                op: if i % 4 == 0 { IoOp::Write } else { IoOp::Read },
                request_id: 0,
            })
            .collect();
        let p = memory_profile(&recs).unwrap();
        assert_eq!(p.count, 200);
        assert_eq!(p.bank_counts.len(), 4);
        assert_eq!(p.bank_counts.iter().sum::<u64>(), 200);
        assert!(p.same_bank_fraction > 0.85, "same-bank {}", p.same_bank_fraction);
        assert!((p.read_fraction - 0.75).abs() < 1e-9);
    }

    #[test]
    fn profiles_error_on_empty() {
        assert!(cpu_profile(&[]).is_err());
        assert!(memory_profile(&[]).is_err());
        assert!(arrival_profile(&[]).is_err());
    }

    #[test]
    fn generator_and_classifier_close_the_loop() {
        // Abrahao round trip: every generated pattern class is recovered
        // by the classifier.
        let mut rng = kooza_sim::rng::Rng64::new(1104);
        for pattern in [CpuPattern::Periodic, CpuPattern::Spiky, CpuPattern::Noisy] {
            let records = generate_cpu_pattern(pattern, 600, 1_000_000, &mut rng);
            assert_eq!(records.len(), 600);
            let profile = cpu_profile(&records).unwrap();
            assert_eq!(profile.pattern, pattern, "generated {pattern:?}");
        }
    }

    #[test]
    fn generated_samples_are_valid() {
        let mut rng = kooza_sim::rng::Rng64::new(1105);
        let records = generate_cpu_pattern(CpuPattern::Spiky, 1000, 500_000, &mut rng);
        for (i, r) in records.iter().enumerate() {
            assert!((0.0..=1.0).contains(&r.utilization));
            assert_eq!(r.ts_nanos, i as u64 * 500_000);
            assert!(r.busy_nanos <= 500_000);
        }
    }
}

//! GWP-style continuous whole-machine profiling.
//!
//! Ren et al.'s Google-Wide Profiling "operates at a higher level [than
//! Dapper], sampling across machines ... collect\[ing\] high-level events
//! like job arrival rate, and task sizes and low-level system information
//! like CPU utilization". This module aggregates a [`TraceSet`] into a
//! fixed-window profile time series — the whole-machine view that feeds
//! trend analysis (and this workspace's CPU pattern classifier).

use crate::record::Direction;
use crate::{Result, TraceError, TraceSet};

/// One profiling window's whole-machine counters.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowProfile {
    /// Window start, nanoseconds.
    pub start_nanos: u64,
    /// Requests that arrived in the window.
    pub arrivals: u64,
    /// Arrival rate over the window, requests/second.
    pub arrival_rate_per_sec: f64,
    /// CPU busy fraction: attributed busy time / window length (can exceed
    /// 1 on multi-core machines).
    pub cpu_busy_fraction: f64,
    /// Ingress bytes.
    pub bytes_in: u64,
    /// Egress bytes.
    pub bytes_out: u64,
    /// Disk I/O operations.
    pub io_count: u64,
    /// Disk I/O bytes.
    pub io_bytes: u64,
    /// Memory traffic bytes.
    pub memory_bytes: u64,
}

/// The profile time series plus its window size.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSeries {
    /// Window length, nanoseconds.
    pub window_nanos: u64,
    /// Per-window profiles, time order; empty windows are present (zeroed).
    pub windows: Vec<WindowProfile>,
}

impl ProfileSeries {
    /// The arrival-rate series (one value per window) — the input GWP-style
    /// trend analysis and the Abrahao CPU pattern classifier consume.
    pub fn arrival_rates(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.arrival_rate_per_sec).collect()
    }

    /// The CPU busy-fraction series.
    pub fn cpu_series(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.cpu_busy_fraction).collect()
    }

    /// Peak-to-mean arrival-rate ratio across windows (a burstiness view).
    pub fn arrival_peak_to_mean(&self) -> f64 {
        let rates = self.arrival_rates();
        let mean = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
        let peak = rates.iter().cloned().fold(0.0f64, f64::max);
        if mean == 0.0 {
            0.0
        } else {
            peak / mean
        }
    }
}

/// Aggregates a trace into fixed windows of `window_nanos`.
///
/// # Errors
///
/// Returns [`TraceError::Empty`] for a trace with no records, or a
/// malformed-input error for a zero window.
pub fn profile_windows(trace: &TraceSet, window_nanos: u64) -> Result<ProfileSeries> {
    if window_nanos == 0 {
        return Err(TraceError::MalformedTree("window must be positive".into()));
    }
    let end = trace
        .network
        .iter()
        .map(|r| r.ts_nanos)
        .chain(trace.cpu.iter().map(|r| r.ts_nanos))
        .chain(trace.storage.iter().map(|r| r.ts_nanos))
        .chain(trace.memory.iter().map(|r| r.ts_nanos))
        .max()
        .ok_or(TraceError::Empty("records"))?;
    let n_windows = (end / window_nanos + 1) as usize;
    let mut windows: Vec<WindowProfile> = (0..n_windows)
        .map(|i| WindowProfile {
            start_nanos: i as u64 * window_nanos,
            arrivals: 0,
            arrival_rate_per_sec: 0.0,
            cpu_busy_fraction: 0.0,
            bytes_in: 0,
            bytes_out: 0,
            io_count: 0,
            io_bytes: 0,
            memory_bytes: 0,
        })
        .collect();
    let idx = |ts: u64| ((ts / window_nanos) as usize).min(n_windows - 1);
    for r in &trace.network {
        let w = &mut windows[idx(r.ts_nanos)];
        match r.direction {
            Direction::Ingress => {
                w.arrivals += 1;
                w.bytes_in += r.size;
            }
            Direction::Egress => w.bytes_out += r.size,
        }
    }
    for r in &trace.cpu {
        windows[idx(r.ts_nanos)].cpu_busy_fraction += r.busy_nanos as f64;
    }
    for r in &trace.storage {
        let w = &mut windows[idx(r.ts_nanos)];
        w.io_count += 1;
        w.io_bytes += r.size;
    }
    for r in &trace.memory {
        windows[idx(r.ts_nanos)].memory_bytes += r.size;
    }
    let window_secs = window_nanos as f64 / 1e9;
    for w in &mut windows {
        w.arrival_rate_per_sec = w.arrivals as f64 / window_secs;
        w.cpu_busy_fraction /= window_nanos as f64;
    }
    Ok(ProfileSeries {
        window_nanos,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CpuRecord, IoOp, NetworkRecord, StorageRecord};

    fn sample_trace() -> TraceSet {
        let mut t = TraceSet::new();
        // 10 arrivals/second for 2 seconds, 1 KB each.
        for i in 0..20u64 {
            t.network.push(NetworkRecord {
                ts_nanos: i * 100_000_000,
                size: 1024,
                direction: Direction::Ingress,
                request_id: i,
            });
            t.network.push(NetworkRecord {
                ts_nanos: i * 100_000_000 + 50_000_000,
                size: 4096,
                direction: Direction::Egress,
                request_id: i,
            });
            t.cpu.push(CpuRecord {
                ts_nanos: i * 100_000_000 + 60_000_000,
                utilization: 0.1,
                busy_nanos: 10_000_000, // 10 ms per request
                request_id: i,
            });
        }
        t.storage.push(StorageRecord {
            ts_nanos: 1_500_000_000,
            lbn: 0,
            size: 65536,
            op: IoOp::Read,
            request_id: 3,
        });
        t
    }

    #[test]
    fn windows_cover_trace_and_count_arrivals() {
        let series = profile_windows(&sample_trace(), 1_000_000_000).unwrap();
        assert_eq!(series.windows.len(), 2);
        assert_eq!(series.windows[0].arrivals, 10);
        assert_eq!(series.windows[1].arrivals, 10);
        assert!((series.windows[0].arrival_rate_per_sec - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_busy_fraction_aggregates() {
        let series = profile_windows(&sample_trace(), 1_000_000_000).unwrap();
        // 10 requests × 10 ms = 100 ms busy per 1 s window → 0.1.
        assert!((series.windows[0].cpu_busy_fraction - 0.1).abs() < 1e-9);
    }

    #[test]
    fn io_and_bytes_attributed_to_right_window() {
        let series = profile_windows(&sample_trace(), 1_000_000_000).unwrap();
        assert_eq!(series.windows[0].io_count, 0);
        assert_eq!(series.windows[1].io_count, 1);
        assert_eq!(series.windows[1].io_bytes, 65536);
        assert_eq!(series.windows[0].bytes_in, 10 * 1024);
        assert_eq!(series.windows[0].bytes_out, 10 * 4096);
    }

    #[test]
    fn series_accessors() {
        let series = profile_windows(&sample_trace(), 500_000_000).unwrap();
        assert_eq!(series.arrival_rates().len(), series.windows.len());
        assert_eq!(series.cpu_series().len(), series.windows.len());
        assert!(series.arrival_peak_to_mean() >= 1.0);
    }

    #[test]
    fn bursty_trace_has_high_peak_to_mean() {
        let mut t = TraceSet::new();
        // Everything in one burst at t = 0 over a 10-window span.
        for i in 0..100u64 {
            t.network.push(NetworkRecord {
                ts_nanos: i * 1000,
                size: 1,
                direction: Direction::Ingress,
                request_id: i,
            });
        }
        t.network.push(NetworkRecord {
            ts_nanos: 10_000_000_000,
            size: 1,
            direction: Direction::Ingress,
            request_id: 1000,
        });
        let series = profile_windows(&t, 1_000_000_000).unwrap();
        assert!(series.arrival_peak_to_mean() > 5.0);
    }

    #[test]
    fn errors_on_empty_or_zero_window() {
        assert!(profile_windows(&TraceSet::new(), 1_000).is_err());
        assert!(profile_windows(&sample_trace(), 0).is_err());
    }
}

//! Minimal in-repo micro-benchmark harness (criterion replacement).
//!
//! The workspace builds fully offline, so the benchmarks cannot depend on
//! an external harness. This module provides the small slice of criterion
//! we actually use: named benchmark functions, a warmup phase, repeated
//! timed samples, and median/p95 reporting, plus machine-readable JSON.
//!
//! Modes:
//! - `cargo bench` passes `--bench` to the binary → full mode
//!   (measured samples sized for stable medians).
//! - `cargo test --benches` passes `--test`, and a bare run passes
//!   nothing → quick smoke mode (1 warmup + 3 samples) so the benchmarks
//!   double as cheap integration tests.
//! - `--mode smoke|full` picks the mode explicitly, overriding the flags
//!   cargo passes (`kooza_bench --mode smoke` in CI, for example).
//! - `KOOZA_BENCH_JSON=<path>` additionally writes the results, under a
//!   `meta` stamp of the host and run configuration, to `<path>`. Cargo
//!   runs bench targets from the package directory, so a relative path
//!   lands in `crates/bench/`.
//!
//! A positional (non-flag) command-line argument acts as a substring
//! filter on benchmark names, matching cargo's usual filtering UX.
//!
//! Nothing gates on these wall times: a median archived on one host
//! measures that host. Judge a change's speed by timing the parent build
//! and the change alternately on one host; end-to-end timings live in
//! the kbench benchmark.

use std::time::Instant;

use kooza_json::{Json, ToJson};

/// One benchmark's measured timings, in nanoseconds per sample.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name as passed to [`Harness::bench_function`].
    pub name: String,
    /// Number of measured samples (excluding warmup).
    pub samples: usize,
    /// Fastest sample.
    pub min_nanos: f64,
    /// Median sample.
    pub median_nanos: f64,
    /// 95th-percentile sample.
    pub p95_nanos: f64,
    /// Mean over samples.
    pub mean_nanos: f64,
    /// Bytes processed per iteration, for throughput benches
    /// ([`Harness::bench_throughput`]); `None` for plain timing benches.
    pub bytes: Option<u64>,
}

impl BenchResult {
    /// Median throughput in MB/s (decimal megabytes), if this is a
    /// throughput benchmark.
    pub fn mb_per_sec(&self) -> Option<f64> {
        let bytes = self.bytes?;
        if self.median_nanos <= 0.0 {
            return None;
        }
        // bytes/ns → MB/s: multiply by 1e9 (ns→s), divide by 1e6 (B→MB).
        Some(bytes as f64 * 1_000.0 / self.median_nanos)
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("samples".into(), Json::U64(self.samples as u64)),
            ("min_nanos".into(), Json::F64(self.min_nanos)),
            ("median_nanos".into(), Json::F64(self.median_nanos)),
            ("p95_nanos".into(), Json::F64(self.p95_nanos)),
            ("mean_nanos".into(), Json::F64(self.mean_nanos)),
        ];
        if let Some(bytes) = self.bytes {
            fields.push(("bytes".into(), Json::U64(bytes)));
            fields.push((
                "mb_per_sec".into(),
                self.mb_per_sec().map(Json::F64).unwrap_or(Json::Null),
            ));
        }
        Json::Object(fields)
    }
}

/// Collects and runs benchmarks; create with [`Harness::from_args`].
pub struct Harness {
    full: bool,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Builds a harness from the process arguments (see module docs for
    /// the flags cargo passes).
    pub fn from_args() -> Self {
        let mut saw_bench = false;
        let mut saw_test = false;
        let mut explicit_mode: Option<bool> = None;
        let mut filter = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" => saw_bench = true,
                "--test" => saw_test = true,
                "--mode" => {
                    let mode = args.next().unwrap_or_default();
                    explicit_mode = Some(match mode.as_str() {
                        "full" => true,
                        "smoke" | "quick" => false,
                        other => panic!("--mode expects smoke|full, got {other:?}"),
                    });
                }
                a if a.starts_with('-') => {} // ignore unknown flags (e.g. --nocapture)
                a => filter = Some(a.to_string()),
            }
        }
        // `--test` wins over `--bench` whatever the order: cargo appends
        // `--bench` to bench-target invocations, so `cargo bench -- --test`
        // sees both and should still smoke-run. An explicit `--mode` beats
        // both cargo flags.
        let full = explicit_mode.unwrap_or(saw_bench && !saw_test);
        Harness { full, filter, results: Vec::new() }
    }

    /// Number of warmup iterations before measurement starts.
    fn warmup_iters(&self) -> usize {
        if self.full { 10 } else { 1 }
    }

    /// Number of measured samples.
    fn sample_count(&self) -> usize {
        if self.full { 30 } else { 3 }
    }

    /// Runs one named benchmark. The closure receives a [`Bencher`] and
    /// must call [`Bencher::iter`] or [`Bencher::iter_batched`] exactly
    /// once, mirroring criterion's `bench_function` contract.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        self.run_bench(name, None, f);
    }

    /// Like [`Harness::bench_function`], but tags the result with the
    /// number of bytes each iteration processes, so the report carries a
    /// derived MB/s figure (the unit ingest benches are compared in).
    pub fn bench_throughput(&mut self, name: &str, bytes: u64, f: impl FnOnce(&mut Bencher)) {
        self.run_bench(name, Some(bytes), f);
    }

    fn run_bench(&mut self, name: &str, bytes: Option<u64>, f: impl FnOnce(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            warmup: self.warmup_iters(),
            samples: self.sample_count(),
            durations: Vec::new(),
        };
        f(&mut b);
        assert!(
            !b.durations.is_empty(),
            "benchmark {name} never called iter()/iter_batched()"
        );
        let mut sorted = b.durations.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let median_nanos = sorted[n / 2] as f64;
        let p95_nanos = sorted[((n as f64 * 0.95) as usize).min(n - 1)] as f64;
        let mean_nanos = sorted.iter().sum::<u64>() as f64 / n as f64;
        let result = BenchResult {
            name: name.to_string(),
            samples: n,
            min_nanos: sorted[0] as f64,
            median_nanos,
            p95_nanos,
            mean_nanos,
            bytes,
        };
        let throughput = result
            .mb_per_sec()
            .map(|mbps| format!("  {mbps:>8.1} MB/s"))
            .unwrap_or_default();
        println!(
            "{:<32} median {:>14}  p95 {:>14}  ({} samples){throughput}",
            result.name,
            fmt_nanos(result.median_nanos),
            fmt_nanos(result.p95_nanos),
            result.samples
        );
        self.results.push(result);
    }

    /// The full JSON report: a `meta` stamp describing the machine and
    /// run configuration (so an archived BENCH_*.json says what host made
    /// it), plus the per-benchmark `results` array.
    fn report_json(&self) -> Json {
        let detected_cores =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;
        let total_samples: u64 = self.results.iter().map(|r| r.samples as u64).sum();
        let meta = Json::Object(vec![
            ("mode".into(), Json::str(if self.full { "full" } else { "quick" })),
            ("detected_cores".into(), Json::U64(detected_cores)),
            ("resolved_threads".into(), Json::U64(kooza_exec::resolved_threads() as u64)),
            ("warmup_iters".into(), Json::U64(self.warmup_iters() as u64)),
            ("samples_per_bench".into(), Json::U64(self.sample_count() as u64)),
            ("total_samples".into(), Json::U64(total_samples)),
        ]);
        Json::Object(vec![
            ("meta".into(), meta),
            (
                "results".into(),
                Json::Array(self.results.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    /// Prints the closing summary and writes the JSON report if
    /// `KOOZA_BENCH_JSON` is set. Call once, after all benchmarks.
    pub fn finish(self) {
        let mode = if self.full { "full" } else { "quick" };
        println!(
            "\n{} benchmark(s) done ({mode} mode{})",
            self.results.len(),
            if self.full { "" } else { "; run `cargo bench` or pass `--mode full` for stable numbers" }
        );
        if let Ok(path) = std::env::var("KOOZA_BENCH_JSON") {
            std::fs::write(&path, kooza_json::to_string(&self.report_json()))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("wrote JSON report to {path}");
        }
    }
}

/// Timing context handed to each benchmark body.
pub struct Bencher {
    warmup: usize,
    samples: usize,
    durations: Vec<u64>,
}

impl Bencher {
    /// Times `routine` once per sample, after the warmup runs. Keep any
    /// result observable with [`std::hint::black_box`] in the caller.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        for _ in 0..self.warmup {
            std::hint::black_box(routine());
        }
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.durations.push(start.elapsed().as_nanos() as u64);
        }
    }

    /// Like [`Bencher::iter`], but rebuilds the input with `setup` before
    /// every run, outside the timed region — for routines that consume or
    /// mutate their input.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        for _ in 0..self.warmup {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.durations.push(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Human-readable duration with ns/µs/ms/s units.
fn fmt_nanos(nanos: f64) -> String {
    if nanos < 1_000.0 {
        format!("{nanos:.0} ns")
    } else if nanos < 1_000_000.0 {
        format!("{:.2} µs", nanos / 1_000.0)
    } else if nanos < 1_000_000_000.0 {
        format!("{:.2} ms", nanos / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_one_duration_per_sample() {
        let mut b = Bencher { warmup: 2, samples: 5, durations: Vec::new() };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(calls, 7); // 2 warmup + 5 measured
        assert_eq!(b.durations.len(), 5);
    }

    #[test]
    fn iter_batched_reruns_setup_every_sample() {
        let mut b = Bencher { warmup: 1, samples: 4, durations: Vec::new() };
        let mut setups = 0u32;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 8]
            },
            |mut v| {
                v.push(2);
                v
            },
        );
        assert_eq!(setups, 5); // 1 warmup + 4 measured
        assert_eq!(b.durations.len(), 4);
    }

    #[test]
    fn fmt_nanos_picks_units() {
        assert_eq!(fmt_nanos(500.0), "500 ns");
        assert_eq!(fmt_nanos(1_500.0), "1.50 µs");
        assert_eq!(fmt_nanos(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_nanos(3_000_000_000.0), "3.00 s");
    }

    #[test]
    fn report_json_carries_meta_stamp() {
        let harness = Harness {
            full: true,
            filter: None,
            results: vec![BenchResult {
                name: "demo".into(),
                samples: 30,
                min_nanos: 1.0,
                median_nanos: 2.0,
                p95_nanos: 3.0,
                mean_nanos: 2.0,
                bytes: None,
            }],
        };
        let json = harness.report_json();
        let meta = json.field("meta").unwrap();
        assert_eq!(meta.field("mode").unwrap().as_str(), Some("full"));
        assert!(meta.field("detected_cores").unwrap().as_f64().unwrap() >= 1.0);
        assert!(meta.field("resolved_threads").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(meta.field("warmup_iters").unwrap().as_f64(), Some(10.0));
        assert_eq!(meta.field("samples_per_bench").unwrap().as_f64(), Some(30.0));
        assert_eq!(meta.field("total_samples").unwrap().as_f64(), Some(30.0));
        let results = json.field("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn throughput_results_carry_mb_per_sec() {
        let r = BenchResult {
            name: "ingest".into(),
            samples: 3,
            min_nanos: 1_000.0,
            median_nanos: 2_000.0,
            p95_nanos: 3_000.0,
            mean_nanos: 2_000.0,
            bytes: Some(1_000_000),
        };
        // 1 MB per iteration at 2 µs median = 500k MB/s.
        assert_eq!(r.mb_per_sec(), Some(500_000.0));
        let s = kooza_json::to_string(&r.to_json());
        assert!(s.contains("\"bytes\":1000000"), "{s}");
        assert!(s.contains("\"mb_per_sec\":500000"), "{s}");

        // Plain timing benches neither compute nor serialize throughput.
        let plain = BenchResult { bytes: None, ..r };
        assert_eq!(plain.mb_per_sec(), None);
        let s = kooza_json::to_string(&plain.to_json());
        assert!(!s.contains("mb_per_sec"), "{s}");

        let mut h = Harness { full: false, filter: None, results: vec![] };
        h.bench_throughput("tp", 4096, |b| b.iter(|| std::hint::black_box(1 + 1)));
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].bytes, Some(4096));
    }

    #[test]
    fn results_serialize_to_json() {
        let r = BenchResult {
            name: "demo".into(),
            samples: 3,
            min_nanos: 1.0,
            median_nanos: 2.0,
            p95_nanos: 3.0,
            mean_nanos: 2.0,
            bytes: None,
        };
        let s = kooza_json::to_string(&r.to_json());
        assert!(s.starts_with("{\"name\":\"demo\",\"samples\":3,"), "{s}");
    }
}

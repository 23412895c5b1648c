//! Turning a run's measurements into the metrics the benchmark prints.

use std::fmt::Write as _;

use crate::bench::{median, quantile, Measured};
use crate::model::ModelRun;
use crate::spans::{self, SpanRecord};

/// One printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Share of phases that ran faster than a reported phase metric.
const FASTEST_SHARE: f64 = 0.1;

/// The end-to-end metrics, from the untraced run. A phase metric is the
/// edge of its fastest tenth over the run (the 10th percentile of times,
/// the 90th of rates): on a shared host the same phase ran up to twice
/// as slow in stretches of seconds, and the medians of whole runs moved
/// with them. `setup_s` is the median of the set-ups.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let per_model = |f: fn(&ModelRun) -> f64| {
        quantile(&m.models.iter().map(f).collect::<Vec<_>>(), FASTEST_SHARE)
    };
    vec![
        (
            "sim_req_per_s",
            quantile(&m.sim_req_per_s, 1.0 - FASTEST_SHARE),
            "1/s",
        ),
        ("setup_s", median(&m.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("fit_s", per_model(|r| r.fit_s), "s"),
        ("table2_s", per_model(|r| r.table2_s), "s"),
        ("table1_s", per_model(|r| r.table1_s), "s"),
    ]
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Roots whose spans give layer timings: set-ups and the plain (obs-off)
/// simulation phases and model steps.
const TIMED_ROOTS: [&str; 3] = ["setup", "sim", "model"];

/// The per-layer metrics, from the traced run. Timings are medians over
/// the timed roots of each layer's self time; counts are exact. A layer
/// that does not run on the workload reports zero.
pub fn per_layer(m: &Measured, spans: &[SpanRecord]) -> Vec<Metric> {
    let times = spans::self_seconds_per_root(spans, &TIMED_ROOTS);
    let t = |name: &str| times.get(name).map_or(0.0, |v| median(v));
    let c = |name: &str| m.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let overhead = if m.main_phase_obs_s.is_empty() || m.main_phase_s.is_empty() {
        0.0
    } else {
        (median(&m.main_phase_obs_s) / median(&m.main_phase_s) - 1.0) * 100.0
    };
    vec![
        ("gfs.setup_s", t("gfs.setup"), "s"),
        ("gfs.run_s", t("gfs.run"), "s"),
        (
            "gfs.ns_per_event",
            ratio(t("gfs.run") * 1e9, c("sim.events")),
            "ns",
        ),
        (
            "gfs.requests_completed",
            c("gfs.requests_completed"),
            "count",
        ),
        ("gfs.requests_failed", c("gfs.requests_failed"), "count"),
        ("gfs.fault.crashes", c("gfs.fault.crashes"), "count"),
        ("gfs.fault.retries", c("gfs.fault.retries"), "count"),
        ("gfs.fault.timeouts", c("gfs.fault.timeouts"), "count"),
        ("gfs.fault.failovers", c("gfs.fault.failovers"), "count"),
        (
            "gfs.fault.rereplications",
            c("gfs.fault.rereplications"),
            "count",
        ),
        ("gfs.sim_latency_p50_ms", c("gfs.sim_latency_p50_ms"), "ms"),
        ("gfs.sim_latency_p99_ms", c("gfs.sim_latency_p99_ms"), "ms"),
        ("sim.events", c("sim.events"), "count"),
        (
            "sim.pending_high_water",
            c("sim.pending_high_water"),
            "count",
        ),
        ("sim.simulated_s", c("sim.simulated_s"), "s"),
        ("net.fabric.flows", c("net.fabric.flows"), "count"),
        ("net.fabric.rerates", c("net.fabric.rerates"), "count"),
        (
            "net.fabric.rerates_per_flow",
            ratio(c("net.fabric.rerates"), c("net.fabric.flows")),
            "count",
        ),
        ("sim.shard.windows", c("sim.shard.windows"), "count"),
        ("sim.shard.messages", c("sim.shard.messages"), "count"),
        (
            "sim.shard.messages_per_window",
            ratio(c("sim.shard.messages"), c("sim.shard.windows")),
            "count",
        ),
        ("trace.spans", c("trace.spans"), "count"),
        ("trace.records", c("trace.records"), "count"),
        ("trace.ktc_write_s", t("trace.ktc_write"), "s"),
        ("trace.ktc.write_bytes", c("trace.ktc.write_bytes"), "B"),
        (
            "trace.ktc.write_blocks",
            c("trace.ktc.write_blocks"),
            "count",
        ),
        (
            "trace.ktc_write_mb_per_s",
            ratio(c("trace.ktc.write_bytes") / 1e6, t("trace.ktc_write")),
            "MB/s",
        ),
        ("trace.ktc_read_s", t("trace.ktc_read"), "s"),
        ("trace.ktc.read_bytes", c("trace.ktc.read_bytes"), "B"),
        (
            "trace.ktc_read_mb_per_s",
            ratio(c("trace.ktc.read_bytes") / 1e6, t("trace.ktc_read")),
            "MB/s",
        ),
        ("core.observations_s", t("core.observations"), "s"),
        ("core.kooza_fit_s", t("core.kooza_fit"), "s"),
        ("core.parameters", c("core.parameters"), "count"),
        ("core.generate_s", t("core.generate"), "s"),
        ("core.validate_s", t("core.validate"), "s"),
        ("core.replay.requests", c("core.replay.requests"), "count"),
        ("core.replay.events", c("core.replay.events"), "count"),
        ("core.inbreadth_fit_s", t("core.inbreadth_fit"), "s"),
        ("core.indepth_fit_s", t("core.indepth_fit"), "s"),
        ("core.crossexam_s", t("core.crossexam"), "s"),
        ("table2_latency_err_pct", c("table2_latency_err_pct"), "%"),
        ("table2_feature_err_pct", c("table2_feature_err_pct"), "%"),
        (
            "table1_kooza_feature_err_pct",
            c("table1_kooza_feature_err_pct"),
            "%",
        ),
        (
            "table1_kooza_latency_ks",
            c("table1_kooza_latency_ks"),
            "ratio",
        ),
        ("proc.cpu_user_s", m.cpu_user_s, "s"),
        ("proc.cpu_sys_s", m.cpu_sys_s, "s"),
        ("obs.overhead_pct", overhead, "%"),
    ]
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The metrics object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    object(metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            format!("{{\"value\": {value}, \"unit\": {}}}", quote(unit)),
        )
    }))
}

/// The spans as JSON lines.
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let mut lines = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            lines,
            "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            quote(s.name),
            s.start_ns,
            s.end_ns
        );
    }
    lines
}

//! The observability report: JSONL export, strip, parse and rendering.
//!
//! An [`ObsReport`] bundles everything one run collected — the metrics
//! snapshot, the stage-span tree and the pool profiles — plus environment
//! metadata. It serializes to JSONL (one kooza-json object per line, a
//! `"kind"` field on each) so reports can be streamed, diffed and merged
//! line-wise.
//!
//! # Determinism contract
//!
//! Counter, gauge and histogram lines are fully deterministic for a
//! deterministic pipeline. Everything wall-clock or scheduling-dependent
//! lives either in a `"wall"` sub-object (stage lines) or in lines whose
//! whole `"kind"` is environmental (`meta`, `pool`).
//! [`strip_nondeterministic`] removes exactly that set, and the committed
//! determinism test pins that the stripped text is byte-identical across
//! thread counts.

use kooza_exec::profile::PoolProfile;
use kooza_json::{FromJson, Json, JsonError, ToJson};

use crate::metrics::MetricsSnapshot;
use crate::stage::{flatten, StageNode};

/// Everything one instrumented run collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// CPU cores the host reports (**non-deterministic**: environment).
    pub detected_cores: u64,
    /// Thread count the run resolved to (**non-deterministic**: depends
    /// on flags, environment and the host).
    pub resolved_threads: u64,
    /// The metrics snapshot (deterministic).
    pub metrics: MetricsSnapshot,
    /// The stage-span forest (shape deterministic, wall times not).
    pub stages: Vec<StageNode>,
    /// Pool profiles, one per `par_map` call (**non-deterministic**).
    pub pools: Vec<PoolProfile>,
}

impl ObsReport {
    /// Whether the report holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.stages.is_empty() && self.pools.is_empty()
    }

    /// Serializes the report as JSONL: one object per line, led by a
    /// `meta` line, then `stage` lines (pre-order), then `counter`,
    /// `gauge` and `histogram` lines (name-sorted), then `pool` lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |value: Json| {
            out.push_str(&kooza_json::to_string(&value));
            out.push('\n');
        };
        push(Json::Object(vec![
            ("kind".into(), Json::str("meta")),
            ("version".into(), Json::U64(1)),
            (
                "wall".into(),
                Json::Object(vec![
                    ("detected_cores".into(), Json::U64(self.detected_cores)),
                    ("resolved_threads".into(), Json::U64(self.resolved_threads)),
                    ("pools".into(), Json::U64(self.pools.len() as u64)),
                ]),
            ),
        ]));
        for (depth, node) in flatten(&self.stages) {
            push(Json::Object(vec![
                ("kind".into(), Json::str("stage")),
                ("depth".into(), Json::U64(depth as u64)),
                ("name".into(), Json::str(node.name.as_str())),
                ("count".into(), Json::U64(node.count)),
                (
                    "wall".into(),
                    Json::Object(vec![("nanos".into(), Json::U64(node.wall_nanos))]),
                ),
            ]));
        }
        for (name, value) in &self.metrics.counters {
            push(Json::Object(vec![
                ("kind".into(), Json::str("counter")),
                ("name".into(), Json::str(name.as_str())),
                ("value".into(), Json::U64(*value)),
            ]));
        }
        for (name, value) in &self.metrics.gauges {
            push(Json::Object(vec![
                ("kind".into(), Json::str("gauge")),
                ("name".into(), Json::str(name.as_str())),
                ("value".into(), Json::F64(*value)),
            ]));
        }
        for (name, histogram) in &self.metrics.histograms {
            let mut fields = vec![
                ("kind".into(), Json::str("histogram")),
                ("name".into(), Json::str(name.as_str())),
            ];
            if let Json::Object(rest) = histogram.to_json() {
                fields.extend(rest);
            }
            push(Json::Object(fields));
        }
        for pool in &self.pools {
            push(pool_to_json(pool));
        }
        out
    }

    /// Parses a report back from [`ObsReport::to_jsonl`] output (stripped
    /// output parses too — missing wall data reads as zero).
    pub fn from_jsonl(text: &str) -> kooza_json::Result<ObsReport> {
        let mut report = ObsReport::default();
        let mut flat_stages: Vec<(usize, StageNode)> = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let value = kooza_json::parse(line)?;
            let kind = value
                .field("kind")?
                .as_str()
                .ok_or_else(|| JsonError::conversion("line kind must be a string"))?;
            match kind {
                "meta" => {
                    if let Ok(wall) = value.field("wall") {
                        report.detected_cores =
                            u64::from_json(wall.field("detected_cores")?)?;
                        report.resolved_threads =
                            u64::from_json(wall.field("resolved_threads")?)?;
                    }
                }
                "stage" => {
                    let depth = u64::from_json(value.field("depth")?)? as usize;
                    let wall_nanos = match value.get("wall") {
                        Some(wall) => u64::from_json(wall.field("nanos")?)?,
                        None => 0,
                    };
                    flat_stages.push((
                        depth,
                        StageNode {
                            name: String::from_json(value.field("name")?)?,
                            count: u64::from_json(value.field("count")?)?,
                            wall_nanos,
                            children: Vec::new(),
                        },
                    ));
                }
                "counter" => report.metrics.counters.push((
                    String::from_json(value.field("name")?)?,
                    u64::from_json(value.field("value")?)?,
                )),
                "gauge" => report.metrics.gauges.push((
                    String::from_json(value.field("name")?)?,
                    value
                        .field("value")?
                        .as_f64()
                        .ok_or_else(|| JsonError::conversion("gauge value must be a number"))?,
                )),
                "histogram" => report.metrics.histograms.push((
                    String::from_json(value.field("name")?)?,
                    crate::metrics::Histogram::from_json(&value)?,
                )),
                "pool" => report.pools.push(pool_from_json(&value)?),
                other => {
                    return Err(JsonError::conversion(format!(
                        "unknown report line kind {other:?}"
                    )))
                }
            }
        }
        report.stages = tree_from_flat(flat_stages);
        Ok(report)
    }

    /// Renders a human-readable report (the `kooza obs` subcommand).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("kooza observability report\n");
        out.push_str(&format!(
            "  host: {} cores detected, ran with {} thread{}\n",
            self.detected_cores,
            self.resolved_threads,
            if self.resolved_threads == 1 { "" } else { "s" },
        ));
        if !self.stages.is_empty() {
            out.push_str("\nstages\n");
            for (depth, node) in flatten(&self.stages) {
                let label = format!("{}{}", "  ".repeat(depth + 1), node.name);
                out.push_str(&format!(
                    "{label:<40} x{:<6} {}\n",
                    node.count,
                    fmt_nanos(node.wall_nanos)
                ));
            }
        }
        if !self.metrics.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (name, value) in &self.metrics.counters {
                out.push_str(&format!("  {name:<38} {value}\n"));
            }
        }
        if !self.metrics.gauges.is_empty() {
            out.push_str("\ngauges\n");
            for (name, value) in &self.metrics.gauges {
                out.push_str(&format!("  {name:<38} {value}\n"));
            }
        }
        if !self.metrics.histograms.is_empty() {
            out.push_str("\nhistograms\n");
            for (name, h) in &self.metrics.histograms {
                out.push_str(&format!(
                    "  {name:<38} count={} min={} max={} mean={}\n",
                    h.count(),
                    if h.count() == 0 { 0 } else { h.min() },
                    h.max(),
                    h.mean().map_or_else(|| "-".to_string(), |m| format!("{m:.2}")),
                ));
            }
        }
        if !self.pools.is_empty() {
            let items: u64 = self.pools.iter().map(|p| p.items).sum();
            let busy: u64 = self.pools.iter().map(|p| p.busy_nanos).sum();
            out.push_str("\npools\n");
            out.push_str(&format!(
                "  {} par_map call{}, {} items, {} busy across workers\n",
                self.pools.len(),
                if self.pools.len() == 1 { "" } else { "s" },
                items,
                fmt_nanos(busy),
            ));
        }
        out
    }
}

/// Removes every non-deterministic byte from a JSONL report: `meta` and
/// `pool` lines are dropped whole, stage lines lose their `"wall"` field,
/// and every surviving line is re-serialized canonically. The result is
/// byte-identical across thread counts for a deterministic pipeline.
pub fn strip_nondeterministic(jsonl: &str) -> kooza_json::Result<String> {
    let mut out = String::new();
    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let value = kooza_json::parse(line)?;
        let kind = value
            .field("kind")?
            .as_str()
            .ok_or_else(|| JsonError::conversion("line kind must be a string"))?
            .to_string();
        if kind == "meta" || kind == "pool" {
            continue;
        }
        let stripped = match value {
            Json::Object(fields) if kind == "stage" => Json::Object(
                fields.into_iter().filter(|(k, _)| k != "wall").collect(),
            ),
            other => other,
        };
        out.push_str(&kooza_json::to_string(&stripped));
        out.push('\n');
    }
    Ok(out)
}

/// Formats nanoseconds for humans: ns, µs, ms or s.
fn fmt_nanos(nanos: u64) -> String {
    match nanos {
        n if n < 1_000 => format!("{n}ns"),
        n if n < 1_000_000 => format!("{:.1}µs", n as f64 / 1e3),
        n if n < 1_000_000_000 => format!("{:.1}ms", n as f64 / 1e6),
        n => format!("{:.2}s", n as f64 / 1e9),
    }
}

/// Rebuilds a stage forest from pre-order `(depth, node)` pairs.
fn tree_from_flat(flat: Vec<(usize, StageNode)>) -> Vec<StageNode> {
    fn close(stack: &mut Vec<StageNode>, roots: &mut Vec<StageNode>, to_depth: usize) {
        while stack.len() > to_depth {
            let node = stack.pop().expect("stack checked non-empty");
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => roots.push(node),
            }
        }
    }
    let mut roots = Vec::new();
    let mut stack: Vec<StageNode> = Vec::new();
    for (depth, node) in flat {
        // Tolerate malformed depth jumps by clamping to the open chain.
        let to_depth = depth.min(stack.len());
        close(&mut stack, &mut roots, to_depth);
        stack.push(node);
    }
    close(&mut stack, &mut roots, 0);
    roots
}

/// `PoolProfile` → JSONL `pool` line. A free function (not a `ToJson`
/// impl) because both the trait and the type live in other crates.
fn pool_to_json(pool: &PoolProfile) -> Json {
    Json::Object(vec![
        ("kind".into(), Json::str("pool")),
        ("items".into(), Json::U64(pool.items)),
        (
            "wall".into(),
            Json::Object(vec![
                ("threads".into(), Json::U64(pool.threads as u64)),
                ("nanos".into(), Json::U64(pool.wall_nanos)),
                ("busy_nanos".into(), Json::U64(pool.busy_nanos)),
            ]),
        ),
    ])
}

fn pool_from_json(value: &Json) -> kooza_json::Result<PoolProfile> {
    let wall = value.field("wall")?;
    Ok(PoolProfile {
        threads: u64::from_json(wall.field("threads")?)? as usize,
        items: u64::from_json(value.field("items")?)?,
        wall_nanos: u64::from_json(wall.field("nanos")?)?,
        busy_nanos: u64::from_json(wall.field("busy_nanos")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::stage::StageRecorder;

    fn sample_report() -> ObsReport {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("replay.requests", 1200);
        reg.gauge_set("sim.pending_high_water", 42.0);
        reg.histogram_record("gfs.latency_nanos", &[1_000, 10_000], 2_500);
        let mut stages = StageRecorder::new();
        stages.scoped("validate", |rec| {
            rec.scoped("replay", |_| {});
            rec.scoped("replay", |_| {});
        });
        ObsReport {
            detected_cores: 8,
            resolved_threads: 4,
            metrics: reg.snapshot(),
            stages: stages.roots(),
            pools: vec![PoolProfile { threads: 4, items: 100, wall_nanos: 5_000, busy_nanos: 4_000 }],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let report = sample_report();
        let text = report.to_jsonl();
        let back = ObsReport::from_jsonl(&text).expect("round trip parses");
        assert_eq!(back, report);
    }

    #[test]
    fn every_line_is_json_with_a_kind() {
        let text = sample_report().to_jsonl();
        for line in text.lines() {
            let v = kooza_json::parse(line).expect("valid json");
            assert!(v.field("kind").unwrap().as_str().is_some(), "{line}");
        }
    }

    #[test]
    fn strip_removes_wall_data_only() {
        let text = sample_report().to_jsonl();
        let stripped = strip_nondeterministic(&text).expect("strips");
        assert!(!stripped.contains("\"wall\""));
        assert!(!stripped.contains("\"meta\""));
        assert!(!stripped.contains("\"pool\""));
        // Deterministic payloads survive.
        assert!(stripped.contains("\"replay.requests\""));
        assert!(stripped.contains("\"gfs.latency_nanos\""));
        assert!(stripped.contains("\"validate\""));
        // Stripped output still parses; stage shape intact, wall zeroed.
        let back = ObsReport::from_jsonl(&stripped).expect("stripped parses");
        assert_eq!(back.stages.len(), 1);
        assert_eq!(back.stages[0].children[0].count, 2);
        assert_eq!(back.stages[0].wall_nanos, 0);
        assert!(back.pools.is_empty());
    }

    #[test]
    fn strip_is_idempotent() {
        let text = sample_report().to_jsonl();
        let once = strip_nondeterministic(&text).expect("strips");
        let twice = strip_nondeterministic(&once).expect("strips again");
        assert_eq!(once, twice);
    }

    #[test]
    fn render_mentions_each_section() {
        let rendered = sample_report().render();
        assert!(rendered.contains("stages"));
        assert!(rendered.contains("validate"));
        assert!(rendered.contains("counters"));
        assert!(rendered.contains("replay.requests"));
        assert!(rendered.contains("gauges"));
        assert!(rendered.contains("histograms"));
        assert!(rendered.contains("\npools\n  1 par_map call, 100 items, 4.0µs busy across workers\n"));
    }

    #[test]
    fn empty_report_parses_and_renders() {
        let report = ObsReport::default();
        assert!(report.is_empty());
        let text = report.to_jsonl();
        let back = ObsReport::from_jsonl(&text).expect("parses");
        assert!(back.is_empty());
        assert!(report.render().contains("kooza observability report"));
    }
}

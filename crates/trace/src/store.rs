//! The [`TraceSet`] container and JSONL persistence.
//!
//! A `TraceSet` is what the GFS simulator emits and what every model
//! trains on: the four per-subsystem record streams plus the span trees.
//! Persistence is line-delimited JSON with a tagged record enum, so traces
//! stream through ordinary readers/writers and survive partial writes
//! (parse errors carry line numbers).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};

use kooza_json::{FromJson, Json, JsonError, ToJson};

use crate::record::{CpuRecord, MemoryRecord, NetworkRecord, StorageRecord};
use crate::span::{Span, TraceId, TraceTree};
use crate::{Result, TraceError};

/// One line of a serialized trace, internally tagged by a `kind` field —
/// the same wire format serde's `#[serde(tag = "kind")]` produced.
#[derive(Debug, Clone, PartialEq)]
enum Line {
    Storage(StorageRecord),
    Cpu(CpuRecord),
    Memory(MemoryRecord),
    Network(NetworkRecord),
    Span(Span),
}

impl ToJson for Line {
    fn to_json(&self) -> Json {
        let (kind, inner) = match self {
            Line::Storage(r) => ("Storage", r.to_json()),
            Line::Cpu(r) => ("Cpu", r.to_json()),
            Line::Memory(r) => ("Memory", r.to_json()),
            Line::Network(r) => ("Network", r.to_json()),
            Line::Span(s) => ("Span", s.to_json()),
        };
        let mut fields = vec![("kind".to_string(), Json::str(kind))];
        match inner {
            Json::Object(rest) => fields.extend(rest),
            other => unreachable!("records serialize as objects, got {}", other.type_name()),
        }
        Json::Object(fields)
    }
}

impl FromJson for Line {
    fn from_json(value: &Json) -> kooza_json::Result<Self> {
        let kind = value.field("kind")?;
        match kind.as_str() {
            Some("Storage") => StorageRecord::from_json(value).map(Line::Storage),
            Some("Cpu") => CpuRecord::from_json(value).map(Line::Cpu),
            Some("Memory") => MemoryRecord::from_json(value).map(Line::Memory),
            Some("Network") => NetworkRecord::from_json(value).map(Line::Network),
            Some("Span") => Span::from_json(value).map(Line::Span),
            Some(other) => Err(JsonError::conversion(format!("unknown record kind `{other}`"))),
            None => Err(JsonError::conversion(format!(
                "`kind` must be a string, found {}",
                kind.type_name()
            ))),
        }
    }
}

/// A complete multi-subsystem trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSet {
    /// Storage I/O records.
    pub storage: Vec<StorageRecord>,
    /// CPU samples.
    pub cpu: Vec<CpuRecord>,
    /// Memory accesses.
    pub memory: Vec<MemoryRecord>,
    /// Network events.
    pub network: Vec<NetworkRecord>,
    /// Raw spans (grouped into trees on demand).
    pub spans: Vec<Span>,
}

impl TraceSet {
    /// An empty trace set.
    pub fn new() -> Self {
        TraceSet::default()
    }

    /// Total records across all streams.
    pub fn len(&self) -> usize {
        self.storage.len() + self.cpu.len() + self.memory.len() + self.network.len()
            + self.spans.len()
    }

    /// Whether every stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends all records of `other`.
    pub fn merge(&mut self, other: TraceSet) {
        self.storage.extend(other.storage);
        self.cpu.extend(other.cpu);
        self.memory.extend(other.memory);
        self.network.extend(other.network);
        self.spans.extend(other.spans);
    }

    /// Sorts every stream by timestamp (stable), normalizing traces merged
    /// from multiple collectors.
    pub fn sort_by_time(&mut self) {
        self.storage.sort_by_key(|r| r.ts_nanos);
        self.cpu.sort_by_key(|r| r.ts_nanos);
        self.memory.sort_by_key(|r| r.ts_nanos);
        self.network.sort_by_key(|r| r.ts_nanos);
        self.spans.sort_by_key(|s| (s.start_nanos, s.span_id));
    }

    /// Groups the stored spans into one tree per request, in trace-id
    /// order, skipping requests whose spans do not form a valid tree.
    pub fn span_trees(&self) -> Vec<TraceTree> {
        let mut by_trace: BTreeMap<TraceId, Vec<Span>> = BTreeMap::new();
        for span in &self.spans {
            by_trace.entry(span.trace_id).or_default().push(span.clone());
        }
        by_trace
            .into_values()
            .filter_map(|spans| TraceTree::build(spans).ok())
            .collect()
    }

    /// Serializes as JSONL to any writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> Result<()> {
        let mut emit = |line: &Line| -> Result<()> {
            let json = kooza_json::to_string(&line.to_json());
            w.write_all(json.as_bytes())?;
            w.write_all(b"\n")?;
            Ok(())
        };
        for r in &self.storage {
            emit(&Line::Storage(*r))?;
        }
        for r in &self.cpu {
            emit(&Line::Cpu(*r))?;
        }
        for r in &self.memory {
            emit(&Line::Memory(*r))?;
        }
        for r in &self.network {
            emit(&Line::Network(*r))?;
        }
        for s in &self.spans {
            emit(&Line::Span(s.clone()))?;
        }
        Ok(())
    }

    /// Reads a JSONL trace from any reader. A mut reference works as a
    /// reader too, so the caller keeps ownership.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] with a line number on the first
    /// malformed line — including lines that are not valid UTF-8 — or
    /// [`TraceError::Io`] on genuine read failure.
    pub fn read_jsonl<R: Read>(r: R) -> Result<TraceSet> {
        let reader = BufReader::new(r);
        let mut out = TraceSet::new();
        for (idx, line) in reader.lines().enumerate() {
            // `lines()` folds invalid UTF-8 into an InvalidData io::Error,
            // which would otherwise drop the line number the parse path
            // promises. Surface it as a Parse error at this line instead.
            let line = line.map_err(|e| {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    TraceError::Parse { line: idx + 1, message: e.to_string() }
                } else {
                    TraceError::Io(e)
                }
            })?;
            if line.trim().is_empty() {
                continue;
            }
            let parsed = kooza_json::parse(&line)
                .and_then(|v| Line::from_json(&v))
                .map_err(|e| TraceError::Parse { line: idx + 1, message: e.to_string() })?;
            match parsed {
                Line::Storage(r) => out.storage.push(r),
                Line::Cpu(r) => out.cpu.push(r),
                Line::Memory(r) => out.memory.push(r),
                Line::Network(r) => out.network.push(r),
                Line::Span(s) => out.spans.push(s),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Direction, IoOp};
    use crate::span::SpanId;

    fn sample_set() -> TraceSet {
        let mut ts = TraceSet::new();
        ts.storage.push(StorageRecord {
            ts_nanos: 30,
            lbn: 100,
            size: 4096,
            op: IoOp::Read,
            request_id: 1,
        });
        ts.cpu.push(CpuRecord {
            ts_nanos: 10,
            utilization: 0.5,
            busy_nanos: 100,
            request_id: 1,
        });
        ts.memory.push(MemoryRecord {
            ts_nanos: 20,
            bank: 2,
            size: 64,
            op: IoOp::Write,
            request_id: 2,
        });
        ts.network.push(NetworkRecord {
            ts_nanos: 0,
            size: 65536,
            direction: Direction::Ingress,
            request_id: 1,
        });
        ts.network.push(NetworkRecord {
            ts_nanos: 5,
            size: 1024,
            direction: Direction::Ingress,
            request_id: 2,
        });
        ts.spans.push(Span::new(TraceId(1), SpanId(0), None, "request", 0, 100));
        ts.spans
            .push(Span::new(TraceId(1), SpanId(1), Some(SpanId(0)), "disk", 30, 90));
        ts
    }

    #[test]
    fn jsonl_round_trip() {
        let ts = sample_set();
        let mut buf = Vec::new();
        ts.write_jsonl(&mut buf).unwrap();
        let back = TraceSet::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(ts, back);
    }

    #[test]
    fn read_reports_line_of_bad_json() {
        let good = r#"{"kind":"Cpu","ts_nanos":1,"utilization":0.1,"busy_nanos":5,"request_id":1}"#;
        let data = format!("{good}\nnot json\n");
        match TraceSet::read_jsonl(data.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn read_reports_line_of_invalid_utf8() {
        let good = r#"{"kind":"Cpu","ts_nanos":1,"utilization":0.1,"busy_nanos":5,"request_id":1}"#;
        let mut data = Vec::new();
        data.extend_from_slice(good.as_bytes());
        data.extend_from_slice(b"\n\xFF\xFE not utf-8\n");
        data.extend_from_slice(good.as_bytes());
        match TraceSet::read_jsonl(data.as_slice()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error with line number, got {other:?}"),
        }
    }

    #[test]
    fn read_skips_blank_lines() {
        let good = r#"{"kind":"Cpu","ts_nanos":1,"utilization":0.1,"busy_nanos":5,"request_id":1}"#;
        let data = format!("\n{good}\n\n");
        let ts = TraceSet::read_jsonl(data.as_bytes()).unwrap();
        assert_eq!(ts.cpu.len(), 1);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = sample_set();
        let b = sample_set();
        let before = a.len();
        a.merge(b);
        assert_eq!(a.len(), before * 2);
    }

    #[test]
    fn sort_by_time_orders_streams() {
        let mut ts = sample_set();
        ts.network.push(NetworkRecord {
            ts_nanos: 2,
            size: 1,
            direction: Direction::Egress,
            request_id: 3,
        });
        ts.sort_by_time();
        let times: Vec<u64> = ts.network.iter().map(|r| r.ts_nanos).collect();
        assert_eq!(times, vec![0, 2, 5]);
    }

    #[test]
    fn span_trees_from_store() {
        let ts = sample_set();
        let trees = ts.span_trees();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].len(), 2);
        assert_eq!(trees[0].total_latency_nanos(), 100);
    }

    #[test]
    fn span_trees_group_spans_by_trace() {
        let mut ts = TraceSet::new();
        for tid in (0..10).rev() {
            let t = TraceId(tid);
            ts.spans.push(Span::new(t, SpanId(0), None, "request", 0, 100));
            ts.spans.push(Span::new(t, SpanId(1), Some(SpanId(0)), "cpu", 10, 50));
            ts.spans.push(Span::new(t, SpanId(2), Some(SpanId(1)), "memory", 20, 40));
        }
        // A trace with two roots forms no tree and is skipped.
        ts.spans.push(Span::new(TraceId(20), SpanId(0), None, "a", 0, 1));
        ts.spans.push(Span::new(TraceId(20), SpanId(1), None, "b", 0, 1));
        let trees = ts.span_trees();
        let ids: Vec<u64> = trees.iter().map(|t| t.trace_id().0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert!(trees.iter().all(|t| t.len() == 3));
    }

    #[test]
    fn empty_set_properties() {
        let ts = TraceSet::new();
        assert!(ts.is_empty());
        assert!(ts.span_trees().is_empty());
        let mut buf = Vec::new();
        ts.write_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }
}

//! Dapper-style span trees.
//!
//! Dapper "uses trees of nested RPCs, spans (i.e. tree nodes) and
//! annotations" to associate all work with the request that initiated it.
//! A [`Span`] is one timed section of work; [`TraceTree`] reassembles the
//! spans of one request into the tree and answers the structural questions
//! the in-depth models need (phase order, total latency).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kooza_json::{FromJson, Json, ToJson};

use crate::{Result, TraceError};

/// An interned span name: an immutable, cheaply cloneable string.
///
/// Span names (and annotation messages) draw from a tiny vocabulary —
/// `"request"`, `"disk"`, `"cache miss"` — but attach to millions of
/// spans. Sharing one allocation per distinct name makes cloning a span
/// a refcount bump and lets the KTC block decoder build spans straight
/// from its string table without copying. A `SpanName` compares, hashes,
/// orders, displays and serializes exactly like the underlying string.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanName(Arc<str>);

impl SpanName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for SpanName {
    fn default() -> Self {
        SpanName(Arc::from(""))
    }
}

impl std::ops::Deref for SpanName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for SpanName {
    fn from(s: &str) -> Self {
        SpanName(Arc::from(s))
    }
}

impl From<String> for SpanName {
    fn from(s: String) -> Self {
        SpanName(Arc::from(s))
    }
}

impl From<&SpanName> for SpanName {
    fn from(s: &SpanName) -> Self {
        s.clone()
    }
}

impl PartialEq<str> for SpanName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SpanName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for SpanName {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<SpanName> for str {
    fn eq(&self, other: &SpanName) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<SpanName> for &str {
    fn eq(&self, other: &SpanName) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<SpanName> for String {
    fn eq(&self, other: &SpanName) -> bool {
        self.as_str() == other.as_str()
    }
}

impl std::fmt::Debug for SpanName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for SpanName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for SpanName {
    fn to_json(&self) -> Json {
        // Serializes as a plain string — byte-identical to the owned
        // `String` this type replaced (the JSONL goldens pin this).
        self.as_str().to_json()
    }
}

impl FromJson for SpanName {
    fn from_json(value: &Json) -> kooza_json::Result<Self> {
        String::from_json(value).map(SpanName::from)
    }
}

/// Slots in a [`NameCache`]: more than the simulator's nine span names.
const NAME_CACHE_SLOTS: usize = 16;

/// A value per span name, keyed by the name's address and length, for a
/// pass that looks one up for every span. A simulated or decoded trace
/// shares one allocation per name across all its spans, so nearly every
/// lookup hits here without hashing the string. A trace read from JSONL
/// gives every span its own allocation; then every lookup misses, and the
/// fixed slot count bounds what a miss costs. The cache borrows the names,
/// so no cached address can be freed and reused by a different string
/// while it lives.
#[derive(Debug, Default)]
pub struct NameCache<'a, V> {
    slots: [Option<(&'a str, V)>; NAME_CACHE_SLOTS],
    /// The slot the next miss overwrites, round robin.
    next: usize,
}

impl<'a, V: Copy> NameCache<'a, V> {
    /// The value cached for this allocation of `name`, else the one `miss`
    /// returns, now cached.
    pub fn get_or_insert_with(&mut self, name: &'a str, miss: impl FnOnce() -> V) -> V {
        let mut cached = self.slots.iter().map_while(|slot| *slot);
        if let Some((_, value)) = cached.find(|&(seen, _)| std::ptr::eq(seen, name)) {
            return value;
        }
        let value = miss();
        self.slots[self.next] = Some((name, value));
        self.next = (self.next + 1) % NAME_CACHE_SLOTS;
        value
    }
}

/// Globally unique request (trace) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl ToJson for TraceId {
    fn to_json(&self) -> Json {
        // Newtype ids serialize transparently as the inner integer.
        self.0.to_json()
    }
}

impl FromJson for TraceId {
    fn from_json(value: &Json) -> kooza_json::Result<Self> {
        u64::from_json(value).map(TraceId)
    }
}

/// Identifier of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl ToJson for SpanId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for SpanId {
    fn from_json(value: &Json) -> kooza_json::Result<Self> {
        u64::from_json(value).map(SpanId)
    }
}

/// One timed section of work attributed to a request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request this span belongs to.
    pub trace_id: TraceId,
    /// This span's id, unique within the trace.
    pub span_id: SpanId,
    /// Parent span; `None` for the root.
    pub parent: Option<SpanId>,
    /// Human-readable section name, e.g. `"network"`, `"disk.read"`.
    pub name: SpanName,
    /// Start time, simulated nanoseconds.
    pub start_nanos: u64,
    /// End time, simulated nanoseconds.
    pub end_nanos: u64,
    /// Timestamped free-form annotations.
    pub annotations: Vec<(u64, SpanName)>,
}

impl Span {
    /// Creates a span covering `[start_nanos, end_nanos]`.
    ///
    /// # Panics
    ///
    /// Panics if `end_nanos < start_nanos`.
    pub fn new(
        trace_id: TraceId,
        span_id: SpanId,
        parent: Option<SpanId>,
        name: impl Into<SpanName>,
        start_nanos: u64,
        end_nanos: u64,
    ) -> Self {
        assert!(end_nanos >= start_nanos, "span ends before it starts");
        Span {
            trace_id,
            span_id,
            parent,
            name: name.into(),
            start_nanos,
            end_nanos,
            annotations: Vec::new(),
        }
    }

    /// Adds a timestamped annotation.
    pub fn annotate(&mut self, ts_nanos: u64, message: impl Into<SpanName>) {
        self.annotations.push((ts_nanos, message.into()));
    }

    /// Span duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos - self.start_nanos
    }
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("trace_id".into(), self.trace_id.to_json()),
            ("span_id".into(), self.span_id.to_json()),
            ("parent".into(), self.parent.to_json()),
            ("name".into(), self.name.to_json()),
            ("start_nanos".into(), self.start_nanos.to_json()),
            ("end_nanos".into(), self.end_nanos.to_json()),
            ("annotations".into(), self.annotations.to_json()),
        ])
    }
}

impl FromJson for Span {
    fn from_json(value: &Json) -> kooza_json::Result<Self> {
        Ok(Span {
            trace_id: TraceId::from_json(value.field("trace_id")?)?,
            span_id: SpanId::from_json(value.field("span_id")?)?,
            parent: Option::<SpanId>::from_json(value.field("parent")?)?,
            name: SpanName::from_json(value.field("name")?)?,
            start_nanos: u64::from_json(value.field("start_nanos")?)?,
            end_nanos: u64::from_json(value.field("end_nanos")?)?,
            annotations: Vec::<(u64, SpanName)>::from_json(value.field("annotations")?)?,
        })
    }
}

/// The reassembled span tree of one request.
#[derive(Debug, Clone)]
pub struct TraceTree {
    trace_id: TraceId,
    root: SpanId,
    spans: BTreeMap<SpanId, Span>,
    children: HashMap<SpanId, Vec<SpanId>>,
}

impl TraceTree {
    /// Builds the tree for one trace from its spans.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::MalformedTree`] if the spans are empty, come
    /// from different traces, contain duplicate ids or a span that ends
    /// before it starts, have no unique root, or reference missing parents.
    pub fn build(spans: Vec<Span>) -> Result<Self> {
        if spans.is_empty() {
            return Err(TraceError::MalformedTree("no spans".into()));
        }
        let trace_id = spans[0].trace_id;
        let mut map = BTreeMap::new();
        let mut roots = Vec::new();
        for span in spans {
            if span.trace_id != trace_id {
                return Err(TraceError::MalformedTree(format!(
                    "mixed trace ids {:?} and {:?}",
                    trace_id, span.trace_id
                )));
            }
            if span.end_nanos < span.start_nanos {
                return Err(TraceError::MalformedTree(format!(
                    "span {:?} ends before it starts",
                    span.span_id
                )));
            }
            if span.parent.is_none() {
                roots.push(span.span_id);
            }
            if map.insert(span.span_id, span).is_some() {
                return Err(TraceError::MalformedTree("duplicate span id".into()));
            }
        }
        if roots.len() != 1 {
            return Err(TraceError::MalformedTree(format!(
                "expected exactly one root, found {}",
                roots.len()
            )));
        }
        let mut children: HashMap<SpanId, Vec<SpanId>> = HashMap::new();
        for span in map.values() {
            if let Some(parent) = span.parent {
                if !map.contains_key(&parent) {
                    return Err(TraceError::MalformedTree(format!(
                        "span {:?} references missing parent {:?}",
                        span.span_id, parent
                    )));
                }
                children.entry(parent).or_default().push(span.span_id);
            }
        }
        // Deterministic child order: by start time, then id.
        for kids in children.values_mut() {
            kids.sort_by_key(|id| (map[id].start_nanos, *id));
        }
        Ok(TraceTree {
            trace_id,
            root: roots[0],
            spans: map,
            children,
        })
    }

    /// The trace id.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// The root span.
    pub fn root(&self) -> &Span {
        &self.spans[&self.root]
    }

    /// All spans, ordered by id.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.values()
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the tree is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Children of a span, ordered by start time.
    pub fn children(&self, id: SpanId) -> &[SpanId] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// End-to-end latency: the root span's duration.
    pub fn total_latency_nanos(&self) -> u64 {
        self.root().duration_nanos()
    }

    /// The *phase sequence*: leaf-span names in start-time order. This is
    /// exactly the application-structure information KOOZA's
    /// time-dependency queue is trained on.
    pub fn phase_sequence(&self) -> Vec<&str> {
        let mut leaves: Vec<&Span> = self
            .spans
            .values()
            .filter(|s| self.children(s.span_id).is_empty())
            .collect();
        leaves.sort_by_key(|s| (s.start_nanos, s.span_id));
        leaves.iter().map(|s| s.name.as_str()).collect()
    }

    /// Total time spent in spans whose name matches `name` (leaf view).
    pub fn time_in_phase_nanos(&self, name: &str) -> u64 {
        self.spans
            .values()
            .filter(|s| s.name == name && self.children(s.span_id).is_empty())
            .map(Span::duration_nanos)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request with the GFS shape: net → cpu → (mem, disk) → cpu → net.
    fn gfs_like_trace(tid: u64) -> Vec<Span> {
        let t = TraceId(tid);
        let mut spans = vec![Span::new(t, SpanId(0), None, "request", 0, 1000)];
        spans.push(Span::new(t, SpanId(1), Some(SpanId(0)), "network.in", 0, 50));
        spans.push(Span::new(t, SpanId(2), Some(SpanId(0)), "cpu", 50, 150));
        spans.push(Span::new(t, SpanId(3), Some(SpanId(2)), "memory", 60, 100));
        spans.push(Span::new(t, SpanId(4), Some(SpanId(0)), "disk", 150, 800));
        spans.push(Span::new(t, SpanId(5), Some(SpanId(0)), "cpu", 800, 900));
        spans.push(Span::new(t, SpanId(6), Some(SpanId(0)), "network.out", 900, 1000));
        spans
    }

    #[test]
    fn tree_builds_and_reports_structure() {
        let tree = TraceTree::build(gfs_like_trace(1)).unwrap();
        assert_eq!(tree.len(), 7);
        assert_eq!(tree.root().name, "request");
        assert_eq!(tree.total_latency_nanos(), 1000);
        assert_eq!(tree.children(SpanId(0)).len(), 5);
    }

    #[test]
    fn phase_sequence_orders_leaves_by_time() {
        let tree = TraceTree::build(gfs_like_trace(1)).unwrap();
        assert_eq!(
            tree.phase_sequence(),
            vec!["network.in", "memory", "disk", "cpu", "network.out"]
        );
    }

    #[test]
    fn time_in_phase_sums_leaves() {
        let tree = TraceTree::build(gfs_like_trace(1)).unwrap();
        assert_eq!(tree.time_in_phase_nanos("disk"), 650);
        // "cpu" leaf is only the second cpu span (the first has a child).
        assert_eq!(tree.time_in_phase_nanos("cpu"), 100);
        assert_eq!(tree.time_in_phase_nanos("nope"), 0);
    }

    #[test]
    fn malformed_trees_rejected() {
        assert!(TraceTree::build(vec![]).is_err());
        // Two roots.
        let t = TraceId(1);
        let spans = vec![
            Span::new(t, SpanId(0), None, "a", 0, 1),
            Span::new(t, SpanId(1), None, "b", 0, 1),
        ];
        assert!(TraceTree::build(spans).is_err());
        // Missing parent.
        let spans = vec![
            Span::new(t, SpanId(0), None, "a", 0, 1),
            Span::new(t, SpanId(1), Some(SpanId(9)), "b", 0, 1),
        ];
        assert!(TraceTree::build(spans).is_err());
        // Duplicate id.
        let spans = vec![
            Span::new(t, SpanId(0), None, "a", 0, 1),
            Span::new(t, SpanId(0), Some(SpanId(0)), "b", 0, 1),
        ];
        assert!(TraceTree::build(spans).is_err());
        // Mixed traces.
        let spans = vec![
            Span::new(TraceId(1), SpanId(0), None, "a", 0, 1),
            Span::new(TraceId(2), SpanId(1), Some(SpanId(0)), "b", 0, 1),
        ];
        assert!(TraceTree::build(spans).is_err());
        // A span that ends before it starts (`Span::new` refuses to build
        // one; a decoded trace can hold one).
        let mut inverted = Span::new(t, SpanId(1), Some(SpanId(0)), "b", 0, 1);
        (inverted.start_nanos, inverted.end_nanos) = (5, 2);
        let spans = vec![Span::new(t, SpanId(0), None, "a", 0, 9), inverted];
        assert!(matches!(TraceTree::build(spans), Err(TraceError::MalformedTree(_))));
    }

    #[test]
    fn annotations_attach() {
        let mut s = Span::new(TraceId(1), SpanId(0), None, "x", 0, 10);
        s.annotate(5, "cache miss");
        assert_eq!(s.annotations.len(), 1);
        assert_eq!(s.annotations[0].1, "cache miss");
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_span_panics() {
        Span::new(TraceId(1), SpanId(0), None, "x", 10, 5);
    }

    #[test]
    fn span_json_round_trip() {
        let mut s = Span::new(TraceId(3), SpanId(1), Some(SpanId(0)), "disk", 5, 9);
        s.annotate(6, "seek");
        let json = kooza_json::to_string(&s.to_json());
        let back = Span::from_json(&kooza_json::parse(&json).unwrap()).unwrap();
        assert_eq!(s, back);
        // Root spans have a null parent on the wire.
        let root = Span::new(TraceId(3), SpanId(0), None, "request", 0, 10);
        let json = kooza_json::to_string(&root.to_json());
        assert!(json.contains(r#""parent":null"#), "{json}");
        let back = Span::from_json(&kooza_json::parse(&json).unwrap()).unwrap();
        assert_eq!(root, back);
    }
}

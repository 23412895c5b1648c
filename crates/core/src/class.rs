//! Per-request observation assembly and request classification.
//!
//! Models train on *requests*, not raw record streams; this module joins
//! the four per-subsystem streams and the span tree of each request id
//! (the Dapper global-identifier discipline makes that join possible) into
//! a [`RequestObservation`], and derives the request's structural
//! *class* — its phase sequence signature. Classes are what KOOZA's
//! time-dependency queue is built from.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use kooza_trace::record::{Direction, IoOp};
use kooza_trace::{Span, SpanName, TraceSet};

use crate::{ModelError, Result};

/// The structural signature of a request: its leaf-phase sequence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassSignature(pub Vec<String>);

impl std::fmt::Display for ClassSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.join(" → "))
    }
}

/// One leaf phase of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedPhase {
    /// The leaf span's name, shared with the span it came from.
    pub name: SpanName,
    /// The leaf span's duration, nanoseconds.
    pub duration_nanos: u64,
}

/// Everything observed about one request across all subsystems.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestObservation {
    /// Global request id.
    pub request_id: u64,
    /// Arrival time, nanoseconds.
    pub arrival_nanos: u64,
    /// Ingress payload bytes.
    pub network_in_bytes: u64,
    /// Egress payload bytes (0 if the egress record is missing).
    pub network_out_bytes: u64,
    /// Total CPU busy nanoseconds.
    pub cpu_busy_nanos: u64,
    /// CPU utilization over the request lifetime, `[0, 1]`.
    pub cpu_utilization: f64,
    /// Memory accesses: (bank, bytes, op).
    pub memory: Vec<(u32, u64, IoOp)>,
    /// Storage accesses: (lbn, bytes, op).
    pub storage: Vec<(u64, u64, IoOp)>,
    /// End-to-end latency from the span tree, nanoseconds.
    pub latency_nanos: u64,
    /// Leaf phases in execution order (start time, then span id).
    pub phases: Vec<ObservedPhase>,
}

impl RequestObservation {
    /// The request's structural class: the phase sequence with memory and
    /// storage phases suffixed by their access type (`disk.r`/`disk.w`),
    /// so a read pipeline and a write pipeline with the same phase names
    /// are distinct classes — they stress the subsystems differently.
    pub fn signature(&self) -> ClassSignature {
        ClassKey::of(self).signature()
    }
}

/// A request's class read in place from its observation: the entries of
/// [`RequestObservation::signature`], borrowed instead of built. Keys
/// compare and hash by those entries, so a raw `memory.r` phase and a
/// `memory` phase with mostly reads are the same class.
#[derive(Clone, Copy)]
struct ClassKey<'a> {
    phases: &'a [ObservedPhase],
    /// How a `memory` phase is spelled: `memory`, `memory.r` or `memory.w`.
    memory: &'static str,
    /// How a `disk` phase is spelled: `disk`, `disk.r` or `disk.w`.
    disk: &'static str,
}

impl<'a> ClassKey<'a> {
    fn of(obs: &'a RequestObservation) -> Self {
        ClassKey {
            phases: &obs.phases,
            memory: by_majority(obs.memory.iter().map(|m| m.2), ["memory", "memory.r", "memory.w"]),
            disk: by_majority(obs.storage.iter().map(|s| s.2), ["disk", "disk.r", "disk.w"]),
        }
    }

    fn entries(self) -> impl Iterator<Item = &'a str> {
        self.phases.iter().map(move |p| match p.name.as_str() {
            "memory" => self.memory,
            "disk" => self.disk,
            other => other,
        })
    }

    fn signature(self) -> ClassSignature {
        ClassSignature(self.entries().map(str::to_owned).collect())
    }
}

impl PartialEq for ClassKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.phases.len() == other.phases.len() && self.entries().eq(other.entries())
    }
}

impl Eq for ClassKey<'_> {}

impl Hash for ClassKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.phases.len());
        for entry in self.entries() {
            entry.hash(state);
        }
    }
}

/// The spelling for no accesses, for mostly reads (ties included), or
/// for mostly writes.
fn by_majority(
    ops: impl Iterator<Item = IoOp>,
    [none, read, write]: [&'static str; 3],
) -> &'static str {
    let mut reads = 0usize;
    let mut writes = 0usize;
    for op in ops {
        match op {
            IoOp::Read => reads += 1,
            IoOp::Write => writes += 1,
        }
    }
    if reads == 0 && writes == 0 {
        none
    } else if reads >= writes {
        read
    } else {
        write
    }
}

/// Joins a trace into per-request observations, ordered by arrival, then
/// request id.
///
/// Only requests with a complete span tree are returned (exactly the set a
/// Dapper-style sampled deployment would yield): the span groups
/// [`kooza_trace::TraceTree::build`] accepts.
///
/// # Errors
///
/// Returns [`ModelError::MissingStream`] if the trace has no network
/// records, or [`ModelError::InsufficientRequests`] if no request has a
/// complete span tree.
pub fn assemble_observations(trace: &TraceSet) -> Result<Vec<RequestObservation>> {
    if trace.network.is_empty() {
        return Err(ModelError::MissingStream("network"));
    }
    // Never through `span_trees()`: a `TraceTree` clones every span into
    // per-request maps, and only the root, the leaves and the validity
    // checks are needed here.
    let spans = &trace.spans;
    let groups = SpanGroups::new(spans);
    let mut check = TreeCheck::default();
    let mut leaves: Vec<usize> = Vec::with_capacity(spans.len());
    let mut trees: Vec<Tree> = Vec::with_capacity(groups.len());
    for slot in 0..groups.len() {
        let first_leaf = leaves.len();
        if let Some(root) = check.root(spans, groups.spans(slot), &mut leaves) {
            let root = &spans[root];
            trees.push(Tree {
                arrival_nanos: root.start_nanos,
                latency_nanos: root.duration_nanos(),
                request_id: root.trace_id.0,
                slot,
                leaves: first_leaf..leaves.len(),
            });
        }
    }
    if trees.is_empty() {
        return Err(ModelError::InsufficientRequests { needed: 1, got: 0 });
    }
    trees.sort_unstable_by_key(|t| (t.arrival_nanos, t.request_id));

    // Each slot's position in the output, `None` for invalid trees.
    let mut position: Vec<Option<usize>> = vec![None; groups.len()];
    let mut out: Vec<RequestObservation> = Vec::with_capacity(trees.len());
    for tree in &trees {
        position[tree.slot] = Some(out.len());
        out.push(RequestObservation {
            request_id: tree.request_id,
            arrival_nanos: tree.arrival_nanos,
            network_in_bytes: 0,
            network_out_bytes: 0,
            cpu_busy_nanos: 0,
            cpu_utilization: 0.0,
            memory: Vec::new(),
            storage: Vec::new(),
            latency_nanos: tree.latency_nanos,
            phases: leaves[tree.leaves.clone()]
                .iter()
                .map(|&i| ObservedPhase {
                    name: spans[i].name.clone(),
                    duration_nanos: spans[i].duration_nanos(),
                })
                .collect(),
        });
    }

    let locate = |id: u64| groups.slot(id).and_then(|slot| position[slot]);
    for r in &trace.network {
        if let Some(at) = locate(r.request_id) {
            match r.direction {
                Direction::Ingress => out[at].network_in_bytes += r.size,
                Direction::Egress => out[at].network_out_bytes += r.size,
            }
        }
    }
    for r in &trace.cpu {
        if let Some(at) = locate(r.request_id) {
            out[at].cpu_busy_nanos += r.busy_nanos;
            out[at].cpu_utilization = r.utilization;
        }
    }
    for r in &trace.memory {
        if let Some(at) = locate(r.request_id) {
            out[at].memory.push((r.bank, r.size, r.op));
        }
    }
    for r in &trace.storage {
        if let Some(at) = locate(r.request_id) {
            out[at].storage.push((r.lbn, r.size, r.op));
        }
    }
    Ok(out)
}

/// A request whose spans form a valid tree.
struct Tree {
    arrival_nanos: u64,
    latency_nanos: u64,
    request_id: u64,
    slot: usize,
    /// Its leaf span indices, in the shared leaf buffer.
    leaves: Range<usize>,
}

/// Span indices grouped by trace id. Each distinct id gets a dense slot,
/// numbered in order of first appearance, and a counting sort lays every
/// slot's span indices out contiguously, in trace order.
struct SpanGroups {
    slot_of: HashMap<u64, usize>,
    /// Slot `s` owns `by_slot[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
    by_slot: Vec<usize>,
}

impl SpanGroups {
    fn new(spans: &[Span]) -> Self {
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut slots: Vec<usize> = Vec::with_capacity(spans.len());
        // Spans of one request tend to sit together (each request's are
        // emitted when it completes), so a run of equal ids costs one
        // lookup.
        let mut last: Option<(u64, usize)> = None;
        for span in spans {
            let id = span.trace_id.0;
            let slot = match last {
                Some((prev, slot)) if prev == id => slot,
                _ => {
                    let next = slot_of.len();
                    *slot_of.entry(id).or_insert(next)
                }
            };
            last = Some((id, slot));
            slots.push(slot);
        }
        // Counts become running ends; filling backwards then walks each
        // slot's end down to its start.
        let mut bounds = vec![0usize; slot_of.len() + 1];
        for &slot in &slots {
            bounds[slot] += 1;
        }
        let mut end = 0;
        for bound in &mut bounds {
            end += *bound;
            *bound = end;
        }
        let mut by_slot = vec![0usize; spans.len()];
        for (i, &slot) in slots.iter().enumerate().rev() {
            bounds[slot] -= 1;
            by_slot[bounds[slot]] = i;
        }
        SpanGroups { slot_of, bounds, by_slot }
    }

    /// Number of distinct trace ids.
    fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// The slot of a trace id, if any span carries it.
    fn slot(&self, id: u64) -> Option<usize> {
        self.slot_of.get(&id).copied()
    }

    /// The span indices of one slot, in trace order.
    fn spans(&self, slot: usize) -> &[usize] {
        &self.by_slot[self.bounds[slot]..self.bounds[slot + 1]]
    }
}

/// Scratch buffers for checking span groups, reused across requests.
#[derive(Default)]
struct TreeCheck {
    /// The group's (span id, span index) pairs, sorted.
    ids: Vec<(u64, usize)>,
    /// Whether `ids[i]` is some span's parent.
    has_child: Vec<bool>,
}

impl TreeCheck {
    /// The root of the span group `group` (indices into `spans`) if the
    /// group forms a valid tree, appending its leaves to `leaves` in
    /// (start, span id) order. Returns `None`, appending nothing, for
    /// exactly the groups [`kooza_trace::TraceTree::build`] rejects: a
    /// duplicate span id, not exactly one root, or a missing parent.
    fn root(&mut self, spans: &[Span], group: &[usize], leaves: &mut Vec<usize>) -> Option<usize> {
        self.ids.clear();
        self.ids.extend(group.iter().map(|&i| (spans[i].span_id.0, i)));
        self.ids.sort_unstable();
        if self.ids.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        self.has_child.clear();
        self.has_child.resize(self.ids.len(), false);
        let mut root = None;
        for &(_, i) in &self.ids {
            match spans[i].parent {
                None => {
                    if root.replace(i).is_some() {
                        return None;
                    }
                }
                Some(parent) => {
                    let at = self.ids.binary_search_by_key(&parent.0, |&(id, _)| id).ok()?;
                    self.has_child[at] = true;
                }
            }
        }
        let root = root?;
        let first = leaves.len();
        leaves.extend(
            self.ids
                .iter()
                .zip(&self.has_child)
                .filter(|&(_, &has_child)| !has_child)
                .map(|(&(_, i), _)| i),
        );
        leaves[first..].sort_unstable_by_key(|&i| (spans[i].start_nanos, spans[i].span_id.0));
        Some(root)
    }
}

/// Groups observations by class signature: most frequent class first,
/// ties by signature, members in observation order.
pub fn group_by_class(
    observations: &[RequestObservation],
) -> Vec<(ClassSignature, Vec<&RequestObservation>)> {
    let mut class_of: HashMap<ClassKey<'_>, usize> = HashMap::new();
    let mut out: Vec<(ClassSignature, Vec<&RequestObservation>)> = Vec::new();
    for obs in observations {
        match class_of.entry(ClassKey::of(obs)) {
            Entry::Occupied(class) => out[*class.get()].1.push(obs),
            Entry::Vacant(class) => {
                out.push((class.key().signature(), vec![obs]));
                class.insert(out.len() - 1);
            }
        }
    }
    out.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};

    fn gfs_trace(mix: WorkloadMix, n: u64) -> TraceSet {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        Cluster::new(&config).unwrap().run(n, 11).trace
    }

    #[test]
    fn assembles_every_traced_request() {
        let trace = gfs_trace(WorkloadMix::read_heavy(), 200);
        let obs = assemble_observations(&trace).unwrap();
        assert_eq!(obs.len(), 200);
        for o in &obs {
            // Reads: 1 KB request header in, 64 KB payload out.
            assert_eq!(o.network_in_bytes, 1024);
            assert_eq!(o.network_out_bytes, 64 * 1024);
            assert!(o.latency_nanos > 0);
            assert!(o.cpu_busy_nanos > 0);
            assert!(!o.phases.is_empty());
            assert_eq!(o.memory.len(), 1);
        }
    }

    #[test]
    fn observations_sorted_by_arrival() {
        let trace = gfs_trace(WorkloadMix::mixed(), 150);
        let obs = assemble_observations(&trace).unwrap();
        for w in obs.windows(2) {
            assert!(w[0].arrival_nanos <= w[1].arrival_nanos);
        }
    }

    #[test]
    fn classes_separate_hits_from_misses() {
        // A hot working set produces both cache-hit (5-phase) and miss
        // (6-phase) classes.
        let mix = WorkloadMix { n_chunks: 40, ..WorkloadMix::read_heavy() };
        let trace = gfs_trace(mix, 500);
        let obs = assemble_observations(&trace).unwrap();
        let groups = group_by_class(&obs);
        assert!(groups.len() >= 2, "classes: {}", groups.len());
        let lens: Vec<usize> = groups.iter().map(|(sig, _)| sig.0.len()).collect();
        assert!(lens.contains(&5) && lens.contains(&6), "lens {lens:?}");
        // Most frequent first.
        for w in groups.windows(2) {
            assert!(w[0].1.len() >= w[1].1.len());
        }
        // Storage records only on the miss class.
        for (sig, members) in &groups {
            let has_disk = sig.0.iter().any(|p| p.starts_with("disk"));
            for m in members {
                assert_eq!(!m.storage.is_empty(), has_disk, "sig {sig}");
            }
        }
    }

    #[test]
    fn assembly_matches_span_tree_reference() {
        use kooza_trace::{SpanId, TraceId};
        // The fast grouped join must produce exactly what the
        // TraceTree-based reference produces, including skipping the same
        // malformed span groups.
        let mut trace = gfs_trace(WorkloadMix::mixed(), 300);
        let t = TraceId(1_000_001);
        // Two roots: invalid, must be skipped.
        trace.spans.push(Span::new(t, SpanId(0), None, "request", 1, 10));
        trace.spans.push(Span::new(t, SpanId(1), None, "request", 2, 9));
        // Missing parent: invalid.
        let t2 = TraceId(1_000_002);
        trace.spans.push(Span::new(t2, SpanId(0), None, "request", 1, 10));
        trace.spans.push(Span::new(t2, SpanId(1), Some(SpanId(9)), "cpu", 2, 9));
        // Duplicate span id: invalid.
        let t3 = TraceId(1_000_003);
        trace.spans.push(Span::new(t3, SpanId(0), None, "request", 1, 10));
        trace.spans.push(Span::new(t3, SpanId(0), Some(SpanId(0)), "cpu", 2, 9));
        let obs = assemble_observations(&trace).unwrap();
        let mut reference: Vec<RequestObservation> = trace
            .span_trees()
            .into_iter()
            .map(|tree| {
                let mut leaves: Vec<&Span> = tree
                    .spans()
                    .filter(|s| tree.children(s.span_id).is_empty())
                    .collect();
                leaves.sort_by_key(|s| (s.start_nanos, s.span_id));
                RequestObservation {
                    request_id: tree.trace_id().0,
                    arrival_nanos: tree.root().start_nanos,
                    network_in_bytes: 0,
                    network_out_bytes: 0,
                    cpu_busy_nanos: 0,
                    cpu_utilization: 0.0,
                    memory: Vec::new(),
                    storage: Vec::new(),
                    latency_nanos: tree.total_latency_nanos(),
                    phases: leaves
                        .iter()
                        .map(|s| ObservedPhase {
                            name: s.name.clone(),
                            duration_nanos: s.duration_nanos(),
                        })
                        .collect(),
                }
            })
            .collect();
        reference.sort_by_key(|o| (o.arrival_nanos, o.request_id));
        assert_eq!(obs.len(), reference.len());
        for (a, b) in obs.iter().zip(&reference) {
            assert_eq!(a.request_id, b.request_id);
            assert_eq!(a.arrival_nanos, b.arrival_nanos);
            assert_eq!(a.latency_nanos, b.latency_nanos);
            assert_eq!(a.phases, b.phases);
        }
        // None of the three malformed traces survived.
        assert!(obs.iter().all(|o| o.request_id < 1_000_001));
    }

    #[test]
    fn empty_trace_errors() {
        let trace = TraceSet::new();
        assert!(matches!(
            assemble_observations(&trace),
            Err(ModelError::MissingStream(_))
        ));
    }

    #[test]
    fn trace_without_spans_errors() {
        let mut trace = gfs_trace(WorkloadMix::read_heavy(), 10);
        trace.spans.clear();
        assert!(matches!(
            assemble_observations(&trace),
            Err(ModelError::InsufficientRequests { .. })
        ));
    }

    #[test]
    fn signature_display() {
        let sig = ClassSignature(vec!["a".into(), "b".into()]);
        assert_eq!(sig.to_string(), "a → b");
    }
}

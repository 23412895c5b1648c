//! Per-request observation assembly and request classification.
//!
//! Models train on *requests*, not raw record streams; this module joins
//! the four per-subsystem streams and the span tree of each request id
//! (the Dapper global-identifier discipline makes that join possible) into
//! a [`RequestObservation`], and derives the request's structural
//! *class* — its phase sequence signature. Classes are what KOOZA's
//! time-dependency queue is built from.

use std::collections::{BTreeMap, HashMap};

use kooza_trace::record::{Direction, IoOp};
use kooza_trace::{Span, TraceSet};

use crate::{ModelError, Result};

/// The structural signature of a request: its leaf-phase sequence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassSignature(pub Vec<String>);

impl std::fmt::Display for ClassSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.join(" → "))
    }
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
    /// Leaf phase names in execution order.
    pub phase_sequence: Vec<String>,
    /// Leaf phase durations in nanoseconds, aligned with
    /// [`phase_sequence`](Self::phase_sequence).
    pub phase_durations_nanos: Vec<u64>,
}

impl RequestObservation {
    /// The request's structural class: the phase sequence with memory and
    /// storage phases suffixed by their access type (`disk.r`/`disk.w`),
    /// so a read pipeline and a write pipeline with the same phase names
    /// are distinct classes — they stress the subsystems differently.
    pub fn signature(&self) -> ClassSignature {
        let mem_suffix = majority_suffix(self.memory.iter().map(|m| m.2));
        let disk_suffix = majority_suffix(self.storage.iter().map(|s| s.2));
        ClassSignature(
            self.phase_sequence
                .iter()
                .map(|p| match p.as_str() {
                    "memory" => format!("memory{mem_suffix}"),
                    "disk" => format!("disk{disk_suffix}"),
                    other => other.to_string(),
                })
                .collect(),
        )
    }
}

/// `.r` / `.w` by majority op, empty when there are no accesses.
fn majority_suffix(ops: impl Iterator<Item = IoOp>) -> &'static str {
    let mut reads = 0usize;
    let mut writes = 0usize;
    for op in ops {
        match op {
            IoOp::Read => reads += 1,
            IoOp::Write => writes += 1,
        }
    }
    if reads == 0 && writes == 0 {
        ""
    } else if reads >= writes {
        ".r"
    } else {
        ".w"
    }
}

/// Joins a trace into per-request observations, ordered by arrival.
///
/// Only requests with a complete span tree are returned (exactly the set a
/// Dapper-style sampled deployment would yield).
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
    // Group borrowed spans by trace id. This intentionally bypasses
    // `span_trees()`: building a `TraceTree` clones every span (including
    // its name string) into per-tree maps, and on a 1k-request trace that
    // join dominated the whole training pass. Only the root, the leaf set
    // and the tree-validity checks are needed here, and all three fall out
    // of one pass over the borrowed group.
    let mut by_trace: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in &trace.spans {
        by_trace.entry(span.trace_id.0).or_default().push(span);
    }
    let mut by_request: HashMap<u64, RequestObservation> = HashMap::with_capacity(by_trace.len());
    for (id, spans) in by_trace {
        if let Some(obs) = observation_from_spans(id, &spans) {
            by_request.insert(id, obs);
        }
    }
    if by_request.is_empty() {
        return Err(ModelError::InsufficientRequests { needed: 1, got: 0 });
    }
    for r in &trace.network {
        if let Some(obs) = by_request.get_mut(&r.request_id) {
            match r.direction {
                Direction::Ingress => obs.network_in_bytes += r.size,
                Direction::Egress => obs.network_out_bytes += r.size,
            }
        }
    }
    for r in &trace.cpu {
        if let Some(obs) = by_request.get_mut(&r.request_id) {
            obs.cpu_busy_nanos += r.busy_nanos;
            obs.cpu_utilization = r.utilization;
        }
    }
    for r in &trace.memory {
        if let Some(obs) = by_request.get_mut(&r.request_id) {
            obs.memory.push((r.bank, r.size, r.op));
        }
    }
    for r in &trace.storage {
        if let Some(obs) = by_request.get_mut(&r.request_id) {
            obs.storage.push((r.lbn, r.size, r.op));
        }
    }
    let mut out: Vec<RequestObservation> = by_request.into_values().collect();
    out.sort_by_key(|o| (o.arrival_nanos, o.request_id));
    Ok(out)
}

/// Builds one request's observation skeleton from its borrowed spans, or
/// `None` if they do not form a valid tree — the same groups
/// [`kooza_trace::TraceTree::build`] rejects (duplicate span ids, not
/// exactly one root, or a reference to a missing parent).
fn observation_from_spans(id: u64, spans: &[&Span]) -> Option<RequestObservation> {
    let mut span_ids: Vec<u64> = spans.iter().map(|s| s.span_id.0).collect();
    span_ids.sort_unstable();
    if span_ids.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    let mut root: Option<&Span> = None;
    // Span ids that appear as a parent; the complement is the leaf set.
    let mut parent_ids: Vec<u64> = Vec::with_capacity(spans.len());
    for span in spans {
        match span.parent {
            None => {
                if root.is_some() {
                    return None;
                }
                root = Some(span);
            }
            Some(parent) => {
                if span_ids.binary_search(&parent.0).is_err() {
                    return None;
                }
                parent_ids.push(parent.0);
            }
        }
    }
    let root = root?;
    parent_ids.sort_unstable();
    let mut leaves: Vec<&Span> = spans
        .iter()
        .copied()
        .filter(|s| parent_ids.binary_search(&s.span_id.0).is_err())
        .collect();
    leaves.sort_by_key(|s| (s.start_nanos, s.span_id.0));
    Some(RequestObservation {
        request_id: id,
        arrival_nanos: root.start_nanos,
        network_in_bytes: 0,
        network_out_bytes: 0,
        cpu_busy_nanos: 0,
        cpu_utilization: 0.0,
        memory: Vec::new(),
        storage: Vec::new(),
        latency_nanos: root.duration_nanos(),
        phase_sequence: leaves.iter().map(|s| s.name.to_string()).collect(),
        phase_durations_nanos: leaves.iter().map(|s| s.duration_nanos()).collect(),
    })
}

/// Groups observations by class signature, most frequent class first.
pub fn group_by_class(
    observations: &[RequestObservation],
) -> Vec<(ClassSignature, Vec<&RequestObservation>)> {
    let mut groups: BTreeMap<ClassSignature, Vec<&RequestObservation>> = BTreeMap::new();
    for obs in observations {
        groups.entry(obs.signature()).or_default().push(obs);
    }
    let mut out: Vec<(ClassSignature, Vec<&RequestObservation>)> = groups.into_iter().collect();
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
            assert!(!o.phase_sequence.is_empty());
            assert_eq!(o.phase_sequence.len(), o.phase_durations_nanos.len());
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
                    phase_sequence: leaves.iter().map(|s| s.name.to_string()).collect(),
                    phase_durations_nanos: leaves.iter().map(|s| s.duration_nanos()).collect(),
                }
            })
            .collect();
        reference.sort_by_key(|o| (o.arrival_nanos, o.request_id));
        assert_eq!(obs.len(), reference.len());
        for (a, b) in obs.iter().zip(&reference) {
            assert_eq!(a.request_id, b.request_id);
            assert_eq!(a.arrival_nanos, b.arrival_nanos);
            assert_eq!(a.latency_nanos, b.latency_nanos);
            assert_eq!(a.phase_sequence, b.phase_sequence);
            assert_eq!(a.phase_durations_nanos, b.phase_durations_nanos);
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

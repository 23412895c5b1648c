//! Per-request observation assembly and request classification.
//!
//! Models train on *requests*, not raw record streams; this module joins
//! the four per-subsystem streams and the span tree of each request id
//! (the Dapper global-identifier discipline makes that join possible) into
//! one [`Observations`] table, read a request at a time through
//! [`RequestObservation`], and derives each request's structural
//! *class* — its phase sequence signature. Classes are what KOOZA's
//! time-dependency queue is built from.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;

use kooza_trace::record::{Direction, IoOp};
use kooza_trace::{NameCache, Span, SpanName, TraceSet};

use crate::{ModelError, Result};

/// The structural signature of a request: its leaf-phase sequence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassSignature(pub Vec<String>);

impl std::fmt::Display for ClassSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.join(" → "))
    }
}

/// A span name interned in one [`Observations`] table. Ids from different
/// tables are unrelated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhaseId(usize);

/// One leaf phase of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedPhase {
    /// The leaf span's name, interned in the table the phase belongs to
    /// (spelled by [`RequestObservation::phase_name`]).
    pub name: PhaseId,
    /// The leaf span's duration, nanoseconds.
    pub duration_nanos: u64,
}

/// Per-request observations joined from a trace: one row per request with
/// a complete span tree, in (arrival, request id) order.
///
/// Rows are fixed-size. A row's leaf phases, memory accesses and storage
/// accesses are ranges of three columns the rows share, laid out row after
/// row, and each distinct leaf name is stored once per table. Read rows
/// with [`iter`](Observations::iter) or [`get`](Observations::get).
#[derive(Debug, Clone, Default)]
pub struct Observations {
    rows: Vec<Row>,
    phases: Vec<ObservedPhase>,
    memory: Vec<(u32, u64, IoOp)>,
    storage: Vec<(u64, u64, IoOp)>,
    /// What a [`PhaseId`] indexes: each leaf name once, in order of first
    /// use.
    names: Vec<SpanName>,
}

/// One request of an [`Observations`] table; `phases`, `memory` and
/// `storage` index the table's columns.
#[derive(Debug, Clone)]
struct Row {
    request_id: u64,
    arrival_nanos: u64,
    network_in_bytes: u64,
    network_out_bytes: u64,
    cpu_busy_nanos: u64,
    cpu_utilization: f64,
    latency_nanos: u64,
    phases: Range<usize>,
    memory: Range<usize>,
    storage: Range<usize>,
}

impl Observations {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no requests.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The request in row `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<RequestObservation<'_>> {
        self.rows.get(index).map(|row| self.view(row))
    }

    /// The requests, in row order.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = RequestObservation<'_>> + ExactSizeIterator {
        self.rows.iter().map(|row| self.view(row))
    }

    /// Every request's memory accesses `(bank, bytes, op)`, request after
    /// request, each request's in stream order.
    pub fn memory(&self) -> &[(u32, u64, IoOp)] {
        &self.memory
    }

    /// Every request's storage accesses `(lbn, bytes, op)`, request after
    /// request, each request's in stream order.
    pub fn storage(&self) -> &[(u64, u64, IoOp)] {
        &self.storage
    }

    fn view(&self, row: &Row) -> RequestObservation<'_> {
        RequestObservation {
            request_id: row.request_id,
            arrival_nanos: row.arrival_nanos,
            network_in_bytes: row.network_in_bytes,
            network_out_bytes: row.network_out_bytes,
            cpu_busy_nanos: row.cpu_busy_nanos,
            cpu_utilization: row.cpu_utilization,
            memory: &self.memory[row.memory.clone()],
            storage: &self.storage[row.storage.clone()],
            latency_nanos: row.latency_nanos,
            phases: &self.phases[row.phases.clone()],
            names: &self.names,
        }
    }

    /// Splits the table into `parts` tables, each row going to
    /// `part(row)`; every part keeps the rows' order.
    ///
    /// # Panics
    ///
    /// Panics if `part` returns `parts` or more.
    pub(crate) fn partition(
        &self,
        parts: usize,
        part: impl Fn(RequestObservation<'_>) -> usize,
    ) -> Vec<Observations> {
        let mut out: Vec<Observations> = (0..parts)
            .map(|_| Observations { names: self.names.clone(), ..Observations::default() })
            .collect();
        for row in &self.rows {
            let to = &mut out[part(self.view(row))];
            to.rows.push(Row {
                phases: append(&mut to.phases, &self.phases[row.phases.clone()]),
                memory: append(&mut to.memory, &self.memory[row.memory.clone()]),
                storage: append(&mut to.storage, &self.storage[row.storage.clone()]),
                ..row.clone()
            });
        }
        out
    }
}

/// Appends `items` to `column`, returning where they landed.
fn append<T: Clone>(column: &mut Vec<T>, items: &[T]) -> Range<usize> {
    let start = column.len();
    column.extend_from_slice(items);
    start..column.len()
}

/// Everything observed about one request across all subsystems: a row of
/// an [`Observations`] table, borrowed from it.
#[derive(Debug, Clone, Copy)]
pub struct RequestObservation<'a> {
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
    pub memory: &'a [(u32, u64, IoOp)],
    /// Storage accesses: (lbn, bytes, op).
    pub storage: &'a [(u64, u64, IoOp)],
    /// End-to-end latency from the span tree, nanoseconds.
    pub latency_nanos: u64,
    /// Leaf phases in execution order (start time, then span id).
    pub phases: &'a [ObservedPhase],
    names: &'a [SpanName],
}

impl<'a> RequestObservation<'a> {
    /// The name `phase` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `phase` comes from a table with fewer names than this
    /// request's.
    pub fn phase_name(&self, phase: PhaseId) -> &'a SpanName {
        &self.names[phase.0]
    }

    /// The request's structural class: the phase sequence with memory and
    /// storage phases suffixed by their access type (`disk.r`/`disk.w`),
    /// so a read pipeline and a write pipeline with the same phase names
    /// are distinct classes — they stress the subsystems differently.
    pub fn signature(&self) -> ClassSignature {
        let memory = MEMORY[majority(self.memory.iter().map(|m| m.2))];
        let disk = DISK[majority(self.storage.iter().map(|s| s.2))];
        ClassSignature(
            self.phases
                .iter()
                .map(|p| match self.phase_name(p.name).as_str() {
                    "memory" => memory,
                    "disk" => disk,
                    other => other,
                })
                .map(str::to_owned)
                .collect(),
        )
    }
}

/// How a `memory` phase is spelled in a signature, by [`majority`].
const MEMORY: [&str; 3] = ["memory", "memory.r", "memory.w"];
/// How a `disk` phase is spelled in a signature, by [`majority`].
const DISK: [&str; 3] = ["disk", "disk.r", "disk.w"];

/// 0 for no accesses, 1 for mostly reads (ties included), 2 for mostly
/// writes.
fn majority(ops: impl Iterator<Item = IoOp>) -> usize {
    let mut reads = 0usize;
    let mut writes = 0usize;
    for op in ops {
        match op {
            IoOp::Read => reads += 1,
            IoOp::Write => writes += 1,
        }
    }
    if reads == 0 && writes == 0 {
        0
    } else if reads >= writes {
        1
    } else {
        2
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
pub fn assemble_observations(trace: &TraceSet) -> Result<Observations> {
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

    // Each slot's row, `None` for invalid trees.
    let mut position: Vec<Option<usize>> = vec![None; groups.len()];
    let mut names = NameTable::default();
    let mut rows: Vec<Row> = Vec::with_capacity(trees.len());
    let mut phases: Vec<ObservedPhase> = Vec::with_capacity(leaves.len());
    for tree in &trees {
        position[tree.slot] = Some(rows.len());
        let first_phase = phases.len();
        phases.extend(leaves[tree.leaves.clone()].iter().map(|&i| ObservedPhase {
            name: names.id(&spans[i].name),
            duration_nanos: spans[i].duration_nanos(),
        }));
        rows.push(Row {
            request_id: tree.request_id,
            arrival_nanos: tree.arrival_nanos,
            network_in_bytes: 0,
            network_out_bytes: 0,
            cpu_busy_nanos: 0,
            cpu_utilization: 0.0,
            latency_nanos: tree.latency_nanos,
            phases: first_phase..phases.len(),
            memory: 0..0,
            storage: 0..0,
        });
    }

    let locate = |id: u64| groups.slot(id).and_then(|slot| position[slot]);
    for r in &trace.network {
        if let Some(at) = locate(r.request_id) {
            match r.direction {
                Direction::Ingress => rows[at].network_in_bytes += r.size,
                Direction::Egress => rows[at].network_out_bytes += r.size,
            }
        }
    }
    for r in &trace.cpu {
        if let Some(at) = locate(r.request_id) {
            rows[at].cpu_busy_nanos += r.busy_nanos;
            rows[at].cpu_utilization = r.utilization;
        }
    }
    let memory = column(
        &mut rows,
        &trace.memory,
        |r| locate(r.request_id),
        |row| &mut row.memory,
        |r| (r.bank, r.size, r.op),
    );
    let storage = column(
        &mut rows,
        &trace.storage,
        |r| locate(r.request_id),
        |row| &mut row.storage,
        |r| (r.lbn, r.size, r.op),
    );
    Ok(Observations {
        rows,
        phases,
        memory,
        storage,
        names: names.names,
    })
}

/// Lays one record stream out as a column: the `entry` of every record
/// `row_of` places, row after row, each row's in stream order. Sets each
/// row's `range` of the column.
fn column<R, T>(
    rows: &mut [Row],
    records: &[R],
    row_of: impl Fn(&R) -> Option<usize>,
    range: fn(&mut Row) -> &mut Range<usize>,
    entry: impl Fn(&R) -> T,
) -> Vec<T> {
    let located: Vec<Option<usize>> = records.iter().map(row_of).collect();
    // Counts first, in the ranges' ends; then each range starts, empty,
    // where the previous one ends, and grows as its records are placed.
    for &at in located.iter().flatten() {
        range(&mut rows[at]).end += 1;
    }
    let mut end = 0;
    for row in rows.iter_mut() {
        let range = range(row);
        let count = range.end;
        *range = end..end;
        end += count;
    }
    let mut order = vec![0usize; end];
    for (k, &at) in located.iter().enumerate() {
        if let Some(at) = at {
            let range = range(&mut rows[at]);
            order[range.end] = k;
            range.end += 1;
        }
    }
    order.iter().map(|&k| entry(&records[k])).collect()
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

/// The keys of one trace-id table's hash: a draw from the
/// multiply-add-shift family h(x) = ((a·x + b) mod 2^128) >> 64, with `a`
/// and `b` taken from a fresh std [`RandomState`]. The family is strongly
/// universal, so ids fixed in a trace file cannot be chosen to collide
/// without knowing the keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdKeys {
    a: u128,
    b: u128,
}

impl IdKeys {
    fn random() -> Self {
        let state = RandomState::new();
        let word = |i: u64| u128::from(state.hash_one(i));
        IdKeys { a: word(0) << 64 | word(1), b: word(2) << 64 | word(3) }
    }
}

impl BuildHasher for IdKeys {
    type Hasher = IdHash;

    fn build_hasher(&self) -> IdHash {
        IdHash { keys: *self, hash: 0 }
    }
}

/// [`IdKeys`]'s hash of one `u64` id.
struct IdHash {
    keys: IdKeys,
    hash: u64,
}

impl Hasher for IdHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("trace-id tables hash u64 keys only");
    }

    fn write_u64(&mut self, id: u64) {
        let IdKeys { a, b } = self.keys;
        // The high half of a 128-bit value: the cast keeps every bit.
        self.hash = (a.wrapping_mul(u128::from(id)).wrapping_add(b) >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Span indices grouped by trace id. Each distinct id gets a dense slot,
/// numbered in order of first appearance, and a counting sort lays every
/// slot's span indices out contiguously, in trace order.
struct SpanGroups {
    slot_of: HashMap<u64, usize, IdKeys>,
    /// Slot `s` owns `by_slot[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
    by_slot: Vec<usize>,
}

impl SpanGroups {
    fn new(spans: &[Span]) -> Self {
        let mut slot_of: HashMap<u64, usize, IdKeys> = HashMap::with_hasher(IdKeys::random());
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
    /// span that ends before it starts, a duplicate span id, not exactly
    /// one root, or a missing parent.
    fn root(&mut self, spans: &[Span], group: &[usize], leaves: &mut Vec<usize>) -> Option<usize> {
        if group.iter().any(|&i| spans[i].end_nanos < spans[i].start_nanos) {
            return None;
        }
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

/// Interns the leaf names of one join. The string map sits behind a
/// [`NameCache`], so a decoded or simulated trace, whose spans share one
/// allocation per name, is interned without hashing each span's name.
#[derive(Default)]
struct NameTable<'a> {
    names: Vec<SpanName>,
    /// Each name's index in `names`.
    ids: HashMap<&'a str, usize>,
    cache: NameCache<'a, usize>,
}

impl<'a> NameTable<'a> {
    fn id(&mut self, name: &'a SpanName) -> PhaseId {
        PhaseId(self.cache.get_or_insert_with(name, || {
            *self.ids.entry(name).or_insert_with(|| {
                self.names.push(name.clone());
                self.names.len() - 1
            })
        }))
    }
}

/// Groups observations by class signature: most frequent class first,
/// ties by signature, members as row indices in row order.
///
/// Classes are keyed by small integers, never by strings: every spelling
/// a signature entry can take is interned once, each phase maps to its
/// entry's id through its [`PhaseId`], and a request's key is its run of
/// entry ids. So a raw `memory.r` phase and a `memory` phase with mostly
/// reads are one class, as their signatures are equal.
pub fn group_by_class(observations: &Observations) -> Vec<(ClassSignature, Vec<usize>)> {
    let mut entries = Entries::default();
    let spellings: Vec<Spelling> = observations
        .names
        .iter()
        .map(|name| match name.as_str() {
            "memory" => Spelling::Memory(MEMORY.map(|s| entries.id(s))),
            "disk" => Spelling::Disk(DISK.map(|s| entries.id(s))),
            other => Spelling::Fixed(entries.id(other)),
        })
        .collect();
    // One entry id per phase, at the phase's own position in the column.
    let mut keys = vec![0usize; observations.phases.len()];
    for row in &observations.rows {
        let memory = majority(observations.memory[row.memory.clone()].iter().map(|m| m.2));
        let disk = majority(observations.storage[row.storage.clone()].iter().map(|s| s.2));
        for at in row.phases.clone() {
            keys[at] = match spellings[observations.phases[at].name.0] {
                Spelling::Fixed(entry) => entry,
                Spelling::Memory(entry) => entry[memory],
                Spelling::Disk(entry) => entry[disk],
            };
        }
    }
    let mut class_of: HashMap<&[usize], usize> = HashMap::new();
    let mut out: Vec<(ClassSignature, Vec<usize>)> = Vec::new();
    for (index, row) in observations.rows.iter().enumerate() {
        match class_of.entry(&keys[row.phases.clone()]) {
            Entry::Occupied(class) => out[*class.get()].1.push(index),
            Entry::Vacant(class) => {
                let signature = class.key().iter().map(|&e| entries.spelled[e].to_owned());
                out.push((ClassSignature(signature.collect()), vec![index]));
                class.insert(out.len() - 1);
            }
        }
    }
    out.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
    out
}

/// The signature entry (or entries) a leaf name stands for.
enum Spelling {
    Fixed(usize),
    /// Indexed by the request's memory [`majority`].
    Memory([usize; 3]),
    /// Indexed by the request's storage [`majority`].
    Disk([usize; 3]),
}

/// Signature entries interned by spelling.
#[derive(Default)]
struct Entries<'a> {
    ids: HashMap<&'a str, usize>,
    spelled: Vec<&'a str>,
}

impl<'a> Entries<'a> {
    fn id(&mut self, spelling: &'a str) -> usize {
        *self.ids.entry(spelling).or_insert_with(|| {
            self.spelled.push(spelling);
            self.spelled.len() - 1
        })
    }
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
        for o in obs.iter() {
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
        for (a, b) in obs.iter().zip(obs.iter().skip(1)) {
            assert!(a.arrival_nanos <= b.arrival_nanos);
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
            for &m in members {
                assert_eq!(!obs.get(m).unwrap().storage.is_empty(), has_disk, "sig {sig}");
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
        // A leaf that ends before it starts: invalid.
        let t4 = TraceId(1_000_004);
        trace.spans.push(Span::new(t4, SpanId(0), None, "request", 1, 10));
        let mut inverted = Span::new(t4, SpanId(1), Some(SpanId(0)), "cpu", 2, 9);
        inverted.end_nanos = 1;
        trace.spans.push(inverted);
        let obs = assemble_observations(&trace).unwrap();
        // (request id, arrival, latency, phases), in the join's order.
        type Expected = (u64, u64, u64, Vec<(String, u64)>);
        let mut reference: Vec<Expected> = trace
            .span_trees()
            .into_iter()
            .map(|tree| {
                let mut leaves: Vec<&Span> = tree
                    .spans()
                    .filter(|s| tree.children(s.span_id).is_empty())
                    .collect();
                leaves.sort_by_key(|s| (s.start_nanos, s.span_id));
                let phases =
                    leaves.iter().map(|s| (s.name.to_string(), s.duration_nanos())).collect();
                let id = tree.trace_id().0;
                (id, tree.root().start_nanos, tree.total_latency_nanos(), phases)
            })
            .collect();
        reference.sort_by_key(|&(id, arrival, ..)| (arrival, id));
        assert_eq!(obs.len(), reference.len());
        for (a, (id, arrival, latency, phases)) in obs.iter().zip(&reference) {
            assert_eq!(a.request_id, *id);
            assert_eq!(a.arrival_nanos, *arrival);
            assert_eq!(a.latency_nanos, *latency);
            let got: Vec<(String, u64)> = a
                .phases
                .iter()
                .map(|p| (a.phase_name(p.name).to_string(), p.duration_nanos))
                .collect();
            assert_eq!(&got, phases);
        }
        // None of the four malformed traces survived.
        assert!(obs.iter().all(|o| o.request_id < 1_000_001));
    }

    #[test]
    fn id_tables_draw_their_own_hash_keys() {
        // Keys are per table, from std's per-process random state: two
        // tables never share them, so they cannot have become constants.
        let (a, b) = (IdKeys::random(), IdKeys::random());
        assert_ne!(a, b);
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
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

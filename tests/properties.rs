//! Property-based tests over the core invariants, spanning crates.
//!
//! Ported from `proptest` to the in-repo `kooza-check` harness: every
//! property runs a deterministic, seeded case stream (configure with
//! `KOOZA_CHECK_CASES` / `KOOZA_CHECK_SEED`), so a green run is green
//! everywhere.

use kooza_check::gen::{
    choice, f64_range, u64_range, usize_range, vec_of, zip2, zip3, zip4, zip5, zip6,
};
use kooza_check::{checker, ensure};

use kooza_markov::MarkovChainBuilder;
use kooza_queueing::analytic::{mg1, mm1, mmc};
use kooza_sim::rng::Rng64;
use kooza_sim::{Engine, SimDuration, Tally};
use kooza_stats::dist::{Distribution, Exponential, LogNormal, Pareto, Uniform, Weibull};
use kooza_stats::summary::percentile;
use kooza_trace::characterize::{arrival_profile, storage_profile};
use kooza_trace::record::{Direction, IoOp, NetworkRecord, StorageRecord};

/// Every distribution's quantile inverts its cdf on the open interval.
#[test]
fn quantile_inverts_cdf() {
    checker("quantile_inverts_cdf").run(
        zip6(
            f64_range(0.001, 0.999), // p
            f64_range(0.1, 50.0),    // rate
            f64_range(-3.0, 3.0),    // mu
            f64_range(0.05, 2.0),    // sigma
            f64_range(1.05, 4.0),    // alpha
            f64_range(0.3, 4.0),     // shape
        ),
        |&(p, rate, mu, sigma, alpha, shape)| {
            let dists: Vec<Box<dyn Distribution>> = vec![
                Box::new(Exponential::new(rate).unwrap()),
                Box::new(LogNormal::new(mu, sigma).unwrap()),
                Box::new(Pareto::new(0.5, alpha).unwrap()),
                Box::new(Weibull::new(shape, 1.5).unwrap()),
                Box::new(Uniform::new(mu, mu + 2.0).unwrap()),
            ];
            for d in &dists {
                let x = d.quantile(p);
                let back = d.cdf(x);
                ensure!((back - p).abs() < 1e-6, "{}: cdf(q({p})) = {back}", d.name());
            }
            Ok(())
        },
    );
}

/// Cdfs are monotone non-decreasing.
#[test]
fn cdf_is_monotone() {
    checker("cdf_is_monotone").run(
        zip3(f64_range(-10.0, 10.0), f64_range(-10.0, 10.0), f64_range(0.1, 3.0)),
        |&(a, b, sigma)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let d = LogNormal::new(0.0, sigma).unwrap();
            ensure!(d.cdf(lo) <= d.cdf(hi) + 1e-15, "cdf({lo}) > cdf({hi})");
            Ok(())
        },
    );
}

/// Samples fall inside the support and within extreme quantiles.
#[test]
fn samples_respect_support() {
    checker("samples_respect_support").run(
        zip2(u64_range(0, 5000), f64_range(1.1, 4.0)),
        |&(seed, alpha)| {
            let d = Pareto::new(2.0, alpha).unwrap();
            let mut rng = Rng64::new(seed);
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                ensure!(x >= 2.0, "sample {x} below support");
            }
            Ok(())
        },
    );
}

/// Trained Markov chains always have stochastic rows, whatever the
/// observed sequence.
#[test]
fn markov_rows_stochastic() {
    checker("markov_rows_stochastic").run(
        vec_of(usize_range(0, 6), 2, 200),
        |seq: &Vec<usize>| {
            let chain = MarkovChainBuilder::new(6).observe_sequence(seq).build().unwrap();
            for i in 0..6 {
                let sum: f64 = chain.row(i).iter().sum();
                ensure!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
                ensure!(
                    chain.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)),
                    "row {i} has out-of-range probabilities"
                );
            }
            let pi = chain.stationary().unwrap();
            let total: f64 = pi.iter().sum();
            ensure!((total - 1.0).abs() < 1e-9, "stationary sums to {total}");
            Ok(())
        },
    );
}

/// Little's law holds in every stable analytic queue.
#[test]
fn littles_law() {
    checker("littles_law").run(
        zip4(
            f64_range(0.1, 9.0),   // lambda
            f64_range(10.0, 20.0), // mu
            usize_range(1, 8),     // c
            f64_range(0.0, 4.0),   // scv
        ),
        |&(lambda, mu, c, scv)| {
            for m in [
                mm1(lambda, mu).unwrap(),
                mmc(lambda, mu, c).unwrap(),
                mg1(lambda, 1.0 / mu, scv).unwrap(),
            ] {
                ensure!(
                    (m.mean_jobs - lambda * m.mean_response).abs() < 1e-9,
                    "L = {} but λW = {}",
                    m.mean_jobs,
                    lambda * m.mean_response
                );
                ensure!(m.mean_wait >= -1e-12, "negative wait {}", m.mean_wait);
                ensure!(m.mean_response >= m.mean_wait, "response below wait");
            }
            Ok(())
        },
    );
}

/// The event engine delivers every event exactly once, in time order.
#[test]
fn engine_delivers_in_order() {
    checker("engine_delivers_in_order").run(
        vec_of(u64_range(0, 1_000_000), 1, 100),
        |delays: &Vec<u64>| {
            let mut eng: Engine<usize> = Engine::new();
            for (i, &d) in delays.iter().enumerate() {
                eng.schedule(SimDuration::from_nanos(d), i);
            }
            let mut seen = vec![false; delays.len()];
            let mut last = 0u64;
            while let Some((t, ev)) = eng.next() {
                ensure!(t.as_nanos() >= last, "time went backwards");
                last = t.as_nanos();
                ensure!(!seen[ev], "event {ev} delivered twice");
                seen[ev] = true;
            }
            ensure!(seen.iter().all(|&s| s), "some event was never delivered");
            Ok(())
        },
    );
}

/// Welford tally agrees with direct two-pass computation.
#[test]
fn tally_matches_two_pass() {
    checker("tally_matches_two_pass").run(
        vec_of(f64_range(-1e6, 1e6), 2, 200),
        |data: &Vec<f64>| {
            let mut tally = Tally::new();
            for &x in data {
                tally.record(x);
            }
            let mean = data.iter().sum::<f64>() / data.len() as f64;
            let var =
                data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
            ensure!(
                (tally.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
                "mean {} vs {mean}",
                tally.mean()
            );
            ensure!(
                (tally.variance() - var).abs() < 1e-5 * (1.0 + var.abs()),
                "variance {} vs {var}",
                tally.variance()
            );
            Ok(())
        },
    );
}

/// Trace characterization never panics on arbitrary record orderings —
/// including duplicate timestamps and fully reversed input — and the
/// derived interarrival features are non-negative with a positive,
/// finite arrival rate (regression for the zero-span / unsorted-input
/// edge cases in `characterize.rs`).
#[test]
fn characterization_tolerates_any_record_order() {
    checker("characterization_tolerates_any_record_order").run(
        vec_of(
            zip3(
                u64_range(0, 1_000), // timestamps: a tight range forces duplicates
                u64_range(0, 100_000),
                u64_range(1, 1 << 20),
            ),
            1,
            80,
        ),
        |recs: &Vec<(u64, u64, u64)>| {
            let storage: Vec<StorageRecord> = recs
                .iter()
                .enumerate()
                .map(|(i, &(ts, lbn, size))| StorageRecord {
                    ts_nanos: ts,
                    lbn,
                    size,
                    op: if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                    request_id: i as u64,
                })
                .collect();
            let sp = storage_profile(&storage).expect("non-empty storage trace");
            ensure!(sp.count == recs.len(), "dropped records");
            if let Some(ia) = &sp.interarrival {
                ensure!(ia.mean >= 0.0, "negative mean interarrival {}", ia.mean);
            }
            let network: Vec<NetworkRecord> = recs
                .iter()
                .enumerate()
                .map(|(i, &(ts, _, size))| NetworkRecord {
                    ts_nanos: ts,
                    size,
                    direction: Direction::Ingress,
                    request_id: i as u64,
                })
                .collect();
            let ap = arrival_profile(&network).expect("non-empty ingress trace");
            ensure!(
                ap.interarrivals.iter().all(|&g| g >= 0.0),
                "negative interarrival"
            );
            ensure!(
                ap.rate_per_sec > 0.0 && ap.rate_per_sec.is_finite(),
                "degenerate rate {}",
                ap.rate_per_sec
            );
            Ok(())
        },
    );
}

/// Percentiles are monotone in p and bounded by min/max.
#[test]
fn percentiles_monotone() {
    checker("percentiles_monotone").run(
        zip3(
            vec_of(f64_range(-1e3, 1e3), 1, 100),
            f64_range(0.0, 100.0),
            f64_range(0.0, 100.0),
        ),
        |(data, p1, p2): &(Vec<f64>, f64, f64)| {
            let (lo, hi) = if p1 <= p2 { (*p1, *p2) } else { (*p2, *p1) };
            let a = percentile(data, lo);
            let b = percentile(data, hi);
            ensure!(a <= b + 1e-12, "p{lo} = {a} above p{hi} = {b}");
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            ensure!(a >= min - 1e-12 && b <= max + 1e-12, "percentiles outside [min, max]");
            Ok(())
        },
    );
}

/// The shard mailbox exchange delivers every message to its destination
/// in canonical `(time, shard, seq)` order, conserves the message count,
/// and is invariant under the order outboxes reach the barrier — the
/// invariant `kooza-gfs`'s sharded cluster determinism rests on.
#[test]
fn mailbox_exchange_is_canonical_and_permutation_invariant() {
    use kooza_sim::{Envelope, ShardedEngine};
    checker("mailbox_exchange_canonical").run(
        zip3(
            usize_range(1, 6), // shard count
            // messages: (sender, destination, send-time offset) triples,
            // folded into range by the property so every case is valid.
            vec_of(zip3(usize_range(0, 63), usize_range(0, 63), u64_range(0, 500)), 0, 120),
            u64_range(0, 3), // extra empty windows to interleave
            ),
        |(n_shards, sends, spins): &(usize, Vec<(usize, usize, u64)>, u64)| {
            let n = *n_shards;
            let run = |permute: bool| -> (Vec<Vec<Envelope<u64>>>, u64) {
                let mut eng: ShardedEngine<u64> =
                    ShardedEngine::new(n, SimDuration::from_micros(10));
                let mut boxes = eng.outboxes();
                for _ in 0..*spins {
                    let _ = eng.exchange(boxes.iter_mut());
                }
                for (i, &(from, to, at)) in sends.iter().enumerate() {
                    boxes[from % n].send(to % n, kooza_sim::SimTime::from_nanos(at), i as u64);
                }
                let inboxes = if permute {
                    // Hand the outboxes over in reverse shard order.
                    eng.exchange(boxes.iter_mut().rev())
                } else {
                    eng.exchange(boxes.iter_mut())
                };
                (inboxes, eng.messages())
            };
            let (inboxes, messages) = run(false);
            let (permuted, _) = run(true);
            ensure!(inboxes == permuted, "outbox handover order leaked into delivery");
            let delivered: usize = inboxes.iter().map(Vec::len).sum();
            ensure!(delivered == sends.len(), "{delivered} of {} delivered", sends.len());
            ensure!(messages == sends.len() as u64, "message counter drifted");
            for (to, inbox) in inboxes.iter().enumerate() {
                for pair in inbox.windows(2) {
                    let (a, b) = (&pair[0], &pair[1]);
                    ensure!(
                        (a.at, a.from, a.seq) < (b.at, b.from, b.seq),
                        "inbox {to} out of canonical order: \
                         ({:?},{},{}) !< ({:?},{},{})",
                        a.at, a.from, a.seq, b.at, b.from, b.seq
                    );
                }
                // Every delivered payload really was addressed here.
                for env in inbox {
                    let (_, sent_to, _) = sends[env.msg as usize];
                    ensure!(sent_to % n == to, "message {} leaked to shard {to}", env.msg);
                }
            }
            Ok(())
        },
    );
}

/// One generated request: id kind, raw id, spans as (parent pick, name,
/// start, duration, order key), defect, and records as (kind, value, op
/// bit, order key).
type RequestSpec = (
    u64,
    u64,
    Vec<(usize, usize, u64, u64, u64)>,
    usize,
    Vec<(usize, u64, u64, u64)>,
);

const PHASE_NAMES: [&str; 10] = [
    "request",
    "network.in",
    "cpu",
    "memory",
    "memory.r",
    "memory.w",
    "disk",
    "disk.r",
    "disk.w",
    "network.out",
];

/// Builds a trace from generated requests. Trace ids are dense and
/// colliding, sparse, huge, equal in every low bit or arbitrary; span
/// groups may carry a duplicate span id, a second root, a missing parent
/// or a span that ends before it starts, or have no spans at all. With
/// `interleave`, spans and records of all requests are listed by their
/// order keys; otherwise request by request. Four fixed requests pin the class spellings: a raw `memory.r` phase on a
/// request whose memory records are writes, a `memory` phase with as many
/// reads as writes, a bare `memory` phase next to a `disk` phase, and a
/// `memory` phase whose records are writes.
fn generated_trace(requests: &[RequestSpec], interleave: bool) -> kooza_trace::TraceSet {
    use kooza_trace::record::{CpuRecord, MemoryRecord};
    use kooza_trace::{Span, SpanId, SpanName, TraceId, TraceSet};

    let op = |bit: u64| if bit == 0 { IoOp::Read } else { IoOp::Write };
    let mut spans: Vec<(u64, Span)> = Vec::new();
    // (order key, kind, request id, value, op bit)
    let mut records: Vec<(u64, usize, u64, u64, u64)> = Vec::new();
    for (kind, raw, span_specs, defect, record_specs) in requests {
        let id = match kind {
            0 => raw % 4,
            1 => raw * 1_000_003,
            2 => u64::MAX - raw,
            3 => raw << 40,
            _ => *raw,
        };
        let t = TraceId(id);
        // Span ids are descending multiples of 3, so sorting by id differs
        // from trace order and 1, 2 and 4 are free for the defects.
        let n = span_specs.len() as u64;
        for (j, &(pick, name, start, duration, key)) in span_specs.iter().enumerate() {
            let parent = (j > 0).then(|| SpanId(3 * (n - (pick % j) as u64)));
            let id = SpanId(3 * (n - j as u64));
            let span = Span::new(t, id, parent, PHASE_NAMES[name], start, start + duration);
            spans.push((key, span));
        }
        let key = span_specs.first().map_or(0, |s| s.4);
        match defect {
            3 => spans.push((key, Span::new(t, SpanId(3 * n), Some(SpanId(3 * n)), "cpu", 1, 2))),
            4 => spans.push((key, Span::new(t, SpanId(1), None, "request", 0, 9))),
            5 => spans.push((key, Span::new(t, SpanId(2), Some(SpanId(4)), "cpu", 1, 2))),
            // A literal, since `Span::new` refuses to build it.
            6 => spans.push((
                key,
                Span {
                    trace_id: t,
                    span_id: SpanId(4),
                    parent: Some(SpanId(3 * n)),
                    name: SpanName::from("cpu"),
                    start_nanos: 2,
                    end_nanos: 1,
                    annotations: Vec::new(),
                },
            )),
            _ => {}
        }
        for &(kind, value, bit, key) in record_specs {
            records.push((key, kind, id, value, bit));
        }
    }
    for k in 0..4u64 {
        let t = TraceId((1 << 62) + k);
        let leaves: &[&str] = match k {
            0 => &["memory.r"],
            2 => &["memory", "disk"],
            _ => &["memory"],
        };
        spans.push((500, Span::new(t, SpanId(0), None, "request", 5 + k, 50)));
        for (j, name) in leaves.iter().enumerate() {
            let start = 6 + k + j as u64;
            let leaf = Span::new(t, SpanId(j as u64 + 1), Some(SpanId(0)), *name, start, start + 3);
            spans.push((500, leaf));
        }
        let memory_ops: &[u64] = match k {
            0 | 3 => &[1],
            1 => &[1, 0],
            _ => &[],
        };
        for &bit in memory_ops {
            records.push((500, 3, (1 << 62) + k, 64, bit));
        }
        if k == 2 {
            records.push((500, 4, (1 << 62) + k, 4096, 1));
        }
    }
    if interleave {
        spans.sort_by_key(|(key, _)| *key);
        records.sort_by_key(|r| r.0);
    }
    let mut trace = TraceSet::new();
    trace.spans = spans.into_iter().map(|(_, span)| span).collect();
    for (ts, (_, kind, request_id, value, bit)) in records.into_iter().enumerate() {
        let ts_nanos = ts as u64;
        match kind {
            0 | 1 => trace.network.push(NetworkRecord {
                ts_nanos,
                size: value,
                direction: if kind == 0 { Direction::Ingress } else { Direction::Egress },
                request_id,
            }),
            2 => trace.cpu.push(CpuRecord {
                ts_nanos,
                utilization: value as f64 / 4999.0,
                busy_nanos: value,
                request_id,
            }),
            3 => trace.memory.push(MemoryRecord {
                ts_nanos,
                bank: (value % 8) as u32,
                size: value,
                op: op(bit),
                request_id,
            }),
            _ => trace.storage.push(StorageRecord {
                ts_nanos,
                lbn: value * 1000,
                size: value,
                op: op(bit),
                request_id,
            }),
        }
    }
    trace
}

/// One request as the span-tree reference joins it: the fields of
/// `kooza::RequestObservation`, owned, with phase names spelled out.
#[derive(Debug, PartialEq)]
struct JoinedRequest {
    request_id: u64,
    arrival_nanos: u64,
    network_in_bytes: u64,
    network_out_bytes: u64,
    cpu_busy_nanos: u64,
    cpu_utilization: f64,
    memory: Vec<(u32, u64, IoOp)>,
    storage: Vec<(u64, u64, IoOp)>,
    latency_nanos: u64,
    phases: Vec<(String, u64)>,
}

impl JoinedRequest {
    /// Every field of one row of the join, read through its row view.
    fn of(o: &kooza::RequestObservation<'_>) -> Self {
        JoinedRequest {
            request_id: o.request_id,
            arrival_nanos: o.arrival_nanos,
            network_in_bytes: o.network_in_bytes,
            network_out_bytes: o.network_out_bytes,
            cpu_busy_nanos: o.cpu_busy_nanos,
            cpu_utilization: o.cpu_utilization,
            memory: o.memory.to_vec(),
            storage: o.storage.to_vec(),
            latency_nanos: o.latency_nanos,
            phases: o
                .phases
                .iter()
                .map(|p| (o.phase_name(p.name).to_string(), p.duration_nanos))
                .collect(),
        }
    }
}

/// The join as the span-tree API spells it: `span_trees()` for the trees,
/// then every record of a request with a tree, in stream order.
fn reference_observations(
    trace: &kooza_trace::TraceSet,
) -> Result<Vec<JoinedRequest>, kooza::ModelError> {
    use kooza::ModelError;
    use std::collections::BTreeMap;

    if trace.network.is_empty() {
        return Err(ModelError::MissingStream("network"));
    }
    let mut by_id: BTreeMap<u64, JoinedRequest> = BTreeMap::new();
    for tree in trace.span_trees() {
        let mut leaves: Vec<&kooza_trace::Span> =
            tree.spans().filter(|s| tree.children(s.span_id).is_empty()).collect();
        leaves.sort_by_key(|s| (s.start_nanos, s.span_id));
        let observation = JoinedRequest {
            request_id: tree.trace_id().0,
            arrival_nanos: tree.root().start_nanos,
            network_in_bytes: 0,
            network_out_bytes: 0,
            cpu_busy_nanos: 0,
            cpu_utilization: 0.0,
            memory: Vec::new(),
            storage: Vec::new(),
            latency_nanos: tree.total_latency_nanos(),
            phases: leaves.iter().map(|s| (s.name.to_string(), s.duration_nanos())).collect(),
        };
        by_id.insert(observation.request_id, observation);
    }
    if by_id.is_empty() {
        return Err(ModelError::InsufficientRequests { needed: 1, got: 0 });
    }
    for r in &trace.network {
        if let Some(o) = by_id.get_mut(&r.request_id) {
            match r.direction {
                Direction::Ingress => o.network_in_bytes += r.size,
                Direction::Egress => o.network_out_bytes += r.size,
            }
        }
    }
    for r in &trace.cpu {
        if let Some(o) = by_id.get_mut(&r.request_id) {
            o.cpu_busy_nanos += r.busy_nanos;
            o.cpu_utilization = r.utilization;
        }
    }
    for r in &trace.memory {
        if let Some(o) = by_id.get_mut(&r.request_id) {
            o.memory.push((r.bank, r.size, r.op));
        }
    }
    for r in &trace.storage {
        if let Some(o) = by_id.get_mut(&r.request_id) {
            o.storage.push((r.lbn, r.size, r.op));
        }
    }
    let mut out: Vec<JoinedRequest> = by_id.into_values().collect();
    out.sort_by_key(|o| (o.arrival_nanos, o.request_id));
    Ok(out)
}

/// The observation join equals the span-tree reference on every field of
/// every row, over malformed span groups, orphaned records and arbitrary
/// id layouts; and class grouping equals grouping by `signature()` in a
/// `BTreeMap`, most frequent class first, ties by signature.
#[test]
fn observation_join_and_grouping_match_reference() {
    use kooza::class::{assemble_observations, group_by_class};
    use kooza::ClassSignature;
    use std::collections::BTreeMap;

    let span = zip5(
        usize_range(0, 8),                 // parent pick among earlier spans
        usize_range(0, PHASE_NAMES.len()), // name
        u64_range(0, 16),                  // start: ties exercise the span-id order
        u64_range(0, 40),                  // duration
        u64_range(0, 1000),                // order key
    );
    let record = zip4(
        usize_range(0, 5),  // network in, network out, cpu, memory, storage
        u64_range(0, 5000), // size / busy time
        u64_range(0, 2),    // read or write
        u64_range(0, 1000), // order key
    );
    let request = zip5(
        u64_range(0, 5),       // id kind
        u64_range(0, 1 << 20), // raw id
        vec_of(span, 0, 7),
        // Defect: none (0-2), duplicate id, two roots, missing parent, or a
        // span that ends before it starts.
        usize_range(0, 7),
        vec_of(record, 0, 8),
    );
    checker("observation_join_and_grouping_match_reference").run(
        zip2(vec_of(request, 0, 16), choice(vec![false, true])),
        |(requests, interleave): &(Vec<RequestSpec>, bool)| {
            let trace = generated_trace(requests, *interleave);
            let joined = (assemble_observations(&trace), reference_observations(&trace));
            let (got, want) = match joined {
                (Ok(got), Ok(want)) => (got, want),
                (Err(got), Err(want)) => {
                    ensure!(got.to_string() == want.to_string(), "error {got} != {want}");
                    return Ok(());
                }
                (got, want) => {
                    return Err(kooza_check::CaseResult::Fail(format!("{got:?} != {want:?}")));
                }
            };
            ensure!(
                got.len() == want.len(),
                "{} observations, reference {}",
                got.len(),
                want.len()
            );
            for (g, w) in got.iter().zip(&want) {
                let g = JoinedRequest::of(&g);
                ensure!(g == *w, "observation {g:?} != reference {w:?}");
                ensure!(
                    g.cpu_utilization.to_bits() == w.cpu_utilization.to_bits(),
                    "request {}: utilization {} != {}",
                    w.request_id,
                    g.cpu_utilization,
                    w.cpu_utilization
                );
            }

            let request = |row: usize| got.get(row).unwrap().request_id;
            let groups: Vec<(ClassSignature, Vec<u64>)> = group_by_class(&got)
                .into_iter()
                .map(|(sig, members)| (sig, members.into_iter().map(request).collect()))
                .collect();
            let mut by_signature: BTreeMap<ClassSignature, Vec<u64>> = BTreeMap::new();
            for o in got.iter() {
                by_signature.entry(o.signature()).or_default().push(o.request_id);
            }
            let mut expected: Vec<(ClassSignature, Vec<u64>)> = by_signature.into_iter().collect();
            expected.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
            ensure!(groups == expected, "classes {groups:?} != reference {expected:?}");
            Ok(())
        },
    );
}

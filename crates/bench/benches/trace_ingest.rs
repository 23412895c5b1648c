//! Trace ingest benchmarks: JSONL text vs KTC binary columnar.
//!
//! The cross-examination pipeline is trace-in, model-out; at roadmap
//! scales parsing dominates `fit`/`validate` wall-clock long before the
//! models do. These benches measure both serialization paths over the
//! same ≥100k-span synthetic trace — write MB/s, read MB/s, and the
//! end-to-end `kooza fit` (parse + train) — so `BENCH_trace.json`
//! documents the KTC speedup. Nothing else measures the JSONL rows.
//!
//! Archived report: `KOOZA_BENCH_JSON=$PWD/BENCH_trace.json cargo bench \
//! -p kooza-bench --bench trace_ingest -- --mode full`, from the
//! repository root. Judge a change by timing the parent build and the
//! change alternately on one host, not against the archived medians.

use std::hint::black_box;

use kooza::{Kooza, WorkloadModel};
use kooza_bench::harness::Harness;
use kooza_sim::rng::Rng64;
use kooza_trace::{
    CpuRecord, Direction, IoOp, MemoryRecord, NetworkRecord, Span, SpanId, StorageRecord,
    TraceId, TraceSet,
};

/// Requests in the benchmark trace. Seven spans per request puts the
/// span count at 140k — comfortably past the 100k-span bar the ingest
/// acceptance criteria are stated against.
const REQUESTS: u64 = 20_000;

/// A synthetic trace with the GFS simulator's shape (per-request span
/// tree plus per-subsystem records), generated directly so the benches
/// measure serialization, not simulation.
fn synthetic_trace(requests: u64) -> TraceSet {
    let mut rng = Rng64::new(4242);
    let mut ts = TraceSet::new();
    let names = ["master.lookup", "cache.probe", "chunkserver.read", "disk.io", "net.reply"];
    let mut t = 0u64;
    for r in 0..requests {
        t += 20_000 + rng.next_bounded(80_000);
        let start = t;
        let service = 200_000 + rng.next_bounded(1_800_000);
        let end = start + service;
        ts.network.push(NetworkRecord {
            ts_nanos: start,
            size: 512 + rng.next_bounded(65_536),
            direction: Direction::Ingress,
            request_id: r,
        });
        ts.network.push(NetworkRecord {
            ts_nanos: end,
            size: 128 + rng.next_bounded(4_096),
            direction: Direction::Egress,
            request_id: r,
        });
        ts.cpu.push(CpuRecord {
            ts_nanos: start + 1_000,
            utilization: rng.next_f64(),
            busy_nanos: service / 4,
            request_id: r,
        });
        ts.memory.push(MemoryRecord {
            ts_nanos: start + 2_000,
            bank: rng.next_bounded(8) as u32,
            size: 64,
            op: IoOp::Read,
            request_id: r,
        });
        ts.storage.push(StorageRecord {
            ts_nanos: start + 3_000,
            lbn: rng.next_bounded(1 << 30),
            size: 4_096 << rng.next_bounded(4),
            op: if rng.next_bounded(4) == 0 { IoOp::Write } else { IoOp::Read },
            request_id: r,
        });
        let mut root = Span::new(TraceId(r), SpanId(0), None, "request", start, end);
        root.annotate(start + 500, "queued");
        ts.spans.push(root);
        let step = service / (names.len() as u64 + 1);
        for (i, name) in names.iter().enumerate() {
            let s = start + step * (i as u64 + 1);
            ts.spans.push(Span::new(
                TraceId(r),
                SpanId(i as u64 + 1),
                Some(SpanId(0)),
                *name,
                s,
                s + step,
            ));
        }
        ts.spans.push(Span::new(
            TraceId(r),
            SpanId(names.len() as u64 + 1),
            Some(SpanId(1)),
            "disk.io",
            start + step,
            start + step + step / 2,
        ));
    }
    ts
}

fn main() {
    let mut h = Harness::from_args();
    let trace = synthetic_trace(REQUESTS);
    assert!(trace.spans.len() >= 100_000, "bench trace too small: {}", trace.spans.len());

    let mut jsonl = Vec::new();
    trace.write_jsonl(&mut jsonl).unwrap();
    let mut ktc = Vec::new();
    trace.write_ktc(&mut ktc).unwrap();
    println!(
        "trace: {} spans, {} records | jsonl {:.1} MB, ktc {:.1} MB ({:.1}x smaller)\n",
        trace.spans.len(),
        trace.len(),
        jsonl.len() as f64 / 1e6,
        ktc.len() as f64 / 1e6,
        jsonl.len() as f64 / ktc.len() as f64,
    );

    // Write throughput, measured against each format's own output size.
    h.bench_throughput("trace_write_jsonl", jsonl.len() as u64, |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(jsonl.len());
            trace.write_jsonl(&mut out).unwrap();
            black_box(out.len())
        })
    });
    h.bench_throughput("trace_write_ktc", ktc.len() as u64, |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(ktc.len());
            trace.write_ktc(&mut out).unwrap();
            black_box(out.len())
        })
    });

    // Read (ingest) throughput — the number the ≥5x acceptance bar is
    // stated against, normalized to the *same* logical trace by charging
    // both parsers the JSONL byte size.
    h.bench_throughput("trace_read_jsonl", jsonl.len() as u64, |b| {
        b.iter(|| black_box(TraceSet::read_jsonl(jsonl.as_slice()).unwrap().len()))
    });
    h.bench_throughput("trace_read_ktc_equiv_mb", jsonl.len() as u64, |b| {
        b.iter(|| black_box(TraceSet::read_ktc(ktc.as_slice()).unwrap().len()))
    });
    // And against its own (smaller) wire size, for the raw decode rate.
    h.bench_throughput("trace_read_ktc", ktc.len() as u64, |b| {
        b.iter(|| black_box(TraceSet::read_ktc(ktc.as_slice()).unwrap().len()))
    });

    // `kooza fit` end to end: parse the serialized trace, train KOOZA.
    h.bench_function("fit_e2e_jsonl", |b| {
        b.iter(|| {
            let ts = TraceSet::read_jsonl(jsonl.as_slice()).unwrap();
            black_box(Kooza::fit(&ts).unwrap().parameter_count())
        })
    });
    h.bench_function("fit_e2e_ktc", |b| {
        b.iter(|| {
            let ts = TraceSet::read_ktc(ktc.as_slice()).unwrap();
            black_box(Kooza::fit(&ts).unwrap().parameter_count())
        })
    });

    h.finish();
}

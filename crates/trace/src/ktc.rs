//! KTC (Kooza Trace Columnar): the compact binary trace format.
//!
//! JSONL traces are the I/O bottleneck long before the models are — a
//! million-request trace is gigabytes of text parsed span-by-span. KTC is
//! the columnar alternative: per-field column arrays, delta+varint-encoded
//! timestamps and string-interned span names inside a length-prefixed
//! block container, written by [`TraceSet::write_ktc`] and decoded block
//! by block straight into the owned [`TraceSet`] every model trains on
//! ([`TraceSet::read_ktc`]). JSONL stays the interchange format and the
//! *golden oracle*: every KTC round trip must be span-for-span identical
//! to the JSONL round trip (pinned by `tests/ktc_properties.rs`). A file's
//! name or leading bytes say which of the two it holds
//! ([`TraceSet::read_file`], [`TraceSet::write_file`]).
//!
//! # Container layout
//!
//! ```text
//! file    := header block* end
//! header  := magic "KTC1" | version u16 LE | flags u16 LE (reserved, 0)
//! block   := tag u8 | count varint | payload_len varint | payload bytes
//! end     := tag 0xFF | 0 | 0
//! ```
//!
//! Block tags: `0` string table, `1` storage, `2` cpu, `3` memory,
//! `4` network, `5` spans. The end block is mandatory — a stream that hits
//! EOF without it is reported as [`TraceError::Truncated`], so partial
//! writes never parse as silently shorter traces.
//!
//! # Column encodings
//!
//! * **varint** — LEB128, at most 10 bytes; over-long encodings are
//!   rejected as [`TraceError::Corrupt`].
//! * **delta** — zigzag(current `wrapping_sub` previous) per block, so
//!   sorted timestamps encode as 1–2 byte deltas while *any* `u64`
//!   sequence (duplicates, regressions, `u64::MAX`) round-trips exactly.
//! * **interning** — span names and annotation messages are indices into
//!   a cumulative string table; each spans block is preceded by a string
//!   table block holding the strings first seen in it. Out-of-range
//!   indices are rejected as [`TraceError::Corrupt`].
//! * Floats (`CpuRecord::utilization`) are 8-byte IEEE-754 LE — bit-exact,
//!   unlike any decimal text path.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::Path;

use crate::record::{CpuRecord, Direction, IoOp, MemoryRecord, NetworkRecord, StorageRecord};
use crate::span::{NameCache, Span, SpanId, SpanName, TraceId};
use crate::store::TraceSet;
use crate::{Result, TraceError};

/// The four magic bytes opening every KTC stream.
const MAGIC: [u8; 4] = *b"KTC1";

/// Container version this build writes and understands.
const VERSION: u16 = 1;

/// Rows per emitted block: large enough to amortize per-block headers,
/// small enough that one block's decode buffers stay small.
const BLOCK_ROWS: usize = 4096;

const TAG_STRINGS: u8 = 0;
const TAG_STORAGE: u8 = 1;
const TAG_CPU: u8 = 2;
const TAG_MEMORY: u8 = 3;
const TAG_NETWORK: u8 = 4;
const TAG_SPANS: u8 = 5;
const TAG_END: u8 = 0xFF;

// ---------------------------------------------------------------------------
// Primitive encoders
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed delta into the varint-friendly unsigned space.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a wrapping delta against `prev` and advances it.
fn put_delta(out: &mut Vec<u8>, prev: &mut u64, current: u64) {
    put_varint(out, zigzag(current.wrapping_sub(*prev) as i64));
    *prev = current;
}

// ---------------------------------------------------------------------------
// Payload cursor: checked decoding with absolute offsets
// ---------------------------------------------------------------------------

/// Bounds-checked reader over one block payload. Every failure carries the
/// absolute stream offset so corrupt files are diagnosable.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], base: u64) -> Self {
        Cursor { buf, pos: 0, base }
    }

    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn truncated(&self, what: &'static str) -> TraceError {
        TraceError::Truncated { offset: self.offset(), while_reading: what }
    }

    fn corrupt(&self, message: impl Into<String>) -> TraceError {
        TraceError::Corrupt { offset: self.offset(), message: message.into() }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| self.truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// LEB128 varint; rejects encodings longer than 10 bytes or carrying
    /// bits beyond 64.
    fn varint(&mut self, what: &'static str) -> Result<u64> {
        let mut value = 0u64;
        for i in 0..10 {
            let byte = self.u8(what)?;
            let payload = u64::from(byte & 0x7F);
            if i == 9 && payload > 1 {
                return Err(self.corrupt(format!("over-long varint while reading {what}")));
            }
            value |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.corrupt(format!("over-long varint while reading {what}")))
    }

    /// Zigzag wrapping delta applied to `prev`, advancing it.
    fn delta(&mut self, prev: &mut u64, what: &'static str) -> Result<u64> {
        let d = unzigzag(self.varint(what)?);
        *prev = prev.wrapping_add(d as u64);
        Ok(*prev)
    }

    fn f64(&mut self, what: &'static str) -> Result<f64> {
        let raw = self.bytes(8, what)?;
        Ok(f64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Capacity guard: a corrupt `count` must not trigger a huge allocation,
/// so reserve at most what the payload could physically hold (every row
/// costs ≥ 1 byte).
fn guarded_capacity(count: u64, payload_len: usize) -> usize {
    (count as usize).min(payload_len)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// KTC encoder behind [`TraceSet::write_ktc`]: the per-stream `write_*`
/// methods each emit one or more blocks, then [`finish`](KtcWriter::finish)
/// writes the end marker.
struct KtcWriter<W: Write> {
    w: W,
    /// Cumulative intern table: string → index, in first-appearance order.
    intern: HashMap<String, u64>,
    n_interned: u64,
}

impl<W: Write> KtcWriter<W> {
    /// Creates a writer and emits the header.
    fn new(mut w: W) -> Result<Self> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        kooza_obs::global::counter_add("trace.ktc.write_bytes", 8);
        Ok(KtcWriter { w, intern: HashMap::new(), n_interned: 0 })
    }

    fn write_block(&mut self, tag: u8, count: usize, payload: &[u8]) -> Result<()> {
        let mut head = Vec::with_capacity(1 + 10 + 10);
        head.push(tag);
        put_varint(&mut head, count as u64);
        put_varint(&mut head, payload.len() as u64);
        self.w.write_all(&head)?;
        self.w.write_all(payload)?;
        kooza_obs::global::counter_add("trace.ktc.write_blocks", 1);
        kooza_obs::global::counter_add(
            "trace.ktc.write_bytes",
            (head.len() + payload.len()) as u64,
        );
        Ok(())
    }

    /// Writes storage records as columnar blocks of [`BLOCK_ROWS`].
    fn write_storage(&mut self, rows: &[StorageRecord]) -> Result<()> {
        for chunk in rows.chunks(BLOCK_ROWS) {
            let mut payload = Vec::with_capacity(chunk.len() * 6);
            let mut prev = 0u64;
            for r in chunk {
                put_delta(&mut payload, &mut prev, r.ts_nanos);
            }
            for r in chunk {
                put_varint(&mut payload, r.lbn);
            }
            for r in chunk {
                put_varint(&mut payload, r.size);
            }
            for r in chunk {
                payload.push(io_op_code(r.op));
            }
            for r in chunk {
                put_varint(&mut payload, r.request_id);
            }
            self.write_block(TAG_STORAGE, chunk.len(), &payload)?;
        }
        Ok(())
    }

    /// Writes CPU records as columnar blocks.
    fn write_cpu(&mut self, rows: &[CpuRecord]) -> Result<()> {
        for chunk in rows.chunks(BLOCK_ROWS) {
            let mut payload = Vec::with_capacity(chunk.len() * 12);
            let mut prev = 0u64;
            for r in chunk {
                put_delta(&mut payload, &mut prev, r.ts_nanos);
            }
            for r in chunk {
                payload.extend_from_slice(&r.utilization.to_le_bytes());
            }
            for r in chunk {
                put_varint(&mut payload, r.busy_nanos);
            }
            for r in chunk {
                put_varint(&mut payload, r.request_id);
            }
            self.write_block(TAG_CPU, chunk.len(), &payload)?;
        }
        Ok(())
    }

    /// Writes memory records as columnar blocks.
    fn write_memory(&mut self, rows: &[MemoryRecord]) -> Result<()> {
        for chunk in rows.chunks(BLOCK_ROWS) {
            let mut payload = Vec::with_capacity(chunk.len() * 6);
            let mut prev = 0u64;
            for r in chunk {
                put_delta(&mut payload, &mut prev, r.ts_nanos);
            }
            for r in chunk {
                put_varint(&mut payload, u64::from(r.bank));
            }
            for r in chunk {
                put_varint(&mut payload, r.size);
            }
            for r in chunk {
                payload.push(io_op_code(r.op));
            }
            for r in chunk {
                put_varint(&mut payload, r.request_id);
            }
            self.write_block(TAG_MEMORY, chunk.len(), &payload)?;
        }
        Ok(())
    }

    /// Writes network records as columnar blocks.
    fn write_network(&mut self, rows: &[NetworkRecord]) -> Result<()> {
        for chunk in rows.chunks(BLOCK_ROWS) {
            let mut payload = Vec::with_capacity(chunk.len() * 5);
            let mut prev = 0u64;
            for r in chunk {
                put_delta(&mut payload, &mut prev, r.ts_nanos);
            }
            for r in chunk {
                put_varint(&mut payload, r.size);
            }
            for r in chunk {
                payload.push(match r.direction {
                    Direction::Ingress => 0,
                    Direction::Egress => 1,
                });
            }
            for r in chunk {
                put_varint(&mut payload, r.request_id);
            }
            self.write_block(TAG_NETWORK, chunk.len(), &payload)?;
        }
        Ok(())
    }

    /// Interns a string, returning its index; records new strings in
    /// `fresh` for the next string-table block.
    fn intern(&mut self, s: &str, fresh: &mut Vec<String>) -> u64 {
        if let Some(&idx) = self.intern.get(s) {
            return idx;
        }
        let idx = self.n_interned;
        self.intern.insert(s.to_string(), idx);
        self.n_interned += 1;
        fresh.push(s.to_string());
        idx
    }

    /// Writes spans as columnar blocks, each preceded (when needed) by a
    /// string-table block interning the names first seen in it.
    fn write_spans(&mut self, rows: &[Span]) -> Result<()> {
        // Fresh for every call: the cache compares name addresses, which
        // only `rows` keeps from being reused by other strings.
        let mut names = NameCache::default();
        for chunk in rows.chunks(BLOCK_ROWS) {
            let mut fresh = Vec::new();
            // Column buffers: names and annotations intern as we go.
            let mut payload = Vec::with_capacity(chunk.len() * 10);
            let mut prev_trace = 0u64;
            for s in chunk {
                put_delta(&mut payload, &mut prev_trace, s.trace_id.0);
            }
            for s in chunk {
                put_varint(&mut payload, s.span_id.0);
            }
            for s in chunk {
                payload.push(u8::from(s.parent.is_some()));
            }
            for s in chunk {
                if let Some(p) = s.parent {
                    put_varint(&mut payload, p.0);
                }
            }
            for s in chunk {
                let idx = names.get_or_insert_with(&s.name, || self.intern(&s.name, &mut fresh));
                put_varint(&mut payload, idx);
            }
            let mut prev_start = 0u64;
            for s in chunk {
                put_delta(&mut payload, &mut prev_start, s.start_nanos);
            }
            for s in chunk {
                // End as a zigzag wrapping offset from start: tiny for real
                // durations, exact for any (even inverted) pair.
                put_varint(&mut payload, zigzag(s.end_nanos.wrapping_sub(s.start_nanos) as i64));
            }
            for s in chunk {
                put_varint(&mut payload, s.annotations.len() as u64);
            }
            let mut ann_payload = Vec::new();
            for s in chunk {
                for (ts, msg) in &s.annotations {
                    put_varint(&mut ann_payload, *ts);
                    let idx = self.intern(msg, &mut fresh);
                    put_varint(&mut ann_payload, idx);
                }
            }
            payload.extend_from_slice(&ann_payload);
            if !fresh.is_empty() {
                let mut table = Vec::new();
                let n = fresh.len();
                for s in &fresh {
                    put_varint(&mut table, s.len() as u64);
                    table.extend_from_slice(s.as_bytes());
                }
                self.write_block(TAG_STRINGS, n, &table)?;
            }
            self.write_block(TAG_SPANS, chunk.len(), &payload)?;
            kooza_obs::global::counter_add("trace.ktc.write_spans", chunk.len() as u64);
        }
        Ok(())
    }

    /// Writes the end marker and flushes.
    fn finish(mut self) -> Result<()> {
        self.w.write_all(&[TAG_END, 0, 0])?;
        kooza_obs::global::counter_add("trace.ktc.write_bytes", 3);
        self.w.flush()?;
        Ok(())
    }
}

fn io_op_code(op: IoOp) -> u8 {
    match op {
        IoOp::Read => 0,
        IoOp::Write => 1,
    }
}

fn io_op_from(code: u8, cur: &Cursor<'_>) -> Result<IoOp> {
    match code {
        0 => Ok(IoOp::Read),
        1 => Ok(IoOp::Write),
        other => Err(cur.corrupt(format!("invalid IoOp code {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// KTC decoder behind [`TraceSet::read_ktc`]: validates the header, then
/// decodes one block at a time and appends its rows to the set.
struct KtcReader<R: Read> {
    r: R,
    /// Cumulative intern table as shared [`SpanName`]s: each distinct
    /// string is allocated once when its table block arrives; span decode
    /// then builds names by index with a refcount bump, never copying.
    strings: Vec<SpanName>,
    offset: u64,
}

impl<R: Read> KtcReader<R> {
    /// Opens a KTC stream, reading and validating the header:
    /// [`TraceError::BadMagic`] if the stream does not start with `KTC1`,
    /// [`TraceError::UnsupportedVersion`] on a newer container version,
    /// [`TraceError::Truncated`] if the header itself is cut short.
    fn new(mut r: R) -> Result<Self> {
        let mut header = [0u8; 8];
        read_exact_at(&mut r, &mut header, 0, "header")?;
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&header[..4]);
        if magic != MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        Ok(KtcReader { r, strings: Vec::new(), offset: 8 })
    }

    /// Decodes every block through the end marker into one set:
    /// [`TraceError::Truncated`] when the stream ends mid-block or before
    /// the end marker; [`TraceError::Corrupt`] on structural violations
    /// (unknown tags, over-long varints, bad intern indices, trailing
    /// data after the end marker).
    fn read_set(mut self) -> Result<TraceSet> {
        let mut out = TraceSet::new();
        loop {
            let mut tag = [0u8; 1];
            read_exact_at(&mut self.r, &mut tag, self.offset, "block tag")?;
            self.offset += 1;
            let tag = tag[0];
            if tag == TAG_END {
                let mut zeros = [0u8; 2];
                read_exact_at(&mut self.r, &mut zeros, self.offset, "end marker")?;
                self.offset += 2;
                if zeros != [0, 0] {
                    return Err(TraceError::Corrupt {
                        offset: self.offset - 2,
                        message: "end marker carries a nonzero count or length".into(),
                    });
                }
                // Anything after the end marker is not ours to ignore.
                let mut extra = [0u8; 1];
                match self.r.read(&mut extra) {
                    Ok(0) => {}
                    Ok(_) => {
                        return Err(TraceError::Corrupt {
                            offset: self.offset,
                            message: "trailing data after end marker".into(),
                        })
                    }
                    Err(e) => return Err(TraceError::Io(e)),
                }
                return Ok(out);
            }
            let count = self.stream_varint("block count")?;
            let payload_len = self.stream_varint("block payload length")?;
            let payload_len_usize = usize::try_from(payload_len).map_err(|_| {
                TraceError::Corrupt {
                    offset: self.offset,
                    message: format!("block payload length {payload_len} exceeds address space"),
                }
            })?;
            // Bounded read: a corrupt length on a truncated file errors
            // out instead of pre-allocating the declared size.
            let mut payload = Vec::new();
            let got = (&mut self.r)
                .take(payload_len)
                .read_to_end(&mut payload)
                .map_err(TraceError::Io)?;
            if got < payload_len_usize {
                return Err(TraceError::Truncated {
                    offset: self.offset + got as u64,
                    while_reading: "block payload",
                });
            }
            let base = self.offset;
            self.offset += payload_len;
            kooza_obs::global::counter_add("trace.ktc.read_blocks", 1);
            kooza_obs::global::counter_add("trace.ktc.read_bytes", payload_len);
            let mut cur = Cursor::new(&payload, base);
            match tag {
                TAG_STRINGS => {
                    self.decode_strings(&mut cur, count)?;
                    continue;
                }
                TAG_STORAGE => out.storage.append(&mut decode_storage(&mut cur, count)?),
                TAG_CPU => out.cpu.append(&mut decode_cpu(&mut cur, count)?),
                TAG_MEMORY => out.memory.append(&mut decode_memory(&mut cur, count)?),
                TAG_NETWORK => out.network.append(&mut decode_network(&mut cur, count)?),
                TAG_SPANS => out.spans.append(&mut decode_spans(&mut cur, count, &self.strings)?),
                other => {
                    return Err(TraceError::Corrupt {
                        offset: base - 1,
                        message: format!("unknown block tag {other:#04x}"),
                    })
                }
            }
            if !cur.finished() {
                return Err(cur.corrupt(format!(
                    "{} unread byte(s) at end of block payload",
                    payload.len() - cur.pos
                )));
            }
            kooza_obs::global::counter_add("trace.ktc.read_records", count);
            if tag == TAG_SPANS {
                kooza_obs::global::counter_add("trace.ktc.read_spans", count);
            }
        }
    }

    /// Reads one varint directly from the stream (block framing, not
    /// payload).
    fn stream_varint(&mut self, what: &'static str) -> Result<u64> {
        let mut value = 0u64;
        for i in 0..10 {
            let mut byte = [0u8; 1];
            read_exact_at(&mut self.r, &mut byte, self.offset, what)?;
            self.offset += 1;
            let payload = u64::from(byte[0] & 0x7F);
            if i == 9 && payload > 1 {
                return Err(TraceError::Corrupt {
                    offset: self.offset - 1,
                    message: format!("over-long varint while reading {what}"),
                });
            }
            value |= payload << (7 * i);
            if byte[0] & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(TraceError::Corrupt {
            offset: self.offset,
            message: format!("over-long varint while reading {what}"),
        })
    }

    fn decode_strings(&mut self, cur: &mut Cursor<'_>, count: u64) -> Result<()> {
        self.strings.reserve(guarded_capacity(count, cur.buf.len()));
        for _ in 0..count {
            let len = cur.varint("string length")?;
            let len = usize::try_from(len)
                .ok()
                .filter(|&l| l <= cur.buf.len())
                .ok_or_else(|| cur.corrupt(format!("string length {len} exceeds block")))?;
            let raw = cur.bytes(len, "string bytes")?;
            let s = std::str::from_utf8(raw)
                .map_err(|e| cur.corrupt(format!("interned string is not UTF-8: {e}")))?;
            self.strings.push(SpanName::from(s));
        }
        if !cur.finished() {
            return Err(cur.corrupt("unread bytes at end of string table"));
        }
        Ok(())
    }
}

/// `read_exact` that converts EOF into a typed [`TraceError::Truncated`]
/// carrying the stream offset.
fn read_exact_at(
    r: &mut impl Read,
    buf: &mut [u8],
    offset: u64,
    what: &'static str,
) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { offset, while_reading: what }
        } else {
            TraceError::Io(e)
        }
    })
}

fn decode_storage(cur: &mut Cursor<'_>, count: u64) -> Result<Vec<StorageRecord>> {
    let n = checked_count(cur, count)?;
    let mut out = vec![
        StorageRecord { ts_nanos: 0, lbn: 0, size: 0, op: IoOp::Read, request_id: 0 };
        n
    ];
    let mut prev = 0u64;
    for r in out.iter_mut() {
        r.ts_nanos = cur.delta(&mut prev, "storage ts")?;
    }
    for r in out.iter_mut() {
        r.lbn = cur.varint("storage lbn")?;
    }
    for r in out.iter_mut() {
        r.size = cur.varint("storage size")?;
    }
    for r in out.iter_mut() {
        let code = cur.u8("storage op")?;
        r.op = io_op_from(code, cur)?;
    }
    for r in out.iter_mut() {
        r.request_id = cur.varint("storage request_id")?;
    }
    Ok(out)
}

fn decode_cpu(cur: &mut Cursor<'_>, count: u64) -> Result<Vec<CpuRecord>> {
    let n = checked_count(cur, count)?;
    let mut out =
        vec![CpuRecord { ts_nanos: 0, utilization: 0.0, busy_nanos: 0, request_id: 0 }; n];
    let mut prev = 0u64;
    for r in out.iter_mut() {
        r.ts_nanos = cur.delta(&mut prev, "cpu ts")?;
    }
    for r in out.iter_mut() {
        r.utilization = cur.f64("cpu utilization")?;
    }
    for r in out.iter_mut() {
        r.busy_nanos = cur.varint("cpu busy_nanos")?;
    }
    for r in out.iter_mut() {
        r.request_id = cur.varint("cpu request_id")?;
    }
    Ok(out)
}

fn decode_memory(cur: &mut Cursor<'_>, count: u64) -> Result<Vec<MemoryRecord>> {
    let n = checked_count(cur, count)?;
    let mut out =
        vec![MemoryRecord { ts_nanos: 0, bank: 0, size: 0, op: IoOp::Read, request_id: 0 }; n];
    let mut prev = 0u64;
    for r in out.iter_mut() {
        r.ts_nanos = cur.delta(&mut prev, "memory ts")?;
    }
    for r in out.iter_mut() {
        let bank = cur.varint("memory bank")?;
        r.bank = u32::try_from(bank)
            .map_err(|_| cur.corrupt(format!("memory bank {bank} exceeds u32")))?;
    }
    for r in out.iter_mut() {
        r.size = cur.varint("memory size")?;
    }
    for r in out.iter_mut() {
        let code = cur.u8("memory op")?;
        r.op = io_op_from(code, cur)?;
    }
    for r in out.iter_mut() {
        r.request_id = cur.varint("memory request_id")?;
    }
    Ok(out)
}

fn decode_network(cur: &mut Cursor<'_>, count: u64) -> Result<Vec<NetworkRecord>> {
    let n = checked_count(cur, count)?;
    let mut out = vec![
        NetworkRecord { ts_nanos: 0, size: 0, direction: Direction::Ingress, request_id: 0 };
        n
    ];
    let mut prev = 0u64;
    for r in out.iter_mut() {
        r.ts_nanos = cur.delta(&mut prev, "network ts")?;
    }
    for r in out.iter_mut() {
        r.size = cur.varint("network size")?;
    }
    for r in out.iter_mut() {
        r.direction = match cur.u8("network direction")? {
            0 => Direction::Ingress,
            1 => Direction::Egress,
            other => return Err(cur.corrupt(format!("invalid direction code {other}"))),
        };
    }
    for r in out.iter_mut() {
        r.request_id = cur.varint("network request_id")?;
    }
    Ok(out)
}

fn decode_spans(cur: &mut Cursor<'_>, count: u64, strings: &[SpanName]) -> Result<Vec<Span>> {
    let n = checked_count(cur, count)?;
    let mut trace_ids = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        trace_ids.push(cur.delta(&mut prev, "span trace_id")?);
    }
    let mut span_ids = Vec::with_capacity(n);
    for _ in 0..n {
        span_ids.push(cur.varint("span span_id")?);
    }
    let mut has_parent = Vec::with_capacity(n);
    for _ in 0..n {
        match cur.u8("span parent flag")? {
            0 => has_parent.push(false),
            1 => has_parent.push(true),
            other => return Err(cur.corrupt(format!("invalid parent flag {other}"))),
        }
    }
    let mut parents = Vec::with_capacity(n);
    for &has in &has_parent {
        parents.push(if has { Some(cur.varint("span parent id")?) } else { None });
    }
    // Validated indices into the shared intern table; the spans below are
    // built by index (a refcount bump per name), allocating nothing.
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = cur.varint("span name index")?;
        let i = usize::try_from(idx)
            .ok()
            .filter(|&i| i < strings.len())
            .ok_or_else(|| {
                cur.corrupt(format!(
                    "intern index {idx} out of range (table has {} strings)",
                    strings.len()
                ))
            })?;
        names.push(i);
    }
    let mut starts = Vec::with_capacity(n);
    let mut prev_start = 0u64;
    for _ in 0..n {
        starts.push(cur.delta(&mut prev_start, "span start")?);
    }
    let mut ends = Vec::with_capacity(n);
    for &start in &starts {
        let off = unzigzag(cur.varint("span end offset")?);
        ends.push(start.wrapping_add(off as u64));
    }
    let mut ann_counts = Vec::with_capacity(n);
    for _ in 0..n {
        let c = cur.varint("annotation count")?;
        // Each annotation costs ≥ 2 payload bytes; reject impossibly
        // large counts before allocating.
        if c as usize > cur.buf.len() {
            return Err(cur.corrupt(format!("annotation count {c} exceeds block")));
        }
        ann_counts.push(c as usize);
    }
    let mut spans = Vec::with_capacity(n);
    for i in 0..n {
        let mut annotations = Vec::with_capacity(ann_counts[i]);
        for _ in 0..ann_counts[i] {
            let ts = cur.varint("annotation ts")?;
            let idx = cur.varint("annotation message index")?;
            let msg = usize::try_from(idx)
                .ok()
                .and_then(|j| strings.get(j))
                .ok_or_else(|| {
                    cur.corrupt(format!(
                        "intern index {idx} out of range (table has {} strings)",
                        strings.len()
                    ))
                })?;
            annotations.push((ts, msg.clone()));
        }
        spans.push(Span {
            trace_id: TraceId(trace_ids[i]),
            span_id: SpanId(span_ids[i]),
            parent: parents[i].map(SpanId),
            name: strings[names[i]].clone(),
            start_nanos: starts[i],
            end_nanos: ends[i],
            annotations,
        });
    }
    Ok(spans)
}

/// Validates a block row count against the payload size (every row costs
/// at least one payload byte).
fn checked_count(cur: &Cursor<'_>, count: u64) -> Result<usize> {
    let n = usize::try_from(count)
        .ok()
        .filter(|&n| n <= cur.buf.len())
        .ok_or_else(|| cur.corrupt(format!("row count {count} exceeds block payload")))?;
    Ok(n)
}

// ---------------------------------------------------------------------------
// TraceSet + path-level conveniences
// ---------------------------------------------------------------------------

impl TraceSet {
    /// Serializes this set as KTC to any writer, its streams in the JSONL
    /// writer's order: storage, cpu, memory, network, spans.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_ktc<W: Write>(&self, w: W) -> Result<()> {
        let mut writer = KtcWriter::new(w)?;
        writer.write_storage(&self.storage)?;
        writer.write_cpu(&self.cpu)?;
        writer.write_memory(&self.memory)?;
        writer.write_network(&self.network)?;
        writer.write_spans(&self.spans)?;
        writer.finish()
    }

    /// Reads a KTC trace from any reader.
    ///
    /// # Errors
    ///
    /// A typed [`TraceError`] with the stream offset on a bad header, a
    /// cut-short stream or a format violation; never a panic.
    pub fn read_ktc<R: Read>(r: R) -> Result<TraceSet> {
        KtcReader::new(r)?.read_set()
    }

    /// Reads a trace file in either format: a `.ktc` extension means KTC;
    /// any other name is classified by its leading bytes, the KTC magic
    /// or else JSONL (which can never start with the magic), so a KTC
    /// file with a misleading name still reads.
    ///
    /// # Errors
    ///
    /// Propagates open/parse failures of the format found.
    pub fn read_file(path: &Path) -> Result<TraceSet> {
        let mut file = File::open(path)?;
        let ktc = is_ktc_path(path) || {
            let mut head = Vec::with_capacity(MAGIC.len());
            (&mut file).take(MAGIC.len() as u64).read_to_end(&mut head)?;
            file.rewind()?;
            head == MAGIC
        };
        let file = BufReader::new(file);
        if ktc {
            TraceSet::read_ktc(file)
        } else {
            TraceSet::read_jsonl(file)
        }
    }

    /// Writes a trace file: KTC when the path has a `.ktc` extension,
    /// JSONL otherwise.
    ///
    /// # Errors
    ///
    /// Propagates create/write failures.
    pub fn write_file(&self, path: &Path) -> Result<()> {
        let mut buf = BufWriter::new(File::create(path)?);
        if is_ktc_path(path) {
            self.write_ktc(&mut buf)?;
        } else {
            self.write_jsonl(&mut buf)?;
        }
        buf.flush()?;
        Ok(())
    }
}

/// Whether a path names a KTC file: a `.ktc` extension.
fn is_ktc_path(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "ktc")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> TraceSet {
        let mut ts = TraceSet::new();
        for i in 0..10u64 {
            ts.storage.push(StorageRecord {
                ts_nanos: i * 100,
                lbn: i * 7,
                size: 4096,
                op: if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                request_id: i,
            });
            ts.cpu.push(CpuRecord {
                ts_nanos: i * 100 + 1,
                utilization: i as f64 / 10.0,
                busy_nanos: 50 + i,
                request_id: i,
            });
            ts.memory.push(MemoryRecord {
                ts_nanos: i * 100 + 2,
                bank: (i % 4) as u32,
                size: 64,
                op: IoOp::Write,
                request_id: i,
            });
            ts.network.push(NetworkRecord {
                ts_nanos: i * 100 + 3,
                size: 1024 * i,
                direction: if i % 2 == 0 { Direction::Ingress } else { Direction::Egress },
                request_id: i,
            });
            let mut root = Span::new(TraceId(i), SpanId(0), None, "request", i * 100, i * 100 + 90);
            root.annotate(i * 100 + 5, "queued");
            ts.spans.push(root);
            ts.spans.push(Span::new(
                TraceId(i),
                SpanId(1),
                Some(SpanId(0)),
                "disk",
                i * 100 + 10,
                i * 100 + 80,
            ));
        }
        ts
    }

    #[test]
    fn ktc_round_trip_identity() {
        let ts = sample_set();
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        let back = TraceSet::read_ktc(buf.as_slice()).unwrap();
        assert_eq!(ts, back);
    }

    #[test]
    fn empty_set_round_trips() {
        let ts = TraceSet::new();
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        // Header (8) + end marker (3) only.
        assert_eq!(buf.len(), 11);
        let back = TraceSet::read_ktc(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut ts = TraceSet::new();
        ts.storage.push(StorageRecord {
            ts_nanos: u64::MAX,
            lbn: u64::MAX,
            size: u64::MAX,
            op: IoOp::Write,
            request_id: u64::MAX,
        });
        ts.storage.push(StorageRecord {
            ts_nanos: 0,
            lbn: 0,
            size: 0,
            op: IoOp::Read,
            request_id: 0,
        });
        ts.spans.push(Span {
            trace_id: TraceId(u64::MAX),
            span_id: SpanId(u64::MAX),
            parent: Some(SpanId(u64::MAX)),
            name: SpanName::default(),
            start_nanos: u64::MAX,
            end_nanos: 0, // inverted on purpose: the format must not care
            annotations: vec![(u64::MAX, "α/β — non-ascii".into())],
        });
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        let back = TraceSet::read_ktc(buf.as_slice()).unwrap();
        assert_eq!(ts, back);
    }

    #[test]
    fn multi_block_round_trip() {
        let mut ts = TraceSet::new();
        for i in 0..(BLOCK_ROWS as u64 * 2 + 17) {
            ts.network.push(NetworkRecord {
                ts_nanos: i,
                size: i % 9000,
                direction: Direction::Ingress,
                request_id: i / 3,
            });
        }
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        let back = TraceSet::read_ktc(buf.as_slice()).unwrap();
        assert_eq!(ts, back);
    }

    #[test]
    fn interning_dedupes_names_across_blocks() {
        let mut ts = TraceSet::new();
        for i in 0..(BLOCK_ROWS as u64 + 10) {
            ts.spans.push(Span::new(TraceId(i), SpanId(0), None, "request", i, i + 1));
        }
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        // Two span blocks, but only the first carries a string table.
        assert_eq!(block_tags(&buf), [TAG_STRINGS, TAG_SPANS, TAG_SPANS, TAG_END]);
        let back = TraceSet::read_ktc(buf.as_slice()).unwrap();
        assert_eq!(ts.spans, back.spans);
    }

    /// Spans sharing one allocation per name, like a simulated trace's.
    fn spans_named(names: &[&str]) -> Vec<Span> {
        let shared: Vec<SpanName> = names.iter().map(|&n| SpanName::from(n)).collect();
        (0..40u64)
            .map(|i| {
                let name = shared[i as usize % shared.len()].clone();
                Span::new(TraceId(i), SpanId(0), None, name, i, i + 1)
            })
            .collect()
    }

    #[test]
    fn name_cache_lives_for_one_call() {
        // The first list's names are freed before the second's are made,
        // so the allocator may hand their addresses to the new names of
        // equal length: a cache kept across calls would write the old
        // intern indices.
        const FIRST: [&str; 3] = ["disk", "cpu.lookup", "net"];
        const SECOND: [&str; 3] = ["wait", "mem.access", "ack"];
        let mut buf = Vec::new();
        let mut w = KtcWriter::new(&mut buf).unwrap();
        w.write_spans(&spans_named(&FIRST)).unwrap();
        w.write_spans(&spans_named(&SECOND)).unwrap();
        w.finish().unwrap();
        let mut expected = spans_named(&FIRST);
        expected.extend(spans_named(&SECOND));
        assert_eq!(TraceSet::read_ktc(buf.as_slice()).unwrap().spans, expected);
    }

    #[test]
    fn varint_codec_inverts() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut cur = Cursor::new(&buf, 0);
            assert_eq!(cur.varint("test").unwrap(), v);
            assert!(cur.finished());
        }
    }

    #[test]
    fn zigzag_inverts() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        match TraceSet::read_ktc(&b"NOPE\x01\x00\x00\x00"[..]) {
            Err(TraceError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        match TraceSet::read_ktc(buf.as_slice()) {
            Err(TraceError::UnsupportedVersion(9)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn missing_end_marker_is_truncation() {
        let ts = sample_set();
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        // Drop the end marker: all blocks intact, stream not terminated.
        buf.truncate(buf.len() - 3);
        match TraceSet::read_ktc(buf.as_slice()) {
            Err(TraceError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn format_detection() {
        assert!(is_ktc_path(Path::new("/tmp/a.ktc")));
        assert!(!is_ktc_path(Path::new("/tmp/a.jsonl")));
        assert!(!is_ktc_path(Path::new("/tmp/a.bin")));
        assert!(!is_ktc_path(Path::new("/tmp/ktc")));
        // Under any other name the leading bytes decide: the magic means
        // KTC (here cut short after the version), anything else JSONL,
        // an empty file included.
        let pid = std::process::id();
        let path = std::env::temp_dir().join(format!("kooza-ktc-sniff-{pid}.trace"));
        std::fs::write(&path, b"KTC1\x01\x00").unwrap();
        let read = TraceSet::read_file(&path);
        assert!(matches!(read, Err(TraceError::Truncated { .. })), "{read:?}");
        std::fs::write(&path, b"KTC").unwrap();
        let read = TraceSet::read_file(&path);
        assert!(matches!(read, Err(TraceError::Parse { line: 1, .. })), "{read:?}");
        std::fs::write(&path, b"").unwrap();
        assert!(TraceSet::read_file(&path).unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_round_trip_with_sniffing() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let ts = sample_set();

        // Extension-driven: .ktc writes binary and reads it back.
        let ktc_path = dir.join(format!("kooza-ktc-test-{pid}.ktc"));
        ts.write_file(&ktc_path).unwrap();
        let back = TraceSet::read_file(&ktc_path).unwrap();
        assert_eq!(ts, back);

        // Misleading extension: content sniffing still finds KTC.
        let disguised = dir.join(format!("kooza-ktc-test-{pid}.trace"));
        std::fs::copy(&ktc_path, &disguised).unwrap();
        let back = TraceSet::read_file(&disguised).unwrap();
        assert_eq!(ts, back);

        // Any other name writes JSONL.
        let plain = dir.join(format!("kooza-ktc-test-{pid}.out"));
        ts.write_file(&plain).unwrap();
        let text = std::fs::read_to_string(&plain).unwrap();
        assert!(text.starts_with('{'), "expected JSONL, got {}", &text[..20.min(text.len())]);

        for p in [&ktc_path, &disguised, &plain] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// The tag of every block of a KTC stream, end marker included; the
    /// framing must account for every byte after the header.
    fn block_tags(buf: &[u8]) -> Vec<u8> {
        let mut cur = Cursor::new(&buf[8..], 8);
        let mut tags = Vec::new();
        while !cur.finished() {
            tags.push(cur.u8("block tag").unwrap());
            cur.varint("block count").unwrap();
            let len = cur.varint("block payload length").unwrap();
            cur.bytes(len as usize, "block payload").unwrap();
        }
        tags
    }

    #[test]
    fn writer_reports_bytes_and_blocks() {
        let mut buf = Vec::new();
        sample_set().write_ktc(&mut buf).unwrap();
        let tags = block_tags(&buf);
        // storage + cpu + memory + network + strings + spans.
        assert_eq!(tags.iter().filter(|&&t| t != TAG_END).count(), 6);
        // The 3-byte end marker closes the stream and nothing follows it.
        assert_eq!(tags.last(), Some(&TAG_END));
        assert!(buf.ends_with(&[TAG_END, 0, 0]));
    }

    #[test]
    fn streaming_reader_yields_blocks_in_order() {
        let ts = sample_set();
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        // The JSONL stream order, with the spans' string table first.
        assert_eq!(
            block_tags(&buf),
            [TAG_STORAGE, TAG_CPU, TAG_MEMORY, TAG_NETWORK, TAG_STRINGS, TAG_SPANS, TAG_END]
        );
        // The reader appends each block to its stream in that order.
        let back = KtcReader::new(buf.as_slice()).unwrap().read_set().unwrap();
        assert_eq!(back, ts);
    }

    #[test]
    fn obs_counters_record_ingest_traffic() {
        kooza_obs::global::enable();
        let ts = sample_set();
        let mut buf = Vec::new();
        ts.write_ktc(&mut buf).unwrap();
        let back = TraceSet::read_ktc(buf.as_slice()).unwrap();
        assert_eq!(ts, back);
        let report = kooza_obs::global::report().unwrap();
        kooza_obs::global::disable();
        // Other tests in this binary may run KTC traffic concurrently
        // while the sink is enabled, so assert at-least, never exact.
        let counter = |name: &str| report.metrics.counter(name).unwrap_or(0);
        assert!(counter("trace.ktc.write_blocks") >= 6, "write_blocks");
        assert!(counter("trace.ktc.write_bytes") >= buf.len() as u64, "write_bytes");
        assert!(counter("trace.ktc.write_spans") >= 20, "write_spans");
        assert!(counter("trace.ktc.read_blocks") >= 6, "read_blocks");
        assert!(counter("trace.ktc.read_bytes") >= 1, "read_bytes");
        // 10 rows in each of 4 record streams plus 20 spans.
        assert!(counter("trace.ktc.read_records") >= 60, "read_records");
        assert!(counter("trace.ktc.read_spans") >= 20, "read_spans");
    }
}

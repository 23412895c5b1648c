//! Trace infrastructure: the data every model in this workspace trains on.
//!
//! * [`record`] — per-subsystem trace records (storage, CPU, memory,
//!   network), each tagged with the global request id that ties them
//!   together (the Dapper design constraint: "applications or middleware
//!   tag all message records with a unique global identifier").
//! * [`span`] — Dapper-style span trees: nested timed sections with
//!   annotations, reconstructed into per-request trees.
//! * [`sampler`] — 1-in-N deterministic trace sampling.
//! * [`store`] — the [`TraceSet`] container with JSONL persistence. It is
//!   the one trace type: per-server consumers (the KOOZA fleet) read one
//!   whole-cluster set and split the per-request observations they derive
//!   from it, never the records themselves.
//! * [`characterize`] — per-subsystem workload characterization (read/write
//!   mix, seek distances, inter-arrivals, burstiness, CPU pattern
//!   classification per Abrahao et al.).
//! * [`ktc`] — the KTC binary columnar format for traces too large for
//!   JSONL text, with JSONL kept as the golden round-trip oracle. A trace
//!   file names its own format ([`TraceSet::read_file`],
//!   [`TraceSet::write_file`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod characterize;
pub mod ktc;
pub mod record;
pub mod sampler;
pub mod span;
pub mod store;

pub use record::{CpuRecord, Direction, IoOp, MemoryRecord, NetworkRecord, StorageRecord};
pub use span::{NameCache, Span, SpanId, SpanName, TraceId, TraceTree};
pub use store::TraceSet;

/// Errors from trace manipulation and persistence.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure while reading or writing a trace stream.
    Io(std::io::Error),
    /// A JSONL line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A span tree was structurally invalid (cycle, missing parent, ...).
    MalformedTree(String),
    /// An operation needed data the trace does not contain.
    Empty(&'static str),
    /// A binary trace stream did not start with the KTC magic bytes.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// A KTC stream was written by a container version this build does
    /// not understand.
    UnsupportedVersion(u16),
    /// A KTC stream ended mid-structure (cut-short block, missing end
    /// marker).
    Truncated {
        /// Absolute byte offset where data ran out.
        offset: u64,
        /// The structure being decoded when the stream ended.
        while_reading: &'static str,
    },
    /// A KTC stream violated the format (bad tag, over-long varint,
    /// out-of-range intern index, trailing bytes, ...).
    Corrupt {
        /// Absolute byte offset of the violation.
        offset: u64,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::MalformedTree(msg) => write!(f, "malformed span tree: {msg}"),
            TraceError::Empty(what) => write!(f, "trace contains no {what}"),
            TraceError::BadMagic { found } => {
                write!(f, "not a KTC trace: bad magic {found:?}")
            }
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported KTC container version {v}")
            }
            TraceError::Truncated { offset, while_reading } => {
                write!(f, "truncated KTC stream at byte {offset} while reading {while_reading}")
            }
            TraceError::Corrupt { offset, message } => {
                write!(f, "corrupt KTC stream at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TraceError>;

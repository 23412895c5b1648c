//! Optional per-call execution profiles for [`Pool::par_map`].
//!
//! When enabled (the CLI's `--obs` flag turns this on via `kooza-obs`),
//! every `par_map`/`par_map_indexed` call records a [`PoolProfile`]: how
//! many items and chunks it processed, how the chunks were distributed
//! over workers, each worker's busy time, and the claim-queue depth at
//! every chunk dispatch. Profiles accumulate in a process-global buffer
//! and are drained with [`take`].
//!
//! Everything here is wall-clock, scheduling-dependent bookkeeping: which
//! worker ran which chunk is decided by the OS scheduler, so profiles are
//! **not** deterministic and are excluded from deterministic exports.
//! They never feed back into task execution — results are still merged in
//! submission order — so enabling profiling cannot change any computed
//! output.
//!
//! [`Pool::par_map`]: crate::Pool::par_map

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One worker's share of a single `par_map` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the pool (spawn order).
    pub worker: usize,
    /// Chunks this worker claimed.
    pub chunks: u64,
    /// Items this worker processed.
    pub items: u64,
    /// Wall-clock time spent inside task bodies, nanoseconds.
    pub busy_nanos: u64,
}

/// One chunk's execution record within a single `par_map` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkStats {
    /// Chunk index (= merge position).
    pub chunk: usize,
    /// Worker that executed it.
    pub worker: usize,
    /// Items in the chunk.
    pub items: u64,
    /// Wall-clock time to execute the chunk, nanoseconds.
    pub busy_nanos: u64,
    /// Chunks not yet claimed (including this one) at the moment this
    /// chunk was dispatched — the claim-queue depth.
    pub queue_depth_at_dispatch: u64,
}

/// The full profile of one `par_map`/`par_map_indexed` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolProfile {
    /// Thread count the pool ran with (1 = the exact serial path).
    pub threads: usize,
    /// Total items mapped.
    pub items: u64,
    /// Number of chunks the items were split into.
    pub n_chunks: u64,
    /// End-to-end wall-clock time of the call, nanoseconds.
    pub wall_nanos: u64,
    /// Per-worker totals, sorted by worker index.
    pub workers: Vec<WorkerStats>,
    /// Per-chunk records, sorted by chunk index.
    pub chunks: Vec<ChunkStats>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROFILES: Mutex<Vec<PoolProfile>> = Mutex::new(Vec::new());

/// Turns profile collection on or off (off by default; the cost when off
/// is one atomic load per `par_map` call).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether profiles are currently being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Appends a finished profile (called by the pool).
pub(crate) fn record(profile: PoolProfile) {
    PROFILES.lock().expect("profile buffer poisoned").push(profile);
}

/// Drains and returns every profile collected since the last call.
pub fn take() -> Vec<PoolProfile> {
    std::mem::take(&mut *PROFILES.lock().expect("profile buffer poisoned"))
}

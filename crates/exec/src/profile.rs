//! Optional per-call execution profiles for [`Pool::par_map`].
//!
//! When enabled (the CLI's `--obs` flag turns this on via `kooza-obs`),
//! every `par_map`/`par_map_indexed` call records a [`PoolProfile`]: the
//! thread count, the items it mapped, its wall time and the time its
//! threads spent mapping. Profiles accumulate in a process-global buffer
//! and are drained with [`take`].
//!
//! Everything here is wall-clock, scheduling-dependent bookkeeping, so
//! profiles are **not** deterministic and are excluded from deterministic
//! exports. They never feed back into task execution — results are still
//! merged in submission order — so enabling profiling cannot change any
//! computed output.
//!
//! [`Pool::par_map`]: crate::Pool::par_map

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The profile of one `par_map`/`par_map_indexed` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolProfile {
    /// Thread count the pool ran with (1 = the exact serial path).
    pub threads: usize,
    /// Total items mapped.
    pub items: u64,
    /// End-to-end wall-clock time of the call, nanoseconds.
    pub wall_nanos: u64,
    /// Wall-clock time the participating threads spent claiming and
    /// mapping items, summed over threads, nanoseconds.
    pub busy_nanos: u64,
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

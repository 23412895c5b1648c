//! A GFS (Google File System) cluster simulator.
//!
//! The paper validates KOOZA on "traces of simplified requests from GFS ...
//! simple GFS client – GFS chunkserver requests that comply with the
//! structure of Figure 1": a request arrives over the network, exercises
//! CPU and memory to locate and verify the data, performs disk I/O, uses
//! the CPU again to aggregate, and responds over the network.
//!
//! We do not have Google's traces (data gate), so this crate *is* the
//! substitute: a deterministic event-driven cluster simulator that emits
//! exactly the four per-subsystem trace streams plus Dapper-style span
//! trees that the modeling pipeline trains on.
//!
//! * [`DiskModel`] — seek-distance-aware disk service times.
//! * [`CpuModel`] — per-byte + per-request cycle costs.
//! * [`MemoryModel`] — banked memory with bank-switch penalties and an
//!   LRU chunk buffer cache.
//! * [`LinkModel`] — latency + bandwidth network links.
//! * [`Master`] — chunk placement and replication.
//! * [`FaultPlan`] — deterministic crash/recover schedules, degraded
//!   disks and link drops (armed via `ClusterConfig::faults`).
//! * [`Cluster`] — the simulation: clients issue a configurable workload
//!   mix against chunkservers; every request is traced (subject to
//!   sampling) into a [`kooza_trace::TraceSet`].
//!
//! # Example
//!
//! ```
//! use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
//!
//! let mut config = ClusterConfig::small();
//! config.workload = WorkloadMix::read_heavy();
//! let mut cluster = Cluster::new(&config)?;
//! let outcome = cluster.run(200, 42);
//! assert_eq!(outcome.stats.completed, 200);
//! assert!(!outcome.trace.network.is_empty());
//! # Ok::<(), kooza_gfs::GfsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod config;
mod fault;
mod hardware;
mod master;

pub use cluster::{default_shards, Cluster, ClusterOutcome, ClusterStats, FaultStats, RequestOutcome};
pub use config::{ClusterConfig, CpuParams, DiskParams, LinkParams, MemoryParams, Topology, WorkloadMix};
pub use fault::{FaultPlan, FaultSpec, FaultWindow, FAULT_HORIZON_SLACK_SECS, MAX_EXPECTED_WINDOWS};
pub use hardware::{CpuModel, DiskModel, LinkModel, MemoryModel};
pub use master::{ChunkHandle, Master};

/// Errors from cluster construction.
#[derive(Debug, Clone, PartialEq)]
pub enum GfsError {
    /// A configuration value was out of range.
    InvalidConfig {
        /// Field name.
        field: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for GfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GfsError::InvalidConfig { field, detail } => {
                write!(f, "invalid config field {field}: {detail}")
            }
        }
    }
}

impl std::error::Error for GfsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GfsError>;

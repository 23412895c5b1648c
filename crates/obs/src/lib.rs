//! Self-instrumentation for the KOOZA harness.
//!
//! `kooza-obs` watches the pipeline from the inside: a metrics registry
//! (counters, gauges, fixed-boundary histograms), scoped stage-span
//! timers that build a tree of pipeline phases (train → generate →
//! replay → validate), and per-call pool profiles surfaced from the
//! `kooza-exec` pool. Everything exports as kooza-json JSONL and
//! renders as a human-readable report (`kooza obs`).
//!
//! # Determinism
//!
//! The workspace's contract is bit-identical output at any thread count,
//! and instrumentation must not be the thing that breaks it. The design
//! splits collected data into two classes:
//!
//! * **deterministic** — counters, gauges, histogram contents, the stage
//!   tree's *shape* (names, nesting, counts). Registry operations exposed
//!   to parallel tasks are commutative (adds, maxima, integer records),
//!   so interleaving cannot change the final state; histogram values are
//!   `u64`, so no float-summation order leaks in.
//! * **environmental** — wall-clock durations, core counts, pool busy
//!   times. These live only in `"wall"` sub-objects and
//!   whole-`"kind"` `meta`/`pool` lines, and
//!   [`report::strip_nondeterministic`] removes exactly that set. The
//!   committed determinism test pins that a stripped report is
//!   byte-identical across `--threads 1/2/8`.
//!
//! # Typical use
//!
//! ```
//! kooza_obs::global::enable();
//! let total = kooza_obs::global::stage("replay", || {
//!     kooza_obs::global::counter_add("replay.requests", 600);
//!     600u64
//! });
//! let report = kooza_obs::global::report().expect("enabled");
//! assert_eq!(report.metrics.counter("replay.requests"), Some(total));
//! let jsonl = report.to_jsonl();
//! let stripped = kooza_obs::report::strip_nondeterministic(&jsonl).unwrap();
//! assert!(!stripped.contains("wall"));
//! kooza_obs::global::disable();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod global;
pub mod metrics;
pub mod report;
pub mod stage;

pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use report::{strip_nondeterministic, ObsReport};
pub use stage::{StageNode, StageRecorder};

//! Umbrella crate for the KOOZA workspace.
//!
//! This package exists to host the runnable [examples](https://github.com)
//! under `examples/` and the cross-crate integration tests under `tests/`.
//! The actual library surface lives in the member crates:
//!
//! * [`kooza`] — the combined workload model (the paper's contribution)
//! * [`kooza_sim`] — deterministic discrete-event simulation kernel
//! * [`kooza_stats`] — distributions, fitting, KS tests, PCA, clustering
//! * [`kooza_trace`] — trace records, span trees, sampling, characterization
//! * [`kooza_markov`] — Markov chains and a Gaussian-emission HMM
//! * [`kooza_queueing`] — arrival processes, analytic queues, networks
//! * [`kooza_gfs`] — the GFS cluster simulator used as validation substrate

pub use kooza;
pub use kooza_gfs;
pub use kooza_markov;
pub use kooza_queueing;
pub use kooza_sim;
pub use kooza_stats;
pub use kooza_trace;

//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate every simulator in the KOOZA workspace is
//! built on: the GFS cluster simulator (`kooza-gfs`), the queueing-network
//! simulators (`kooza-queueing`) and the replay-based validation harness in
//! the core crate.
//!
//! Design goals:
//!
//! * **Determinism.** Time is integer nanoseconds ([`SimTime`]), the event
//!   queue breaks ties by insertion sequence number, and all randomness comes
//!   from an explicit, seedable PRNG ([`rng::Rng64`]). Two runs with the same
//!   seed produce bit-identical results on any platform.
//! * **No framework lock-in.** The engine is a plain priority queue of
//!   user-defined event values; models drive their own loop.
//!
//! # Example
//!
//! ```
//! use kooza_sim::{Engine, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut eng = Engine::new();
//! eng.schedule(SimDuration::from_micros(5), Ev::Ping);
//! eng.schedule(SimDuration::from_micros(2), Ev::Pong);
//! let (t1, e1) = eng.next().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_micros(2), Ev::Pong));
//! let (t2, e2) = eng.next().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_micros(5), Ev::Ping));
//! assert!(eng.next().is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collect;
mod engine;
pub mod fabric;
pub mod rng;
mod server;
pub mod shard;
mod time;

pub use collect::{Tally, TimeWeighted};
pub use engine::{Engine, TimerHandle};
pub use fabric::{Endpoint, Fabric};
pub use server::ServerPool;
pub use shard::{shard_ranges, Envelope, Outbox, ShardedEngine};
pub use time::{SimDuration, SimTime};

//! A multi-server FIFO station for event-driven queueing models.
//!
//! [`ServerPool`] tracks which of `c` identical servers are busy and queues
//! excess jobs in FIFO order. It does *not* schedule anything itself — the
//! owning model schedules the completion event for each job it is handed —
//! which keeps the pool usable with any event type.

use std::collections::VecDeque;

use crate::collect::TimeWeighted;
use crate::time::{SimDuration, SimTime};

/// A `c`-server FIFO queueing station.
///
/// ```
/// use kooza_sim::{ServerPool, SimTime};
///
/// let mut pool: ServerPool<&str> = ServerPool::new(1);
/// let t0 = SimTime::ZERO;
/// // First job starts immediately.
/// assert_eq!(pool.arrive(t0, "a"), Some("a"));
/// // Second queues behind it.
/// assert_eq!(pool.arrive(t0, "b"), None);
/// // When "a" completes, "b" is released to start.
/// let t1 = SimTime::from_micros(10);
/// assert_eq!(pool.complete(t1), Some("b"));
/// assert_eq!(pool.complete(SimTime::from_micros(20)), None);
/// ```
#[derive(Debug)]
pub struct ServerPool<J> {
    servers: usize,
    busy: usize,
    queue: VecDeque<(SimTime, J)>,
    busy_servers: TimeWeighted,
    queue_len: TimeWeighted,
    total_wait: SimDuration,
    started: u64,
    arrived: u64,
    queue_high_water: usize,
    down: bool,
}

impl<J> ServerPool<J> {
    /// Creates a station with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        let mut pool = ServerPool {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            busy_servers: TimeWeighted::new(),
            queue_len: TimeWeighted::new(),
            total_wait: SimDuration::ZERO,
            started: 0,
            arrived: 0,
            queue_high_water: 0,
            down: false,
        };
        // The averages run from t = 0: a station is idle and empty until
        // its first job arrives, however late that is.
        pool.busy_servers.record(SimTime::ZERO, 0.0);
        pool.queue_len.record(SimTime::ZERO, 0.0);
        pool
    }

    /// A job arrives at time `now`.
    ///
    /// Returns `Some(job)` if a server was free and the job should start
    /// service immediately (the caller schedules its completion); `None` if
    /// it was queued.
    ///
    /// # Panics
    ///
    /// Panics if the station is down — routing to a failed station is a
    /// model bug; callers must check [`ServerPool::is_down`] first.
    pub fn arrive(&mut self, now: SimTime, job: J) -> Option<J> {
        assert!(!self.down, "job arrived at a down station");
        self.arrived += 1;
        if self.busy < self.servers {
            self.busy += 1;
            self.started += 1;
            self.busy_servers.record(now, self.busy as f64);
            Some(job)
        } else {
            self.queue.push_back((now, job));
            self.queue_high_water = self.queue_high_water.max(self.queue.len());
            self.queue_len.record(now, self.queue.len() as f64);
            None
        }
    }

    /// A service completes at time `now`.
    ///
    /// Returns `Some(job)` if a queued job should now start service (the
    /// caller schedules its completion); `None` if the queue was empty and a
    /// server simply went idle.
    ///
    /// # Panics
    ///
    /// Panics if no server was busy (a completion without a start).
    pub fn complete(&mut self, now: SimTime) -> Option<J> {
        assert!(self.busy > 0, "completion with no busy server");
        match self.queue.pop_front() {
            Some((enqueued, job)) => {
                self.total_wait += now.saturating_since(enqueued);
                self.started += 1;
                self.queue_len.record(now, self.queue.len() as f64);
                // busy count unchanged: one ends, one starts.
                Some(job)
            }
            None => {
                self.busy -= 1;
                self.busy_servers.record(now, self.busy as f64);
                None
            }
        }
    }

    /// Number of servers currently serving a job.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Number of jobs waiting in queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The longest the queue ever got.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// Total jobs that have arrived.
    pub fn arrivals(&self) -> u64 {
        self.arrived
    }

    /// Marks the station down at `now`: every in-service and queued job is
    /// lost (a crash forgets its work). Returns the number of jobs dropped.
    /// The caller is responsible for never delivering completion events for
    /// jobs that were in service — see the epoch scheme in `kooza-gfs`.
    pub fn fail_all(&mut self, now: SimTime) -> usize {
        let lost = self.busy + self.queue.len();
        self.busy = 0;
        self.busy_servers.record(now, 0.0);
        self.queue.clear();
        self.queue_len.record(now, 0.0);
        self.down = true;
        lost
    }

    /// Brings a down station back into service (empty and idle).
    pub fn set_up(&mut self) {
        self.down = false;
    }

    /// Whether the station is down (crashed and not yet recovered).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Time-averaged server utilization in `[0, 1]` over `[0, now]`.
    ///
    /// A station observed at `SimTime::ZERO` has accumulated no time, so
    /// the mean is defined as `0.0` (not `NaN`/`busy/servers`).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy_servers.mean_until(now, self.busy as f64) / self.servers as f64
    }

    /// Time-averaged queue length over `[0, now]`.
    ///
    /// Defined as `0.0` when observed at `SimTime::ZERO` (no time has
    /// accumulated to average over).
    pub fn mean_queue_len(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.queue_len.mean_until(now, self.queue.len() as f64)
    }

    /// Mean waiting time (time in queue, excluding service) over all jobs
    /// that have *started* service.
    pub fn mean_wait(&self) -> SimDuration {
        if self.started == 0 {
            SimDuration::ZERO
        } else {
            self.total_wait / self.started
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_fifo_order() {
        let mut pool = ServerPool::new(1);
        let t = SimTime::ZERO;
        assert_eq!(pool.arrive(t, 1), Some(1));
        assert_eq!(pool.arrive(t, 2), None);
        assert_eq!(pool.arrive(t, 3), None);
        assert_eq!(pool.queued(), 2);
        assert_eq!(pool.complete(SimTime::from_nanos(10)), Some(2));
        assert_eq!(pool.complete(SimTime::from_nanos(20)), Some(3));
        assert_eq!(pool.complete(SimTime::from_nanos(30)), None);
        assert_eq!(pool.busy(), 0);
    }

    #[test]
    fn multi_server_parallelism() {
        let mut pool = ServerPool::new(3);
        let t = SimTime::ZERO;
        assert!(pool.arrive(t, 'a').is_some());
        assert!(pool.arrive(t, 'b').is_some());
        assert!(pool.arrive(t, 'c').is_some());
        assert!(pool.arrive(t, 'd').is_none());
        assert_eq!(pool.busy(), 3);
        assert_eq!(pool.complete(SimTime::from_nanos(5)), Some('d'));
        assert_eq!(pool.busy(), 3);
    }

    #[test]
    fn queue_high_water_survives_draining() {
        let mut pool = ServerPool::new(1);
        let t = SimTime::ZERO;
        assert_eq!(pool.queue_high_water(), 0);
        assert!(pool.arrive(t, 0).is_some());
        assert!(pool.arrive(t, 1).is_none());
        assert!(pool.arrive(t, 2).is_none());
        assert_eq!(pool.queue_high_water(), 2);
        assert!(pool.complete(SimTime::from_nanos(5)).is_some());
        assert!(pool.complete(SimTime::from_nanos(6)).is_some());
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.queue_high_water(), 2);
    }

    #[test]
    fn wait_time_accounting() {
        let mut pool = ServerPool::new(1);
        assert!(pool.arrive(SimTime::ZERO, ()).is_some());
        assert!(pool.arrive(SimTime::from_nanos(2), ()).is_none());
        // Job 2 waited from t=2 to t=10.
        assert_eq!(pool.complete(SimTime::from_nanos(10)), Some(()));
        assert_eq!(pool.complete(SimTime::from_nanos(20)), None);
        // Two jobs started; total wait 8ns → mean 4ns.
        assert_eq!(pool.mean_wait(), SimDuration::from_nanos(4));
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut pool = ServerPool::new(2);
        assert!(pool.arrive(SimTime::ZERO, ()).is_some());
        // One of two servers busy from t=0 to t=100.
        let now = SimTime::from_nanos(100);
        let u = pool.utilization(now);
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn averages_run_from_time_zero_not_first_arrival() {
        // Idle and empty until t=50, then one job busy 50..100 and a
        // second queued 50..100: half of [0, 100], not all of [50, 100].
        let mut pool = ServerPool::new(1);
        assert!(pool.arrive(SimTime::from_nanos(50), 1).is_some());
        assert!(pool.arrive(SimTime::from_nanos(50), 2).is_none());
        assert_eq!(pool.complete(SimTime::from_nanos(100)), Some(2));
        let now = SimTime::from_nanos(100);
        assert_eq!(pool.utilization(now), 0.5);
        assert_eq!(pool.mean_queue_len(now), 0.5);
    }

    #[test]
    fn zero_time_observation_is_zero_not_nan() {
        // Regression: observing a pool at t=0 after an arrival at t=0 used
        // to report utilization busy/servers (a zero-span average); before
        // any record the guard also forecloses any NaN/∞ path. Both
        // metrics must read 0.0 — no time has accumulated.
        let mut pool = ServerPool::new(2);
        assert!(pool.arrive(SimTime::ZERO, 'a').is_some());
        assert!(pool.arrive(SimTime::ZERO, 'b').is_some());
        assert!(pool.arrive(SimTime::ZERO, 'c').is_none());
        assert_eq!(pool.utilization(SimTime::ZERO), 0.0);
        assert_eq!(pool.mean_queue_len(SimTime::ZERO), 0.0);
        // A fresh pool observed before any arrival is also 0.0.
        let empty: ServerPool<()> = ServerPool::new(3);
        assert_eq!(empty.utilization(SimTime::ZERO), 0.0);
        assert_eq!(empty.mean_queue_len(SimTime::ZERO), 0.0);
        assert_eq!(empty.utilization(SimTime::from_nanos(10)), 0.0);
        assert_eq!(empty.mean_queue_len(SimTime::from_nanos(10)), 0.0);
    }

    #[test]
    fn fail_all_drops_work_and_blocks_arrivals() {
        let mut pool = ServerPool::new(1);
        assert!(pool.arrive(SimTime::ZERO, 1).is_some());
        assert!(pool.arrive(SimTime::ZERO, 2).is_none());
        assert!(pool.arrive(SimTime::ZERO, 3).is_none());
        assert!(!pool.is_down());
        let lost = pool.fail_all(SimTime::from_nanos(50));
        assert_eq!(lost, 3, "one in service + two queued");
        assert!(pool.is_down());
        assert_eq!(pool.busy(), 0);
        assert_eq!(pool.queued(), 0);
        pool.set_up();
        assert!(!pool.is_down());
        // The recovered station serves again from empty.
        assert_eq!(pool.arrive(SimTime::from_nanos(60), 4), Some(4));
    }

    #[test]
    fn utilization_integrates_across_a_crash() {
        let mut pool = ServerPool::new(1);
        assert!(pool.arrive(SimTime::ZERO, ()).is_some());
        // Busy 0..50, crashed (idle) 50..100 → utilization 0.5.
        pool.fail_all(SimTime::from_nanos(50));
        let u = pool.utilization(SimTime::from_nanos(100));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "down station")]
    fn arrival_at_down_station_panics() {
        let mut pool = ServerPool::new(1);
        pool.fail_all(SimTime::ZERO);
        pool.arrive(SimTime::from_nanos(1), ());
    }

    #[test]
    #[should_panic(expected = "no busy server")]
    fn completion_without_start_panics() {
        let mut pool: ServerPool<()> = ServerPool::new(1);
        pool.complete(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _: ServerPool<()> = ServerPool::new(0);
    }
}

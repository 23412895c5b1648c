//! Deterministic fault injection: crash/recover schedules, degraded
//! disks and lossy links.
//!
//! HolDCSim-style holistic DC simulation needs explicit server state
//! transitions (up / down / degraded) to reproduce observed latency
//! tails; this module provides them as *data*, not as runtime coin
//! flips: a [`FaultPlan`] is generated up front from a [`FaultSpec`]
//! with [`Rng64::for_stream`] — one independent stream per chunkserver —
//! so the same spec produces a byte-identical plan at any `--threads`
//! count, and fault randomness never perturbs the workload RNG stream.
//!
//! The plan is a renewal process per server: exponential time-to-failure
//! draws (mean `mttf_secs`) alternate with exponential repair draws
//! (mean `mttr_secs`) up to a horizon the cluster derives from its
//! workload. After each recovery the server's disk stays *degraded* for
//! `degraded_secs`, serving I/O slower by that server's drawn slowdown
//! factor (cold caches, re-silvering). Link drops are per-attempt
//! Bernoulli draws taken from a separate per-trial stream at dispatch
//! time.

use kooza_sim::rng::Rng64;
use kooza_sim::{SimDuration, SimTime};
use kooza_stats::dist::{Distribution, Exponential};

use crate::{GfsError, Result};

/// Seconds of fault horizon a run gets on top of twice its expected
/// workload span, so retry-stretched tails still meet crashes.
pub const FAULT_HORIZON_SLACK_SECS: f64 = 120.0;

/// Most crash/recover windows a spec may schedule per server, in
/// expectation, over [`FAULT_HORIZON_SLACK_SECS`]. A server crashes once
/// per `mttf + mttr` on average, so this floors that cycle at 0.12 s. The
/// harshest spec in the repository's tests, `mttf=1.5,mttr=0.3`, schedules
/// about 67; one of `mttf=0.001,mttr=0.001` would schedule 60,000 and
/// every `is_down` scan would walk them. A longer run scales the count by
/// its horizon, so a plan grows with the workload, never with the spec
/// alone.
pub const MAX_EXPECTED_WINDOWS: f64 = 1_000.0;

/// Fault-injection knobs. `ClusterConfig::faults = Some(spec)` arms them;
/// `None` (the default) keeps the simulator on the exact healthy path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Mean time to failure per chunkserver, seconds (exponential).
    pub mttf_secs: f64,
    /// Mean time to recover a crashed chunkserver, seconds (exponential).
    pub mttr_secs: f64,
    /// Upper bound of the per-disk degraded-window slowdown factor; each
    /// server draws its factor uniformly from `[1, max_disk_slowdown]`.
    pub max_disk_slowdown: f64,
    /// How long a recovered server's disk stays degraded, seconds.
    pub degraded_secs: f64,
    /// Probability that any single client→server attempt is lost in
    /// transit (the client only notices via its timeout).
    pub link_drop: f64,
    /// Client timeout for the first attempt, seconds.
    pub retry_timeout_secs: f64,
    /// Timeout multiplier per retry (exponential backoff).
    pub backoff: f64,
    /// Retries before a request is abandoned.
    pub max_retries: u32,
    /// Most chunks the master re-replicates per crash.
    pub rereplicate_batch: usize,
    /// Master failure-detection delay before re-replication starts, secs.
    pub detect_secs: f64,
    /// Seed of the fault streams (independent of the workload seed).
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        // A deliberately harsh regime: servers crash every ~30 simulated
        // seconds so short validation runs actually ride through faults.
        FaultSpec {
            mttf_secs: 30.0,
            mttr_secs: 2.0,
            max_disk_slowdown: 2.0,
            degraded_secs: 5.0,
            link_drop: 0.0,
            retry_timeout_secs: 0.5,
            backoff: 2.0,
            max_retries: 8,
            rereplicate_batch: 4,
            detect_secs: 0.5,
            seed: 0xFA17,
        }
    }
}

impl FaultSpec {
    /// Parses a CLI spec string: comma-separated `key=value` pairs over
    /// the defaults, e.g. `mttf=20,mttr=1,drop=0.01,slow=3,seed=7`.
    ///
    /// Keys: `mttf`, `mttr`, `slow`, `degraded`, `drop`, `timeout`,
    /// `backoff`, `retries`, `batch`, `detect`, `seed`. An empty string
    /// yields the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`GfsError::InvalidConfig`] for unknown keys, malformed
    /// values, or a spec that fails [`FaultSpec::validate`].
    pub fn parse(spec: &str) -> Result<Self> {
        let mut out = FaultSpec::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair.split_once('=').ok_or_else(|| GfsError::InvalidConfig {
                field: "faults",
                detail: format!("expected key=value, got `{pair}`"),
            })?;
            let bad = |what: &str| GfsError::InvalidConfig {
                field: "faults",
                detail: format!("`{value}` is not a valid {what} for `{key}`"),
            };
            let f64_val = || value.trim().parse::<f64>().map_err(|_| bad("number"));
            match key.trim() {
                "mttf" => out.mttf_secs = f64_val()?,
                "mttr" => out.mttr_secs = f64_val()?,
                "slow" => out.max_disk_slowdown = f64_val()?,
                "degraded" => out.degraded_secs = f64_val()?,
                "drop" => out.link_drop = f64_val()?,
                "timeout" => out.retry_timeout_secs = f64_val()?,
                "backoff" => out.backoff = f64_val()?,
                "retries" => {
                    out.max_retries = value.trim().parse().map_err(|_| bad("count"))?;
                }
                "batch" => {
                    out.rereplicate_batch = value.trim().parse().map_err(|_| bad("count"))?;
                }
                "detect" => out.detect_secs = f64_val()?,
                "seed" => out.seed = value.trim().parse().map_err(|_| bad("seed"))?,
                other => {
                    return Err(GfsError::InvalidConfig {
                        field: "faults",
                        detail: format!("unknown fault key `{other}`"),
                    })
                }
            }
        }
        out.validate()?;
        Ok(out)
    }

    /// Checks every knob is in range, and that the plan stays within
    /// [`MAX_EXPECTED_WINDOWS`].
    ///
    /// # Errors
    ///
    /// Returns [`GfsError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        // A mean must fit the simulated clock: at least its 1 ns tick (a
        // finer mean has an infinite rate) and at most its range (a
        // coarser one could draw an infinite crash or repair time).
        let tick = SimDuration::from_nanos(1).as_secs_f64();
        let range = SimDuration::MAX.as_secs_f64();
        let means = [
            ("faults.mttf_secs", self.mttf_secs),
            ("faults.mttr_secs", self.mttr_secs),
        ];
        for (field, v) in means {
            if !(tick..=range).contains(&v) {
                return Err(GfsError::InvalidConfig {
                    field: "faults",
                    detail: format!("{field} must be between {tick:e} and {range:e} s (got {v:e})"),
                });
            }
        }
        if !(self.retry_timeout_secs.is_finite() && self.retry_timeout_secs > 0.0) {
            return Err(GfsError::InvalidConfig {
                field: "faults",
                detail: format!(
                    "faults.retry_timeout_secs must be finite and positive (got {})",
                    self.retry_timeout_secs
                ),
            });
        }
        let cycle_secs = self.mttf_secs + self.mttr_secs;
        if FAULT_HORIZON_SLACK_SECS / cycle_secs > MAX_EXPECTED_WINDOWS {
            return Err(GfsError::InvalidConfig {
                field: "faults",
                detail: format!(
                    "mttf + mttr must be at least {} s, at most {MAX_EXPECTED_WINDOWS} crashes \
                     per server per {FAULT_HORIZON_SLACK_SECS} s (got {cycle_secs} s)",
                    FAULT_HORIZON_SLACK_SECS / MAX_EXPECTED_WINDOWS
                ),
            });
        }
        if !(self.max_disk_slowdown.is_finite() && self.max_disk_slowdown >= 1.0) {
            return Err(GfsError::InvalidConfig {
                field: "faults",
                detail: format!(
                    "max_disk_slowdown must be >= 1 (got {})",
                    self.max_disk_slowdown
                ),
            });
        }
        if !(self.degraded_secs.is_finite() && self.degraded_secs >= 0.0) {
            return Err(GfsError::InvalidConfig {
                field: "faults",
                detail: format!("degraded_secs must be >= 0 (got {})", self.degraded_secs),
            });
        }
        if !(self.detect_secs.is_finite() && self.detect_secs >= 0.0) {
            return Err(GfsError::InvalidConfig {
                field: "faults",
                detail: format!("detect_secs must be >= 0 (got {})", self.detect_secs),
            });
        }
        if !(0.0..1.0).contains(&self.link_drop) {
            return Err(GfsError::InvalidConfig {
                field: "faults",
                detail: format!("link_drop must be in [0, 1) (got {})", self.link_drop),
            });
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return Err(GfsError::InvalidConfig {
                field: "faults",
                detail: format!("backoff must be >= 1 (got {})", self.backoff),
            });
        }
        Ok(())
    }

    /// The timeout for attempt `attempt` (0-based): `retry_timeout_secs ×
    /// backoff^attempt`, with the exponent capped so the duration never
    /// overflows.
    pub fn timeout_for_attempt(&self, attempt: u32) -> SimDuration {
        let exp = attempt.min(16);
        SimDuration::from_secs_f64(self.retry_timeout_secs * self.backoff.powi(exp as i32))
    }
}

/// One down interval: the server is unreachable in `[down, up)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Crash instant.
    pub down: SimTime,
    /// Recovery instant.
    pub up: SimTime,
}

/// One server's precomputed fault schedule.
#[derive(Debug, Clone, PartialEq)]
struct ServerFaults {
    windows: Vec<FaultWindow>,
    disk_slowdown: f64,
}

/// A cluster-wide, precomputed fault schedule.
///
/// Generated once per run from `(spec, n_servers, horizon)`; crashes past
/// the horizon are not scheduled (a run that outlives its horizon simply
/// finishes fault-free), which keeps the plan finite and identical
/// however long the event loop actually takes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    servers: Vec<ServerFaults>,
    degraded: SimDuration,
}

impl FaultPlan {
    /// Generates the schedule for `n_servers` servers over `horizon`.
    ///
    /// Each server's crash/recover renewal process is drawn from its own
    /// `Rng64::for_stream(spec.seed, server)` stream, so the plan does not
    /// depend on thread count, iteration order, or the workload seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation (the cluster validates configs
    /// before running).
    pub fn generate(spec: &FaultSpec, n_servers: usize, horizon: SimDuration) -> Self {
        spec.validate().expect("fault spec validated by config");
        let ttf = Exponential::with_mean(spec.mttf_secs).expect("validated mttf");
        let ttr = Exponential::with_mean(spec.mttr_secs).expect("validated mttr");
        let servers = (0..n_servers)
            .map(|s| {
                let mut rng = Rng64::for_stream(spec.seed, s as u64);
                let disk_slowdown = 1.0 + (spec.max_disk_slowdown - 1.0) * rng.next_f64();
                let mut windows = Vec::new();
                let mut t = 0.0f64;
                loop {
                    t += ttf.sample(&mut rng);
                    let down = SimDuration::from_secs_f64(t);
                    if down >= horizon {
                        break;
                    }
                    t += ttr.sample(&mut rng);
                    windows.push(FaultWindow {
                        down: SimTime::ZERO + down,
                        up: SimTime::ZERO + SimDuration::from_secs_f64(t),
                    });
                }
                ServerFaults { windows, disk_slowdown }
            })
            .collect();
        FaultPlan {
            servers,
            degraded: SimDuration::from_secs_f64(spec.degraded_secs),
        }
    }

    /// Number of servers the plan covers.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    /// The crash/recover windows of one server, time-ordered.
    pub fn windows(&self, server: usize) -> &[FaultWindow] {
        &self.servers[server].windows
    }

    /// Whether `server` is inside a down window at `t`.
    pub fn is_down(&self, server: usize, t: SimTime) -> bool {
        self.servers[server]
            .windows
            .iter()
            .any(|w| t >= w.down && t < w.up)
    }

    /// The disk service-time multiplier for `server` at `t`: the server's
    /// drawn slowdown factor while inside a post-recovery degraded window,
    /// `1.0` otherwise.
    pub fn disk_slowdown(&self, server: usize, t: SimTime) -> f64 {
        let sf = &self.servers[server];
        if sf
            .windows
            .iter()
            .any(|w| t >= w.up && t < w.up + self.degraded)
        {
            sf.disk_slowdown
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn plan_is_deterministic_per_stream() {
        let spec = FaultSpec::default();
        let a = FaultPlan::generate(&spec, 4, horizon(300.0));
        let b = FaultPlan::generate(&spec, 4, horizon(300.0));
        assert_eq!(a, b);
        // Growing the cluster does not disturb existing servers' streams.
        let c = FaultPlan::generate(&spec, 8, horizon(300.0));
        for s in 0..4 {
            assert_eq!(a.windows(s), c.windows(s), "server {s} schedule changed");
        }
        // A different fault seed produces a different schedule.
        let other = FaultPlan::generate(&FaultSpec { seed: 999, ..spec }, 4, horizon(300.0));
        assert_ne!(a, other);
    }

    #[test]
    fn windows_are_ordered_and_bounded() {
        let spec = FaultSpec::default();
        let plan = FaultPlan::generate(&spec, 6, horizon(500.0));
        let crashes: usize = (0..6).map(|s| plan.windows(s).len()).sum();
        assert!(crashes > 0, "500s at 30s MTTF should crash");
        for s in 0..6 {
            let mut last_up = SimTime::ZERO;
            for w in plan.windows(s) {
                assert!(w.down >= last_up, "windows overlap");
                assert!(w.up > w.down, "empty window");
                assert!(w.down < SimTime::ZERO + horizon(500.0), "crash past horizon");
                last_up = w.up;
            }
        }
    }

    #[test]
    fn down_and_degraded_lookups() {
        let spec = FaultSpec::default();
        let plan = FaultPlan::generate(&spec, 2, horizon(400.0));
        let w = plan.windows(0)[0];
        assert!(!plan.is_down(0, w.down - SimDuration::from_nanos(1)));
        assert!(plan.is_down(0, w.down));
        assert!(plan.is_down(0, w.up - SimDuration::from_nanos(1)));
        assert!(!plan.is_down(0, w.up));
        // Degraded right after recovery, back to 1.0 afterwards.
        assert!(plan.disk_slowdown(0, w.up) >= 1.0);
        let past = w.up + SimDuration::from_secs_f64(spec.degraded_secs);
        assert_eq!(plan.disk_slowdown(0, past + SimDuration::from_nanos(1)), 1.0);
    }

    #[test]
    fn slowdown_factor_within_bounds() {
        let spec = FaultSpec { max_disk_slowdown: 3.0, ..FaultSpec::default() };
        let plan = FaultPlan::generate(&spec, 16, horizon(200.0));
        for s in 0..16 {
            let f = plan.servers[s].disk_slowdown;
            assert!((1.0..=3.0).contains(&f), "server {s} slowdown {f}");
        }
    }

    #[test]
    fn zero_horizon_means_no_crashes() {
        let plan = FaultPlan::generate(&FaultSpec::default(), 4, SimDuration::ZERO);
        assert_eq!((0..4).map(|s| plan.windows(s).len()).sum::<usize>(), 0);
    }

    #[test]
    fn spec_parsing_round_trip() {
        let spec = FaultSpec::parse("mttf=20,mttr=1.5,slow=3,drop=0.01,seed=42").unwrap();
        assert_eq!(spec.mttf_secs, 20.0);
        assert_eq!(spec.mttr_secs, 1.5);
        assert_eq!(spec.max_disk_slowdown, 3.0);
        assert_eq!(spec.link_drop, 0.01);
        assert_eq!(spec.seed, 42);
        // Untouched keys keep their defaults.
        assert_eq!(spec.max_retries, FaultSpec::default().max_retries);
        // Empty string is the default spec.
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(FaultSpec::parse("mttf").is_err());
        assert!(FaultSpec::parse("mttf=abc").is_err());
        assert!(FaultSpec::parse("warp=9").is_err());
        assert!(FaultSpec::parse("mttf=0").is_err());
        assert!(FaultSpec::parse("drop=1.0").is_err());
        assert!(FaultSpec::parse("slow=0.5").is_err());
        assert!(FaultSpec::parse("backoff=0.9").is_err());
        // Plans that would schedule more than the window cap, and means
        // outside the simulated clock's range.
        for spec in ["mttf=0.001,mttr=0.001", "mttf=1e-5,mttr=1e-5", "mttf=0.1,mttr=0.01"] {
            let err = FaultSpec::parse(spec).expect_err(spec).to_string();
            assert!(err.contains("mttf + mttr must be at least 0.12 s"), "{spec}: {err}");
        }
        assert!(FaultSpec::parse("mttf=1e300").is_err());
        assert!(FaultSpec::parse("mttf=1e6,mttr=1e-320").is_err());
    }

    #[test]
    fn timeouts_back_off_exponentially() {
        let spec = FaultSpec { retry_timeout_secs: 0.5, backoff: 2.0, ..FaultSpec::default() };
        assert_eq!(spec.timeout_for_attempt(0), SimDuration::from_secs_f64(0.5));
        assert_eq!(spec.timeout_for_attempt(1), SimDuration::from_secs_f64(1.0));
        assert_eq!(spec.timeout_for_attempt(3), SimDuration::from_secs_f64(4.0));
        // The exponent caps instead of overflowing.
        assert!(spec.timeout_for_attempt(u32::MAX) > SimDuration::ZERO);
    }
}

//! Replaying synthetic requests against hardware models.
//!
//! The paper validates KOOZA by checking that "requests generated using the
//! model have the same features and performance metrics as the original
//! requests" — performance means latency on the *same* platform. This
//! module replays [`SyntheticRequest`]s through the exact hardware models
//! the GFS simulator uses (disk with persistent head position, banked
//! memory, latency+bandwidth links), so a model that generates the right
//! per-subsystem demands gets the right latency, and one that mis-orders
//! or mis-correlates demands does not.
//!
//! [`replay_loaded_latency_secs`] lets requests arrive at their generated
//! inter-arrival times and queue at the CPU, disk and NIC stations, as in
//! the simulator that produced the training traces; hardware state (disk
//! head, memory bank) persists across requests, so locality still matters.
//! The validation and cross-examination harnesses use it, since the
//! latencies they compare against include queueing. A request that
//! arrives after the one before it left meets idle stations, so its
//! latency is the sum of its phase times, as in the paper's
//! single-request Table 2 experiments.
//!
//! Loaded replay keeps its arrivals out of the event heap. The arrival
//! instants stay in a time-ordered vector walked by a cursor, and the
//! heap holds only service completions and the zero-delay starts of
//! later phases. The merge rule reproduces the order of a heap filled
//! with every arrival up front: the next arrival goes first whenever its
//! instant is at or before the heap's next event, because arrivals
//! scheduled before everything else held the lowest sequence numbers
//! and so won every tie at equal instants.

use kooza_gfs::{ClusterConfig, CpuParams, DiskParams, LinkParams, MemoryParams};
use kooza_gfs::{DiskModel, LinkModel, MemoryModel};
use kooza_sim::SimDuration;

use crate::{PhaseDemand, SyntheticRequest};

/// Hardware parameters used for replay. Construct from the same
/// [`ClusterConfig`] that produced the training trace to validate
/// model fidelity, or from a *different* one to run what-if server
/// configuration studies (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub struct ReplayConfig {
    /// Disk parameters.
    pub disk: DiskParams,
    /// Memory parameters.
    pub memory: MemoryParams,
    /// Link parameters.
    pub link: LinkParams,
    /// CPU parameters (used only for core count bookkeeping).
    pub cpu: CpuParams,
}

impl From<&ClusterConfig> for ReplayConfig {
    fn from(c: &ClusterConfig) -> Self {
        ReplayConfig {
            disk: c.disk,
            memory: c.memory,
            link: c.link,
            cpu: c.cpu,
        }
    }
}


/// The replay platform's hardware state, which persists across requests.
#[derive(Debug)]
struct Replayer {
    disk: DiskModel,
    memory: MemoryModel,
    link: LinkModel,
}

impl Replayer {
    /// A replayer with fresh hardware state.
    fn new(config: ReplayConfig) -> Self {
        Replayer {
            disk: DiskModel::new(config.disk),
            memory: MemoryModel::new(config.memory),
            link: LinkModel::new(config.link),
        }
    }

    /// Service time of one phase on this hardware. Disk and memory
    /// accesses move the head and the open bank, so call this once per
    /// phase, when its service starts.
    fn service(&mut self, phase: &PhaseDemand) -> SimDuration {
        match phase {
            PhaseDemand::NetworkIn { bytes } | PhaseDemand::NetworkOut { bytes } => {
                self.link.transfer(*bytes)
            }
            PhaseDemand::Cpu { busy_nanos } => SimDuration::from_nanos(*busy_nanos),
            PhaseDemand::Memory { bank, bytes, .. } => self.memory.access(*bank, *bytes),
            PhaseDemand::Disk { lbn, bytes, .. } => self.disk.access(*lbn, *bytes),
            PhaseDemand::Opaque { duration_nanos } => SimDuration::from_nanos(*duration_nanos),
        }
    }
}

/// Replays requests **with contention**: requests arrive at their
/// generated inter-arrival times and queue at the CPU (cores), disk
/// (single spindle) and NIC (one ingress, one egress channel), exactly as
/// in the simulator that produced the training traces. This is the replay
/// the validation and cross-examination harnesses use — original latencies
/// include queueing delay, so faithful synthetic latencies must too.
///
/// `Opaque` phases run without contention (their trained durations already
/// include the queueing observed at trace time).
///
/// Returns per-request latencies in seconds, request order.
pub fn replay_loaded_latency_secs(
    requests: &[SyntheticRequest],
    config: ReplayConfig,
) -> Vec<f64> {
    // The span is recorded only on the observability owner thread; from
    // `par_map` workers (per-model cross-exam, per-case validation) the
    // closure still runs and the metrics below still commute.
    kooza_obs::global::stage("replay", || replay_loaded_impl(requests, config))
}

/// The contended station a phase queues at in loaded replay, as an index
/// into its pools (network in, network out, CPU, disk). Memory and opaque
/// phases hold no station.
fn station(phase: &PhaseDemand) -> Option<usize> {
    match phase {
        PhaseDemand::NetworkIn { .. } => Some(0),
        PhaseDemand::NetworkOut { .. } => Some(1),
        PhaseDemand::Cpu { .. } => Some(2),
        PhaseDemand::Disk { .. } => Some(3),
        PhaseDemand::Memory { .. } | PhaseDemand::Opaque { .. } => None,
    }
}

fn replay_loaded_impl(requests: &[SyntheticRequest], config: ReplayConfig) -> Vec<f64> {
    use kooza_sim::{Engine, ServerPool, SimTime};

    #[derive(Debug)]
    enum Ev {
        Start { req: usize, phase: usize },
        Done { req: usize, phase: usize },
    }

    let mut engine: Engine<Ev> = Engine::new();
    let mut hardware = Replayer::new(config);
    // Indexed by `station`: one ingress and one egress NIC channel, the
    // CPU cores and a single disk spindle.
    let mut pools: [ServerPool<(usize, usize)>; 4] = [
        ServerPool::new(1),
        ServerPool::new(1),
        ServerPool::new(config.cpu.cores.max(1)),
        ServerPool::new(1),
    ];

    // Arrival instants at cumulative inter-arrival offsets, in time order.
    let mut t = SimTime::ZERO;
    let start_times: Vec<SimTime> = requests
        .iter()
        .map(|r| {
            t += SimDuration::from_secs_f64(r.interarrival_secs.max(0.0));
            t
        })
        .collect();
    let mut latencies = vec![f64::NAN; requests.len()];

    // Arrivals stream from `start_times`, winning ties with the heap (see
    // the module doc). The engine's clock never sees them, so handlers
    // schedule at absolute instants.
    let mut arrived = 0;
    loop {
        let (now, ev) = match start_times.get(arrived) {
            Some(&at) if engine.peek_time().is_none_or(|next| at <= next) => {
                arrived += 1;
                (at, Ev::Start { req: arrived - 1, phase: 0 })
            }
            _ => match engine.next() {
                Some(event) => event,
                None => break,
            },
        };
        match ev {
            Ev::Start { req, phase } => {
                let Some(demand) = requests[req].phases.get(phase) else {
                    latencies[req] = (now - start_times[req]).as_secs_f64();
                    continue;
                };
                // A free station (or none) starts service now; a busy one
                // queues the job until a completion frees it.
                let started = match station(demand) {
                    Some(s) => pools[s].arrive(now, (req, phase)),
                    None => Some((req, phase)),
                };
                if let Some((r, p)) = started {
                    let service = hardware.service(&requests[r].phases[p]);
                    engine.schedule_at(now + service, Ev::Done { req: r, phase: p });
                }
            }
            Ev::Done { req, phase } => {
                // Release the station this phase held; start the next
                // queued job on it.
                if let Some(s) = station(&requests[req].phases[phase]) {
                    if let Some((r, p)) = pools[s].complete(now) {
                        let service = hardware.service(&requests[r].phases[p]);
                        engine.schedule_at(now + service, Ev::Done { req: r, phase: p });
                    }
                }
                // Advance the request.
                if phase + 1 < requests[req].phases.len() {
                    engine.schedule_at(now, Ev::Start { req, phase: phase + 1 });
                } else {
                    latencies[req] = (now - start_times[req]).as_secs_f64();
                }
            }
        }
    }
    kooza_obs::global::with_registry(|reg| {
        /// Replay latency buckets, nanoseconds: 1µs … 10s by decades.
        const LATENCY_BOUNDS: &[u64] = &[
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
            10_000_000_000,
        ];
        reg.counter_add("replay.requests", requests.len() as u64);
        // Arrivals are events too, though they never enter the heap.
        reg.counter_add("replay.events", engine.processed() + requests.len() as u64);
        reg.gauge_max("replay.pending_high_water", engine.pending_high_water() as f64);
        let histogram = reg.histogram_mut("replay.latency_nanos", LATENCY_BOUNDS);
        for &latency in &latencies {
            if latency.is_finite() && latency >= 0.0 {
                histogram.record((latency * 1e9) as u64);
            }
        }
    });
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_sim::rng::Rng64;
    use kooza_sim::{Engine, ServerPool, SimTime};
    use kooza_trace::record::IoOp;

    /// A read of `size` bytes at `lbn`. Reads arrive a second apart, long
    /// after the one before has left, so each meets idle stations and its
    /// latency is the sum of its phase times.
    fn read_request(size: u64, lbn: u64) -> SyntheticRequest {
        SyntheticRequest {
            interarrival_secs: 1.0,
            phases: vec![
                PhaseDemand::NetworkIn { bytes: 1024 },
                PhaseDemand::Cpu { busy_nanos: 50_000 },
                PhaseDemand::Memory { bank: 0, bytes: size / 4, op: IoOp::Read },
                PhaseDemand::Disk { lbn, bytes: size, op: IoOp::Read },
                PhaseDemand::Cpu { busy_nanos: 50_000 },
                PhaseDemand::NetworkOut { bytes: size },
            ],
        }
    }

    fn replay(requests: &[SyntheticRequest]) -> Vec<f64> {
        replay_loaded_latency_secs(requests, ReplayConfig::default())
    }

    #[test]
    fn latency_is_sum_of_phases() {
        let req = SyntheticRequest {
            interarrival_secs: 0.0,
            phases: vec![
                PhaseDemand::Cpu { busy_nanos: 1_000_000 },
                PhaseDemand::Opaque { duration_nanos: 2_000_000 },
            ],
        };
        let lat = replay(&[req])[0];
        assert!((lat - 0.003).abs() < 1e-12, "lat {lat}");
    }

    #[test]
    fn bigger_requests_take_longer() {
        let lat = replay(&[
            read_request(64 * 1024, 1_000_000),
            read_request(4 * 1024 * 1024, 1_000_000),
        ]);
        let (small, big) = (lat[0], lat[1]);
        assert!(big > 3.0 * small, "small {small} big {big}");
    }

    #[test]
    fn disk_head_state_carries_across_requests() {
        // Request far away, then an adjacent one: the second is cheaper
        // than a far jump would be.
        let near = replay(&[
            read_request(4096, 1_000_000_000),
            read_request(4096, 1_000_000_008),
        ]);
        let far = replay(&[read_request(4096, 1_000_000_000), read_request(4096, 1)]);
        assert!(near[1] < far[1], "near {} far {}", near[1], far[1]);
    }

    #[test]
    fn what_if_config_changes_latency() {
        // §5 use case: the same synthetic workload replayed against a
        // faster disk shows the win without touching application code.
        let reqs: Vec<SyntheticRequest> =
            (0..50).map(|i| read_request(1024 * 1024, i * 1_000_000)).collect();
        let slow = replay(&reqs);
        let mut fast_cfg = ReplayConfig::default();
        fast_cfg.disk.transfer_bytes_per_sec = 500e6; // SSD-class streaming
        fast_cfg.disk.seek_base_secs = 0.0001;
        fast_cfg.disk.seek_full_secs = 0.0002;
        let fast = replay_loaded_latency_secs(&reqs, fast_cfg);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&fast) < mean(&slow) * 0.7, "fast {} slow {}", mean(&fast), mean(&slow));
    }

    /// Loaded replay with every arrival scheduled in the heap before the
    /// first event: the loop `replay_loaded_impl` replaced, kept as the
    /// reference for its event order.
    fn reference_replay(requests: &[SyntheticRequest], config: ReplayConfig) -> Vec<f64> {
        enum Ev {
            Start { req: usize, phase: usize },
            Done { req: usize, phase: usize },
        }
        let mut engine: Engine<Ev> = Engine::new();
        let mut hardware = Replayer::new(config);
        let mut pools: [ServerPool<(usize, usize)>; 4] = [
            ServerPool::new(1),
            ServerPool::new(1),
            ServerPool::new(config.cpu.cores.max(1)),
            ServerPool::new(1),
        ];
        let mut start_times = vec![SimTime::ZERO; requests.len()];
        let mut latencies = vec![f64::NAN; requests.len()];
        let mut t = SimTime::ZERO;
        for (i, r) in requests.iter().enumerate() {
            t += SimDuration::from_secs_f64(r.interarrival_secs.max(0.0));
            engine.schedule_at(t, Ev::Start { req: i, phase: 0 });
            start_times[i] = t;
        }
        while let Some((now, ev)) = engine.next() {
            match ev {
                Ev::Start { req, phase } => {
                    let Some(demand) = requests[req].phases.get(phase) else {
                        latencies[req] = (now - start_times[req]).as_secs_f64();
                        continue;
                    };
                    let started = match station(demand) {
                        Some(s) => pools[s].arrive(now, (req, phase)),
                        None => Some((req, phase)),
                    };
                    if let Some((r, p)) = started {
                        let service = hardware.service(&requests[r].phases[p]);
                        engine.schedule(service, Ev::Done { req: r, phase: p });
                    }
                }
                Ev::Done { req, phase } => {
                    if let Some(s) = station(&requests[req].phases[phase]) {
                        if let Some((r, p)) = pools[s].complete(now) {
                            let service = hardware.service(&requests[r].phases[p]);
                            engine.schedule(service, Ev::Done { req: r, phase: p });
                        }
                    }
                    if phase + 1 < requests[req].phases.len() {
                        engine.schedule(SimDuration::ZERO, Ev::Start { req, phase: phase + 1 });
                    } else {
                        latencies[req] = (now - start_times[req]).as_secs_f64();
                    }
                }
            }
        }
        latencies
    }

    /// A batch built to put arrivals and completions on the same
    /// nanosecond: interarrivals and CPU/opaque service times are small
    /// whole microseconds, zero included, so ties are common. Memory and
    /// opaque phases hold no station, and memory banks and disk blocks
    /// make the hardware state depend on the order services start.
    fn tied_batch(rng: &mut Rng64) -> Vec<SyntheticRequest> {
        let micros = |rng: &mut Rng64, max: u64| rng.next_bounded(max + 1) * 1_000;
        let n = rng.next_bounded(40) as usize;
        (0..n)
            .map(|_| {
                let phases = (0..rng.next_bounded(5))
                    .map(|_| match rng.next_bounded(6) {
                        0 => PhaseDemand::Cpu { busy_nanos: micros(rng, 3) },
                        1 => PhaseDemand::Opaque { duration_nanos: micros(rng, 3) },
                        2 => PhaseDemand::Memory {
                            bank: rng.next_bounded(4) as u32,
                            bytes: 64 << rng.next_bounded(6),
                            op: IoOp::Read,
                        },
                        3 => PhaseDemand::Disk {
                            lbn: rng.next_bounded(4) * 1_000_000,
                            bytes: 4096,
                            op: IoOp::Write,
                        },
                        4 => PhaseDemand::NetworkIn { bytes: 1024 },
                        _ => PhaseDemand::NetworkOut { bytes: 1024 },
                    })
                    .collect();
                SyntheticRequest { interarrival_secs: micros(rng, 2) as f64 * 1e-9, phases }
            })
            .collect()
    }

    /// Streaming arrivals reproduce the pre-filled heap's order exactly,
    /// ties at equal instants included: latencies agree bit for bit.
    #[test]
    fn streamed_arrivals_match_the_prefilled_heap() {
        let mut batches = 0;
        for seed in 0..40 {
            let mut rng = Rng64::new(seed);
            let batch = tied_batch(&mut rng);
            for cores in [1, 8] {
                let mut config = ReplayConfig::default();
                config.cpu.cores = cores;
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(replay_loaded_impl(&batch, config)),
                    bits(reference_replay(&batch, config)),
                    "seed {seed}, {cores} cores, {} requests",
                    batch.len()
                );
            }
            batches += usize::from(!batch.is_empty());
        }
        assert!(batches >= 20, "only {batches} non-empty batches");
        assert!(replay_loaded_impl(&[], ReplayConfig::default()).is_empty());
    }
}

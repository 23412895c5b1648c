//! The GFS protocol, written once: one handler per [`Ev`] and [`ShardMsg`]
//! variant, over a [`Shard`] host context.
//!
//! A shard owns an engine, a group of chunkservers (stations, hardware
//! models, liveness and crash epochs), the transport seam (ideal links or a
//! rack fabric), a mailbox and, on shard 0, the control plane: the workload
//! generator, the master's placement table, attempt timeouts and the
//! outcome ledger. Two hostings run the same handlers:
//!
//! * [`Cluster::run`] hosts one shard owning every server. Its mailbox
//!   calls the receiving handler at once, the serving and control roles
//!   share one record per request and the live master, placement comes from
//!   [`Cluster::new`], and the loop stops as soon as every request resolved
//!   and no repair is in flight. Every fault-injected or rack-fabric run is
//!   hosted this way, so crashes, timeouts, repairs and the fabric never
//!   meet a window barrier.
//! * [`Cluster::run_sharded`] hosts N shards whose mailboxes buffer in an
//!   [`Outbox`] until the window barrier (see `sharded.rs`), for fault-free
//!   runs on ideal links only. Each serving shard builds its own record of
//!   an attempt, with the replica-set snapshot, from the `Attempt` message.
//!
//! The host, not a handler, decides the two ways N shards differ from one:
//! group-aligned placement, and a dispatch or completion landing at the
//! next window boundary. DESIGN.md §11 lists both next to their tests.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use kooza_sim::rng::Rng64;
use kooza_sim::{
    Endpoint, Engine, Fabric, Outbox, ServerPool, SimDuration, SimTime, Tally, TimerHandle,
};
use kooza_stats::dist::{DiscreteDistribution, Distribution, Exponential, Zipf};
use kooza_trace::record::{CpuRecord, Direction, IoOp, MemoryRecord, NetworkRecord, StorageRecord};
use kooza_trace::sampler::Sampler;
use kooza_trace::span::{Span, SpanId, SpanName, TraceId};
use kooza_trace::TraceSet;

use super::{Cluster, ClusterOutcome, ClusterStats, FaultStats, RequestOutcome};
use crate::config::{ClusterConfig, Topology};
use crate::fault::{FaultPlan, FAULT_HORIZON_SLACK_SECS};
use crate::hardware::{CpuModel, DiskModel, LinkModel, MemoryModel};
use crate::master::{ChunkHandle, Master, LBNS_PER_CHUNK};

/// Request ids at or above this mark are background re-replication jobs,
/// not client requests (client ids are issued sequentially from 0).
const REREP_BASE: u64 = 1 << 63;

/// Bytes moved per re-replication: one full 64 MB chunk.
const REREP_BYTES: u64 = 64 * 1024 * 1024;

/// What kind of request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

impl Kind {
    fn op(self) -> IoOp {
        match self {
            Kind::Read => IoOp::Read,
            Kind::Write => IoOp::Write,
        }
    }
}

/// One request's record. The control plane keeps its birth, retries and
/// timer; the serving side runs the live attempt's Figure-1 pipeline on
/// it. At one shard both roles share the record; at N shards the serving
/// shard builds its own from each `Attempt`.
#[derive(Debug)]
pub(super) struct ReqState {
    kind: Kind,
    size: u64,
    mem_size: u64,
    chunk: ChunkHandle,
    /// The server the live attempt targets.
    server: usize,
    start: SimTime,
    lbn: u64,
    sampled: bool,
    cache_hit: bool,
    cpu_busy: SimDuration,
    pending_replicas: usize,
    /// Completed phase intervals for span assembly: (phase, start, end).
    phases: Vec<(Phase, SimTime, SimTime)>,
    /// Start of the phase currently in progress.
    phase_started: SimTime,
    /// Current attempt number; events from older attempts are stale.
    attempt: u32,
    /// Retries issued so far.
    retries: u32,
    /// The live attempt's timeout timer, if faults are armed.
    timeout: Option<TimerHandle>,
    /// Whether any of the request's disk I/O ran on a degraded disk.
    degraded: bool,
    /// Write-triggered re-replications riding on this write:
    /// `(dead_replica, stand_in)` pairs awaiting the stand-in's disk ack.
    replacements: Vec<(usize, usize)>,
    /// The replica set an `Attempt` carried (N shards only).
    replicas: Vec<usize>,
}

impl ReqState {
    /// Closes the phase in progress as `phase` at `now`.
    fn mark(&mut self, phase: Phase, now: SimTime) {
        self.phases.push((phase, self.phase_started, now));
        self.phase_started = now;
    }

    /// The serving shard's copy of the live attempt: the request and
    /// attempt as dispatched, with no serving-side progress yet.
    fn serving_copy(&self, replicas: Vec<usize>) -> ReqState {
        ReqState {
            cache_hit: false,
            cpu_busy: SimDuration::ZERO,
            pending_replicas: 0,
            phases: Vec::new(),
            retries: 0,
            timeout: None,
            degraded: false,
            replacements: Vec::new(),
            replicas,
            ..*self
        }
    }

    fn outcome(&self, id: u64, end: SimTime, failed: bool) -> RequestOutcome {
        RequestOutcome {
            id,
            is_read: self.kind == Kind::Read,
            size: self.size,
            latency_nanos: (end - self.start).as_nanos(),
            sampled: self.sampled,
            cpu_busy_nanos: self.cpu_busy.as_nanos(),
            cache_hit: self.cache_hit,
            retries: self.retries,
            faulted: failed || self.retries > 0 || self.degraded,
            failed,
        }
    }
}

/// One in-flight background re-replication: disk read at `from`, network
/// transfer to `to`, disk write at `to`, then the placement commit.
#[derive(Debug, Clone, Copy)]
struct RerepJob {
    chunk: ChunkHandle,
    dead: usize,
    from: usize,
    to: usize,
    lbn: u64,
}

/// A simulation event. Station completions carry the attempt that issued
/// the job and the server's crash epoch at scheduling time: a mismatched
/// epoch means a crash already drained the station (skip entirely); a
/// matched epoch but stale attempt means the client gave up on that attempt
/// (do the pool bookkeeping, skip request progression).
#[derive(Debug)]
enum Ev {
    /// Generator tick: issue request `id`.
    NewRequest { id: u64 },
    /// Ingress transfer done (`replica` marks replication traffic).
    NetInDone {
        id: u64,
        server: usize,
        replica: bool,
        attempt: u32,
        epoch: u32,
    },
    /// CPU phase done (`stage` 1 = lookup, 2 = aggregate).
    CpuDone {
        id: u64,
        server: usize,
        stage: u8,
        attempt: u32,
        epoch: u32,
    },
    /// Memory access done.
    MemDone {
        id: u64,
        server: usize,
        attempt: u32,
        epoch: u32,
    },
    /// Disk access done (`replica` marks replica writes).
    DiskDone {
        id: u64,
        server: usize,
        replica: bool,
        attempt: u32,
        epoch: u32,
    },
    /// Egress transfer done; the attempt is complete.
    NetOutDone {
        id: u64,
        server: usize,
        attempt: u32,
        epoch: u32,
    },
    /// A chunkserver goes down (pre-scheduled from the fault plan).
    Crash { server: usize },
    /// A crashed chunkserver comes back up.
    Recover { server: usize },
    /// A client attempt's timeout fired; retry or abandon.
    RequestTimeout { id: u64, attempt: u32 },
    /// The master repairs a chunk that lost `dead`'s replica.
    Rereplicate { chunk: ChunkHandle, dead: usize },
    /// The shared-fabric wake-up: the earliest flow finish or gate
    /// opening. Only scheduled when a rack topology is configured.
    FabricTick,
    /// A cross-shard message delivered at a window barrier (N shards only).
    Msg(Box<ShardMsg>),
}

/// A cross-shard message of the N-shard hosting, which runs only fault-free
/// clusters: `Attempt` flows control→serving, `Done` serving→control
/// (shard 0).
#[derive(Debug)]
pub(super) enum ShardMsg {
    /// Dispatch the live attempt of request `id` to `server`, with the
    /// serving copy of its record.
    Attempt {
        id: u64,
        server: usize,
        wire: u64,
        record: ReqState,
    },
    /// An attempt completed; `served` is its serving record.
    Done {
        id: u64,
        attempt: u32,
        done_at: SimTime,
        served: ReqState,
    },
}

/// A span's name: the request root or one of the pipeline phases
/// [`ReqState::mark`] closes. Spans are recorded as compact [`SpanRow`]s
/// and get their interned [`SpanName`] only when [`finish`] builds them.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Request,
    FaultRetry,
    NetworkIn,
    CpuLookup,
    CpuAggregate,
    Memory,
    Replicate,
    Disk,
    NetworkOut,
}

impl Phase {
    /// Every phase, in discriminant order.
    const ALL: [Phase; 9] = [
        Phase::Request,
        Phase::FaultRetry,
        Phase::NetworkIn,
        Phase::CpuLookup,
        Phase::CpuAggregate,
        Phase::Memory,
        Phase::Replicate,
        Phase::Disk,
        Phase::NetworkOut,
    ];

    /// The span name the trace carries.
    fn name(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::FaultRetry => "fault.retry",
            Phase::NetworkIn => "network.in",
            Phase::CpuLookup => "cpu.lookup",
            Phase::CpuAggregate => "cpu.aggregate",
            Phase::Memory => "memory",
            Phase::Replicate => "replicate",
            Phase::Disk => "disk",
            Phase::NetworkOut => "network.out",
        }
    }
}

/// One recorded span, before it becomes a [`Span`]: span `index` of trace
/// `trace` (0 is the root, the parent of every other index), its phase and
/// its interval in nanoseconds. 32 bytes, against a `Span`'s 88.
#[derive(Debug)]
struct SpanRow {
    trace: u64,
    start: u64,
    end: u64,
    index: u32,
    phase: Phase,
}

/// The trace's spans, built once each, in order of (start, span id) with
/// ties kept in row order: the order a stable sort of the rows by (start,
/// span id) gives. The row index in each sort key makes the keys unique,
/// so an unstable sort reproduces that stable order exactly; equal (start,
/// span id) pairs from different traces do occur, so the tiebreak shows
/// in the output.
fn spans_in_order(rows: &[SpanRow]) -> Vec<Span> {
    let n = u32::try_from(rows.len()).expect("fewer than 2^32 spans");
    let mut keys: Vec<(u64, u32, u32)> = rows
        .iter()
        .zip(0..n)
        .map(|(row, i)| (row.start, row.index, i))
        .collect();
    keys.sort_unstable();
    let names = Phase::ALL.map(|p| SpanName::from(p.name()));
    keys.iter()
        .map(|&(_, _, i)| {
            let row = &rows[i as usize];
            Span::new(
                TraceId(row.trace),
                SpanId(row.index.into()),
                (row.index > 0).then_some(SpanId(0)),
                names[row.phase as usize].clone(),
                row.start,
                row.end,
            )
        })
        .collect()
}

/// Hashes a `u64` id with one multiply by 2^64 / φ, for the id-keyed
/// tables the event loop looks up on every event. The simulator assigns
/// every id itself, so no outside input can pick colliding keys, and
/// nothing iterates one of these tables into output unsorted, so the hash
/// never shows.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("id tables hash u64 keys only");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table keyed by request, repair or flow id.
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// One chunkserver: its stations, hardware models and crash epoch.
///
/// Pool jobs carry what is needed to compute the service time *when the
/// job actually starts*: CPU jobs carry their precomputed busy time
/// (tracing overhead included), disk jobs carry `(lbn, size)` so the seek
/// reflects the head position at start, network jobs carry the wire size.
#[derive(Debug)]
struct Server {
    /// (request, stage, busy time, attempt)
    cpu_pool: ServerPool<(u64, u8, SimDuration, u32)>,
    /// (request, lbn, size, replica?, attempt)
    disk_pool: ServerPool<(u64, u64, u64, bool, u32)>,
    /// (request, wire bytes, replica?, attempt)
    net_in_pool: ServerPool<(u64, u64, bool, u32)>,
    /// (request, wire bytes, attempt)
    net_out_pool: ServerPool<(u64, u64, u32)>,
    disk: DiskModel,
    memory: MemoryModel,
    cpu: CpuModel,
    link: LinkModel,
    /// Bumped by every crash.
    epoch: u32,
}

impl Server {
    fn new(cfg: &ClusterConfig) -> Server {
        Server {
            cpu_pool: ServerPool::new(cfg.cpu.cores),
            disk_pool: ServerPool::new(1),
            net_in_pool: ServerPool::new(1),
            net_out_pool: ServerPool::new(1),
            disk: DiskModel::new(cfg.disk),
            memory: MemoryModel::new(cfg.memory),
            cpu: CpuModel::new(cfg.cpu),
            link: LinkModel::new(cfg.link),
            epoch: 0,
        }
    }

    fn start_cpu(&self, engine: &mut Engine<Ev>, server: usize, job: (u64, u8, SimDuration, u32)) {
        let (id, stage, busy, attempt) = job;
        engine.schedule(
            busy,
            Ev::CpuDone {
                id,
                server,
                stage,
                attempt,
                epoch: self.epoch,
            },
        );
    }

    /// Starts a disk job (computing the seek now) and schedules completion.
    /// `slowdown` > 1 stretches the service time (degraded disk); the
    /// exact-1.0 guard keeps the healthy path free of float round-trips.
    fn start_disk(
        &mut self,
        engine: &mut Engine<Ev>,
        server: usize,
        slowdown: f64,
        (id, lbn, size, replica, attempt): (u64, u64, u64, bool, u32),
    ) {
        let mut service = self.disk.access(lbn, size);
        if slowdown > 1.0 {
            service = SimDuration::from_secs_f64(service.as_secs_f64() * slowdown);
        }
        engine.schedule(
            service,
            Ev::DiskDone {
                id,
                server,
                replica,
                attempt,
                epoch: self.epoch,
            },
        );
    }

    fn start_net_in(&self, engine: &mut Engine<Ev>, server: usize, job: (u64, u64, bool, u32)) {
        let (id, wire, replica, attempt) = job;
        let done = Ev::NetInDone {
            id,
            server,
            replica,
            attempt,
            epoch: self.epoch,
        };
        engine.schedule(self.link.transfer(wire), done);
    }

    fn start_net_out(&self, engine: &mut Engine<Ev>, server: usize, job: (u64, u64, u32)) {
        let (id, wire, attempt) = job;
        let done = Ev::NetOutDone {
            id,
            server,
            attempt,
            epoch: self.epoch,
        };
        engine.schedule(self.link.transfer(wire), done);
    }

    /// Deepest any of the server's station queues ever got.
    fn queue_high_water(&self) -> u64 {
        self.cpu_pool
            .queue_high_water()
            .max(self.disk_pool.queue_high_water())
            .max(self.net_in_pool.queue_high_water())
            .max(self.net_out_pool.queue_high_water()) as u64
    }
}

/// Shared-fabric state for one engine: the fluid-flow fabric itself, the
/// completion event owed to each in-flight flow, and the single live
/// wake-up timer armed at the fabric's next internal boundary.
///
/// The stored event fires (at zero delay) when the flow drains.
/// Completions are emitted in ascending flow id, and flow ids are issued in
/// start order, so the schedule stays deterministic.
#[derive(Debug)]
struct FabricState {
    fabric: Fabric,
    done: IdMap<Ev>,
    tick: Option<TimerHandle>,
    /// Reused completion buffer for [`Fabric::advance_into`] — `sync`
    /// runs on every flow event, so it must not allocate per tick.
    completed: Vec<u64>,
}

impl FabricState {
    /// Advances the fluid model to `now`, firing the completion event of
    /// every flow that drained.
    fn sync(&mut self, engine: &mut Engine<Ev>, now: SimTime) {
        self.fabric.advance_into(now, &mut self.completed);
        for &id in &self.completed {
            if let Some(ev) = self.done.remove(&id) {
                engine.schedule(SimDuration::ZERO, ev);
            }
        }
    }

    /// Re-arms the wake-up timer at the fabric's next boundary. The stale
    /// timer is cancelled first: a leftover tick past the last completion
    /// would stretch the measured makespan.
    fn rearm(&mut self, engine: &mut Engine<Ev>, now: SimTime) {
        if let Some(handle) = self.tick.take() {
            engine.cancel(handle);
        }
        if let Some(at) = self.fabric.next_change() {
            let delay = at.max(now) - now;
            self.tick = Some(engine.schedule_cancellable(delay, Ev::FabricTick));
        }
    }

    /// Starts a transfer; `done` fires when the flow drains.
    fn transfer(
        &mut self,
        engine: &mut Engine<Ev>,
        now: SimTime,
        path: (Endpoint, Endpoint),
        bytes: u64,
        done: Ev,
    ) {
        self.sync(engine, now);
        let id = self.fabric.start_flow(path.0, path.1, bytes);
        self.done.insert(id, done);
        self.rearm(engine, now);
    }
}

/// The transport seam: how bytes move between clients and chunkservers.
#[derive(Debug)]
enum Transport {
    /// Every server owns an uncontended full-rate link each way. A transfer
    /// queues at the receiving server's ingress NIC, or at the sending
    /// server's egress NIC for responses, for `LinkModel::transfer`.
    Links,
    /// A rack/spine fabric: concurrent flows share links max-min fairly.
    /// Fabric runs are hosted on one shard, so one fabric carries every
    /// host's flows and each rack has exactly one uplink.
    Fabric(Box<FabricState>),
}

/// The resources a shard's handlers run against.
#[derive(Debug)]
struct Host {
    /// The servers this shard owns (every server at one shard).
    range: Range<usize>,
    engine: Engine<Ev>,
    /// Owned servers, indexed by `server - range.start`.
    servers: Vec<Server>,
    /// Liveness by global server index. Only crashes clear it, and fault
    /// runs are hosted on one shard, which sees every crash.
    alive: Vec<bool>,
    transport: Transport,
    trace: TraceSet,
    plan: Option<FaultPlan>,
    trace_overhead: SimDuration,
    tracing_busy: SimDuration,
    total_cpu_busy: SimDuration,
    jobs_lost: u64,
}

impl Host {
    /// Whether a completion scheduled under `epoch` is still live.
    fn current(&self, server: usize, epoch: u32) -> bool {
        self.servers[server - self.range.start].epoch == epoch
    }

    /// One CPU phase over `bytes` on `server`, plus the tracing overhead
    /// when `st` is sampled; charged to `st` and to the shard's totals.
    fn cpu_work(&mut self, server: usize, bytes: u64, st: &mut ReqState) -> SimDuration {
        let mut busy = self.servers[server - self.range.start].cpu.phase(bytes);
        if st.sampled {
            busy += self.trace_overhead;
            self.tracing_busy += self.trace_overhead;
        }
        st.cpu_busy += busy;
        self.total_cpu_busy += busy;
        busy
    }

    /// Offers a CPU job; schedules its completion if a core is free.
    fn offer_cpu(&mut self, now: SimTime, server: usize, job: (u64, u8, SimDuration, u32)) {
        let s = &mut self.servers[server - self.range.start];
        if let Some(job) = s.cpu_pool.arrive(now, job) {
            s.start_cpu(&mut self.engine, server, job);
        }
    }

    /// A CPU phase finished on `server`: start the next queued one.
    fn cpu_next(&mut self, now: SimTime, server: usize) {
        let s = &mut self.servers[server - self.range.start];
        if let Some(job) = s.cpu_pool.complete(now) {
            s.start_cpu(&mut self.engine, server, job);
        }
    }

    /// CPU stage 2 (aggregate/checksum) for `st` on `server`.
    fn aggregate(&mut self, now: SimTime, id: u64, server: usize, st: &mut ReqState) {
        let busy = self.cpu_work(server, st.size, st);
        self.offer_cpu(now, server, (id, 2, busy, st.attempt));
    }

    /// Buffer-cache lookup and bank access for `chunk` on `server`:
    /// (bank, cache hit, service time).
    fn memory_access(
        &mut self,
        server: usize,
        chunk: ChunkHandle,
        size: u64,
    ) -> (u32, bool, SimDuration) {
        let memory = &mut self.servers[server - self.range.start].memory;
        let bank = memory.bank_of(chunk);
        let hit = memory.cache_access(chunk);
        (bank, hit, memory.access(bank, size))
    }

    /// Disk service-time multiplier for a server right now (1 = healthy).
    fn slowdown(&self, server: usize, now: SimTime) -> f64 {
        self.plan
            .as_ref()
            .map_or(1.0, |p| p.disk_slowdown(server, now))
    }

    /// Offers a disk job, starting it if the disk is idle. Returns whether
    /// the disk is degraded right now.
    fn offer_disk(&mut self, now: SimTime, server: usize, job: (u64, u64, u64, bool, u32)) -> bool {
        let slow = self.slowdown(server, now);
        let s = &mut self.servers[server - self.range.start];
        if let Some(job) = s.disk_pool.arrive(now, job) {
            s.start_disk(&mut self.engine, server, slow, job);
        }
        slow > 1.0
    }

    /// A disk access finished on `server`: start the next queued one.
    fn disk_next(&mut self, now: SimTime, server: usize) {
        let slow = self.slowdown(server, now);
        let s = &mut self.servers[server - self.range.start];
        if let Some(job) = s.disk_pool.complete(now) {
            s.start_disk(&mut self.engine, server, slow, job);
        }
    }

    /// A crashed server comes back: its stations accept work again.
    fn recover(&mut self, server: usize) {
        let s = &mut self.servers[server - self.range.start];
        s.cpu_pool.set_up();
        s.disk_pool.set_up();
        s.net_in_pool.set_up();
        s.net_out_pool.set_up();
    }
}

// The transport seam: the only place that tells ideal links from a fabric.
impl Host {
    /// Moves a job's bytes from `from` into server `to`; `NetInDone` fires
    /// on arrival. `job` is `(request, bytes, replica?, attempt)`.
    fn send_in(&mut self, now: SimTime, from: Endpoint, to: usize, job: (u64, u64, bool, u32)) {
        let s = &mut self.servers[to - self.range.start];
        match &mut self.transport {
            Transport::Links => {
                if let Some(job) = s.net_in_pool.arrive(now, job) {
                    s.start_net_in(&mut self.engine, to, job);
                }
            }
            Transport::Fabric(fab) => {
                let (id, bytes, replica, attempt) = job;
                let done = Ev::NetInDone {
                    id,
                    server: to,
                    replica,
                    attempt,
                    epoch: s.epoch,
                };
                fab.transfer(
                    &mut self.engine,
                    now,
                    (from, Endpoint::Host(to)),
                    bytes,
                    done,
                );
            }
        }
    }

    /// Moves a response from server `from` to the client; `NetOutDone`
    /// fires on arrival. `job` is `(request, bytes, attempt)`.
    fn send_out(&mut self, now: SimTime, from: usize, job: (u64, u64, u32)) {
        let s = &mut self.servers[from - self.range.start];
        match &mut self.transport {
            Transport::Links => {
                if let Some(job) = s.net_out_pool.arrive(now, job) {
                    s.start_net_out(&mut self.engine, from, job);
                }
            }
            Transport::Fabric(fab) => {
                let (id, bytes, attempt) = job;
                let done = Ev::NetOutDone {
                    id,
                    server: from,
                    attempt,
                    epoch: s.epoch,
                };
                fab.transfer(
                    &mut self.engine,
                    now,
                    (Endpoint::Host(from), Endpoint::Client),
                    bytes,
                    done,
                );
            }
        }
    }

    /// An ingress transfer into `server` finished: its NIC starts the next
    /// queued one. Fabric flows need no NIC bookkeeping.
    fn net_in_next(&mut self, now: SimTime, server: usize) {
        if let Transport::Links = self.transport {
            let s = &mut self.servers[server - self.range.start];
            if let Some(job) = s.net_in_pool.complete(now) {
                s.start_net_in(&mut self.engine, server, job);
            }
        }
    }

    /// An egress transfer from `server` finished: see [`Host::net_in_next`].
    fn net_out_next(&mut self, now: SimTime, server: usize) {
        if let Transport::Links = self.transport {
            let s = &mut self.servers[server - self.range.start];
            if let Some(job) = s.net_out_pool.complete(now) {
                s.start_net_out(&mut self.engine, server, job);
            }
        }
    }

    /// A server crashes: its stations drop every job and, on a fabric,
    /// every flow crossing its access links dies with it (the completions
    /// never fire). Both count as lost jobs.
    fn crash(&mut self, now: SimTime, server: usize) {
        let s = &mut self.servers[server - self.range.start];
        s.epoch += 1;
        let lost = s.cpu_pool.fail_all(now)
            + s.disk_pool.fail_all(now)
            + s.net_in_pool.fail_all(now)
            + s.net_out_pool.fail_all(now);
        self.jobs_lost += lost as u64;
        if let Transport::Fabric(fab) = &mut self.transport {
            fab.sync(&mut self.engine, now);
            let dropped = fab.fabric.fail_host(server);
            for id in &dropped {
                fab.done.remove(id);
            }
            fab.rearm(&mut self.engine, now);
            self.jobs_lost += dropped.len() as u64;
        }
    }

    /// The fabric's wake-up timer fired: advance and re-arm.
    fn fabric_tick(&mut self, now: SimTime) {
        let Transport::Fabric(fab) = &mut self.transport else {
            unreachable!("fabric ticks only exist with a topology");
        };
        fab.tick = None;
        fab.sync(&mut self.engine, now);
        fab.rearm(&mut self.engine, now);
    }

    /// Publishes the fabric's counters and per-link utilization to the
    /// observability registry; ideal links publish nothing, so
    /// `--topology none` reports keep the pre-fabric format. Commutative
    /// operations only, since runs may execute inside `par_map` workers.
    fn publish_transport(&self, end: SimTime) {
        let Transport::Fabric(fab) = &self.transport else {
            return;
        };
        if !kooza_obs::global::is_enabled() {
            return;
        }
        /// Per-link utilization buckets, percent of capacity.
        const UTIL_BOUNDS: &[u64] = &[1, 5, 10, 25, 50, 75, 90, 99, 100];
        let fabric = &fab.fabric;
        kooza_obs::global::with_registry(|reg| {
            reg.counter_add("net.fabric.flows", fabric.flows_started());
            reg.counter_add("net.fabric.rerates", fabric.rerates());
            reg.counter_add(
                "net.fabric.bottleneck_busy",
                fabric.bottleneck_busy().as_nanos(),
            );
            let links = reg.histogram_mut("net.fabric.link_utilization", UTIL_BOUNDS);
            for u in fabric.link_utilization(end) {
                links.record((u * 100.0).round() as u64);
            }
        });
    }
}

/// The control plane (shard 0 only): workload generation, chunk placement,
/// client timeouts and the outcome ledger.
#[derive(Debug)]
struct Control {
    cfg: ClusterConfig,
    n_requests: u64,
    /// The workload stream: arrivals, kinds, chunks, targets, offsets.
    rng: Rng64,
    /// Fault-path randomness (retry targets, link drops) on its own stream
    /// keyed by the trial seed: the workload stream stays byte-identical
    /// whether or not faults are armed.
    fault_rng: Option<Rng64>,
    zipf: Zipf,
    gap: Exponential,
    /// Chunk placement; repairs rewrite it during the run.
    master: Master,
    /// Picks the requests whose span trees are recorded.
    sampler: Sampler,
    /// The sampled requests' spans, in completion order.
    span_rows: Vec<SpanRow>,
    /// The server each request was last dispatched to, by request id.
    server_of: Vec<usize>,
    outcomes: Vec<RequestOutcome>,
    latency: Tally,
    fstats: FaultStats,
    rerep_seq: u64,
    /// Master-driven repairs dispatched but not yet committed or lost.
    rerep_inflight: HashSet<u64>,
    /// Requests resolved so far, completed or failed.
    finished: u64,
    /// Each server's shard.
    shard_of: Vec<usize>,
}

impl Control {
    /// Records a sampled request's span tree: the root plus one child per
    /// phase.
    fn record_spans(&mut self, id: u64, st: &ReqState, end: SimTime) {
        self.span_rows.push(SpanRow {
            trace: id,
            start: st.start.as_nanos(),
            end: end.as_nanos(),
            index: 0,
            phase: Phase::Request,
        });
        for (index, &(phase, s, e)) in (1..).zip(&st.phases) {
            self.span_rows.push(SpanRow {
                trace: id,
                start: s.as_nanos(),
                end: e.as_nanos(),
                index,
                phase,
            });
        }
    }
}

/// A live replica of `chunk` for a `kind` request: a uniform pick (one
/// `next_bounded` draw from `rng`) for reads, the first live replica
/// (acting primary) for writes. `None` when every replica is down.
fn live_target(
    master: &Master,
    alive: &[bool],
    kind: Kind,
    chunk: ChunkHandle,
    rng: &mut Rng64,
) -> Option<usize> {
    let mut live = master.replicas(chunk).iter().copied().filter(|&s| alive[s]);
    match kind {
        Kind::Read => match live.clone().count() {
            0 => None,
            n => live.nth(rng.next_bounded(n as u64) as usize),
        },
        Kind::Write => live.next(),
    }
}

/// Where a write's primary forwards the payload: every live secondary in
/// `placement`, plus a live stand-in from the cluster for each dead one
/// (pushed to `replacements`) so the write re-acks at full replication.
fn write_fanout(
    alive: &[bool],
    placement: &[usize],
    server: usize,
    replacements: &mut Vec<(usize, usize)>,
) -> Vec<usize> {
    let mut fanout: Vec<usize> = placement
        .iter()
        .copied()
        .filter(|&s| s != server && alive[s])
        .collect();
    for &dead in placement.iter().filter(|&&s| s != server && !alive[s]) {
        let stand_in = (0..alive.len()).find(|&s| {
            alive[s] && s != server && !placement.contains(&s) && !fanout.contains(&s)
        });
        if let Some(stand_in) = stand_in {
            replacements.push((dead, stand_in));
            fanout.push(stand_in);
        }
    }
    fanout
}

/// The placement write fanout and stand-in dedup read: the live master at
/// one shard, whose serving role shares it with the control plane; at N
/// shards the snapshot the `Attempt` carried.
fn placement<'a>(
    outbox: &Option<Outbox<ShardMsg>>,
    control: &'a Option<Control>,
    chunk: ChunkHandle,
    snapshot: &'a [usize],
) -> &'a [usize] {
    match (outbox, control) {
        (None, Some(ctl)) => ctl.master.replicas(chunk),
        _ => snapshot,
    }
}

/// One shard: the host context plus the protocol's state.
#[derive(Debug)]
pub(super) struct Shard {
    host: Host,
    /// Records of the attempts this shard's servers serve. At one shard it
    /// holds every request's only record, which the control plane reads
    /// too.
    reqs: IdMap<ReqState>,
    /// The control plane's records at N shards (shard 0 only).
    ledger: IdMap<ReqState>,
    /// Repair pipelines running on this shard's servers.
    rerep_jobs: IdMap<RerepJob>,
    /// Mail buffered to the window barrier; `None` at one shard, where the
    /// mailbox calls the receiving handler at once.
    outbox: Option<Outbox<ShardMsg>>,
    control: Option<Control>,
}

impl Shard {
    /// Builds a hosting's shards, one per server range; shard 0 carries
    /// the control plane. `outboxes` is `None` for the one-shard hosting,
    /// the only one that takes faults or a fabric.
    pub(super) fn build(
        cfg: &ClusterConfig,
        master: Master,
        n_requests: u64,
        seed: u64,
        ranges: &[Range<usize>],
        outboxes: Option<Vec<Outbox<ShardMsg>>>,
    ) -> Vec<Shard> {
        let n = cfg.n_chunkservers;
        debug_assert!(
            ranges.len() == 1 || (cfg.faults.is_none() && cfg.topology == Topology::None),
            "faults and fabrics run on one shard"
        );
        // The fault horizon derives only from the run parameters — never
        // from elapsed wall time or event counts — so the plan is identical
        // at any thread count. Twice the expected workload span plus slack
        // covers retry-stretched tails.
        let plan = cfg.faults.map(|f| {
            let span = n_requests as f64 * cfg.workload.mean_interarrival_secs;
            let horizon = span * 2.0 + FAULT_HORIZON_SLACK_SECS;
            FaultPlan::generate(&f, n, SimDuration::from_secs_f64(horizon))
        });
        let mut shard_of = vec![0; n];
        for (g, range) in ranges.iter().enumerate() {
            shard_of[range.clone()].fill(g);
        }
        let mut control = Some(Control {
            cfg: cfg.clone(),
            n_requests,
            rng: Rng64::new(seed),
            fault_rng: cfg.faults.map(|f| Rng64::for_stream(f.seed, seed)),
            zipf: Zipf::new(cfg.workload.n_chunks, cfg.workload.zipf_skew)
                .expect("validated config"),
            gap: Exponential::with_mean(cfg.workload.mean_interarrival_secs)
                .expect("validated config"),
            master,
            sampler: Sampler::one_in(cfg.trace_sampling),
            span_rows: Vec::new(),
            server_of: vec![0; n_requests as usize],
            outcomes: Vec::with_capacity(n_requests as usize),
            latency: Tally::new(),
            fstats: FaultStats::default(),
            rerep_seq: 0,
            rerep_inflight: HashSet::new(),
            finished: 0,
            shard_of,
        });
        let mut outboxes = outboxes.map(Vec::into_iter);
        ranges
            .iter()
            .map(|range| {
                let mut control = control.take();
                let mut engine = Engine::new();
                if let Some(p) = &plan {
                    for s in 0..n {
                        for w in p.windows(s) {
                            engine.schedule_at(w.down, Ev::Crash { server: s });
                            engine.schedule_at(w.up, Ev::Recover { server: s });
                        }
                    }
                }
                if let Some(ctl) = control.as_mut().filter(|c| c.n_requests > 0) {
                    let gap = SimDuration::from_secs_f64(ctl.gap.sample(&mut ctl.rng));
                    engine.schedule(gap, Ev::NewRequest { id: 0 });
                }
                let transport = match cfg.topology {
                    Topology::None => Transport::Links,
                    Topology::Rack {
                        servers_per_rack,
                        oversub,
                    } => Transport::Fabric(Box::new(FabricState {
                        fabric: Fabric::new(
                            n,
                            servers_per_rack,
                            oversub,
                            cfg.link.bandwidth_bytes_per_sec,
                            SimDuration::from_secs_f64(cfg.link.latency_secs),
                        ),
                        done: IdMap::default(),
                        tick: None,
                        completed: Vec::new(),
                    })),
                };
                Shard {
                    host: Host {
                        range: range.clone(),
                        engine,
                        servers: range.clone().map(|_| Server::new(cfg)).collect(),
                        alive: vec![true; n],
                        transport,
                        trace: TraceSet::new(),
                        plan: plan.clone(),
                        trace_overhead: SimDuration::from_secs_f64(cfg.tracing_overhead_secs),
                        tracing_busy: SimDuration::ZERO,
                        total_cpu_busy: SimDuration::ZERO,
                        jobs_lost: 0,
                    },
                    reqs: IdMap::default(),
                    ledger: IdMap::default(),
                    rerep_jobs: IdMap::default(),
                    outbox: outboxes
                        .as_mut()
                        .map(|o| o.next().expect("one outbox per shard")),
                    control,
                }
            })
            .collect()
    }

    /// The one-shard hosting's loop: every event in order until the heap
    /// drains or, with faults armed (the heap then still holds crash and
    /// recover events long past the workload), until the run is quiescent.
    ///
    /// Quiescence is checked where the single-engine loop always checked
    /// it: after a completion, a crash, a recovery or a fabric tick. When
    /// the last request is abandoned or the last repair commits, the run
    /// therefore goes on to the next crash, recovery or tick, exactly as
    /// that loop did.
    pub(super) fn run_alone(&mut self) {
        let faults = self.host.plan.is_some();
        while let Some((now, ev)) = self.host.engine.next() {
            let checked = faults
                && match ev {
                    Ev::Crash { .. } | Ev::Recover { .. } | Ev::FabricTick => true,
                    // Only a completion can make a `NetOutDone` quiescent.
                    Ev::NetOutDone { .. } => !self.quiescent(),
                    _ => false,
                };
            self.handle(now, ev);
            if checked && self.quiescent() {
                break;
            }
        }
    }

    /// Processes every local event strictly before `until`.
    pub(super) fn step(&mut self, until: SimTime) {
        while self.host.engine.peek_time().is_some_and(|t| t < until) {
            let (now, ev) = self.host.engine.next().expect("peeked above");
            self.handle(now, ev);
        }
    }

    /// The mail this shard buffered during the window (N shards).
    pub(super) fn outbox(&mut self) -> &mut Outbox<ShardMsg> {
        self.outbox
            .as_mut()
            .expect("only sharded hostings buffer mail")
    }

    /// Delivers a barrier-exchanged message at the window boundary `at`.
    pub(super) fn post(&mut self, at: SimTime, msg: ShardMsg) {
        self.host.engine.schedule_at(at, Ev::Msg(Box::new(msg)));
    }

    /// Whether this shard serves nothing: no attempt, no repair.
    pub(super) fn idle(&self) -> bool {
        self.reqs.is_empty() && self.rerep_jobs.is_empty()
    }

    /// Whether the control plane is done: every request resolved and no
    /// repair in flight (shard 0).
    pub(super) fn quiescent(&self) -> bool {
        let ctl = self
            .control
            .as_ref()
            .expect("the control plane lives on shard 0");
        ctl.finished == ctl.n_requests && ctl.rerep_inflight.is_empty()
    }

    /// The control plane, its request records and the host. At one shard
    /// the records are the serving table itself: both roles share one
    /// record per request.
    fn split(&mut self) -> (&mut Control, &mut IdMap<ReqState>, &mut Host) {
        let ledger = if self.outbox.is_none() {
            &mut self.reqs
        } else {
            &mut self.ledger
        };
        let ctl = self
            .control
            .as_mut()
            .expect("the control plane lives on shard 0");
        (ctl, ledger, &mut self.host)
    }

    /// Handles one event.
    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::NewRequest { id } => self.new_request(now, id),
            Ev::NetInDone {
                id,
                server,
                replica,
                attempt,
                epoch,
            } => {
                self.net_in_done(now, id, server, replica, attempt, epoch);
            }
            Ev::CpuDone {
                id,
                server,
                stage,
                attempt,
                epoch,
            } => {
                self.cpu_done(now, id, server, stage, attempt, epoch);
            }
            Ev::MemDone {
                id,
                server,
                attempt,
                epoch,
            } => self.mem_done(now, id, server, attempt, epoch),
            Ev::DiskDone {
                id,
                server,
                replica,
                attempt,
                epoch,
            } => {
                self.disk_done(now, id, server, replica, attempt, epoch);
            }
            Ev::NetOutDone {
                id,
                server,
                attempt,
                epoch,
            } => {
                self.net_out_done(now, id, server, attempt, epoch);
            }
            Ev::Crash { server } => self.crash(now, server),
            Ev::Recover { server } => self.recover(server),
            Ev::RequestTimeout { id, attempt } => self.request_timeout(now, id, attempt),
            Ev::Rereplicate { chunk, dead } => self.rereplicate(now, chunk, dead),
            Ev::FabricTick => self.host.fabric_tick(now),
            Ev::Msg(msg) => self.deliver(now, *msg),
        }
    }
}

// Control-plane handlers (shard 0).
impl Shard {
    /// `Ev::NewRequest`: draw request `id` and dispatch it.
    fn new_request(&mut self, now: SimTime, id: u64) {
        let (ctl, ledger, host) = self.split();
        if id + 1 < ctl.n_requests {
            let gap = SimDuration::from_secs_f64(ctl.gap.sample(&mut ctl.rng));
            host.engine.schedule(gap, Ev::NewRequest { id: id + 1 });
        }
        let w = &ctl.cfg.workload;
        let kind = if ctl.rng.chance(w.read_fraction) {
            Kind::Read
        } else {
            Kind::Write
        };
        let size = match kind {
            Kind::Read => w.read_size,
            Kind::Write => w.write_size,
        };
        let chunk = ChunkHandle(ctl.zipf.sample(&mut ctl.rng) - 1);
        // Only live replicas are candidate targets; `None` means every
        // replica is down right now and the attempt waits for its timeout
        // to retry.
        let target = live_target(&ctl.master, &host.alive, kind, chunk, &mut ctl.rng);
        // Offset within the chunk, 512 B aligned, leaving room for the
        // access itself.
        let blocks = size.div_ceil(512).max(1);
        let span_lbns = LBNS_PER_CHUNK.saturating_sub(blocks).max(1);
        let lbn = ctl.master.chunk_base_lbn(chunk) + ctl.rng.next_bounded(span_lbns);
        let sampled = ctl.sampler.keep(TraceId(id));
        // Metadata plus a slice of the buffer: the request's memory
        // footprint is a fixed fraction of payload (¼ for reads, 1/16 for
        // writes), reproducing the 16 KB / 256 KB rows of the paper's
        // Table 2.
        let mem_size = match kind {
            Kind::Read => (size / 4).max(64),
            Kind::Write => (size / 16).max(64),
        };
        let st = ReqState {
            kind,
            size,
            mem_size,
            chunk,
            server: target.unwrap_or(0),
            start: now,
            lbn,
            sampled,
            cache_hit: false,
            cpu_busy: SimDuration::ZERO,
            pending_replicas: 0,
            phases: Vec::new(),
            phase_started: now,
            attempt: 0,
            retries: 0,
            timeout: None,
            degraded: false,
            replacements: Vec::new(),
            replicas: Vec::new(),
        };
        ledger.insert(id, st);
        self.dispatch(now, id, target);
    }

    /// Dispatches the live attempt of `id`: records the ingress, mails the
    /// attempt to `target` (unless the link drops it or no live target
    /// exists) and arms the attempt's timeout when faults are on.
    fn dispatch(&mut self, now: SimTime, id: u64, target: Option<usize>) {
        let (ctl, ledger, host) = self.split();
        let st = ledger.get_mut(&id).expect("caller holds a live request");
        let mut sent = None;
        // The caller chose the target among live replicas in this same
        // event; `None` means none is reachable, and the timer drives the
        // retry.
        if let Some(server) = target {
            debug_assert!(host.alive[server], "dispatch to crashed server {server}");
            st.server = server;
            ctl.server_of[id as usize] = server;
            // Ingress: a small header for reads, the payload for writes.
            // The record carries the wire size — the payload a read moves
            // shows up on egress, so recording it here would double-count
            // it in replay.
            let wire = match st.kind {
                Kind::Read => 1024,
                Kind::Write => st.size,
            };
            let dropped = match (&ctl.cfg.faults, ctl.fault_rng.as_mut()) {
                (Some(f), Some(frng)) if f.link_drop > 0.0 => frng.chance(f.link_drop),
                _ => false,
            };
            if dropped {
                ctl.fstats.link_drops += 1;
            } else {
                host.trace.network.push(NetworkRecord {
                    ts_nanos: now.as_nanos(),
                    size: wire,
                    direction: Direction::Ingress,
                    request_id: id,
                });
                sent = Some((st.attempt, server, wire));
            }
        }
        if let Some((attempt, server, wire)) = sent {
            self.mail_attempt(now, id, attempt, server, wire);
        }
        let (ctl, ledger, host) = self.split();
        if let Some(f) = &ctl.cfg.faults {
            // A first attempt has no timer yet, and a retry's was cleared
            // when it fired.
            let st = ledger.get_mut(&id).expect("still live");
            debug_assert!(st.timeout.is_none(), "request {id} already has a timer");
            let ev = Ev::RequestTimeout {
                id,
                attempt: st.attempt,
            };
            let delay = f.timeout_for_attempt(st.attempt);
            st.timeout = Some(host.engine.schedule_cancellable(delay, ev));
        }
    }

    /// `Ev::RequestTimeout`: give up on the attempt, then retry (with
    /// failover) or abandon the request.
    fn request_timeout(&mut self, now: SimTime, id: u64, attempt: u32) {
        let (ctl, ledger, host) = self.split();
        let Some(st) = ledger.get_mut(&id).filter(|st| st.attempt == attempt) else {
            return; // stale timer
        };
        st.timeout = None;
        let prev = st.server;
        ctl.fstats.timeouts += 1;
        let f = ctl
            .cfg
            .faults
            .as_ref()
            .expect("timeouts only exist under faults");
        if st.retries >= f.max_retries {
            let st = ledger.remove(&id).expect("present above");
            ctl.fstats.requests_failed += 1;
            ctl.finished += 1;
            ctl.outcomes.push(st.outcome(id, now, true));
            return;
        }
        st.retries += 1;
        st.attempt += 1;
        ctl.fstats.retries += 1;
        st.mark(Phase::FaultRetry, now);
        // Any in-flight work from the old attempt is now a zombie: its
        // completions carry a stale attempt.
        st.pending_replicas = 0;
        st.replacements.clear();
        // Failover: pick among the currently live replicas, drawing from
        // the fault stream so the workload stream stays untouched.
        let frng = ctl.fault_rng.as_mut().expect("fault mode");
        let target = live_target(&ctl.master, &host.alive, st.kind, st.chunk, frng);
        if target.is_some_and(|t| t != prev) {
            ctl.fstats.failovers += 1;
        }
        self.dispatch(now, id, target);
    }

    /// `Ev::Rereplicate`: resolve source and target at fire time (the
    /// cluster may have changed since the crash was detected) and start the
    /// repair at the source.
    fn rereplicate(&mut self, now: SimTime, chunk: ChunkHandle, dead: usize) {
        let (ctl, _, host) = self.split();
        let alive = &host.alive;
        if alive[dead] {
            return; // recovered before detection finished
        }
        let reps = ctl.master.replicas(chunk);
        if !reps.contains(&dead) {
            return; // a write-triggered repair already won
        }
        let Some(from) = reps.iter().copied().find(|&s| s != dead && alive[s]) else {
            return; // no live source holds the chunk
        };
        let Some(to) = (0..alive.len()).find(|&s| alive[s] && !reps.contains(&s)) else {
            return; // no live server without a replica to put a new one on
        };
        let rid = REREP_BASE + ctl.rerep_seq;
        ctl.rerep_seq += 1;
        ctl.rerep_inflight.insert(rid);
        let job = RerepJob {
            chunk,
            dead,
            from,
            to,
            lbn: ctl.master.chunk_base_lbn(chunk),
        };
        self.on_rerep(now, rid, job);
    }

    /// `ShardMsg::Done`: the live attempt completed at `done_at`. At N
    /// shards `served` is the serving record, whose CPU time, cache hit,
    /// disk health and phases the control record adopts.
    fn on_done(&mut self, id: u64, attempt: u32, done_at: SimTime, served: Option<ReqState>) {
        let (ctl, ledger, host) = self.split();
        let mut st = match ledger.entry(id) {
            Entry::Occupied(e) if e.get().attempt == attempt => e.remove(),
            _ => return, // timed out (and retried or failed) before the ack landed
        };
        if let Some(served) = served {
            st.cache_hit = served.cache_hit;
            st.cpu_busy = served.cpu_busy;
            st.degraded = served.degraded;
            st.phases.extend(served.phases);
        }
        if let Some(handle) = st.timeout.take() {
            host.engine.cancel(handle);
        }
        ctl.finished += 1;
        ctl.latency.record((done_at - st.start).as_secs_f64());
        ctl.outcomes.push(st.outcome(id, done_at, false));
        if st.sampled {
            ctl.record_spans(id, &st, done_at);
        }
    }

    /// A write's stand-in replica is durable: commit the placement change.
    fn on_commit(&mut self, chunk: ChunkHandle, dead: usize, stand_in: usize) {
        let (ctl, _, _) = self.split();
        ctl.master.replace_replica(chunk, dead, stand_in);
        ctl.fstats.rereplications += 1;
    }

    /// A master-driven repair's copy is durable: commit it. A crash that
    /// destroys a repair takes it out of the in-flight set itself.
    fn on_rerep_done(&mut self, rid: u64, job: RerepJob) {
        let (ctl, _, _) = self.split();
        ctl.rerep_inflight.remove(&rid);
        ctl.master.replace_replica(job.chunk, job.dead, job.to);
        ctl.fstats.rereplications += 1;
    }
}

// Serving handlers: the Figure-1 pipeline on this shard's servers.
impl Shard {
    /// `ShardMsg::Attempt`: an attempt reaches `server`'s ingress. At N
    /// shards `record` is the serving copy of the request.
    fn on_attempt(
        &mut self,
        now: SimTime,
        id: u64,
        attempt: u32,
        server: usize,
        wire: u64,
        record: Option<ReqState>,
    ) {
        // One shard delivers in the event that picked a live target, and
        // N-shard runs have no crashes.
        debug_assert!(
            self.host.alive[server],
            "attempt reached crashed server {server}"
        );
        if let Some(record) = record {
            self.reqs.insert(id, record);
        }
        self.host
            .send_in(now, Endpoint::Client, server, (id, wire, false, attempt));
    }

    /// A repair starts with a disk read at its source.
    fn on_rerep(&mut self, now: SimTime, rid: u64, job: RerepJob) {
        // `rereplicate` picked both ends live in this same event.
        debug_assert!(
            self.host.alive[job.from] && self.host.alive[job.to],
            "repair {rid} between crashed servers"
        );
        self.rerep_jobs.insert(rid, job);
        self.host
            .offer_disk(now, job.from, (rid, job.lbn, REREP_BYTES, false, 0));
    }

    /// `Ev::NetInDone`: a request, replica payload or repair copy landed.
    fn net_in_done(
        &mut self,
        now: SimTime,
        id: u64,
        server: usize,
        replica: bool,
        attempt: u32,
        epoch: u32,
    ) {
        if !self.host.current(server, epoch) {
            return; // a crash drained this station
        }
        self.host.net_in_next(now, server);
        if id >= REREP_BASE {
            // The chunk copy landed on its new home: write it out. A
            // missing job means a crash aborted it.
            if let Some(job) = self.rerep_jobs.get(&id) {
                let lbn = job.lbn;
                self.host
                    .offer_disk(now, server, (id, lbn, REREP_BYTES, true, 0));
            }
            return;
        }
        let Some(st) = self.reqs.get_mut(&id).filter(|st| st.attempt == attempt) else {
            return;
        };
        if replica {
            // Replica data landed: write it to the replica disk.
            self.host
                .offer_disk(now, server, (id, st.lbn, st.size, true, attempt));
            return;
        }
        st.mark(Phase::NetworkIn, now);
        // CPU stage 1: lookup/verify over the request header.
        let busy = self.host.cpu_work(server, 1024, st);
        self.host.offer_cpu(now, server, (id, 1, busy, attempt));
    }

    /// `Ev::CpuDone`: lookup (stage 1) goes on to memory; aggregation
    /// (stage 2) responds over the network.
    fn cpu_done(
        &mut self,
        now: SimTime,
        id: u64,
        server: usize,
        stage: u8,
        attempt: u32,
        epoch: u32,
    ) {
        if !self.host.current(server, epoch) {
            return;
        }
        self.host.cpu_next(now, server);
        let Some(st) = self.reqs.get_mut(&id).filter(|st| st.attempt == attempt) else {
            return;
        };
        if stage == 1 {
            st.mark(Phase::CpuLookup, now);
            let (bank, hit, service) = self.host.memory_access(server, st.chunk, st.mem_size);
            st.cache_hit = st.kind == Kind::Read && hit;
            self.host.trace.memory.push(MemoryRecord {
                ts_nanos: now.as_nanos(),
                bank,
                size: st.mem_size,
                op: st.kind.op(),
                request_id: id,
            });
            self.host.engine.schedule(
                service,
                Ev::MemDone {
                    id,
                    server,
                    attempt,
                    epoch,
                },
            );
        } else {
            st.mark(Phase::CpuAggregate, now);
            let wire = match st.kind {
                Kind::Read => st.size,
                Kind::Write => 1024,
            };
            self.host.trace.network.push(NetworkRecord {
                ts_nanos: now.as_nanos(),
                size: wire,
                direction: Direction::Egress,
                request_id: id,
            });
            self.host.send_out(now, server, (id, wire, attempt));
        }
    }

    /// `Ev::MemDone`: a buffer-cache hit skips the disk.
    fn mem_done(&mut self, now: SimTime, id: u64, server: usize, attempt: u32, epoch: u32) {
        if !self.host.current(server, epoch) {
            return;
        }
        let Some(st) = self.reqs.get_mut(&id).filter(|st| st.attempt == attempt) else {
            return;
        };
        st.mark(Phase::Memory, now);
        if st.kind == Kind::Read && st.cache_hit {
            return self.host.aggregate(now, id, server, st);
        }
        self.host.trace.storage.push(StorageRecord {
            ts_nanos: now.as_nanos(),
            lbn: st.lbn,
            size: st.size,
            op: st.kind.op(),
            request_id: id,
        });
        st.degraded |= self
            .host
            .offer_disk(now, server, (id, st.lbn, st.size, false, attempt));
    }

    /// `Ev::DiskDone`: client reads and writes, replica writes, and both
    /// disk legs of a repair.
    fn disk_done(
        &mut self,
        now: SimTime,
        id: u64,
        server: usize,
        replica: bool,
        attempt: u32,
        epoch: u32,
    ) {
        if !self.host.current(server, epoch) {
            return;
        }
        self.host.disk_next(now, server);
        if id >= REREP_BASE {
            if !replica {
                // Source read done: ship the chunk to its new home.
                if let Some(job) = self.rerep_jobs.get(&id) {
                    let to = job.to;
                    self.host
                        .send_in(now, Endpoint::Host(server), to, (id, REREP_BYTES, true, 0));
                }
            } else if let Some(job) = self.rerep_jobs.remove(&id) {
                // Replacement copy is durable: commit it.
                self.on_rerep_done(id, job);
            }
            return;
        }
        let Some(st) = self.reqs.get_mut(&id).filter(|st| st.attempt == attempt) else {
            return;
        };
        if replica {
            st.pending_replicas -= 1;
            // Write-triggered re-replication: this ack may come from a
            // stand-in for a dead replica, whose placement change commits.
            let pos = st
                .replacements
                .iter()
                .position(|&(_, stand_in)| stand_in == server);
            let commit = pos.map(|pos| (st.chunk, st.replacements.remove(pos)));
            if st.pending_replicas == 0 {
                st.mark(Phase::Replicate, now);
                // The primary may have died while the replicas acked; if so
                // the client's timeout retries.
                let primary = st.server;
                if self.host.alive[primary] {
                    self.host.aggregate(now, id, primary, st);
                }
            }
            if let Some((chunk, (dead, stand_in))) = commit {
                self.on_commit(chunk, dead, stand_in);
            }
            return;
        }
        st.mark(Phase::Disk, now);
        let fanout = match st.kind {
            Kind::Read => Vec::new(),
            Kind::Write => {
                let placement = placement(&self.outbox, &self.control, st.chunk, &st.replicas);
                write_fanout(&self.host.alive, placement, server, &mut st.replacements)
            }
        };
        if fanout.is_empty() {
            // Reads, and writes with no reachable secondary (acknowledged
            // degraded), go straight to aggregation.
            return self.host.aggregate(now, id, server, st);
        }
        st.pending_replicas = fanout.len();
        for rep in fanout {
            self.host.send_in(
                now,
                Endpoint::Host(server),
                rep,
                (id, st.size, true, attempt),
            );
        }
    }

    /// `Ev::NetOutDone`: the response reached the client; the attempt is
    /// done.
    fn net_out_done(&mut self, now: SimTime, id: u64, server: usize, attempt: u32, epoch: u32) {
        if !self.host.current(server, epoch) {
            return;
        }
        self.host.net_out_next(now, server);
        let Some(st) = self.reqs.get_mut(&id).filter(|st| st.attempt == attempt) else {
            return; // a stale attempt's zombie response
        };
        st.mark(Phase::NetworkOut, now);
        let total = now - st.start;
        self.host.trace.cpu.push(CpuRecord {
            ts_nanos: now.as_nanos(),
            utilization: st.cpu_busy.as_nanos() as f64 / total.as_nanos().max(1) as f64,
            busy_nanos: st.cpu_busy.as_nanos(),
            request_id: id,
        });
        self.mail_done(now, id, attempt);
    }

    /// `Ev::Crash`: a server goes down, the repairs touching it die with
    /// it, and the master schedules repairs of its chunks.
    fn crash(&mut self, now: SimTime, server: usize) {
        self.host.alive[server] = false;
        self.host.crash(now, server);
        let ctl = self
            .control
            .as_mut()
            .expect("fault runs are hosted on one shard");
        self.rerep_jobs.retain(|rid, j| {
            let lost = j.from == server || j.to == server;
            if lost {
                ctl.rerep_inflight.remove(rid);
            }
            !lost
        });
        ctl.fstats.crashes += 1;
        // The master notices after its detection delay and repairs a
        // batch of the under-replicated chunks.
        if let Some(f) = &ctl.cfg.faults {
            let detect = SimDuration::from_secs_f64(f.detect_secs);
            for chunk in ctl
                .master
                .chunks_on(server)
                .into_iter()
                .take(f.rereplicate_batch)
            {
                self.host.engine.schedule(
                    detect,
                    Ev::Rereplicate {
                        chunk,
                        dead: server,
                    },
                );
            }
        }
    }

    /// `Ev::Recover`: a crashed server comes back up.
    fn recover(&mut self, server: usize) {
        self.host.alive[server] = true;
        self.host.recover(server);
        let (ctl, _, _) = self.split();
        ctl.fstats.recoveries += 1;
    }
}

// The mailbox, for the two messages that cross shards: an attempt's
// dispatch and its completion. At one shard it calls the receiving handler
// at once; both roles already share the request record and the live
// master, so nothing is copied. At N shards it buffers each message in the
// outbox until the window barrier.
impl Shard {
    fn mail_attempt(&mut self, now: SimTime, id: u64, attempt: u32, server: usize, wire: u64) {
        let Some(outbox) = self.outbox.as_mut() else {
            return self.on_attempt(now, id, attempt, server, wire, None);
        };
        let ctl = self.control.as_ref().expect("attempts leave shard 0");
        let st = &self.ledger[&id];
        let record = st.serving_copy(ctl.master.replicas(st.chunk).to_vec());
        outbox.send(
            ctl.shard_of[server],
            now,
            ShardMsg::Attempt {
                id,
                server,
                wire,
                record,
            },
        );
    }

    fn mail_done(&mut self, now: SimTime, id: u64, attempt: u32) {
        let Some(outbox) = self.outbox.as_mut() else {
            return self.on_done(id, attempt, now, None);
        };
        let served = self.reqs.remove(&id).expect("the serving record is live");
        outbox.send(
            0,
            now,
            ShardMsg::Done {
                id,
                attempt,
                done_at: now,
                served,
            },
        );
    }

    /// `Ev::Msg`: a barrier-delivered message goes to its handler.
    fn deliver(&mut self, now: SimTime, msg: ShardMsg) {
        match msg {
            ShardMsg::Attempt {
                id,
                server,
                wire,
                record,
            } => {
                self.on_attempt(now, id, record.attempt, server, wire, Some(record));
            }
            ShardMsg::Done {
                id,
                attempt,
                done_at,
                served,
            } => {
                self.on_done(id, attempt, done_at, Some(served));
            }
        }
    }
}

/// Assembles a finished hosting's outcome: per-server statistics from each
/// shard's disjoint server range, record streams merged in shard order and
/// then stably time-sorted, the control plane's span rows built into spans
/// in order, and the request ledger and request → server map from the
/// control plane.
pub(super) fn finish(cluster: &Cluster, mut shards: Vec<Shard>) -> ClusterOutcome {
    let n = cluster.config().n_chunkservers;
    let end = shards
        .iter()
        .map(|s| s.host.engine.now())
        .max()
        .expect("at least one shard");
    let ctl = shards[0].control.take().expect("shard 0 is control");
    let mut requests_per_server = vec![0u64; n];
    for &s in &ctl.server_of {
        requests_per_server[s] += 1;
    }
    let mut cpu_utilization = vec![0.0; n];
    let mut disk_utilization = vec![0.0; n];
    let mut queue_high_water_per_server = vec![0u64; n];
    let (mut total_cpu_busy, mut tracing_busy) = (SimDuration::ZERO, SimDuration::ZERO);
    let (mut events_processed, mut pending_high_water) = (0u64, 0u64);
    let mut fstats = ctl.fstats;
    let mut trace = std::mem::take(&mut shards[0].host.trace);
    for (g, shard) in shards.iter_mut().enumerate() {
        let host = &mut shard.host;
        for (s, server) in host.range.clone().zip(&host.servers) {
            cpu_utilization[s] = server.cpu_pool.utilization(end);
            disk_utilization[s] = server.disk_pool.utilization(end);
            queue_high_water_per_server[s] = server.queue_high_water();
        }
        total_cpu_busy += host.total_cpu_busy;
        tracing_busy += host.tracing_busy;
        events_processed += host.engine.processed();
        pending_high_water = pending_high_water.max(host.engine.pending_high_water() as u64);
        fstats.jobs_lost += host.jobs_lost;
        if g > 0 {
            trace.merge(std::mem::take(&mut host.trace));
        }
    }
    let outcomes = ctl.outcomes;
    let stats = ClusterStats {
        completed: outcomes.iter().filter(|o| !o.failed).count() as u64,
        latency_secs: ctl.latency,
        makespan_secs: end.as_secs_f64(),
        cpu_utilization,
        disk_utilization,
        total_cpu_busy_secs: total_cpu_busy.as_secs_f64(),
        tracing_busy_secs: tracing_busy.as_secs_f64(),
        events_processed,
        pending_high_water,
        requests_per_server,
        queue_high_water_per_server,
        faults: fstats,
    };
    cluster.publish_metrics(&stats, &outcomes);
    for shard in &shards {
        shard.host.publish_transport(end);
    }
    // The spans are not attached yet, so this sorts only the four record
    // streams; the spans come out of `spans_in_order` already in order.
    trace.sort_by_time();
    trace.spans = spans_in_order(&ctl.span_rows);
    ClusterOutcome {
        trace,
        server_of: ctl.server_of,
        stats,
        requests: outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadMix;
    use kooza_sim::{shard_ranges, ShardedEngine};

    #[test]
    fn write_fanout_reads_live_placement_at_one_shard_and_the_snapshot_at_n() {
        let mut config = ClusterConfig::cluster(12);
        config.workload = WorkloadMix::mixed();
        let master = Master::place_grouped(config.workload.n_chunks, 12, 3, 2, 7).unwrap();
        let barrier: ShardedEngine<ShardMsg> = ShardedEngine::new(2, SimDuration::from_millis(1));
        let hostings = [
            Shard::build(&config, master.clone(), 0, 1, &shard_ranges(12, 1), None),
            Shard::build(
                &config,
                master,
                0,
                1,
                &shard_ranges(12, 2),
                Some(barrier.outboxes()),
            ),
        ];
        for (n_shards, mut shards) in [1, 2].into_iter().zip(hostings) {
            let shard = &mut shards[0];
            let chunk = ChunkHandle(0);
            let ctl = shard.control.as_mut().unwrap();
            // The dispatch snapshot, then a stand-in commit that replaces
            // the last replica before the write reaches its disk.
            let snapshot = ctl.master.replicas(chunk).to_vec();
            let stand_in = (0..6).find(|s| !snapshot.contains(s)).unwrap();
            ctl.master.replace_replica(chunk, snapshot[2], stand_in);
            let seen = placement(&shard.outbox, &shard.control, chunk, &snapshot);
            let fanout = write_fanout(&shard.host.alive, seen, snapshot[0], &mut Vec::new());
            if n_shards == 1 {
                assert_eq!(fanout, [snapshot[1], stand_in]);
            } else {
                assert_eq!(fanout, snapshot[1..]);
            }
        }
    }

    /// Span rows with heavy ties (starts in 0..4, span indices 0..3) from
    /// 12 traces completing in a shuffled order come out exactly as a
    /// stable sort of the rows by (start, span id) orders them: tied spans
    /// stay in recording order, not in trace id order.
    #[test]
    fn span_order_is_a_stable_sort_of_the_rows() {
        for seed in 0..20 {
            let mut rng = Rng64::new(seed);
            let mut completion: Vec<u64> = (0..12).collect();
            rng.shuffle(&mut completion);
            let mut rows = Vec::new();
            for &trace in &completion {
                for index in 0..3 {
                    let start = rng.next_bounded(4);
                    rows.push(SpanRow {
                        trace,
                        start,
                        end: start + rng.next_bounded(3),
                        index,
                        phase: *rng.choose(&Phase::ALL),
                    });
                }
            }
            let mut expected: Vec<Span> = rows
                .iter()
                .map(|r| {
                    Span::new(
                        TraceId(r.trace),
                        SpanId(r.index.into()),
                        (r.index > 0).then_some(SpanId(0)),
                        r.phase.name(),
                        r.start,
                        r.end,
                    )
                })
                .collect();
            expected.sort_by_key(|s| (s.start_nanos, s.span_id));
            assert_eq!(spans_in_order(&rows), expected, "seed {seed}");
        }
    }
}

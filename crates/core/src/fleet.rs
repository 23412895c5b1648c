//! Multi-server modeling: one KOOZA instance per chunkserver.
//!
//! §4: "Scaling to multiple servers in order to simulate real-application
//! scenarios requires multiple instances of the model." A [`KoozaFleet`]
//! trains one [`Kooza`] per server of a GFS cluster run and generates
//! per-server synthetic streams — the unit of large-scale DC simulation §5
//! argues for.
//!
//! The run's trace is joined into one observation table once; its rows
//! are then split by the chunkserver that served each request
//! ([`ClusterOutcome::server_of`]) into one table per server. Every
//! record of a request belongs to that request's server, so a server's
//! table is exactly what joining only that server's records would give —
//! without copying any record.
//!
//! Training and generation fan out over `kooza-exec`: each server is an
//! independent task, per-task randomness comes from serially pre-forked
//! child generators, and results merge in server order — so the fleet is
//! bit-identical at any thread count.

use kooza_gfs::ClusterOutcome;
use kooza_sim::rng::Rng64;

use crate::class::{assemble_observations, Observations};
use crate::kooza::{Kooza, KoozaOptions};
use crate::{Result, SyntheticRequest, WorkloadModel};

/// Joins a cluster run's trace into per-request observations and splits
/// them by the chunkserver that served each request: one table per
/// chunkserver, each in arrival order.
///
/// # Errors
///
/// Same as [`assemble_observations`] on the whole-cluster trace.
pub fn observations_by_server(outcome: &ClusterOutcome) -> Result<Vec<Observations>> {
    let observations = assemble_observations(&outcome.trace)?;
    Ok(observations.partition(outcome.stats.requests_per_server.len(), |obs| {
        outcome.server_of[obs.request_id as usize]
    }))
}

/// One trained model per server.
#[derive(Debug)]
pub struct KoozaFleet {
    servers: Vec<Kooza>,
}

impl KoozaFleet {
    /// Trains one model per chunkserver of a cluster run, each on the
    /// requests that server served. Per-server fits run in parallel;
    /// fitting draws no randomness, so the result is identical at any
    /// thread count.
    ///
    /// Every server must have trainable observations; a server that saw
    /// no (sampled) requests is a configuration problem the caller should
    /// see, not silently drop.
    ///
    /// # Errors
    ///
    /// Propagates the observation-join failure or the first per-server
    /// training failure.
    pub fn fit(outcome: &ClusterOutcome) -> Result<Self> {
        let servers: Result<Vec<Kooza>> = kooza_obs::global::stage("fleet.train", || {
            let groups = observations_by_server(outcome)?;
            kooza_exec::par_map(&groups, |group| {
                Kooza::fit_observations(group, KoozaOptions::default())
            })
            .into_iter()
            .collect()
        });
        let fleet = KoozaFleet { servers: servers? };
        kooza_obs::global::counter_add("fleet.servers_trained", fleet.len() as u64);
        Ok(fleet)
    }

    /// Number of per-server models.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty (never true for a fitted fleet).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The model for one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn server(&self, server: usize) -> &Kooza {
        &self.servers[server]
    }

    /// Iterates over the per-server models.
    pub fn iter(&self) -> impl Iterator<Item = &Kooza> {
        self.servers.iter()
    }

    /// Total trained parameters across the fleet — the paper's scalability
    /// column: per-server models grow linearly in server count, not with
    /// cross-server state.
    pub fn parameter_count(&self) -> usize {
        self.servers.iter().map(|m| m.parameter_count()).sum()
    }

    /// Generates an independent synthetic stream per server (each server's
    /// arrival process and request mix is its own).
    ///
    /// The child generators are forked from `rng` serially *before* the
    /// parallel fan-out, so the output — and the caller's `rng` state
    /// afterwards — matches the old serial implementation exactly.
    pub fn generate_per_server(
        &self,
        n_per_server: usize,
        rng: &mut Rng64,
    ) -> Vec<Vec<SyntheticRequest>> {
        let children: Vec<Rng64> = self.servers.iter().map(|_| rng.fork()).collect();
        kooza_obs::global::stage("fleet.generate", || {
            kooza_exec::par_map_indexed(&children, |server, child| {
                let mut child = child.clone();
                self.servers[server].generate(n_per_server, &mut child)
            })
        })
    }

    /// Aggregate fleet arrival rate (sum of per-server rates), req/s.
    pub fn aggregate_rate(&self) -> f64 {
        self.servers.iter().map(|m| m.network().mean_rate()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
    use kooza_trace::TraceSet;

    fn multi_server_outcome() -> ClusterOutcome {
        let mut config = ClusterConfig::cluster(3);
        config.workload = WorkloadMix {
            read_fraction: 1.0,
            mean_interarrival_secs: 0.01,
            n_chunks: 4000,
            zipf_skew: 0.8,
            ..WorkloadMix::read_heavy()
        };
        Cluster::new(&config).unwrap().run(3000, 2200)
    }

    /// An 8-server mixed-workload run tracing 1 request in 7.
    fn sampled_outcome() -> ClusterOutcome {
        let mut config = ClusterConfig::cluster(8);
        config.trace_sampling = 7;
        config.workload = WorkloadMix { mean_interarrival_secs: 0.005, ..WorkloadMix::mixed() };
        Cluster::new(&config).unwrap().run(4000, 2201)
    }

    /// The records of the requests `server_of` assigns to `server`.
    fn server_trace(outcome: &ClusterOutcome, server: usize) -> TraceSet {
        let mine = |id: u64| outcome.server_of[id as usize] == server;
        let t = &outcome.trace;
        TraceSet {
            storage: t.storage.iter().filter(|r| mine(r.request_id)).copied().collect(),
            cpu: t.cpu.iter().filter(|r| mine(r.request_id)).copied().collect(),
            memory: t.memory.iter().filter(|r| mine(r.request_id)).copied().collect(),
            network: t.network.iter().filter(|r| mine(r.request_id)).copied().collect(),
            spans: t.spans.iter().filter(|s| mine(s.trace_id.0)).cloned().collect(),
        }
    }

    #[test]
    fn server_groups_partition_the_cluster_observations() {
        let outcome = multi_server_outcome();
        let groups = observations_by_server(&outcome).unwrap();
        assert_eq!(groups.len(), 3);
        let total: usize = groups.iter().map(Observations::len).sum();
        assert_eq!(total, assemble_observations(&outcome.trace).unwrap().len());
        for (server, group) in groups.iter().enumerate() {
            // Reads spread across replicas: every server served a share.
            assert!(group.len() > 300, "server {server} saw only {} requests", group.len());
            assert!(group.iter().all(|o| outcome.server_of[o.request_id as usize] == server));
            let mut pairs = group.iter().zip(group.iter().skip(1));
            assert!(pairs.all(|(a, b)| a.arrival_nanos <= b.arrival_nanos));
        }
    }

    #[test]
    fn fleet_models_match_models_fit_on_each_servers_own_trace() {
        for outcome in [multi_server_outcome(), sampled_outcome()] {
            let fleet = KoozaFleet::fit(&outcome).unwrap();
            let own: Vec<Kooza> = (0..outcome.stats.requests_per_server.len())
                .map(|server| Kooza::fit(&server_trace(&outcome, server)).unwrap())
                .collect();
            assert_eq!(fleet.len(), own.len());
            for (server, model) in own.iter().enumerate() {
                assert_eq!(format!("{:?}", fleet.server(server)), format!("{model:?}"));
            }
            // Generation forks one child per server, in server order.
            let mut rng = Rng64::new(5);
            let streams = fleet.generate_per_server(100, &mut rng);
            let mut own_rng = Rng64::new(5);
            let mut children: Vec<Rng64> = own.iter().map(|_| own_rng.fork()).collect();
            for ((model, child), stream) in own.iter().zip(&mut children).zip(&streams) {
                assert_eq!(&model.generate(100, child), stream);
            }
            assert_eq!(rng, own_rng);
        }
    }

    #[test]
    fn fleet_trains_and_generates() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome).unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        let mut rng = Rng64::new(1);
        let streams = fleet.generate_per_server(200, &mut rng);
        assert_eq!(streams.len(), 3);
        for stream in &streams {
            assert_eq!(stream.len(), 200);
        }
        assert!(fleet.parameter_count() > 3 * 1000);
    }

    #[test]
    fn parallel_generation_is_deterministic() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome).unwrap();
        // Same seed → identical streams, and the caller's RNG leaves in
        // the same state (children are forked serially before the fan-
        // out). Thread-count invariance of the whole pipeline is pinned
        // by the umbrella determinism test, which owns its process.
        let mut rng_a = Rng64::new(77);
        let mut rng_b = Rng64::new(77);
        let a = fleet.generate_per_server(50, &mut rng_a);
        let b = fleet.generate_per_server(50, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn aggregate_rate_matches_cluster_rate() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome).unwrap();
        // Cluster offered 100 req/s; per-server models should sum back.
        let agg = fleet.aggregate_rate();
        assert!((agg - 100.0).abs() < 12.0, "aggregate rate {agg}");
    }

    #[test]
    fn per_server_models_reflect_per_server_load() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome).unwrap();
        for (i, model) in fleet.iter().enumerate() {
            let rate = model.network().mean_rate();
            // 3-way-replicated reads split roughly evenly.
            assert!((15.0..60.0).contains(&rate), "server {i} rate {rate}");
        }
    }

    #[test]
    fn empty_fleet_rejected() {
        // A server that served no requests fails the whole fleet loudly.
        let mut outcome = multi_server_outcome();
        for server in &mut outcome.server_of {
            if *server == 2 {
                *server = 0;
            }
        }
        assert!(observations_by_server(&outcome).unwrap()[2].is_empty());
        assert!(KoozaFleet::fit(&outcome).is_err());
    }
}

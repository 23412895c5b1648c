//! An event-driven open queueing-network simulator.
//!
//! Nodes are multi-server FIFO stations with arbitrary service-time
//! distributions; jobs enter from an [`ArrivalProcess`], route
//! probabilistically between nodes, and exit. This is the simulation
//! engine behind the SQS baseline ([`crate::sqs`]) and the validation
//! target for the analytic formulas in [`crate::analytic`].

use std::collections::HashMap;

use kooza_sim::rng::Rng64;
use kooza_sim::{Engine, ServerPool, SimDuration, SimTime, Tally};
use kooza_stats::dist::Distribution;

use crate::arrival::ArrivalProcess;
use crate::{QueueError, Result};

/// One station in the network.
#[derive(Debug)]
pub struct NodeConfig {
    /// Display name.
    pub name: String,
    /// Parallel servers.
    pub servers: usize,
    /// Service-time distribution, seconds.
    pub service: Box<dyn Distribution>,
}

/// An open queueing network.
///
/// `routing[i]` has `n + 1` entries: probabilities of moving from node `i`
/// to each node, with the final entry the probability of leaving the
/// system. `entry` gives the distribution of the node where external
/// arrivals enter.
#[derive(Debug)]
pub struct NetworkConfig {
    /// Stations.
    pub nodes: Vec<NodeConfig>,
    /// Routing matrix, `n x (n + 1)` (last column = exit).
    pub routing: Vec<Vec<f64>>,
    /// Entry-node distribution, length `n`.
    pub entry: Vec<f64>,
}

impl NetworkConfig {
    /// A tandem line: node 0 → 1 → ... → n−1 → exit.
    pub fn tandem(nodes: Vec<NodeConfig>) -> Self {
        let n = nodes.len();
        let mut routing = vec![vec![0.0; n + 1]; n];
        for (i, row) in routing.iter_mut().enumerate() {
            if i + 1 < n {
                row[i + 1] = 1.0;
            } else {
                row[n] = 1.0;
            }
        }
        let mut entry = vec![0.0; n];
        if n > 0 {
            entry[0] = 1.0;
        }
        NetworkConfig {
            nodes,
            routing,
            entry,
        }
    }

    fn validate(&self) -> Result<()> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(QueueError::InvalidTopology("network needs at least one node".into()));
        }
        if self.routing.len() != n || self.entry.len() != n {
            return Err(QueueError::InvalidTopology("routing/entry dimension mismatch".into()));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.servers == 0 {
                return Err(QueueError::InvalidTopology(format!(
                    "node {i} ({}) has zero servers",
                    node.name
                )));
            }
        }
        for (i, row) in self.routing.iter().enumerate() {
            if row.len() != n + 1 {
                return Err(QueueError::InvalidTopology(format!(
                    "routing row {i} has {} entries, expected {}",
                    row.len(),
                    n + 1
                )));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(QueueError::InvalidTopology(format!(
                    "routing row {i} sums to {sum}"
                )));
            }
        }
        let entry_sum: f64 = self.entry.iter().sum();
        if (entry_sum - 1.0).abs() > 1e-9 {
            return Err(QueueError::InvalidTopology(format!(
                "entry distribution sums to {entry_sum}"
            )));
        }
        Ok(())
    }
}

/// Per-node simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node name.
    pub name: String,
    /// Time-averaged utilization in `[0, 1]`.
    pub utilization: f64,
    /// Time-averaged queue length (waiting jobs).
    pub mean_queue_len: f64,
    /// Mean time in queue, seconds.
    pub mean_wait_secs: f64,
    /// Service completions at this node.
    pub completions: u64,
}

/// Whole-network simulation output.
#[derive(Debug, Clone)]
pub struct NetworkResults {
    /// Per-node statistics.
    pub nodes: Vec<NodeStats>,
    /// End-to-end sojourn times (seconds) of completed jobs, streaming view.
    pub sojourn_secs: Tally,
    /// Raw per-job sojourn times (seconds), completion order — for
    /// percentile analysis.
    pub sojourn_samples: Vec<f64>,
    /// Jobs that left the system.
    pub completed: u64,
    /// Simulated makespan, seconds.
    pub makespan_secs: f64,
}

impl NetworkResults {
    /// Mean end-to-end response time in seconds.
    pub fn mean_response_secs(&self) -> f64 {
        self.sojourn_secs.mean()
    }

    /// System throughput in jobs/second over the makespan.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.makespan_secs > 0.0 {
            self.completed as f64 / self.makespan_secs
        } else {
            0.0
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// External arrival of job `id` (the next one is scheduled on pop).
    External { id: u64 },
    /// Job lands at a node.
    Arrive { node: usize, id: u64 },
    /// A service finishes at a node.
    Done { node: usize, id: u64 },
}

/// Simulates `n_jobs` external arrivals through the network and drains it.
///
/// # Errors
///
/// Returns topology-validation errors; the simulation itself cannot fail.
pub fn simulate(
    config: &NetworkConfig,
    arrivals: &mut dyn ArrivalProcess,
    n_jobs: u64,
    rng: &mut Rng64,
) -> Result<NetworkResults> {
    config.validate()?;
    let n = config.nodes.len();
    let mut engine: Engine<Ev> = Engine::new();
    let mut pools: Vec<ServerPool<u64>> = config
        .nodes
        .iter()
        .map(|node| ServerPool::new(node.servers))
        .collect();
    let mut completions = vec![0u64; n];
    let mut entry_times: HashMap<u64, SimTime> = HashMap::new();
    let mut sojourn = Tally::new();
    let mut sojourn_samples = Vec::new();
    let mut completed = 0u64;
    let mut next_id = 0u64;

    let sample_service = |node: usize, rng: &mut Rng64| -> SimDuration {
        SimDuration::from_secs_f64(config.nodes[node].service.sample(rng).max(0.0))
    };

    if n_jobs > 0 {
        let first = arrivals.next_gap(rng);
        engine.schedule(SimDuration::from_secs_f64(first.max(0.0)), Ev::External { id: 0 });
        next_id = 1;
    }

    while let Some((now, ev)) = engine.next() {
        match ev {
            Ev::External { id } => {
                if next_id < n_jobs {
                    let gap = arrivals.next_gap(rng);
                    engine.schedule(
                        SimDuration::from_secs_f64(gap.max(0.0)),
                        Ev::External { id: next_id },
                    );
                    next_id += 1;
                }
                entry_times.insert(id, now);
                let node = rng.choose_weighted(&config.entry);
                engine.schedule(SimDuration::ZERO, Ev::Arrive { node, id });
            }
            Ev::Arrive { node, id } => {
                if let Some(job) = pools[node].arrive(now, id) {
                    let service = sample_service(node, rng);
                    engine.schedule(service, Ev::Done { node, id: job });
                }
            }
            Ev::Done { node, id } => {
                completions[node] += 1;
                // Route the finished job.
                let dest = rng.choose_weighted(&config.routing[node]);
                if dest == n {
                    // Exit.
                    if let Some(entered) = entry_times.remove(&id) {
                        let secs = (now - entered).as_secs_f64();
                        sojourn.record(secs);
                        sojourn_samples.push(secs);
                    }
                    completed += 1;
                } else {
                    engine.schedule(SimDuration::ZERO, Ev::Arrive { node: dest, id });
                }
                // Release the server; start the next queued job if any.
                if let Some(job) = pools[node].complete(now) {
                    let service = sample_service(node, rng);
                    engine.schedule(service, Ev::Done { node, id: job });
                }
            }
        }
    }

    let end = engine.now();
    let nodes = config
        .nodes
        .iter()
        .zip(pools.iter())
        .zip(completions.iter())
        .map(|((node, pool), &comps)| NodeStats {
            name: node.name.clone(),
            utilization: pool.utilization(end),
            mean_queue_len: pool.mean_queue_len(end),
            mean_wait_secs: pool.mean_wait().as_secs_f64(),
            completions: comps,
        })
        .collect();
    Ok(NetworkResults {
        nodes,
        sojourn_secs: sojourn,
        sojourn_samples,
        completed,
        makespan_secs: end.as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{mm1, mmc};
    use crate::arrival::PoissonArrivals;
    use kooza_stats::dist::Exponential;

    fn node(name: &str, servers: usize, mu: f64) -> NodeConfig {
        NodeConfig {
            name: name.into(),
            servers,
            service: Box::new(Exponential::new(mu).unwrap()),
        }
    }

    #[test]
    fn single_node_matches_mm1() {
        let config = NetworkConfig::tandem(vec![node("q", 1, 10.0)]);
        let mut arrivals = PoissonArrivals::new(7.0).unwrap();
        let mut rng = Rng64::new(1300);
        let res = simulate(&config, &mut arrivals, 200_000, &mut rng).unwrap();
        let analytic = mm1(7.0, 10.0).unwrap();
        let sim_resp = res.mean_response_secs();
        assert!(
            (sim_resp - analytic.mean_response).abs() / analytic.mean_response < 0.05,
            "simulated {sim_resp} vs analytic {}",
            analytic.mean_response
        );
        assert!(
            (res.nodes[0].utilization - analytic.utilization).abs() < 0.02,
            "utilization {}",
            res.nodes[0].utilization
        );
    }

    #[test]
    fn multi_server_node_matches_mmc() {
        let config = NetworkConfig::tandem(vec![node("q", 4, 3.0)]);
        let mut arrivals = PoissonArrivals::new(9.0).unwrap();
        let mut rng = Rng64::new(1301);
        let res = simulate(&config, &mut arrivals, 150_000, &mut rng).unwrap();
        let analytic = mmc(9.0, 3.0, 4).unwrap();
        let sim_wait = res.nodes[0].mean_wait_secs;
        assert!(
            (sim_wait - analytic.mean_wait).abs() / analytic.mean_wait < 0.1,
            "simulated wait {sim_wait} vs analytic {}",
            analytic.mean_wait
        );
    }

    #[test]
    fn tandem_response_is_sum_of_stations() {
        // Jackson: each station in a tandem behaves as an independent M/M/1.
        let config = NetworkConfig::tandem(vec![node("a", 1, 20.0), node("b", 1, 15.0)]);
        let mut arrivals = PoissonArrivals::new(8.0).unwrap();
        let mut rng = Rng64::new(1302);
        let res = simulate(&config, &mut arrivals, 150_000, &mut rng).unwrap();
        let expect = mm1(8.0, 20.0).unwrap().mean_response + mm1(8.0, 15.0).unwrap().mean_response;
        let got = res.mean_response_secs();
        assert!((got - expect).abs() / expect < 0.06, "sim {got} vs jackson {expect}");
    }

    #[test]
    fn probabilistic_routing_splits_load() {
        // One entry node fanning 30/70 to two exits.
        let nodes = vec![node("front", 2, 50.0), node("a", 1, 50.0), node("b", 1, 50.0)];
        let routing = vec![
            vec![0.0, 0.3, 0.7, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 1.0],
        ];
        let entry = vec![1.0, 0.0, 0.0];
        let config = NetworkConfig { nodes, routing, entry };
        let mut arrivals = PoissonArrivals::new(10.0).unwrap();
        let mut rng = Rng64::new(1303);
        let res = simulate(&config, &mut arrivals, 50_000, &mut rng).unwrap();
        let frac_a =
            res.nodes[1].completions as f64 / (res.nodes[1].completions + res.nodes[2].completions) as f64;
        assert!((frac_a - 0.3).abs() < 0.02, "split {frac_a}");
        assert_eq!(res.completed, 50_000);
    }

    #[test]
    fn feedback_loop_inflates_visits() {
        // Node 0 loops back to itself with p = 0.5 → 2 visits per job.
        let nodes = vec![node("loop", 1, 40.0)];
        let routing = vec![vec![0.5, 0.5]];
        let entry = vec![1.0];
        let config = NetworkConfig { nodes, routing, entry };
        let mut arrivals = PoissonArrivals::new(5.0).unwrap();
        let mut rng = Rng64::new(1304);
        let res = simulate(&config, &mut arrivals, 40_000, &mut rng).unwrap();
        let visits = res.nodes[0].completions as f64 / res.completed as f64;
        assert!((visits - 2.0).abs() < 0.05, "visits {visits}");
    }

    #[test]
    fn throughput_equals_offered_when_stable() {
        let config = NetworkConfig::tandem(vec![node("q", 1, 30.0)]);
        let mut arrivals = PoissonArrivals::new(10.0).unwrap();
        let mut rng = Rng64::new(1305);
        let res = simulate(&config, &mut arrivals, 100_000, &mut rng).unwrap();
        assert!((res.throughput_per_sec() - 10.0).abs() < 0.3, "tput {}", res.throughput_per_sec());
    }

    #[test]
    fn invalid_topologies_rejected() {
        // Zero nodes.
        let config = NetworkConfig { nodes: vec![], routing: vec![], entry: vec![] };
        let mut arrivals = PoissonArrivals::new(1.0).unwrap();
        let mut rng = Rng64::new(1);
        assert!(simulate(&config, &mut arrivals, 1, &mut rng).is_err());
        // Bad routing sum.
        let config = NetworkConfig {
            nodes: vec![node("a", 1, 1.0)],
            routing: vec![vec![0.5, 0.4]],
            entry: vec![1.0],
        };
        assert!(simulate(&config, &mut arrivals, 1, &mut rng).is_err());
        // Zero-server node.
        let config = NetworkConfig {
            nodes: vec![NodeConfig {
                name: "z".into(),
                servers: 0,
                service: Box::new(Exponential::new(1.0).unwrap()),
            }],
            routing: vec![vec![0.0, 1.0]],
            entry: vec![1.0],
        };
        assert!(simulate(&config, &mut arrivals, 1, &mut rng).is_err());
    }

    #[test]
    fn zero_jobs_is_a_noop() {
        let config = NetworkConfig::tandem(vec![node("q", 1, 10.0)]);
        let mut arrivals = PoissonArrivals::new(1.0).unwrap();
        let mut rng = Rng64::new(2);
        let res = simulate(&config, &mut arrivals, 0, &mut rng).unwrap();
        assert_eq!(res.completed, 0);
        assert_eq!(res.sojourn_secs.count(), 0);
    }
}

//! Micro-benchmarks for the substrate and the end-to-end modeling
//! pipeline, on the in-repo `kooza_bench::harness` (see that module for
//! modes and JSON output). These are performance benchmarks (ns/op), not
//! the paper-reproduction experiments — those live in `src/bin/`.

use std::hint::black_box;

use kooza::fleet::observations_by_server;
use kooza::kooza::KoozaOptions;
use kooza::{Kooza, KoozaFleet, WorkloadModel};
use kooza_bench::harness::Harness;
use kooza_exec::Pool;
use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};
use kooza_markov::{GaussianHmm, MarkovChainBuilder};
use kooza_queueing::arrival::PoissonArrivals;
use kooza_queueing::network::{simulate, NetworkConfig, NodeConfig};
use kooza_sim::rng::Rng64;
use kooza_sim::{Engine, SimDuration};
use kooza_stats::dist::{Distribution, Exponential, LogNormal};
use kooza_stats::fit::FitPipeline;
use kooza_stats::ks::{ks_one_sample, ks_one_sample_presorted};
use kooza_stats::sorted::SortedSample;
use kooza_stats::pca::Pca;

fn bench_sim_engine(h: &mut Harness) {
    h.bench_function("sim_engine_100k_events", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..1000u64 {
                eng.schedule(SimDuration::from_nanos(i), i);
            }
            let mut processed = 0u64;
            while let Some((_, ev)) = eng.next() {
                processed += 1;
                if ev < 99_000 {
                    eng.schedule(SimDuration::from_nanos(10), ev + 1000);
                }
            }
            black_box(processed)
        })
    });
}

fn bench_rng(h: &mut Harness) {
    h.bench_function("rng_next_f64_1k", |b| {
        let mut rng = Rng64::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.next_f64();
            }
            black_box(acc)
        })
    });
}

fn bench_ks_test(h: &mut Harness) {
    let d = Exponential::new(1.0).unwrap();
    let mut rng = Rng64::new(2);
    let data: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
    h.bench_function("ks_one_sample_10k", |b| {
        b.iter(|| black_box(ks_one_sample(&data, &d).unwrap().statistic))
    });
    // The presorted variant skips validation and the O(n log n) sort, which
    // is what the fit pipeline amortizes across all candidate families.
    let sorted = SortedSample::new(&data).unwrap();
    h.bench_function("ks_presorted_10k", |b| {
        b.iter(|| black_box(ks_one_sample_presorted(&sorted, &d).statistic))
    });
}

fn bench_ad_test(h: &mut Harness) {
    let d = Exponential::new(1.0).unwrap();
    let mut rng = Rng64::new(13);
    let data: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
    h.bench_function("anderson_darling_10k", |b| {
        b.iter(|| black_box(kooza_stats::ad::ad_one_sample(&data, &d).unwrap().statistic))
    });
}

fn bench_fit_pipeline(h: &mut Harness) {
    let d = LogNormal::new(0.0, 0.8).unwrap();
    let mut rng = Rng64::new(3);
    let data: Vec<f64> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
    h.bench_function("fit_pipeline_standard_5k", |b| {
        b.iter(|| black_box(FitPipeline::standard().run(&data).unwrap().best().family))
    });
}

fn bench_markov_train_generate(h: &mut Harness) {
    let mut rng = Rng64::new(4);
    let seq: Vec<usize> = (0..100_000).map(|_| rng.next_bounded(16) as usize).collect();
    h.bench_function("markov_train_100k", |b| {
        b.iter(|| {
            let mut builder = MarkovChainBuilder::new(16);
            for w in seq.windows(2) {
                builder.record_transition(w[0], w[1]);
            }
            black_box(builder.build().unwrap())
        })
    });
    let mut builder = MarkovChainBuilder::new(16);
    for w in seq.windows(2) {
        builder.record_transition(w[0], w[1]);
    }
    let chain = builder.build().unwrap();
    h.bench_function("markov_generate_10k", |b| {
        let mut rng = Rng64::new(5);
        b.iter(|| black_box(chain.generate(10_000, &mut rng)))
    });
}

fn bench_hmm_baum_welch(h: &mut Harness) {
    let source = GaussianHmm::new(
        vec![vec![0.95, 0.05], vec![0.05, 0.95]],
        vec![0.5, 0.5],
        vec![0.0, 10.0],
        vec![1.0, 1.0],
    )
    .unwrap();
    let mut rng = Rng64::new(6);
    let (_, obs) = source.generate(2_000, &mut rng);
    h.bench_function("gaussian_hmm_em_step_2k", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng64::new(7);
                GaussianHmm::init_from_data(2, &obs, &mut rng).unwrap()
            },
            |mut model| {
                model.train(&obs, 1, 1e-12).unwrap();
                black_box(model)
            },
        )
    });
}

fn bench_pca(h: &mut Harness) {
    let mut rng = Rng64::new(8);
    let rows: Vec<Vec<f64>> = (0..2_000)
        .map(|_| (0..8).map(|_| rng.next_f64()).collect())
        .collect();
    h.bench_function("pca_fit_2000x8", |b| {
        b.iter(|| black_box(Pca::fit(&rows).unwrap()))
    });
}

fn bench_queueing_network(h: &mut Harness) {
    h.bench_function("mm1_network_sim_20k_jobs", |b| {
        b.iter(|| {
            let config = NetworkConfig::tandem(vec![NodeConfig {
                name: "q".into(),
                servers: 1,
                service: Box::new(Exponential::new(10.0).unwrap()),
            }]);
            let mut arrivals = PoissonArrivals::new(7.0).unwrap();
            let mut rng = Rng64::new(9);
            black_box(simulate(&config, &mut arrivals, 20_000, &mut rng).unwrap().completed)
        })
    });
}

fn bench_mva(h: &mut Harness) {
    let demands = [0.01, 0.02, 0.005, 0.03];
    h.bench_function("closed_mva_500_customers", |b| {
        b.iter(|| {
            black_box(
                kooza_queueing::mva::closed_mva(500, 1.0, &demands)
                    .unwrap()
                    .throughput,
            )
        })
    });
}

fn bench_gfs_cluster(h: &mut Harness) {
    h.bench_function("gfs_simulate_2k_requests", |b| {
        b.iter(|| {
            let mut config = ClusterConfig::small();
            config.workload = WorkloadMix::read_heavy();
            let mut cluster = Cluster::new(&config).unwrap();
            black_box(cluster.run(2_000, 10).stats.completed)
        })
    });
}

fn bench_kooza_pipeline(h: &mut Harness) {
    let mut config = ClusterConfig::small();
    config.workload = WorkloadMix::read_heavy();
    let trace = Cluster::new(&config).unwrap().run(1_000, 11).trace;
    h.bench_function("kooza_fit_1k_requests", |b| {
        b.iter(|| black_box(Kooza::fit(&trace).unwrap().trained_requests()))
    });
    let model = Kooza::fit(&trace).unwrap();
    h.bench_function("kooza_generate_1k", |b| {
        let mut rng = Rng64::new(12);
        b.iter(|| black_box(model.generate(1_000, &mut rng).len()))
    });
}

fn bench_exec_par_map(h: &mut Harness) {
    // A CPU-bound map over 256 items: the serial/parallel pair measures the
    // pool's dispatch overhead and, on multi-core hosts, its speedup. The
    // work body is pure integer arithmetic so both variants are exact.
    let items: Vec<u64> = (0..256).collect();
    fn work(x: &u64) -> u64 {
        let mut acc = *x;
        for _ in 0..20_000 {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        acc
    }
    h.bench_function("exec_par_map_serial_256", |b| {
        let pool = Pool::with_threads(1);
        b.iter(|| black_box(pool.par_map(&items, work)))
    });
    h.bench_function("exec_par_map_256", |b| {
        let pool = Pool::new();
        b.iter(|| black_box(pool.par_map(&items, work)))
    });
    // Trivial per-item work over a small input: the median is dominated by
    // the cost of handing a job to the persistent pool and draining it, so
    // this tracks the per-call reuse overhead rather than throughput.
    let small: Vec<u64> = (0..64).collect();
    h.bench_function("exec_pool_reuse_64", |b| {
        let pool = Pool::with_threads(2);
        b.iter(|| black_box(pool.par_map(&small, |x| x.wrapping_mul(3))))
    });
}

fn bench_fleet_train(h: &mut Harness) {
    // Per-server KOOZA training on a 4-server replicated cluster. Both
    // variants join and group the observations once; the serial baseline
    // then fits each server's group in a loop, and the parallel variant is
    // the production `KoozaFleet::fit` path. The ratio of their medians is
    // the fleet-training speedup (reported in the KOOZA_BENCH_JSON output;
    // ~1.0 on a single-core host).
    let n_servers = 4;
    let mut config = ClusterConfig::cluster(n_servers);
    config.workload = WorkloadMix {
        read_fraction: 1.0,
        mean_interarrival_secs: 0.008,
        n_chunks: 4000,
        zipf_skew: 0.8,
        ..WorkloadMix::read_heavy()
    };
    let outcome = Cluster::new(&config).unwrap().run(2_000, 14);
    h.bench_function("fleet_serial_train", |b| {
        b.iter(|| {
            let groups = observations_by_server(&outcome).unwrap();
            let fleet: Vec<Kooza> = groups
                .iter()
                .map(|g| Kooza::fit_observations(g, KoozaOptions::default()).unwrap())
                .collect();
            black_box(fleet.len())
        })
    });
    h.bench_function("fleet_parallel_train", |b| {
        b.iter(|| black_box(KoozaFleet::fit(&outcome).unwrap().len()))
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_sim_engine(&mut h);
    bench_rng(&mut h);
    bench_ks_test(&mut h);
    bench_ad_test(&mut h);
    bench_fit_pipeline(&mut h);
    bench_markov_train_generate(&mut h);
    bench_hmm_baum_welch(&mut h);
    bench_pca(&mut h);
    bench_queueing_network(&mut h);
    bench_mva(&mut h);
    bench_gfs_cluster(&mut h);
    bench_kooza_pipeline(&mut h);
    bench_exec_par_map(&mut h);
    bench_fleet_train(&mut h);
    h.finish();
}

//! Property-based tests for the Markov substrate, on the deterministic
//! in-repo `kooza-check` harness.

use kooza_check::gen::{choice, f64_range, u64_range, usize_range, vec_of, zip2, zip3};
use kooza_check::{checker, ensure, ensure_eq};

use kooza_markov::{GaussianHmm, MarkovChainBuilder};
use kooza_sim::rng::Rng64;

/// Generated sequences only visit declared states, for any training
/// sequence and length.
#[test]
fn generated_states_in_range() {
    checker("generated_states_in_range").run(
        zip3(
            vec_of(usize_range(0, 5), 2, 100),
            usize_range(0, 200),
            u64_range(0, 1000),
        ),
        |(seq, len, seed): &(Vec<usize>, usize, u64)| {
            let chain = MarkovChainBuilder::new(5).observe_sequence(seq).build().unwrap();
            let mut rng = Rng64::new(*seed);
            let out = chain.generate(*len, &mut rng);
            ensure_eq!(out.len(), *len);
            ensure!(out.iter().all(|&s| s < 5), "state out of range in {out:?}");
            Ok(())
        },
    );
}

/// Log-likelihood of the training sequence never decreases when
/// smoothing decreases (less smoothing = closer fit to the data).
#[test]
fn smoothing_tradeoff() {
    checker("smoothing_tradeoff").run(
        vec_of(usize_range(0, 3), 10, 100),
        |seq: &Vec<usize>| {
            let tight = MarkovChainBuilder::new(3)
                .with_smoothing(0.01)
                .observe_sequence(seq)
                .build()
                .unwrap();
            let loose = MarkovChainBuilder::new(3)
                .with_smoothing(5.0)
                .observe_sequence(seq)
                .build()
                .unwrap();
            ensure!(
                tight.log_likelihood(seq).unwrap() >= loose.log_likelihood(seq).unwrap() - 1e-9,
                "smoothing improved the training fit"
            );
            Ok(())
        },
    );
}

/// Baum–Welch never decreases the training likelihood (EM monotonicity),
/// checked on random two-level sequences: a level that switches between 0
/// and `gap` with probability `switch` per step, plus uniform noise.
#[test]
fn em_monotone() {
    checker("em_monotone").cases(64).run(
        zip3(u64_range(0, 1000), f64_range(0.5, 20.0), f64_range(0.01, 0.5)),
        |&(seed, gap, switch)| {
            let mut rng = Rng64::new(seed);
            let mut level = 0.0;
            let obs: Vec<f64> = (0..300)
                .map(|_| {
                    if rng.chance(switch) {
                        level = gap - level;
                    }
                    level + rng.next_f64() - 0.5
                })
                .collect();
            let mut model = GaussianHmm::init_from_data(2, &obs, &mut rng).unwrap();
            let mut prev = model.log_likelihood(&obs).unwrap();
            for _ in 0..5 {
                model.train(&obs, 1, 1e-15).unwrap();
                let ll = model.log_likelihood(&obs).unwrap();
                ensure!(ll >= prev - 1e-6, "EM decreased: {prev} -> {ll}");
                prev = ll;
            }
            Ok(())
        },
    );
}

/// The chain's binary-search sampling (precomputed cumulative rows) picks
/// exactly the state the linear CDF scan (`Rng64::choose_weighted`) picks,
/// drawing the same single uniform — for random stochastic rows of 1–12
/// states, and of 64 and 256, the default and fine storage-chain sizes.
#[test]
fn next_state_matches_linear_scan_random_rows() {
    let sizes: Vec<usize> = (1..=12).chain([64, 256]).collect();
    checker("next_state_matches_linear_scan_random_rows").run(
        zip3(u64_range(0, 500), choice(sizes), u64_range(0, 1000)),
        |&(seed, n_states, draw_seed)| {
            // Random row-stochastic matrix from raw positive weights.
            let mut rng = Rng64::new(seed);
            let matrix: Vec<Vec<f64>> = (0..n_states)
                .map(|_| {
                    let raw: Vec<f64> =
                        (0..n_states).map(|_| rng.next_f64() + 1e-6).collect();
                    let total: f64 = raw.iter().sum();
                    raw.iter().map(|w| w / total).collect()
                })
                .collect();
            let initial = vec![1.0 / n_states as f64; n_states];
            let chain =
                kooza_markov::MarkovChain::from_matrix(matrix, initial).unwrap();
            let mut fast = Rng64::new(draw_seed);
            let mut slow = fast.clone();
            ensure_eq!(
                chain.sample_initial(&mut fast),
                slow.choose_weighted(chain.initial())
            );
            for step in 0..200 {
                let s = step % n_states;
                ensure_eq!(
                    chain.next_state(s, &mut fast),
                    slow.choose_weighted(chain.row(s))
                );
            }
            // Identical uniform consumption: the streams stay in lockstep.
            ensure_eq!(fast, slow);
            Ok(())
        },
    );
}

/// Same equivalence on edge rows: all mass on one state, and rows with
/// near-zero tails that stress the scan's floating-point slack handling.
#[test]
fn next_state_matches_linear_scan_edge_rows() {
    checker("next_state_matches_linear_scan_edge_rows").run(
        zip2(usize_range(0, 3), u64_range(0, 2000)),
        |&(hot, draw_seed)| {
            let n = 4usize;
            let tail = 1e-15;
            // Row 0..n-1: all mass on `hot` (delta rows). Last row: almost
            // all mass on `hot` with near-zero tails on everyone else.
            let mut matrix: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|j| f64::from(u8::from(j == hot))).collect())
                .collect();
            let mut tailed = vec![tail; n];
            tailed[hot] = 1.0 - (n - 1) as f64 * tail;
            matrix[n - 1] = tailed;
            let mut initial = vec![0.0; n];
            initial[hot] = 1.0;
            let chain = kooza_markov::MarkovChain::from_matrix(matrix, initial).unwrap();
            let mut fast = Rng64::new(draw_seed);
            let mut slow = fast.clone();
            ensure_eq!(
                chain.sample_initial(&mut fast),
                slow.choose_weighted(chain.initial())
            );
            for step in 0..400 {
                let s = step % n;
                ensure_eq!(
                    chain.next_state(s, &mut fast),
                    slow.choose_weighted(chain.row(s))
                );
            }
            ensure_eq!(fast, slow);
            Ok(())
        },
    );
}

/// Gaussian-HMM generation and scoring round-trip: the model assigns
/// finite likelihood to everything it generates.
#[test]
fn gaussian_hmm_scores_own_output() {
    checker("gaussian_hmm_scores_own_output").run(
        zip2(u64_range(0, 200), f64_range(0.5, 0.99)),
        |&(seed, sticky)| {
            let model = GaussianHmm::new(
                vec![vec![sticky, 1.0 - sticky], vec![1.0 - sticky, sticky]],
                vec![0.5, 0.5],
                vec![-5.0, 5.0],
                vec![1.0, 2.0],
            )
            .unwrap();
            let mut rng = Rng64::new(seed);
            let (_, obs) = model.generate(200, &mut rng);
            let ll = model.log_likelihood(&obs).unwrap();
            ensure!(ll.is_finite(), "non-finite log-likelihood");
            Ok(())
        },
    );
}

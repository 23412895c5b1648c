//! Pool profiling, in a test binary of its own: the profiler is
//! process-global, so any other test calling `par_map` while it is on
//! would add its profiles to the ones this test counts.

use kooza_exec::profile::{set_enabled, take};
use kooza_exec::Pool;

/// One test drives every profiling scenario: the enabled flag and the
/// profile buffer are process-global, so a single #[test] keeps this
/// binary free of cross-test races.
#[test]
fn profiles_cover_serial_and_parallel_calls() {
    let _ = take();
    // Disabled: nothing recorded.
    let items: Vec<u64> = (0..100).collect();
    let _ = Pool::with_threads(4).par_map(&items, |x| x + 1);
    assert!(take().is_empty());

    set_enabled(true);
    // Serial path: a single synthetic worker 0.
    let got = Pool::with_threads(1).par_map(&items, |x| x * 2);
    assert_eq!(got[99], 198);
    // Parallel path.
    let got = Pool::with_threads(4).par_map(&items, |x| x * 3);
    assert_eq!(got[99], 297);
    set_enabled(false);

    let profiles = take();
    assert_eq!(profiles.len(), 2);

    let serial = &profiles[0];
    assert_eq!(serial.threads, 1);
    assert_eq!(serial.items, 100);
    assert_eq!(serial.n_chunks, 1);
    assert_eq!(serial.workers.len(), 1);
    assert_eq!(serial.workers[0].items, 100);

    let parallel = &profiles[1];
    assert_eq!(parallel.threads, 4);
    assert_eq!(parallel.items, 100);
    assert_eq!(parallel.n_chunks, 16); // 4 workers × 4 chunks
    // Every chunk accounted for, sorted, with sane dispatch depths.
    assert_eq!(parallel.chunks.len(), 16);
    for (i, c) in parallel.chunks.iter().enumerate() {
        assert_eq!(c.chunk, i);
        assert!(c.queue_depth_at_dispatch >= 1);
        assert!(c.queue_depth_at_dispatch <= 16);
    }
    let worker_items: u64 = parallel.workers.iter().map(|w| w.items).sum();
    assert_eq!(worker_items, 100);
    let chunk_items: u64 = parallel.chunks.iter().map(|c| c.items).sum();
    assert_eq!(chunk_items, 100);

    // Profiling never perturbs results: same output with it off.
    let baseline = Pool::with_threads(4).par_map(&items, |x| x * 3);
    assert_eq!(got, baseline);
    let _ = take();
}

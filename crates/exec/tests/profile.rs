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
    // Serial path: its one thread is busy for the whole call.
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
    assert_eq!(serial.busy_nanos, serial.wall_nanos);

    let parallel = &profiles[1];
    assert_eq!(parallel.threads, 4);
    assert_eq!(parallel.items, 100);
    // Each of the 4 threads is busy only within the call.
    assert!(parallel.busy_nanos <= 4 * parallel.wall_nanos, "{parallel:?}");

    // Profiling never perturbs results: same output with it off.
    let baseline = Pool::with_threads(4).par_map(&items, |x| x * 3);
    assert_eq!(got, baseline);
    let _ = take();
}

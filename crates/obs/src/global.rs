//! The process-global observability sink behind the CLI's `--obs` flag.
//!
//! Instrumentation points all over the workspace (`kooza-core`,
//! `kooza-gfs`, the CLI) call the free functions here. When observability
//! is disabled — the default — every call is a single mutex-free-path
//! check and returns immediately, so instrumented code costs nothing in
//! normal runs.
//!
//! # Determinism
//!
//! Parallel tasks may only apply **commutative** registry operations:
//! [`counter_add`], and in a [`with_registry`] closure counter adds,
//! gauge maxima and histogram records. They commute, so the final
//! registry state is the same at any thread count. Setting a gauge is
//! *not* commutative and belongs on the orchestration thread.
//!
//! # Stage spans and worker threads
//!
//! Stage spans form a tree tied to one call stack, which only makes sense
//! on the thread that enabled observability. Pipeline stages sometimes
//! run *inside* `par_map` workers (cross-examination replays models in
//! parallel); a [`stage`] call from any other thread therefore runs its
//! closure without recording a span. Metrics recorded inside still land
//! in the registry — only the span is owner-thread-scoped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use crate::metrics::MetricsRegistry;
use crate::report::ObsReport;
use crate::stage::StageRecorder;

struct GlobalObs {
    registry: MetricsRegistry,
    stages: StageRecorder,
    /// The thread that called [`enable`]; only it records stage spans.
    owner: ThreadId,
}

/// Fast-path flag mirroring whether `GLOBAL` is `Some`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<GlobalObs>> = Mutex::new(None);

fn lock() -> std::sync::MutexGuard<'static, Option<GlobalObs>> {
    GLOBAL.lock().expect("observability state poisoned")
}

/// Enables observability: resets the global registry and stage tree,
/// marks the calling thread as the span owner and turns on pool
/// profiling in `kooza-exec`.
pub fn enable() {
    let mut global = lock();
    *global = Some(GlobalObs {
        registry: MetricsRegistry::new(),
        stages: StageRecorder::new(),
        owner: std::thread::current().id(),
    });
    ENABLED.store(true, Ordering::SeqCst);
    kooza_exec::profile::set_enabled(true);
    // Drop profiles a previous enable/disable cycle left behind.
    let _ = kooza_exec::profile::take();
}

/// Disables observability and discards any collected state.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    kooza_exec::profile::set_enabled(false);
    let _ = kooza_exec::profile::take();
    *lock() = None;
}

/// Whether observability is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Runs `f` against the global registry, if enabled. Parallel callers
/// must stick to commutative operations (adds, maxima, records) or the
/// output becomes schedule-dependent.
pub fn with_registry<R>(f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
    if !is_enabled() {
        return None;
    }
    lock().as_mut().map(|g| f(&mut g.registry))
}

/// Adds to a global counter (no-op when disabled). Commutative.
pub fn counter_add(name: &str, delta: u64) {
    with_registry(|reg| reg.counter_add(name, delta));
}

/// Runs `f` inside a stage span named `name`.
///
/// Always runs `f` exactly once. The span is recorded only when
/// observability is enabled *and* the caller is the thread that enabled
/// it *and* the caller is not inside a `par_map` task body; from worker
/// threads (or when disabled) this is just `f()`.
///
/// The task-body exclusion is what keeps the tree's shape identical at
/// any thread count: with 1 thread `par_map` runs its tasks on the owner
/// thread, so without it, stages inside tasks would appear at 1 thread
/// and vanish at 8.
pub fn stage<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let opened = is_enabled() && !kooza_exec::in_par_map_tasks() && {
        let mut global = lock();
        match global.as_mut() {
            Some(g) if g.owner == std::thread::current().id() => {
                g.stages.enter(name);
                true
            }
            _ => false,
        }
    };
    // The lock is released while `f` runs: nested stages and metric
    // recording from inside `f` (any thread) proceed freely.
    let result = f();
    if opened {
        if let Some(g) = lock().as_mut() {
            g.stages.exit();
        }
    }
    result
}

/// Builds the report for the current run, draining the pool-profile
/// buffer. Returns `None` when disabled. Observability stays enabled;
/// call [`disable`] to stop collecting.
pub fn report() -> Option<ObsReport> {
    if !is_enabled() {
        return None;
    }
    let pools = kooza_exec::profile::take();
    lock().as_ref().map(|g| ObsReport {
        detected_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            as u64,
        resolved_threads: kooza_exec::resolved_threads() as u64,
        metrics: g.registry.snapshot(),
        stages: g.stages.roots(),
        pools,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global, so one #[test] exercises the whole
    /// lifecycle — parallel #[test]s would race on enable/disable.
    #[test]
    fn global_sink_lifecycle() {
        // Disabled: everything is a no-op.
        assert!(!is_enabled());
        counter_add("x", 1);
        assert!(report().is_none());
        assert_eq!(stage("s", || 7), 7);

        enable();
        assert!(is_enabled());
        counter_add("x", 2);
        counter_add("x", 3);
        with_registry(|reg| {
            reg.gauge_set("g", 1.5);
            reg.gauge_max("g", 9.0);
            reg.histogram_record("h", &[10, 100], 42);
        });
        let result = stage("outer", || {
            stage("inner", || ());
            stage("inner", || ());
            11
        });
        assert_eq!(result, 11);

        // Worker threads record metrics but not spans.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                counter_add("x", 10);
                stage("from-worker", || ());
            });
        });

        let report = report().expect("enabled");
        assert_eq!(report.metrics.counter("x"), Some(15));
        assert_eq!(report.metrics.gauge("g"), Some(9.0));
        assert_eq!(report.metrics.histogram("h").unwrap().count(), 1);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].name, "outer");
        assert_eq!(report.stages[0].children.len(), 1);
        assert_eq!(report.stages[0].children[0].count, 2);
        let names: Vec<&str> =
            crate::stage::flatten(&report.stages).iter().map(|(_, n)| n.name.as_str()).collect();
        assert!(!names.contains(&"from-worker"));

        // par_map calls are profiled while enabled.
        let items: Vec<u64> = (0..64).collect();
        let _ = kooza_exec::Pool::with_threads(4).par_map(&items, |x| x + 1);
        let second = super::report().expect("still enabled");
        assert_eq!(second.pools.len(), 1);

        // enable() resets collected state.
        enable();
        let fresh = super::report().expect("re-enabled");
        assert!(fresh.metrics.is_empty());
        assert!(fresh.stages.is_empty());

        disable();
        assert!(!is_enabled());
        assert!(super::report().is_none());
        assert!(!kooza_exec::profile::enabled());
    }
}

//! Deterministic parallel execution for the KOOZA workspace.
//!
//! Every pipeline stage that fans out over independent units of work —
//! per-server model training, per-model cross-examination, per-trial
//! cluster runs, experiment sweeps — goes through this crate. The contract
//! is **bit-determinism regardless of thread count**:
//!
//! * results are merged in *submission* order, never completion order
//!   (ordered reduction), so `par_map` output is indistinguishable from
//!   `iter().map().collect()`;
//! * task bodies derive any randomness from their task *index* (see
//!   `Rng64::for_stream` in `kooza-sim`), never from shared mutable state
//!   or wall-clock time;
//! * a thread count of 1 takes the exact serial code path — no pool, no
//!   chunking, no atomics.
//!
//! The pool is std-only (no external crates) so the workspace stays
//! hermetic. Parallel calls run on a lazily-created **persistent worker
//! pool**: workers are spawned once, park on a condvar between calls, and
//! are handed chunked work per call — no per-call thread spawning. The
//! submitting thread participates as worker slot 0 and blocks until every
//! worker has finished the call, which is what makes handing workers a
//! borrowed closure sound (see `Job`). Determinism is unaffected: chunk
//! *identity* still decides merge order and task bodies still derive
//! randomness from their index, so which thread runs a chunk is
//! unobservable.
//!
//! # Thread-count resolution
//!
//! Highest precedence first:
//!
//! 1. a process-wide override set with [`set_thread_override`] (the CLI's
//!    `--threads N` flag lands here);
//! 2. the `KOOZA_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! ```
//! let doubled = kooza_exec::par_map(&[1u64, 2, 3, 4], |x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod profile;

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// Nesting depth of `par_map` task bodies executing on this thread.
    static PAR_MAP_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Whether the current thread is inside a `par_map` task body.
///
/// Task bodies run on worker threads when the pool is parallel but on the
/// *calling* thread when it takes the serial path, so "am I on the main
/// thread" is thread-count-dependent. Observability uses this to keep its
/// stage-span tree identical at any thread count: spans are suppressed
/// inside task bodies everywhere, not just on workers.
pub fn in_par_map_tasks() -> bool {
    PAR_MAP_DEPTH.with(|d| d.get() > 0)
}

/// RAII increment of [`PAR_MAP_DEPTH`] around task-body execution.
struct TaskScope;

impl TaskScope {
    fn enter() -> Self {
        PAR_MAP_DEPTH.with(|d| d.set(d.get() + 1));
        TaskScope
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        PAR_MAP_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Process-wide thread override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted when no override is set.
pub const THREADS_ENV: &str = "KOOZA_THREADS";

/// Sets a process-wide thread-count override (use `None` to clear).
///
/// Takes precedence over `KOOZA_THREADS` and the detected parallelism.
/// A `Some(0)` is treated as `Some(1)`: the serial path.
pub fn set_thread_override(threads: Option<usize>) {
    let value = match threads {
        None => 0,
        Some(n) => n.max(1),
    };
    THREAD_OVERRIDE.store(value, Ordering::SeqCst);
}

/// The current process-wide override, if any.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => None,
        n => Some(n),
    }
}

/// Resolves the effective thread count: override, then `KOOZA_THREADS`,
/// then detected parallelism (1 if detection fails). Always ≥ 1.
pub fn resolved_threads() -> usize {
    if let Some(n) = thread_override() {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A type-erased pointer to one call's chunk-runner closure.
///
/// The closure lives on the submitting thread's stack. Handing it to
/// persistent workers is sound because [`Hub::scope_run`] publishes the
/// job, runs slot 0 itself, and then **blocks until every participating
/// worker has decremented the active count** — the pointee outlives every
/// dereference. `call` is a monomorphized shim so no trait-object lifetime
/// needs erasing.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is `Sync` (enforced by the `F: Fn(usize) + Sync`
// bound in `scope_run`) and outlives all use, per the contract above.
unsafe impl Send for Job {}

unsafe fn call_job<F: Fn(usize) + Sync>(data: *const (), slot: usize) {
    // SAFETY: `data` was created from `&F` in `scope_run` and is still
    // borrowed there while any worker can reach this call.
    unsafe { (*data.cast::<F>())(slot) }
}

struct HubState {
    /// Bumped once per job; workers use it to claim each job exactly once.
    generation: u64,
    job: Option<Job>,
    /// How many pool workers (indices `0..target`) the current job wants.
    target: usize,
    /// Participating workers that have not yet finished the current job.
    active: usize,
    /// Worker threads spawned so far (they live for the process).
    spawned: usize,
}

/// The process-wide persistent worker set behind every parallel `par_map`.
struct Hub {
    /// Serializes whole calls: one job is in flight at a time.
    submit: Mutex<()>,
    state: Mutex<HubState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until `active` drains to zero.
    done_cv: Condvar,
}

static HUB: OnceLock<Hub> = OnceLock::new();

fn hub() -> &'static Hub {
    HUB.get_or_init(|| Hub {
        submit: Mutex::new(()),
        state: Mutex::new(HubState {
            generation: 0,
            job: None,
            target: 0,
            active: 0,
            spawned: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

impl Hub {
    /// Runs `task(slot)` once per slot in `0..=n_pool`: slot 0 on the
    /// calling thread, slots `1..=n_pool` on persistent workers (spawned
    /// lazily). Returns after every slot has finished.
    fn scope_run<F: Fn(usize) + Sync>(&'static self, n_pool: usize, task: &F) {
        let _turn = self.submit.lock().expect("pool submit mutex poisoned");
        {
            let mut s = self.state.lock().expect("pool state mutex poisoned");
            while s.spawned < n_pool {
                let index = s.spawned;
                std::thread::Builder::new()
                    .name(format!("kooza-pool-{index}"))
                    .spawn(move || self.worker_loop(index))
                    .expect("failed to spawn pool worker");
                s.spawned += 1;
            }
            s.generation += 1;
            s.job = Some(Job {
                data: (task as *const F).cast(),
                call: call_job::<F>,
            });
            s.target = n_pool;
            s.active = n_pool;
            self.work_cv.notify_all();
        }
        task(0);
        let mut s = self.state.lock().expect("pool state mutex poisoned");
        while s.active > 0 {
            s = self.done_cv.wait(s).expect("pool state mutex poisoned");
        }
        s.job = None;
    }

    fn worker_loop(&'static self, index: usize) {
        let mut last_generation = 0u64;
        loop {
            let job;
            {
                let mut s = self.state.lock().expect("pool state mutex poisoned");
                loop {
                    if s.generation != last_generation && index < s.target {
                        last_generation = s.generation;
                        job = s.job.expect("published job present until active drains");
                        break;
                    }
                    s = self.work_cv.wait(s).expect("pool state mutex poisoned");
                }
            }
            // SAFETY: see `Job` — the submitter blocks until we decrement
            // `active` below, so the closure is still alive here.
            unsafe { (job.call)(job.data, index + 1) };
            let mut s = self.state.lock().expect("pool state mutex poisoned");
            s.active -= 1;
            if s.active == 0 {
                self.done_cv.notify_all();
            }
        }
    }
}

/// A thread-pool handle with a fixed thread count.
///
/// Parallel calls borrow the process-wide persistent worker set (spawned
/// lazily, parked between calls) and merge results in submission order.
/// The handle itself is just a thread count: construction is free and no
/// per-handle state can poison determinism between calls.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// A pool with the [`resolved_threads`] count.
    pub fn new() -> Self {
        Pool { threads: resolved_threads() }
    }

    /// A pool with an explicit thread count (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// The number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in item order.
    ///
    /// With 1 thread (or ≤ 1 item) this is exactly
    /// `items.iter().map(f).collect()` — same code path, same order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// Like [`Pool::par_map`], but `f` also receives the item index —
    /// the hook for per-task RNG streams (`Rng64::for_stream(seed, i)`).
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let profiling = profile::enabled();
        // Nested calls (a task body calling par_map) run serially inline:
        // the outer call holds the hub, and serial execution is
        // bit-identical anyway.
        if self.threads <= 1 || n <= 1 || in_par_map_tasks() {
            // The exact serial path: no pool, no chunking, no atomics.
            let started = profiling.then(Instant::now);
            let out: Vec<R> = {
                let _tasks = TaskScope::enter();
                items.iter().enumerate().map(|(i, item)| f(i, item)).collect()
            };
            if let Some(t0) = started {
                let wall_nanos = t0.elapsed().as_nanos() as u64;
                profile::record(profile::PoolProfile {
                    threads: 1,
                    items: n as u64,
                    wall_nanos,
                    busy_nanos: wall_nanos,
                });
            }
            return out;
        }
        let workers = self.threads.min(n);
        // More chunks than workers so an unlucky slow chunk cannot leave
        // the rest of the pool idle; chunk identity (not completion time)
        // decides merge order.
        let n_chunks = n.min(workers * 4);
        let chunk_size = n.div_ceil(n_chunks);
        let started = profiling.then(Instant::now);
        let next_chunk = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(n_chunks));
        let busy_nanos = AtomicU64::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let task = |_slot: usize| {
            let _tasks = TaskScope::enter();
            let claiming = profiling.then(Instant::now);
            // Catch task-body panics so a persistent worker survives them;
            // the submitter resumes the unwind on its own thread below.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                loop {
                    let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if chunk >= n_chunks {
                        break;
                    }
                    // Trailing chunks can fall entirely past the end
                    // when chunk_size * n_chunks > n; clamp to empty.
                    let lo = (chunk * chunk_size).min(n);
                    let hi = ((chunk + 1) * chunk_size).min(n);
                    let results: Vec<R> = (lo..hi).map(|i| f(i, &items[i])).collect();
                    done.lock().expect("worker panicked holding results").push((chunk, results));
                }
            }));
            if let Err(payload) = outcome {
                let mut slot = panicked.lock().expect("pool panic slot poisoned");
                slot.get_or_insert(payload);
            }
            if let Some(t0) = claiming {
                busy_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        };
        // Slot 0 is this thread; slots 1..workers are persistent workers.
        hub().scope_run(workers - 1, &task);
        if let Some(payload) = panicked.into_inner().expect("pool panic slot poisoned") {
            resume_unwind(payload);
        }
        if let Some(t0) = started {
            profile::record(profile::PoolProfile {
                threads: self.threads,
                items: n as u64,
                wall_nanos: t0.elapsed().as_nanos() as u64,
                busy_nanos: busy_nanos.into_inner(),
            });
        }
        // Ordered reduction: merge by chunk id = submission order.
        let mut chunks = done.into_inner().expect("worker panicked holding results");
        chunks.sort_unstable_by_key(|(chunk, _)| *chunk);
        debug_assert_eq!(chunks.len(), n_chunks);
        chunks.into_iter().flat_map(|(_, results)| results).collect()
    }

    /// Runs `f(index, &mut items[index])` for every item, in place, using
    /// the persistent worker pool. The window-barrier primitive behind
    /// sharded simulation: each shard is stepped exactly once per call,
    /// items are disjoint, and no results are merged — so, unlike
    /// [`Pool::par_map`], there is no reduction whose order could matter
    /// and no per-call profile is recorded (a sharded run makes thousands
    /// of these calls, one per window).
    ///
    /// With 1 thread (or ≤ 1 item, or when nested inside a `par_map` task
    /// body) this is exactly `for (i, item) in items.iter_mut().enumerate()
    /// { f(i, item) }` — the serial path, bit-identical by construction.
    /// Item bodies must keep the usual discipline: derive randomness from
    /// the item index, never from shared mutable state.
    pub fn par_for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 || in_par_map_tasks() {
            let _tasks = TaskScope::enter();
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        /// The base pointer of the slice, smuggled into the `Sync` closure.
        struct BasePtr<T>(*mut T);
        impl<T> BasePtr<T> {
            // Accessor (rather than a public field) so closures capture the
            // whole `Sync` wrapper, not the bare `*mut T` — Rust 2021's
            // disjoint capture would otherwise grab the non-`Sync` pointer.
            fn get(&self) -> *mut T {
                self.0
            }
        }
        // SAFETY: workers only ever form `&mut` references to *distinct*
        // indices (each index is claimed exactly once via `next`), and the
        // submitter blocks until all workers finish, so the borrow of
        // `items` outlives every access.
        unsafe impl<T: Send> Sync for BasePtr<T> {}
        let base = BasePtr(items.as_mut_ptr());
        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let task = |_slot: usize| {
            let _tasks = TaskScope::enter();
            let outcome = catch_unwind(AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i` was claimed exactly once (fetch_add), so this
                // is the only `&mut` to `items[i]`; see `BasePtr`.
                let item = unsafe { &mut *base.get().add(i) };
                f(i, item);
            }));
            if let Err(payload) = outcome {
                let mut slot = panicked.lock().expect("pool panic slot poisoned");
                slot.get_or_insert(payload);
            }
        };
        hub().scope_run(workers - 1, &task);
        if let Some(payload) = panicked.into_inner().expect("pool panic slot poisoned") {
            resume_unwind(payload);
        }
    }
}

/// [`Pool::par_map`] on a pool with the resolved thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Pool::new().par_map(items, f)
}

/// [`Pool::par_map_indexed`] on a pool with the resolved thread count.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    Pool::new().par_map_indexed(items, f)
}

/// [`Pool::par_for_each_mut`] on a pool with the resolved thread count.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    Pool::new().par_for_each_mut(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_submission_order_at_any_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 32] {
            let got = Pool::with_threads(threads).par_map(&items, |x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn indexed_map_sees_correct_indices() {
        let items = vec!["a"; 100];
        for threads in [1, 4] {
            let got = Pool::with_threads(threads).par_map_indexed(&items, |i, s| format!("{s}{i}"));
            for (i, s) in got.iter().enumerate() {
                assert_eq!(s, &format!("a{i}"));
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(Pool::with_threads(8).par_map(&empty, |x| x + 1).is_empty());
        assert_eq!(Pool::with_threads(8).par_map(&[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_chunks_cover_every_item() {
        // Sizes that do not divide evenly by workers * 4.
        for n in [2usize, 5, 17, 63, 64, 65, 1001] {
            let items: Vec<usize> = (0..n).collect();
            let got = Pool::with_threads(3).par_map(&items, |x| *x);
            assert_eq!(got, items, "n={n}");
        }
    }

    #[test]
    fn serial_pool_reports_one_thread() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(1).threads(), 1);
        assert_eq!(Pool::with_threads(7).threads(), 7);
    }

    #[test]
    fn override_beats_environment() {
        // The override is process-global; restore it before returning so
        // other tests in this binary see a clean slate.
        set_thread_override(Some(3));
        assert_eq!(thread_override(), Some(3));
        assert_eq!(resolved_threads(), 3);
        set_thread_override(None);
        assert_eq!(thread_override(), None);
        assert!(resolved_threads() >= 1);
    }

    #[test]
    fn borrowed_inputs_work() {
        // Closures may borrow from the caller's stack: the submitter blocks
        // until the persistent workers are done with the borrow.
        let base = [10u64, 20, 30];
        let offsets: Vec<u64> = (0..50).collect();
        let got = Pool::with_threads(4).par_map(&offsets, |o| base[(*o % 3) as usize] + o);
        assert_eq!(got.len(), 50);
        assert_eq!(got[0], 10);
        assert_eq!(got[4], 24);
    }

    #[test]
    fn pool_reuse_is_stable_across_many_calls() {
        // The persistent workers are handed hundreds of distinct jobs with
        // varying shapes; every call must stay correct and ordered.
        let pool = Pool::with_threads(4);
        for round in 0..200u64 {
            let n = 1 + (round as usize * 7) % 40;
            let items: Vec<u64> = (0..n as u64).collect();
            let got = pool.par_map(&items, |x| x * 3 + round);
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + round).collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    fn task_panics_propagate_and_pool_survives() {
        let items: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(4).par_map(&items, |x| {
                assert!(*x != 13, "boom at 13");
                *x
            })
        });
        assert!(result.is_err(), "panic should propagate to the caller");
        // The workers survived the panic and keep serving jobs.
        let got = Pool::with_threads(4).par_map(&items, |x| x + 1);
        assert_eq!(got, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_callers_are_serialized_safely() {
        // Multiple threads submitting at once take turns on the hub; each
        // still gets its own correctly ordered result.
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    let items: Vec<u64> = (0..301).collect();
                    let got = Pool::with_threads(3).par_map(&items, |x| x * 2 + t);
                    let expect: Vec<u64> = items.iter().map(|x| x * 2 + t).collect();
                    assert_eq!(got, expect, "caller {t}");
                });
            }
        });
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        for threads in [1usize, 2, 4, 8] {
            let mut items: Vec<u64> = (0..257).collect();
            Pool::with_threads(threads).par_for_each_mut(&mut items, |i, x| {
                assert_eq!(*x, i as u64);
                *x = *x * 3 + 1;
            });
            let expect: Vec<u64> = (0..257).map(|x| x * 3 + 1).collect();
            assert_eq!(items, expect, "threads={threads}");
        }
    }

    #[test]
    fn for_each_mut_handles_empty_and_singleton() {
        let mut empty: Vec<u32> = Vec::new();
        Pool::with_threads(4).par_for_each_mut(&mut empty, |_, _| {});
        let mut one = vec![41u32];
        Pool::with_threads(4).par_for_each_mut(&mut one, |_, x| *x += 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn for_each_mut_repeated_calls_share_the_pool() {
        // The window-barrier usage pattern: many small calls in a row.
        let mut shards: Vec<u64> = vec![0; 5];
        for _round in 0..500 {
            Pool::with_threads(4).par_for_each_mut(&mut shards, |_, s| *s += 1);
        }
        assert_eq!(shards, vec![500; 5]);
    }

    #[test]
    fn for_each_mut_panics_propagate_and_pool_survives() {
        let mut items: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::with_threads(4).par_for_each_mut(&mut items, |_, x| {
                assert!(*x != 13, "boom at 13");
            });
        }));
        assert!(result.is_err(), "panic should propagate to the caller");
        let mut again: Vec<u64> = (0..64).collect();
        Pool::with_threads(4).par_for_each_mut(&mut again, |_, x| *x += 1);
        assert_eq!(again, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn for_each_mut_suppresses_stage_spans_like_par_map() {
        let mut items = vec![0u8; 8];
        Pool::with_threads(4).par_for_each_mut(&mut items, |_, _| {
            assert!(in_par_map_tasks());
        });
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        // A task body calling par_map again must not deadlock on the hub;
        // it runs serially inline and produces identical results.
        let outer: Vec<u64> = (0..8).collect();
        let got = Pool::with_threads(4).par_map(&outer, |o| {
            let inner: Vec<u64> = (0..5).collect();
            assert!(in_par_map_tasks());
            Pool::with_threads(4).par_map(&inner, |i| i + o).iter().sum::<u64>()
        });
        let expect: Vec<u64> = outer.iter().map(|o| (0..5u64).map(|i| i + o).sum()).collect();
        assert_eq!(got, expect);
    }
}

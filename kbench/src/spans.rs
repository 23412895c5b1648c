//! Benchmark-side spans around calls into the library crates.
//!
//! Every layer call the benchmark makes goes through [`timed`], which
//! returns the call's wall time. When recording is on (the traced run),
//! it also keeps a span — name, start, end, parent — in memory; the spans
//! are written out when the benchmark ends. Nothing inside the crates is
//! instrumented: these spans see each layer from outside.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
}

struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for the calling thread.
pub fn record(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Runs `f`, returning its result and wall time in seconds; records a
/// span named `name` when recording is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let index = r.spans.len();
        r.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(index);
        Some(index)
    });
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[index].end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    (out, secs)
}

/// Takes every span recorded so far.
pub fn take() -> Vec<SpanRecord> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time (duration minus the children's durations) of every span, in
/// seconds, summed per name within each top-level span whose name is in
/// `roots`. Each name maps to one sum per top-level span it occurs in.
pub fn self_seconds_per_root(
    spans: &[SpanRecord],
    roots: &[&str],
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(s.end_ns - s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= i128::from(s.end_ns - s.start_ns);
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    // root index -> name -> seconds
    let mut per_root: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = root_of(i);
        if roots.contains(&spans[root].name) {
            *per_root.entry(root).or_default().entry(s.name).or_default() +=
                self_ns[i] as f64 / 1e9;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for names in per_root.values() {
        for (name, secs) in names {
            out.entry(name).or_default().push(*secs);
        }
    }
    out
}

//! The measured loop shared by every workload.
//!
//! A workload is a list of clusters to simulate and the model inputs
//! built from their traces. After set-up, the loop alternates two
//! phases until `--seconds` have passed, keeping each phase's share of
//! the time: a *simulation phase* (`Cluster::run`/`run_sharded` plus the
//! KTC write, for every cluster) and a *model step* (`fit_s`, Table 2
//! and Table 1 on the KTC bytes). Interleaving them lets both see the
//! same stretch of host time. Every phase is checked; every simulation
//! phase after the first must produce the same bytes and exact counts
//! as the first, and every model step the same tables.

use std::collections::BTreeMap;
use std::time::Instant;

use kooza_gfs::Cluster;
use kooza_obs::MetricsSnapshot;
use kooza_trace::TraceSet;

use crate::model::{self, Class, ModelInputs, ModelRun};
use crate::sim::{self, SimRun, SimSpec};
use crate::spans::timed;

/// Set-up is repeated at least `SETUP_REPEATS` times and until
/// `SETUP_SECONDS` have been spent on it, at most `MAX_SETUP_REPEATS`
/// times; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUP_REPEATS: usize = 100;
/// Each phase runs at least this often, even past `--seconds`.
const MIN_PHASES: usize = 3;

/// Exact values that must repeat across runs of one seed.
pub type Counts = BTreeMap<&'static str, f64>;

/// What a workload simulates and models.
pub struct Workload {
    pub specs: Vec<(&'static str, SimSpec)>,
    /// Share of the loop's time spent in simulation phases.
    pub sim_share: f64,
    /// `Some` for the model pipeline: the class `fit_s` and Table 1 use,
    /// and the Table-2 classes, as indices into `specs`, checked against
    /// the paper. `None` gives the first cluster's trace both roles.
    pub paper: Option<(usize, &'static [usize])>,
}

/// Operations attempted and failed. Every set-up, simulation phase and
/// model step is one operation; it fails if it errors or any check on its
/// output fails.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ledger {
    fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Simulated requests per host second of each plain simulation phase.
    pub sim_req_per_s: Vec<f64>,
    pub models: Vec<ModelRun>,
    /// Wall time of each phase of the workload's larger share, with the
    /// obs sink off and on (traced run).
    pub main_phase_s: Vec<f64>,
    pub main_phase_obs_s: Vec<f64>,
    /// CPU seconds per simulation phase, user and system.
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Exact counts of the first simulation phase and first model step,
    /// with the kooza-obs counters of the first obs-on ones (traced run).
    pub counts: Counts,
}

/// kooza-obs counters the traced run reads, under their per-layer names.
const OBS_COUNTERS: [(&str, &str); 8] = [
    ("net.fabric.flows", "net.fabric.flows"),
    ("net.fabric.rerates", "net.fabric.rerates"),
    ("sim.shard.windows", "sim.shard.windows"),
    ("sim.shard.messages", "sim.shard.messages"),
    ("trace.ktc.write_blocks", "trace.ktc.write_blocks"),
    ("trace.ktc.read_bytes", "trace.ktc.read_bytes"),
    ("replay.requests", "core.replay.requests"),
    ("replay.events", "core.replay.events"),
];

fn obs_counts(snapshot: &MetricsSnapshot) -> Counts {
    OBS_COUNTERS
        .iter()
        .filter_map(|(obs, name)| snapshot.counter(obs).map(|v| (*name, v as f64)))
        .collect()
}

/// Runs `f` with the kooza-obs sink on when `on`; returns the counters
/// it recorded.
fn with_obs<R>(on: bool, f: impl FnOnce() -> R) -> (R, Option<Counts>) {
    if !on {
        return (f(), None);
    }
    kooza_obs::global::enable();
    let out = f();
    let report = kooza_obs::global::report();
    kooza_obs::global::disable();
    (out, report.map(|r| obs_counts(&r.metrics)))
}

/// Errors unless `now` equals the counts first seen.
fn same_as_first(first: &mut Option<Counts>, now: Counts) -> Result<(), String> {
    match first {
        None => {
            *first = Some(now);
            Ok(())
        }
        Some(f) if *f == now => Ok(()),
        Some(f) => {
            let diff: Vec<String> = f
                .iter()
                .filter(|(k, v)| now.get(*k) != Some(v))
                .map(|(k, v)| format!("{k} {v} -> {:?}", now.get(k)))
                .collect();
            Err(format!(
                "exact counts changed between runs of one seed: {}",
                diff.join(", ")
            ))
        }
    }
}

/// Process CPU time so far, (user, system) seconds, from /proc.
fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // After the `(comm)` field, utime and stime are the 12th and 13th
    // fields, in USER_HZ (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |i: usize| {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) / 100.0, field(12) / 100.0)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolated between the two nearest
/// ranks; NaN when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = q * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Exact outputs of a model step: the parameter count and the accuracy
/// figures, plus a sum over every number of both tables so that any
/// changed row shows.
pub fn model_counts(run: &ModelRun) -> Counts {
    let row = run.kooza_row();
    let all: f64 = run
        .table2
        .iter()
        .flat_map(|r| {
            r.rows
                .iter()
                .map(|row| row.original + row.synthetic + row.variation)
        })
        .chain(
            run.table1
                .rows
                .iter()
                .map(|r| r.feature_error + r.latency_ks),
        )
        .sum();
    Counts::from([
        ("core.parameters", run.parameters as f64),
        ("table2_latency_err_pct", run.table2_latency_pct()),
        ("table2_feature_err_pct", run.table2_feature_pct()),
        ("table1_kooza_feature_err_pct", row.feature_error * 100.0),
        ("table1_kooza_latency_ks", row.latency_ks),
        ("tables.checksum", all),
    ])
}

/// The simulation side of the loop: the clusters, and what the first
/// simulation phase produced.
struct Simulator<'a> {
    specs: &'a [(&'static str, SimSpec)],
    clusters: Vec<Cluster>,
    seed: u64,
    first_ktc: Option<Vec<Vec<u8>>>,
    first_counts: Option<Counts>,
    first_obs: Option<Counts>,
}

impl Simulator<'_> {
    /// Simulates every cluster once.
    fn simulate(&mut self, obs_on: bool) -> (Result<Vec<SimRun>, String>, Option<Counts>) {
        with_obs(obs_on, || {
            self.specs
                .iter()
                .zip(&mut self.clusters)
                .map(|((_, spec), cluster)| sim::simulate(cluster, spec, self.seed))
                .collect()
        })
    }

    /// Checks a simulation phase: each request resolves once; the first
    /// phase's KTC bytes decode to the streams written; later phases
    /// repeat the first's bytes and counts.
    fn check(&mut self, runs: &[SimRun], obs: Option<Counts>) -> Result<(), String> {
        for ((_, spec), run) in self.specs.iter().zip(runs) {
            sim::check_requests(run, spec)?;
        }
        let ktc: Vec<Vec<u8>> = runs.iter().map(|r| r.ktc.clone()).collect();
        match &self.first_ktc {
            None => {
                for run in runs {
                    let decoded =
                        TraceSet::read_ktc(&run.ktc[..]).map_err(|e| format!("read_ktc: {e}"))?;
                    sim::check_decoded(&run.outcome.trace, &decoded)?;
                }
                self.first_ktc = Some(ktc);
            }
            Some(first) if *first != ktc => {
                return Err("KTC bytes changed between runs of one seed".into());
            }
            Some(_) => {}
        }
        same_as_first(
            &mut self.first_counts,
            sim::counts(&runs.iter().collect::<Vec<_>>()),
        )?;
        if let Some(obs) = obs {
            same_as_first(&mut self.first_obs, obs)?;
        }
        Ok(())
    }

    /// One checked simulation phase.
    fn phase(&mut self, root: &'static str, obs_on: bool) -> (Result<Vec<SimRun>, String>, f64) {
        let ((runs, obs), secs) = timed(root, || self.simulate(obs_on));
        let checked = runs.and_then(|runs| self.check(&runs, obs).map(|()| runs));
        (checked, secs)
    }
}

/// The model side of the loop.
#[derive(Default)]
struct Modeller {
    first_counts: Option<Counts>,
    first_obs: Option<Counts>,
}

impl Modeller {
    /// One checked model step: the first is checked against the in-memory
    /// traces (and the paper, where asked), later ones against the first.
    fn phase(
        &mut self,
        inputs: &ModelInputs,
        seed: u64,
        root: &'static str,
        obs_on: bool,
    ) -> (Result<ModelRun, String>, f64) {
        let ((run, obs), secs) = timed(root, || with_obs(obs_on, || model::step(inputs, seed)));
        let checked = run.and_then(|run| {
            if self.first_counts.is_none() {
                timed("check", || model::check(inputs, &run, seed)).0?;
            }
            same_as_first(&mut self.first_counts, model_counts(&run))?;
            if let Some(obs) = obs {
                same_as_first(&mut self.first_obs, obs)?;
            }
            Ok(run)
        });
        (checked, secs)
    }
}

fn classes(specs: &[(&'static str, SimSpec)], runs: Vec<SimRun>) -> Vec<Class> {
    specs
        .iter()
        .zip(runs)
        .map(|((label, spec), run)| Class {
            label,
            config: spec.config.clone(),
            trace: run.outcome.trace,
            ktc: run.ktc,
        })
        .collect()
}

/// Sets the workload up, then runs the loop for `seconds`. In a traced
/// run every other phase of each kind has the kooza-obs sink on.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    ledger: &mut Ledger,
) -> Measured {
    let mut m = Measured::default();
    let specs = &workload.specs;

    // Set-up: build the clusters, simulate each once (which also warms
    // the caches the loop uses) and encode the traces the model steps read.
    let mut prepared: Option<(Simulator, ModelInputs)> = None;
    let setup_start = Instant::now();
    for repeat in 0..MAX_SETUP_REPEATS {
        if repeat >= SETUP_REPEATS && setup_start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            break;
        }
        let mut setup_s = 0.0;
        let built = (|| -> Result<_, String> {
            let (clusters, secs) = timed("setup", || {
                specs
                    .iter()
                    .map(|(_, spec)| sim::build(spec))
                    .collect::<Result<Vec<_>, String>>()
            });
            setup_s += secs;
            let mut s = Simulator {
                specs,
                clusters: clusters?,
                seed,
                first_ktc: None,
                first_counts: None,
                first_obs: None,
            };
            let (runs, secs) = s.phase("setup", false);
            setup_s += secs;
            let inputs = match &workload.paper {
                Some((mixed, table2)) => ModelInputs {
                    classes: classes(specs, runs?),
                    mixed: *mixed,
                    table2: table2.to_vec(),
                    paper_checks: true,
                },
                // The first cluster's trace is the one the model steps use.
                None => ModelInputs {
                    classes: classes(&specs[..1], runs?),
                    mixed: 0,
                    table2: vec![0],
                    paper_checks: false,
                },
            };
            Ok((s, inputs))
        })();
        if let Some(built) = ledger.op("setup", built) {
            m.setup_s.push(setup_s);
            prepared = Some(built);
        }
    }
    let Some((mut sim, inputs)) = prepared else {
        return m;
    };

    let mut modeller = Modeller::default();
    let sim_is_main = workload.sim_share >= 0.5;
    let (mut sim_s, mut model_s) = (0.0, 0.0);
    let (mut sim_n, mut model_n) = (0, 0);
    let (mut cpu_user, mut cpu_sys) = (0.0, 0.0);
    let start = Instant::now();
    while sim_n < MIN_PHASES
        || model_n < MIN_PHASES
        || start.elapsed().as_secs_f64() < seconds as f64
    {
        let simulate = sim_s <= workload.sim_share * (sim_s + model_s);
        if simulate {
            let obs_on = traced && sim_n % 2 == 0;
            let (user0, sys0) = cpu_seconds();
            let (runs, secs) = sim.phase(if obs_on { "sim+obs" } else { "sim" }, obs_on);
            let (user1, sys1) = cpu_seconds();
            cpu_user += user1 - user0;
            cpu_sys += sys1 - sys0;
            sim_s += secs;
            sim_n += 1;
            if sim_is_main {
                (if obs_on {
                    &mut m.main_phase_obs_s
                } else {
                    &mut m.main_phase_s
                })
                .push(secs);
            }
            let Some(runs) = ledger.op("simulation", runs) else {
                continue;
            };
            if !obs_on {
                let requests: u64 = specs.iter().map(|(_, s)| s.requests).sum();
                let busy: f64 = runs.iter().map(|r| r.run_s + r.write_s).sum();
                m.sim_req_per_s.push(requests as f64 / busy);
            }
        } else {
            let obs_on = traced && model_n % 2 == 0;
            let root = if obs_on { "model+obs" } else { "model" };
            let (run, secs) = modeller.phase(&inputs, seed, root, obs_on);
            model_s += secs;
            model_n += 1;
            if !sim_is_main {
                (if obs_on {
                    &mut m.main_phase_obs_s
                } else {
                    &mut m.main_phase_s
                })
                .push(secs);
            }
            if let Some(run) = ledger.op("model step", run) {
                m.models.push(run);
            }
        }
        if ledger.failed > 0 && start.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    m.cpu_user_s = cpu_user / sim_n as f64;
    m.cpu_sys_s = cpu_sys / sim_n as f64;
    // A phase that did not run a layer reads its obs counters as zero;
    // that must not overwrite the phase that did.
    for counts in [
        sim.first_counts,
        modeller.first_counts,
        sim.first_obs,
        modeller.first_obs,
    ] {
        for (k, v) in counts.unwrap_or_default() {
            if v != 0.0 || !m.counts.contains_key(k) {
                m.counts.insert(k, v);
            }
        }
    }
    m
}

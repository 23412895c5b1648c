//! The modelling side of the benchmark: the equivalent of `kooza fit`,
//! `kooza validate` (Table 2) and `kooza crossexam` (Table 1) on KTC
//! bytes, with the checks against the in-memory trace and the paper.

use kooza::class::assemble_observations;
use kooza::crossexam::{cross_examine, CrossExamTable};
use kooza::validate::{validate, ValidationReport};
use kooza::{InBreadthModel, InDepthModel, Kooza, ReplayConfig, WorkloadModel};
use kooza_gfs::{ClusterConfig, WorkloadMix};
use kooza_sim::rng::Rng64;
use kooza_trace::TraceSet;

use crate::sim::SimSpec;
use crate::spans::timed;

/// The paper's Table-2 bounds: feature variation, and the worse of the
/// two classes' latency variations (3.7% and 6.6%), in percent.
const PAPER_FEATURE_PCT: f64 = 1.0;
const PAPER_LATENCY_PCT: f64 = 6.6;

/// Requests simulated for each of the model pipeline's traces: eight
/// times what the `table1_cross_examination` and `table2_validation`
/// experiments use.
const READ_REQUESTS: u64 = 16_000;
const WRITE_REQUESTS: u64 = 6_400;
const MIXED_REQUESTS: u64 = 16_000;

/// A trace the models train on, in memory and as KTC bytes.
pub struct Class {
    pub label: &'static str,
    pub config: ClusterConfig,
    pub trace: TraceSet,
    pub ktc: Vec<u8>,
}

/// What one model step works on.
pub struct ModelInputs {
    pub classes: Vec<Class>,
    /// The class `fit_s` and Table 1 use.
    pub mixed: usize,
    /// The classes Table 2 validates.
    pub table2: Vec<usize>,
    /// Whether to hold KOOZA to the paper's Table-1 checks and Table-2
    /// bounds (only the paper's own single-server traces are).
    pub paper_checks: bool,
}

/// Roles of [`paper_specs`]: the mixed trace (`fit_s`, Table 1) and the
/// Table-2 classes.
pub const PAPER_ROLES: (usize, &[usize]) = (2, &[0, 1]);

/// The paper's traces, scaled up: the two Table-2 request classes (64 KB
/// reads over a cold working set, 4 MB writes) and the Table-1 mixed
/// cluster, each on one chunkserver.
pub fn paper_specs() -> Vec<(&'static str, SimSpec)> {
    let single = |workload: WorkloadMix, requests: u64| {
        let mut config = ClusterConfig::small();
        config.workload = workload;
        SimSpec {
            config,
            requests,
            shards: 1,
            sub_run: 0,
            sub_runs: 1,
        }
    };
    vec![
        (
            "read_64k",
            single(
                WorkloadMix {
                    n_chunks: 100_000,
                    zipf_skew: 0.5,
                    ..WorkloadMix::read_heavy()
                },
                READ_REQUESTS,
            ),
        ),
        (
            "write_4m",
            single(WorkloadMix::write_heavy(), WRITE_REQUESTS),
        ),
        (
            "mixed",
            single(
                WorkloadMix {
                    n_chunks: 120,
                    ..WorkloadMix::mixed()
                },
                MIXED_REQUESTS,
            ),
        ),
    ]
}

/// The output of one model step.
pub struct ModelRun {
    pub fit_s: f64,
    pub table2_s: f64,
    pub table1_s: f64,
    /// KOOZA's parameter count on the mixed trace.
    pub parameters: usize,
    pub table2: Vec<ValidationReport>,
    pub table1: CrossExamTable,
}

impl ModelRun {
    /// The worse Table-2 latency variation over the classes, percent.
    pub fn table2_latency_pct(&self) -> f64 {
        self.table2
            .iter()
            .map(|r| r.latency_variation().unwrap_or(f64::NAN))
            .fold(0.0, f64::max)
    }

    /// The worst Table-2 feature variation over the classes, percent.
    pub fn table2_feature_pct(&self) -> f64 {
        self.table2
            .iter()
            .map(ValidationReport::max_feature_variation)
            .fold(0.0, f64::max)
    }

    /// KOOZA's Table-1 row.
    pub fn kooza_row(&self) -> &kooza::crossexam::CrossExamRow {
        self.table1
            .rows
            .iter()
            .find(|r| r.model == "kooza")
            .expect("kooza is cross-examined")
    }
}

fn decode(ktc: &[u8]) -> Result<TraceSet, String> {
    timed("trace.ktc_read", || TraceSet::read_ktc(ktc))
        .0
        .map_err(|e| format!("read_ktc: {e}"))
}

fn fit_kooza(trace: &TraceSet) -> Result<Kooza, String> {
    timed("core.kooza_fit", || Kooza::fit(trace))
        .0
        .map_err(|e| format!("Kooza::fit: {e}"))
}

/// The Table-2 pipeline on one decoded trace: observations, fit,
/// generate as many synthetic requests as were observed, validate.
fn table2_on(
    trace: &TraceSet,
    config: &ClusterConfig,
    seed: u64,
) -> Result<ValidationReport, String> {
    let observations = timed("core.observations", || assemble_observations(trace))
        .0
        .map_err(|e| format!("assemble_observations: {e}"))?;
    let model = fit_kooza(trace)?;
    let synthetic = timed("core.generate", || {
        model.generate(observations.len(), &mut Rng64::new(seed))
    })
    .0;
    Ok(timed("core.validate", || {
        validate(
            &model,
            &observations,
            &synthetic,
            ReplayConfig::from(config),
        )
    })
    .0)
}

/// One model step: `fit_s` (decode the mixed trace, fit KOOZA), the
/// Table-2 pipeline from KTC bytes for every class, and Table 1 (fit all
/// three models on the mixed trace, then cross-examine).
pub fn step(inputs: &ModelInputs, seed: u64) -> Result<ModelRun, String> {
    let mixed = &inputs.classes[inputs.mixed];
    let (fitted, fit_s) = timed("e2e.fit", || -> Result<_, String> {
        let trace = decode(&mixed.ktc)?;
        let kooza = fit_kooza(&trace)?;
        Ok((trace, kooza))
    });
    let (trace, kooza) = fitted?;

    let (table2, table2_s) = timed("e2e.table2", || {
        inputs
            .table2
            .iter()
            .map(|&i| {
                let class = &inputs.classes[i];
                table2_on(&decode(&class.ktc)?, &class.config, seed)
            })
            .collect::<Result<Vec<_>, String>>()
    });

    let (table1, table1_s) = timed("e2e.table1", || -> Result<_, String> {
        let observations = timed("core.observations", || assemble_observations(&trace))
            .0
            .map_err(|e| format!("assemble_observations: {e}"))?;
        let kooza = fit_kooza(&trace)?;
        let inbreadth = timed("core.inbreadth_fit", || InBreadthModel::fit(&trace))
            .0
            .map_err(|e| format!("InBreadthModel::fit: {e}"))?;
        let indepth = timed("core.indepth_fit", || InDepthModel::fit(&trace))
            .0
            .map_err(|e| format!("InDepthModel::fit: {e}"))?;
        Ok(timed("core.crossexam", || {
            cross_examine(
                &[&inbreadth, &indepth, &kooza],
                &observations,
                ReplayConfig::from(&mixed.config),
                observations.len(),
                seed,
            )
        })
        .0)
    });

    Ok(ModelRun {
        fit_s,
        table2_s,
        table1_s,
        parameters: kooza.parameter_count(),
        table2: table2?,
        table1: table1?,
    })
}

/// Checks a model step: models trained from KTC equal models trained
/// from the in-memory traces (parameter count and Table-2 rows), and,
/// where asked, KOOZA meets the paper's Table-1 checks and Table-2
/// bounds.
pub fn check(inputs: &ModelInputs, run: &ModelRun, seed: u64) -> Result<(), String> {
    let mixed = &inputs.classes[inputs.mixed];
    let in_memory = Kooza::fit(&mixed.trace).map_err(|e| format!("Kooza::fit: {e}"))?;
    if in_memory.parameter_count() != run.parameters {
        return Err(format!(
            "KOOZA from KTC has {} parameters, from memory {}",
            run.parameters,
            in_memory.parameter_count()
        ));
    }
    for (&i, report) in inputs.table2.iter().zip(&run.table2) {
        let class = &inputs.classes[i];
        if table2_on(&class.trace, &class.config, seed)? != *report {
            return Err(format!(
                "{}: Table-2 rows from KTC differ from memory",
                class.label
            ));
        }
    }
    if !inputs.paper_checks {
        return Ok(());
    }
    let row = run.kooza_row();
    if !(row.features_check() && row.time_deps_check()) {
        return Err(format!(
            "KOOZA fails a Table-1 check: feature error {:.4}, latency KS {:.4}",
            row.feature_error, row.latency_ks
        ));
    }
    for (&i, report) in inputs.table2.iter().zip(&run.table2) {
        let features = report.max_feature_variation();
        let latency = report.latency_variation().unwrap_or(f64::NAN);
        if !(features <= PAPER_FEATURE_PCT && latency <= PAPER_LATENCY_PCT) {
            return Err(format!(
                "{}: Table-2 feature {features:.2}% / latency {latency:.2}% beyond the \
                 paper's {PAPER_FEATURE_PCT}% / {PAPER_LATENCY_PCT}%",
                inputs.classes[i].label
            ));
        }
    }
    Ok(())
}

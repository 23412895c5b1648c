//! kbench: one benchmark of the KOOZA pipeline, end to end and layer by
//! layer. README.md in this directory describes the workloads, the
//! metrics and which layer should move which metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path kbench/Cargo.toml -- \
//!     --workload sim_ideal --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! work with spans and, on every other phase, the kooza-obs sink on, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; a fuller report (run configuration, exact counts, spans)
//! is written under `kbench/out/`.

mod bench;
mod model;
mod report;
mod sim;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::bench::{Ledger, Workload};
use crate::report::{object, quote};
use crate::sim::SimSpec;

const USAGE: &str =
    "usage: kbench --workload <sim_ideal|sim_fabric_faults|sim_sharded|model_pipeline> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Worker threads for the library's parallel stages, capped by the host.
const THREADS: usize = 2;

/// Share of the loop the `sim_*` workloads spend simulating; the rest
/// runs model steps on their own trace.
const SIM_SHARE: f64 = 0.6;
/// Share of the loop the model pipeline spends re-simulating its traces.
const MODEL_PIPELINE_SIM_SHARE: f64 = 0.2;

const WORKLOADS: [&str; 4] = [
    "sim_ideal",
    "sim_fabric_faults",
    "sim_sharded",
    "model_pipeline",
];

fn workload(name: &'static str) -> Workload {
    let sims = |specs: Vec<SimSpec>| Workload {
        specs: specs.into_iter().map(|spec| (name, spec)).collect(),
        sim_share: SIM_SHARE,
        paper: None,
    };
    match name {
        "sim_ideal" => sims(vec![sim::ideal()]),
        "sim_fabric_faults" => sims(sim::fabric_faults()),
        "sim_sharded" => sims(vec![sim::sharded()]),
        _ => Workload {
            specs: model::paper_specs(),
            sim_share: MODEL_PIPELINE_SIM_SHARE,
            paper: Some(model::PAPER_ROLES),
        },
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(name, value.as_str());
    }
    let get = |k: &str| {
        values
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| **w == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let num = |k: &str| -> Result<u64, String> {
        let v = get(k)?;
        v.parse()
            .map_err(|_| format!("--{k}: `{v}` is not a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// The run configuration recorded with every report.
fn config(args: &Args, threads: usize, nproc: usize, w: &Workload, m: &bench::Measured) -> String {
    let mut fields = vec![
        ("workload", quote(args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("threads", threads.to_string()),
        ("nproc", nproc.to_string()),
        (
            "load",
            quote("one process; open-loop Poisson arrivals in simulated time"),
        ),
        ("sim_share", w.sim_share.to_string()),
        ("setups", m.setup_s.len().to_string()),
        ("sim_phases", (m.sim_req_per_s.len()).to_string()),
        ("model_steps", m.models.len().to_string()),
    ];
    let clusters: Vec<String> = w
        .specs
        .iter()
        .map(|(label, spec)| {
            let c = &spec.config;
            object([
                ("label", quote(label)),
                ("requests", spec.requests.to_string()),
                ("servers", c.n_chunkservers.to_string()),
                ("shards", spec.shards.to_string()),
                ("topology", quote(&format!("{:?}", c.topology))),
                ("mix", quote(&format!("{:?}", c.workload))),
                ("trace_sampling", c.trace_sampling.to_string()),
                ("faults", quote(&format!("{:?}", c.faults))),
            ])
        })
        .collect();
    fields.push(("clusters", format!("[{}]", clusters.join(", "))));
    object(fields)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(nproc);
    kooza_exec::set_thread_override(Some(threads));
    spans::record(args.trace);

    let w = workload(args.workload);
    let mut ledger = Ledger::default();
    let m = bench::run(&w, args.seed, args.seconds, args.trace, &mut ledger);
    let spans = spans::take();
    let metrics = if args.trace {
        report::per_layer(&m, &spans)
    } else {
        report::end_to_end(&m)
    };

    let mut printed = Vec::new();
    for (name, value, unit) in metrics {
        if value.is_finite() {
            printed.push((name, value, unit));
        } else {
            ledger.failed += 1;
            ledger.errors.push(format!("{name} is not a finite number"));
            printed.push((name, 0.0, unit));
        }
    }
    ledger.attempted = ledger.attempted.max(ledger.failed).max(1);
    let correct = ledger.failed == 0 && !m.setup_s.is_empty();
    for e in &ledger.errors {
        eprintln!("kbench: failed: {e}");
    }

    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted,
        ledger.failed,
        report::metrics_json(&printed)
    );
    let config = config(&args, threads, nproc, &w, &m);
    let counts = object(m.counts.iter().map(|(k, v)| (*k, v.to_string())));
    let errors: Vec<String> = ledger.errors.iter().map(|e| quote(e)).collect();
    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
        )
    };
    let samples = object([
        ("setup_s", list(&m.setup_s)),
        ("sim_req_per_s", list(&m.sim_req_per_s)),
        (
            "fit_s",
            list(&m.models.iter().map(|r| r.fit_s).collect::<Vec<_>>()),
        ),
        (
            "table2_s",
            list(&m.models.iter().map(|r| r.table2_s).collect::<Vec<_>>()),
        ),
        (
            "table1_s",
            list(&m.models.iter().map(|r| r.table1_s).collect::<Vec<_>>()),
        ),
    ]);
    let full = object([
        ("config", config.clone()),
        ("samples", samples),
        ("exact_counts", counts.clone()),
        ("errors", format!("[{}]", errors.join(", "))),
        ("result", result.clone()),
    ]);

    let dir =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "kbench".into()))
            .join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), full + "\n"))
        .and_then(|()| match args.trace {
            true => std::fs::write(
                dir.join(format!("{stem}.spans.jsonl")),
                report::spans_jsonl(&spans),
            ),
            false => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "kbench: cannot write the report under {}: {e}",
            dir.display()
        );
    }

    println!("config {config}");
    println!("exact_counts {counts}");
    println!("{result}");
    ExitCode::SUCCESS
}

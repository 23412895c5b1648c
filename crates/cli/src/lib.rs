//! The `kooza` CLI: the end-to-end workflow — simulate → characterize →
//! fit → validate → cross-examine — without writing code.
//!
//! ```text
//! kooza simulate --out trace.jsonl --requests 2000 --workload read
//! kooza characterize --trace trace.jsonl
//! kooza fit --trace trace.jsonl
//! kooza validate --trace trace.jsonl
//! kooza crossexam --trace trace.jsonl
//! ```
//!
//! Every command is a pure function from arguments to a report string, so
//! the whole surface is unit-testable.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::path::Path;

use kooza::class::assemble_observations;
use kooza::crossexam::cross_examine;
use kooza::kooza::KoozaOptions;
use kooza::validate::validate;
use kooza::{fault_drift, InBreadthModel, InDepthModel, Kooza, ReplayConfig, WorkloadModel};
use kooza_gfs::{Cluster, ClusterConfig, FaultSpec, Topology, WorkloadMix};
use kooza_sim::rng::Rng64;
use kooza_trace::characterize::{arrival_profile, cpu_profile, memory_profile, storage_profile};
use kooza_trace::TraceSet;

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage: kooza <command> [options]

commands:
  simulate     --out <path> [--requests N] [--seed S] [--workload read|write|mixed]
               [--servers K] [--faults <spec>]
               [--topology none|rack:<spr>:<oversub>]
               run the GFS simulator and write a trace (JSONL or KTC)
  characterize --trace <path>
               per-subsystem workload profiles of a trace
  fit          --trace <path>
               train the KOOZA model and print its structure
  validate     --trace <path> [--n N] [--seed S]
               train, generate, and compare features/latency (Table 2)
  crossexam    --trace <path> [--n N] [--seed S]
               score kooza vs in-breadth vs in-depth on this trace (Table 1)
  drift        --faults <spec> [--requests N] [--servers K] [--seed S]
               [--workload read|write|mixed]
               simulate a healthy and a fault-injected cluster with the
               same workload, train KOOZA on both traces, and report the
               Table-2 error drift the faults cause
  trace convert --in <path> --out <path>
               convert a trace between JSONL text and KTC binary columnar
  obs          --report <path> [--strip]
               pretty-print an observability report written by --obs
               (--strip instead emits the deterministic JSONL subset:
               meta/pool lines and wall-clock fields removed)
  help         print this message

fault spec (simulate, drift; comma-separated key=value; all keys optional):
  mttf/mttr    mean secs between chunkserver crashes / to recovery
  slow         max disk slowdown factor while degraded
  degraded     secs a recovered disk stays degraded
  drop         per-message link drop probability
  timeout      client retry timeout (secs); backoff: multiplier per retry
  retries      max client retries before a request fails
  batch/detect re-replication batch size / failure-detection delay (secs)
  seed         fault-plan RNG stream (independent of the workload seed)

trace files (simulate, characterize, fit, validate, crossexam, trace convert):
  a .ktc path holds KTC binary columnar, any other path JSONL; a read also
  takes a KTC file under any other name, by its KTC1 magic bytes

network topology (simulate):
  --topology   `none` (the default): every server owns an uncontended
               full-rate link in each direction, exactly as before.
               `rack:<spr>:<oversub>`: a rack/spine fabric with <spr>
               servers per rack and rack uplinks carrying 1/<oversub> of
               their hosts' aggregate bandwidth (1 <= oversub <= spr);
               concurrent transfers share links max-min fairly

global options (accepted by every command; any other option a command
does not list above is an error):
  --threads N  worker threads for the parallel pipeline stages; results
               are bit-identical at any thread count
               (precedence: --threads > KOOZA_THREADS env > detected cores)
  --obs <path> self-instrument the run (metrics, stage spans, pool
               profiles) and write a JSONL report to <path>; inspect it
               with `kooza obs --report <path>`";

/// A CLI failure: bad arguments or a failing pipeline stage.
#[derive(Debug)]
pub struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed `--key value` / `--flag` options.
struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(err(format!("unexpected argument `{arg}`")));
            };
            // `--strip` is the one boolean flag; every other option takes a
            // value, and another option is never one.
            if key == "strip" {
                flags.push(key.to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| err(format!("--{key} needs a value")))?;
                values.insert(key.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(Options { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key).ok_or_else(|| err(format!("missing required option --{key}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| err(format!("--{key}: cannot parse `{v}`"))),
        }
    }

    /// Like [`Options::parse_num`], for a count that must be at least 1.
    fn parse_count(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.parse_num(key, default)? {
            0 => Err(err(format!("--{key} must be at least 1"))),
            n => Ok(n),
        }
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects any key outside `allowed` and the global `--threads` and
    /// `--obs`, naming the first such key in sorted order.
    fn check(&self, command: &str, allowed: &[&str]) -> Result<(), CliError> {
        let mut keys: Vec<&str> =
            self.values.keys().chain(&self.flags).map(String::as_str).collect();
        keys.sort_unstable();
        let known = |k: &&str| allowed.contains(k) || matches!(*k, "threads" | "obs");
        match keys.into_iter().find(|k| !known(k)) {
            Some(key) => Err(err(format!("`kooza {command}` does not take --{key}"))),
            None => Ok(()),
        }
    }
}

/// The options each command reads, beyond the global ones.
fn command_keys(command: &str) -> Result<&'static [&'static str], CliError> {
    Ok(match command {
        "simulate" => &["out", "requests", "seed", "workload", "servers", "faults", "topology"],
        "characterize" | "fit" => &["trace"],
        "validate" | "crossexam" => &["trace", "n", "seed"],
        "drift" => &["faults", "requests", "servers", "workload", "seed"],
        "trace convert" => &["in", "out"],
        "obs" => &["report", "strip"],
        other => return Err(err(format!("unknown command `{other}`"))),
    })
}

/// Runs a CLI invocation; returns the report to print.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, bad options, unreadable
/// traces, or failing pipeline stages.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args.split_first().ok_or_else(|| err("no command given"))?;
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    // `trace` takes a positional subcommand before its options.
    let (command, rest) = if command == "trace" {
        let (sub, rest) = rest
            .split_first()
            .ok_or_else(|| err("trace needs a subcommand (try `kooza trace convert`)"))?;
        (format!("trace {sub}"), rest)
    } else {
        (command.clone(), rest)
    };
    let keys = command_keys(&command)?;
    let opts = Options::parse(rest)?;
    opts.check(&command, keys)?;
    if opts.get("threads").is_some() {
        kooza_exec::set_thread_override(Some(opts.parse_count("threads", 1)?));
    }
    // `--obs <path>`: self-instrument this invocation and write the
    // JSONL report when the command finishes (even a failing one leaves
    // the global sink disabled again).
    let obs_path = opts.get("obs").map(str::to_string);
    if obs_path.is_some() {
        kooza_obs::global::enable();
    }
    let result = match command.as_str() {
        "simulate" => simulate(&opts),
        "characterize" => characterize(&opts),
        "fit" => fit(&opts),
        "validate" => validate_cmd(&opts),
        "crossexam" => crossexam(&opts),
        "drift" => drift(&opts),
        "trace convert" => trace_convert(&opts),
        "obs" => obs_cmd(&opts),
        _ => unreachable!("command_keys rejects unknown commands"),
    };
    match obs_path {
        None => result,
        Some(path) => {
            let report = kooza_obs::global::report();
            kooza_obs::global::disable();
            let report = report.ok_or_else(|| err("observability state lost mid-run"))?;
            std::fs::write(&path, report.to_jsonl())
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            result.map(|out| format!("{out}\nwrote observability report to {path}"))
        }
    }
}

/// `kooza obs`: pretty-print (or strip) a JSONL observability report.
fn obs_cmd(opts: &Options) -> Result<String, CliError> {
    let path = opts.require("report")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {path}: {e}")))?;
    if opts.has_flag("strip") {
        return kooza_obs::strip_nondeterministic(&text)
            .map_err(|e| err(format!("cannot strip {path}: {e}")));
    }
    let report = kooza_obs::ObsReport::from_jsonl(&text)
        .map_err(|e| err(format!("cannot parse {path}: {e}")))?;
    Ok(report.render())
}

fn workload_by_name(name: &str) -> Result<WorkloadMix, CliError> {
    match name {
        "read" => Ok(WorkloadMix::read_heavy()),
        "write" => Ok(WorkloadMix::write_heavy()),
        "mixed" => Ok(WorkloadMix::mixed()),
        other => Err(err(format!("--workload must be read|write|mixed, got `{other}`"))),
    }
}

/// A `--faults` spec, parsed.
fn parse_faults(spec: &str) -> Result<FaultSpec, CliError> {
    FaultSpec::parse(spec).map_err(|e| err(format!("--faults: {e}")))
}

/// `--topology none|rack:<spr>:<oversub>`; `Topology::None` when absent,
/// keeping every report byte-identical to the pre-fabric CLI.
fn parse_topology(opts: &Options) -> Result<Topology, CliError> {
    match opts.get("topology") {
        None => Ok(Topology::None),
        Some(v) => Topology::parse(v).map_err(|e| err(format!("--topology: {e}"))),
    }
}

fn load_trace(opts: &Options) -> Result<(TraceSet, String), CliError> {
    let path = opts.require("trace")?;
    let trace = TraceSet::read_file(Path::new(path))
        .map_err(|e| err(format!("cannot read {path}: {e}")))?;
    Ok((trace, path.to_string()))
}

/// `kooza trace convert`: re-encode a trace between JSONL and KTC.
fn trace_convert(opts: &Options) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let output = opts.require("out")?;
    let trace = TraceSet::read_file(Path::new(input))
        .map_err(|e| err(format!("cannot read {input}: {e}")))?;
    trace
        .write_file(Path::new(output))
        .map_err(|e| err(format!("cannot write {output}: {e}")))?;
    Ok(format!("converted {} records: {input} -> {output}", trace.len()))
}

/// The cluster `simulate` and `drift` run, `--servers` chunkservers under
/// the `--workload` mix, and the number of `--requests` sent to it;
/// `servers` and `requests` are the defaults.
fn cluster_config(
    opts: &Options,
    servers: usize,
    requests: usize,
) -> Result<(ClusterConfig, u64), CliError> {
    let mut config = ClusterConfig::cluster(opts.parse_count("servers", servers)?);
    config.workload = workload_by_name(opts.get("workload").unwrap_or("mixed"))?;
    Ok((config, opts.parse_count("requests", requests)? as u64))
}

fn simulate(opts: &Options) -> Result<String, CliError> {
    let out = opts.require("out")?;
    let seed: u64 = opts.parse_num("seed", 1)?;
    let (mut config, requests) = cluster_config(opts, 1, 1000)?;
    config.faults = opts.get("faults").map(parse_faults).transpose()?;
    config.topology = parse_topology(opts)?;
    let mut cluster = Cluster::new(&config).map_err(|e| err(e.to_string()))?;
    let outcome = cluster.run(requests, seed);
    outcome
        .trace
        .write_file(Path::new(out))
        .map_err(|e| err(format!("cannot write {out}: {e}")))?;
    let fabric_note = match config.topology {
        Topology::Rack {
            servers_per_rack,
            oversub,
        } => format!(", rack fabric {servers_per_rack}:{oversub}"),
        Topology::None => String::new(),
    };
    // The cluster's buffer-cache hit ratio: cache-hit reads over completed
    // reads (writes always go to disk).
    let (mut reads, mut hits) = (0u64, 0u64);
    for r in outcome.requests.iter().filter(|r| r.is_read && !r.failed) {
        reads += 1;
        hits += u64::from(r.cache_hit);
    }
    let mut report = format!(
        "simulated {} requests on {} server(s){fabric_note} (seed {seed})\n\
         throughput {:.1} req/s | mean latency {:.3} ms | cache hit {:.1}%\n\
         wrote {} records to {out}",
        outcome.stats.completed,
        config.n_chunkservers,
        outcome.stats.throughput_per_sec(),
        outcome.stats.latency_secs.mean() * 1e3,
        hits as f64 / reads.max(1) as f64 * 100.0,
        outcome.trace.len(),
    );
    if config.faults.is_some() {
        let f = outcome.stats.faults;
        report += &format!(
            "\nfaults: {} crashes, {} retries, {} failovers, {} re-replications, \
             {} failed requests",
            f.crashes, f.retries, f.failovers, f.rereplications, f.requests_failed,
        );
    }
    Ok(report)
}

fn characterize(opts: &Options) -> Result<String, CliError> {
    let (trace, path) = load_trace(opts)?;
    let mut out = format!("characterization of {path}\n");
    match arrival_profile(&trace.network) {
        Ok(a) => {
            out += &format!(
                "\nnetwork : {} arrivals at {:.1} req/s, burstiness cv2 {:.2}\n",
                a.count,
                a.rate_per_sec,
                a.burstiness_cv2.unwrap_or(f64::NAN)
            );
        }
        Err(e) => out += &format!("\nnetwork : {e}\n"),
    }
    match cpu_profile(&trace.cpu) {
        Ok(c) => {
            out += &format!(
                "cpu     : mean {:.2}% p99 {:.2}% pattern {:?}\n",
                c.utilization.mean * 100.0,
                c.utilization.p99 * 100.0,
                c.pattern
            );
        }
        Err(e) => out += &format!("cpu     : {e}\n"),
    }
    match memory_profile(&trace.memory) {
        Ok(m) => {
            out += &format!(
                "memory  : {} accesses, read {:.0}%, same-bank locality {:.2}\n",
                m.count,
                m.read_fraction * 100.0,
                m.same_bank_fraction
            );
        }
        Err(e) => out += &format!("memory  : {e}\n"),
    }
    match storage_profile(&trace.storage) {
        Ok(s) => {
            out += &format!(
                "storage : {} I/Os, read {:.0}%, mean size {:.0} B, sequential {:.1}%\n",
                s.count,
                s.read_fraction * 100.0,
                s.mean_size,
                s.sequential_fraction * 100.0
            );
        }
        Err(e) => out += &format!("storage : {e}\n"),
    }
    Ok(out)
}

fn fit(opts: &Options) -> Result<String, CliError> {
    let (trace, path) = load_trace(opts)?;
    let model = Kooza::fit(&trace).map_err(|e| err(e.to_string()))?;
    let mut out = format!(
        "KOOZA model trained on {} requests from {path}\n\
         network : {} inter-arrivals at {:.1} req/s\n\
         params  : {}\n\
         classes :\n",
        model.trained_requests(),
        model.network().interarrival_family(),
        model.network().mean_rate(),
        model.parameter_count(),
    );
    for class in model.structure().classes() {
        out += &format!("  [{:>5.1}%] {}\n", class.probability * 100.0, class.signature);
    }
    Ok(out)
}

/// `kooza drift`: healthy vs fault-injected training drift.
fn drift(opts: &Options) -> Result<String, CliError> {
    let faults = parse_faults(opts.require("faults")?)?;
    let seed: u64 = opts.parse_num("seed", 1)?;
    // Several servers by default, so failover and re-replication have
    // somewhere to go.
    let (config, requests) = cluster_config(opts, 3, 800)?;
    let report = fault_drift(&config, faults, requests, seed).map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "fault drift over {requests} requests on {} server(s) (seed {seed})\n{}\
         max feature drift {:+.2}% | latency drift {:+.2}%",
        config.n_chunkservers,
        report.render(),
        report.max_feature_drift(),
        report.latency_drift().unwrap_or(f64::NAN),
    ))
}

fn validate_cmd(opts: &Options) -> Result<String, CliError> {
    let n = opts.parse_count("n", 1000)?;
    let seed: u64 = opts.parse_num("seed", 1)?;
    let (trace, path) = load_trace(opts)?;
    let observations = assemble_observations(&trace).map_err(|e| err(e.to_string()))?;
    let model = Kooza::fit_observations(&observations, KoozaOptions::default())
        .map_err(|e| err(e.to_string()))?;
    let mut rng = Rng64::new(seed);
    let synthetic = model.generate(n, &mut rng);
    let report = validate(&model, &observations, &synthetic, ReplayConfig::default());
    Ok(format!(
        "validation of {path} ({n} synthetic requests, seed {seed})\n{}\
         max feature variation {:.2}% | latency variation {:.2}%",
        report.render(),
        report.max_feature_variation(),
        report.latency_variation().unwrap_or(f64::NAN)
    ))
}

fn crossexam(opts: &Options) -> Result<String, CliError> {
    let n = opts.parse_count("n", 1000)?;
    let seed: u64 = opts.parse_num("seed", 1)?;
    let (trace, path) = load_trace(opts)?;
    let observations = assemble_observations(&trace).map_err(|e| err(e.to_string()))?;
    let kooza = Kooza::fit_observations(&observations, KoozaOptions::default())
        .map_err(|e| err(e.to_string()))?;
    let inb = InBreadthModel::fit_observations(&observations).map_err(|e| err(e.to_string()))?;
    let ind = InDepthModel::fit_observations(&observations).map_err(|e| err(e.to_string()))?;
    let table = cross_examine(
        &[&inb, &ind, &kooza],
        &observations,
        ReplayConfig::default(),
        n,
        seed,
    );
    Ok(format!("cross-examination of {path}\n{}", table.render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writable temp-file path unique to the test.
    fn temp_path(tag: &str) -> String {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        dir.join(format!("kooza-cli-{tag}-{pid}.jsonl"))
            .to_string_lossy()
            .into_owned()
    }

    fn cleanup(path: &str) {
        let _ = std::fs::remove_file(Path::new(path));
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn full_pipeline_through_the_cli() {
        let path = temp_path("pipeline");
        let out = run(&args(&format!(
            "simulate --out {path} --requests 500 --seed 9 --workload read"
        )))
        .unwrap();
        assert!(out.contains("simulated 500 requests"), "{out}");

        let out = run(&args(&format!("characterize --trace {path}"))).unwrap();
        assert!(out.contains("network"), "{out}");
        assert!(out.contains("storage"), "{out}");

        let out = run(&args(&format!("fit --trace {path}"))).unwrap();
        assert!(out.contains("KOOZA model trained on 500 requests"), "{out}");
        assert!(out.contains("network.in"), "{out}");

        let out = run(&args(&format!("validate --trace {path} --n 500 --seed 2"))).unwrap();
        assert!(out.contains("max feature variation"), "{out}");

        let out = run(&args(&format!("crossexam --trace {path} --n 300 --seed 3"))).unwrap();
        assert!(out.contains("kooza"), "{out}");
        assert!(out.contains("in-breadth"), "{out}");
        assert!(out.contains("in-depth"), "{out}");
        cleanup(&path);
    }

    #[test]
    fn simulate_multi_server() {
        let path = temp_path("multiserver");
        let out = run(&args(&format!(
            "simulate --out {path} --requests 200 --servers 3 --workload mixed"
        )))
        .unwrap();
        assert!(out.contains("3 server(s)"), "{out}");
        cleanup(&path);
    }

    #[test]
    fn cache_hit_is_the_clusters_read_hit_ratio() {
        // 2,588 of the 4,000 reads hit a buffer cache; no one server's
        // ratio is the cluster's.
        let path = temp_path("cache-hit");
        let out = run(&args(&format!(
            "simulate --out {path} --requests 4000 --seed 3 --servers 64 --workload read"
        )))
        .unwrap();
        assert!(out.contains("| cache hit 64.7%"), "{out}");
        cleanup(&path);
    }

    #[test]
    fn an_option_is_never_another_options_value() {
        let e = run(&args("simulate --requests 10 --out --threads")).unwrap_err();
        assert_eq!(e.to_string(), "--out needs a value");
        assert!(!Path::new("--threads").exists(), "simulate wrote a trace named --threads");
        let path = temp_path("option-value");
        // A removed flag is named, wherever it stands.
        for cmd in [
            format!("simulate --consult-master --out {path}"),
            format!("simulate --out {path} --consult-master"),
            format!("simulate --out {path} --consult-master --requests 10"),
        ] {
            let e = run(&args(&cmd)).unwrap_err();
            assert!(e.to_string().contains("--consult-master"), "{cmd}: {e}");
            assert!(!Path::new(&path).exists(), "{cmd} wrote a trace");
        }
    }

    #[test]
    fn help_prints_usage() {
        for cmd in ["help", "--help", "-h"] {
            let out = run(&args(cmd)).unwrap();
            assert!(out.contains("usage: kooza"), "{out}");
            assert!(out.contains("--threads"), "{out}");
        }
    }

    /// Each command's `--option`s in the `commands:` section of [`USAGE`],
    /// read from its synopsis, not from its description.
    fn usage_options() -> Vec<(String, Vec<String>)> {
        let section = USAGE.split("commands:\n").nth(1).unwrap();
        let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
        for line in section.lines().take_while(|l| !l.is_empty()) {
            let mut text = line.trim_start();
            if line.len() - text.len() == 2 {
                // A command's first line: its name, then its options.
                let name_end = text.find(" --").or_else(|| text.find("  ")).unwrap();
                blocks.push((text[..name_end].trim_end().to_string(), Vec::new()));
                text = text[name_end..].trim_start();
            }
            // Synopsis lines begin with an option; description lines never do.
            if text.starts_with(['-', '[']) {
                let words = text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'));
                let options = words.filter_map(|w| w.strip_prefix("--")).map(String::from);
                blocks.last_mut().unwrap().1.extend(options);
            }
        }
        blocks
    }

    #[test]
    fn help_lists_exactly_the_options_each_command_takes() {
        let listed = usage_options();
        let names: Vec<&str> = listed.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "simulate",
                "characterize",
                "fit",
                "validate",
                "crossexam",
                "drift",
                "trace convert",
                "obs",
                "help"
            ]
        );
        for (name, options) in &listed {
            let mut options: Vec<&str> = options.iter().map(String::as_str).collect();
            let mut expected: Vec<&str> = match name.as_str() {
                "help" => Vec::new(),
                command => command_keys(command).unwrap().to_vec(),
            };
            options.sort_unstable();
            expected.sort_unstable();
            assert_eq!(options, expected, "usage of `{name}`");
        }
    }

    #[test]
    fn threads_flag_sets_override() {
        let path = temp_path("threads");
        let out = run(&args(&format!(
            "simulate --out {path} --requests 50 --seed 6 --threads 2"
        )))
        .unwrap();
        assert!(out.contains("simulated 50 requests"), "{out}");
        assert_eq!(kooza_exec::thread_override(), Some(2));
        kooza_exec::set_thread_override(None);
        cleanup(&path);

        assert!(run(&args("simulate --out /tmp/x --threads 0")).is_err());
        assert!(run(&args("simulate --out /tmp/x --threads nope")).is_err());
        assert_eq!(kooza_exec::thread_override(), None);
    }

    #[test]
    fn obs_flag_writes_report_and_obs_command_reads_it() {
        let trace = temp_path("obs-trace");
        let report = temp_path("obs-report");
        run(&args(&format!(
            "simulate --out {trace} --requests 400 --seed 11 --workload read"
        )))
        .unwrap();
        let out = run(&args(&format!(
            "validate --trace {trace} --n 400 --seed 12 --obs {report}"
        )))
        .unwrap();
        assert!(out.contains("wrote observability report"), "{out}");
        assert!(!kooza_obs::global::is_enabled());

        // The report parses; the validate pipeline left its counters.
        // Other tests in this binary may run pipelines concurrently while
        // obs is enabled, so assert at-least, never exact.
        let text = std::fs::read_to_string(&report).unwrap();
        let parsed = kooza_obs::ObsReport::from_jsonl(&text).unwrap();
        assert!(parsed.metrics.counter("train.models").unwrap_or(0) >= 1, "{text}");
        assert!(parsed.metrics.counter("validate.cases").unwrap_or(0) >= 1);
        assert!(parsed.metrics.counter("replay.requests").unwrap_or(0) >= 400);
        assert!(parsed.metrics.histogram("replay.latency_nanos").is_some());

        // `kooza obs` renders the stage tree and metrics...
        let rendered = run(&args(&format!("obs --report {report}"))).unwrap();
        assert!(rendered.contains("kooza observability report"), "{rendered}");
        assert!(rendered.contains("validate"), "{rendered}");
        assert!(rendered.contains("train.models"), "{rendered}");

        // ...and `--strip` emits the deterministic subset.
        let stripped = run(&args(&format!("obs --report {report} --strip"))).unwrap();
        assert!(!stripped.contains("\"wall\""), "{stripped}");
        assert!(stripped.contains("validate.cases"), "{stripped}");

        cleanup(&trace);
        cleanup(&report);
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&args("frobnicate")).is_err());
        assert!(run(&args("simulate")).is_err()); // missing --out
        assert!(run(&args("simulate --out /tmp/x --workload nope")).is_err());
        assert!(run(&args("validate --trace /nonexistent/path.jsonl")).is_err());
        assert!(run(&args("simulate --requests")).is_err()); // value missing
        assert!(run(&args("simulate --out /tmp/x --requests abc")).is_err());
        assert!(run(&args("simulate stray")).is_err());
        assert!(run(&args("trace")).is_err()); // missing subcommand
        assert!(run(&args("trace frobnicate")).is_err());
        assert!(run(&args("trace convert --in /tmp/x")).is_err()); // missing --out
    }

    #[test]
    fn unknown_options_are_rejected_before_any_work() {
        let path = temp_path("bogus");
        let e = run(&args(&format!("simulate --out {path} --requests 50 --bogus 1"))).unwrap_err();
        assert_eq!(e.to_string(), "`kooza simulate` does not take --bogus");
        assert!(!Path::new(&path).exists(), "simulate ran despite the bad option");
        // A flag of another command is an unknown option too.
        let e = run(&args(&format!("simulate --out {path} --strip"))).unwrap_err();
        assert_eq!(e.to_string(), "`kooza simulate` does not take --strip");
        assert!(run(&args("obs --report /nonexistent --seed 1")).is_err());
        // A trace file names its own format, so no command takes one. No
        // trace exists at the paths: the option is named before any read.
        for (cmd, error) in [
            (
                format!("simulate --out {path} --requests 5 --format ktc"),
                "`kooza simulate` does not take --format",
            ),
            (
                "characterize --trace /nonexistent/t.ktc --format ktc".into(),
                "`kooza characterize` does not take --format",
            ),
            (
                "fit --trace /nonexistent/t.ktc --format ktc".into(),
                "`kooza fit` does not take --format",
            ),
            (
                "validate --trace /nonexistent/t.jsonl --format jsonl".into(),
                "`kooza validate` does not take --format",
            ),
            (
                "crossexam --trace /nonexistent/t.jsonl --format jsonl".into(),
                "`kooza crossexam` does not take --format",
            ),
            (
                format!("trace convert --in /nonexistent/t.jsonl --out {path} --in-format jsonl"),
                "`kooza trace convert` does not take --in-format",
            ),
            (
                format!("trace convert --in /nonexistent/t.jsonl --out {path} --out-format ktc"),
                "`kooza trace convert` does not take --out-format",
            ),
        ] {
            assert_eq!(run(&args(&cmd)).unwrap_err().to_string(), error, "{cmd}");
        }
        assert!(!Path::new(&path).exists(), "a command wrote {path}");
    }

    #[test]
    fn each_command_rejects_the_options_of_the_others() {
        // No trace exists at the path: the option is named before a trace
        // is read or a cluster simulated.
        for (cmd, error) in [
            (
                "validate --trace /nonexistent/t.jsonl --n 200 --servers 7",
                "`kooza validate` does not take --servers",
            ),
            (
                "validate --faults mttf=5 --topology rack:4:2",
                "`kooza validate` does not take --faults",
            ),
            (
                "crossexam --trace /nonexistent/t.jsonl --topology rack:4:2",
                "`kooza crossexam` does not take --topology",
            ),
            (
                "drift --faults mttf=3 --trace /nonexistent/t.jsonl",
                "`kooza drift` does not take --trace",
            ),
        ] {
            assert_eq!(run(&args(cmd)).unwrap_err().to_string(), error, "{cmd}");
        }
    }

    #[test]
    fn ktc_format_through_the_cli() {
        let jsonl = temp_path("ktc-src");
        let ktc = format!("{}.ktc", temp_path("ktc-bin"));

        // Simulate to JSONL (default), convert to KTC by extension.
        run(&args(&format!("simulate --out {jsonl} --requests 400 --seed 17"))).unwrap();
        let out =
            run(&args(&format!("trace convert --in {jsonl} --out {ktc}"))).unwrap();
        assert!(out.ends_with(&format!(" records: {jsonl} -> {ktc}")), "{out}");
        let bytes = std::fs::read(&ktc).unwrap();
        assert_eq!(&bytes[..4], b"KTC1");
        assert!(bytes.len() < std::fs::metadata(&jsonl).unwrap().len() as usize);

        // Every trace-consuming command accepts the KTC file directly.
        let fit_jsonl = run(&args(&format!("fit --trace {jsonl}"))).unwrap();
        let fit_ktc = run(&args(&format!("fit --trace {ktc}"))).unwrap();
        assert_eq!(fit_jsonl.replace(&jsonl, "T"), fit_ktc.replace(&ktc, "T"));
        let out = run(&args(&format!("characterize --trace {ktc}"))).unwrap();
        assert!(out.contains("storage"), "{out}");

        // Round trip back to JSONL reproduces the original bytes exactly
        // (both writers are canonical).
        let back = temp_path("ktc-back");
        run(&args(&format!("trace convert --in {ktc} --out {back}"))).unwrap();
        assert_eq!(std::fs::read(&jsonl).unwrap(), std::fs::read(&back).unwrap());

        cleanup(&jsonl);
        cleanup(&ktc);
        cleanup(&back);
    }

    #[test]
    fn simulate_writes_ktc_by_extension_and_sniffing_reads_it() {
        // A .ktc path selects KTC; under the .jsonl name temp_path bakes
        // in, the reader then identifies the file by magic, not name.
        let ktc = format!("{}.ktc", temp_path("ktc-direct"));
        let out = run(&args(&format!("simulate --out {ktc} --requests 300 --seed 23"))).unwrap();
        assert!(out.contains("simulated 300 requests"), "{out}");
        let bytes = std::fs::read(&ktc).unwrap();
        assert_eq!(&bytes[..4], b"KTC1");
        let path = temp_path("ktc-renamed");
        std::fs::rename(&ktc, &path).unwrap();
        let out = run(&args(&format!("validate --trace {path} --n 200 --seed 2"))).unwrap();
        assert!(out.contains("max feature variation"), "{out}");
        cleanup(&path);
    }

    #[test]
    fn simulate_with_faults_reports_counters_and_stays_deterministic() {
        let p1 = temp_path("faults1");
        let p2 = temp_path("faults2");
        let spec = "mttf=2,mttr=0.5,timeout=0.3,retries=10";
        let cmd = |p: &str| {
            format!("simulate --out {p} --requests 400 --seed 21 --servers 4 --faults {spec}")
        };
        let out = run(&args(&cmd(&p1))).unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("crashes"), "{out}");
        run(&args(&cmd(&p2))).unwrap();
        let a = std::fs::read_to_string(&p1).unwrap();
        let b = std::fs::read_to_string(&p2).unwrap();
        assert_eq!(a, b);
        cleanup(&p1);
        cleanup(&p2);

        // A healthy run never prints the fault summary.
        let p3 = temp_path("faults3");
        let out =
            run(&args(&format!("simulate --out {p3} --requests 50 --seed 21 --servers 4")))
                .unwrap();
        assert!(!out.contains("faults:"), "{out}");
        cleanup(&p3);
    }

    #[test]
    fn drift_reports_training_drift_without_a_trace() {
        let out = run(&args(
            "drift --faults mttf=3,mttr=0.5,timeout=0.4,retries=10 \
             --requests 500 --servers 4 --seed 7",
        ))
        .unwrap();
        assert!(out.contains("fault drift over 500 requests"), "{out}");
        assert!(out.contains("Drift"), "{out}");
        assert!(out.contains("crashes"), "{out}");
        assert!(out.contains("max feature drift"), "{out}");
    }

    #[test]
    fn crossexam_with_faults_trains_on_a_faulty_trace() {
        // A fault-injected rack-fabric run, through the file `simulate`
        // writes, scores exactly as the same run cross-examined in memory.
        let path = temp_path("crossexam-faults");
        let spec = "mttf=20,mttr=2";
        run(&args(&format!(
            "simulate --out {path} --faults {spec} --topology rack:4:2 \
             --servers 12 --requests 600 --seed 3"
        )))
        .unwrap();
        let out = run(&args(&format!("crossexam --trace {path} --n 400 --seed 3"))).unwrap();
        cleanup(&path);

        let mut config = ClusterConfig::cluster(12);
        config.workload = WorkloadMix::mixed();
        config.faults = Some(FaultSpec::parse(spec).unwrap());
        config.topology = Topology::parse("rack:4:2").unwrap();
        let outcome = Cluster::new(&config).unwrap().run(600, 3);
        assert!(outcome.stats.faults.crashes > 0);
        let observations = assemble_observations(&outcome.trace).unwrap();
        let kooza = Kooza::fit_observations(&observations, KoozaOptions::default()).unwrap();
        let inb = InBreadthModel::fit_observations(&observations).unwrap();
        let ind = InDepthModel::fit_observations(&observations).unwrap();
        let table =
            cross_examine(&[&inb, &ind, &kooza], &observations, ReplayConfig::default(), 400, 3);
        assert_eq!(out, format!("cross-examination of {path}\n{}", table.render()));
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        assert!(run(&args("simulate --out /tmp/x --faults nonsense")).is_err());
        assert!(run(&args("simulate --out /tmp/x --faults mttf=-1")).is_err());
        assert!(run(&args("drift --faults gibberish=1")).is_err());
        let e = run(&args("drift --servers 4")).unwrap_err();
        assert_eq!(e.to_string(), "missing required option --faults");
    }

    #[test]
    fn simulate_topology_flag_reports_and_stays_deterministic() {
        let p1 = temp_path("topo1");
        let p2 = temp_path("topo2");
        let cmd = |p: &str| {
            format!("simulate --out {p} --requests 300 --seed 6 --servers 12 --topology rack:4:2")
        };
        let out = run(&args(&cmd(&p1))).unwrap();
        assert!(out.contains("12 server(s), rack fabric 4:2"), "{out}");
        run(&args(&cmd(&p2))).unwrap();
        assert_eq!(
            std::fs::read_to_string(&p1).unwrap(),
            std::fs::read_to_string(&p2).unwrap()
        );
        cleanup(&p1);
        cleanup(&p2);

        // `--topology none` is spelled out but changes nothing: output and
        // report are byte-identical to a run without the option.
        let legacy = temp_path("topo-legacy");
        let none = temp_path("topo-none");
        let base = run(&args(&format!(
            "simulate --out {legacy} --requests 200 --seed 7 --servers 8"
        )))
        .unwrap();
        let spelled = run(&args(&format!(
            "simulate --out {none} --requests 200 --seed 7 --servers 8 --topology none"
        )))
        .unwrap();
        // Reports differ only in the output path on the final line.
        assert_eq!(
            base.lines().take(2).collect::<Vec<_>>(),
            spelled.lines().take(2).collect::<Vec<_>>()
        );
        assert_eq!(
            std::fs::read_to_string(&legacy).unwrap(),
            std::fs::read_to_string(&none).unwrap()
        );
        cleanup(&legacy);
        cleanup(&none);
    }

    #[test]
    fn topology_bad_values_are_rejected() {
        for bad in ["mesh", "rack", "rack:0:2", "rack:4:0.5", "rack:4:8", "rack:four:2"] {
            let r = run(&args(&format!("simulate --out /tmp/x --topology {bad}")));
            assert!(r.is_err(), "`--topology {bad}` should be rejected");
        }
    }

    #[test]
    fn shards_is_not_an_option() {
        // Every shard count but one simulated a slower cluster; the
        // N-shard hosting is no longer reachable from the CLI.
        let e = run(&args("simulate --shards 4")).unwrap_err();
        assert_eq!(e.to_string(), "`kooza simulate` does not take --shards");
        let path = temp_path("shards");
        let e = run(&args(&format!(
            "simulate --out {path} --servers 12 --shards 1"
        )))
        .unwrap_err();
        assert_eq!(e.to_string(), "`kooza simulate` does not take --shards");
        assert!(!Path::new(&path).exists(), "simulate ran despite --shards");
        let e = run(&args("drift --faults mttf=3 --servers 12 --shards 4")).unwrap_err();
        assert_eq!(e.to_string(), "`kooza drift` does not take --shards");
    }

    #[test]
    fn simulate_rejects_zero_servers() {
        let path = temp_path("zero-servers");
        let e = run(&args(&format!(
            "simulate --out {path} --servers 0 --requests 5"
        )))
        .unwrap_err();
        assert_eq!(e.to_string(), "--servers must be at least 1");
        assert!(!Path::new(&path).exists(), "simulate wrote a trace");
    }

    #[test]
    fn validate_rejects_zero_n() {
        // The check comes before the trace is read.
        let e = run(&args("validate --trace /nonexistent/t.jsonl --n 0")).unwrap_err();
        assert_eq!(e.to_string(), "--n must be at least 1");
    }

    #[test]
    fn crossexam_rejects_zero_n() {
        let e = run(&args("crossexam --trace /nonexistent/t.jsonl --n 0")).unwrap_err();
        assert_eq!(e.to_string(), "--n must be at least 1");
    }

    #[test]
    fn drift_rejects_zero_servers() {
        let e = run(&args("drift --faults mttf=3 --servers 0")).unwrap_err();
        assert_eq!(e.to_string(), "--servers must be at least 1");
    }

    #[test]
    fn simulate_and_drift_reject_zero_requests() {
        let path = temp_path("zero-requests");
        let e = run(&args(&format!("simulate --out {path} --requests 0"))).unwrap_err();
        assert_eq!(e.to_string(), "--requests must be at least 1");
        assert!(!Path::new(&path).exists(), "simulate wrote a trace");
        let e = run(&args("drift --faults mttf=3 --requests 0")).unwrap_err();
        assert_eq!(e.to_string(), "--requests must be at least 1");
    }

    #[test]
    fn deterministic_simulation_output() {
        let p1 = temp_path("det1");
        let p2 = temp_path("det2");
        run(&args(&format!("simulate --out {p1} --requests 100 --seed 4"))).unwrap();
        run(&args(&format!("simulate --out {p2} --requests 100 --seed 4"))).unwrap();
        let a = std::fs::read_to_string(&p1).unwrap();
        let b = std::fs::read_to_string(&p2).unwrap();
        assert_eq!(a, b);
        cleanup(&p1);
        cleanup(&p2);
    }
}

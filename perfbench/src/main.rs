//! The repository benchmark: one command, four workloads, every
//! end-to-end metric by name and unit, correctness checked on every run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-joint --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the workload with telemetry off and reports the
//! end-to-end metrics. `--trace 1` measures it in four quarters, telemetry
//! off, on, on, off, for `telemetry.overhead_pct`, then runs the per-layer
//! probes of [`layers`] with telemetry on and reports the per-layer metrics.
//! Standard output ends with a provenance record and, last, the result
//! object; see `perfbench/README.md`.

mod ingest;
mod layers;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;
use snia_telemetry::CaptureSink;

use crate::ingest::IngestConfig;
use crate::serve::ServeConfig;
use crate::stats::{median, peak_rss_mb, summarize_ms};
use crate::train::TrainConfig;

pub const WORKLOADS: [&str; 4] = [
    "serve-joint",
    "serve-classifier",
    "train-joint",
    "ingest-render",
];

/// Set-ups per run: at least `SETUP_MIN_REPS`, more while their total
/// stays under `SETUP_BUDGET_S`, at most `SETUP_MAX_REPS`; `setup_s` is
/// their median, so a cheap set-up is repeated more often.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operation counts of one measured phase.
#[derive(Debug)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub answered: u64,
    /// Refused with `ServeError::Overloaded`.
    pub shed: u64,
    pub failed: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Self {
        Phase {
            name,
            sent: 0,
            answered: 0,
            shed: 0,
            failed: 0,
        }
    }
}

/// What one measurement of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations per second of the workload's throughput phase: the
    /// median over its pieces (chunks, calls or passes).
    pub throughput: f64,
    /// Per-operation latencies of the workload's latency phase.
    pub latencies_ms: Vec<f64>,
    pub phases: Vec<Phase>,
    pub checks: Vec<(String, bool)>,
    pub detail: Vec<(String, Value)>,
    pub loadgen_lag_p99_ms: Option<f64>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn detail(&mut self, name: &str, value: Value) {
        self.detail.push((name.to_string(), value));
    }

    fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed + p.shed).sum()
    }

    fn to_value(&self) -> Value {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                serde_json::json!({
                    "phase": (p.name),
                    "sent": (p.sent),
                    "answered": (p.answered),
                    "shed": (p.shed),
                    "failed": (p.failed)
                })
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(n, ok)| (n.clone(), Value::Bool(*ok)))
            .collect();
        let mut map = vec![
            ("throughput_per_s".to_string(), Value::F64(self.throughput)),
            ("phases".to_string(), Value::Seq(phases)),
            ("checks".to_string(), Value::Map(checks)),
        ];
        if !self.latencies_ms.is_empty() {
            let s = summarize_ms(&self.latencies_ms);
            map.push((
                "latency".to_string(),
                serde_json::json!({
                    "samples": (s.count),
                    "mean_ms": (s.mean_ms),
                    "p50_ms": (s.p50_ms),
                    "p90_ms": (s.p90_ms),
                    "tail_pct": (s.tail_pct),
                    "tail_ms": (s.tail_ms)
                }),
            ));
        }
        map.extend(self.detail.iter().cloned());
        Value::Map(map)
    }
}

/// A prepared workload.
pub trait Bench {
    /// Runs the workload's measured phases for about `seconds`.
    fn measure(&mut self, seconds: f64) -> Outcome;
}

#[derive(Debug, Clone, Copy)]
enum Config {
    Serve(ServeConfig),
    Train(TrainConfig),
    Ingest(IngestConfig),
}

impl Config {
    fn of(workload: &str, smoke: bool) -> Option<Config> {
        Some(match workload {
            "serve-joint" => Config::Serve(ServeConfig::joint(smoke)),
            "serve-classifier" => Config::Serve(ServeConfig::classifier(smoke)),
            "train-joint" => Config::Train(TrainConfig::joint(smoke)),
            "ingest-render" => Config::Ingest(IngestConfig::render(smoke)),
            _ => return None,
        })
    }

    fn describe(&self) -> Value {
        match self {
            Config::Serve(c) => c.describe(),
            Config::Train(c) => c.describe(),
            Config::Ingest(c) => c.describe(),
        }
    }

    fn setup(&self, seed: u64, dir: &Path) -> Box<dyn Bench> {
        match *self {
            Config::Serve(c) => Box::new(serve::setup(c, seed, dir)),
            Config::Train(c) => Box::new(train::setup(c, seed, dir)),
            Config::Ingest(c) => Box::new(ingest::setup(c, seed, dir)),
        }
    }
}

/// Telemetry on, into an in-memory capture sink, with the benchmark's own
/// correctness checks of the per-layer probes.
pub struct Tracer {
    sink: CaptureSink,
    checks: Vec<(String, bool)>,
}

impl Tracer {
    fn start() -> Self {
        let mut t = Tracer {
            sink: CaptureSink::new(),
            checks: Vec::new(),
        };
        t.restart();
        t
    }

    /// Clears the metrics registry (keeping the captured events) so the
    /// next probe reads only its own histograms.
    pub fn restart(&mut self) {
        snia_telemetry::reset();
        snia_telemetry::install_sink(self.sink.clone());
        snia_telemetry::set_enabled(true);
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Stops tracing and returns the self-time table of the span tree.
    fn finish(self) -> (Value, Vec<(String, bool)>) {
        snia_telemetry::reset();
        (trace::self_times(&self.sink), self.checks)
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smallest sizes; only the smoke test sets it.
    pub smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if Config::of(&parsed.workload, false).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(parsed)
}

fn host() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    serde_json::json!({
        "nproc": (std::thread::available_parallelism().map_or(0, |n| n.get())),
        "cpu_model": (field("model name")),
        "avx2": (has("avx2")),
        "avx512f": (has("avx512f")),
        "fma": (has("fma")),
        "rustc": (env!("PERFBENCH_RUSTC")),
        "git_commit": (env!("PERFBENCH_GIT_COMMIT")),
        "source_digest": (env!("PERFBENCH_SOURCE_DIGEST"))
    })
}

/// Scratch space inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create .bench_work in the working directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One run's result: the final object's fields plus the provenance record.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub record: Value,
}

pub fn run(args: &Args) -> RunResult {
    let cfg = Config::of(&args.workload, args.smoke).expect("validated workload");
    let work = WorkDir::create();

    // Set up several times (each from scratch) and keep the last.
    let (min_reps, max_reps) = if args.smoke {
        (1, 1)
    } else {
        (SETUP_MIN_REPS, SETUP_MAX_REPS)
    };
    let mut setups: Vec<f64> = Vec::with_capacity(max_reps);
    let mut bench: Option<Box<dyn Bench>> = None;
    for rep in 0..max_reps {
        if rep >= min_reps && setups.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        drop(bench.take());
        let dir = work.0.join(format!("setup-{rep}"));
        let t0 = Instant::now();
        bench = Some(cfg.setup(args.seed, &dir));
        setups.push(t0.elapsed().as_secs_f64());
        if rep > 0 {
            let _ = std::fs::remove_dir_all(work.0.join(format!("setup-{}", rep - 1)));
        }
    }
    let mut bench = bench.expect("at least one setup");

    let mut outcomes = Vec::new();
    let mut metrics = Vec::new();
    let mut checks = Vec::new();
    let mut record = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::F64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        ("config".to_string(), cfg.describe()),
        ("host".to_string(), host()),
        (
            "setup_s".to_string(),
            Value::Seq(setups.iter().map(|&s| Value::F64(s)).collect()),
        ),
    ];
    if args.trace {
        // Untraced and traced quarters in ABBA order, so that a drift in
        // the shared host's speed cancels out of the overhead.
        let quarter = args.seconds / 4.0;
        let untraced_0 = bench.measure(quarter);
        let mut tracer = Tracer::start();
        let (traced_0, traced_1) = {
            let _root = trace::root("workload");
            (bench.measure(quarter), bench.measure(quarter))
        };
        snia_telemetry::set_enabled(false);
        let untraced_1 = bench.measure(quarter);
        drop(bench);
        tracer.restart();
        metrics = layers::suite(args.seed, args.smoke, &work.0.join("probes"), &mut tracer);
        let untraced = untraced_0.throughput + untraced_1.throughput;
        let traced = traced_0.throughput + traced_1.throughput;
        metrics.push(Metric::new(
            "telemetry.overhead_pct",
            (untraced / traced - 1.0) * 100.0,
            "%",
        ));
        let (self_times, probe_checks) = tracer.finish();
        checks.extend(probe_checks);
        let path = write_trace(args, &self_times);
        record.push(("trace_file".to_string(), Value::Str(path)));
        outcomes.push(("untraced_0", untraced_0));
        outcomes.push(("traced_0", traced_0));
        outcomes.push(("traced_1", traced_1));
        outcomes.push(("untraced_1", untraced_1));
    } else {
        let outcome = bench.measure(args.seconds);
        drop(bench);
        metrics.push(Metric::new("setup_s", median(&setups), "s"));
        metrics.push(Metric::new("throughput_per_s", outcome.throughput, "1/s"));
        metrics.push(Metric::new(
            "p50_ms",
            summarize_ms(&outcome.latencies_ms).p50_ms,
            "ms",
        ));
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        outcomes.push(("measured", outcome));
    }

    let mut attempted = 0;
    let mut failed = 0;
    for (label, o) in &outcomes {
        attempted += o.attempted();
        failed += o.failed();
        checks.extend(o.checks.iter().map(|(n, ok)| (format!("{label}.{n}"), *ok)));
        record.push((label.to_string(), o.to_value()));
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    checks.push(("metrics_finite".to_string(), finite));
    let correct = checks.iter().all(|(_, ok)| *ok);
    record.push((
        "failed_checks".to_string(),
        Value::Seq(
            checks
                .iter()
                .filter(|(_, ok)| !ok)
                .map(|(n, _)| Value::Str(n.clone()))
                .collect(),
        ),
    ));
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        record: Value::Map(record),
    }
}

/// Writes the traced run's self-time table under `.bench_traces/`.
fn write_trace(args: &Args, self_times: &Value) -> String {
    let dir = Path::new(".bench_traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let text = serde_json::to_string_pretty(self_times).expect("self-time table serializes");
        std::fs::write(&path, text)
    });
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
    path.display().to_string()
}

fn result_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let obj = Value::Map(vec![
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::U64(r.attempted)),
        ("failed".into(), Value::U64(r.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&obj).expect("result serializes")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let result = run(&args);
    if !result.correct {
        eprintln!(
            "perfbench: correctness checks failed: {:?}",
            result.record.get("failed_checks")
        );
    }
    println!(
        "{}",
        serde_json::to_string(&result.record).expect("record serializes")
    );
    println!("{}", result_line(&result));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let spec: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        spec[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    /// Every workload at its smallest size, untraced and traced: each
    /// metric declared in BENCHMARK.json is present, finite and carries
    /// its declared unit, and every correctness check passes.
    #[test]
    fn smoke_every_workload_reports_every_declared_metric() {
        for workload in WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                };
                let r = run(&args);
                assert!(
                    r.correct,
                    "{workload} trace={trace}: {:?}",
                    r.record.get("failed_checks")
                );
                assert!(r.attempted >= 1, "{workload}: nothing attempted");
                let got: Vec<(String, String)> = r
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(got.len(), r.metrics.len());
                let mut got_sorted = got.clone();
                got_sorted.sort();
                let mut want = declared(section);
                want.sort();
                assert_eq!(got_sorted, want, "{workload} trace={trace}");
                for m in &r.metrics {
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                }
            }
        }
    }

    #[test]
    fn args_are_validated() {
        let ok = |s: &[&str]| parse_args(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>());
        assert!(ok(&[
            "--workload",
            "train-joint",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(ok(&["--workload", "nope"]).is_err());
        assert!(ok(&["--workload", "train-joint", "--trace", "2"]).is_err());
        assert!(ok(&["--workload", "train-joint", "--seconds"]).is_err());
    }
}

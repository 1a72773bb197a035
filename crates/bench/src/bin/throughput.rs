//! Survey-scale throughput (extension): can this pipeline keep up with
//! LSST?
//!
//! The paper's introduction motivates single-epoch classification with the
//! "larger US-led survey by the Large Synoptic Survey Telescope (LSST)...
//! expected to discover more than 200K SNeIa every year". This bench
//! measures the end-to-end inference cost of the pipeline — difference
//! imaging + preprocessing + the five band CNNs + the classifier — and
//! extrapolates to survey scale.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{host_info, progress, write_json, HostInfo, Table};
use snia_core::joint::JointModel;
use snia_core::train::{feature_matrix, joint_batch, joint_examples, joint_scores};
use snia_core::{ExperimentConfig, LightCurveClassifier};
use snia_dataset::Dataset;
use snia_serve::{Engine, EngineConfig, ModelBundle, Request, RequestInput, ServedModel};

/// LSST-era workload: ~10,000 transient alerts per night that survive
/// bogus rejection and need typing.
const ALERTS_PER_NIGHT: f64 = 10_000.0;

#[derive(Serialize)]
struct ThroughputResult {
    candidates_per_second: f64,
    seconds_per_candidate: f64,
    hours_for_nightly_alerts: f64,
    crop: usize,
    note: String,
}

#[derive(Serialize)]
struct EnginePoint {
    threads: usize,
    requests_per_sec: f64,
    speedup_vs_single: f64,
}

#[derive(Serialize)]
struct ServeModeResult {
    model: String,
    requests: usize,
    max_batch: usize,
    single_sample_per_sec: f64,
    engine: Vec<EnginePoint>,
}

#[derive(Serialize)]
struct ServeBenchResult {
    host: HostInfo,
    max_wait_ms: u64,
    classifier: ServeModeResult,
    joint: ServeModeResult,
}

const MAX_WAIT: Duration = Duration::from_millis(1);

/// Worker counts to sweep, from `--threads 1,4,8` (the default).
fn thread_counts() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    let spec = args
        .windows(2)
        .find(|w| w[0] == "--threads")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "1,4,8".into());
    spec.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n: &usize| n > 0)
        .collect()
}

/// Times one request set: a single-sample scoring loop on `single`,
/// then the engine (same weights, via `bundle`) at each worker count.
fn bench_serve_mode(
    model: &str,
    mut single: ServedModel,
    bundle: &ModelBundle,
    requests: &[Request],
    max_batch: usize,
) -> ServeModeResult {
    let _ = single.score_batch(&[&requests[0].input]); // warm-up
    let t0 = Instant::now();
    for req in requests {
        let scores = single.score_batch(&[&req.input]);
        assert_eq!(scores.len(), 1);
    }
    let single_per_sec = requests.len() as f64 / t0.elapsed().as_secs_f64();

    let mut table = Table::new(vec!["mode", "req/s", "speedup"]);
    table.row(vec![
        "single-sample loop".into(),
        format!("{single_per_sec:.1}"),
        "1.00x".into(),
    ]);

    let mut engine_points = Vec::new();
    for workers in thread_counts() {
        let engine = Engine::from_bundle(
            bundle,
            EngineConfig {
                max_batch,
                max_wait: MAX_WAIT,
                queue_cap: requests.len().max(1024),
                workers,
            },
        )
        .expect("bundle instantiates");
        // Warm-up: fault in each worker's buffers.
        for req in requests.iter().take(workers.max(4)) {
            engine.score(req.clone()).expect("warm-up request");
        }
        let t0 = Instant::now();
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("queue_cap exceeds load"))
            .collect();
        for t in tickets {
            t.wait().expect("engine answers");
        }
        let per_sec = requests.len() as f64 / t0.elapsed().as_secs_f64();
        engine.shutdown();
        let speedup = per_sec / single_per_sec;
        table.row(vec![
            format!("engine, {workers} worker(s)"),
            format!("{per_sec:.1}"),
            format!("{speedup:.2}x"),
        ]);
        engine_points.push(EnginePoint {
            threads: workers,
            requests_per_sec: per_sec,
            speedup_vs_single: speedup,
        });
    }
    table.print(&format!("Serve throughput — {model}"));

    ServeModeResult {
        model: model.into(),
        requests: requests.len(),
        max_batch,
        single_sample_per_sec: single_per_sec,
        engine: engine_points,
    }
}

/// Measures the serve engine against a single-sample scoring loop for
/// both bundle kinds, writing `BENCH_serve.json`.
///
/// The light-curve classifier is where micro-batching pays: its forward
/// pass is microseconds of dense math, so the per-call overhead a batch
/// amortises (tensor setup, allocator traffic, dispatch) is a large
/// fraction of each request. The joint CNN is the opposite regime — one
/// crop-60 conv stack dwarfs any per-call overhead — recorded here so the
/// trade-off is visible in the numbers rather than asserted.
fn bench_serve(ds: &Dataset, seed: u64) -> ServeBenchResult {
    const CROP: usize = 60;

    progress!("\n# Batched serving vs single-sample loop");
    let mut rng = StdRng::seed_from_u64(seed);

    // Classifier requests: the test-split feature rows, tiled to give the
    // timer something to chew on.
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (x, _, _) = feature_matrix(ds, &idx, 1);
    let dim = x.shape()[1];
    let rows: Vec<&[f32]> = x.data().chunks(dim).collect();
    let clf_requests: Vec<Request> = (0..4096)
        .map(|i| Request {
            id: i as u64,
            input: RequestInput::Features(rows[i % rows.len()].to_vec()),
        })
        .collect();
    let clf = LightCurveClassifier::new(1, 100, &mut rng);
    let clf_bundle = ModelBundle::from_classifier(&clf);
    let classifier = bench_serve_mode(
        "classifier",
        ServedModel::Classifier(clf),
        &clf_bundle,
        &clf_requests,
        64,
    );

    // Joint requests: pre-rendered once so the comparison isolates
    // inference, not rendering.
    let idx: Vec<usize> = (0..ds.len().min(24)).collect();
    let examples = joint_examples(&idx);
    let (images, dates, _, _) = joint_batch(ds, &examples, CROP);
    let ilen = 5 * CROP * CROP;
    let joint_requests: Vec<Request> = (0..examples.len())
        .map(|i| Request {
            id: i as u64,
            input: RequestInput::Cutouts {
                images: images.data()[i * ilen..(i + 1) * ilen].to_vec(),
                dates: dates.data()[i * 5..(i + 1) * 5].to_vec(),
            },
        })
        .collect();
    let jm = JointModel::from_scratch(CROP, 100, &mut rng);
    let joint_bundle = ModelBundle::from_joint(&jm);
    let joint = bench_serve_mode(
        "joint",
        ServedModel::Joint(jm),
        &joint_bundle,
        &joint_requests,
        16,
    );

    ServeBenchResult {
        host: host_info(),
        max_wait_ms: MAX_WAIT.as_millis() as u64,
        classifier,
        joint,
    }
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("throughput");
    let mut cfg = ExperimentConfig::from_env();
    // Throughput needs only a handful of samples.
    cfg.dataset.n_samples = cfg.dataset.n_samples.min(64);
    progress!("# Inference throughput (single core, crop 60)");
    let ds = Dataset::generate(&cfg.dataset);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let examples = joint_examples(&idx);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut jm = JointModel::from_scratch(60, 100, &mut rng);

    // Warm-up (page in buffers), then timed run.
    let warm = &examples[..examples.len().min(8)];
    let _ = joint_scores(&mut jm, &ds, warm, 8);
    let timed = &examples[..examples.len().min(128)];
    let t0 = Instant::now();
    let (scores, _) = joint_scores(&mut jm, &ds, timed, 16);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(scores.len(), timed.len());

    // NOTE: the timed path *includes* rendering the synthetic images; a
    // real deployment reads cutouts from disk, so this is conservative.
    let per_sec = timed.len() as f64 / dt;
    let hours = ALERTS_PER_NIGHT / per_sec / 3600.0;

    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec![
        "candidates / second (1 core)".into(),
        format!("{per_sec:.1}"),
    ]);
    table.row(vec![
        "ms / candidate".into(),
        format!("{:.1}", 1000.0 / per_sec),
    ]);
    table.row(vec![
        format!("hours for {} nightly alerts", ALERTS_PER_NIGHT as u64),
        format!("{hours:.2}"),
    ]);
    table.print("Survey-scale inference throughput");
    progress!(
        "\nverdict: a single CPU core {} keep up with an LSST night.",
        if hours < 12.0 { "CAN" } else { "CANNOT" }
    );

    write_json(
        "throughput",
        &ThroughputResult {
            candidates_per_second: per_sec,
            seconds_per_candidate: 1.0 / per_sec,
            hours_for_nightly_alerts: hours,
            crop: 60,
            note: "includes synthetic rendering; real deployments read cutouts".into(),
        },
    );

    let serve = bench_serve(&ds, cfg.seed ^ 0x5E4E);
    let json = serde_json::to_string_pretty(&serve).expect("serialize serve bench");
    std::fs::write("BENCH_serve.json", format!("{json}\n")).expect("write BENCH_serve.json");
    progress!("wrote BENCH_serve.json");
}

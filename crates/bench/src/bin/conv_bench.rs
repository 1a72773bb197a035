//! Convolution GEMM + batch-executor benchmark.
//!
//! Times the GEMM entry points at the nine shapes the flux CNN's
//! convolutions run at crop 60, and the data-parallel joint training loop
//! at 1/2/4 threads. Writes `BENCH_conv.json` at the workspace root, with
//! the host's core count, SIMD flags and the GEMM micro-kernel that ran.
//! The `host`, `flux_cnn_gemm` and `joint_training` of the file it
//! replaces are kept as `previous_host`, `previous_flux_cnn_gemm` and
//! `previous_joint_training`, so running it at a parent commit and then
//! at a change records before and after on one host.
//!
//! Run with `cargo run --release -p snia-bench --bin conv_bench`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};

use snia_bench::{host_info, progress, HostInfo, Table};
use snia_core::joint::JointModel;
use snia_core::train::{joint_examples, train_joint, ClassifierTrainConfig};
use snia_core::ExperimentConfig;
use snia_dataset::Dataset;
use snia_nn::gemm::{gemm_nn, gemm_nt, gemm_tn};
use snia_nn::init;

#[derive(Serialize)]
struct GemmTiming {
    layer: String,
    variant: String,
    m: usize,
    k: usize,
    n: usize,
    ms_per_80_calls: f64,
    gflops: f64,
}

#[derive(Serialize)]
struct ThreadTiming {
    threads: usize,
    samples_per_sec: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct ConvBenchResult {
    host: HostInfo,
    flux_cnn_gemm: Vec<GemmTiming>,
    joint_training: Vec<ThreadTiming>,
    /// `host` of the `BENCH_conv.json` this run replaced (null if none).
    previous_host: Value,
    /// `flux_cnn_gemm` of the `BENCH_conv.json` this run replaced.
    previous_flux_cnn_gemm: Value,
    /// `joint_training` of the `BENCH_conv.json` this run replaced.
    previous_joint_training: Value,
    note: String,
}

type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Times each GEMM variant at the flux CNN's crop-60 conv shapes: 5×5
/// kernels, 10/20/30 channels on 60/30/15-pixel planes. One training step
/// at batch 16 × 5 bands makes 80 calls of each (forward `nn`, weight
/// gradient `nt`, input gradient `tn`).
fn time_flux_gemms(seed: u64) -> Vec<GemmTiming> {
    const CALLS: usize = 80;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let (mut side, mut in_ch) = (60usize, 1usize);
    for (layer, out_ch) in [10usize, 20, 30].into_iter().enumerate() {
        let (oc, ckk, owl) = (out_ch, in_ch * 25, side * side);
        // (variant, m, k, n) as conv.rs calls them.
        for (variant, gemm, m, k, n) in [
            ("nn", gemm_nn as Gemm, oc, ckk, owl),
            ("nt", gemm_nt, oc, owl, ckk),
            ("tn", gemm_tn, ckk, oc, owl),
        ] {
            let a = init::randn_tensor(&mut rng, vec![m * k], 1.0);
            let b = init::randn_tensor(&mut rng, vec![k * n], 1.0);
            let mut out = vec![0.0f32; m * n];
            gemm(a.data(), b.data(), &mut out, m, k, n);
            let ms = median_ms(5, || {
                for _ in 0..CALLS {
                    gemm(a.data(), b.data(), &mut out, m, k, n);
                }
                std::hint::black_box(&out);
            });
            rows.push(GemmTiming {
                layer: format!("conv{}", layer + 1),
                variant: variant.into(),
                m,
                k,
                n,
                ms_per_80_calls: ms,
                gflops: (2 * m * k * n * CALLS) as f64 / (ms * 1e6),
            });
        }
        side /= 2;
        in_ch = out_ch;
    }
    rows
}

/// Median wall-clock of `reps` runs of `f`, in milliseconds.
fn median_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn time_joint_training(ds: &Dataset, threads: usize, seed: u64) -> f64 {
    let idx: Vec<usize> = (0..ds.len()).collect();
    let examples = joint_examples(&idx);
    let split = examples.len() * 4 / 5;
    let (train_ex, val_ex) = examples.split_at(split.max(1).min(examples.len() - 1));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jm = JointModel::from_scratch(60, 100, &mut rng);
    let cfg = ClassifierTrainConfig {
        epochs: 1,
        batch_size: 16,
        lr: 1e-3,
        seed,
        threads,
    };
    let t0 = Instant::now();
    let hist = train_joint(&mut jm, ds, train_ex, val_ex, &cfg);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(hist.len(), 1);
    train_ex.len() as f64 / dt
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("conv_bench");
    let mut cfg = ExperimentConfig::from_env();
    cfg.dataset.n_samples = cfg.dataset.n_samples.min(16);
    progress!("# Conv GEMM + batch executor benchmark");
    let host = host_info();

    // --- GEMM at the flux CNN's conv shapes ---
    let flux_cnn_gemm = time_flux_gemms(cfg.seed);
    let mut gemm_table = Table::new(vec!["layer", "gemm", "m×k×n", "ms / 80 calls", "GFLOP/s"]);
    for t in &flux_cnn_gemm {
        gemm_table.row(vec![
            t.layer.clone(),
            t.variant.clone(),
            format!("{}×{}×{}", t.m, t.k, t.n),
            format!("{:.1}", t.ms_per_80_calls),
            format!("{:.1}", t.gflops),
        ]);
    }
    gemm_table.print(&format!(
        "Flux-CNN conv GEMMs at crop 60 ({} micro-kernel)",
        host.gemm_kernel
    ));

    // --- joint training throughput vs. thread count ---
    let ds = Dataset::generate(&cfg.dataset);
    let mut joint = Vec::new();
    let mut base = 0.0;
    let mut thr_table = Table::new(vec!["threads", "samples/sec", "speedup"]);
    for threads in [1usize, 2, 4] {
        let sps = time_joint_training(&ds, threads, cfg.seed);
        if threads == 1 {
            base = sps;
        }
        let speedup = sps / base;
        thr_table.row(vec![
            threads.to_string(),
            format!("{sps:.2}"),
            format!("{speedup:.2}x"),
        ]);
        joint.push(ThreadTiming {
            threads,
            samples_per_sec: sps,
            speedup_vs_1: speedup,
        });
    }
    thr_table.print(&format!(
        "Joint-model training throughput ({} CPU core(s) available)",
        host.nproc
    ));

    let previous = std::fs::read_to_string("BENCH_conv.json")
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .unwrap_or(Value::Null);
    let result = ConvBenchResult {
        host,
        flux_cnn_gemm,
        joint_training: joint,
        previous_host: previous["host"].clone(),
        previous_flux_cnn_gemm: previous["flux_cnn_gemm"].clone(),
        previous_joint_training: previous["joint_training"].clone(),
        note: "thread speedups are bounded by the core count (host.nproc); \
               oversubscribed threads add only overhead"
            .into(),
    };
    let json = serde_json::to_string_pretty(&result).expect("serialize");
    std::fs::write("BENCH_conv.json", format!("{json}\n")).expect("write BENCH_conv.json");
    progress!("wrote BENCH_conv.json");
}

//! Convolution backend + batch-executor benchmark.
//!
//! Times the im2col/GEMM conv backend against the naive reference on the
//! paper's 65×65 single-band geometry, and the data-parallel joint
//! training loop at 1/2/4 threads. Writes `BENCH_conv.json` at the
//! workspace root.
//!
//! Run with `cargo run --release -p snia-bench --bin conv_bench`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, Table};
use snia_core::joint::JointModel;
use snia_core::train::{joint_examples, train_joint, ClassifierTrainConfig};
use snia_core::ExperimentConfig;
use snia_dataset::Dataset;
use snia_nn::init;
use snia_nn::layers::{Conv2d, ConvBackend, Padding};
use snia_nn::{Layer, Mode, Tensor};

#[derive(Serialize)]
struct BackendTiming {
    backend: String,
    forward_ms: f64,
    forward_backward_ms: f64,
}

#[derive(Serialize)]
struct ThreadTiming {
    threads: usize,
    samples_per_sec: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct ConvBenchResult {
    input_shape: [usize; 4],
    kernel: usize,
    out_channels: usize,
    conv: Vec<BackendTiming>,
    forward_speedup: f64,
    forward_backward_speedup: f64,
    joint_training: Vec<ThreadTiming>,
    cpu_cores: usize,
    note: String,
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

fn time_backend(backend: ConvBackend, x: &Tensor) -> BackendTiming {
    let mut rng = StdRng::seed_from_u64(42);
    let mut conv = Conv2d::new(1, 5, 5, Padding::Valid, &mut rng);
    conv.set_backend(backend);
    // Warm-up allocates the scratch buffers once.
    let _ = conv.forward(x, Mode::Train);
    let forward_ms = median_ms(9, || {
        std::hint::black_box(conv.forward(x, Mode::Eval));
    });
    let forward_backward_ms = median_ms(9, || {
        let y = conv.forward(x, Mode::Train);
        let g = Tensor::ones(y.shape().to_vec());
        std::hint::black_box(conv.backward(&g));
    });
    BackendTiming {
        backend: format!("{backend:?}"),
        forward_ms,
        forward_backward_ms,
    }
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
    progress!("# Conv backend + batch executor benchmark");

    // --- conv backends on the paper's 65×65 / 5×5 geometry ---
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let x = init::randn_tensor(&mut rng, vec![5, 1, 65, 65], 1.0);
    let gemm = time_backend(ConvBackend::Im2colGemm, &x);
    let naive = time_backend(ConvBackend::NaiveReference, &x);
    let forward_speedup = naive.forward_ms / gemm.forward_ms;
    let forward_backward_speedup = naive.forward_backward_ms / gemm.forward_backward_ms;

    let mut table = Table::new(vec!["backend", "forward (ms)", "fwd+bwd (ms)"]);
    for t in [&gemm, &naive] {
        table.row(vec![
            t.backend.clone(),
            format!("{:.3}", t.forward_ms),
            format!("{:.3}", t.forward_backward_ms),
        ]);
    }
    table.print("Conv2d (5,1,65,65), k=5, 5 filters, valid padding");
    progress!(
        "forward speedup {forward_speedup:.2}x, fwd+bwd speedup {forward_backward_speedup:.2}x"
    );

    // --- joint training throughput vs. thread count ---
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
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
        "Joint-model training throughput ({cores} CPU core(s) available)"
    ));

    let result = ConvBenchResult {
        input_shape: [5, 1, 65, 65],
        kernel: 5,
        out_channels: 5,
        conv: vec![gemm, naive],
        forward_speedup,
        forward_backward_speedup,
        joint_training: joint,
        cpu_cores: cores,
        note: "thread speedups are bounded by the physical core count; \
               on a 1-core host oversubscribed threads add only overhead"
            .into(),
    };
    let json = serde_json::to_string_pretty(&result).expect("serialize");
    std::fs::write("BENCH_conv.json", format!("{json}\n")).expect("write BENCH_conv.json");
    progress!("wrote BENCH_conv.json");
}

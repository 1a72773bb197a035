//! Criterion micro-benchmarks for the hot paths: the tensor/conv kernels
//! that dominate training time, and the image-rendering pipeline that
//! dominates dataset generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use snia_core::eval::auc;
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_dataset::{Dataset, DatasetConfig};
use snia_nn::init;
use snia_nn::layers::{BatchNorm2d, Conv2d, MaxPool2d, Padding};
use snia_nn::{Layer, Mode, Tensor};
use snia_skysim::{render_cutout, CutoutSpec, Image, ObservingConditions, Psf};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for n in [32usize, 128] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::randn_tensor(&mut rng, vec![n, n], 1.0);
        let b = init::randn_tensor(&mut rng, vec![n, n], 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_forward_60x60");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(2);
    let mut conv = Conv2d::new(1, 10, 5, Padding::Same, &mut rng);
    let x = init::randn_tensor(&mut rng, vec![4, 1, 60, 60], 1.0);
    group.bench_function("batch4", |bch| {
        bch.iter(|| std::hint::black_box(conv.forward(&x, Mode::Eval)));
    });
    group.finish();
}

fn bench_conv_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_fwd_bwd_60x60");
    group.sample_size(15);
    let mut rng = StdRng::seed_from_u64(3);
    let mut conv = Conv2d::new(1, 10, 5, Padding::Same, &mut rng);
    let x = init::randn_tensor(&mut rng, vec![4, 1, 60, 60], 1.0);
    group.bench_function("batch4", |bch| {
        bch.iter(|| {
            let y = conv.forward(&x, Mode::Train);
            let g = Tensor::ones(y.shape().to_vec());
            std::hint::black_box(conv.backward(&g))
        });
    });
    group.finish();
}

fn bench_pool_and_bn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let x = init::randn_tensor(&mut rng, vec![8, 10, 30, 30], 1.0);
    let mut pool = MaxPool2d::new(2);
    c.bench_function("maxpool2d_8x10x30x30", |bch| {
        bch.iter(|| std::hint::black_box(pool.forward(&x, Mode::Eval)));
    });
    let mut bn = BatchNorm2d::new(10);
    c.bench_function("batchnorm2d_8x10x30x30", |bch| {
        bch.iter(|| std::hint::black_box(bn.forward(&x, Mode::Train)));
    });
}

fn bench_flux_cnn_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("flux_cnn_forward");
    group.sample_size(10);
    for crop in [36usize, 60] {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![4, 1, crop, crop], 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(crop), &crop, |bch, _| {
            bch.iter(|| std::hint::black_box(cnn.forward(&x, Mode::Eval)));
        });
    }
    group.finish();
}

fn bench_rendering(c: &mut Criterion) {
    let spec = CutoutSpec {
        galaxy_index: 1.0,
        galaxy_r_eff_px: 5.0,
        galaxy_axis_ratio: 0.7,
        galaxy_position_angle: 0.4,
        galaxy_flux: 800.0,
        galaxy_cx: 32.0,
        galaxy_cy: 32.0,
        sn_cx: 35.0,
        sn_cy: 30.0,
        sn_flux: 120.0,
        conditions: ObservingConditions::nominal(2),
        noise_seed: 7,
    };
    c.bench_function("render_cutout_65x65", |bch| {
        bch.iter(|| std::hint::black_box(render_cutout(&spec)));
    });
    let psf = Psf::Moffat {
        fwhm: 4.1,
        beta: 3.0,
    };
    c.bench_function("psf_point_source_65x65", |bch| {
        bch.iter(|| {
            let mut img = Image::zeros(65, 65);
            psf.add_point_source(&mut img, 32.3, 31.7, 100.0);
            std::hint::black_box(img)
        });
    });
}

fn bench_dataset_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset_generate");
    group.sample_size(10);
    group.bench_function("100_samples", |bch| {
        bch.iter(|| {
            std::hint::black_box(Dataset::generate(&DatasetConfig {
                n_samples: 100,
                catalog_size: 500,
                seed: 1,
            }))
        });
    });
    group.finish();
}

fn bench_telemetry_span(c: &mut Criterion) {
    // The contract that lets spans live in per-batch and per-cutout code:
    // with the default no-op sink a disabled span enter/exit is one relaxed
    // atomic load, well under 50 ns.
    snia_telemetry::set_enabled(false);
    c.bench_function("telemetry_span_disabled", |bch| {
        bch.iter(|| {
            let _g = snia_telemetry::span!("bench", i = 1);
            std::hint::black_box(())
        });
    });
    c.bench_function("telemetry_observe_disabled", |bch| {
        bch.iter(|| snia_telemetry::observe("bench.value", std::hint::black_box(1.5)));
    });
    // Enabled but sinkless: registry updates only, no I/O.
    snia_telemetry::set_enabled(true);
    c.bench_function("telemetry_span_enabled_no_sink", |bch| {
        bch.iter(|| {
            let _g = snia_telemetry::span!("bench", i = 1);
            std::hint::black_box(())
        });
    });
    c.bench_function("telemetry_observe_enabled", |bch| {
        bch.iter(|| snia_telemetry::observe("bench.value", std::hint::black_box(1.5)));
    });
    snia_telemetry::reset();
}

fn bench_auc(c: &mut Criterion) {
    let n = 10_000;
    let scores: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761u64) % 1000) as f64)
        .collect();
    let labels: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    c.bench_function("auc_10k", |bch| {
        bch.iter(|| std::hint::black_box(auc(&scores, &labels)));
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_conv_forward,
    bench_conv_train_step,
    bench_pool_and_bn,
    bench_flux_cnn_inference,
    bench_rendering,
    bench_dataset_generation,
    bench_telemetry_span,
    bench_auc
);
criterion_main!(benches);

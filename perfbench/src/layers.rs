//! The traced run's per-layer probes. Each layer is measured from outside:
//! by timing calls into its public functions (inside telemetry spans) and
//! by reading the `snia-telemetry` instruments the program already keeps.
//!
//! Layers and metric prefixes: `nn` (an 18-layer mirror of `FluxCnn`, the
//! classifier head and Adam), `core` (the training step loop), `serve` and
//! `wire` (a classifier engine), `skysim` and `dataset` (stamp rendering
//! and the render cache), `loadgen` (the open-loop generator).

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use snia_core::flux_cnn::PoolKind;
use snia_core::train::{joint_batch, joint_examples};
use snia_core::{FluxCnn, LightCurveClassifier};
use snia_dataset::{cache, render_stamp, stamp_key, stamp_pixels, Dataset, DatasetConfig};
use snia_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, PRelu, Padding};
use snia_nn::{Layer, Mode, Sequential, Tensor};
use snia_serve::{parse_request_line, response_line, Response};
use snia_telemetry::HistogramSnapshot;

use crate::serve::{self, ServeConfig};
use crate::stats::{median, us};
use crate::trace::{self, Probe};
use crate::train::{self, TrainConfig};
use crate::{Bench, Metric, Tracer};

const CROP: usize = 60;
const CHANNELS: [usize; 3] = [10, 20, 30];

/// The paper's flux CNN rebuilt layer by layer from the public
/// constructors, in `FluxCnn::new`'s order and RNG draw order.
fn flux_cnn_layers(rng: &mut StdRng) -> Vec<Box<dyn Layer>> {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut in_ch = 1;
    for &out_ch in &CHANNELS {
        layers.push(Box::new(Conv2d::new(in_ch, out_ch, 5, Padding::Same, rng)));
        layers.push(Box::new(BatchNorm2d::new(out_ch)));
        layers.push(Box::new(PRelu::channelwise(out_ch)));
        layers.push(Box::new(MaxPool2d::new(2)));
        in_ch = out_ch;
    }
    let spatial = CROP / 8;
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(
        CHANNELS[2] * spatial * spatial,
        64,
        rng,
    )));
    layers.push(Box::new(PRelu::shared()));
    layers.push(Box::new(Linear::new(64, 32, rng)));
    layers.push(Box::new(PRelu::shared()));
    layers.push(Box::new(Linear::new(32, 1, rng)));
    layers
}

/// Output shape of every layer for a batch of `n` crop-60 images.
fn expected_shapes(n: usize) -> Vec<Vec<usize>> {
    let mut shapes = Vec::new();
    let mut side = CROP;
    for &c in &CHANNELS {
        for _ in 0..3 {
            shapes.push(vec![n, c, side, side]);
        }
        side /= 2;
        shapes.push(vec![n, c, side, side]);
    }
    let flat = CHANNELS[2] * side * side;
    for width in [flat, 64, 64, 32, 32, 1] {
        shapes.push(vec![n, width]);
    }
    shapes
}

fn layer_label(i: usize, layer: &dyn Layer) -> String {
    format!("nn.layer.{i}_{}", layer.name().to_lowercase())
}

/// Per-layer forward (training), backward and eval times of the flux CNN
/// on one real batch of 5·`examples` band stamps, plus conv GFLOP/s.
fn nn_layers(seed: u64, examples: usize, reps: usize, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: examples.div_ceil(4),
        catalog_size: 200,
        seed,
    });
    let idx: Vec<usize> = (0..ds.len()).collect();
    let ex = &joint_examples(&idx)[..examples];
    let (images, _, _, _) = joint_batch(&ds, ex, CROP);
    let n = images.shape()[0];

    let mut layers = flux_cnn_layers(&mut StdRng::seed_from_u64(seed));
    let mut mirror = Sequential::new();
    for layer in flux_cnn_layers(&mut StdRng::seed_from_u64(seed)) {
        mirror.push_boxed(layer);
    }
    let mut reference = FluxCnn::new(CROP, PoolKind::Max, &mut StdRng::seed_from_u64(seed));
    tracer.check(
        "nn_mirror_summary_matches_flux_cnn",
        mirror.summary() == reference.summary(),
    );
    let want = expected_shapes(n);
    let labels: Vec<String> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| layer_label(i, l.as_ref()))
        .collect();

    let mut probe = Probe::default();
    let _root = trace::root("nn");
    let mut shapes_ok = layers.len() == want.len();
    for _ in 0..reps {
        let mut x = images.clone();
        for (i, layer) in layers.iter_mut().enumerate() {
            x = probe.time(&format!("{}.fwd", labels[i]), || {
                layer.forward(&x, Mode::Train)
            });
            shapes_ok &= want.get(i).is_some_and(|s| s.as_slice() == x.shape());
        }
        let mut g = Tensor::ones(x.shape().to_vec());
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            g = probe.time(&format!("{}.bwd", labels[i]), || layer.backward(&g));
        }
        for layer in layers.iter_mut() {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
        let mut x = images.clone();
        for (i, layer) in layers.iter_mut().enumerate() {
            x = probe.time(&format!("{}.eval", labels[i]), || {
                layer.forward(&x, Mode::Eval)
            });
            shapes_ok &= want.get(i).is_some_and(|s| s.as_slice() == x.shape());
        }
    }
    tracer.check("nn_mirror_layer_shapes_match", shapes_ok);
    // The timed layers' batch-norm statistics moved in training mode; the
    // untouched `Sequential` mirror still holds the initial weights.
    let direct = reference.forward(&images, Mode::Eval);
    tracer.check(
        "nn_mirror_output_matches_flux_cnn",
        mirror.forward(&images, Mode::Eval).data() == direct.data(),
    );

    for label in &labels {
        for pass in ["fwd", "bwd", "eval"] {
            out.push(Metric::new(
                format!("{label}.{pass}_ms"),
                probe.median_ms(&format!("{label}.{pass}")),
                "ms",
            ));
        }
    }
    // Convs sit at layers 0, 4 and 8; FLOPs from the shapes (a multiply
    // and an add per weight per output pixel; backward computes both the
    // weight and the input gradient, twice the forward work).
    let mut side = CROP;
    let mut in_ch = 1;
    for (k, &c) in CHANNELS.iter().enumerate() {
        let flops = 2.0 * (n * c * side * side * in_ch * 25) as f64;
        let label = &labels[4 * k];
        for (pass, work) in [("fwd", flops), ("bwd", 2.0 * flops)] {
            let secs = probe.median_ms(&format!("{label}.{pass}")) / 1e3;
            out.push(Metric::new(
                format!("nn.conv.{k}.{pass}_gflops"),
                work / secs / 1e9,
                "GFLOP/s",
            ));
        }
        side /= 2;
        in_ch = c;
    }
}

/// Eval forward of the light-curve classifier at batch 64.
fn nn_classifier(seed: u64, reps: usize, out: &mut Vec<Metric>) {
    let mut clf = LightCurveClassifier::new(1, 100, &mut StdRng::seed_from_u64(seed));
    let x = snia_nn::init::randn_tensor(&mut StdRng::seed_from_u64(seed ^ 1), vec![64, 10], 1.0);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(clf.forward(std::hint::black_box(&x), Mode::Eval));
        times.push(us(t0.elapsed()));
    }
    out.push(Metric::new("nn.clf.eval_us", median(&times), "us"));
}

fn hist(name: &str) -> Option<HistogramSnapshot> {
    snia_telemetry::snapshot()
        .histograms
        .into_iter()
        .find(|h| h.name == name && h.count > 0)
}

/// The training step loop (one epoch) plus the real loop's own
/// `span.batch_ns` / `nn.forward_ns` histograms.
fn core_train(seed: u64, smoke: bool, dir: &Path, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let mut cfg = TrainConfig::joint(smoke);
    if !smoke {
        cfg.train_examples = 32;
    }
    let bench = train::setup(cfg, seed, dir);
    tracer.restart();
    let (_, public) = bench.public_call();
    let public = public.expect("public training call succeeds");
    for (metric, name) in [
        ("core.train.batch_span_ms", "span.batch_ns"),
        ("core.train.forward_ms", "nn.forward_ns"),
    ] {
        let h = hist(name).expect("training loop histograms recorded");
        out.push(Metric::new(metric, h.p50 / 1e6, "ms"));
    }
    let mut probe = Probe::default();
    let steps = {
        let _root = trace::root("core");
        bench.step_loop(Duration::ZERO, &mut probe)
    };
    tracer.check(
        "core_step_loop_matches_public_call",
        steps.epoch_losses[0].to_bits() == public[0].train_loss.to_bits(),
    );
    for name in [
        "core.train.step",
        "core.train.shard_compute",
        "core.train.exec_overhead",
        "core.train.batch_assembly",
        "core.train.val",
    ] {
        out.push(Metric::new(
            format!("{name}_ms"),
            probe.median_ms(name),
            "ms",
        ));
    }
    out.push(Metric::new(
        "nn.optim.adam_ms",
        probe.median_ms("nn.optim.adam"),
        "ms",
    ));
    cache::configure(None).expect("disable render cache");
}

/// A classifier engine under the serve workload's own phases, read back
/// through the engine's `serve.*` histograms, plus direct submit timing.
fn serve_engine(seed: u64, smoke: bool, dir: &Path, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let cfg = ServeConfig::classifier(smoke);
    let mut bench = serve::setup(cfg, seed, &dir.join("bundle"));
    tracer.restart();
    let outcome = {
        let _root = trace::root("serve");
        bench.measure(if smoke { 0.5 } else { 1.5 })
    };
    // The generator's lateness is this probe's `loadgen.lag_p99_ms` result,
    // not a condition on it; the score checks must hold.
    for (name, ok) in outcome.checks.iter().filter(|(n, _)| n.contains("scores")) {
        tracer.check(&format!("serve_probe_{name}"), *ok);
    }
    let size = hist("serve.batch_size").expect("serve.batch_size recorded");
    let batch = hist("serve.batch_ns").expect("serve.batch_ns recorded");
    let latency = hist("serve.latency_ns").expect("serve.latency_ns recorded");
    out.push(Metric::new("serve.batch_size", size.mean, "count"));
    out.push(Metric::new("serve.batch_ms", batch.p50 / 1e6, "ms"));
    out.push(Metric::new(
        "serve.queue_wait_ms",
        (latency.p50 - batch.p50) / 1e6,
        "ms",
    ));
    out.push(Metric::new(
        "loadgen.lag_p99_ms",
        outcome.loadgen_lag_p99_ms.expect("open loop ran"),
        "ms",
    ));

    let n = if smoke { 64 } else { 1000 };
    let (submit_us, answered) = bench.submit_times_us(n);
    tracer.check("serve_probe_direct_submits_answered", answered == n);
    out.push(Metric::new("serve.submit_us", median(&submit_us), "us"));
}

/// Median per-call time of `f` in microseconds, timed in groups of
/// `group` calls so sub-microsecond calls stay measurable.
fn per_call_us(reps: usize, group: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..group {
            f();
        }
        times.push(us(t0.elapsed()) / group as f64);
    }
    median(&times)
}

/// JSONL request parsing and response rendering.
fn wire(seed: u64, smoke: bool, out: &mut Vec<Metric>) {
    let joint = ServeConfig::joint(true);
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: joint.samples,
        catalog_size: 200,
        seed,
    });
    let cutout = serve::request_lines(&joint, &ds).swap_remove(0);
    let clf = ServeConfig::classifier(true);
    let features = serve::request_lines(&clf, &ds).swap_remove(0);
    let reps = if smoke { 3 } else { 15 };
    out.push(Metric::new(
        "wire.parse_us",
        per_call_us(reps, 1, || {
            std::hint::black_box(parse_request_line(&cutout).expect("cutout line parses"));
        }),
        "us",
    ));
    out.push(Metric::new(
        "wire.features_parse_us",
        per_call_us(reps, 200, || {
            std::hint::black_box(parse_request_line(&features).expect("feature line parses"));
        }),
        "us",
    ));
    let resp = Response {
        id: 12_345,
        score: 0.123_456_789,
    };
    out.push(Metric::new(
        "wire.response_us",
        per_call_us(reps, 1000, || {
            std::hint::black_box(response_line(std::hint::black_box(&resp)));
        }),
        "us",
    ));
}

/// Rendering pieces and the render cache's key, write and read costs,
/// each paired per stamp against a direct render.
fn skysim_dataset(seed: u64, smoke: bool, dir: &Path, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: if smoke { 1 } else { 3 },
        catalog_size: 200,
        seed,
    });
    let stamps: Vec<(usize, usize)> = ds
        .samples
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.schedule.observations.len()).map(move |oi| (si, oi)))
        .take(if smoke { 4 } else { 48 })
        .collect();
    let mut probe = Probe::default();
    let _root = trace::root("ingest");
    let mut pixels_ok = true;
    let mut key_us = Vec::new();
    let mut direct = Vec::new();
    for &(si, oi) in &stamps {
        let spec = &ds.samples[si];
        let reference = probe.time("skysim.reference", || spec.matched_reference_image(oi));
        let observation = probe.time("skysim.observation", || spec.observation_image(oi));
        let px = probe.time("skysim.preprocess", || {
            observation
                .subtract(&reference)
                .log_stretch()
                .crop_center(CROP)
        });
        let t0 = Instant::now();
        std::hint::black_box(stamp_key(spec, oi, CROP, true));
        key_us.push(us(t0.elapsed()));
        direct.push(px.data().to_vec());
    }
    let before = cache::stats();
    cache::configure(Some(&dir.join("probe-cache"))).expect("render cache directory");
    let (mut write_us, mut read_us) = (Vec::new(), Vec::new());
    for (k, &(si, oi)) in stamps.iter().enumerate() {
        let spec = &ds.samples[si];
        let t0 = Instant::now();
        let uncached = render_stamp(spec, oi, CROP, true);
        let render = us(t0.elapsed());
        let t0 = Instant::now();
        let cold = stamp_pixels(spec, oi, CROP, true);
        write_us.push(us(t0.elapsed()) - render - key_us[k]);
        pixels_ok &= uncached == direct[k] && cold == direct[k];
    }
    let filled = cache::stats();
    cache::clear_memory();
    for (k, &(si, oi)) in stamps.iter().enumerate() {
        let t0 = Instant::now();
        let warm = stamp_pixels(&ds.samples[si], oi, CROP, true);
        read_us.push(us(t0.elapsed()) - key_us[k]);
        pixels_ok &= warm == direct[k];
    }
    let after = cache::stats();
    cache::configure(None).expect("disable render cache");
    tracer.check("ingest_probe_pixels_match_across_paths", pixels_ok);
    tracer.check(
        "ingest_probe_no_corrupt_entries",
        after.corrupt == before.corrupt,
    );

    out.push(Metric::new(
        "skysim.reference_ms",
        probe.median_ms("skysim.reference"),
        "ms",
    ));
    out.push(Metric::new(
        "skysim.observation_ms",
        probe.median_ms("skysim.observation"),
        "ms",
    ));
    out.push(Metric::new(
        "skysim.preprocess_us",
        probe.median_ms("skysim.preprocess") * 1e3,
        "us",
    ));
    out.push(Metric::new("dataset.cache.key_us", median(&key_us), "us"));
    out.push(Metric::new(
        "dataset.cache.write_us",
        median(&write_us),
        "us",
    ));
    out.push(Metric::new(
        "dataset.cache.disk_read_us",
        median(&read_us),
        "us",
    ));
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    out.push(Metric::new(
        "dataset.cache.hit_ratio",
        hits as f64 / lookups as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "dataset.cache.bytes_written",
        (filled.bytes_written - before.bytes_written) as f64,
        "bytes",
    ));
}

/// Runs every probe and returns the per-layer metrics (all but
/// `telemetry.overhead_pct`, which the caller derives from the workload).
pub fn suite(seed: u64, smoke: bool, dir: &Path, tracer: &mut Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    let (examples, reps) = if smoke { (2, 1) } else { (16, 3) };
    nn_layers(seed, examples, reps, tracer, &mut out);
    nn_classifier(seed, if smoke { 20 } else { 2000 }, &mut out);
    core_train(seed, smoke, &dir.join("core"), tracer, &mut out);
    serve_engine(seed, smoke, &dir.join("serve"), tracer, &mut out);
    wire(seed, smoke, &mut out);
    skysim_dataset(seed, smoke, &dir.join("ingest"), tracer, &mut out);
    out
}

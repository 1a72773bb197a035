//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. signed log-stretch input transform vs. raw difference pixels;
//! 2. max pooling vs. average pooling (the paper argues max matters
//!    because each image holds at most one supernova);
//! 3. highway layers vs. a plain-FC classifier of the same width;
//! 4. shared band weights vs. five per-band specialist CNNs.
//!
//! All ablations use crop 36 and short budgets: the question is relative
//! ordering, not absolute accuracy.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::classifier::LightCurveClassifier;
use snia_core::eval::auc;
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_core::input::mag_to_target;
use snia_core::train::{
    classifier_scores, feature_matrix, flux_pair_refs, train_classifier, ClassifierTrainConfig,
};
use snia_core::{ExperimentConfig, Model};
use snia_dataset::{split_indices, stamp_pixels, Dataset};
use snia_lightcurve::Band;
use snia_nn::layers::{Linear, Relu};
use snia_nn::loss::{bce_with_logits, mse_loss, sigmoid_probs};
use snia_nn::optim::{Adam, Optimizer};
use snia_nn::{Mode, Sequential, Tensor};

const CROP: usize = 36;

#[derive(Serialize)]
struct AblateResult {
    log_stretch_val_mse: f64,
    raw_input_val_mse: f64,
    max_pool_val_mse: f64,
    avg_pool_val_mse: f64,
    highway_auc: f64,
    plain_fc_auc: f64,
    shared_cnn_val_mse: f64,
    per_band_cnn_val_mse: f64,
}

/// Batches `(sample, observation)` refs into an `(N, 1, CROP, CROP)` input
/// and an `(N, 1)` magnitude target, with the log stretch optional.
fn stamp_batch(
    ds: &Dataset,
    refs: impl ExactSizeIterator<Item = (usize, usize)>,
    log_stretch: bool,
) -> (Tensor, Tensor) {
    let n = refs.len();
    let mut x = Vec::with_capacity(n * CROP * CROP);
    let mut t = Vec::with_capacity(n);
    for (si, oi) in refs {
        let s = &ds.samples[si];
        x.extend_from_slice(&stamp_pixels(s, oi, CROP, log_stretch));
        let (band, mjd) = s.schedule.observations[oi];
        t.push(mag_to_target(s.true_mag(band, mjd)));
    }
    (
        Tensor::from_vec(vec![n, 1, CROP, CROP], x),
        Tensor::from_vec(vec![n, 1], t),
    )
}

/// A minimal flux-CNN training loop with configurable input transform,
/// returning the final validation MSE (normalised units).
fn train_flux_variant(
    ds: &Dataset,
    train_refs: &[(usize, usize)],
    val_refs: &[(usize, usize)],
    pool: PoolKind,
    log_stretch: bool,
    epochs: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cnn = FluxCnn::new(CROP, pool, &mut rng);
    let mut opt = Adam::new(1e-3);
    let mut order: Vec<usize> = (0..train_refs.len()).collect();
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(16) {
            let (x, t) = stamp_batch(ds, chunk.iter().map(|&i| train_refs[i]), log_stretch);
            let y = cnn.forward(&x, Mode::Train);
            let (_, grad) = mse_loss(&y, &t);
            cnn.zero_grad();
            cnn.backward(&grad);
            opt.step(&mut cnn.params_mut());
        }
    }
    // Validation MSE.
    let mut loss_sum = 0.0;
    let mut n = 0usize;
    for chunk in val_refs.chunks(32) {
        let (x, t) = stamp_batch(ds, chunk.iter().copied(), log_stretch);
        let y = cnn.forward(&x, Mode::Eval);
        let (loss, _) = mse_loss(&y, &t);
        loss_sum += f64::from(loss) * chunk.len() as f64;
        n += chunk.len();
    }
    loss_sum / n as f64
}

/// Per-band specialists: one CNN per band, each trained only on its band's
/// pairs; returns the pair-weighted validation MSE.
fn train_per_band(
    ds: &Dataset,
    train_refs: &[(usize, usize)],
    val_refs: &[(usize, usize)],
    epochs: usize,
    seed: u64,
) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for band in Band::ALL {
        let band_of = |&(si, oi): &(usize, usize)| ds.samples[si].schedule.observations[oi].0;
        let tr: Vec<(usize, usize)> = train_refs
            .iter()
            .filter(|r| band_of(r) == band)
            .copied()
            .collect();
        let va: Vec<(usize, usize)> = val_refs
            .iter()
            .filter(|r| band_of(r) == band)
            .copied()
            .collect();
        if tr.is_empty() || va.is_empty() {
            continue;
        }
        let mse = train_flux_variant(
            ds,
            &tr,
            &va,
            PoolKind::Max,
            true,
            epochs,
            seed ^ band.index() as u64,
        );
        total += mse * va.len() as f64;
        count += va.len();
    }
    total / count as f64
}

/// A plain-FC classifier of the same depth/width as the highway model.
fn plain_classifier_auc(
    ds: &Dataset,
    tr: &[usize],
    va: &[usize],
    te: &[usize],
    epochs: usize,
    seed: u64,
) -> f64 {
    let (xt, tt, _) = feature_matrix(ds, tr, 1);
    let (xv, tv, _) = feature_matrix(ds, va, 1);
    let (xe, _, labels) = feature_matrix(ds, te, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Linear::new(10, 100, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(100, 100, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(100, 100, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(100, 1, &mut rng));
    let mut opt = Adam::new(3e-3);
    let n = xt.shape()[0];
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(64) {
            let mut xb = Vec::with_capacity(chunk.len() * 10);
            let mut tb = Vec::with_capacity(chunk.len());
            for &i in chunk {
                xb.extend_from_slice(&xt.data()[i * 10..(i + 1) * 10]);
                tb.push(tt.data()[i]);
            }
            let xb = Tensor::from_vec(vec![chunk.len(), 10], xb);
            let tb = Tensor::from_vec(vec![chunk.len(), 1], tb);
            let y = net.forward(&xb, Mode::Train);
            let (_, grad) = bce_with_logits(&y, &tb);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net.params_mut());
        }
    }
    let _ = (xv, tv); // plain model uses the same fixed budget; no early stop
    let y = net.forward(&xe, Mode::Eval);
    let scores: Vec<f64> = sigmoid_probs(&y)
        .data()
        .iter()
        .map(|&p| f64::from(p))
        .collect();
    auc(&scores, &labels)
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("ablate");
    let cfg = ExperimentConfig::from_env();
    progress!("# Ablations (config: {:?})", cfg.dataset);
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);
    let train_refs = flux_pair_refs(&ds, &tr, 2, cfg.seed + 500);
    let val_refs = flux_pair_refs(&ds, &va, 2, cfg.seed + 501);
    let epochs = cfg.scaled(2);

    progress!("\n[1/4] input transform: log-stretch vs raw difference...");
    let log_mse = train_flux_variant(
        &ds,
        &train_refs,
        &val_refs,
        PoolKind::Max,
        true,
        epochs,
        cfg.seed + 1,
    );
    let raw_mse = train_flux_variant(
        &ds,
        &train_refs,
        &val_refs,
        PoolKind::Max,
        false,
        epochs,
        cfg.seed + 1,
    );
    progress!("    log {log_mse:.4} vs raw {raw_mse:.4} (normalised MSE)");

    progress!("[2/4] pooling: max vs average...");
    let max_mse = log_mse; // identical configuration
    let avg_mse = train_flux_variant(
        &ds,
        &train_refs,
        &val_refs,
        PoolKind::Avg,
        true,
        epochs,
        cfg.seed + 1,
    );
    progress!("    max {max_mse:.4} vs avg {avg_mse:.4}");

    progress!("[3/4] classifier: highway vs plain FC...");
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, _, labels) = feature_matrix(&ds, &te, 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed + 61);
    let mut hw = LightCurveClassifier::new(1, 100, &mut rng);
    let ccfg = ClassifierTrainConfig {
        epochs: cfg.scaled(30),
        batch_size: 64,
        lr: 3e-3,
        seed: cfg.seed + 62,
        threads: cfg.threads,
    };
    train_classifier(&mut hw, (&xt, &tt), (&xv, &tv), &ccfg);
    let highway_auc = auc(&classifier_scores(&mut hw, &xe), &labels);
    let plain_auc = plain_classifier_auc(&ds, &tr, &va, &te, cfg.scaled(30), cfg.seed + 63);
    progress!("    highway {highway_auc:.3} vs plain {plain_auc:.3}");

    progress!("[4/4] weight sharing: shared vs per-band CNNs...");
    let shared_mse = log_mse;
    let per_band_mse = train_per_band(&ds, &train_refs, &val_refs, epochs, cfg.seed + 71);
    progress!("    shared {shared_mse:.4} vs per-band {per_band_mse:.4}");

    let mut table = Table::new(vec!["ablation", "paper choice", "alternative", "winner"]);
    let pick = |a: f64, b: f64, lower_better: bool| {
        if (lower_better && a <= b) || (!lower_better && a >= b) {
            "paper choice"
        } else {
            "alternative"
        }
    };
    table.row(vec![
        "input transform (val MSE)".into(),
        format!("log-stretch {log_mse:.4}"),
        format!("raw {raw_mse:.4}"),
        pick(log_mse, raw_mse, true).into(),
    ]);
    table.row(vec![
        "pooling (val MSE)".into(),
        format!("max {max_mse:.4}"),
        format!("avg {avg_mse:.4}"),
        pick(max_mse, avg_mse, true).into(),
    ]);
    table.row(vec![
        "classifier (test AUC)".into(),
        format!("highway {highway_auc:.3}"),
        format!("plain {plain_auc:.3}"),
        pick(highway_auc, plain_auc, false).into(),
    ]);
    table.row(vec![
        "band weights (val MSE)".into(),
        format!("shared {shared_mse:.4}"),
        format!("per-band {per_band_mse:.4}"),
        pick(shared_mse, per_band_mse, true).into(),
    ]);
    table.print("Ablations");

    write_json(
        "ablate",
        &AblateResult {
            log_stretch_val_mse: log_mse,
            raw_input_val_mse: raw_mse,
            max_pool_val_mse: max_mse,
            avg_pool_val_mse: avg_mse,
            highway_auc,
            plain_fc_auc: plain_auc,
            shared_cnn_val_mse: shared_mse,
            per_band_cnn_val_mse: per_band_mse,
        },
    );
}

//! Figure 11: classification performance of the joint image→class model,
//! fine-tuned from the separately pre-trained CNN and classifier.
//!
//! Paper finding to match in shape: the joint model works end-to-end from
//! images (AUC 0.897 at paper scale) but is below the ground-truth-feature
//! classifier (0.958) — estimating magnitudes from single difference
//! images costs accuracy.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::classifier::LightCurveClassifier;
use snia_core::eval::{auc, roc_curve};
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_core::joint::JointModel;
use snia_core::train::{
    feature_matrix, flux_pair_refs, joint_scores, train_classifier, train_flux_cnn, train_joint,
    ClassifierTrainConfig, JointExample,
};
use snia_core::ExperimentConfig;
use snia_dataset::{split_indices, Dataset, EPOCHS_PER_BAND};

#[derive(Serialize)]
struct Fig11Result {
    joint_auc: f64,
    feature_classifier_auc: f64,
    roc: Vec<(f64, f64)>,
}

/// Two joint examples per sample (epochs chosen round-robin) keep the
/// fine-tuning budget bounded; evaluation uses all four epoch sets.
fn two_per_sample(idx: &[usize]) -> Vec<JointExample> {
    idx.iter()
        .flat_map(|&si| {
            // NOTE: the epoch must not depend on the sample's parity — the
            // dataset alternates Ia/non-Ia with the sample index, so an
            // `si % 4` rotation would leak the label through the selected
            // epoch's observation dates. `si / 2` advances once per
            // (Ia, non-Ia) pair, which is parity-neutral.
            [0, 2].into_iter().map(move |k| JointExample {
                sample: si,
                epoch: (si / 2 + k) % EPOCHS_PER_BAND,
            })
        })
        .collect()
}

fn all_epochs(idx: &[usize]) -> Vec<JointExample> {
    snia_core::train::joint_examples(idx)
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("fig11");
    let cfg = ExperimentConfig::from_env();
    progress!("# Figure 11 — joint model ROC (config: {:?})", cfg.dataset);
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);
    let crop = 60;

    // Stage 1: pre-train the flux CNN.
    progress!("\n[1/3] pre-training the band-wise flux CNN...");
    let mut rng = StdRng::seed_from_u64(cfg.seed + 11);
    let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
    let train_refs = flux_pair_refs(&ds, &tr, 2, cfg.seed + 300);
    let val_refs = flux_pair_refs(&ds, &va, 2, cfg.seed + 301);
    let fcfg = ClassifierTrainConfig {
        epochs: cfg.scaled(2),
        batch_size: 16,
        lr: 1e-3,
        seed: cfg.seed + 2,
        threads: cfg.threads,
    };
    let h = train_flux_cnn(&mut cnn, &ds, &train_refs, &val_refs, &fcfg);
    progress!(
        "    final val loss {:.4} (normalised)",
        h.last().unwrap().val_loss
    );

    // Stage 2: pre-train the classifier on ground-truth features.
    progress!("[2/3] pre-training the light-curve classifier...");
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let mut clf = LightCurveClassifier::new(1, 100, &mut rng);
    let ccfg = ClassifierTrainConfig {
        epochs: cfg.scaled(30),
        batch_size: 64,
        lr: 3e-3,
        seed: cfg.seed + 3,
        threads: cfg.threads,
    };
    train_classifier(&mut clf, (&xt, &tt), (&xv, &tv), &ccfg);

    // Reference point: the GT-feature classifier's test AUC.
    let (xe, _, labels_feat) = feature_matrix(&ds, &te, 1);
    let feat_scores = snia_core::train::classifier_scores(&mut clf, &xe);
    let feat_auc = auc(&feat_scores, &labels_feat);

    // Stage 3: assemble and fine-tune the joint model.
    progress!("[3/3] fine-tuning the joint model...");
    let mut jm = JointModel::from_pretrained(cnn, clf);
    let train_ex = two_per_sample(&tr);
    let val_ex = two_per_sample(&va);
    let jcfg = ClassifierTrainConfig {
        epochs: cfg.scaled(3),
        batch_size: 8,
        lr: 5e-4, // small: fine-tuning
        seed: cfg.seed + 4,
        threads: cfg.threads,
    };
    let hist = train_joint(&mut jm, &ds, &train_ex, &val_ex, &jcfg);
    for r in &hist {
        progress!(
            "    epoch {}: train loss {:.3} acc {:.3} | val loss {:.3} acc {:.3}",
            r.epoch,
            r.train_loss,
            r.train_acc,
            r.val_loss,
            r.val_acc
        );
    }

    let test_ex = all_epochs(&te);
    let (scores, labels) = joint_scores(&mut jm, &ds, &test_ex, 16);
    let joint_auc = auc(&scores, &labels);
    let roc: Vec<(f64, f64)> = roc_curve(&scores, &labels)
        .iter()
        .step_by(8)
        .map(|p| (p.fpr, p.tpr))
        .collect();

    let mut table = Table::new(vec!["model", "test AUC"]);
    table.row(vec!["joint (images)".into(), format!("{joint_auc:.3}")]);
    table.row(vec![
        "classifier (GT features)".into(),
        format!("{feat_auc:.3}"),
    ]);
    table.print("Figure 11 — joint model vs. feature classifier");
    progress!("\npaper: joint 0.897 vs features 0.958 — joint below features.");
    progress!(
        "shape check: joint < features here: {}",
        if joint_auc <= feat_auc + 0.01 {
            "yes"
        } else {
            "NO"
        }
    );

    write_json(
        "fig11",
        &Fig11Result {
            joint_auc,
            feature_classifier_auc: feat_auc,
            roc,
        },
    );
}

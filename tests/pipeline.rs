//! End-to-end integration tests spanning all crates: dataset generation →
//! rendering → training → evaluation, plus determinism and checkpointing.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snia_repro::core::classifier::LightCurveClassifier;
use snia_repro::core::eval::auc;
use snia_repro::core::flux_cnn::{FluxCnn, PoolKind};
use snia_repro::core::joint::JointModel;
use snia_repro::core::train::{
    classifier_scores, feature_matrix, flux_pair_refs, joint_scores, train_classifier,
    train_flux_cnn, ClassifierTrainConfig, FluxTrainConfig, JointExample,
};
use snia_repro::dataset::{render_stamp, split_indices, Dataset, DatasetConfig};
use snia_repro::nn::serialize::{restore, snapshot};
use snia_repro::nn::Mode;

fn small_dataset(seed: u64) -> Dataset {
    Dataset::generate(&DatasetConfig {
        n_samples: 60,
        catalog_size: 200,
        seed,
    })
}

#[test]
fn dataset_generation_is_reproducible_end_to_end() {
    let a = small_dataset(5);
    let b = small_dataset(5);
    // Specs equal...
    assert_eq!(a.samples, b.samples);
    // ...and the *rendered pixels* equal too.
    let pa = a.samples[7].flux_pair(3);
    let pb = b.samples[7].flux_pair(3);
    assert_eq!(pa.observation, pb.observation);
    assert_eq!(pa.reference, pb.reference);
}

#[test]
fn feature_classifier_learns_on_tiny_data() {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 300,
        catalog_size: 500,
        seed: 6,
    });
    let (tr, va, te) = split_indices(ds.len(), 1);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, _, labels) = feature_matrix(&ds, &te, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let mut clf = LightCurveClassifier::new(1, 50, &mut rng);
    train_classifier(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs: 20,
            batch_size: 64,
            lr: 3e-3,
            seed: 3,
            threads: 1,
        },
    );
    let scores = classifier_scores(&mut clf, &xe);
    let a = auc(&scores, &labels);
    assert!(a > 0.65, "integration AUC only {a}");
}

#[test]
fn multi_epoch_beats_single_epoch() {
    // The paper's central Figure 10 trend must hold even at small scale.
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 400,
        catalog_size: 600,
        seed: 7,
    });
    let (tr, va, te) = split_indices(ds.len(), 2);
    let mut aucs = Vec::new();
    for k in [1usize, 4] {
        let (xt, tt, _) = feature_matrix(&ds, &tr, k);
        let (xv, tv, _) = feature_matrix(&ds, &va, k);
        let (xe, _, labels) = feature_matrix(&ds, &te, k);
        let mut rng = StdRng::seed_from_u64(4);
        let mut clf = LightCurveClassifier::new(k, 50, &mut rng);
        train_classifier(
            &mut clf,
            (&xt, &tt),
            (&xv, &tv),
            &ClassifierTrainConfig {
                epochs: 20,
                batch_size: 64,
                lr: 3e-3,
                seed: 5,
                threads: 1,
            },
        );
        aucs.push(auc(&classifier_scores(&mut clf, &xe), &labels));
    }
    assert!(
        aucs[1] > aucs[0] - 0.02,
        "4-epoch AUC {} should not trail 1-epoch AUC {}",
        aucs[1],
        aucs[0]
    );
}

#[test]
fn flux_cnn_trains_and_transfers_into_joint_model() {
    let ds = small_dataset(8);
    let (tr, va, _) = split_indices(ds.len(), 3);
    let crop = 36;
    let mut rng = StdRng::seed_from_u64(9);
    let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
    let train_refs = flux_pair_refs(&ds, &tr, 2, 1);
    let val_refs = flux_pair_refs(&ds, &va, 2, 2);
    let hist = train_flux_cnn(
        &mut cnn,
        &ds,
        &train_refs,
        &val_refs,
        &FluxTrainConfig {
            crop,
            epochs: 2,
            batch_size: 8,
            lr: 1e-3,
            pairs_per_sample: 2,
            augment: true,
            seed: 3,
            threads: 1,
        },
    );
    assert!(hist.last().unwrap().train_loss < hist[0].train_loss * 1.5);

    // The trained CNN slots into the joint model and produces scores.
    let clf = LightCurveClassifier::new(1, 16, &mut rng);
    let mut jm = JointModel::from_pretrained(cnn, clf);
    let ex: Vec<JointExample> = (0..4)
        .map(|i| JointExample {
            sample: i,
            epoch: 0,
        })
        .collect();
    let (scores, labels) = joint_scores(&mut jm, &ds, &ex, 2);
    assert_eq!(scores.len(), 4);
    assert_eq!(labels.len(), 4);
    assert!(scores.iter().all(|s| s.is_finite()));
}

#[test]
fn checkpoint_round_trip_preserves_predictions() {
    let ds = small_dataset(10);
    let (tr, ..) = split_indices(ds.len(), 4);
    let (x, _, _) = feature_matrix(&ds, &tr, 1);
    let mut rng = StdRng::seed_from_u64(11);
    let mut a = LightCurveClassifier::new(1, 32, &mut rng);
    let mut b = LightCurveClassifier::new(1, 32, &mut rng);
    let ya = a.forward(&x, Mode::Eval);
    let yb = b.forward(&x, Mode::Eval);
    assert_ne!(ya, yb);
    let ckpt = snapshot(a.network());
    restore(b.network_mut(), &ckpt).expect("same architecture");
    let yb2 = b.forward(&x, Mode::Eval);
    assert_eq!(ya, yb2);
}

#[test]
fn joint_model_forward_is_deterministic_in_eval() {
    let ds = small_dataset(12);
    let mut rng = StdRng::seed_from_u64(13);
    let mut jm = JointModel::from_scratch(36, 8, &mut rng);
    let ex = [JointExample {
        sample: 0,
        epoch: 1,
    }];
    let (s1, _) = joint_scores(&mut jm, &ds, &ex, 1);
    let (s2, _) = joint_scores(&mut jm, &ds, &ex, 1);
    assert_eq!(s1, s2);
}

#[test]
fn rendered_difference_images_are_bounded_after_log_stretch() {
    // The CNN input contract: log-stretched difference pixels stay within
    // a few decades for every sample/epoch combination.
    let ds = small_dataset(14);
    for s in ds.samples.iter().take(10) {
        let px = render_stamp(s, 0, 60, true);
        assert_eq!(px.len(), 60 * 60);
        assert!(
            px.iter().all(|v| v.is_finite() && v.abs() < 5.0),
            "sample {}",
            s.id
        );
    }
}

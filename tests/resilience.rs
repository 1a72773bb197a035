//! Integration tests for the `core::resilience` subsystem: kill-and-resume
//! determinism, fault injection survival, and corrupt-checkpoint handling.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snia_repro::core::classifier::LightCurveClassifier;
use snia_repro::core::flux_cnn::{FluxCnn, PoolKind};
use snia_repro::core::joint::JointModel;
use snia_repro::core::resilience::{
    capture_state, restore_state, CheckpointDir, CheckpointError, FaultPlan, Guardian, ModelState,
    Resilience, TrainState, WatchdogConfig,
};
use snia_repro::core::train::{
    classifier_scores, feature_matrix, flux_pair_refs, joint_examples, joint_scores,
    train_classifier_resilient, train_flux_cnn_resilient, train_joint_resilient,
    ClassifierTrainConfig, FluxTrainConfig,
};
use snia_repro::core::Model;
use snia_repro::dataset::framing::{decode_framed, encode_framed};
use snia_repro::dataset::{split_indices, Dataset, DatasetConfig};
use snia_repro::nn::optim::Adam;
use snia_repro::nn::serialize::{snapshot, LoadError};
use snia_repro::serve::bundle::{BUNDLE_MAGIC, BUNDLE_VERSION, WEIGHTS_FILE};
use snia_repro::serve::{BundleError, ModelBundle};

fn small_dataset(seed: u64) -> Dataset {
    Dataset::generate(&DatasetConfig {
        n_samples: 60,
        catalog_size: 200,
        seed,
    })
}

/// A unique scratch directory, wiped before use.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("snia-resilience-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Bitwise history equality that treats NaN == NaN (regression runs record
/// accuracy as NaN, which breaks plain `assert_eq!`).
fn hist_eq(
    a: &[snia_repro::core::train::TrainRecord],
    b: &[snia_repro::core::train::TrainRecord],
) -> bool {
    let feq = |u: f64, v: f64| u.to_bits() == v.to_bits();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.epoch == y.epoch
                && feq(x.train_loss, y.train_loss)
                && feq(x.val_loss, y.val_loss)
                && feq(x.train_acc, y.train_acc)
                && feq(x.val_acc, y.val_acc)
        })
}

fn clf_config(epochs: usize, threads: usize) -> ClassifierTrainConfig {
    ClassifierTrainConfig {
        epochs,
        batch_size: 16,
        lr: 3e-3,
        seed: 41,
        threads,
    }
}

fn fresh_clf() -> LightCurveClassifier {
    let mut rng = StdRng::seed_from_u64(17);
    LightCurveClassifier::new(1, 16, &mut rng)
}

#[test]
fn classifier_resume_reproduces_uninterrupted_run_exactly() {
    let ds = small_dataset(21);
    let (tr, va, te) = split_indices(ds.len(), 1);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, _, _) = feature_matrix(&ds, &te, 1);

    // Uninterrupted reference run (no resilience machinery at all).
    let mut a = fresh_clf();
    let hist_a = train_classifier_resilient(
        &mut a,
        (&xt, &tt),
        (&xv, &tv),
        &clf_config(4, 1),
        &Resilience::disabled(),
    )
    .expect("reference run");
    assert_eq!(hist_a.len(), 4);

    // Interrupted run: train 2 of 4 epochs with checkpointing, then resume
    // in a FRESH process-equivalent (fresh model, fresh optimizer state) —
    // everything must come back from the checkpoint.
    let dir = scratch_dir("clf-resume");
    let mut b = fresh_clf();
    let partial = train_classifier_resilient(
        &mut b,
        (&xt, &tt),
        (&xv, &tv),
        &clf_config(2, 1),
        &Resilience::with_dir(&dir),
    )
    .expect("partial run");
    assert_eq!(partial.len(), 2);

    let mut c = fresh_clf();
    let hist_c = train_classifier_resilient(
        &mut c,
        (&xt, &tt),
        (&xv, &tv),
        &clf_config(4, 1),
        &Resilience::with_dir(&dir),
    )
    .expect("resumed run");

    // Bit-identical: the full loss history and the final weights match the
    // uninterrupted run exactly, not approximately.
    assert_eq!(hist_a, hist_c);
    assert_eq!(snapshot(a.network()), snapshot(c.network()));
    assert_eq!(
        classifier_scores(&mut a, &xe),
        classifier_scores(&mut c, &xe)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flux_cnn_resume_reproduces_uninterrupted_run_exactly() {
    let ds = small_dataset(22);
    let (tr, va, _) = split_indices(ds.len(), 3);
    let crop = 36;
    let train_refs = flux_pair_refs(&ds, &tr, 1, 1);
    let val_refs = flux_pair_refs(&ds, &va, 1, 2);
    let cfg = |epochs| FluxTrainConfig {
        crop,
        epochs,
        batch_size: 8,
        lr: 1e-3,
        pairs_per_sample: 1,
        augment: true,
        seed: 43,
        threads: 1,
    };
    let fresh = || FluxCnn::new(crop, PoolKind::Max, &mut StdRng::seed_from_u64(19));

    let mut a = fresh();
    let hist_a = train_flux_cnn_resilient(
        &mut a,
        &ds,
        &train_refs,
        &val_refs,
        &cfg(2),
        &Resilience::disabled(),
    )
    .expect("reference run");

    let dir = scratch_dir("flux-resume");
    let mut b = fresh();
    train_flux_cnn_resilient(
        &mut b,
        &ds,
        &train_refs,
        &val_refs,
        &cfg(1),
        &Resilience::with_dir(&dir),
    )
    .expect("partial run");
    let mut c = fresh();
    let hist_c = train_flux_cnn_resilient(
        &mut c,
        &ds,
        &train_refs,
        &val_refs,
        &cfg(2),
        &Resilience::with_dir(&dir),
    )
    .expect("resumed run");

    assert!(hist_eq(&hist_a, &hist_c), "{hist_a:?} != {hist_c:?}");
    assert_eq!(snapshot(a.network()), snapshot(c.network()));
    // BatchNorm running statistics travel through the checkpoint too.
    assert_eq!(a.capture().extra, c.capture().extra);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn joint_resume_reproduces_uninterrupted_run_exactly() {
    // The joint checkpoint concatenates the CNN's state and the
    // classifier's; resume must split it back exactly. The watchdog stays
    // off so only checkpoint/resume separates the two runs.
    let ds = small_dataset(26);
    let (tr, va, te) = split_indices(ds.len(), 4);
    let crop = 16;
    let train_ex = joint_examples(&tr[..4]);
    let val_ex = joint_examples(&va[..2]);
    let test_ex = joint_examples(&te[..2]);
    let cfg = |epochs| ClassifierTrainConfig {
        epochs,
        batch_size: 8,
        lr: 3e-3,
        seed: 47,
        threads: 1,
    };
    let fresh = || JointModel::from_scratch(crop, 8, &mut StdRng::seed_from_u64(23));
    let dir = scratch_dir("joint-resume");
    let checkpointing = || Resilience {
        checkpoint_dir: Some(dir.clone()),
        ..Resilience::disabled()
    };

    let mut a = fresh();
    let hist_a = train_joint_resilient(
        &mut a,
        &ds,
        &train_ex,
        &val_ex,
        &cfg(2),
        &Resilience::disabled(),
    )
    .expect("reference run");
    assert_eq!(hist_a.len(), 2);

    let mut b = fresh();
    let partial = train_joint_resilient(&mut b, &ds, &train_ex, &val_ex, &cfg(1), &checkpointing())
        .expect("partial run");
    assert_eq!(partial.len(), 1);
    let mut c = fresh();
    let hist_c = train_joint_resilient(&mut c, &ds, &train_ex, &val_ex, &cfg(2), &checkpointing())
        .expect("resumed run");

    assert_eq!(hist_a, hist_c);
    // Weights and batch-norm buffers of both parts.
    assert_eq!(a.capture(), c.capture());
    assert_eq!(
        joint_scores(&mut a, &ds, &test_ex, 4),
        joint_scores(&mut c, &ds, &test_ex, 4)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_nan_loss_rolls_back_and_completes_with_halved_lr() {
    let ds = small_dataset(23);
    let (tr, va, _) = split_indices(ds.len(), 1);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);

    let dir = scratch_dir("nan-loss");
    let mut res = Resilience::with_dir(&dir);
    res.faults = FaultPlan::parse("nan_loss@step=2").expect("plan");

    let mut clf = fresh_clf();
    let hist =
        train_classifier_resilient(&mut clf, (&xt, &tt), (&xv, &tv), &clf_config(3, 1), &res)
            .expect("training must survive the injected NaN");
    assert_eq!(hist.len(), 3, "all epochs complete after rollback");
    assert!(hist.iter().all(|r| r.train_loss.is_finite()));

    // The rollback halved the learning rate and the halved rate persisted
    // through every later checkpoint.
    let state = CheckpointDir::new(&dir)
        .load()
        .expect("checkpoint readable")
        .expect("checkpoint present");
    assert!(
        (state.optim.lr - 1.5e-3).abs() < 1e-9,
        "expected halved lr, got {}",
        state.optim.lr
    );
    assert_eq!(state.next_epoch, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_worker_panic_is_survived_at_three_threads() {
    let ds = small_dataset(24);
    let (tr, va, _) = split_indices(ds.len(), 1);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);

    let res = Resilience {
        checkpoint_dir: None,
        watchdog: Some(WatchdogConfig::default()),
        faults: FaultPlan::parse("panic_worker@epoch=0").expect("plan"),
    };
    let mut clf = fresh_clf();
    let hist =
        train_classifier_resilient(&mut clf, (&xt, &tt), (&xv, &tv), &clf_config(2, 3), &res)
            .expect("training must survive the injected worker panic");
    assert_eq!(hist.len(), 2);
    assert!(hist.iter().all(|r| r.train_loss.is_finite()));
}

#[test]
fn corrupt_checkpoint_is_reported_as_a_typed_error() {
    let ds = small_dataset(25);
    let (tr, va, _) = split_indices(ds.len(), 1);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);

    let dir = scratch_dir("corrupt");
    let mut clf = fresh_clf();
    train_classifier_resilient(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &clf_config(1, 1),
        &Resilience::with_dir(&dir),
    )
    .expect("seed run");

    let ckpt = CheckpointDir::new(&dir);
    let mut bytes = std::fs::read(ckpt.latest_path()).expect("checkpoint written");
    let last = bytes.len() - 2;
    bytes[last] ^= 0x55;
    std::fs::write(ckpt.latest_path(), &bytes).expect("rewrite");

    match ckpt.load() {
        Err(CheckpointError::CrcMismatch { .. }) => {}
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restoring_into_a_mismatched_model_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(31);
    let narrow = LightCurveClassifier::new(1, 8, &mut rng);
    let mut wide = LightCurveClassifier::new(1, 32, &mut rng);
    let state = narrow.capture();
    assert!(
        matches!(wide.restore(&state), Err(CheckpointError::Model(_))),
        "shape mismatch must surface as CheckpointError::Model"
    );
}

#[test]
fn optimizer_moments_that_do_not_fit_the_model_are_a_typed_error() {
    let ds = small_dataset(26);
    let (tr, va, _) = split_indices(ds.len(), 1);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);

    let dir = scratch_dir("moments");
    let mut clf = fresh_clf();
    train_classifier_resilient(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &clf_config(1, 1),
        &Resilience::with_dir(&dir),
    )
    .expect("seed run");
    let saved = CheckpointDir::new(&dir)
        .load()
        .expect("checkpoint readable")
        .expect("checkpoint present");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!saved.optim.m.is_empty(), "a trained optimizer has moments");

    let restore = |state: &TrainState| {
        restore_state(
            state,
            &mut fresh_clf(),
            &mut Adam::new(0.1),
            &mut StdRng::seed_from_u64(0),
            &mut Vec::new(),
        )
    };
    // The state as captured, and one from an optimizer that never
    // stepped, both restore.
    restore(&saved).expect("captured state restores");
    let mut fresh = saved.clone();
    fresh.optim.m.clear();
    fresh.optim.v.clear();
    restore(&fresh).expect("fresh optimizer state restores");

    let mut short = saved.clone();
    short.optim.m.last_mut().expect("moments").pop();
    let mut missing = saved.clone();
    missing.optim.v.pop();
    for (name, bad) in [("short-m", short), ("missing-v", missing)] {
        match restore(&bad) {
            Err(CheckpointError::Moments { .. }) => {}
            other => panic!("{name}: expected CheckpointError::Moments, got {other:?}"),
        }
        // The same state read back from a checkpoint directory.
        let dir = scratch_dir(name);
        CheckpointDir::new(&dir).save(&bad).expect("save");
        let res = Resilience::with_dir(&dir);
        let begun = Guardian::new(&res).begin(
            &mut fresh_clf(),
            &mut Adam::new(0.1),
            &mut StdRng::seed_from_u64(0),
            &mut Vec::new(),
        );
        match begun {
            Err(CheckpointError::Moments { .. }) => {}
            other => panic!("{name}: expected CheckpointError::Moments, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A CRC-valid frame whose first tensor holds 79 values for its `[8, 10]`
/// shape: only the restore can catch it, and it must be a typed error.
#[test]
fn tensor_data_that_does_not_fill_its_shape_is_a_typed_error() {
    let clf = || LightCurveClassifier::new(1, 8, &mut StdRng::seed_from_u64(17));
    let is_length_mismatch = |e: &CheckpointError| {
        matches!(
            e,
            CheckpointError::Model(LoadError::LengthMismatch {
                index: 0,
                expected: 80,
                found: 79
            })
        )
    };

    // A bundle whose weights body is re-framed with a valid CRC.
    let dir = scratch_dir("short-bundle");
    ModelBundle::from_classifier(&clf())
        .save(&dir)
        .expect("save bundle");
    let wpath = dir.join(WEIGHTS_FILE);
    let bytes = std::fs::read(&wpath).expect("weights written");
    let body = decode_framed(BUNDLE_MAGIC, BUNDLE_VERSION, &bytes).expect("valid frame");
    let mut state: ModelState =
        serde_json::from_str(std::str::from_utf8(body).expect("utf-8")).expect("state json");
    assert_eq!(state.weights.tensors[0].shape, vec![8, 10]);
    state.weights.tensors[0].data.pop();
    let body = serde_json::to_string(&state).expect("serialize");
    std::fs::write(
        &wpath,
        encode_framed(BUNDLE_MAGIC, BUNDLE_VERSION, body.as_bytes()),
    )
    .expect("rewrite weights");
    let loaded = ModelBundle::load(&dir);
    std::fs::remove_dir_all(&dir).ok();
    match loaded.expect("the frame is valid").instantiate() {
        Err(BundleError::Checkpoint(e)) if is_length_mismatch(&e) => {}
        other => panic!("bundle: expected LengthMismatch, got {other:?}"),
    }

    // A checkpoint, decoded from a CRC-valid file image and from disk.
    let mut short = capture_state(
        &clf(),
        &Adam::new(0.1),
        &StdRng::seed_from_u64(0),
        1,
        0,
        &[],
    );
    short.model.weights.tensors[0].data.pop();
    let decoded = TrainState::from_bytes(&short.to_bytes().expect("encode")).expect("valid frame");
    match restore_state(
        &decoded,
        &mut clf(),
        &mut Adam::new(0.1),
        &mut StdRng::seed_from_u64(0),
        &mut Vec::new(),
    ) {
        Err(e) if is_length_mismatch(&e) => {}
        other => panic!("restore_state: expected LengthMismatch, got {other:?}"),
    }
    let dir = scratch_dir("short-ckpt");
    CheckpointDir::new(&dir).save(&short).expect("save");
    let res = Resilience::with_dir(&dir);
    let begun = Guardian::new(&res).begin(
        &mut clf(),
        &mut Adam::new(0.1),
        &mut StdRng::seed_from_u64(0),
        &mut Vec::new(),
    );
    std::fs::remove_dir_all(&dir).ok();
    match begun {
        Err(e) if is_length_mismatch(&e) => {}
        other => panic!("resume: expected LengthMismatch, got {other:?}"),
    }
}

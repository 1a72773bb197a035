//! Integration tests for the extension subsystems: bogus rejection,
//! SNPCC export, classical photometry and the recurrent baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snia_repro::baselines::rnn::{LstmClassifier, LstmTrainConfig};
use snia_repro::core::bogus::{bogus_cnn_scores, handcrafted_features, BogusCnn};
use snia_repro::core::eval::{auc, fpr_at_tpr, tpr_at_fpr};
use snia_repro::dataset::bogus::{generate_bogus_set, CandidateKind};
use snia_repro::dataset::export::{from_snpcc, to_snpcc};
use snia_repro::dataset::{split_indices, Dataset, DatasetConfig};
use snia_repro::lightcurve::flux_to_mag;
use snia_repro::skysim::photometry::{brightest_pixel, centroid, psf_flux};
use snia_repro::skysim::Psf;

#[test]
fn handcrafted_features_separate_real_from_bogus_without_training() {
    // The sharpness feature alone should give a non-trivial AUC: hot
    // pixels and cosmic rays are sharp, real transients are PSF-smeared.
    let set = generate_bogus_set(200, 1);
    let labels: Vec<bool> = set.iter().map(|e| e.is_real()).collect();
    // Low sharpness => more likely real.
    let scores: Vec<f64> = set.iter().map(|e| -handcrafted_features(e)[0]).collect();
    let subset_labels: Vec<bool> = set
        .iter()
        .zip(&labels)
        .filter(|(e, _)| {
            matches!(
                e.kind,
                CandidateKind::RealTransient | CandidateKind::HotPixel | CandidateKind::CosmicRay
            )
        })
        .map(|(_, &l)| l)
        .collect();
    let subset_scores: Vec<f64> = set
        .iter()
        .zip(&scores)
        .filter(|(e, _)| {
            matches!(
                e.kind,
                CandidateKind::RealTransient | CandidateKind::HotPixel | CandidateKind::CosmicRay
            )
        })
        .map(|(_, &s)| s)
        .collect();
    let a = auc(&subset_scores, &subset_labels);
    assert!(a > 0.8, "sharpness AUC vs sharp artifacts only {a}");
}

#[test]
fn untrained_bogus_cnn_is_chance_level() {
    let set = generate_bogus_set(80, 2);
    let labels: Vec<bool> = set.iter().map(|e| e.is_real()).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let mut cnn = BogusCnn::new(&mut rng);
    let scores = bogus_cnn_scores(&mut cnn, &set);
    let a = auc(&scores, &labels);
    assert!(
        (a - 0.5).abs() < 0.25,
        "untrained CNN suspiciously good: {a}"
    );
}

#[test]
fn operating_point_metrics_are_consistent() {
    let set = generate_bogus_set(150, 4);
    let labels: Vec<bool> = set.iter().map(|e| e.is_real()).collect();
    let scores: Vec<f64> = set.iter().map(|e| -handcrafted_features(e)[0]).collect();
    let tpr = tpr_at_fpr(&scores, &labels, 0.1);
    let fpr = fpr_at_tpr(&scores, &labels, tpr.max(0.01));
    assert!(fpr <= 0.1 + 1e-9, "fpr {fpr} inconsistent with tpr {tpr}");
}

#[test]
fn snpcc_export_round_trips_over_a_dataset() {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 10,
        catalog_size: 60,
        seed: 5,
    });
    for s in &ds.samples {
        let parsed = from_snpcc(&to_snpcc(s)).expect("well-formed");
        assert_eq!(parsed.snid, s.id);
        assert_eq!(parsed.is_ia(), s.is_ia());
        assert_eq!(parsed.points.len(), 20);
    }
}

#[test]
fn photometry_recovers_bright_supernovae() {
    // For the brightest test pairs, classical PSF photometry on the
    // PSF-matched difference image should recover the magnitude well.
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 80,
        catalog_size: 300,
        seed: 6,
    });
    let mut errors = Vec::new();
    for s in &ds.samples {
        for oi in 0..s.schedule.observations.len() {
            let (band, mjd) = s.schedule.observations[oi];
            let true_mag = s.true_mag(band, mjd);
            if !(20.0..23.5).contains(&true_mag) {
                continue;
            }
            let pair = s.flux_pair(oi);
            let diff = pair.observation.subtract(&pair.reference);
            let (bx, by) = brightest_pixel(&diff);
            let (cx, cy) = centroid(&diff, bx, by, 3);
            let psf = Psf::Moffat {
                fwhm: s.obs_conditions[oi].seeing_fwhm_px,
                beta: 3.0,
            };
            let est = flux_to_mag(psf_flux(&diff, &psf, cx, cy).max(0.05));
            errors.push((true_mag - est).abs());
        }
    }
    assert!(
        errors.len() >= 10,
        "not enough bright pairs ({})",
        errors.len()
    );
    let mae = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mae < 0.25, "bright-end photometry MAE {mae}");
}

#[test]
fn lstm_baseline_learns() {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 200,
        catalog_size: 400,
        seed: 7,
    });
    let (tr, _, te) = split_indices(ds.len(), 8);
    let labels: Vec<bool> = te.iter().map(|&i| ds.samples[i].is_ia()).collect();
    let mut model = LstmClassifier::fit(
        &ds,
        &tr,
        4,
        true,
        &LstmTrainConfig {
            epochs: 8,
            ..Default::default()
        },
    );
    let scores = model.score(&ds, &te);
    let a = auc(&scores, &labels);
    assert!(a > 0.6, "LSTM AUC only {a}");
}

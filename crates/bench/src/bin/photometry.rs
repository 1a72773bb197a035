//! Photometry comparison (extension): the classical flux measurements the
//! paper's CNN replaces, head-to-head with the CNN.
//!
//! The introduction motivates the CNN by the cost and complexity of
//! "precise and complex flux measurements". Here we run those classical
//! measurements — aperture photometry and PSF (matched-filter) photometry
//! on the difference image, with the position found by centroiding — on
//! the same test pairs the flux CNN sees, and report the magnitude error
//! of each method.
//!
//! Expected shape: PSF photometry beats aperture photometry; the CNN is
//! competitive with classical photometry despite learning the measurement
//! end-to-end (and never being told the transient's position).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_core::train::{flux_pair_refs, flux_predictions, train_flux_cnn, ClassifierTrainConfig};
use snia_core::ExperimentConfig;
use snia_dataset::{split_indices, Dataset};
use snia_lightcurve::flux_to_mag;
use snia_skysim::photometry::{aperture_flux, brightest_pixel, centroid, psf_flux};
use snia_skysim::Psf;

#[derive(Serialize)]
struct PhotometryResult {
    method: String,
    mae_mag: f64,
    rmse_mag: f64,
    n_pairs: usize,
}

fn error_stats(pairs: &[(f64, f64)]) -> (f64, f64) {
    let mae = pairs.iter().map(|(t, e)| (t - e).abs()).sum::<f64>() / pairs.len() as f64;
    let rmse =
        (pairs.iter().map(|(t, e)| (t - e) * (t - e)).sum::<f64>() / pairs.len() as f64).sqrt();
    (mae, rmse)
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("photometry");
    let cfg = ExperimentConfig::from_env();
    progress!("# Photometry comparison (config: {:?})", cfg.dataset);
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);
    let test_refs = flux_pair_refs(&ds, &te, 4, cfg.seed + 600);

    // --- classical photometry on the difference image ---
    progress!(
        "\n[1/2] classical photometry on {} test pairs...",
        test_refs.len()
    );
    let mut aperture_pairs = Vec::new();
    let mut psf_pairs = Vec::new();
    for &(si, oi) in &test_refs {
        let s = &ds.samples[si];
        let pair = s.flux_pair(oi);
        if pair.true_mag >= 28.0 {
            continue; // undetectable: no meaningful measurement exists
        }
        let diff = pair.observation.subtract(&pair.reference);
        // Find the transient (classical pipelines centroid the detection).
        let (bx, by) = brightest_pixel(&diff);
        let (cx, cy) = centroid(&diff, bx, by, 3);
        let seeing = s.obs_conditions[oi].seeing_fwhm_px;
        // Aperture: r = 1.5 x FWHM, clamped into the stamp.
        let r = (1.5 * seeing).min(12.0);
        let (cx_c, cy_c) = (
            cx.clamp(r + 7.0, 64.0 - r - 7.0),
            cy.clamp(r + 7.0, 64.0 - r - 7.0),
        );
        let ap = aperture_flux(&diff, cx_c, cy_c, r).max(0.05);
        aperture_pairs.push((pair.true_mag, flux_to_mag(ap).clamp(18.0, 30.0)));
        let psf = Psf::Moffat {
            fwhm: seeing,
            beta: 3.0,
        };
        let pf = psf_flux(&diff, &psf, cx, cy).max(0.05);
        psf_pairs.push((pair.true_mag, flux_to_mag(pf).clamp(18.0, 30.0)));
    }
    let (ap_mae, ap_rmse) = error_stats(&aperture_pairs);
    let (psf_mae, psf_rmse) = error_stats(&psf_pairs);
    progress!("    aperture: MAE {ap_mae:.3} mag; PSF: MAE {psf_mae:.3} mag");

    // --- the CNN, trained as in Figure 8 ---
    progress!("[2/2] training the flux CNN...");
    let crop = 60;
    let train_refs = flux_pair_refs(&ds, &tr, 3, cfg.seed + 601);
    let val_refs = flux_pair_refs(&ds, &va, 2, cfg.seed + 602);
    let mut rng = StdRng::seed_from_u64(cfg.seed + 603);
    let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
    train_flux_cnn(
        &mut cnn,
        &ds,
        &train_refs,
        &val_refs,
        &ClassifierTrainConfig {
            epochs: cfg.scaled(3),
            batch_size: 16,
            lr: 1e-3,
            seed: cfg.seed + 604,
            threads: cfg.threads,
        },
    );
    let cnn_pairs: Vec<(f64, f64)> = flux_predictions(&mut cnn, &ds, &test_refs, 32)
        .into_iter()
        .filter(|(t, _)| *t < 28.0)
        .collect();
    let (cnn_mae, cnn_rmse) = error_stats(&cnn_pairs);
    progress!("    CNN: MAE {cnn_mae:.3} mag");

    let mut table = Table::new(vec![
        "method",
        "MAE (mag)",
        "RMSE (mag)",
        "needs SN position?",
    ]);
    table.row(vec![
        "aperture photometry".into(),
        format!("{ap_mae:.3}"),
        format!("{ap_rmse:.3}"),
        "yes (centroided)".into(),
    ]);
    table.row(vec![
        "PSF photometry".into(),
        format!("{psf_mae:.3}"),
        format!("{psf_rmse:.3}"),
        "yes (centroided)".into(),
    ]);
    table.row(vec![
        "flux CNN (ours)".into(),
        format!("{cnn_mae:.3}"),
        format!("{cnn_rmse:.3}"),
        "no".into(),
    ]);
    table.print("Classical photometry vs. the flux CNN (test pairs, mag < 28)");
    progress!(
        "\nshape checks: PSF < aperture error: {}; CNN within ~2x of PSF photometry: {}",
        if psf_mae <= ap_mae { "yes" } else { "NO" },
        if cnn_mae <= 2.0 * psf_mae + 0.2 {
            "yes"
        } else {
            "NO"
        }
    );

    write_json(
        "photometry",
        &vec![
            PhotometryResult {
                method: "aperture".into(),
                mae_mag: ap_mae,
                rmse_mag: ap_rmse,
                n_pairs: aperture_pairs.len(),
            },
            PhotometryResult {
                method: "psf".into(),
                mae_mag: psf_mae,
                rmse_mag: psf_rmse,
                n_pairs: psf_pairs.len(),
            },
            PhotometryResult {
                method: "cnn".into(),
                mae_mag: cnn_mae,
                rmse_mag: cnn_rmse,
                n_pairs: cnn_pairs.len(),
            },
        ],
    );
}

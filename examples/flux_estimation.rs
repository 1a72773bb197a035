//! Flux estimation: train the paper's band-wise CNN to regress supernova
//! magnitudes from (reference, observation) difference images, then
//! inspect its per-magnitude calibration — a miniature of Figure 8.
//!
//! ```sh
//! cargo run --release --example flux_estimation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use snia_repro::core::flux_cnn::{FluxCnn, PoolKind};
use snia_repro::core::train::{
    flux_pair_refs, flux_predictions, train_flux_cnn, ClassifierTrainConfig,
};
use snia_repro::dataset::{split_indices, Dataset, DatasetConfig};

fn main() {
    let config = DatasetConfig {
        n_samples: 300,
        catalog_size: 1500,
        seed: 9,
    };
    println!("generating {} samples...", config.n_samples);
    let ds = Dataset::generate(&config);
    let (train, val, test) = split_indices(ds.len(), config.seed);

    // Each sample contributes a few (reference, observation) pairs; the
    // images are rendered on demand from the generative specs.
    let train_refs = flux_pair_refs(&ds, &train, 3, 1);
    let val_refs = flux_pair_refs(&ds, &val, 2, 2);
    let test_refs = flux_pair_refs(&ds, &test, 4, 3);
    println!(
        "pairs: {} train / {} val / {} test",
        train_refs.len(),
        val_refs.len(),
        test_refs.len()
    );

    // The paper's CNN: 3 x [5x5 conv -> batch-norm -> PReLU -> max-pool],
    // channels 10/20/30, then a 3-layer FC head. Crop 44 keeps this
    // example fast; Table 1 sweeps 36..65.
    let crop = 44;
    let mut rng = StdRng::seed_from_u64(3);
    let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
    println!("\n{}", cnn.summary());

    let history = train_flux_cnn(
        &mut cnn,
        &ds,
        &train_refs,
        &val_refs,
        &ClassifierTrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 1e-3,
            seed: 4,
            threads: 1,
        },
    );
    for h in &history {
        println!(
            "epoch {}: train {:.4}, val {:.4} (normalised MSE)",
            h.epoch, h.train_loss, h.val_loss
        );
    }

    // Calibration on detectable test pairs.
    let preds = flux_predictions(&mut cnn, &ds, &test_refs, 32);
    let detectable: Vec<(f64, f64)> = preds.into_iter().filter(|(t, _)| *t < 28.0).collect();
    let mae = detectable.iter().map(|(t, e)| (t - e).abs()).sum::<f64>() / detectable.len() as f64;
    println!(
        "\ntest: {} detectable pairs, mean |error| = {mae:.3} mag",
        detectable.len()
    );
    println!("\n  true    estimated");
    for (t, e) in detectable.iter().take(12) {
        println!("  {t:.2}   {e:.2}");
    }
}

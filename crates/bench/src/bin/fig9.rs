//! Figure 9: classification with ground-truth light-curve features — ROC
//! and AUC for various hidden-unit counts.
//!
//! Paper findings to match in shape: AUC ≈ 0.958 and "100 units is
//! sufficient" (widths beyond 100 give no further gain).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::classifier::LightCurveClassifier;
use snia_core::eval::{auc, roc_curve};
use snia_core::resilience::Resilience;
use snia_core::train::{
    classifier_scores, feature_matrix, train_classifier_resilient, ClassifierTrainConfig,
};
use snia_core::{resume_from_env_args, ExperimentConfig};
use snia_dataset::{split_indices, Dataset};

#[derive(Serialize)]
struct WidthResult {
    hidden_units: usize,
    auc: f64,
    roc: Vec<(f64, f64)>,
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("fig9");
    let cfg = ExperimentConfig::from_env();
    progress!(
        "# Figure 9 — ROC vs. hidden units (config: {:?})",
        cfg.dataset
    );
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, _, labels) = feature_matrix(&ds, &te, 1);

    // `--resume <dir>` / SNIA_RESUME: each width checkpoints into its own
    // subdirectory so a killed run restarts from the last finished epoch.
    let ckpt_root = resume_from_env_args();

    let mut table = Table::new(vec!["hidden units", "test AUC"]);
    let mut results = Vec::new();
    for &hidden in &[10usize, 50, 100, 200] {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ hidden as u64);
        let mut clf = LightCurveClassifier::new(1, hidden, &mut rng);
        let tcfg = ClassifierTrainConfig {
            epochs: cfg.scaled(30),
            batch_size: 64,
            lr: 3e-3,
            seed: cfg.seed + hidden as u64,
            threads: cfg.threads,
        };
        let res = Resilience::from_env(
            ckpt_root
                .as_ref()
                .map(|root| root.join(format!("hidden{hidden}"))),
        );
        train_classifier_resilient(&mut clf, (&xt, &tt), (&xv, &tv), &tcfg, &res)
            .unwrap_or_else(|e| panic!("fig9 training (hidden {hidden}) failed: {e}"));
        let scores = classifier_scores(&mut clf, &xe);
        let a = auc(&scores, &labels);
        let roc: Vec<(f64, f64)> = roc_curve(&scores, &labels)
            .iter()
            .step_by(8)
            .map(|p| (p.fpr, p.tpr))
            .collect();
        progress!("  hidden {hidden}: AUC {a:.3}");
        table.row(vec![format!("{hidden}"), format!("{a:.3}")]);
        results.push(WidthResult {
            hidden_units: hidden,
            auc: a,
            roc,
        });
    }
    table.print("Figure 9 — single-epoch AUC vs. classifier width");
    progress!("\npaper: AUC 0.958 with 100 units; 100 units sufficient.");
    write_json("fig9", &results);
}

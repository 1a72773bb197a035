//! Table 2: comparison with existing methods, all re-run on the same
//! synthetic test split.
//!
//! Rows:
//! * Poznanski2007 — Bayesian single-epoch, with and without redshift;
//! * Lochner2016 — multi-epoch template-fit features + random forest,
//!   with and without redshift (also the Möller2016 tree-based analogue);
//! * Charnock2016 — multi-epoch LSTM sequence classifier;
//! * Proposed — single-epoch and multi-epoch light-curve-feature
//!   classifier (the paper's Table 2 entries are the ground-truth-feature
//!   results of Figures 9/10).
//!
//! Ordering to match the paper: proposed single-epoch ≫ Poznanski w/o z;
//! proposed single-epoch comparable to multi-epoch baselines; proposed
//! multi-epoch best overall.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_baselines::lochner::LochnerPipeline;
use snia_baselines::poznanski::{epoch_observations, PoznanskiClassifier, PoznanskiConfig};
use snia_baselines::random_forest::ForestConfig;
use snia_baselines::rnn::{LstmClassifier, LstmTrainConfig};
use snia_bench::{progress, write_json, Table};
use snia_core::classifier::LightCurveClassifier;
use snia_core::eval::auc;
use snia_core::train::{
    classifier_scores, feature_matrix, train_classifier, ClassifierTrainConfig,
};
use snia_core::ExperimentConfig;
use snia_dataset::{split_indices, Dataset, EPOCHS_PER_BAND};

#[derive(Serialize)]
struct Row {
    method: String,
    features: String,
    auc: f64,
    paper_quote: String,
}

fn labels_of(ds: &Dataset, idx: &[usize]) -> Vec<bool> {
    idx.iter().map(|&i| ds.samples[i].is_ia()).collect()
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("table2");
    let cfg = ExperimentConfig::from_env();
    progress!("# Table 2 — method comparison (config: {:?})", cfg.dataset);
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, te) = split_indices(ds.len(), cfg.seed);
    let test_labels = labels_of(&ds, &te);
    let mut rows: Vec<Row> = Vec::new();

    // ---- Poznanski 2007: Bayesian single-epoch ----
    // Every test sample contributes its 4 single-epoch subsets.
    progress!("\n[1/5] Poznanski2007 (Bayesian single-epoch)...");
    let poz = PoznanskiClassifier::new(PoznanskiConfig::default());
    let mut scores_z = Vec::new();
    let mut scores_noz = Vec::new();
    let mut labels_se = Vec::new();
    for &i in &te {
        let s = &ds.samples[i];
        for k in 0..EPOCHS_PER_BAND {
            let obs = epoch_observations(s, k);
            scores_z.push(poz.classify(&obs, Some(s.sn.redshift)));
            scores_noz.push(poz.classify(&obs, None));
            labels_se.push(s.is_ia());
        }
    }
    let auc_poz_z = auc(&scores_z, &labels_se);
    let auc_poz_noz = auc(&scores_noz, &labels_se);
    progress!("    with z: {auc_poz_z:.3}, without z: {auc_poz_noz:.3}");
    rows.push(Row {
        method: "Poznanski2007".into(),
        features: "Single-epoch + redshift".into(),
        auc: auc_poz_z,
        paper_quote: "accuracy 0.97 (SNLS) / ~0.9 (synthetic)".into(),
    });
    rows.push(Row {
        method: "Poznanski2007".into(),
        features: "Single-epoch, w/o redshift".into(),
        auc: auc_poz_noz,
        paper_quote: "accuracy 0.60 (SNLS)".into(),
    });

    // ---- Lochner 2016: template fits + random forest ----
    progress!("[2/5] Lochner2016 (template fits + random forest)...");
    let forest = ForestConfig {
        n_trees: 80,
        ..Default::default()
    };
    for use_z in [true, false] {
        let pipe = LochnerPipeline::fit(&ds, &tr, 4, use_z, &forest);
        let scores = pipe.score(&ds, &te);
        let a = auc(&scores, &test_labels);
        progress!("    {}: {a:.3}", if use_z { "with z" } else { "without z" });
        rows.push(Row {
            method: "Lochner2016".into(),
            features: if use_z {
                "Multi-epoch (4) + redshift".into()
            } else {
                "Multi-epoch (4), w/o redshift".into()
            },
            auc: a,
            paper_quote: if use_z {
                "0.984 (SNPCC)"
            } else {
                "0.976 (SNPCC)"
            }
            .into(),
        });
    }
    // Möller2016 is methodologically the with-redshift tree pipeline.
    rows.push(Row {
        method: "Moller2016 (tree analogue)".into(),
        features: "Multi-epoch + redshift".into(),
        auc: rows[2].auc,
        paper_quote: "0.97 (SNLS3)".into(),
    });

    // ---- Charnock & Moss 2016: recurrent sequences ----
    progress!("[3/5] Charnock2016 (LSTM sequences)...");
    let lcfg = LstmTrainConfig {
        epochs: cfg.scaled(20),
        ..Default::default()
    };
    for use_z in [true, false] {
        let mut lstm = LstmClassifier::fit(&ds, &tr, 4, use_z, &lcfg);
        let scores = lstm.score(&ds, &te);
        let a = auc(&scores, &test_labels);
        progress!("    {}: {a:.3}", if use_z { "with z" } else { "without z" });
        rows.push(Row {
            method: "Charnock2016".into(),
            features: if use_z {
                "Multi-epoch (4) + redshift".into()
            } else {
                "Multi-epoch (4), w/o redshift".into()
            },
            auc: a,
            paper_quote: "0.981 (SNPCC)".into(),
        });
    }

    // ---- Proposed: light-curve-feature classifier ----
    progress!("[4/5] proposed single-epoch...");
    let (xt1, tt1, _) = feature_matrix(&ds, &tr, 1);
    let (xv1, tv1, _) = feature_matrix(&ds, &va, 1);
    let (xe1, _, le1) = feature_matrix(&ds, &te, 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed + 31);
    let mut clf1 = LightCurveClassifier::new(1, 100, &mut rng);
    let ccfg = ClassifierTrainConfig {
        epochs: cfg.scaled(30),
        batch_size: 64,
        lr: 3e-3,
        seed: cfg.seed + 32,
        threads: cfg.threads,
    };
    train_classifier(&mut clf1, (&xt1, &tt1), (&xv1, &tv1), &ccfg);
    let auc_single = auc(&classifier_scores(&mut clf1, &xe1), &le1);
    progress!("    AUC {auc_single:.3}");
    rows.push(Row {
        method: "Proposed".into(),
        features: "Single-epoch, w/o redshift".into(),
        auc: auc_single,
        paper_quote: "0.958".into(),
    });

    progress!("[5/5] proposed multi-epoch...");
    let (xt4, tt4, _) = feature_matrix(&ds, &tr, 4);
    let (xv4, tv4, _) = feature_matrix(&ds, &va, 4);
    let (xe4, _, le4) = feature_matrix(&ds, &te, 4);
    let mut clf4 = LightCurveClassifier::new(4, 100, &mut rng);
    train_classifier(&mut clf4, (&xt4, &tt4), (&xv4, &tv4), &ccfg);
    let auc_multi = auc(&classifier_scores(&mut clf4, &xe4), &le4);
    progress!("    AUC {auc_multi:.3}");
    rows.push(Row {
        method: "Proposed".into(),
        features: "Multi-epoch (4), w/o redshift".into(),
        auc: auc_multi,
        paper_quote: "0.995".into(),
    });

    let mut table = Table::new(vec!["Method", "Features", "AUC (measured)", "Paper"]);
    for r in &rows {
        table.row(vec![
            r.method.clone(),
            r.features.clone(),
            format!("{:.3}", r.auc),
            r.paper_quote.clone(),
        ]);
    }
    table.print("Table 2 — comparisons with existing methods");

    progress!("\nordering checks (the paper's claims):");
    progress!(
        "  (1) proposed single ≫ Poznanski w/o z: {} ({:.3} vs {:.3})",
        if auc_single > auc_poz_noz + 0.05 {
            "yes"
        } else {
            "NO"
        },
        auc_single,
        auc_poz_noz
    );
    let best_multi_baseline = rows
        .iter()
        .filter(|r| r.features.starts_with("Multi-epoch") && r.method != "Proposed")
        .map(|r| r.auc)
        .fold(0.0, f64::max);
    progress!(
        "  (2) proposed single comparable to multi-epoch baselines: {:.3} vs best baseline {:.3}",
        auc_single,
        best_multi_baseline
    );
    progress!(
        "  (3) proposed multi best overall: {} ({:.3})",
        if auc_multi >= best_multi_baseline - 0.005 {
            "yes"
        } else {
            "NO"
        },
        auc_multi
    );

    write_json("table2", &rows);
}

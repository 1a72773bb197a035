//! Figure 12: joint-model training from scratch (dashed in the paper)
//! vs. fine-tuning from pre-trained parts (solid).
//!
//! Paper findings to match in shape: fine-tuning starts at a much better
//! loss, converges faster, and ends better than training from scratch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snia_bench::{progress, write_json, Table};
use snia_core::classifier::LightCurveClassifier;
use snia_core::flux_cnn::{FluxCnn, PoolKind};
use snia_core::joint::JointModel;
use snia_core::resilience::Resilience;
use snia_core::train::{
    feature_matrix, flux_pair_refs, train_classifier_resilient, train_flux_cnn_resilient,
    train_joint_resilient, ClassifierTrainConfig, JointExample, TrainRecord,
};
use snia_core::{resume_from_env_args, ExperimentConfig};
use snia_dataset::{split_indices, Dataset, EPOCHS_PER_BAND};

#[derive(Serialize)]
struct Fig12Result {
    fine_tune: Vec<TrainRecord>,
    from_scratch: Vec<TrainRecord>,
}

/// Resilience policy for one of the figure's four training stages: each
/// stage checkpoints into its own subdirectory of the `--resume` /
/// `SNIA_RESUME` root so a killed run restarts mid-pipeline.
fn stage_res(root: &Option<std::path::PathBuf>, stage: &str) -> Resilience {
    Resilience::from_env(root.as_ref().map(|root| root.join(stage)))
}

fn one_per_sample(idx: &[usize]) -> Vec<JointExample> {
    idx.iter()
        .map(|&si| JointExample {
            sample: si,
            // `si / 2`, not `si`: the dataset alternates Ia/non-Ia with
            // the sample index, so an `si % 4` epoch choice would leak the
            // label through the epoch's observation dates.
            epoch: (si / 2) % EPOCHS_PER_BAND,
        })
        .collect()
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("fig12");
    let cfg = ExperimentConfig::from_env();
    progress!(
        "# Figure 12 — fine-tuning vs. from scratch (config: {:?})",
        cfg.dataset
    );
    let ds = Dataset::generate(&cfg.dataset);
    let (tr, va, _) = split_indices(ds.len(), cfg.seed);
    let crop = 60;
    let train_ex = one_per_sample(&tr);
    let val_ex = one_per_sample(&va);
    let epochs = cfg.scaled(3);
    let ckpt_root = resume_from_env_args();

    // --- fine-tuned variant: pre-train both parts first ---
    progress!("\npre-training parts for the fine-tuned variant...");
    let mut rng = StdRng::seed_from_u64(cfg.seed + 21);
    let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
    let train_refs = flux_pair_refs(&ds, &tr, 2, cfg.seed + 400);
    let val_refs = flux_pair_refs(&ds, &va, 2, cfg.seed + 401);
    train_flux_cnn_resilient(
        &mut cnn,
        &ds,
        &train_refs,
        &val_refs,
        &ClassifierTrainConfig {
            epochs: cfg.scaled(2),
            batch_size: 16,
            lr: 1e-3,
            seed: cfg.seed + 5,
            threads: cfg.threads,
        },
        &stage_res(&ckpt_root, "flux"),
    )
    .unwrap_or_else(|e| panic!("fig12 flux pre-training failed: {e}"));
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let mut clf = LightCurveClassifier::new(1, 100, &mut rng);
    train_classifier_resilient(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs: cfg.scaled(30),
            batch_size: 64,
            lr: 3e-3,
            seed: cfg.seed + 6,
            threads: cfg.threads,
        },
        &stage_res(&ckpt_root, "classifier"),
    )
    .unwrap_or_else(|e| panic!("fig12 classifier pre-training failed: {e}"));
    let mut fine = JointModel::from_pretrained(cnn, clf);
    progress!("fine-tuning...");
    let fine_hist = train_joint_resilient(
        &mut fine,
        &ds,
        &train_ex,
        &val_ex,
        &ClassifierTrainConfig {
            epochs,
            batch_size: 8,
            lr: 2e-4,
            seed: cfg.seed + 7,
            threads: cfg.threads,
        },
        &stage_res(&ckpt_root, "fine_tune"),
    )
    .unwrap_or_else(|e| panic!("fig12 fine-tuning failed: {e}"));

    // --- from-scratch variant: same joint budget, fresh weights ---
    progress!("training from scratch...");
    let mut rng2 = StdRng::seed_from_u64(cfg.seed + 22);
    let mut scratch = JointModel::from_scratch(crop, 100, &mut rng2);
    let scratch_hist = train_joint_resilient(
        &mut scratch,
        &ds,
        &train_ex,
        &val_ex,
        &ClassifierTrainConfig {
            epochs,
            batch_size: 8,
            lr: 1e-3, // scratch needs a full-size rate
            seed: cfg.seed + 8,
            threads: cfg.threads,
        },
        &stage_res(&ckpt_root, "scratch"),
    )
    .unwrap_or_else(|e| panic!("fig12 from-scratch training failed: {e}"));

    let mut table = Table::new(vec![
        "epoch",
        "fine-tune train loss",
        "fine-tune val acc",
        "scratch train loss",
        "scratch val acc",
    ]);
    for e in 0..fine_hist.len().min(scratch_hist.len()) {
        table.row(vec![
            format!("{e}"),
            format!("{:.3}", fine_hist[e].train_loss),
            format!("{:.3}", fine_hist[e].val_acc),
            format!("{:.3}", scratch_hist[e].train_loss),
            format!("{:.3}", scratch_hist[e].val_acc),
        ]);
    }
    table.print("Figure 12 — training curves");
    match (
        fine_hist.first().zip(fine_hist.last()),
        scratch_hist.first().zip(scratch_hist.last()),
    ) {
        (Some((ft_first, ft_last)), Some((sc_first, sc_last))) => {
            progress!("\nshape checks (paper: fine-tuning better and faster):");
            progress!(
                "  fine-tune starts better: {} ({:.3} vs {:.3})",
                if ft_first.train_loss < sc_first.train_loss {
                    "yes"
                } else {
                    "NO"
                },
                ft_first.train_loss,
                sc_first.train_loss
            );
            progress!(
                "  fine-tune ends >= scratch in val acc: {} ({:.3} vs {:.3})",
                if ft_last.val_acc >= sc_last.val_acc - 0.02 {
                    "yes"
                } else {
                    "NO"
                },
                ft_last.val_acc,
                sc_last.val_acc
            );
        }
        _ => progress!("\nno epochs trained (epochs = 0); skipping shape checks."),
    }

    write_json(
        "fig12",
        &Fig12Result {
            fine_tune: fine_hist,
            from_scratch: scratch_hist,
        },
    );
}

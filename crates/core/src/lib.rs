//! # snia-core
//!
//! The primary contribution of Kimura et al. (2017): single-epoch supernova
//! classification directly from telescope images.
//!
//! Three models, matching the paper's Figure 6:
//!
//! * [`FluxCnn`] — the band-wise convolutional magnitude estimator
//!   (Figure 7): difference image → `sgn·log10(|x|+1)` → crop → three
//!   [5×5 conv → batch-norm → PReLU → 2×2 max-pool] blocks with 10/20/30
//!   channels → three fully-connected layers → magnitude. One set of
//!   weights shared across all five bands.
//! * [`LightCurveClassifier`] — the fully-connected SNIa-vs-rest classifier
//!   over 10-dimensional (5 magnitudes + 5 dates) light-curve features:
//!   input FC layer, two highway layers, output FC layer.
//! * [`JointModel`] — the end-to-end image→class model: five shared-weight
//!   band CNNs feeding the classifier, fine-tuned from the separately
//!   pre-trained parts (or trained from scratch, for the Figure 12
//!   comparison).
//!
//! All three implement [`Model`], the trait the training loop
//! ([`train`]), the data-parallel executor ([`parallel`]) and
//! checkpointing ([`resilience`]) work through.
//!
//! Plus the training loop ([`train`]), evaluation metrics
//! ([`eval`]: ROC/AUC, regression losses) and experiment configuration
//! ([`config`]: `SNIA_SCALE` / `SNIA_FULL` / `SNIA_SEED` environment
//! overrides) used by every experiment regenerator in `snia-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bogus;
pub mod classifier;
pub mod config;
pub mod eval;
pub mod flux_cnn;
pub mod input;
pub mod joint;
pub mod model;
pub mod parallel;
pub mod resilience;
pub mod train;

pub use classifier::LightCurveClassifier;
pub use config::{
    render_cache_from_args, render_cache_from_env_args, resume_from_args, resume_from_env_args,
    ConfigError, ExperimentConfig,
};
pub use eval::{auc, roc_curve, RocPoint};
pub use flux_cnn::FluxCnn;
pub use input::{mag_to_target, target_to_mag};
pub use joint::JointModel;
pub use model::Model;
pub use parallel::BatchExecutor;
pub use resilience::{CheckpointDir, CheckpointError, FaultPlan, Resilience, TrainState};
pub use train::TrainError;

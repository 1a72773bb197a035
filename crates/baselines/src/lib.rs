//! # snia-baselines
//!
//! Reimplementations of the photometric-classification baselines the paper
//! compares against in Table 2. The original systems ran on SNLS / SNPCC
//! data that contains no images; here every method is re-run on *our*
//! synthetic dataset so the comparison in Table 2 can actually be measured
//! rather than quoted.
//!
//! * [`poznanski`] — Bayesian single-epoch template classifier
//!   (Poznanski, Maoz & Gal-Yam 2007), with and without a known redshift.
//! * [`fitting`] + [`lochner`] — light-curve template fitting producing
//!   per-type goodness-of-fit features, fed to a random forest
//!   (Lochner et al. 2016's best pipeline, which also covers the
//!   Möller et al. 2016 BDT approach in spirit).
//! * [`rnn`] — an LSTM sequence classifier over multi-epoch photometry
//!   (Charnock & Moss 2016).
//! * [`random_forest`] — the from-scratch random-forest learner used by the
//!   Lochner-style pipeline (CART trees, bootstrap bagging, √d feature
//!   subsampling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fitting;
pub mod lochner;
pub mod poznanski;
pub mod random_forest;
pub mod rnn;

pub use lochner::LochnerPipeline;
pub use poznanski::PoznanskiClassifier;
pub use random_forest::RandomForest;
pub use rnn::LstmClassifier;

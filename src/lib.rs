//! # snia-repro
//!
//! A full Rust reproduction of **"Single-epoch supernova classification
//! with deep convolutional neural networks"** (Kimura, Takahashi, Tanaka,
//! Yasuda, Ueda, Yoshida; 2017).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`nn`] — the from-scratch CPU neural-network library (tensors, conv,
//!   batch-norm, PReLU, highway, LSTM, optimizers, losses).
//! * [`lightcurve`] — supernova light-curve templates, priors, photometry
//!   and cosmology.
//! * [`skysim`] — the synthetic sky-survey image simulator (galaxy catalog,
//!   Sérsic profiles, PSFs, observing conditions, difference imaging).
//! * [`dataset`] — the paper's synthetic dataset: sample specs, observation
//!   scheduling, on-demand rendering, features and splits.
//! * [`core`] — the paper's models: band-wise flux CNN, highway light-curve
//!   classifier, joint fine-tuned model, training loops and metrics.
//! * [`baselines`] — the Table 2 comparison methods: Bayesian single-epoch
//!   (Poznanski 2007), template-fit + random forest (Lochner 2016), LSTM
//!   sequences (Charnock & Moss 2016).
//! * [`serve`] — batched online inference: serialized model bundles, a
//!   micro-batching engine with latency budgets, and the `snia serve`
//!   JSONL wire format.
//!
//! ## Quickstart
//!
//! ```
//! use snia_repro::dataset::{Dataset, DatasetConfig};
//!
//! // A tiny deterministic dataset: half SNIa, half contaminants.
//! let ds = Dataset::generate(&DatasetConfig {
//!     n_samples: 4,
//!     catalog_size: 50,
//!     seed: 1,
//! });
//! let sample = &ds.samples[0];
//! let pair = sample.flux_pair(0); // (reference, observation, true mag)
//! assert_eq!(pair.reference.width(), 65);
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end train-and-evaluate run,
//! and the `snia-bench` binaries for the per-table/figure experiment
//! regenerators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use snia_baselines as baselines;
pub use snia_core as core;
pub use snia_dataset as dataset;
pub use snia_lightcurve as lightcurve;
pub use snia_nn as nn;
pub use snia_serve as serve;
pub use snia_skysim as skysim;

//! # snia-serve
//!
//! Online inference for trained supernova classifiers — the missing last
//! mile between a checkpoint on disk and a survey alert stream (the
//! paper's §5 motivates exactly this: vetting single-epoch transient
//! alerts at HSC/LSST volumes).
//!
//! Three pieces:
//!
//! * [`bundle`] — the on-disk **model bundle**: a JSON manifest describing
//!   the architecture plus a CRC-framed weight file (`SNIA-BUNDLE v1`,
//!   sharing the training checkpoints' CRC envelope and [`ModelState`]
//!   capture/restore), enough to reconstruct either the light-curve
//!   classifier or the end-to-end joint image model for inference.
//! * [`engine`] — the **micro-batching engine**: requests land on a
//!   bounded in-process queue and a worker pool (one model replica per
//!   worker, built with [`snia_core::Model::replicate`]) drains them in dynamic batches. A batch is flushed as
//!   soon as `max_batch` requests are pending *or* the oldest pending
//!   request has waited `max_wait` — so throughput comes from batching
//!   but tail latency stays bounded. When the queue is full, submissions
//!   are shed with a typed [`ServeError::Overloaded`] instead of blocking.
//! * [`wire`] — the JSONL request/response format used by `snia serve`.
//!
//! Batching never changes answers: evaluation-mode forward passes are
//! row-independent (the GEMM kernels sum the reduction dimension in a
//! fixed order per output element, batch-norm applies frozen running
//! statistics elementwise), so a request's score is bit-identical whether
//! it is scored alone, inside any batch, or by any worker replica. The
//! golden suite in `tests/golden.rs` pins this.
//!
//! Telemetry (`serve.*`): `serve.queue_depth` gauge, `serve.batch_size`
//! and `serve.latency_ns` histograms (p50/p99 via the registry snapshot),
//! `serve.requests_total` / `serve.batches_total` / `serve.shed_total`
//! counters.
//!
//! [`ModelState`]: snia_core::resilience::ModelState
//! [`ServeError::Overloaded`]: engine::ServeError::Overloaded

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod engine;
pub mod wire;

pub use bundle::{BundleError, Manifest, ModelBundle, ModelKind, ServedModel};
pub use engine::{Engine, EngineConfig, Request, RequestInput, Response, ServeError, Ticket};
pub use wire::{parse_request_line, response_line, serve_lines, ServeSummary, WireError};

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
//!   worker, built with [`snia_core::Model::replicate`]) drains them in
//!   dynamic batches. Batching is work-conserving: a worker that was
//!   idle scores what it wakes to at once (up to `max_batch` requests),
//!   so a request that finds a worker free never waits out a deadline.
//!   Requests that queue behind busy workers wait for batch-mates until
//!   `max_batch` are pending *or* the oldest has waited `max_wait` — so
//!   throughput comes from batching under load but tail latency stays
//!   bounded. When the queue is full, submissions are shed with a typed
//!   [`ServeError::Overloaded`] instead of blocking.
//! * [`wire`] — the JSONL request/response format used by `snia serve`.
//!
//! Batching never changes answers: evaluation-mode forward passes are
//! row-independent (the GEMM kernels sum the reduction dimension in a
//! fixed order per output element, batch-norm applies frozen running
//! statistics elementwise), so a request's score is bit-identical whether
//! it is scored alone, inside any batch, or by any worker replica. The
//! golden suite in `tests/golden.rs` pins this.
//!
//! Telemetry (`serve.*`): `serve.queue_depth` gauge; histograms (p50/p99
//! via the registry snapshot) of `serve.batch_size`, `serve.queue_wait_ns`
//! (per request, enqueue to batch cut), `serve.batch_ns` (per batch,
//! compute) and `serve.latency_ns` (per request, enqueue to answer);
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

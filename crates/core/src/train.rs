//! Training for the three models.
//!
//! One loop (`fit`) trains every model on one schedule,
//! [`ClassifierTrainConfig`]; a small per-model task supplies the
//! examples, loss and end-of-epoch evaluation. Training is
//! deterministic given the seed, stream-renders batches from
//! [`SampleSpec`]s (images are never cached across epochs, so memory stays
//! flat even at paper scale) and records per-epoch train/val curves for
//! the Figure 12 experiment.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use snia_dataset::{epoch_features, Dataset, SampleSpec, EPOCHS_PER_BAND};
use snia_nn::loss::{bce_with_logits, mse_loss, sigmoid_probs};
use snia_nn::optim::{Adam, Optimizer};
use snia_nn::{Mode, Param, Tensor};

use crate::classifier::LightCurveClassifier;
use crate::flux_cnn::FluxCnn;
use crate::input::{mag_to_target, target_to_mag};
use crate::joint::JointModel;
use crate::parallel::{BatchExecutor, ShardStats};
use crate::resilience::{CheckpointError, Divergence, Guardian, Resilience};
use crate::Model;

/// One epoch of a training history.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainRecord {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation loss after the epoch.
    pub val_loss: f64,
    /// Training accuracy (classification runs; `NaN` for regression).
    pub train_acc: f64,
    /// Validation accuracy (classification runs; `NaN` for regression).
    pub val_acc: f64,
}

/// Errors from the resilient training entry points.
#[derive(Debug)]
pub enum TrainError {
    /// A train or validation split was empty.
    EmptySplit {
        /// Which inputs were empty.
        what: &'static str,
    },
    /// Saving, loading or applying a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The run diverged and the rollback retry budget is exhausted.
    Diverged {
        /// Which model was training.
        model: &'static str,
        /// Epoch during which the final divergence happened.
        epoch: usize,
        /// What the watchdog detected.
        reason: Divergence,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptySplit { what } => write!(f, "empty split: no {what}"),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::Diverged {
                model,
                epoch,
                reason,
            } => write!(
                f,
                "{model} training diverged at epoch {epoch} with retries exhausted: {reason}"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// L2 norm of every accumulated parameter gradient (NaN/Inf propagate, so
/// the watchdog sees non-finite gradients as a non-finite norm).
fn grad_norm(params: &[&Param]) -> f64 {
    params
        .iter()
        .map(|p| {
            p.grad
                .data()
                .iter()
                .map(|&g| f64::from(g) * f64::from(g))
                .sum::<f64>()
        })
        .sum::<f64>()
        .sqrt()
}

/// A shard's loss gradient scaled by its share of the minibatch (see
/// [`BatchExecutor::step`]).
fn scaled(grad: Tensor, scale: f32) -> Tensor {
    if scale == 1.0 {
        grad
    } else {
        &grad * scale
    }
}

/// Number of logits whose 0.5-threshold sigmoid matches the binary target.
fn correct_count(logits: &Tensor, targets: &Tensor) -> usize {
    sigmoid_probs(logits)
        .data()
        .iter()
        .zip(targets.data())
        .filter(|(&p, &t)| (p >= 0.5) == (t >= 0.5))
        .count()
}

// ---------------------------------------------------------------------------
// The training loop
// ---------------------------------------------------------------------------

/// What one model's training run supplies to [`fit`]: its examples, its
/// loss and its end-of-epoch evaluation. Shuffling, sharding, fault
/// injection, the watchdog, rollback, Adam and checkpointing are shared.
trait Task: Sync {
    /// The model being trained.
    type Model: Model;
    /// Model name in spans and [`TrainError::Diverged`].
    const NAME: &'static str;
    /// What [`TrainError::EmptySplit`] reports for an empty split.
    const EXAMPLES: &'static str;

    /// Training and validation example counts.
    fn sizes(&self) -> (usize, usize);

    /// One training example's draw from the master RNG, made in example
    /// order before the batch is sharded (so the stream is identical for
    /// every thread count). Tasks without random augmentation draw
    /// nothing.
    fn draw(&self, _rng: &mut StdRng) -> u8 {
        0
    }

    /// Renders the training examples `examples` (indices into the
    /// training split) with their draws, runs the training-mode forward
    /// pass through [`timed_forward`], and backpropagates the loss
    /// gradient scaled by `scale` (the shard's share of the minibatch).
    fn shard(
        &self,
        model: &mut Self::Model,
        examples: &[usize],
        draws: &[u8],
        scale: f32,
    ) -> ShardStats;

    /// End-of-epoch `(val_loss, train_acc, val_acc)`, given the epoch's
    /// mean minibatch accuracy.
    fn evaluate(&self, model: &mut Self::Model, batch_acc: f64) -> (f64, f64, f64);
}

/// Trains `model` on `task` with Adam minibatches under the resilience
/// policy `res`, recording one [`TrainRecord`] per epoch. With
/// [`Resilience::disabled`] nothing but the plain loop runs.
fn fit<T: Task>(
    task: &T,
    model: &mut T::Model,
    cfg: &ClassifierTrainConfig,
    res: &Resilience,
) -> Result<Vec<TrainRecord>, TrainError> {
    let (n_train, n_val) = task.sizes();
    if n_train == 0 || n_val == 0 {
        return Err(TrainError::EmptySplit { what: T::EXAMPLES });
    }
    if cfg.epochs == 0 {
        return Ok(Vec::new());
    }
    let _fit = snia_telemetry::span!("fit", model = T::NAME, epochs = cfg.epochs);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut exec = BatchExecutor::new(&*model, cfg.threads);
    let mut order: Vec<usize> = (0..n_train).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut guard = Guardian::new(res);
    let start = guard.begin(model, &mut opt, &mut rng, &mut history)?;
    let mut epoch = start.epoch;
    let mut step = start.step;
    'epochs: while epoch < cfg.epochs {
        guard.maybe_kill(epoch);
        let _epoch_span = snia_telemetry::span!("epoch", epoch = epoch);
        let epoch_start = std::time::Instant::now();
        // Reset to identity before shuffling: the epoch's permutation must
        // be a pure function of the RNG stream position (which checkpoints
        // capture) — a cumulative in-place shuffle would not survive resume.
        for (i, o) in order.iter_mut().enumerate() {
            *o = i;
        }
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut acc_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let _batch_span = snia_telemetry::span!("batch", batch = batches, size = chunk.len());
            let draws: Vec<u8> = chunk.iter().map(|_| task.draw(&mut rng)).collect();
            let faults = &res.faults;
            let stats = exec.step(model, chunk.len(), |model, range, scale| {
                if range.start != 0 && faults.fire_panic_worker(epoch) {
                    panic!("SNIA_FAULT: injected worker panic");
                }
                task.shard(model, &chunk[range.clone()], &draws[range], scale)
            });
            step += 1;
            let mut diverged = guard.check_loss(step, stats.loss).err();
            if diverged.is_none() && guard.watchdog_active() {
                diverged = guard
                    .check_grad_norm(step, grad_norm(&model.params()))
                    .err();
            }
            if let Some(reason) = diverged {
                match guard.rollback(model, &mut opt, &mut rng, &mut history)? {
                    Some(point) => {
                        epoch = point.epoch;
                        step = point.step;
                        continue 'epochs;
                    }
                    None => {
                        return Err(TrainError::Diverged {
                            model: T::NAME,
                            epoch,
                            reason,
                        })
                    }
                }
            }
            opt.step(&mut model.params_mut());
            loss_sum += stats.loss;
            acc_sum += stats.correct as f64 / stats.samples as f64;
            batches += 1;
        }
        record_epoch_rate(order.len(), batches, epoch_start);
        let (val_loss, train_acc, val_acc) = task.evaluate(model, acc_sum / batches as f64);
        let rec = TrainRecord {
            epoch,
            train_loss: loss_sum / batches as f64,
            val_loss,
            train_acc,
            val_acc,
        };
        snia_telemetry::record("train_epoch", &rec);
        history.push(rec);
        guard.epoch_end(model, &opt, &rng, epoch, step, &history)?;
        epoch += 1;
    }
    Ok(history)
}

/// Runs a training-mode forward pass under the loop's `nn.forward_ns`
/// timer; every task's [`Task::shard`] goes through it.
fn timed_forward(forward: impl FnOnce() -> Tensor) -> Tensor {
    let _t = snia_telemetry::timer("nn.forward_ns");
    forward()
}

/// Per-epoch throughput bookkeeping: the `train.samples_per_sec` gauge
/// (latest epoch, emitted to sinks) and histogram (distribution over
/// epochs), plus the batch counter.
fn record_epoch_rate(samples: usize, batches: usize, epoch_start: std::time::Instant) {
    if !snia_telemetry::enabled() {
        return;
    }
    snia_telemetry::counter_add("train.batches_total", batches as u64);
    let secs = epoch_start.elapsed().as_secs_f64();
    if secs > 0.0 {
        let rate = samples as f64 / secs;
        snia_telemetry::gauge_set("train.samples_per_sec", rate);
        snia_telemetry::observe("train.samples_per_sec", rate);
    }
}

// ---------------------------------------------------------------------------
// Flux CNN
// ---------------------------------------------------------------------------

/// `(sample index, observation index)` references into a dataset — the
/// unit of the flux-regression task.
///
/// Prefers *detectable* observations (true magnitude < 28): pairs where
/// the supernova is below the noise carry no gradient signal for the
/// regressor beyond "predict the faint clamp", and at laptop-scale
/// training budgets they crowd out the informative pairs. If a sample has
/// fewer detectable observations than requested, its brightest
/// undetectable ones fill the remainder.
pub fn flux_pair_refs(
    ds: &Dataset,
    sample_indices: &[usize],
    pairs_per_sample: usize,
    seed: u64,
) -> Vec<(usize, usize)> {
    const DETECTABLE_MAG: f64 = 28.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut refs = Vec::with_capacity(sample_indices.len() * pairs_per_sample);
    for &si in sample_indices {
        let s = &ds.samples[si];
        let lc = s.light_curve();
        let mut obs: Vec<(usize, f64)> = s
            .schedule
            .observations
            .iter()
            .enumerate()
            .map(|(oi, &(band, mjd))| (oi, lc.mag(band, mjd)))
            .collect();
        obs.shuffle(&mut rng);
        // Detectable first (shuffled within each group), then by brightness.
        obs.sort_by(|a, b| {
            let da = a.1 < DETECTABLE_MAG;
            let db = b.1 < DETECTABLE_MAG;
            db.cmp(&da)
        });
        for &(oi, _) in obs.iter().take(pairs_per_sample.min(obs.len())) {
            refs.push((si, oi));
        }
    }
    refs
}

fn render_flux_batch(ds: &Dataset, refs: &[(usize, usize)], crop: usize) -> (Tensor, Tensor) {
    assert!(!refs.is_empty(), "empty batch");
    let n = refs.len();
    let mut x = Vec::with_capacity(n * crop * crop);
    let mut t = Vec::with_capacity(n);
    for &(si, oi) in refs {
        let s = &ds.samples[si];
        // Through the render cache when one is configured; a hit returns
        // the same bytes `render_stamp` would have produced.
        x.extend_from_slice(&snia_dataset::cache::stamp_pixels(s, oi, crop, true));
        let (band, mjd) = s.schedule.observations[oi];
        t.push(mag_to_target(s.true_mag(band, mjd)));
    }
    (
        Tensor::from_vec(vec![n, 1, crop, crop], x),
        Tensor::from_vec(vec![n, 1], t),
    )
}

/// Trains the flux CNN with Adam + MSE on normalised magnitudes, returning
/// the per-epoch history (losses in normalised-target units).
///
/// # Panics
///
/// Panics if either reference list is empty.
pub fn train_flux_cnn(
    cnn: &mut FluxCnn,
    ds: &Dataset,
    train_refs: &[(usize, usize)],
    val_refs: &[(usize, usize)],
    cfg: &ClassifierTrainConfig,
) -> Vec<TrainRecord> {
    train_flux_cnn_resilient(cnn, ds, train_refs, val_refs, cfg, &Resilience::disabled())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`train_flux_cnn`] under a [`Resilience`] policy: checkpoint/resume,
/// divergence rollback and fault injection. With
/// [`Resilience::disabled`] the behaviour (and the RNG stream) is
/// bit-identical to the plain loop.
///
/// # Errors
///
/// Returns [`TrainError::EmptySplit`] on empty inputs,
/// [`TrainError::Checkpoint`] on checkpoint I/O or decode failures, and
/// [`TrainError::Diverged`] when the watchdog's retry budget runs out.
pub fn train_flux_cnn_resilient(
    cnn: &mut FluxCnn,
    ds: &Dataset,
    train_refs: &[(usize, usize)],
    val_refs: &[(usize, usize)],
    cfg: &ClassifierTrainConfig,
    res: &Resilience,
) -> Result<Vec<TrainRecord>, TrainError> {
    let task = FluxTask {
        ds,
        train: train_refs,
        val: val_refs,
        crop: cnn.crop(),
        batch_size: cfg.batch_size,
    };
    fit(&task, cnn, cfg, res)
}

/// Magnitude regression on rendered stamps with random D4 (flip/rotate)
/// augmentation: the magnitude target is invariant under these
/// symmetries, so each training image counts up to eight times at no
/// rendering cost.
struct FluxTask<'a> {
    ds: &'a Dataset,
    train: &'a [(usize, usize)],
    val: &'a [(usize, usize)],
    crop: usize,
    batch_size: usize,
}

impl Task for FluxTask<'_> {
    type Model = FluxCnn;
    const NAME: &'static str = "flux_cnn";
    const EXAMPLES: &'static str = "flux pairs";

    fn sizes(&self) -> (usize, usize) {
        (self.train.len(), self.val.len())
    }

    fn draw(&self, rng: &mut StdRng) -> u8 {
        rng.gen_range(0..8)
    }

    fn shard(
        &self,
        model: &mut FluxCnn,
        examples: &[usize],
        draws: &[u8],
        scale: f32,
    ) -> ShardStats {
        let refs: Vec<(usize, usize)> = examples.iter().map(|&i| self.train[i]).collect();
        let crop = self.crop;
        let (mut x, t) = render_flux_batch(self.ds, &refs, crop);
        for (image, &code) in x.data_mut().chunks_mut(crop * crop).zip(draws) {
            crate::input::d4_transform(image, crop, code);
        }
        let y = timed_forward(|| model.forward(&x, Mode::Train));
        let (loss, grad) = mse_loss(&y, &t);
        model.backward(&scaled(grad, scale));
        ShardStats::regression(f64::from(loss), examples.len())
    }

    fn evaluate(&self, model: &mut FluxCnn, _: f64) -> (f64, f64, f64) {
        let val_loss = flux_loss(model, self.ds, self.val, self.batch_size);
        (val_loss, f64::NAN, f64::NAN)
    }
}

/// Mean MSE loss (normalised-target units) of the CNN on a reference list.
pub fn flux_loss(
    cnn: &mut FluxCnn,
    ds: &Dataset,
    refs: &[(usize, usize)],
    batch_size: usize,
) -> f64 {
    let crop = cnn.crop();
    let mut loss_sum = 0.0f64;
    let mut n = 0usize;
    for chunk in refs.chunks(batch_size) {
        let (x, t) = render_flux_batch(ds, chunk, crop);
        let y = cnn.forward(&x, Mode::Eval);
        let (loss, _) = mse_loss(&y, &t);
        loss_sum += f64::from(loss) * chunk.len() as f64;
        n += chunk.len();
    }
    loss_sum / n as f64
}

/// `(true magnitude, estimated magnitude)` on every reference — the
/// Figure 8 scatter.
pub fn flux_predictions(
    cnn: &mut FluxCnn,
    ds: &Dataset,
    refs: &[(usize, usize)],
    batch_size: usize,
) -> Vec<(f64, f64)> {
    let crop = cnn.crop();
    let mut out = Vec::with_capacity(refs.len());
    for chunk in refs.chunks(batch_size) {
        let (x, t) = render_flux_batch(ds, chunk, crop);
        let y = cnn.forward(&x, Mode::Eval);
        for i in 0..chunk.len() {
            out.push((target_to_mag(t.data()[i]), target_to_mag(y.data()[i])));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Classifier on light-curve features
// ---------------------------------------------------------------------------

/// Builds the feature matrix for a classifier over `k` epochs.
///
/// For `k == 1` every sample contributes [`EPOCHS_PER_BAND`] single-epoch
/// examples (the paper "split each sample into 4 subsets"); for `k > 1`
/// each sample contributes one example of epochs `0..k` concatenated.
///
/// Returns `(inputs, targets, labels)` with inputs `(N, 10·k)`.
pub fn feature_matrix(
    ds: &Dataset,
    sample_indices: &[usize],
    k: usize,
) -> (Tensor, Tensor, Vec<bool>) {
    assert!(
        (1..=EPOCHS_PER_BAND).contains(&k),
        "invalid epoch count {k}"
    );
    let mut rows: Vec<f32> = Vec::new();
    let mut targets: Vec<f32> = Vec::new();
    let mut labels = Vec::new();
    for &si in sample_indices {
        let s = &ds.samples[si];
        if k == 1 {
            for e in 0..EPOCHS_PER_BAND {
                rows.extend_from_slice(&epoch_features(s, e).to_input());
                targets.push(if s.is_ia() { 1.0 } else { 0.0 });
                labels.push(s.is_ia());
            }
        } else {
            rows.extend(snia_dataset::features::multi_epoch_input(s, k));
            targets.push(if s.is_ia() { 1.0 } else { 0.0 });
            labels.push(s.is_ia());
        }
    }
    let n = labels.len();
    (
        Tensor::from_vec(vec![n, 10 * k], rows),
        Tensor::from_vec(vec![n, 1], targets),
        labels,
    )
}

/// The training schedule every model runs on: the flux CNN, the feature
/// classifier and the joint model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifierTrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Data-parallel worker threads per minibatch (1 = sequential; see
    /// [`crate::parallel::BatchExecutor`]).
    pub threads: usize,
}

fn rows_of(x: &Tensor, idx: &[usize]) -> Tensor {
    let d = x.shape()[1];
    let mut data = Vec::with_capacity(idx.len() * d);
    for &i in idx {
        data.extend_from_slice(&x.data()[i * d..(i + 1) * d]);
    }
    Tensor::from_vec(vec![idx.len(), d], data)
}

/// Trains the feature classifier with Adam + BCE, recording loss and
/// accuracy curves.
///
/// # Panics
///
/// Panics if the splits are empty.
pub fn train_classifier(
    clf: &mut LightCurveClassifier,
    train: (&Tensor, &Tensor),
    val: (&Tensor, &Tensor),
    cfg: &ClassifierTrainConfig,
) -> Vec<TrainRecord> {
    train_classifier_resilient(clf, train, val, cfg, &Resilience::disabled())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`train_classifier`] under a [`Resilience`] policy: checkpoint/resume,
/// divergence rollback and fault injection.
///
/// # Errors
///
/// As [`train_flux_cnn_resilient`].
pub fn train_classifier_resilient(
    clf: &mut LightCurveClassifier,
    train: (&Tensor, &Tensor),
    val: (&Tensor, &Tensor),
    cfg: &ClassifierTrainConfig,
    res: &Resilience,
) -> Result<Vec<TrainRecord>, TrainError> {
    fit(&ClassifierTask { train, val }, clf, cfg, res)
}

/// Binary classification of feature rows.
struct ClassifierTask<'a> {
    train: (&'a Tensor, &'a Tensor),
    val: (&'a Tensor, &'a Tensor),
}

impl Task for ClassifierTask<'_> {
    type Model = LightCurveClassifier;
    const NAME: &'static str = "classifier";
    const EXAMPLES: &'static str = "classifier examples";

    fn sizes(&self) -> (usize, usize) {
        (self.train.0.shape()[0], self.val.0.shape()[0])
    }

    fn shard(
        &self,
        model: &mut LightCurveClassifier,
        examples: &[usize],
        _: &[u8],
        scale: f32,
    ) -> ShardStats {
        let (x, t) = (
            rows_of(self.train.0, examples),
            rows_of(self.train.1, examples),
        );
        let y = timed_forward(|| model.forward(&x, Mode::Train));
        let (loss, grad) = bce_with_logits(&y, &t);
        model.backward(&scaled(grad, scale));
        ShardStats::regression(f64::from(loss), examples.len())
    }

    /// Training accuracy comes from a full evaluation-mode pass.
    fn evaluate(&self, model: &mut LightCurveClassifier, _: f64) -> (f64, f64, f64) {
        let (val_loss, val_acc) = classifier_loss_acc(model, self.val.0, self.val.1);
        let (_, train_acc) = classifier_loss_acc(model, self.train.0, self.train.1);
        (val_loss, train_acc, val_acc)
    }
}

/// BCE loss and 0.5-threshold accuracy of the classifier on a feature set.
pub fn classifier_loss_acc(clf: &mut LightCurveClassifier, x: &Tensor, t: &Tensor) -> (f64, f64) {
    let y = clf.forward(x, Mode::Eval);
    let (loss, _) = bce_with_logits(&y, t);
    let correct = correct_count(&y, t);
    (f64::from(loss), correct as f64 / t.len() as f64)
}

/// Classifier probabilities on a feature matrix.
pub fn classifier_scores(clf: &mut LightCurveClassifier, x: &Tensor) -> Vec<f64> {
    let y = clf.forward(x, Mode::Eval);
    sigmoid_probs(&y)
        .data()
        .iter()
        .map(|&p| f64::from(p))
        .collect()
}

// ---------------------------------------------------------------------------
// Joint model
// ---------------------------------------------------------------------------

/// One joint-model example: a sample observed at a given single-epoch set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointExample {
    /// Index into `dataset.samples`.
    pub sample: usize,
    /// Single-epoch set index (`0..EPOCHS_PER_BAND`).
    pub epoch: usize,
}

/// Expands samples into one example per single-epoch set.
pub fn joint_examples(sample_indices: &[usize]) -> Vec<JointExample> {
    sample_indices
        .iter()
        .flat_map(|&si| {
            (0..EPOCHS_PER_BAND).map(move |e| JointExample {
                sample: si,
                epoch: e,
            })
        })
        .collect()
}

/// Renders a joint-model batch: `(images (5N,1,S,S), dates (N,5), targets
/// (N,1), labels)`.
pub fn joint_batch(
    ds: &Dataset,
    examples: &[JointExample],
    crop: usize,
) -> (Tensor, Tensor, Tensor, Vec<bool>) {
    let n = examples.len();
    let mut images = Vec::with_capacity(n * 5 * crop * crop);
    let mut dates = Vec::with_capacity(n * 5);
    let mut targets = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for ex in examples {
        let s: &SampleSpec = &ds.samples[ex.sample];
        for oi in s.epoch_obs_indices(ex.epoch) {
            // Same pixels `preprocess` on `epoch_pairs` would produce,
            // served through the render cache when one is configured.
            images.extend_from_slice(&snia_dataset::cache::stamp_pixels(s, oi, crop, true));
        }
        let fv = epoch_features(s, ex.epoch);
        let input = fv.to_input();
        dates.extend_from_slice(&input[5..]);
        targets.push(if s.is_ia() { 1.0 } else { 0.0 });
        labels.push(s.is_ia());
    }
    (
        Tensor::from_vec(vec![n * 5, 1, crop, crop], images),
        Tensor::from_vec(vec![n, 5], dates),
        Tensor::from_vec(vec![n, 1], targets),
        labels,
    )
}

/// Trains the joint model end-to-end, recording loss/accuracy curves
/// (Figure 12). Validation metrics are computed on (a subsample of) the
/// validation examples each epoch.
///
/// # Panics
///
/// Panics if the splits are empty.
pub fn train_joint(
    jm: &mut JointModel,
    ds: &Dataset,
    train_ex: &[JointExample],
    val_ex: &[JointExample],
    cfg: &ClassifierTrainConfig,
) -> Vec<TrainRecord> {
    train_joint_resilient(jm, ds, train_ex, val_ex, cfg, &Resilience::disabled())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`train_joint`] under a [`Resilience`] policy: checkpoint/resume,
/// divergence rollback and fault injection.
///
/// # Errors
///
/// As [`train_flux_cnn_resilient`].
pub fn train_joint_resilient(
    jm: &mut JointModel,
    ds: &Dataset,
    train_ex: &[JointExample],
    val_ex: &[JointExample],
    cfg: &ClassifierTrainConfig,
    res: &Resilience,
) -> Result<Vec<TrainRecord>, TrainError> {
    let task = JointTask {
        ds,
        train: train_ex,
        val: val_ex,
        crop: jm.crop(),
        batch_size: cfg.batch_size,
    };
    fit(&task, jm, cfg, res)
}

/// End-to-end classification of rendered single-epoch cutouts.
struct JointTask<'a> {
    ds: &'a Dataset,
    train: &'a [JointExample],
    val: &'a [JointExample],
    crop: usize,
    batch_size: usize,
}

impl Task for JointTask<'_> {
    type Model = JointModel;
    const NAME: &'static str = "joint";
    const EXAMPLES: &'static str = "joint examples";

    fn sizes(&self) -> (usize, usize) {
        (self.train.len(), self.val.len())
    }

    fn shard(
        &self,
        model: &mut JointModel,
        examples: &[usize],
        _: &[u8],
        scale: f32,
    ) -> ShardStats {
        let exs: Vec<JointExample> = examples.iter().map(|&i| self.train[i]).collect();
        let (images, dates, targets, _) = joint_batch(self.ds, &exs, self.crop);
        let y = timed_forward(|| model.forward(&images, &dates, Mode::Train));
        let (loss, grad) = bce_with_logits(&y, &targets);
        model.backward(&scaled(grad, scale));
        ShardStats {
            loss: f64::from(loss),
            correct: correct_count(&y, &targets),
            samples: examples.len(),
        }
    }

    /// Training accuracy is the mean over the epoch's minibatches.
    fn evaluate(&self, model: &mut JointModel, batch_acc: f64) -> (f64, f64, f64) {
        let (val_loss, val_acc) = joint_loss_acc(model, self.ds, self.val, self.batch_size);
        (val_loss, batch_acc, val_acc)
    }
}

/// BCE loss and accuracy of the joint model over examples.
pub fn joint_loss_acc(
    jm: &mut JointModel,
    ds: &Dataset,
    examples: &[JointExample],
    batch_size: usize,
) -> (f64, f64) {
    let crop = jm.crop();
    let mut loss_sum = 0.0;
    let mut correct = 0usize;
    let mut n = 0usize;
    for chunk in examples.chunks(batch_size) {
        let (images, dates, targets, _) = joint_batch(ds, chunk, crop);
        let y = jm.forward(&images, &dates, Mode::Eval);
        let (loss, _) = bce_with_logits(&y, &targets);
        loss_sum += f64::from(loss) * chunk.len() as f64;
        correct += correct_count(&y, &targets);
        n += chunk.len();
    }
    (loss_sum / n as f64, correct as f64 / n as f64)
}

/// Joint-model probabilities and labels over examples (for ROC/AUC).
pub fn joint_scores(
    jm: &mut JointModel,
    ds: &Dataset,
    examples: &[JointExample],
    batch_size: usize,
) -> (Vec<f64>, Vec<bool>) {
    let crop = jm.crop();
    let mut scores = Vec::with_capacity(examples.len());
    let mut labels = Vec::with_capacity(examples.len());
    for chunk in examples.chunks(batch_size) {
        let (images, dates, _, chunk_labels) = joint_batch(ds, chunk, crop);
        let y = jm.forward(&images, &dates, Mode::Eval);
        let probs = sigmoid_probs(&y);
        scores.extend(probs.data().iter().map(|&p| f64::from(p)));
        labels.extend(chunk_labels);
    }
    (scores, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flux_cnn::PoolKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snia_dataset::{split_indices, DatasetConfig};

    fn tiny_ds() -> Dataset {
        Dataset::generate(&DatasetConfig {
            n_samples: 20,
            catalog_size: 60,
            seed: 41,
        })
    }

    #[test]
    fn flux_pair_refs_respects_limit() {
        let ds = tiny_ds();
        let refs = flux_pair_refs(&ds, &[0, 1, 2], 3, 1);
        assert_eq!(refs.len(), 9);
        assert!(refs.iter().all(|&(si, oi)| si < 3 && oi < 20));
    }

    #[test]
    fn flux_training_reduces_loss() {
        let ds = tiny_ds();
        let (tr, va, _) = split_indices(ds.len(), 1);
        let train_refs = flux_pair_refs(&ds, &tr, 2, 2);
        let val_refs = flux_pair_refs(&ds, &va, 2, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let cfg = ClassifierTrainConfig {
            epochs: 3,
            batch_size: 8,
            lr: 2e-3,
            seed: 5,
            threads: 1,
        };
        let hist = train_flux_cnn(&mut cnn, &ds, &train_refs, &val_refs, &cfg);
        assert_eq!(hist.len(), 3);
        assert!(
            hist.last().unwrap().train_loss < hist[0].train_loss,
            "train loss did not drop: {hist:?}"
        );
    }

    #[test]
    fn flux_predictions_align_with_refs() {
        let ds = tiny_ds();
        let refs = flux_pair_refs(&ds, &[0, 1], 2, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let preds = flux_predictions(&mut cnn, &ds, &refs, 4);
        assert_eq!(preds.len(), refs.len());
        for (t, e) in &preds {
            assert!(t.is_finite() && e.is_finite());
        }
    }

    #[test]
    fn feature_matrix_shapes() {
        let ds = tiny_ds();
        let idx: Vec<usize> = (0..10).collect();
        let (x1, t1, l1) = feature_matrix(&ds, &idx, 1);
        assert_eq!(x1.shape(), &[40, 10]); // 4 single-epoch subsets each
        assert_eq!(t1.shape(), &[40, 1]);
        assert_eq!(l1.len(), 40);
        let (x4, ..) = feature_matrix(&ds, &idx, 4);
        assert_eq!(x4.shape(), &[10, 40]);
    }

    #[test]
    fn classifier_training_learns_something() {
        let ds = Dataset::generate(&DatasetConfig {
            n_samples: 200,
            catalog_size: 300,
            seed: 42,
        });
        let (tr, va, _) = split_indices(ds.len(), 2);
        let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
        let (xv, tv, _) = feature_matrix(&ds, &va, 1);
        let mut rng = StdRng::seed_from_u64(8);
        let mut clf = LightCurveClassifier::new(1, 32, &mut rng);
        let cfg = ClassifierTrainConfig {
            epochs: 15,
            batch_size: 64,
            lr: 3e-3,
            seed: 9,
            threads: 1,
        };
        let hist = train_classifier(&mut clf, (&xt, &tt), (&xv, &tv), &cfg);
        let last = hist.last().unwrap();
        assert!(
            last.val_acc > 0.6,
            "classifier failed to beat chance: {last:?}"
        );
    }

    #[test]
    fn joint_examples_expand_epochs() {
        let ex = joint_examples(&[3, 5]);
        assert_eq!(ex.len(), 8);
        assert_eq!(
            ex[0],
            JointExample {
                sample: 3,
                epoch: 0
            }
        );
        assert_eq!(
            ex[7],
            JointExample {
                sample: 5,
                epoch: 3
            }
        );
    }

    #[test]
    fn joint_batch_shapes() {
        let ds = tiny_ds();
        let ex = joint_examples(&[0, 1]);
        let (images, dates, targets, labels) = joint_batch(&ds, &ex[..3], 36);
        assert_eq!(images.shape(), &[15, 1, 36, 36]);
        assert_eq!(dates.shape(), &[3, 5]);
        assert_eq!(targets.shape(), &[3, 1]);
        assert_eq!(labels.len(), 3);
        assert!(images.all_finite());
    }

    #[test]
    fn classifier_executor_gradients_match_across_thread_counts() {
        // The classifier has no batch normalisation, so sharded training
        // computes the same full-batch mean gradient as the sequential
        // path (up to f32 summation order).
        let ds = tiny_ds();
        let idx: Vec<usize> = (0..16).collect();
        let (x, t, _) = feature_matrix(&ds, &idx, 4);
        let chunk: Vec<usize> = (0..16).collect();
        let task = ClassifierTask {
            train: (&x, &t),
            val: (&x, &t),
        };
        let mut grads: Vec<Vec<f32>> = Vec::new();
        for threads in [1usize, 4] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut clf = LightCurveClassifier::new(4, 16, &mut rng);
            let mut exec = BatchExecutor::new(&clf, threads);
            let stats = exec.step(&mut clf, chunk.len(), |model, range, scale| {
                task.shard(model, &chunk[range], &[], scale)
            });
            assert_eq!(stats.samples, chunk.len());
            grads.push(
                clf.params()
                    .iter()
                    .flat_map(|p| p.grad.data().iter().copied())
                    .collect(),
            );
        }
        let (a, b) = (&grads[0], &grads[1]);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let tol = 1e-6 + 1e-4 * x.abs().max(y.abs());
            assert!((x - y).abs() <= tol, "grad[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn threaded_flux_training_runs() {
        let ds = tiny_ds();
        let (tr, va, _) = split_indices(ds.len(), 1);
        let train_refs = flux_pair_refs(&ds, &tr, 2, 2);
        let val_refs = flux_pair_refs(&ds, &va, 2, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let cfg = ClassifierTrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 2e-3,
            seed: 5,
            threads: 2,
        };
        let hist = train_flux_cnn(&mut cnn, &ds, &train_refs, &val_refs, &cfg);
        assert_eq!(hist.len(), 1);
        assert!(hist[0].train_loss.is_finite() && hist[0].val_loss.is_finite());
    }

    #[test]
    fn threaded_joint_training_runs() {
        let ds = tiny_ds();
        let train_ex = joint_examples(&[0, 1, 2, 3]);
        let val_ex = joint_examples(&[4, 5]);
        let mut rng = StdRng::seed_from_u64(12);
        let mut jm = JointModel::from_scratch(36, 8, &mut rng);
        let cfg = ClassifierTrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 3e-3,
            seed: 13,
            threads: 3,
        };
        let hist = train_joint(&mut jm, &ds, &train_ex, &val_ex, &cfg);
        assert_eq!(hist.len(), 1);
        assert!(hist[0].train_loss.is_finite());
        assert!((0.0..=1.0).contains(&hist[0].train_acc));
    }

    #[test]
    fn joint_scores_cover_examples() {
        let ds = tiny_ds();
        let ex = joint_examples(&[0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(10);
        let mut jm = JointModel::from_scratch(36, 8, &mut rng);
        let (scores, labels) = joint_scores(&mut jm, &ds, &ex, 4);
        assert_eq!(scores.len(), ex.len());
        assert_eq!(labels.len(), ex.len());
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }
}

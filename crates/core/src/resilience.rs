//! Crash safety and self-healing for the training loops.
//!
//! Long training runs die for boring reasons — pre-emption, OOM kills,
//! power loss — and occasionally for interesting ones (a diverging loss,
//! a panicking worker thread). This module makes every training run in
//! [`crate::train`] restartable and self-correcting:
//!
//! * **Full-state checkpointing.** A [`TrainState`] carries everything a
//!   bit-identical resume needs: model weights *and* non-learnable buffers
//!   (batch-norm running statistics), the Adam moment estimates, the raw
//!   RNG stream position, the epoch counter and the accumulated history.
//!   [`CheckpointDir`] persists it with a CRC-validated header, an atomic
//!   temp-file + fsync + rename write, and a rolling `latest`/`prev` pair
//!   so a crash mid-write never loses the run.
//! * **Divergence watchdog.** [`Watchdog`] screens every mini-batch loss
//!   (and optionally gradient norms) for NaN/Inf and explosions relative
//!   to a running average. On divergence the [`Guardian`] rolls the run
//!   back to the last good state, halves the learning rate and retries a
//!   bounded number of times, emitting `resilience.*` telemetry instead
//!   of crashing.
//! * **Fault injection.** [`FaultPlan`] parses specs such as
//!   `SNIA_FAULT=nan_loss@step=40,panic_worker@epoch=2,kill@epoch=3` so
//!   integration tests (and the CI smoke job) can kill, corrupt and panic
//!   a real run and assert that it recovers.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use snia_dataset::framing::{decode_framed, encode_framed, FrameError};
use snia_nn::optim::{Adam, AdamState, OptimError};
use snia_nn::serialize::{write_atomic, Checkpoint, LoadError};
use snia_nn::StateError;

use crate::train::TrainRecord;
use crate::Model;

/// On-disk checkpoint format version (the `v1` in the header line).
pub const CHECKPOINT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Train state
// ---------------------------------------------------------------------------

/// A model's complete restorable state: learnable weights plus the
/// non-learnable per-layer buffers (see [`snia_nn::Layer::extra_state`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelState {
    /// Learnable parameters in parameter order.
    pub weights: Checkpoint,
    /// One extra-state vector per layer (batch-norm running statistics).
    pub extra: Vec<Vec<f32>>,
}

/// Everything needed to resume a training run bit-identically: model,
/// optimizer moments, RNG stream position, progress counters and the
/// history accumulated so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainState {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Model weights and buffers.
    pub model: ModelState,
    /// Adam hyper-parameters, step count and moment estimates.
    pub optim: AdamState,
    /// Raw xoshiro256++ state of the training RNG.
    pub rng: [u64; 4],
    /// The epoch the resumed run should execute next.
    pub next_epoch: usize,
    /// Global mini-batch step counter at capture time.
    pub step: u64,
    /// Per-epoch records accumulated before the checkpoint.
    pub history: Vec<TrainRecord>,
}

impl TrainState {
    /// Encodes the state as a checkpoint file image: a single header line
    /// `SNIA-CKPT v1 crc32=<hex8> len=<bytes>` followed by the JSON body.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Json`] if serialisation fails.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let body = serde_json::to_string(self)?;
        Ok(encode_framed(
            "SNIA-CKPT",
            CHECKPOINT_VERSION,
            body.as_bytes(),
        ))
    }

    /// Decodes a checkpoint file image, validating the header, length and
    /// CRC before touching the JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::BadHeader`], [`CheckpointError::Version`],
    /// [`CheckpointError::Truncated`], [`CheckpointError::CrcMismatch`] or
    /// [`CheckpointError::Json`] depending on what is wrong with the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainState, CheckpointError> {
        let body = decode_framed("SNIA-CKPT", CHECKPOINT_VERSION, bytes)?;
        let text = std::str::from_utf8(body).map_err(|_| CheckpointError::BadHeader)?;
        let state: TrainState = serde_json::from_str(text)?;
        if state.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: state.version,
            });
        }
        Ok(state)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors while saving, loading or applying a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// The header line is missing or malformed.
    BadHeader,
    /// The body is shorter or longer than the header promised.
    Truncated {
        /// Byte count from the header.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The body bytes do not match the header checksum.
    CrcMismatch {
        /// Checksum from the header.
        expected: u32,
        /// Checksum of the bytes on disk.
        found: u32,
    },
    /// The body is not valid checkpoint JSON.
    Json(serde_json::Error),
    /// The checkpoint was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u32,
    },
    /// The weights do not fit the target model.
    Model(LoadError),
    /// The extra state does not fit the target model.
    State(StateError),
    /// The optimizer state carries invalid hyper-parameters.
    Optim(OptimError),
    /// The optimizer's moment estimates do not fit the model's parameters.
    Moments {
        /// Which estimate: `"m"` (first moment) or `"v"` (second).
        moment: &'static str,
        /// The parameter whose vector has the wrong length; `None` when
        /// the number of vectors is wrong.
        param: Option<usize>,
        /// Vectors (or scalars of `param`) the model needs.
        expected: usize,
        /// Vectors (or scalars of `param`) the checkpoint holds.
        found: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadHeader => write!(f, "malformed checkpoint header"),
            CheckpointError::Truncated { expected, found } => write!(
                f,
                "truncated checkpoint body: header promises {expected} bytes, found {found}"
            ),
            CheckpointError::CrcMismatch { expected, found } => write!(
                f,
                "checkpoint CRC mismatch: header {expected:08x}, body {found:08x}"
            ),
            CheckpointError::Json(e) => write!(f, "malformed checkpoint json: {e}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version v{found} (this build reads v{CHECKPOINT_VERSION})"
            ),
            CheckpointError::Model(e) => write!(f, "checkpoint does not fit model: {e}"),
            CheckpointError::State(e) => write!(f, "checkpoint extra state mismatch: {e}"),
            CheckpointError::Optim(e) => write!(f, "invalid optimizer state: {e}"),
            CheckpointError::Moments {
                moment,
                param: None,
                expected,
                found,
            } => write!(
                f,
                "optimizer state has {found} `{moment}` vectors but the model has {expected} parameters"
            ),
            CheckpointError::Moments {
                moment,
                param: Some(i),
                expected,
                found,
            } => write!(
                f,
                "optimizer `{moment}` vector {i} has {found} values but parameter {i} has {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Json(e) => Some(e),
            CheckpointError::Model(e) => Some(e),
            CheckpointError::State(e) => Some(e),
            CheckpointError::Optim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadHeader => CheckpointError::BadHeader,
            FrameError::Truncated { expected, found } => {
                CheckpointError::Truncated { expected, found }
            }
            FrameError::CrcMismatch { expected, found } => {
                CheckpointError::CrcMismatch { expected, found }
            }
            FrameError::Version { found } => CheckpointError::Version { found },
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Json(e)
    }
}

impl From<LoadError> for CheckpointError {
    fn from(e: LoadError) -> Self {
        CheckpointError::Model(e)
    }
}

impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> Self {
        CheckpointError::State(e)
    }
}

impl From<OptimError> for CheckpointError {
    fn from(e: OptimError) -> Self {
        CheckpointError::Optim(e)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint directory
// ---------------------------------------------------------------------------

/// A directory holding the rolling `latest.ckpt` / `prev.ckpt` pair for
/// one training run.
///
/// Writes are crash-safe: the new state goes to a temporary file which is
/// fsynced and renamed into place, and the previous `latest` is rotated to
/// `prev` first, so at every instant at least one complete, CRC-valid
/// checkpoint exists on disk.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    /// Wraps `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointDir { dir: dir.into() }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Path of the most recent checkpoint.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("latest.ckpt")
    }

    /// Path of the previous checkpoint (fallback if `latest` is corrupt).
    pub fn prev_path(&self) -> PathBuf {
        self.dir.join("prev.ckpt")
    }

    /// Persists `state`, rotating the existing `latest` to `prev`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] or [`CheckpointError::Json`] on
    /// failure; the previous checkpoints are left intact in that case.
    pub fn save(&self, state: &TrainState) -> Result<(), CheckpointError> {
        fs::create_dir_all(&self.dir)?;
        let bytes = state.to_bytes()?;
        let latest = self.latest_path();
        if latest.exists() {
            fs::rename(&latest, self.prev_path())?;
        }
        write_atomic(&latest, &bytes)?;
        snia_telemetry::counter_add("resilience.checkpoints_total", 1);
        snia_telemetry::sync();
        Ok(())
    }

    /// Loads the newest readable checkpoint: `latest`, falling back to
    /// `prev` when `latest` is corrupt, and `Ok(None)` when the directory
    /// holds no checkpoint at all.
    ///
    /// # Errors
    ///
    /// Returns the `latest` error when both files exist but neither
    /// decodes.
    pub fn load(&self) -> Result<Option<TrainState>, CheckpointError> {
        match Self::load_path(self.latest_path()) {
            Ok(s) => Ok(Some(s)),
            Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                match Self::load_path(self.prev_path()) {
                    Ok(s) => Ok(Some(s)),
                    Err(CheckpointError::Io(e2)) if e2.kind() == io::ErrorKind::NotFound => {
                        Ok(None)
                    }
                    Err(e2) => Err(e2),
                }
            }
            Err(first) => {
                snia_telemetry::counter_add("resilience.corrupt_checkpoints_total", 1);
                match Self::load_path(self.prev_path()) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(first),
                }
            }
        }
    }

    /// Reads and decodes one checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be read, or a
    /// decode error from [`TrainState::from_bytes`].
    pub fn load_path(path: impl AsRef<Path>) -> Result<TrainState, CheckpointError> {
        let bytes = fs::read(path)?;
        TrainState::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Thresholds and retry policy for the divergence watchdog.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Any |loss| above this is an explosion regardless of history.
    pub max_loss: f64,
    /// A loss this many times the running average is an explosion.
    pub explosion_factor: f64,
    /// Any gradient norm above this is an explosion.
    pub max_grad_norm: f64,
    /// Rollbacks allowed before the run gives up.
    pub max_retries: u32,
    /// Learning-rate multiplier applied on every rollback.
    pub lr_factor: f32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_loss: 1e6,
            explosion_factor: 1e3,
            max_grad_norm: 1e6,
            max_retries: 3,
            lr_factor: 0.5,
        }
    }
}

/// Why the watchdog tripped.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The mini-batch loss was NaN or infinite.
    NonFiniteLoss {
        /// Global step at which it happened.
        step: u64,
    },
    /// The loss exceeded an absolute or relative explosion threshold.
    LossExploded {
        /// Global step at which it happened.
        step: u64,
        /// The offending loss value.
        loss: f64,
        /// The threshold or running average it was compared against.
        baseline: f64,
    },
    /// A parameter gradient norm was NaN or infinite.
    NonFiniteGradient {
        /// Global step at which it happened.
        step: u64,
    },
    /// A parameter gradient norm exceeded the explosion threshold.
    GradientExploded {
        /// Global step at which it happened.
        step: u64,
        /// The offending norm.
        norm: f64,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::NonFiniteLoss { step } => write!(f, "non-finite loss at step {step}"),
            Divergence::LossExploded {
                step,
                loss,
                baseline,
            } => write!(
                f,
                "loss {loss:.3e} exploded past baseline {baseline:.3e} at step {step}"
            ),
            Divergence::NonFiniteGradient { step } => {
                write!(f, "non-finite gradient at step {step}")
            }
            Divergence::GradientExploded { step, norm } => {
                write!(f, "gradient norm {norm:.3e} exploded at step {step}")
            }
        }
    }
}

/// Screens per-step losses and gradient norms for divergence.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    ema: Option<f64>,
}

impl Watchdog {
    /// Creates a watchdog with the given thresholds.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog { cfg, ema: None }
    }

    /// Checks one mini-batch loss and folds it into the running average.
    ///
    /// # Errors
    ///
    /// Returns the [`Divergence`] when the loss is non-finite or exploded.
    pub fn check_loss(&mut self, step: u64, loss: f64) -> Result<(), Divergence> {
        if !loss.is_finite() {
            return Err(Divergence::NonFiniteLoss { step });
        }
        if loss.abs() > self.cfg.max_loss {
            return Err(Divergence::LossExploded {
                step,
                loss,
                baseline: self.cfg.max_loss,
            });
        }
        if let Some(ema) = self.ema {
            if ema > 1e-12 && loss > ema * self.cfg.explosion_factor {
                return Err(Divergence::LossExploded {
                    step,
                    loss,
                    baseline: ema,
                });
            }
        }
        self.ema = Some(match self.ema {
            Some(e) => 0.9 * e + 0.1 * loss,
            None => loss,
        });
        Ok(())
    }

    /// Checks one accumulated gradient norm.
    ///
    /// # Errors
    ///
    /// Returns the [`Divergence`] when the norm is non-finite or exploded.
    pub fn check_grad_norm(&self, step: u64, norm: f64) -> Result<(), Divergence> {
        if !norm.is_finite() {
            Err(Divergence::NonFiniteGradient { step })
        } else if norm > self.cfg.max_grad_norm {
            Err(Divergence::GradientExploded { step, norm })
        } else {
            Ok(())
        }
    }

    /// Forgets the running average (after a rollback the loss scale may
    /// legitimately jump).
    pub fn reset(&mut self) {
        self.ema = None;
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A parsed fault-injection plan.
///
/// Specs are comma-separated `kind@key=N` items; supported faults:
///
/// * `nan_loss@step=N` — report the loss of global step `N` as NaN.
/// * `panic_worker@epoch=N` — panic one worker thread during epoch `N`.
/// * `kill@epoch=N` — hard-exit the process (code 137) at the start of
///   epoch `N`, after the previous epoch's checkpoint landed.
///
/// Each fault fires at most once per process so recovery is observable.
#[derive(Debug, Default)]
pub struct FaultPlan {
    nan_loss_step: Option<u64>,
    panic_worker_epoch: Option<usize>,
    kill_epoch: Option<usize>,
    nan_fired: AtomicBool,
    panic_fired: AtomicBool,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Parses a spec such as `nan_loss@step=40,kill@epoch=3`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown fault kinds or
    /// malformed items.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, rest) = item
                .split_once('@')
                .ok_or_else(|| format!("fault `{item}` is missing `@key=N`"))?;
            let (key, value) = rest
                .split_once('=')
                .ok_or_else(|| format!("fault `{item}` is missing `=N`"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("fault `{item}` has a non-numeric value"))?;
            match (kind, key) {
                ("nan_loss", "step") => plan.nan_loss_step = Some(n),
                ("panic_worker", "epoch") => plan.panic_worker_epoch = Some(n as usize),
                ("kill", "epoch") => plan.kill_epoch = Some(n as usize),
                _ => return Err(format!("unknown fault `{kind}@{key}`")),
            }
        }
        Ok(plan)
    }

    /// Parses the `SNIA_FAULT` environment variable (empty plan if unset).
    ///
    /// # Errors
    ///
    /// Returns the parse error message when the variable is set but
    /// malformed.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("SNIA_FAULT") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.nan_loss_step.is_none()
            && self.panic_worker_epoch.is_none()
            && self.kill_epoch.is_none()
    }

    /// True exactly once, on the step a `nan_loss` fault targets.
    pub fn fire_nan_loss(&self, step: u64) -> bool {
        if self.nan_loss_step == Some(step)
            && self
                .nan_fired
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            snia_telemetry::counter_add("resilience.faults_injected_total", 1);
            true
        } else {
            false
        }
    }

    /// True exactly once, during the epoch a `panic_worker` fault targets.
    pub fn fire_panic_worker(&self, epoch: usize) -> bool {
        if self.panic_worker_epoch == Some(epoch)
            && self
                .panic_fired
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            snia_telemetry::counter_add("resilience.faults_injected_total", 1);
            true
        } else {
            false
        }
    }

    /// Whether a `kill` fault targets this epoch.
    pub fn should_kill(&self, epoch: usize) -> bool {
        self.kill_epoch == Some(epoch)
    }
}

// ---------------------------------------------------------------------------
// Resilience policy
// ---------------------------------------------------------------------------

/// The resilience policy a training loop runs under.
#[derive(Debug)]
pub struct Resilience {
    /// Where to persist and resume checkpoints (`None` = no persistence).
    pub checkpoint_dir: Option<PathBuf>,
    /// Divergence thresholds (`None` = watchdog off).
    pub watchdog: Option<WatchdogConfig>,
    /// Faults to inject (empty in production).
    pub faults: FaultPlan,
}

impl Resilience {
    /// No checkpointing, no watchdog, no faults — the legacy fast path.
    pub fn disabled() -> Self {
        Resilience {
            checkpoint_dir: None,
            watchdog: None,
            faults: FaultPlan::none(),
        }
    }

    /// Checkpointing into `dir` with the default watchdog.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Resilience::new(Some(dir.into()), FaultPlan::none())
    }

    /// Checkpointing into `checkpoint_dir` (none when `None`) under the
    /// fault plan `faults`. The default watchdog is on whenever there is a
    /// directory or a fault to inject.
    pub fn new(checkpoint_dir: Option<PathBuf>, faults: FaultPlan) -> Self {
        let active = checkpoint_dir.is_some() || !faults.is_empty();
        Resilience {
            checkpoint_dir,
            watchdog: active.then(WatchdogConfig::default),
            faults,
        }
    }

    /// [`Resilience::new`] with the `SNIA_FAULT` injection plan (a
    /// malformed plan is reported to stderr and ignored). The caller
    /// resolves the checkpoint directory, normally with
    /// [`crate::resume_from_env_args`].
    pub fn from_env(checkpoint_dir: Option<PathBuf>) -> Self {
        let faults = FaultPlan::from_env().unwrap_or_else(|e| {
            eprintln!("warning: ignoring SNIA_FAULT: {e}");
            FaultPlan::none()
        });
        Resilience::new(checkpoint_dir, faults)
    }
}

// ---------------------------------------------------------------------------
// Train state capture/restore
// ---------------------------------------------------------------------------

/// Captures a full [`TrainState`] from the live training objects.
pub fn capture_state<M: Model>(
    model: &M,
    opt: &Adam,
    rng: &StdRng,
    next_epoch: usize,
    step: u64,
    history: &[TrainRecord],
) -> TrainState {
    TrainState {
        version: CHECKPOINT_VERSION,
        model: model.capture(),
        optim: opt.state(),
        rng: rng.state(),
        next_epoch,
        step,
        history: history.to_vec(),
    }
}

/// Restores a [`TrainState`] into the live training objects.
///
/// # Errors
///
/// Returns a [`CheckpointError`] when the state does not fit the model,
/// its optimizer moments do not fit the model's parameters, or it carries
/// invalid optimizer hyper-parameters.
pub fn restore_state<M: Model>(
    state: &TrainState,
    model: &mut M,
    opt: &mut Adam,
    rng: &mut StdRng,
    history: &mut Vec<TrainRecord>,
) -> Result<(), CheckpointError> {
    check_moments(&state.optim, model)?;
    model.restore(&state.model)?;
    opt.load_state(&state.optim)?;
    *rng = StdRng::from_state(state.rng);
    *history = state.history.clone();
    Ok(())
}

/// Accepts Adam moments that are both empty (an optimizer that has not
/// stepped yet) or that both hold one vector per model parameter, each as
/// long as its parameter. Anything else would make the next `step` panic
/// or silently skip the tail of a parameter.
fn check_moments<M: Model>(optim: &AdamState, model: &M) -> Result<(), CheckpointError> {
    if optim.m.is_empty() && optim.v.is_empty() {
        return Ok(());
    }
    let lens: Vec<usize> = model.params().iter().map(|p| p.len()).collect();
    for (moment, vecs) in [("m", &optim.m), ("v", &optim.v)] {
        let mismatch = |param, expected, found| CheckpointError::Moments {
            moment,
            param,
            expected,
            found,
        };
        if vecs.len() != lens.len() {
            return Err(mismatch(None, lens.len(), vecs.len()));
        }
        for (i, (vec, &len)) in vecs.iter().zip(&lens).enumerate() {
            if vec.len() != len {
                return Err(mismatch(Some(i), len, vec.len()));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Guardian
// ---------------------------------------------------------------------------

/// Where a training loop should continue after a resume or rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePoint {
    /// Epoch to execute next.
    pub epoch: usize,
    /// Global mini-batch step counter at that point.
    pub step: u64,
}

/// The per-run driver tying resume, checkpointing, the watchdog and fault
/// injection together for a training loop.
#[derive(Debug)]
pub struct Guardian<'a> {
    res: &'a Resilience,
    dir: Option<CheckpointDir>,
    watchdog: Option<Watchdog>,
    last_good: Option<TrainState>,
    retries: u32,
}

impl<'a> Guardian<'a> {
    /// Creates a guardian for one training run under policy `res`.
    pub fn new(res: &'a Resilience) -> Self {
        Guardian {
            res,
            dir: res.checkpoint_dir.as_ref().map(CheckpointDir::new),
            watchdog: res.watchdog.clone().map(Watchdog::new),
            last_good: None,
            retries: 0,
        }
    }

    /// Whether per-step watchdog checks are active (lets loops skip
    /// gradient-norm computation otherwise).
    pub fn watchdog_active(&self) -> bool {
        self.watchdog.is_some()
    }

    /// Resumes from the checkpoint directory when one exists, and seeds
    /// the in-memory rollback state. Returns the point to start from
    /// (epoch 0, step 0 for a fresh run).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when a checkpoint exists but cannot
    /// be decoded or does not fit the model.
    pub fn begin<M: Model>(
        &mut self,
        model: &mut M,
        opt: &mut Adam,
        rng: &mut StdRng,
        history: &mut Vec<TrainRecord>,
    ) -> Result<ResumePoint, CheckpointError> {
        let mut start = ResumePoint { epoch: 0, step: 0 };
        if let Some(dir) = &self.dir {
            if let Some(state) = dir.load()? {
                restore_state(&state, model, opt, rng, history)?;
                start = ResumePoint {
                    epoch: state.next_epoch,
                    step: state.step,
                };
                snia_telemetry::counter_add("resilience.resumes_total", 1);
                self.last_good = Some(state);
            }
        }
        if self.watchdog.is_some() && self.last_good.is_none() {
            // Rollback target before the first epoch completes.
            self.last_good = Some(capture_state(model, opt, rng, 0, 0, history));
        }
        Ok(start)
    }

    /// Screens one mini-batch loss, applying any `nan_loss` fault first.
    ///
    /// # Errors
    ///
    /// Returns the [`Divergence`] the watchdog detected; the caller should
    /// roll back via [`Guardian::rollback`].
    pub fn check_loss(&mut self, step: u64, loss: f64) -> Result<(), Divergence> {
        let loss = if self.res.faults.fire_nan_loss(step) {
            f64::NAN
        } else {
            loss
        };
        match &mut self.watchdog {
            Some(wd) => wd.check_loss(step, loss),
            None => Ok(()),
        }
    }

    /// Screens one accumulated gradient norm.
    ///
    /// # Errors
    ///
    /// Returns the [`Divergence`] the watchdog detected.
    pub fn check_grad_norm(&self, step: u64, norm: f64) -> Result<(), Divergence> {
        match &self.watchdog {
            Some(wd) => wd.check_grad_norm(step, norm),
            None => Ok(()),
        }
    }

    /// Rolls the run back to the last good state with a halved learning
    /// rate. Returns `Ok(Some(point))` to resume from, or `Ok(None)` when
    /// the retry budget is exhausted and the run should give up.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the rollback state cannot be
    /// applied or re-persisted.
    pub fn rollback<M: Model>(
        &mut self,
        model: &mut M,
        opt: &mut Adam,
        rng: &mut StdRng,
        history: &mut Vec<TrainRecord>,
    ) -> Result<Option<ResumePoint>, CheckpointError> {
        let max_retries = self.res.watchdog.as_ref().map_or(0, |w| w.max_retries);
        self.retries += 1;
        if self.retries > max_retries {
            return Ok(None);
        }
        let lr_factor = self.res.watchdog.as_ref().map_or(0.5, |w| w.lr_factor);
        let Some(state) = self.last_good.as_mut() else {
            return Ok(None);
        };
        // The reduced rate is written back into the rollback state so
        // repeated rollbacks keep shrinking it, and persisted so a crash
        // right after the rollback resumes at the reduced rate too.
        state.optim.lr *= lr_factor;
        let state = state.clone();
        restore_state(&state, model, opt, rng, history)?;
        if let Some(wd) = &mut self.watchdog {
            wd.reset();
        }
        snia_telemetry::counter_add("resilience.rollbacks_total", 1);
        snia_telemetry::gauge_set("resilience.lr", f64::from(state.optim.lr));
        if let Some(dir) = &self.dir {
            dir.save(&state)?;
        }
        Ok(Some(ResumePoint {
            epoch: state.next_epoch,
            step: state.step,
        }))
    }

    /// Records a completed epoch: captures the new last-good state, resets
    /// the retry budget and persists the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the checkpoint cannot be
    /// written.
    pub fn epoch_end<M: Model>(
        &mut self,
        model: &M,
        opt: &Adam,
        rng: &StdRng,
        epoch: usize,
        step: u64,
        history: &[TrainRecord],
    ) -> Result<(), CheckpointError> {
        if self.dir.is_none() && self.watchdog.is_none() {
            return Ok(());
        }
        let state = capture_state(model, opt, rng, epoch + 1, step, history);
        if let Some(dir) = &self.dir {
            dir.save(&state)?;
        }
        self.retries = 0;
        self.last_good = Some(state);
        Ok(())
    }

    /// Applies a `kill` fault at the start of `epoch`: flushes telemetry
    /// and hard-exits the process with code 137 (simulating SIGKILL after
    /// the previous epoch's checkpoint landed).
    pub fn maybe_kill(&self, epoch: usize) {
        if self.res.faults.should_kill(epoch) {
            snia_telemetry::counter_add("resilience.faults_injected_total", 1);
            snia_telemetry::sync();
            eprintln!("SNIA_FAULT: injected kill at epoch {epoch}");
            std::process::exit(137);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> TrainState {
        TrainState {
            version: CHECKPOINT_VERSION,
            model: ModelState {
                weights: Checkpoint::default(),
                extra: vec![vec![], vec![1.0, 2.0]],
            },
            optim: AdamState {
                lr: 0.1,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: 3,
                m: vec![vec![0.5, -0.5]],
                v: vec![vec![0.25, 0.25]],
            },
            rng: [u64::MAX - 1, 2, 3, 4],
            next_epoch: 2,
            step: 17,
            history: vec![TrainRecord {
                epoch: 0,
                train_loss: 0.5,
                val_loss: 0.6,
                train_acc: f64::NAN,
                val_acc: f64::NAN,
            }],
        }
    }

    #[test]
    fn train_state_bytes_round_trip() {
        let s = tiny_state();
        let bytes = s.to_bytes().unwrap();
        let back = TrainState::from_bytes(&bytes).unwrap();
        assert_eq!(back.rng, s.rng);
        assert_eq!(back.next_epoch, s.next_epoch);
        assert_eq!(back.optim, s.optim);
        assert!(back.history[0].train_acc.is_nan());
        assert_eq!(back.history[0].train_loss, s.history[0].train_loss);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let s = tiny_state();
        let mut bytes = s.to_bytes().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            TrainState::from_bytes(&bytes),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        let full = s.to_bytes().unwrap();
        assert!(matches!(
            TrainState::from_bytes(&full[..full.len() - 5]),
            Err(CheckpointError::Truncated { .. })
        ));
        assert!(matches!(
            TrainState::from_bytes(b"not a checkpoint"),
            Err(CheckpointError::BadHeader)
        ));
        assert!(matches!(
            TrainState::from_bytes(b"SNIA-CKPT v9 crc32=00000000 len=0\n"),
            Err(CheckpointError::Version { found: 9 })
        ));
    }

    #[test]
    fn checkpoint_dir_rotates_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("snia_ckpt_dir_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cd = CheckpointDir::new(&dir);
        assert!(cd.load().unwrap().is_none());

        let mut s = tiny_state();
        s.next_epoch = 1;
        cd.save(&s).unwrap();
        s.next_epoch = 2;
        cd.save(&s).unwrap();
        assert_eq!(cd.load().unwrap().unwrap().next_epoch, 2);
        assert_eq!(
            CheckpointDir::load_path(cd.prev_path()).unwrap().next_epoch,
            1
        );

        // Corrupt `latest`: load falls back to `prev`.
        let mut bytes = std::fs::read(cd.latest_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(cd.latest_path(), &bytes).unwrap();
        assert_eq!(cd.load().unwrap().unwrap().next_epoch, 1);

        // Corrupt both: the `latest` error surfaces.
        std::fs::write(cd.prev_path(), b"garbage").unwrap();
        assert!(matches!(
            cd.load(),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_parses_and_fires_once() {
        let plan = FaultPlan::parse("nan_loss@step=40, panic_worker@epoch=2,kill@epoch=3").unwrap();
        assert!(!plan.is_empty());
        assert!(!plan.fire_nan_loss(39));
        assert!(plan.fire_nan_loss(40));
        assert!(!plan.fire_nan_loss(40), "nan_loss must fire once");
        assert!(!plan.fire_panic_worker(1));
        assert!(plan.fire_panic_worker(2));
        assert!(!plan.fire_panic_worker(2), "panic_worker must fire once");
        assert!(plan.should_kill(3));
        assert!(!plan.should_kill(4));

        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("nan_loss@step").is_err());
        assert!(FaultPlan::parse("explode@step=1").is_err());
        assert!(FaultPlan::parse("nan_loss@step=x").is_err());
    }

    #[test]
    fn watchdog_detects_divergence() {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        for step in 0..10 {
            wd.check_loss(step, 1.0).unwrap();
        }
        assert!(matches!(
            wd.check_loss(10, f64::NAN),
            Err(Divergence::NonFiniteLoss { step: 10 })
        ));
        assert!(matches!(
            wd.check_loss(11, 2e4),
            Err(Divergence::LossExploded { .. })
        ));
        // A modest increase is fine.
        wd.check_loss(12, 1.5).unwrap();
        assert!(matches!(
            wd.check_grad_norm(13, f64::INFINITY),
            Err(Divergence::NonFiniteGradient { .. })
        ));
        assert!(matches!(
            wd.check_grad_norm(13, 1e9),
            Err(Divergence::GradientExploded { .. })
        ));
        wd.check_grad_norm(13, 10.0).unwrap();
        // After reset the next loss re-seeds the average.
        wd.reset();
        wd.check_loss(14, 500.0).unwrap();
    }

    #[test]
    fn watchdog_absolute_threshold_applies_before_warmup() {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        assert!(matches!(
            wd.check_loss(0, 1e7),
            Err(Divergence::LossExploded { .. })
        ));
    }

    #[test]
    fn resilience_disabled_is_inert() {
        let res = Resilience::disabled();
        assert!(res.checkpoint_dir.is_none());
        assert!(res.watchdog.is_none());
        assert!(res.faults.is_empty());
        let g = Guardian::new(&res);
        assert!(!g.watchdog_active());
    }
}

//! `train-joint`: the public `train_joint_resilient` call at the paper
//! geometry, plus a step loop that drives the same public pieces
//! (`joint_batch`, `BatchExecutor::step`, `JointModel::forward/backward`,
//! `Adam::step`) so each step can be timed from outside.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use snia_core::parallel::ShardStats;
use snia_core::train::{
    joint_batch, joint_examples, joint_loss_acc, train_joint_resilient, ClassifierTrainConfig,
    JointExample, TrainRecord,
};
use snia_core::{BatchExecutor, JointModel, Resilience};
use snia_dataset::{cache, Dataset, DatasetConfig};
use snia_nn::loss::{bce_with_logits, sigmoid_probs};
use snia_nn::optim::{Adam, Optimizer};
use snia_nn::Mode;

use crate::stats::{digest_f64, median, ms};
use crate::trace::Probe;
use crate::{Bench, Outcome, Phase};

#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub samples: usize,
    pub train_examples: usize,
    pub val_examples: usize,
    pub crop: usize,
    pub hidden: usize,
    pub batch_size: usize,
    pub threads: usize,
    pub lr: f32,
    /// Share of the run spent in public `train_joint_resilient` calls (the
    /// rest runs the timed step loop).
    pub public_share: f64,
}

impl TrainConfig {
    pub fn joint(smoke: bool) -> Self {
        TrainConfig {
            samples: if smoke { 2 } else { 20 },
            train_examples: if smoke { 4 } else { 64 },
            val_examples: if smoke { 2 } else { 16 },
            crop: 60,
            hidden: 100,
            batch_size: if smoke { 2 } else { 16 },
            threads: 2,
            lr: 1e-3,
            public_share: 0.5,
        }
    }

    pub fn describe(&self) -> Value {
        serde_json::json!({
            "samples": (self.samples),
            "train_examples": (self.train_examples),
            "val_examples": (self.val_examples),
            "crop": (self.crop),
            "hidden": (self.hidden),
            "batch_size": (self.batch_size),
            "threads": (self.threads),
            "lr": (f64::from(self.lr)),
            "public_share": (self.public_share),
            "resilience": "disabled",
            "render_cache": "configured and warmed in setup"
        })
    }

    fn train_config(&self, seed: u64) -> ClassifierTrainConfig {
        ClassifierTrainConfig {
            epochs: 1,
            batch_size: self.batch_size,
            lr: self.lr,
            seed,
            threads: self.threads,
        }
    }
}

/// A prepared training problem: dataset, example split and a warm render
/// cache.
pub struct TrainBench {
    pub cfg: TrainConfig,
    pub seed: u64,
    pub ds: Dataset,
    pub train_ex: Vec<JointExample>,
    pub val_ex: Vec<JointExample>,
}

/// Generates the dataset, points the render cache at `dir` and warms it
/// with every stamp the run will read.
pub fn setup(cfg: TrainConfig, seed: u64, dir: &Path) -> TrainBench {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: cfg.samples,
        catalog_size: 500,
        seed,
    });
    let idx: Vec<usize> = (0..ds.len()).collect();
    let mut examples = joint_examples(&idx);
    examples.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7EA1));
    assert!(
        examples.len() >= cfg.train_examples + cfg.val_examples,
        "dataset too small for the configured split"
    );
    let train_ex = examples[..cfg.train_examples].to_vec();
    let val_ex = examples[cfg.train_examples..cfg.train_examples + cfg.val_examples].to_vec();
    cache::configure(Some(dir)).expect("render cache directory");
    for chunk in examples[..cfg.train_examples + cfg.val_examples].chunks(cfg.batch_size) {
        let _ = joint_batch(&ds, chunk, cfg.crop);
    }
    TrainBench {
        cfg,
        seed,
        ds,
        train_ex,
        val_ex,
    }
}

/// What the step loop trained (its timings go into the caller's `Probe`).
#[derive(Debug, Default)]
pub struct StepLoop {
    /// Mean training loss of each completed epoch.
    pub epoch_losses: Vec<f64>,
    pub steps: u64,
}

impl TrainBench {
    pub fn fresh_model(&self) -> JointModel {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x3017);
        JointModel::from_scratch(self.cfg.crop, self.cfg.hidden, &mut rng)
    }

    /// One public `train_joint_resilient` call (one epoch, validation
    /// included) on a freshly initialised model.
    pub fn public_call(&self) -> (Duration, Result<Vec<TrainRecord>, String>) {
        let mut jm = self.fresh_model();
        let t0 = Instant::now();
        let result = train_joint_resilient(
            &mut jm,
            &self.ds,
            &self.train_ex,
            &self.val_ex,
            &self.cfg.train_config(self.seed),
            &Resilience::disabled(),
        );
        (t0.elapsed(), result.map_err(|e| e.to_string()))
    }

    /// Trains a fresh model epoch by epoch with the same schedule as
    /// `train_joint_resilient` (identity-reset shuffle, `BatchExecutor`
    /// step, Adam step, validation after each epoch) until `budget` has
    /// passed, timing every piece into `probe`.
    ///
    /// Probe names: `core.train.step` (whole executor step),
    /// `core.train.shard_compute` (slowest shard), `core.train.exec_overhead`
    /// (step minus slowest shard), `core.train.batch_assembly`
    /// (`joint_batch` inside a shard), `nn.optim.adam`, `core.train.val`.
    pub fn step_loop(&self, budget: Duration, probe: &mut Probe) -> StepLoop {
        let cfg = self.cfg.train_config(self.seed);
        let mut jm = self.fresh_model();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut opt = Adam::new(cfg.lr);
        let mut exec = BatchExecutor::new(&jm, cfg.threads);
        let mut order: Vec<usize> = (0..self.train_ex.len()).collect();
        let mut out = StepLoop::default();
        let started = Instant::now();
        let crop = self.cfg.crop;
        while started.elapsed() < budget || out.epoch_losses.is_empty() {
            for (i, o) in order.iter_mut().enumerate() {
                *o = i;
            }
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                let exs: Vec<JointExample> = chunk.iter().map(|&i| self.train_ex[i]).collect();
                // (assembly ms, shard ms) of each shard of this step.
                let shards: Mutex<Vec<(f64, f64)>> = Mutex::new(Vec::new());
                let ds = &self.ds;
                let stats = probe.time("core.train.step", || {
                    exec.step(&mut jm, exs.len(), |model, range, scale| {
                        let t0 = Instant::now();
                        let shard = &exs[range];
                        let (images, dates, targets, _) = joint_batch(ds, shard, crop);
                        let assembled = t0.elapsed();
                        let y = model.forward(&images, &dates, Mode::Train);
                        let (loss, mut grad) = bce_with_logits(&y, &targets);
                        if scale != 1.0 {
                            grad = &grad * scale;
                        }
                        model.backward(&grad);
                        let probs = sigmoid_probs(&y);
                        let correct = probs
                            .data()
                            .iter()
                            .zip(targets.data())
                            .filter(|(&p, &t)| (p >= 0.5) == (t >= 0.5))
                            .count();
                        shards
                            .lock()
                            .expect("shard timings")
                            .push((ms(assembled), ms(t0.elapsed())));
                        ShardStats {
                            loss: f64::from(loss),
                            correct,
                            samples: shard.len(),
                        }
                    })
                });
                let step_ms = *probe.samples("core.train.step").last().expect("step timed");
                let shards = shards.into_inner().expect("shard timings");
                let slowest = shards.iter().map(|s| s.1).fold(0.0, f64::max);
                probe.record("core.train.shard_compute", slowest);
                probe.record("core.train.exec_overhead", step_ms - slowest);
                for (assembly, _) in &shards {
                    probe.record("core.train.batch_assembly", *assembly);
                }
                probe.time("nn.optim.adam", || opt.step(&mut jm.params_mut()));
                loss_sum += stats.loss;
                batches += 1;
                out.steps += 1;
                if started.elapsed() >= budget && !out.epoch_losses.is_empty() {
                    break;
                }
            }
            if batches == order.len().div_ceil(cfg.batch_size) {
                out.epoch_losses.push(loss_sum / batches as f64);
                probe.time("core.train.val", || {
                    joint_loss_acc(&mut jm, &self.ds, &self.val_ex, cfg.batch_size)
                });
            }
        }
        out
    }
}

impl Bench for TrainBench {
    fn measure(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let public_budget = Duration::from_secs_f64(seconds * self.cfg.public_share);
        let mut phase = Phase::new("train_joint_resilient");
        let mut busy = Duration::ZERO;
        let mut digests = Vec::new();
        let mut first_loss = None;
        let mut all_finite = true;
        let mut call_rates = Vec::new();
        let steps_per_call = self.train_ex.len().div_ceil(self.cfg.batch_size) as u64;
        while busy < public_budget || phase.sent == 0 {
            phase.sent += steps_per_call;
            let (dt, result) = self.public_call();
            busy += dt;
            match result {
                Ok(history) => {
                    phase.answered += steps_per_call;
                    call_rates.push(self.train_ex.len() as f64 / dt.as_secs_f64());
                    let losses: Vec<f64> = history
                        .iter()
                        .flat_map(|r| [r.train_loss, r.val_loss])
                        .collect();
                    all_finite &= losses.iter().all(|l| l.is_finite());
                    digests.push(digest_f64(&losses));
                    first_loss.get_or_insert(history[0].train_loss);
                }
                Err(e) => {
                    eprintln!("train_joint_resilient failed: {e}");
                    phase.failed += steps_per_call;
                }
            }
        }
        out.throughput = if call_rates.is_empty() {
            0.0
        } else {
            median(&call_rates)
        };
        out.detail(
            "public_overall_per_s",
            Value::F64((digests.len() * self.train_ex.len()) as f64 / busy.as_secs_f64()),
        );
        out.phases.push(phase);
        out.check("train_losses_finite", all_finite && !digests.is_empty());
        out.check(
            "train_loss_digest_repeats",
            digests.windows(2).all(|w| w[0] == w[1]),
        );
        if let Some(d) = digests.first() {
            out.detail("train_loss_digest", Value::Str(format!("{d:016x}")));
        }

        let loop_budget = Duration::from_secs_f64(seconds * (1.0 - self.cfg.public_share));
        let mut probe = Probe::default();
        let steps = self.step_loop(loop_budget, &mut probe);
        let mut phase = Phase::new("step_loop");
        phase.sent = steps.steps;
        phase.answered = steps.steps;
        out.phases.push(phase);
        out.latencies_ms = probe.samples("core.train.step").to_vec();
        out.check(
            "step_loop_losses_finite",
            steps.epoch_losses.iter().all(|l| l.is_finite()),
        );
        out.check(
            "step_loop_first_epoch_loss_matches_public_call",
            first_loss.is_some_and(|l| l.to_bits() == steps.epoch_losses[0].to_bits()),
        );
        out
    }
}

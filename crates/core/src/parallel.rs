//! Data-parallel minibatch execution.
//!
//! [`BatchExecutor`] shards each minibatch across `N` replicas of a
//! [`Model`], runs forward/backward on every shard concurrently with
//! `std::thread::scope`, accumulates the worker gradients back into the
//! master in a fixed order, and leaves the (single) optimizer step to the
//! caller. Each shard scales its loss gradient by `shard / total` so the
//! summed replica gradients equal the full-batch mean gradient.
//!
//! With one thread the executor calls the closure directly on the master
//! with a unit gradient scale — that path is bit-identical to the
//! sequential training loops it replaced. See DESIGN.md ("Data-parallel
//! batch executor") for the determinism contract across thread counts.

use std::ops::Range;

use crate::Model;

/// Per-shard forward/backward outcome, combined by weighted average
/// (losses) and summation (counts).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Mean loss over the shard.
    pub loss: f64,
    /// Correctly classified examples (0 for regression shards).
    pub correct: usize,
    /// Examples in the shard.
    pub samples: usize,
}

impl ShardStats {
    /// Stats for a regression shard (no accuracy).
    pub fn regression(loss: f64, samples: usize) -> Self {
        ShardStats {
            loss,
            correct: 0,
            samples,
        }
    }
}

/// Worker panics tolerated before the worker is dropped and its load
/// shifts back to the remaining shards.
const MAX_WORKER_STRIKES: u32 = 2;

/// Shards minibatches across worker replicas of a model.
///
/// Holds `threads - 1` worker replicas (built with [`Model::replicate`];
/// the executor copies the master's parameter values into them before
/// every step); shard 0 always runs on the master
/// model in the calling thread, so `threads == 1` adds no replicas, no
/// synchronisation and no thread spawns.
///
/// Worker panics are isolated: a panicking shard is re-run on the master
/// (gradient accumulation is additive, so the combined gradient is
/// unchanged) and the worker accumulates a strike; after
/// [`MAX_WORKER_STRIKES`] it is dropped and the executor degrades toward
/// the sequential path. Only a panic on the *master* shard propagates.
pub struct BatchExecutor<M> {
    workers: Vec<M>,
    strikes: Vec<u32>,
}

impl<M: Model> BatchExecutor<M> {
    /// Builds an executor with `threads.max(1)` total shards.
    pub fn new(master: &M, threads: usize) -> Self {
        let workers: Vec<M> = (1..threads.max(1)).map(|_| master.replicate()).collect();
        let strikes = vec![0; workers.len()];
        BatchExecutor { workers, strikes }
    }

    /// Total shard count (workers + the master).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs one minibatch of `total` examples.
    ///
    /// `run(model, range, grad_scale)` must: forward the examples in
    /// `range` through `model` in training mode, scale the loss gradient
    /// by `grad_scale` (`shard_len / total`), backward it, and return the
    /// shard's [`ShardStats`]. The executor zeroes all gradients first and
    /// accumulates worker gradients into the master afterwards (in worker
    /// index order, so results are independent of thread scheduling); the
    /// caller applies the optimizer step.
    ///
    /// Returns combined stats: sample-weighted mean loss, summed counts.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or the closure panics on the *master* shard
    /// (worker-shard panics are caught and the shard re-runs on the
    /// master — which is also where a deterministic poison-pill batch
    /// eventually surfaces).
    pub fn step<F>(&mut self, master: &mut M, total: usize, run: F) -> ShardStats
    where
        F: Fn(&mut M, Range<usize>, f32) -> ShardStats + Sync,
    {
        assert!(total > 0, "empty minibatch");
        master.zero_grad();
        if self.workers.is_empty() {
            // Sequential path: one shard, unit gradient scale —
            // bit-identical to the pre-executor training loops.
            return run(master, 0..total, 1.0);
        }

        let telemetry = snia_telemetry::enabled();
        if telemetry {
            snia_telemetry::gauge_set("parallelism.threads", self.threads() as f64);
        }
        {
            let _t = snia_telemetry::timer("parallelism.sync_ns");
            for worker in &mut self.workers {
                sync_values(worker, master);
                worker.zero_grad();
            }
        }

        let ranges = shard_ranges(total, self.threads());
        let master_range = ranges[0].clone();
        let (mut stats, failed) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(&ranges[1..])
                .map(|(worker, range)| {
                    let range = range.clone();
                    let run = &run;
                    scope.spawn(move || {
                        if range.is_empty() {
                            Ok(ShardStats::default())
                        } else {
                            let scale = range.len() as f32 / total as f32;
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                run(worker, range.clone(), scale)
                            }))
                            .map_err(|_| range)
                        }
                    })
                })
                .collect();
            let scale = master_range.len() as f32 / total as f32;
            let master_stats = run(master, master_range, scale);
            let mut all = vec![master_stats];
            let mut failed: Vec<(usize, Range<usize>)> = Vec::new();
            for (wi, h) in handles.into_iter().enumerate() {
                match h.join().expect("worker thread could not be joined") {
                    Ok(s) => all.push(s),
                    Err(range) => failed.push((wi, range)),
                }
            }
            (all, failed)
        });

        // A panicked worker may hold a partial gradient; discard it and
        // re-run the whole failed shard on the master (accumulation is
        // additive, so the combined gradient is exactly what the worker
        // would have contributed). Worker order keeps this deterministic.
        let mut worker_failed = vec![false; self.workers.len()];
        if !failed.is_empty() {
            snia_telemetry::counter_add("resilience.worker_panics_total", failed.len() as u64);
            for (wi, range) in &failed {
                worker_failed[*wi] = true;
                self.strikes[*wi] += 1;
                let scale = range.len() as f32 / total as f32;
                stats.push(run(master, range.clone(), scale));
            }
        }

        {
            let _t = snia_telemetry::timer("parallelism.grad_accum_ns");
            for (wi, worker) in self.workers.iter().enumerate() {
                if worker_failed[wi] {
                    continue;
                }
                let src = worker.params();
                for (dst, src) in master.params_mut().into_iter().zip(src) {
                    dst.grad.add_scaled(&src.grad, 1.0);
                }
            }
        }

        if !failed.is_empty() {
            // Strike out repeat offenders: the executor sheds the broken
            // replicas and degrades toward the sequential path.
            let mut dropped = 0u64;
            let mut i = 0;
            while i < self.workers.len() {
                if self.strikes[i] >= MAX_WORKER_STRIKES {
                    self.workers.remove(i);
                    self.strikes.remove(i);
                    dropped += 1;
                } else {
                    i += 1;
                }
            }
            if dropped > 0 {
                snia_telemetry::counter_add("resilience.workers_dropped_total", dropped);
            }
        }
        if telemetry {
            snia_telemetry::counter_add(
                "parallelism.shards_total",
                stats.iter().filter(|s| s.samples > 0).count() as u64,
            );
        }

        let combined = stats
            .drain(..)
            .fold(ShardStats::default(), |acc, s| ShardStats {
                loss: acc.loss + s.loss * s.samples as f64,
                correct: acc.correct + s.correct,
                samples: acc.samples + s.samples,
            });
        ShardStats {
            loss: combined.loss / combined.samples as f64,
            ..combined
        }
    }
}

/// Copies parameter values (not gradients) from `src` into `dst`.
fn sync_values<M: Model>(dst: &mut M, src: &M) {
    let src_params = src.params();
    let dst_params = dst.params_mut();
    assert_eq!(src_params.len(), dst_params.len(), "replica param mismatch");
    for (d, s) in dst_params.into_iter().zip(src_params) {
        d.value.data_mut().copy_from_slice(s.value.data());
    }
}

/// Splits `0..total` into `shards` contiguous, balanced ranges.
///
/// Re-exported from [`snia_dataset::parallel`] — the canonical shard
/// arithmetic, shared with parallel dataset generation so both sides of
/// the pipeline split work identically.
pub use snia_dataset::parallel::shard_ranges;

#[cfg(test)]
mod tests {
    use super::*;

    use snia_nn::layers::Linear;
    use snia_nn::{Param, Sequential, Tensor};

    /// A linear scorer `y = w·x + b` used to make gradient math
    /// transparent; the shard closures below write `w`'s gradient directly.
    struct Toy(Sequential);

    impl Toy {
        fn new() -> Self {
            let w = Tensor::from_vec(vec![1, 1], vec![2.0]);
            let mut net = Sequential::new();
            net.push(Linear::from_parts(w, Tensor::zeros(vec![1])));
            Toy(net)
        }
        fn w(&self) -> &Param {
            self.params()[0]
        }
        fn w_mut(&mut self) -> &mut Param {
            self.params_mut().remove(0)
        }
    }

    impl Model for Toy {
        fn networks(&self) -> Vec<&Sequential> {
            vec![&self.0]
        }
        fn networks_mut(&mut self) -> Vec<&mut Sequential> {
            vec![&mut self.0]
        }
        fn replicate(&self) -> Self {
            Toy::new()
        }
    }

    /// Mean-loss gradient of `loss = mean((w·x - t)²)/…` stand-in: each
    /// shard adds `scale · Σ x_i` to the weight gradient, so the full-batch
    /// answer is `mean(x)` — independent of sharding for exact data.
    fn shard_run(xs: &[f32]) -> impl Fn(&mut Toy, Range<usize>, f32) -> ShardStats + Sync + '_ {
        move |model, range, scale| {
            let shard = &xs[range.clone()];
            let g: f32 = shard.iter().sum::<f32>() / shard.len() as f32;
            model.w_mut().grad.data_mut()[0] += g * scale;
            ShardStats::regression(f64::from(g), shard.len())
        }
    }

    #[test]
    fn single_thread_runs_master_directly() {
        let mut m = Toy::new();
        let mut exec = BatchExecutor::new(&m, 1);
        assert_eq!(exec.threads(), 1);
        let xs = [1.0f32, 2.0, 3.0, 6.0];
        let stats = exec.step(&mut m, xs.len(), shard_run(&xs));
        assert_eq!(stats.samples, 4);
        assert_eq!(m.w().grad.data()[0], 3.0);
        assert_eq!(stats.loss, 3.0);
    }

    #[test]
    fn sharded_gradients_match_sequential() {
        // Integer data and power-of-two shard sizes: every shard mean and
        // scale is exact in f32, so each thread count yields the identical
        // full-batch mean gradient bit-for-bit.
        let xs: Vec<f32> = (0..16).map(|i| (i % 8) as f32 - 4.0).collect();
        let mut want = None;
        for threads in [1usize, 2, 4, 8] {
            let mut m = Toy::new();
            let mut exec = BatchExecutor::new(&m, threads);
            assert_eq!(exec.threads(), threads);
            let stats = exec.step(&mut m, xs.len(), shard_run(&xs));
            assert_eq!(stats.samples, xs.len());
            let got = m.w().grad.data()[0];
            match want {
                None => want = Some(got),
                Some(w) => assert_eq!(got, w, "threads={threads}"),
            }
        }
    }

    #[test]
    fn more_shards_than_samples() {
        let xs = [4.0f32, 8.0];
        let mut m = Toy::new();
        let mut exec = BatchExecutor::new(&m, 4);
        let stats = exec.step(&mut m, xs.len(), shard_run(&xs));
        assert_eq!(stats.samples, 2);
        assert_eq!(m.w().grad.data()[0], 6.0);
    }

    #[test]
    fn step_zeroes_stale_gradients() {
        let xs = [2.0f32, 2.0];
        let mut m = Toy::new();
        m.w_mut().grad.data_mut()[0] = 99.0;
        let mut exec = BatchExecutor::new(&m, 2);
        exec.step(&mut m, xs.len(), shard_run(&xs));
        assert_eq!(m.w().grad.data()[0], 2.0);
    }

    #[test]
    fn workers_see_master_values() {
        let xs = [1.0f32, 1.0];
        let mut m = Toy::new();
        m.w_mut().value.data_mut()[0] = 7.0;
        let mut exec = BatchExecutor::new(&m, 2);
        // Worker replicas start from Toy::new() (w = 2); the closure reads
        // the synced value to prove the executor copied it over.
        let stats = exec.step(&mut m, xs.len(), |model, range, _| {
            ShardStats::regression(f64::from(model.w().value.data()[0]), range.len())
        });
        assert_eq!(stats.loss, 7.0);
    }

    #[test]
    fn shard_ranges_are_balanced_and_cover() {
        assert_eq!(shard_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(shard_ranges(4, 4), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(shard_ranges(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(shard_ranges(0, 2), vec![0..0, 0..0]);
    }

    #[test]
    #[should_panic(expected = "empty minibatch")]
    fn empty_batch_panics() {
        let mut m = Toy::new();
        let mut exec = BatchExecutor::new(&m, 2);
        exec.step(&mut m, 0, |_, _, _| ShardStats::default());
    }

    #[test]
    fn worker_panic_is_isolated_and_gradient_exact() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Integer data (see sharded_gradients_match_sequential): all shard
        // means and scales are exact in f32, so the recovered gradient must
        // match the sequential one bit-for-bit.
        let xs: Vec<f32> = (0..16).map(|i| (i % 8) as f32 - 4.0).collect();
        let mut seq = Toy::new();
        BatchExecutor::new(&seq, 1).step(&mut seq, xs.len(), shard_run(&xs));
        let want = seq.w().grad.data()[0];

        let bomb = AtomicBool::new(true);
        let mut m = Toy::new();
        let mut exec = BatchExecutor::new(&m, 4);
        let stats = exec.step(&mut m, xs.len(), |model, range, scale| {
            if range.start != 0
                && bomb
                    .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                panic!("injected worker panic");
            }
            shard_run(&xs)(model, range, scale)
        });
        assert_eq!(stats.samples, xs.len());
        assert_eq!(m.w().grad.data()[0], want);
        assert_eq!(exec.threads(), 4, "one strike must not drop the worker");
    }

    #[test]
    fn repeat_offender_worker_is_dropped() {
        // A worker whose *thread* is broken (panics whenever work runs off
        // the master thread) strikes out; its shard re-runs on the master
        // both times, and the executor then degrades to sequential.
        let xs = [1.0f32, 2.0, 3.0, 6.0];
        let main_thread = std::thread::current().id();
        let mut m = Toy::new();
        let mut exec = BatchExecutor::new(&m, 2);
        for round in 0..MAX_WORKER_STRIKES {
            let stats = exec.step(&mut m, xs.len(), |model, range, scale| {
                if std::thread::current().id() != main_thread {
                    panic!("broken worker thread");
                }
                shard_run(&xs)(model, range, scale)
            });
            assert_eq!(stats.samples, xs.len(), "round {round}");
            assert_eq!(m.w().grad.data()[0], 3.0, "round {round}");
        }
        assert_eq!(exec.threads(), 1, "worker must be dropped after strikes");
        let stats = exec.step(&mut m, xs.len(), shard_run(&xs));
        assert_eq!(stats.samples, xs.len());
        assert_eq!(m.w().grad.data()[0], 3.0);
    }
}

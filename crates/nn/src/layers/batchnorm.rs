//! Batch normalisation (Ioffe & Szegedy 2015), used after every convolution
//! in the paper's band-wise CNN.

use crate::layer::{Layer, Mode, Param};
use crate::planes::{channel_sums, plane_sums, plane_sums_by};
use crate::tensor::Tensor;

/// Batch normalisation over the channel axis.
///
/// Accepts either 4-D inputs `(N, C, H, W)` (statistics per channel over
/// `N·H·W`) or 2-D inputs `(N, F)` (statistics per feature over `N`). In
/// [`Mode::Train`] batch statistics are used and running statistics are
/// updated with exponential momentum; in [`Mode::Eval`] the running
/// statistics are used.
///
/// [`BatchNorm2d`] and [`BatchNorm1d`] are aliases for this type, named for
/// the input ranks they are conventionally applied to.
#[derive(Debug)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    eps: f32,
    momentum: f32,
    cache: Option<BnCache>,
}

/// Alias of [`BatchNorm`] for `(N, C, H, W)` inputs.
pub type BatchNorm2d = BatchNorm;
/// Alias of [`BatchNorm`] for `(N, F)` inputs.
pub type BatchNorm1d = BatchNorm;

#[derive(Debug)]
struct BnCache {
    input_shape: Vec<usize>,
    /// Normalised activations, flattened as (N, C, L).
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `channels` channels with
    /// `eps = 1e-5`, `momentum = 0.1`, `γ = 1`, `β = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        BatchNorm {
            gamma: Param::new("gamma", Tensor::ones(vec![channels])),
            beta: Param::new("beta", Tensor::zeros(vec![channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// The running (inference-time) mean per channel.
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running (inference-time) variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Interprets the input as `(n, channels, l)`.
    fn dims(&self, shape: &[usize]) -> (usize, usize) {
        match shape.len() {
            4 => {
                assert_eq!(shape[1], self.channels, "BatchNorm channel mismatch");
                (shape[0], shape[2] * shape[3])
            }
            2 => {
                assert_eq!(shape[1], self.channels, "BatchNorm feature mismatch");
                (shape[0], 1)
            }
            _ => panic!("BatchNorm expects 2-D or 4-D input, got {shape:?}"),
        }
    }
}

/// Adds each sample's `c` plane totals into per-channel sums, in sample
/// order.
fn channel_totals(plane_totals: &[f32], c: usize) -> Vec<f32> {
    let mut totals = vec![0.0f32; c];
    for sample in plane_totals.chunks_exact(c) {
        for (t, s) in totals.iter_mut().zip(sample) {
            *t += s;
        }
    }
    totals
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(input.clone(), mode)
    }

    /// Normalises the input in place, in both modes.
    fn forward_owned(&mut self, mut input: Tensor, mode: Mode) -> Tensor {
        let (n, l) = self.dims(input.shape());
        let c = self.channels;
        let m = (n * l) as f32;
        let data = input.data();

        let (mean, var) = if mode == Mode::Train {
            assert!(
                n * l > 1,
                "BatchNorm training requires more than one value per channel"
            );
            // Per-plane sums, then per-channel totals in sample order.
            let mut plane_totals = vec![0.0f32; n * c];
            plane_sums(data, l, &mut plane_totals);
            let mut mean = channel_totals(&plane_totals, c);
            for v in &mut mean {
                *v /= m;
            }
            plane_sums_by(
                data,
                l,
                &mut plane_totals,
                |p| mean[p % c],
                |x, mu| (x - mu).powi(2),
            );
            let mut var = channel_totals(&plane_totals, c);
            for v in &mut var {
                *v /= m;
            }
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                // Unbiased variance for the running estimate, as in PyTorch.
                let unbiased = if m > 1.0 {
                    var[ci] * m / (m - 1.0)
                } else {
                    var[ci]
                };
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * unbiased;
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        // Plane p belongs to channel p % c. An empty (N, C, 0, W) input
        // in eval has no plane to visit.
        let stats = |p: usize| {
            let ci = p % c;
            (mean[ci], inv_std[ci], gamma[ci], beta[ci])
        };
        let (plane, len) = (l.max(1), input.len());
        let planes = input.data_mut().chunks_exact_mut(plane).enumerate();
        if mode == Mode::Train {
            let mut xhat = vec![0.0f32; len];
            for ((p, y), xh) in planes.zip(xhat.chunks_exact_mut(plane)) {
                let (mu, is, g, b) = stats(p);
                for (y, xh) in y.iter_mut().zip(xh) {
                    *xh = (*y - mu) * is;
                    *y = g * *xh + b;
                }
            }
            self.cache = Some(BnCache {
                input_shape: input.shape().to_vec(),
                xhat,
                inv_std,
            });
        } else {
            for (p, y) in planes {
                let (mu, is, g, b) = stats(p);
                for y in y {
                    *y = g * ((*y - mu) * is) + b;
                }
            }
        }
        input
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm::backward called without a training forward pass");
        let (n, l) = self.dims(&cache.input_shape);
        let c = self.channels;
        let m = (n * l) as f32;
        let go = grad_output.data();
        assert_eq!(go.len(), cache.xhat.len(), "BatchNorm grad_output shape");

        // Per-channel [Σdy, Σdy·x̂], four channels in lockstep.
        let sums = channel_sums(go, &cache.xhat, c, l, |g, xh| [g, g * xh]);
        for (ci, [sum_dy, sum_dy_xhat]) in sums.iter().enumerate() {
            self.beta.grad.data_mut()[ci] += sum_dy;
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat;
        }

        // dx = γ·inv_std · (dy − Σdy/m − x̂·Σ(dy·x̂)/m)
        let gamma = self.gamma.value.data();
        let mut grad_input = Tensor::zeros(cache.input_shape.clone());
        let planes = go.chunks_exact(l).zip(cache.xhat.chunks_exact(l));
        let grads = grad_input.data_mut().chunks_exact_mut(l);
        for (p, ((dy, xhat), gi)) in planes.zip(grads).enumerate() {
            let ci = p % c;
            let scale = gamma[ci] * cache.inv_std[ci];
            let [sum_dy, sum_dy_xhat] = sums[ci];
            let (mean_dy, mean_dy_xhat) = (sum_dy / m, sum_dy_xhat / m);
            for ((gi, &g), &xh) in gi.iter_mut().zip(dy).zip(xhat) {
                *gi = scale * (g - mean_dy - xh * mean_dy_xhat);
            }
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn name(&self) -> &'static str {
        "BatchNorm"
    }

    /// Running mean then running variance, concatenated — the buffers an
    /// exact checkpoint resume must carry alongside γ and β.
    fn extra_state(&self) -> Vec<f32> {
        let mut s = Vec::with_capacity(2 * self.channels);
        s.extend_from_slice(&self.running_mean);
        s.extend_from_slice(&self.running_var);
        s
    }

    fn load_extra_state(&mut self, state: &[f32]) -> Result<(), crate::layer::StateError> {
        if state.len() != 2 * self.channels {
            return Err(crate::layer::StateError::LengthMismatch {
                layer: 0,
                expected: 2 * self.channels,
                found: state.len(),
            });
        }
        self.running_mean.copy_from_slice(&state[..self.channels]);
        self.running_var.copy_from_slice(&state[self.channels..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_output_is_normalised() {
        let mut bn = BatchNorm::new(2);
        let mut rng = StdRng::seed_from_u64(40);
        let x = init::randn_tensor(&mut rng, vec![8, 2, 3, 3], 3.0).map(|v| v + 5.0);
        let y = bn.forward(&x, Mode::Train);
        // Per channel: mean ≈ 0, var ≈ 1.
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..8 {
                for hy in 0..3 {
                    for wx in 0..3 {
                        vals.push(y.at(&[ni, ci, hy, wx]));
                    }
                }
            }
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm::new(1);
        let mut rng = StdRng::seed_from_u64(41);
        // Drive the running stats toward the data distribution.
        for _ in 0..200 {
            let x = init::randn_tensor(&mut rng, vec![16, 1, 2, 2], 2.0).map(|v| v + 3.0);
            bn.forward(&x, Mode::Train);
        }
        assert!((bn.running_mean()[0] - 3.0).abs() < 0.2);
        assert!((bn.running_var()[0] - 4.0).abs() < 0.4);
        // Eval on a fresh batch should normalise with those stats.
        let x = init::randn_tensor(&mut rng, vec![64, 1, 2, 2], 2.0).map(|v| v + 3.0);
        let y = bn.forward(&x, Mode::Eval);
        assert!(y.mean().abs() < 0.2);
    }

    #[test]
    fn two_d_input_per_feature() {
        let mut bn = BatchNorm::new(3);
        let mut rng = StdRng::seed_from_u64(42);
        let x = init::randn_tensor(&mut rng, vec![32, 3], 2.0);
        let y = bn.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[32, 3]);
        let col_mean = y.sum_rows().map(|v| v / 32.0);
        assert!(col_mean.data().iter().all(|v| v.abs() < 1e-4));
    }

    #[test]
    fn gradcheck_4d() {
        let mut rng = StdRng::seed_from_u64(43);
        let x = init::randn_tensor(&mut rng, vec![4, 2, 3, 3], 1.0);
        check_layer_gradients(Box::new(BatchNorm::new(2)), &x, 1e-2, 4e-2);
    }

    #[test]
    fn gradcheck_2d() {
        let mut rng = StdRng::seed_from_u64(44);
        let x = init::randn_tensor(&mut rng, vec![6, 3], 1.0);
        check_layer_gradients(Box::new(BatchNorm::new(3)), &x, 1e-2, 4e-2);
    }

    /// What one training step of BatchNorm produces.
    struct Step {
        out: Vec<f32>,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
        grad_in: Vec<f32>,
        grad_gamma: Vec<f32>,
        grad_beta: Vec<f32>,
    }

    /// The training forward and backward as per-channel loops over each
    /// sample's plane, accumulating element by element — the layer's
    /// original summation order, kept as the bit-level oracle.
    fn oracle_step(bn: &BatchNorm, x: &Tensor, dy: &Tensor) -> Step {
        let (n, l) = bn.dims(x.shape());
        let c = bn.channels;
        let m = (n * l) as f32;
        let (data, go) = (x.data(), dy.data());
        let (gamma, beta) = (bn.gamma.value.data(), bn.beta.value.data());
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for ni in 0..n {
            for (ci, mean) in mean.iter_mut().enumerate() {
                let off = (ni * c + ci) * l;
                *mean += data[off..off + l].iter().sum::<f32>();
            }
        }
        mean.iter_mut().for_each(|v| *v /= m);
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * l;
                var[ci] += data[off..off + l]
                    .iter()
                    .map(|x| (x - mean[ci]).powi(2))
                    .sum::<f32>();
            }
        }
        var.iter_mut().for_each(|v| *v /= m);
        let mo = bn.momentum;
        let running_mean = (0..c)
            .map(|ci| (1.0 - mo) * bn.running_mean[ci] + mo * mean[ci])
            .collect();
        let running_var = (0..c)
            .map(|ci| (1.0 - mo) * bn.running_var[ci] + mo * (var[ci] * m / (m - 1.0)))
            .collect();
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + bn.eps).sqrt()).collect();
        let mut out = vec![0.0f32; data.len()];
        let mut xhat = vec![0.0f32; data.len()];
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * l;
                for j in off..off + l {
                    xhat[j] = (data[j] - mean[ci]) * inv_std[ci];
                    out[j] = gamma[ci] * xhat[j] + beta[ci];
                    sum_dy[ci] += go[j];
                    sum_dy_xhat[ci] += go[j] * xhat[j];
                }
            }
        }
        let mut grad_in = vec![0.0f32; data.len()];
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * l;
                let scale = gamma[ci] * inv_std[ci];
                for j in off..off + l {
                    grad_in[j] = scale * (go[j] - sum_dy[ci] / m - xhat[j] * (sum_dy_xhat[ci] / m));
                }
            }
        }
        let accumulate = |prior: &Tensor, sums: &[f32]| -> Vec<f32> {
            prior.data().iter().zip(sums).map(|(a, b)| a + b).collect()
        };
        Step {
            out,
            running_mean,
            running_var,
            grad_in,
            grad_gamma: accumulate(&bn.gamma.grad, &sum_dy_xhat),
            grad_beta: accumulate(&bn.beta.grad, &sum_dy),
        }
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn training_step_is_bit_identical_to_per_channel_loops() {
        // Channel counts hit every remainder of the 8-plane and
        // 4-channel groups; fractional data, non-trivial γ/β, running
        // statistics and pre-filled gradients make every sum's order show.
        let mut rng = StdRng::seed_from_u64(45);
        let channels = (1..=9).chain([10, 20, 30]);
        for c in channels {
            for shape in [vec![3, c, 5, 7], vec![2, c, 1, 3], vec![7, c]] {
                let mut bn = BatchNorm::new(c);
                bn.gamma.value = init::uniform_tensor(&mut rng, vec![c], 0.5, 1.5);
                bn.beta.value = init::uniform_tensor(&mut rng, vec![c], -1.0, 1.0);
                bn.gamma.grad = init::uniform_tensor(&mut rng, vec![c], -1.0, 1.0);
                bn.beta.grad = init::uniform_tensor(&mut rng, vec![c], -1.0, 1.0);
                bn.running_mean = init::uniform_tensor(&mut rng, vec![c], -1.0, 1.0)
                    .data()
                    .to_vec();
                bn.running_var = init::uniform_tensor(&mut rng, vec![c], 0.5, 2.0)
                    .data()
                    .to_vec();
                let x = init::uniform_tensor(&mut rng, shape.clone(), -3.0, 5.0);
                let dy = init::uniform_tensor(&mut rng, shape.clone(), -2.0, 2.0);
                let want = oracle_step(&bn, &x, &dy);

                let out = bn.forward(&x, Mode::Train);
                let grad_in = bn.backward(&dy);
                let what = format!("shape {shape:?}");
                assert_eq!(bits(out.data()), bits(&want.out), "out {what}");
                assert_eq!(
                    bits(&bn.running_mean),
                    bits(&want.running_mean),
                    "mean {what}"
                );
                assert_eq!(bits(&bn.running_var), bits(&want.running_var), "var {what}");
                assert_eq!(bits(grad_in.data()), bits(&want.grad_in), "dx {what}");
                let (dg, db) = (bn.gamma.grad.data(), bn.beta.grad.data());
                assert_eq!(bits(dg), bits(&want.grad_gamma), "dγ {what}");
                assert_eq!(bits(db), bits(&want.grad_beta), "dβ {what}");
            }
        }
    }

    #[test]
    fn eval_accepts_an_empty_spatial_plane() {
        let mut bn = BatchNorm::new(2);
        let y = bn.forward(&Tensor::zeros(vec![3, 2, 0, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[3, 2, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "more than one value")]
    fn train_single_value_panics() {
        let mut bn = BatchNorm::new(2);
        bn.forward(&Tensor::zeros(vec![1, 2]), Mode::Train);
    }

    #[test]
    #[should_panic(expected = "2-D or 4-D")]
    fn three_d_input_panics() {
        let mut bn = BatchNorm::new(2);
        bn.forward(&Tensor::zeros(vec![1, 2, 3]), Mode::Eval);
    }
}

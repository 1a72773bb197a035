//! Parametric ReLU (He et al. 2015), used after every convolution in the
//! paper's band-wise CNN.

use crate::layer::{Layer, Mode, Param};
use crate::planes::channel_sums;
use crate::tensor::Tensor;

/// Parametric ReLU: `y = x` for `x > 0`, `y = a·x` otherwise, with a
/// learnable slope `a`.
///
/// The slope is either shared (`PRelu::shared`) or per-channel
/// (`PRelu::channelwise`). For 4-D inputs `(N, C, H, W)` the channel axis is
/// axis 1; for 2-D inputs `(N, F)` the feature axis is axis 1.
#[derive(Debug)]
pub struct PRelu {
    alpha: Param,
    cache_input: Option<Tensor>,
}

impl PRelu {
    /// A single slope shared across all channels, initialised to 0.25
    /// (the value from He et al. 2015).
    pub fn shared() -> Self {
        PRelu {
            alpha: Param::new("alpha", Tensor::full(vec![1], 0.25)),
            cache_input: None,
        }
    }

    /// One slope per channel (axis 1), each initialised to 0.25.
    pub fn channelwise(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        PRelu {
            alpha: Param::new("alpha", Tensor::full(vec![channels], 0.25)),
            cache_input: None,
        }
    }

    /// Length of the run of elements that share one slope: the whole
    /// tensor for a shared slope, one channel plane (the product of the
    /// axes after the channel axis) otherwise. Plane `p` uses slope
    /// `p % alpha.len()`.
    fn plane_len(&self, input: &Tensor) -> usize {
        let inner = if self.alpha.value.len() == 1 {
            input.len()
        } else {
            input.shape()[2..].iter().product()
        };
        inner.max(1)
    }
}

impl Layer for PRelu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(input.clone(), mode)
    }

    /// Rewrites the input in place in eval; a training pass keeps the
    /// input itself for backward and writes a new output.
    fn forward_owned(&mut self, mut input: Tensor, mode: Mode) -> Tensor {
        if self.alpha.value.len() > 1 {
            assert!(
                input.ndim() >= 2 && input.shape()[1] == self.alpha.value.len(),
                "channelwise PRelu with {} slopes got input shape {:?}",
                self.alpha.value.len(),
                input.shape()
            );
        }
        let inner = self.plane_len(&input);
        let alpha = self.alpha.value.data().iter().cycle();
        let activate = |a: f32, x: f32| {
            let ax = a * x;
            if x > 0.0 {
                x
            } else {
                ax
            }
        };
        if mode == Mode::Train {
            let mut out = Tensor::zeros(input.shape().to_vec());
            let planes = input.data().chunks_exact(inner);
            let outs = out.data_mut().chunks_exact_mut(inner);
            for ((plane, out_plane), &a) in planes.zip(outs).zip(alpha) {
                for (y, &x) in out_plane.iter_mut().zip(plane) {
                    *y = activate(a, x);
                }
            }
            self.cache_input = Some(input);
            return out;
        }
        for (plane, &a) in input.data_mut().chunks_exact_mut(inner).zip(alpha) {
            for y in plane {
                *y = activate(a, *y);
            }
        }
        input
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cache_input
            .take()
            .expect("PRelu::backward called without a training forward pass");
        let inner = self.plane_len(&input);
        let mut grad_in = Tensor::zeros(input.shape().to_vec());
        let planes = input.data().chunks_exact(inner);
        let dys = grad_output.data().chunks_exact(inner);
        let grads = grad_in.data_mut().chunks_exact_mut(inner);
        let alpha = self.alpha.value.data().iter().cycle();
        for (((plane, dy), gi_plane), &a) in planes.zip(dys).zip(grads).zip(alpha) {
            for ((gi, &g), &x) in gi_plane.iter_mut().zip(dy).zip(plane) {
                let ga = g * a;
                *gi = if x > 0.0 { g } else { ga };
            }
        }
        // Σ g·x over x ≤ 0, per slope, in element order; channelwise
        // slopes run four at a time. Adding +0.0 where x > 0 leaves each
        // sum's bits unchanged: it starts at +0.0 and a sum only reaches
        // −0.0 as −0.0 + −0.0.
        let slopes = self.alpha.value.len();
        let grad_alpha = channel_sums(grad_output.data(), input.data(), slopes, inner, |g, x| {
            [if x > 0.0 { 0.0 } else { g * x }]
        });
        for (grad, [ga]) in self.alpha.grad.data_mut().iter_mut().zip(grad_alpha) {
            *grad += ga;
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.alpha]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.alpha]
    }

    fn name(&self) -> &'static str {
        "PRelu"
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
    fn shared_forward_known_values() {
        let mut p = PRelu::shared();
        let x = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        let y = p.forward(&x.reshape(vec![1, 3]), Mode::Eval);
        assert_eq!(y.data(), &[-0.5, 0.0, 3.0]);
    }

    #[test]
    fn channelwise_uses_one_slope_per_channel() {
        let mut p = PRelu::channelwise(2);
        p.params_mut()[0]
            .value
            .data_mut()
            .copy_from_slice(&[0.1, 0.5]);
        // (N=1, C=2, H=1, W=2)
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![-1.0, 1.0, -1.0, 1.0]);
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[-0.1, 1.0, -0.5, 1.0]);
    }

    #[test]
    fn shared_gradcheck() {
        let mut rng = StdRng::seed_from_u64(20);
        let x = init::randn_tensor(&mut rng, vec![3, 4], 1.0).map(|v| {
            if v.abs() < 0.1 {
                v + 0.2
            } else {
                v
            }
        });
        check_layer_gradients(Box::new(PRelu::shared()), &x, 1e-3, 2e-2);
    }

    #[test]
    fn shared_gradcheck_on_conv_input() {
        // The channel-shared slope must also accumulate correctly over
        // 4-D (N,C,H,W) activations, where one scalar sees every element.
        let mut rng = StdRng::seed_from_u64(22);
        let x = init::randn_tensor(&mut rng, vec![2, 3, 2, 2], 1.0).map(|v| {
            if v.abs() < 0.1 {
                v + 0.2
            } else {
                v
            }
        });
        check_layer_gradients(Box::new(PRelu::shared()), &x, 1e-3, 2e-2);
    }

    #[test]
    fn channelwise_gradcheck() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = init::randn_tensor(&mut rng, vec![2, 3, 2, 2], 1.0).map(|v| {
            if v.abs() < 0.1 {
                v + 0.2
            } else {
                v
            }
        });
        check_layer_gradients(Box::new(PRelu::channelwise(3)), &x, 1e-3, 2e-2);
    }

    /// Fractional data with every fourth element replaced by +0.0, −0.0,
    /// a negative or a positive value in turn.
    fn signed_zero_data(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
        let mut x = init::uniform_tensor(rng, shape, -3.0, 3.0);
        for (i, v) in x.data_mut().iter_mut().enumerate().step_by(4) {
            *v = [0.0, -0.0, -1.375, 0.625][(i / 4) % 4];
        }
        x
    }

    /// Forward, `grad_in` and the accumulated `alpha.grad` from an
    /// element-wise loop that finds each element's slope from its flat
    /// index, adding `g·x` only where `x ≤ 0`.
    fn elementwise_reference(
        alpha: &[f32],
        alpha_grad: &[f32],
        x: &Tensor,
        dy: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let shape = x.shape();
        let slope = |i: usize| {
            if alpha.len() == 1 {
                0
            } else {
                let inner: usize = shape[2..].iter().product::<usize>().max(1);
                (i / inner) % shape[1]
            }
        };
        let mut y = vec![0.0f32; x.len()];
        let mut gi = vec![0.0f32; x.len()];
        let mut ga = vec![0.0f32; alpha.len()];
        for (i, (&xv, &g)) in x.data().iter().zip(dy.data()).enumerate() {
            let s = slope(i);
            if xv > 0.0 {
                y[i] = xv;
                gi[i] = g;
            } else {
                y[i] = alpha[s] * xv;
                gi[i] = g * alpha[s];
                ga[s] += g * xv;
            }
        }
        let grad = alpha_grad.iter().zip(&ga).map(|(a, b)| a + b).collect();
        (y, gi, grad)
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn bit_identical_to_elementwise_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        let shapes = [
            vec![5, 3],
            vec![4, 3, 5, 7],
            vec![2, 6, 1, 9],
            vec![3, 1, 4, 4],
        ];
        for shape in shapes {
            let channels = shape[1];
            for mut p in [PRelu::shared(), PRelu::channelwise(channels)] {
                let n_alpha = p.params()[0].len();
                let slopes = init::uniform_tensor(&mut rng, vec![n_alpha], -0.5, 0.5);
                let prior = init::uniform_tensor(&mut rng, vec![n_alpha], -1.0, 1.0);
                p.alpha.value = slopes.clone();
                p.alpha.grad = prior.clone();
                let x = signed_zero_data(&mut rng, shape.clone());
                let dy = init::uniform_tensor(&mut rng, shape.clone(), -2.0, 2.0);
                let (want_y, want_gi, want_ga) =
                    elementwise_reference(slopes.data(), prior.data(), &x, &dy);

                let y = p.forward(&x, Mode::Train);
                let gi = p.backward(&dy);
                let what = format!("{shape:?}, {n_alpha} slopes");
                assert_eq!(bits(y.data()), bits(&want_y), "forward {what}");
                assert_eq!(bits(gi.data()), bits(&want_gi), "grad_in {what}");
                assert_eq!(bits(p.alpha.grad.data()), bits(&want_ga), "alpha {what}");
                let eval = p.forward(&x, Mode::Eval);
                assert_eq!(bits(eval.data()), bits(&want_y), "eval {what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "channelwise PRelu")]
    fn channel_mismatch_panics() {
        let mut p = PRelu::channelwise(3);
        p.forward(&Tensor::zeros(vec![1, 2, 4, 4]), Mode::Eval);
    }
}

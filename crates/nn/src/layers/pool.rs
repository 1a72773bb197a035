//! Spatial pooling layers.
//!
//! The paper singles out max pooling as the most important component of the
//! band-wise CNN, "since every observation contains no more than 1
//! supernova" — max pooling makes the magnitude estimate translation-robust
//! to the (single) point source's sub-window position. [`AvgPool2d`] exists
//! for the ablation bench that tests this claim.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Non-overlapping max pooling over `(N, C, H, W)` inputs.
///
/// The window is square and the stride equals the window size. Trailing rows
/// and columns that do not fill a window are dropped (floor semantics), as
/// in most frameworks. Each window keeps its first element greater than
/// every earlier one, scanning rows then columns from −∞, so a window of
/// only NaN or −∞ routes its gradient to its own first element.
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    cache: Option<PoolCache>,
}

/// Largest window [`MaxPool2d`] accepts: argmax offsets are `u8`.
const MAX_WINDOW: usize = 16;

#[derive(Debug)]
struct PoolCache {
    input_shape: Vec<usize>,
    /// Offset `ky·window + kx` of each output element's maximum within its
    /// window.
    argmax: Vec<u8>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given square window (the paper
    /// uses 2).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `window > 16`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            window <= MAX_WINDOW,
            "window {window} is over the largest supported, {MAX_WINDOW}"
        );
        MaxPool2d {
            window,
            cache: None,
        }
    }

    /// Output spatial size for an input size.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.window, w / self.window)
    }
}

/// Max-pools one `h×w` plane into `out` (`oh×ow`) with `k×k` windows,
/// calling `record(output index, argmax offset)` for each window.
#[inline(always)]
fn max_pool_kxk(
    plane: &[f32],
    w: usize,
    k: usize,
    out: &mut [f32],
    mut record: impl FnMut(usize, u8),
) {
    let ow = w / k;
    if ow == 0 {
        return;
    }
    for (oy, out_row) in out.chunks_exact_mut(ow).enumerate() {
        for (ox, o) in out_row.iter_mut().enumerate() {
            let (mut best, mut at) = (f32::NEG_INFINITY, 0u8);
            for ky in 0..k {
                let row = &plane[(oy * k + ky) * w + ox * k..][..k];
                for (kx, &v) in row.iter().enumerate() {
                    if v > best {
                        best = v;
                        at = (ky * k + kx) as u8;
                    }
                }
            }
            *o = best;
            record(oy * ow + ox, at);
        }
    }
}

/// [`max_pool_kxk`], with the paper's window 2 as a constant so the
/// compiler specialises the loop for it.
fn max_pool(plane: &[f32], w: usize, k: usize, out: &mut [f32], record: impl FnMut(usize, u8)) {
    if k == 2 {
        max_pool_kxk(plane, w, 2, out, record)
    } else {
        max_pool_kxk(plane, w, k, out, record)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.ndim(), 4, "MaxPool2d expects (N, C, H, W)");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = self.out_size(h, w);
        assert!(
            oh > 0 && ow > 0,
            "input {h}x{w} smaller than window {}",
            self.window
        );
        let k = self.window;
        let mut out = Tensor::zeros(vec![n, c, oh, ow]);
        let planes = input.data().chunks_exact(h * w);
        let outs = out.data_mut().chunks_exact_mut(oh * ow);
        if mode == Mode::Train {
            // Only a training pass needs the argmax for backward.
            let mut argmax = vec![0u8; n * c * oh * ow];
            for ((plane, out), at) in planes.zip(outs).zip(argmax.chunks_exact_mut(oh * ow)) {
                max_pool(plane, w, k, out, |i, offset| at[i] = offset);
            }
            self.cache = Some(PoolCache {
                input_shape: input.shape().to_vec(),
                argmax,
            });
        } else {
            for (plane, out) in planes.zip(outs) {
                max_pool(plane, w, k, out, |_, _| {});
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("MaxPool2d::backward called without a training forward pass");
        let (h, w) = (cache.input_shape[2], cache.input_shape[3]);
        let k = self.window;
        let (oh, ow) = self.out_size(h, w);
        // Plane index of each window offset, relative to the window's
        // first element.
        let deltas: Vec<usize> = (0..k * k).map(|at| at / k * w + at % k).collect();
        let mut grad_input = Tensor::zeros(cache.input_shape);
        let grads = grad_input.data_mut().chunks_exact_mut(h * w);
        let dys = grad_output.data().chunks_exact(oh * ow);
        for ((gi, dy), at) in grads.zip(dys).zip(cache.argmax.chunks_exact(oh * ow)) {
            let rows = dy.chunks_exact(ow).zip(at.chunks_exact(ow));
            for (oy, (dy_row, at_row)) in rows.enumerate() {
                let gi_row = &mut gi[oy * k * w..];
                for (ox, (&g, &offset)) in dy_row.iter().zip(at_row).enumerate() {
                    gi_row[ox * k + deltas[usize::from(offset)]] += g;
                }
            }
        }
        grad_input
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Non-overlapping average pooling (ablation counterpart of [`MaxPool2d`]).
#[derive(Debug)]
pub struct AvgPool2d {
    window: usize,
    cache_input_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with the given square window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        AvgPool2d {
            window,
            cache_input_shape: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.ndim(), 4, "AvgPool2d expects (N, C, H, W)");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        assert!(oh > 0 && ow > 0, "input smaller than window");
        let inv = 1.0 / (k * k) as f32;
        let mut out = Tensor::zeros(vec![n, c, oh, ow]);
        let data = input.data();
        let out_data = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let plane_off = (ni * c + ci) * h * w;
                let out_off = (ni * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..k {
                            let row_off = plane_off + (oy * k + ky) * w;
                            for kx in 0..k {
                                acc += data[row_off + ox * k + kx];
                            }
                        }
                        out_data[out_off + oy * ow + ox] = acc * inv;
                    }
                }
            }
        }
        if mode == Mode::Train {
            self.cache_input_shape = Some(input.shape().to_vec());
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .cache_input_shape
            .take()
            .expect("AvgPool2d::backward called without a training forward pass");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut grad_input = Tensor::zeros(shape.clone());
        let gi = grad_input.data_mut();
        let go = grad_output.data();
        for ni in 0..n {
            for ci in 0..c {
                let plane_off = (ni * c + ci) * h * w;
                let out_off = (ni * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[out_off + oy * ow + ox] * inv;
                        for ky in 0..k {
                            let row_off = plane_off + (oy * k + ky) * w;
                            for kx in 0..k {
                                gi[row_off + ox * k + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
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
    fn maxpool_forward_known_values() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                -1., -2., 0., 0., //
                -3., -4., 0., 9.,
            ],
        );
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., -1., 9.]);
    }

    #[test]
    fn maxpool_drops_trailing_odd_edge() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::ones(vec![1, 1, 5, 5]);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 9., 3., 4.]);
        pool.forward(&x, Mode::Train);
        let g = pool.backward(&Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]));
        assert_eq!(g.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn maxpool_window_without_a_maximum_routes_to_its_own_first_element() {
        // Channel 0 is ordinary; channel 1 is all NaN (and, in the second
        // case, all −∞), so no element beats the −∞ start value.
        for fill in [f32::NAN, f32::NEG_INFINITY] {
            let mut pool = MaxPool2d::new(2);
            let x = Tensor::from_vec(
                vec![1, 2, 2, 2],
                vec![1., 2., 3., 4., fill, fill, fill, fill],
            );
            let y = pool.forward(&x, Mode::Train);
            assert_eq!(y.data()[0], 4.0);
            let g = pool.backward(&Tensor::ones(vec![1, 2, 1, 1]));
            assert_eq!(g.data(), &[0., 0., 0., 1., 1., 0., 0., 0.], "fill {fill}");
        }
    }

    #[test]
    #[should_panic(expected = "largest supported, 16")]
    fn maxpool_rejects_windows_whose_offsets_overflow_u8() {
        MaxPool2d::new(17);
    }

    #[test]
    fn maxpool_eval_keeps_no_backward_cache() {
        let mut pool = MaxPool2d::new(2);
        pool.forward(&Tensor::ones(vec![2, 3, 4, 4]), Mode::Eval);
        assert!(pool.cache.is_none());
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut rng = StdRng::seed_from_u64(30);
        // Spread-out values so the argmax is stable under the FD step.
        let x = init::uniform_tensor(&mut rng, vec![2, 2, 4, 4], -10.0, 10.0);
        check_layer_gradients(Box::new(MaxPool2d::new(2)), &x, 1e-3, 2e-2);
    }

    #[test]
    fn avgpool_forward_known_values() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn avgpool_gradcheck() {
        let mut rng = StdRng::seed_from_u64(31);
        let x = init::randn_tensor(&mut rng, vec![2, 3, 4, 4], 1.0);
        check_layer_gradients(Box::new(AvgPool2d::new(2)), &x, 1e-2, 2e-2);
    }

    #[test]
    fn max_vs_avg_on_point_source() {
        // A pooled point source survives max pooling at full amplitude but is
        // diluted by average pooling — the paper's motivation for max.
        let mut x = Tensor::zeros(vec![1, 1, 4, 4]);
        *x.at_mut(&[0, 0, 1, 1]) = 8.0;
        let ymax = MaxPool2d::new(4).forward(&x, Mode::Eval);
        let yavg = AvgPool2d::new(4).forward(&x, Mode::Eval);
        assert_eq!(ymax.data()[0], 8.0);
        assert_eq!(yavg.data()[0], 0.5);
    }
}

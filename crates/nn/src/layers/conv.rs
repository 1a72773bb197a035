//! 2-D convolution (stride 1) lowered onto GEMM.
//!
//! Each sample is lowered to a column matrix
//! ([`crate::lowering::im2col`]) and runs the cache-blocked GEMM kernels
//! ([`crate::gemm`]) for the forward pass, the weight gradient and the
//! column gradient (scattered back with
//! [`crate::lowering::col2im_add`]). Only one sample's column matrix
//! exists at a time: a training forward caches the input tensor, and
//! backward lowers each sample again into the same scratch buffer the
//! forward used. The scratch buffers live on the layer, so steady-state
//! training does no per-call allocation beyond the output tensors and
//! the cached input.
//!
//! The reference implementations this layer is checked against (the
//! direct six-deep loop nest and a per-sample lowered oracle) live in the
//! `conv_props` integration tests.

use rand::Rng;

use crate::gemm::{gemm_nn, gemm_nt, gemm_tn};
use crate::init;
use crate::layer::{Layer, Mode, Param};
use crate::lowering::{col2im_add, im2col, ConvGeom};
use crate::planes::plane_sums;
use crate::tensor::Tensor;

/// Spatial padding policy for [`Conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding: output is `H - K + 1` per side.
    Valid,
    /// Zero padding of `K / 2` per side: output matches the input size
    /// (requires an odd kernel).
    Same,
}

/// A 2-D convolution layer (stride 1) over `(N, C, H, W)` inputs.
///
/// The kernel is square (`K × K`); the paper uses `K = 5` throughout.
///
/// # Examples
///
/// ```
/// use snia_nn::layers::{Conv2d, Padding};
/// use snia_nn::{Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(1, 10, 5, Padding::Same, &mut rng);
/// let x = Tensor::zeros(vec![2, 1, 16, 16]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 10, 16, 16]);
/// ```
pub struct Conv2d {
    /// Weight stored as `(out_channels, in_channels * k * k)`.
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: Padding,
    /// Reusable one-sample im2col / column-gradient buffers (see module
    /// docs).
    scratch: Scratch,
    /// The input of the last training forward; backward lowers it again
    /// one sample at a time.
    cache_input: Option<Tensor>,
}

#[derive(Default)]
struct Scratch {
    col: Vec<f32>,
    dcol: Vec<f32>,
    /// Per-output-channel sums of one sample's output gradient.
    db: Vec<f32>,
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d")
            .field("weight", &self.weight)
            .field("bias", &self.bias)
            .field("in_channels", &self.in_channels)
            .field("out_channels", &self.out_channels)
            .field("kernel", &self.kernel)
            .field("padding", &self.padding)
            .field("scratch_len", &self.scratch.col.len())
            .field("cached", &self.cache_input.is_some())
            .finish()
    }
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if `padding == Same` with an even
    /// kernel.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: Padding,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0);
        if padding == Padding::Same {
            assert!(kernel % 2 == 1, "Same padding requires an odd kernel");
        }
        let fan_in = in_channels * kernel * kernel;
        let weight = init::he_normal(rng, vec![out_channels, fan_in], fan_in);
        Conv2d {
            weight: Param::new("weight", weight),
            bias: Param::new("bias", Tensor::zeros(vec![out_channels])),
            in_channels,
            out_channels,
            kernel,
            padding,
            scratch: Scratch::default(),
            cache_input: None,
        }
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output spatial size for a given input size.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        match self.padding {
            Padding::Valid => (h + 1 - self.kernel, w + 1 - self.kernel),
            Padding::Same => (h, w),
        }
    }

    fn pad(&self) -> usize {
        match self.padding {
            Padding::Valid => 0,
            Padding::Same => self.kernel / 2,
        }
    }

    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            channels: self.in_channels,
            height: h,
            width: w,
            kernel: self.kernel,
            pad: self.pad(),
        }
    }

    fn check_input(&self, input: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(
            input.ndim(),
            4,
            "Conv2d expects (N, C, H, W), got {:?}",
            input.shape()
        );
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (out_h, out_w) = self.out_size(h, w);
        assert!(
            out_h > 0 && out_w > 0,
            "input {h}x{w} too small for kernel {}",
            self.kernel
        );
        (n, c, h, w)
    }

    /// The lowered forward: per sample, im2col, one GEMM and the bias.
    fn convolve(&mut self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = self.check_input(input);
        let (out_h, out_w) = self.out_size(h, w);
        let g = self.geom(h, w);
        let (ckk, ow_len) = (g.col_rows(), out_h * out_w);

        let mut out = Tensor::zeros(vec![n, self.out_channels, out_h, out_w]);
        let col = &mut self.scratch.col;
        col.resize(ckk * ow_len, 0.0);
        let bias = self.bias.value.data();
        let samples = input.data().chunks_exact(c * h * w);
        let outs = out.data_mut().chunks_exact_mut(self.out_channels * ow_len);
        for (sample, out_sample) in samples.zip(outs) {
            im2col(&g, sample, col);
            gemm_nn(
                self.weight.value.data(),
                col,
                out_sample,
                self.out_channels,
                ckk,
                ow_len,
            );
            for (plane, &b) in out_sample.chunks_exact_mut(ow_len).zip(bias) {
                for v in plane {
                    *v += b;
                }
            }
        }
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = self.convolve(input);
        if mode == Mode::Train {
            self.cache_input = Some(input.clone());
        }
        out
    }

    /// Keeps the input itself, not a copy, for backward.
    fn forward_owned(&mut self, input: Tensor, mode: Mode) -> Tensor {
        let out = self.convolve(&input);
        if mode == Mode::Train {
            self.cache_input = Some(input);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cache_input
            .take()
            .expect("Conv2d::backward called without a training forward pass");
        let oc = self.out_channels;
        let (c, h, w) = (input.shape()[1], input.shape()[2], input.shape()[3]);
        let (out_h, out_w) = self.out_size(h, w);
        assert_eq!(
            grad_output.shape(),
            &[input.shape()[0], oc, out_h, out_w],
            "Conv2d grad_output shape mismatch"
        );
        let g = self.geom(h, w);
        let (ckk, ow_len) = (g.col_rows(), out_h * out_w);

        let mut grad_input = Tensor::zeros(input.shape().to_vec());
        let Scratch { col, dcol, db } = &mut self.scratch;
        col.resize(ckk * ow_len, 0.0);
        dcol.resize(ckk * ow_len, 0.0);
        db.resize(oc, 0.0);
        let samples = input.data().chunks_exact(c * h * w);
        let dys = grad_output.data().chunks_exact(oc * ow_len);
        let grads = grad_input.data_mut().chunks_exact_mut(c * h * w);
        for ((sample, dy), grad_sample) in samples.zip(dys).zip(grads) {
            im2col(&g, sample, col);
            // dW += dy (OC×OWL) · colᵀ (OWL×CKK): gemm_nt accumulates
            // straight into the gradient buffer.
            gemm_nt(dy, col, self.weight.grad.data_mut(), oc, ow_len, ckk);
            plane_sums(dy, ow_len, db);
            for (dbv, s) in self.bias.grad.data_mut().iter_mut().zip(db.iter()) {
                *dbv += s;
            }
            // dcol = Wᵀ (CKK×OC) · dy (OC×OWL), then scatter back.
            dcol.fill(0.0);
            gemm_tn(self.weight.value.data(), dy, dcol, ckk, oc, ow_len);
            col2im_add(&g, dcol, grad_sample);
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
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
    fn scratch_is_reused_across_calls() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut conv = Conv2d::new(1, 4, 3, Padding::Same, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![2, 1, 8, 8], 1.0);
        let y1 = conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(y1.shape().to_vec()));
        let cap = conv.scratch.col.capacity();
        assert!(cap > 0, "backward must return the col buffer to scratch");
        let y2 = conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(y2.shape().to_vec()));
        assert_eq!(
            conv.scratch.col.capacity(),
            cap,
            "no realloc in steady state"
        );
        // Same weights, same input: identical outputs through buffer reuse.
        assert_eq!(y1, y2);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 3x3 kernel with 1 at the centre acts as identity under Same padding.
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(1, 1, 3, Padding::Same, &mut rng);
        conv.weight.value.fill_zero();
        conv.weight.value.data_mut()[4] = 1.0;
        conv.bias.value.fill_zero();
        let x = init::randn_tensor(&mut rng, vec![1, 1, 5, 5], 1.0);
        let y = conv.forward(&x, Mode::Eval);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradcheck_valid_padding() {
        let mut rng = StdRng::seed_from_u64(8);
        let conv = Conv2d::new(2, 3, 3, Padding::Valid, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![2, 2, 5, 5], 1.0);
        check_layer_gradients(Box::new(conv), &x, 1e-2, 3e-2);
    }

    #[test]
    fn gradcheck_same_padding() {
        let mut rng = StdRng::seed_from_u64(9);
        let conv = Conv2d::new(1, 2, 3, Padding::Same, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![2, 1, 4, 4], 1.0);
        check_layer_gradients(Box::new(conv), &x, 1e-2, 3e-2);
    }

    #[test]
    fn out_size_valid_and_same() {
        let mut rng = StdRng::seed_from_u64(10);
        let conv_v = Conv2d::new(1, 1, 5, Padding::Valid, &mut rng);
        assert_eq!(conv_v.out_size(60, 60), (56, 56));
        let conv_s = Conv2d::new(1, 1, 5, Padding::Same, &mut rng);
        assert_eq!(conv_s.out_size(60, 60), (60, 60));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(2, 1, 3, Padding::Valid, &mut rng);
        conv.forward(&Tensor::zeros(vec![1, 3, 5, 5]), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn same_padding_even_kernel_panics() {
        let mut rng = StdRng::seed_from_u64(12);
        Conv2d::new(1, 1, 4, Padding::Same, &mut rng);
    }
}

//! The band-wise convolutional magnitude estimator (paper Figure 7).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snia_nn::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, PRelu, Padding};
use snia_nn::{Mode, Sequential, Tensor};

use crate::Model;

/// Pooling flavour for the convolution blocks; the paper argues max
/// pooling is essential ("every observation contains no more than 1
/// supernova"), [`PoolKind::Avg`] exists for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// 2×2 max pooling (the paper's choice).
    Max,
    /// 2×2 average pooling (ablation).
    Avg,
}

/// The paper's band-wise CNN: three [5×5 conv → batch-norm → PReLU →
/// 2×2 pool] blocks with 10/20/30 channels, then a three-layer
/// fully-connected head regressing the (normalised) stellar magnitude.
///
/// One instance is shared across all five bands — weight sharing falls out
/// of simply running every band's image through the same network.
#[derive(Debug)]
pub struct FluxCnn {
    net: Sequential,
    crop: usize,
    pool: PoolKind,
}

/// Channel progression of the conv blocks (from the paper).
const CHANNELS: [usize; 3] = [10, 20, 30];

impl FluxCnn {
    /// Builds the CNN for a given input crop size (the paper evaluates
    /// 36–65; 60 performs best in Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `crop` is too small to survive three pooling stages.
    pub fn new<R: Rng + ?Sized>(crop: usize, pool: PoolKind, rng: &mut R) -> Self {
        let spatial = crop / 2 / 2 / 2;
        assert!(spatial >= 2, "crop {crop} too small for three pool stages");
        let mut net = Sequential::new();
        let mut in_ch = 1;
        for &out_ch in &CHANNELS {
            net.push(Conv2d::new(in_ch, out_ch, 5, Padding::Same, rng));
            net.push(BatchNorm2d::new(out_ch));
            net.push(PRelu::channelwise(out_ch));
            match pool {
                PoolKind::Max => net.push(MaxPool2d::new(2)),
                PoolKind::Avg => net.push(AvgPool2d::new(2)),
            }
            in_ch = out_ch;
        }
        net.push(Flatten::new());
        let flat = CHANNELS[2] * spatial * spatial;
        net.push(Linear::new(flat, 64, rng));
        net.push(PRelu::shared());
        net.push(Linear::new(64, 32, rng));
        net.push(PRelu::shared());
        net.push(Linear::new(32, 1, rng));
        FluxCnn { net, crop, pool }
    }

    /// The expected input crop size.
    pub fn crop(&self) -> usize {
        self.crop
    }

    /// The pooling flavour the conv blocks were built with.
    pub fn pool(&self) -> PoolKind {
        self.pool
    }

    /// Forward pass over an `(N, 1, crop, crop)` batch, producing `(N, 1)`
    /// normalised magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configured crop.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(
            &x.shape()[1..],
            &[1, self.crop, self.crop],
            "FluxCnn expects (N, 1, {0}, {0}), got {1:?}",
            self.crop,
            x.shape()
        );
        self.net.forward(x, mode)
    }

    /// Backward pass; returns the gradient with respect to the input batch.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.net.backward(grad)
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.net.num_parameters()
    }

    /// Structural summary for logging.
    pub fn summary(&self) -> String {
        self.net.summary()
    }

    /// Access to the underlying network (for checkpointing).
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// Mutable access to the underlying network (for checkpoint restore).
    pub fn network_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }
}

impl Model for FluxCnn {
    fn networks(&self) -> Vec<&Sequential> {
        vec![&self.net]
    }
    fn networks_mut(&mut self) -> Vec<&mut Sequential> {
        vec![&mut self.net]
    }
    fn replicate(&self) -> Self {
        // The RNG only seeds throwaway initial weights.
        FluxCnn::new(self.crop, self.pool, &mut StdRng::seed_from_u64(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snia_nn::init;

    #[test]
    fn output_shape_is_scalar_per_sample() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![3, 1, 36, 36], 0.5);
        let y = cnn.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[3, 1]);
        assert!(y.all_finite());
    }

    #[test]
    fn supports_all_table1_crop_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for crop in [36, 44, 52, 60, 65] {
            let mut cnn = FluxCnn::new(crop, PoolKind::Max, &mut rng);
            let x = init::randn_tensor(&mut rng, vec![1, 1, crop, crop], 0.5);
            let y = cnn.forward(&x, Mode::Eval);
            assert_eq!(y.shape(), &[1, 1], "crop {crop}");
        }
    }

    #[test]
    fn train_backward_produces_input_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![2, 1, 36, 36], 0.5);
        let y = cnn.forward(&x, Mode::Train);
        cnn.zero_grad();
        let gx = cnn.backward(&Tensor::ones(y.shape().to_vec()));
        assert_eq!(gx.shape(), x.shape());
        assert!(cnn.params().iter().any(|p| p.grad.norm() > 0.0));
    }

    #[test]
    fn avg_pool_variant_builds() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cnn = FluxCnn::new(36, PoolKind::Avg, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![1, 1, 36, 36], 0.5);
        assert!(cnn.forward(&x, Mode::Eval).all_finite());
    }

    #[test]
    fn parameter_count_is_reasonable() {
        let mut rng = StdRng::seed_from_u64(5);
        let cnn = FluxCnn::new(60, PoolKind::Max, &mut rng);
        let n = cnn.num_parameters();
        // conv params + FC head; the FC head dominates (1470·64 ≈ 94k).
        assert!(n > 50_000 && n < 300_000, "param count {n}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_crop_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        FluxCnn::new(8, PoolKind::Max, &mut rng);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_input_size_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        cnn.forward(&Tensor::zeros(vec![1, 1, 44, 44]), Mode::Eval);
    }
}

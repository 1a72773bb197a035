//! The fully-connected light-curve classifier (second stage of Figure 6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snia_nn::layers::{Highway, Linear, Relu};
use snia_nn::{Mode, Sequential, Tensor};

use crate::Model;

/// The paper's SNIa-vs-rest classifier: an input fully-connected layer,
/// two highway layers (Srivastava et al. 2015) and an output
/// fully-connected layer producing one logit.
///
/// The input is `10·k`-dimensional for `k` observation epochs (5 magnitudes
/// and 5 dates per epoch); Figure 9 varies the hidden width (100 units is
/// sufficient), Figure 10 varies `k`.
#[derive(Debug)]
pub struct LightCurveClassifier {
    net: Sequential,
    input_dim: usize,
    hidden: usize,
}

impl LightCurveClassifier {
    /// Builds a classifier for `epochs` observation epochs with the given
    /// hidden width.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0` or `hidden == 0`.
    pub fn new<R: Rng + ?Sized>(epochs: usize, hidden: usize, rng: &mut R) -> Self {
        assert!(epochs > 0, "need at least one epoch");
        assert!(hidden > 0, "hidden width must be positive");
        let input_dim = 10 * epochs;
        let mut net = Sequential::new();
        net.push(Linear::new(input_dim, hidden, rng));
        net.push(Relu::new());
        net.push(Highway::new(hidden, rng));
        net.push(Highway::new(hidden, rng));
        net.push(Linear::new(hidden, 1, rng));
        LightCurveClassifier {
            net,
            input_dim,
            hidden,
        }
    }

    /// The expected input dimensionality (`10 · epochs`).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Forward pass over `(N, input_dim)` features, producing `(N, 1)`
    /// logits (apply a sigmoid for probabilities).
    ///
    /// # Panics
    ///
    /// Panics on an input dimension mismatch.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(
            x.shape()[1],
            self.input_dim,
            "classifier expects {} features, got {:?}",
            self.input_dim,
            x.shape()
        );
        self.net.forward(x, mode)
    }

    /// Backward pass; returns the gradient with respect to the features.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.net.backward(grad)
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.net.num_parameters()
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

impl Model for LightCurveClassifier {
    fn networks(&self) -> Vec<&Sequential> {
        vec![&self.net]
    }
    fn networks_mut(&mut self) -> Vec<&mut Sequential> {
        vec![&mut self.net]
    }
    fn replicate(&self) -> Self {
        // The RNG only seeds throwaway initial weights.
        let mut rng = StdRng::seed_from_u64(0);
        LightCurveClassifier::new(self.input_dim / 10, self.hidden, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snia_nn::init;
    use snia_nn::loss::bce_with_logits;
    use snia_nn::optim::{Adam, Optimizer};

    #[test]
    fn logit_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut clf = LightCurveClassifier::new(1, 100, &mut rng);
        assert_eq!(clf.input_dim(), 10);
        let x = init::randn_tensor(&mut rng, vec![4, 10], 1.0);
        let y = clf.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[4, 1]);
    }

    #[test]
    fn multi_epoch_input_dims() {
        let mut rng = StdRng::seed_from_u64(2);
        for k in 1..=4 {
            let clf = LightCurveClassifier::new(k, 50, &mut rng);
            assert_eq!(clf.input_dim(), 10 * k);
        }
    }

    #[test]
    fn learns_a_linearly_separable_rule() {
        // Positive class iff feature 0 > 0 — the classifier must fit this
        // quickly.
        let mut rng = StdRng::seed_from_u64(3);
        let mut clf = LightCurveClassifier::new(1, 32, &mut rng);
        let n = 64;
        let x = init::randn_tensor(&mut rng, vec![n, 10], 1.0);
        let t_vec: Vec<f32> = (0..n)
            .map(|i| if x.data()[i * 10] > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let t = Tensor::from_vec(vec![n, 1], t_vec);
        let mut opt = Adam::new(0.01);
        let mut final_loss = f32::MAX;
        for _ in 0..300 {
            let y = clf.forward(&x, Mode::Train);
            let (loss, grad) = bce_with_logits(&y, &t);
            final_loss = loss;
            clf.zero_grad();
            clf.backward(&grad);
            opt.step(&mut clf.params_mut());
        }
        assert!(final_loss < 0.1, "loss {final_loss}");
    }

    #[test]
    fn parameter_count_scales_with_hidden() {
        let mut rng = StdRng::seed_from_u64(4);
        let small = LightCurveClassifier::new(1, 10, &mut rng).num_parameters();
        let large = LightCurveClassifier::new(1, 100, &mut rng).num_parameters();
        assert!(large > 10 * small);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn dimension_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut clf = LightCurveClassifier::new(2, 20, &mut rng);
        clf.forward(&Tensor::zeros(vec![1, 10]), Mode::Eval);
    }
}

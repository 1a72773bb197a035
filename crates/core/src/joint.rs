//! The joint image→class model (Figure 6 end-to-end, Figures 11–12).

use rand::Rng;

use snia_nn::{Mode, Param, Sequential, Tensor};

use crate::classifier::LightCurveClassifier;
use crate::flux_cnn::{FluxCnn, PoolKind};
use crate::Model;

/// The end-to-end model: five band images pass through the *shared*
/// band-wise CNN to produce five magnitude estimates, which are
/// concatenated with the five observation dates and classified by the
/// fully-connected network.
///
/// Weight sharing across bands is implemented by batching: an `(N, 5)`
/// sample×band grid is flattened to a `(5N, 1, S, S)` CNN batch, so one
/// forward/backward pass through the single CNN instance handles all bands
/// and gradient contributions from every band accumulate into the same
/// parameters.
///
/// Construct with [`JointModel::from_pretrained`] (the paper's fine-tuning
/// strategy) or [`JointModel::from_scratch`] (the Figure 12 baseline).
#[derive(Debug)]
pub struct JointModel {
    cnn: FluxCnn,
    classifier: LightCurveClassifier,
    batch: Option<usize>,
}

impl JointModel {
    /// Assembles a joint model from (typically pre-trained) parts.
    ///
    /// # Panics
    ///
    /// Panics if the classifier is not a single-epoch (10-feature) model.
    pub fn from_pretrained(cnn: FluxCnn, classifier: LightCurveClassifier) -> Self {
        assert_eq!(
            classifier.input_dim(),
            10,
            "joint model requires a single-epoch classifier"
        );
        JointModel {
            cnn,
            classifier,
            batch: None,
        }
    }

    /// Builds a joint model with freshly initialised parts.
    pub fn from_scratch<R: Rng + ?Sized>(crop: usize, hidden: usize, rng: &mut R) -> Self {
        let cnn = FluxCnn::new(crop, PoolKind::Max, rng);
        let classifier = LightCurveClassifier::new(1, hidden, rng);
        Self::from_pretrained(cnn, classifier)
    }

    /// The CNN input crop size.
    pub fn crop(&self) -> usize {
        self.cnn.crop()
    }

    /// Read access to the shared band CNN.
    pub fn cnn(&self) -> &FluxCnn {
        &self.cnn
    }

    /// Read access to the classifier head.
    pub fn classifier(&self) -> &LightCurveClassifier {
        &self.classifier
    }

    /// Forward pass.
    ///
    /// * `images` — `(5N, 1, S, S)`: for sample `n`, rows `5n..5n+5` are its
    ///   five band difference-images in band order (g, r, i, z, y).
    /// * `dates` — `(N, 5)`: the normalised observation dates.
    ///
    /// Returns `(N, 1)` logits.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn forward(&mut self, images: &Tensor, dates: &Tensor, mode: Mode) -> Tensor {
        let n5 = images.shape()[0];
        assert!(
            n5.is_multiple_of(5),
            "image batch must be a multiple of 5, got {n5}"
        );
        let n = n5 / 5;
        assert_eq!(dates.shape(), &[n, 5], "dates shape mismatch");
        let mags = self.cnn.forward(images, mode); // (5N, 1)
        let mags = mags.reshape(vec![n, 5]);
        let features = Tensor::concat_cols(&[&mags, dates]);
        if mode == Mode::Train {
            self.batch = Some(n);
        }
        self.classifier.forward(&features, mode)
    }

    /// Backward pass from logit gradients; accumulates into both parts and
    /// returns the gradient with respect to the image batch.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training-mode forward.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let n = self
            .batch
            .take()
            .expect("JointModel::backward called without a training forward pass");
        let grad_features = self.classifier.backward(grad_logits); // (N, 10)
        let parts = grad_features.split_cols(&[5, 5]);
        let grad_mags = parts[0].reshape(vec![5 * n, 1]);
        self.cnn.backward(&grad_mags)
    }

    /// All learnable parameters (CNN first, then classifier); the same
    /// list as [`Model::params_mut`], callable without importing the trait.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        Model::params_mut(self)
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.cnn.num_parameters() + self.classifier.num_parameters()
    }
}

impl Model for JointModel {
    fn networks(&self) -> Vec<&Sequential> {
        vec![self.cnn.network(), self.classifier.network()]
    }
    fn networks_mut(&mut self) -> Vec<&mut Sequential> {
        vec![self.cnn.network_mut(), self.classifier.network_mut()]
    }
    fn replicate(&self) -> Self {
        JointModel::from_pretrained(self.cnn.replicate(), self.classifier.replicate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snia_nn::init;
    use snia_nn::loss::bce_with_logits;
    use snia_nn::optim::{Adam, Optimizer};

    fn toy_inputs(rng: &mut StdRng, n: usize, crop: usize) -> (Tensor, Tensor) {
        let images = init::randn_tensor(rng, vec![5 * n, 1, crop, crop], 0.5);
        let dates = init::uniform_tensor(rng, vec![n, 5], 0.0, 1.0);
        (images, dates)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut jm = JointModel::from_scratch(36, 16, &mut rng);
        let (images, dates) = toy_inputs(&mut rng, 3, 36);
        let y = jm.forward(&images, &dates, Mode::Eval);
        assert_eq!(y.shape(), &[3, 1]);
    }

    #[test]
    fn backward_reaches_both_parts() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut jm = JointModel::from_scratch(36, 16, &mut rng);
        let (images, dates) = toy_inputs(&mut rng, 2, 36);
        let y = jm.forward(&images, &dates, Mode::Train);
        jm.zero_grad();
        let gx = jm.backward(&Tensor::ones(y.shape().to_vec()));
        assert_eq!(gx.shape(), images.shape());
        // Both the CNN and the classifier received gradient.
        assert!(jm.cnn().params().iter().any(|p| p.grad.norm() > 0.0));
        assert!(jm.classifier().params().iter().any(|p| p.grad.norm() > 0.0));
    }

    #[test]
    fn shared_cnn_sees_all_bands() {
        // Gradient w.r.t. images must be non-zero for every band row if the
        // classifier attends to all five magnitudes.
        let mut rng = StdRng::seed_from_u64(3);
        let mut jm = JointModel::from_scratch(36, 16, &mut rng);
        let (images, dates) = toy_inputs(&mut rng, 1, 36);
        let y = jm.forward(&images, &dates, Mode::Train);
        jm.zero_grad();
        let gx = jm.backward(&Tensor::ones(y.shape().to_vec()));
        for band in 0..5 {
            let row = &gx.data()[band * 36 * 36..(band + 1) * 36 * 36];
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!(norm > 0.0, "band {band} got zero gradient");
        }
    }

    #[test]
    fn can_overfit_a_tiny_batch() {
        // End-to-end trainability: a handful of steps should reduce the
        // loss on a fixed toy batch.
        let mut rng = StdRng::seed_from_u64(4);
        let mut jm = JointModel::from_scratch(36, 16, &mut rng);
        let (images, dates) = toy_inputs(&mut rng, 4, 36);
        let t = Tensor::from_vec(vec![4, 1], vec![1.0, 0.0, 1.0, 0.0]);
        let mut opt = Adam::new(3e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let y = jm.forward(&images, &dates, Mode::Train);
            let (loss, grad) = bce_with_logits(&y, &t);
            first.get_or_insert(loss);
            last = loss;
            jm.zero_grad();
            jm.backward(&grad);
            opt.step(&mut jm.params_mut());
        }
        assert!(
            last < first.unwrap() * 0.8,
            "loss {} -> {last} did not drop",
            first.unwrap()
        );
    }

    #[test]
    fn from_pretrained_preserves_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let clf = LightCurveClassifier::new(1, 8, &mut rng);
        let cnn_w0 = cnn.params()[0].value.clone();
        let jm = JointModel::from_pretrained(cnn, clf);
        assert_eq!(jm.cnn().params()[0].value, cnn_w0);
    }

    #[test]
    #[should_panic(expected = "multiple of 5")]
    fn bad_batch_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut jm = JointModel::from_scratch(36, 8, &mut rng);
        let images = Tensor::zeros(vec![7, 1, 36, 36]);
        let dates = Tensor::zeros(vec![1, 5]);
        jm.forward(&images, &dates, Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "single-epoch classifier")]
    fn multi_epoch_classifier_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let clf = LightCurveClassifier::new(2, 8, &mut rng);
        JointModel::from_pretrained(cnn, clf);
    }
}

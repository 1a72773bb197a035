//! Real/bogus candidate vetting (extension).
//!
//! Reproduces the related-work task from Section 2 of the paper: rejecting
//! the ~99.9% of difference-image detections that are subtraction
//! artifacts or cosmic rays. Two classifiers are provided:
//!
//! * [`BogusCnn`] — a small convolutional network over the log-stretched
//!   difference image (the Morii et al. 2016 approach);
//! * [`handcrafted_features`] — the classic feature vector (sharpness,
//!   positive/negative flux balance, peak position, ...) for use with the
//!   random forest in `snia-baselines` (the Bailey 2007 / Brink 2013
//!   approach).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use snia_dataset::bogus::BogusExample;
use snia_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, PRelu, Padding, Relu};
use snia_nn::loss::{bce_with_logits, sigmoid_probs};
use snia_nn::optim::{Adam, Optimizer};
use snia_nn::{Mode, Param, Sequential, Tensor};
use snia_skysim::artifacts::peak_sharpness;

/// Input crop for the vetting CNN.
pub const BOGUS_CROP: usize = 32;

/// A compact CNN for real/bogus vetting: two [conv → BN → PReLU → pool]
/// blocks and a small FC head over a 32×32 central crop of the
/// log-stretched difference image.
#[derive(Debug)]
pub struct BogusCnn {
    net: Sequential,
}

impl BogusCnn {
    /// Builds the network.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 8, 5, Padding::Same, rng));
        net.push(BatchNorm2d::new(8));
        net.push(PRelu::channelwise(8));
        net.push(MaxPool2d::new(2));
        net.push(Conv2d::new(8, 16, 5, Padding::Same, rng));
        net.push(BatchNorm2d::new(16));
        net.push(PRelu::channelwise(16));
        net.push(MaxPool2d::new(2));
        net.push(Flatten::new());
        net.push(Linear::new(16 * 8 * 8, 32, rng));
        net.push(Relu::new());
        net.push(Linear::new(32, 1, rng));
        BogusCnn { net }
    }

    /// Forward over `(N, 1, 32, 32)` difference crops; returns `(N, 1)`
    /// logits.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.net.forward(x, mode)
    }

    /// Backward pass.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.net.backward(grad)
    }

    /// Learnable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.net.params_mut()
    }

    /// Zeroes gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Parameter count.
    pub fn num_parameters(&self) -> usize {
        self.net.num_parameters()
    }
}

/// The CNN input for one example: central crop of the log-stretched
/// difference image.
pub fn example_input(example: &BogusExample) -> Vec<f32> {
    example
        .difference()
        .log_stretch()
        .crop_center(BOGUS_CROP)
        .data()
        .to_vec()
}

fn batch(examples: &[&BogusExample]) -> (Tensor, Tensor) {
    let n = examples.len();
    let mut x = Vec::with_capacity(n * BOGUS_CROP * BOGUS_CROP);
    let mut t = Vec::with_capacity(n);
    for e in examples {
        x.extend(example_input(e));
        t.push(if e.is_real() { 1.0 } else { 0.0 });
    }
    (
        Tensor::from_vec(vec![n, 1, BOGUS_CROP, BOGUS_CROP], x),
        Tensor::from_vec(vec![n, 1], t),
    )
}

/// Trains the vetting CNN with Adam + BCE.
///
/// # Panics
///
/// Panics on an empty training set.
pub fn train_bogus_cnn(
    cnn: &mut BogusCnn,
    train: &[BogusExample],
    epochs: usize,
    batch_size: usize,
    lr: f32,
    seed: u64,
) {
    assert!(!train.is_empty(), "empty training set");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt = Adam::new(lr);
    let mut order: Vec<usize> = (0..train.len()).collect();
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(batch_size) {
            let exs: Vec<&BogusExample> = chunk.iter().map(|&i| &train[i]).collect();
            let (x, t) = batch(&exs);
            let y = cnn.forward(&x, Mode::Train);
            let (_, grad) = bce_with_logits(&y, &t);
            cnn.zero_grad();
            cnn.backward(&grad);
            opt.step(&mut cnn.params_mut());
        }
    }
}

/// Real-transient probabilities over examples.
pub fn bogus_cnn_scores(cnn: &mut BogusCnn, examples: &[BogusExample]) -> Vec<f64> {
    let mut out = Vec::with_capacity(examples.len());
    for chunk in examples.chunks(32) {
        let exs: Vec<&BogusExample> = chunk.iter().collect();
        let (x, _) = batch(&exs);
        let y = cnn.forward(&x, Mode::Eval);
        out.extend(sigmoid_probs(&y).data().iter().map(|&p| f64::from(p)));
    }
    out
}

/// The classic hand-crafted vetting features (Bailey 2007 lineage):
/// peak sharpness, positive/negative flux balance, total |flux|, peak
/// amplitude, peak offset from the stamp centre, and the second moment of
/// the positive flux.
pub fn handcrafted_features(example: &BogusExample) -> Vec<f64> {
    let d = example.difference();
    let (w, h) = (d.width(), d.height());
    let mut pos = 0.0f64;
    let mut neg = 0.0f64;
    let mut peak = f32::NEG_INFINITY;
    let mut peak_xy = (0usize, 0usize);
    for y in 0..h {
        for x in 0..w {
            let v = d.get(x, y);
            if v > 0.0 {
                pos += f64::from(v);
            } else {
                neg += f64::from(-v);
            }
            if v > peak {
                peak = v;
                peak_xy = (x, y);
            }
        }
    }
    let total = pos + neg;
    // Second moment of positive flux around the peak.
    let mut moment = 0.0f64;
    if pos > 0.0 {
        for y in 0..h {
            for x in 0..w {
                let v = f64::from(d.get(x, y).max(0.0));
                let dx = x as f64 - peak_xy.0 as f64;
                let dy = y as f64 - peak_xy.1 as f64;
                moment += v * (dx * dx + dy * dy);
            }
        }
        moment /= pos;
    }
    let cx = (w as f64 - 1.0) / 2.0;
    let cy = (h as f64 - 1.0) / 2.0;
    let off = ((peak_xy.0 as f64 - cx).powi(2) + (peak_xy.1 as f64 - cy).powi(2)).sqrt();
    vec![
        f64::from(peak_sharpness(&d)),
        if total > 0.0 {
            (pos - neg) / total
        } else {
            0.0
        },
        (1.0 + total).ln(),
        f64::from(peak.max(0.0)).ln_1p(),
        off,
        (1.0 + moment).ln(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use snia_dataset::bogus::generate_bogus_set;

    #[test]
    fn cnn_shapes_and_scores() {
        let set = generate_bogus_set(8, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut cnn = BogusCnn::new(&mut rng);
        let scores = bogus_cnn_scores(&mut cnn, &set);
        assert_eq!(scores.len(), 8);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn cnn_learns_to_separate_real_from_bogus() {
        let train = generate_bogus_set(300, 3);
        let test = generate_bogus_set(100, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut cnn = BogusCnn::new(&mut rng);
        train_bogus_cnn(&mut cnn, &train, 10, 16, 1e-3, 6);
        let scores = bogus_cnn_scores(&mut cnn, &test);
        let labels: Vec<bool> = test.iter().map(|e| e.is_real()).collect();
        let a = crate::eval::auc(&scores, &labels);
        assert!(a > 0.75, "vetting AUC only {a}");
    }

    #[test]
    fn handcrafted_features_are_finite_and_fixed_width() {
        let set = generate_bogus_set(12, 7);
        for e in &set {
            let f = handcrafted_features(e);
            assert_eq!(f.len(), 6);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn sharpness_feature_separates_hot_pixels() {
        use snia_dataset::bogus::CandidateKind;
        let set = generate_bogus_set(120, 8);
        let mean_sharp = |k: CandidateKind| {
            let v: Vec<f64> = set
                .iter()
                .filter(|e| e.kind == k)
                .map(|e| handcrafted_features(e)[0])
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean_sharp(CandidateKind::HotPixel) > mean_sharp(CandidateKind::RealTransient));
    }
}

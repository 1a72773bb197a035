//! Recurrent sequence classification of multi-epoch photometry
//! (Charnock & Moss 2016).
//!
//! The original work trains LSTMs over SNPCC flux sequences. Here an
//! LSTM from `snia-nn` consumes the campaign's photometric points in time
//! order; each step's input encodes the normalised date, the magnitude and
//! a one-hot band indicator, with an optional redshift channel.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use snia_dataset::{Dataset, SampleSpec};
use snia_lightcurve::Band;
use snia_nn::layers::{Linear, Lstm};
use snia_nn::loss::{bce_with_logits, sigmoid_probs};
use snia_nn::optim::{Adam, Optimizer};
use snia_nn::{Layer, Mode, Tensor};

use crate::fitting::FIT_MAG_LIMIT;

/// Input channels per sequence step: date, magnitude, 5-band one-hot,
/// redshift (zero when withheld).
const STEP_DIM: usize = 8;

/// Training hyper-parameters for the recurrent baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmTrainConfig {
    /// Hidden state width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for LstmTrainConfig {
    fn default() -> Self {
        LstmTrainConfig {
            hidden: 24,
            epochs: 25,
            batch_size: 32,
            lr: 5e-3,
            seed: 19,
        }
    }
}

/// The recurrent sequence classifier (LSTM + linear head).
#[derive(Debug)]
pub struct LstmClassifier {
    lstm: Lstm,
    head: Linear,
    use_redshift: bool,
    epochs_used: usize,
}

/// Encodes the first `epochs` epoch-sets of a sample as an `(T, STEP_DIM)`
/// sequence in time order.
fn encode(spec: &SampleSpec, epochs: usize, use_redshift: bool) -> Vec<f32> {
    let lc = spec.light_curve();
    let mut points: Vec<(Band, f64)> = (0..epochs)
        .flat_map(|k| spec.schedule.epoch_set(k))
        .collect();
    points.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite mjd"));
    let mut seq = Vec::with_capacity(points.len() * STEP_DIM);
    for (band, mjd) in points {
        let mag = lc.mag(band, mjd).min(FIT_MAG_LIMIT);
        seq.push(((mjd - spec.schedule.season_start) / 60.0) as f32);
        seq.push((((mag.clamp(18.0, FIT_MAG_LIMIT)) - 24.0) / 4.0) as f32);
        for b in 0..5 {
            seq.push(if b == band.index() { 1.0 } else { 0.0 });
        }
        seq.push(if use_redshift {
            spec.sn.redshift as f32
        } else {
            0.0
        });
    }
    seq
}

fn batch(
    ds: &Dataset,
    idx: &[usize],
    epochs: usize,
    use_redshift: bool,
) -> (Tensor, Tensor, Vec<bool>) {
    let t_len = epochs * 5;
    let mut xs = Vec::with_capacity(idx.len() * t_len * STEP_DIM);
    let mut ts = Vec::with_capacity(idx.len());
    let mut labels = Vec::with_capacity(idx.len());
    for &i in idx {
        xs.extend(encode(&ds.samples[i], epochs, use_redshift));
        ts.push(if ds.samples[i].is_ia() { 1.0 } else { 0.0 });
        labels.push(ds.samples[i].is_ia());
    }
    (
        Tensor::from_vec(vec![idx.len(), t_len, STEP_DIM], xs),
        Tensor::from_vec(vec![idx.len(), 1], ts),
        labels,
    )
}

impl LstmClassifier {
    /// Trains the classifier on the training indices using the first
    /// `epochs` epoch sets.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set or out-of-range `epochs`.
    pub fn fit(
        ds: &Dataset,
        train_idx: &[usize],
        epochs: usize,
        use_redshift: bool,
        cfg: &LstmTrainConfig,
    ) -> Self {
        assert!(!train_idx.is_empty(), "empty training set");
        assert!(
            (1..=snia_dataset::EPOCHS_PER_BAND).contains(&epochs),
            "invalid epoch count"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = LstmClassifier {
            lstm: Lstm::new(STEP_DIM, cfg.hidden, &mut rng),
            head: Linear::new(cfg.hidden, 1, &mut rng),
            use_redshift,
            epochs_used: epochs,
        };
        let mut opt = Adam::new(cfg.lr);
        let mut order: Vec<usize> = train_idx.to_vec();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let (x, t, _) = batch(ds, chunk, epochs, use_redshift);
                let h = model.lstm.forward(&x, Mode::Train);
                let y = model.head.forward(&h, Mode::Train);
                let (_, grad) = bce_with_logits(&y, &t);
                for p in model.lstm.params_mut() {
                    p.zero_grad();
                }
                for p in model.head.params_mut() {
                    p.zero_grad();
                }
                let gh = model.head.backward(&grad);
                model.lstm.backward(&gh);
                let mut params = model.lstm.params_mut();
                params.extend(model.head.params_mut());
                opt.step(&mut params);
            }
        }
        model
    }

    /// SNIa probabilities for sample indices.
    pub fn score(&mut self, ds: &Dataset, idx: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(idx.len());
        for chunk in idx.chunks(64) {
            let (x, _, _) = batch(ds, chunk, self.epochs_used, self.use_redshift);
            let h = self.lstm.forward(&x, Mode::Eval);
            let y = self.head.forward(&h, Mode::Eval);
            out.extend(sigmoid_probs(&y).data().iter().map(|&p| f64::from(p)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snia_core::eval::auc;
    use snia_dataset::{split_indices, DatasetConfig};

    #[test]
    fn encode_is_time_ordered_and_sized() {
        let ds = Dataset::generate(&DatasetConfig {
            n_samples: 4,
            catalog_size: 50,
            seed: 91,
        });
        let seq = encode(&ds.samples[0], 4, true);
        assert_eq!(seq.len(), 20 * STEP_DIM);
        let dates: Vec<f32> = seq.chunks(STEP_DIM).map(|c| c[0]).collect();
        assert!(dates.windows(2).all(|w| w[0] <= w[1]));
        // One-hot sums to 1 per step.
        for c in seq.chunks(STEP_DIM) {
            let onehot: f32 = c[2..7].iter().sum();
            assert_eq!(onehot, 1.0);
        }
    }

    #[test]
    fn learns_better_than_chance() {
        let ds = Dataset::generate(&DatasetConfig {
            n_samples: 240,
            catalog_size: 400,
            seed: 92,
        });
        let (tr, _, te) = split_indices(ds.len(), 5);
        let mut model = LstmClassifier::fit(
            &ds,
            &tr,
            4,
            true,
            &LstmTrainConfig {
                epochs: 10,
                ..Default::default()
            },
        );
        let scores = model.score(&ds, &te);
        let labels: Vec<bool> = te.iter().map(|&i| ds.samples[i].is_ia()).collect();
        let a = auc(&scores, &labels);
        assert!(a > 0.65, "AUC {a}");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_panics() {
        let ds = Dataset::generate(&DatasetConfig {
            n_samples: 4,
            catalog_size: 50,
            seed: 93,
        });
        LstmClassifier::fit(&ds, &[], 4, false, &LstmTrainConfig::default());
    }
}

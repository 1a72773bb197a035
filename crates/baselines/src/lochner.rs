//! Multi-epoch template-fit + random-forest classification
//! (Lochner et al. 2016's best pipeline; in spirit also covers the
//! Möller et al. 2016 boosted-tree approach).
//!
//! Features per supernova: per-type template goodness-of-fit over the full
//! 20-point campaign, the best Type-Ia fit parameters, per-band peak
//! magnitudes, and (optionally) the redshift. A random forest learns the
//! decision boundary.

use snia_dataset::{Dataset, SampleSpec};
use snia_lightcurve::Band;

use crate::fitting::{fit_all_types, Observation, FIT_MAG_LIMIT};
use crate::random_forest::{ForestConfig, RandomForest};

/// Magnitude measurement error assumed by the template fits.
const FIT_SIGMA: f64 = 0.15;

/// Default redshift assumed by the fitter when the true redshift is
/// withheld (the survey's median).
const FALLBACK_Z: f64 = 0.7;

/// The trained pipeline.
#[derive(Debug, Clone)]
pub struct LochnerPipeline {
    forest: RandomForest,
    use_redshift: bool,
    epochs: usize,
}

/// All observations of the first `epochs` single-epoch sets of a sample,
/// from the ground-truth light curve.
fn observations(spec: &SampleSpec, epochs: usize) -> Vec<Observation> {
    let lc = spec.light_curve();
    let mut obs = Vec::with_capacity(epochs * 5);
    for k in 0..epochs {
        for (band, mjd) in spec.schedule.epoch_set(k) {
            obs.push(Observation {
                band,
                mjd,
                mag: lc.mag(band, mjd).min(FIT_MAG_LIMIT),
            });
        }
    }
    obs
}

/// Builds the feature vector for one sample.
fn features(spec: &SampleSpec, epochs: usize, use_redshift: bool) -> Vec<f64> {
    let obs = observations(spec, epochs);
    let z = if use_redshift {
        spec.sn.redshift
    } else {
        FALLBACK_Z
    };
    let fits = fit_all_types(&obs, z, FIT_SIGMA);
    let mut f = Vec::with_capacity(16);
    // Log-compressed chi² per type; the *relative* fit quality carries the
    // signal.
    for fit in &fits {
        f.push((1.0 + fit.chi2).ln());
    }
    // Relative Ia advantage: Ia chi² minus the best contaminant chi².
    let best_non = fits[1..]
        .iter()
        .map(|r| r.chi2)
        .fold(f64::INFINITY, f64::min);
    f.push((1.0 + fits[0].chi2).ln() - (1.0 + best_non).ln());
    // Best-fit Ia parameters.
    f.push(fits[0].stretch);
    f.push(fits[0].offset);
    f.push((fits[0].peak_mjd - spec.schedule.season_start) / 60.0);
    // Per-band brightest observed magnitude.
    for band in Band::ALL {
        let m = obs
            .iter()
            .filter(|o| o.band == band)
            .map(|o| o.mag)
            .fold(f64::INFINITY, f64::min);
        f.push(m.clamp(18.0, FIT_MAG_LIMIT));
    }
    if use_redshift {
        f.push(z);
    }
    f
}

impl LochnerPipeline {
    /// Fits the pipeline on the training indices of a dataset using the
    /// first `epochs` epoch sets per band (4 = the full campaign).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty/single-class or `epochs` is out
    /// of range.
    pub fn fit(
        ds: &Dataset,
        train_idx: &[usize],
        epochs: usize,
        use_redshift: bool,
        forest: &ForestConfig,
    ) -> Self {
        assert!(
            (1..=snia_dataset::EPOCHS_PER_BAND).contains(&epochs),
            "invalid epoch count"
        );
        let x: Vec<Vec<f64>> = train_idx
            .iter()
            .map(|&i| features(&ds.samples[i], epochs, use_redshift))
            .collect();
        let y: Vec<bool> = train_idx.iter().map(|&i| ds.samples[i].is_ia()).collect();
        LochnerPipeline {
            forest: RandomForest::fit(&x, &y, forest),
            use_redshift,
            epochs,
        }
    }

    /// SNIa probabilities for the given sample indices.
    pub fn score(&self, ds: &Dataset, idx: &[usize]) -> Vec<f64> {
        idx.iter()
            .map(|&i| {
                self.forest
                    .predict_proba(&features(&ds.samples[i], self.epochs, self.use_redshift))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snia_core::eval::auc;
    use snia_dataset::{split_indices, DatasetConfig};

    fn ds() -> Dataset {
        Dataset::generate(&DatasetConfig {
            n_samples: 160,
            catalog_size: 300,
            seed: 77,
        })
    }

    #[test]
    fn feature_vector_is_fixed_width() {
        let d = ds();
        let f_no_z = features(&d.samples[0], 4, false);
        let f_z = features(&d.samples[0], 4, true);
        assert_eq!(f_no_z.len() + 1, f_z.len());
        assert!(f_no_z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pipeline_beats_chance_multi_epoch() {
        let d = ds();
        let (tr, _, te) = split_indices(d.len(), 3);
        let pipe = LochnerPipeline::fit(
            &d,
            &tr,
            4,
            true,
            &ForestConfig {
                n_trees: 40,
                ..Default::default()
            },
        );
        let scores = pipe.score(&d, &te);
        let labels: Vec<bool> = te.iter().map(|&i| d.samples[i].is_ia()).collect();
        let a = auc(&scores, &labels);
        assert!(a > 0.7, "AUC {a}");
    }

    #[test]
    #[should_panic(expected = "invalid epoch count")]
    fn zero_epochs_panics() {
        let d = ds();
        let (tr, ..) = split_indices(d.len(), 3);
        LochnerPipeline::fit(&d, &tr, 0, false, &ForestConfig::default());
    }
}

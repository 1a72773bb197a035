//! Serialized model bundles.
//!
//! A bundle is a directory with two files:
//!
//! * `manifest.json` — a [`Manifest`] describing which architecture to
//!   build (classifier or joint) and its hyper-parameters;
//! * `weights.snia` — the model's full [`ModelState`] (learnable weights
//!   plus batch-norm running statistics), JSON-encoded and framed under
//!   the same CRC-validated header as training checkpoints
//!   (`SNIA-BUNDLE v1 crc32=<hex8> len=<bytes>`).
//!
//! Loading validates the header, length and checksum before touching the
//! JSON, then rebuilds the architecture from the manifest and restores the
//! captured state into it — so a served model is bit-identical to the
//! trained one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use snia_core::resilience::{CheckpointError, ModelState};
use snia_core::{JointModel, LightCurveClassifier, Model};
use snia_dataset::framing::{decode_framed, encode_framed};
use snia_nn::loss::sigmoid_probs;
use snia_nn::serialize::write_atomic;
use snia_nn::{Mode, Sequential, Tensor};

use crate::engine::RequestInput;

/// Bundle format version (the `v1` in the weight-file header).
pub const BUNDLE_VERSION: u32 = 1;
/// Header magic of the weight file.
pub const BUNDLE_MAGIC: &str = "SNIA-BUNDLE";
/// Manifest file name inside a bundle directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Weight file name inside a bundle directory.
pub const WEIGHTS_FILE: &str = "weights.snia";

/// Which architecture a bundle carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The fully-connected light-curve classifier (feature requests).
    Classifier,
    /// The end-to-end joint image model (cutout requests).
    Joint,
}

/// The architecture description stored alongside the weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Bundle format version ([`BUNDLE_VERSION`]).
    pub version: u32,
    /// Which model to build.
    pub kind: ModelKind,
    /// Observation epochs the classifier consumes (`input_dim = 10·epochs`;
    /// always 1 for joint bundles).
    pub epochs: usize,
    /// Classifier hidden width.
    pub hidden: usize,
    /// CNN input crop size (0 for classifier-only bundles).
    pub crop: usize,
}

/// Errors while exporting or loading a bundle.
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem failure on the given path.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// Malformed manifest or weight JSON.
    Json(serde_json::Error),
    /// The weight file fails framing validation or does not fit the
    /// architecture the manifest describes.
    Checkpoint(CheckpointError),
    /// The manifest was written by an incompatible format version.
    Version {
        /// Version found in the manifest.
        found: u32,
    },
    /// The manifest fields are inconsistent.
    Invalid(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io { path, source } => {
                write!(f, "bundle i/o error on {}: {source}", path.display())
            }
            BundleError::Json(e) => write!(f, "malformed bundle json: {e}"),
            BundleError::Checkpoint(e) => write!(f, "bad bundle weights: {e}"),
            BundleError::Version { found } => write!(
                f,
                "unsupported bundle version v{found} (this build reads v{BUNDLE_VERSION})"
            ),
            BundleError::Invalid(why) => write!(f, "invalid bundle manifest: {why}"),
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Io { source, .. } => Some(source),
            BundleError::Json(e) => Some(e),
            BundleError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for BundleError {
    fn from(e: serde_json::Error) -> Self {
        BundleError::Json(e)
    }
}

impl From<CheckpointError> for BundleError {
    fn from(e: CheckpointError) -> Self {
        BundleError::Checkpoint(e)
    }
}

fn io_err(path: &Path, source: io::Error) -> BundleError {
    BundleError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// A manifest plus the captured model state — the in-memory form of a
/// bundle directory.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// Architecture description.
    pub manifest: Manifest,
    /// Captured weights and non-learnable buffers.
    pub state: ModelState,
}

impl ModelBundle {
    /// Captures a trained classifier into a bundle.
    pub fn from_classifier(clf: &LightCurveClassifier) -> ModelBundle {
        ModelBundle {
            manifest: Manifest {
                version: BUNDLE_VERSION,
                kind: ModelKind::Classifier,
                epochs: clf.input_dim() / 10,
                hidden: clf.hidden(),
                crop: 0,
            },
            state: clf.capture(),
        }
    }

    /// Captures a trained joint model into a bundle.
    pub fn from_joint(jm: &JointModel) -> ModelBundle {
        ModelBundle {
            manifest: Manifest {
                version: BUNDLE_VERSION,
                kind: ModelKind::Joint,
                epochs: 1,
                hidden: jm.classifier().hidden(),
                crop: jm.crop(),
            },
            state: jm.capture(),
        }
    }

    /// Writes the bundle into `dir` (created if needed) as
    /// `manifest.json` + `weights.snia`, using atomic temp+fsync+rename
    /// writes for both files.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Io`] or [`BundleError::Json`].
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), BundleError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mpath = dir.join(MANIFEST_FILE);
        let manifest = serde_json::to_string_pretty(&self.manifest)?;
        write_atomic(&mpath, manifest.as_bytes()).map_err(|e| io_err(&mpath, e))?;
        let wpath = dir.join(WEIGHTS_FILE);
        let body = serde_json::to_string(&self.state)?;
        let framed = encode_framed(BUNDLE_MAGIC, BUNDLE_VERSION, body.as_bytes());
        write_atomic(&wpath, &framed).map_err(|e| io_err(&wpath, e))?;
        Ok(())
    }

    /// Reads and validates a bundle directory.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Io`] when a file is missing or unreadable,
    /// [`BundleError::Version`] / [`BundleError::Invalid`] for a manifest
    /// this build cannot serve, and [`BundleError::Checkpoint`] when the
    /// weight file fails header/CRC validation.
    pub fn load(dir: impl AsRef<Path>) -> Result<ModelBundle, BundleError> {
        let dir = dir.as_ref();
        let mpath = dir.join(MANIFEST_FILE);
        let mtext = fs::read_to_string(&mpath).map_err(|e| io_err(&mpath, e))?;
        let manifest: Manifest = serde_json::from_str(&mtext)?;
        if manifest.version != BUNDLE_VERSION {
            return Err(BundleError::Version {
                found: manifest.version,
            });
        }
        if manifest.hidden == 0 || manifest.epochs == 0 {
            return Err(BundleError::Invalid(
                "epochs and hidden width must be positive".into(),
            ));
        }
        match manifest.kind {
            ModelKind::Joint if manifest.epochs != 1 => {
                return Err(BundleError::Invalid(
                    "joint bundles are single-epoch (epochs must be 1)".into(),
                ));
            }
            ModelKind::Joint if manifest.crop / 8 < 2 => {
                return Err(BundleError::Invalid(format!(
                    "crop {} too small for three pool stages",
                    manifest.crop
                )));
            }
            _ => {}
        }
        let wpath = dir.join(WEIGHTS_FILE);
        let bytes = fs::read(&wpath).map_err(|e| io_err(&wpath, e))?;
        let body =
            decode_framed(BUNDLE_MAGIC, BUNDLE_VERSION, &bytes).map_err(CheckpointError::from)?;
        let text =
            std::str::from_utf8(body).map_err(|_| BundleError::from(CheckpointError::BadHeader))?;
        let state: ModelState = serde_json::from_str(text)?;
        Ok(ModelBundle { manifest, state })
    }

    /// Reconstructs the served model: builds the architecture the manifest
    /// describes and restores the captured state into it.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Checkpoint`] when the weights do not fit the
    /// architecture.
    pub fn instantiate(&self) -> Result<ServedModel, BundleError> {
        // The RNG only seeds throwaway initial weights; `restore`
        // overwrites every parameter value and buffer.
        let mut rng = StdRng::seed_from_u64(0);
        let m = &self.manifest;
        let mut model = match m.kind {
            ModelKind::Classifier => {
                ServedModel::Classifier(LightCurveClassifier::new(m.epochs, m.hidden, &mut rng))
            }
            ModelKind::Joint => {
                ServedModel::Joint(JointModel::from_scratch(m.crop, m.hidden, &mut rng))
            }
        };
        model.restore(&self.state)?;
        Ok(model)
    }
}

/// A model reconstructed from a bundle, ready to score request batches.
#[derive(Debug)]
pub enum ServedModel {
    /// A light-curve feature classifier.
    Classifier(LightCurveClassifier),
    /// The end-to-end joint image model.
    Joint(JointModel),
}

impl ServedModel {
    /// Which architecture this is.
    pub fn kind(&self) -> ModelKind {
        match self {
            ServedModel::Classifier(_) => ModelKind::Classifier,
            ServedModel::Joint(_) => ModelKind::Joint,
        }
    }

    /// Feature count a classifier request must carry (0 for joint).
    pub fn feature_len(&self) -> usize {
        match self {
            ServedModel::Classifier(c) => c.input_dim(),
            ServedModel::Joint(_) => 0,
        }
    }

    /// CNN crop size a cutout request must match (0 for classifier).
    pub fn crop(&self) -> usize {
        match self {
            ServedModel::Classifier(_) => 0,
            ServedModel::Joint(j) => j.crop(),
        }
    }

    /// A bit-identical copy for another worker thread: replicate the
    /// architecture ([`Model::replicate`]), then restore this model's
    /// captured state (weights *and* batch-norm running statistics) into
    /// the replica.
    pub fn replica(&self) -> ServedModel {
        let mut r = self.replicate();
        r.restore(&self.capture())
            .expect("replica shares the architecture");
        r
    }

    /// Scores a batch of (pre-validated) inputs in evaluation mode,
    /// returning one SNIa probability (sigmoid of the logit) per request.
    ///
    /// Evaluation forward passes are row-independent, so the returned
    /// scores are bit-identical however requests are grouped into batches.
    ///
    /// # Panics
    ///
    /// Panics when an input does not match the model (the engine validates
    /// at submission, so this indicates a bug, not bad user input).
    pub fn score_batch(&mut self, inputs: &[&RequestInput]) -> Vec<f64> {
        if inputs.is_empty() {
            return Vec::new();
        }
        match self {
            ServedModel::Classifier(clf) => {
                let dim = clf.input_dim();
                let n = inputs.len();
                let mut rows = Vec::with_capacity(n * dim);
                for input in inputs {
                    match input {
                        RequestInput::Features(f) => {
                            assert_eq!(f.len(), dim, "unvalidated feature request");
                            rows.extend_from_slice(f);
                        }
                        RequestInput::Cutouts { .. } => {
                            panic!("cutout request routed to a classifier bundle")
                        }
                    }
                }
                let x = Tensor::from_vec(vec![n, dim], rows);
                let y = clf.forward(&x, Mode::Eval);
                sigmoid_probs(&y)
                    .data()
                    .iter()
                    .map(|&p| f64::from(p))
                    .collect()
            }
            ServedModel::Joint(jm) => {
                let crop = jm.crop();
                let ilen = 5 * crop * crop;
                let n = inputs.len();
                let mut image_data = Vec::with_capacity(n * ilen);
                let mut date_data = Vec::with_capacity(n * 5);
                for input in inputs {
                    match input {
                        RequestInput::Cutouts { images, dates } => {
                            assert_eq!(images.len(), ilen, "unvalidated cutout request");
                            assert_eq!(dates.len(), 5, "unvalidated cutout request");
                            image_data.extend_from_slice(images);
                            date_data.extend_from_slice(dates);
                        }
                        RequestInput::Features(_) => {
                            panic!("feature request routed to a joint bundle")
                        }
                    }
                }
                let images = Tensor::from_vec(vec![5 * n, 1, crop, crop], image_data);
                let dates = Tensor::from_vec(vec![n, 5], date_data);
                let y = jm.forward(&images, &dates, Mode::Eval);
                sigmoid_probs(&y)
                    .data()
                    .iter()
                    .map(|&p| f64::from(p))
                    .collect()
            }
        }
    }
}

impl Model for ServedModel {
    fn networks(&self) -> Vec<&Sequential> {
        match self {
            ServedModel::Classifier(c) => c.networks(),
            ServedModel::Joint(j) => j.networks(),
        }
    }
    fn networks_mut(&mut self) -> Vec<&mut Sequential> {
        match self {
            ServedModel::Classifier(c) => c.networks_mut(),
            ServedModel::Joint(j) => j.networks_mut(),
        }
    }
    fn replicate(&self) -> Self {
        match self {
            ServedModel::Classifier(c) => ServedModel::Classifier(c.replicate()),
            ServedModel::Joint(j) => ServedModel::Joint(j.replicate()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snia_core::flux_cnn::{FluxCnn, PoolKind};

    fn tiny_classifier(seed: u64) -> LightCurveClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        LightCurveClassifier::new(1, 8, &mut rng)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snia-serve-{tag}-{}", std::process::id()))
    }

    fn random_features(seed: u64, n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                snia_nn::init::randn_tensor(&mut rng, vec![dim], 1.0)
                    .data()
                    .to_vec()
            })
            .collect()
    }

    #[test]
    fn classifier_bundle_round_trips_through_disk() {
        let clf = tiny_classifier(11);
        let dir = temp_dir("roundtrip");
        ModelBundle::from_classifier(&clf).save(&dir).unwrap();
        let loaded = ModelBundle::load(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.manifest.kind, ModelKind::Classifier);
        assert_eq!(loaded.manifest.hidden, 8);

        let mut original = ServedModel::Classifier(tiny_classifier(11));
        let mut served = loaded.instantiate().unwrap();
        let feats = random_features(7, 3, 10);
        let inputs: Vec<RequestInput> = feats.into_iter().map(RequestInput::Features).collect();
        let refs: Vec<&RequestInput> = inputs.iter().collect();
        assert_eq!(original.score_batch(&refs), served.score_batch(&refs));
    }

    #[test]
    fn joint_bundle_round_trips_in_memory() {
        let mut rng = StdRng::seed_from_u64(5);
        let jm = JointModel::from_scratch(36, 8, &mut rng);
        let bundle = ModelBundle::from_joint(&jm);
        assert_eq!(bundle.manifest.crop, 36);
        let served = bundle.instantiate().unwrap();
        assert_eq!(served.kind(), ModelKind::Joint);
        assert_eq!(served.crop(), 36);
    }

    #[test]
    fn corrupt_weights_are_rejected() {
        let clf = tiny_classifier(13);
        let dir = temp_dir("corrupt");
        ModelBundle::from_classifier(&clf).save(&dir).unwrap();
        let wpath = dir.join(WEIGHTS_FILE);
        let mut bytes = fs::read(&wpath).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&wpath, &bytes).unwrap();
        let err = ModelBundle::load(&dir).unwrap_err();
        fs::remove_dir_all(&dir).ok();
        assert!(
            matches!(
                err,
                BundleError::Checkpoint(CheckpointError::CrcMismatch { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn mismatched_weights_are_rejected_at_instantiate() {
        let clf = tiny_classifier(17);
        let mut bundle = ModelBundle::from_classifier(&clf);
        bundle.manifest.hidden = 16; // architecture no longer matches state
        assert!(matches!(
            bundle.instantiate().unwrap_err(),
            BundleError::Checkpoint(_)
        ));
    }

    #[test]
    fn replica_scores_bit_identically() {
        let mut rng = StdRng::seed_from_u64(23);
        let cnn = FluxCnn::new(36, PoolKind::Max, &mut rng);
        let clf = LightCurveClassifier::new(1, 8, &mut rng);
        let mut master = ServedModel::Joint(JointModel::from_pretrained(cnn, clf));
        let mut twin = master.replica();
        let mut rng2 = StdRng::seed_from_u64(29);
        let images = snia_nn::init::randn_tensor(&mut rng2, vec![5 * 36 * 36], 0.5);
        let dates = snia_nn::init::uniform_tensor(&mut rng2, vec![5], 0.0, 1.0);
        let input = RequestInput::Cutouts {
            images: images.data().to_vec(),
            dates: dates.data().to_vec(),
        };
        let a = master.score_batch(&[&input]);
        let b = twin.score_batch(&[&input]);
        assert_eq!(a[0].to_bits(), b[0].to_bits());
    }
}

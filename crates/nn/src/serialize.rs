//! Weight (de)serialisation.
//!
//! Networks are saved as a JSON list of named tensors. Loading copies values
//! back into an architecturally identical network, matching by position and
//! validating shapes — which is exactly what the paper's fine-tuning
//! strategy needs (pre-train the parts, then load them into the joint
//! model).

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::net::Sequential;
use crate::tensor::Tensor;

/// A snapshot of network weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Checkpoint {
    /// `(name, shape, data)` triples in parameter order.
    pub tensors: Vec<NamedTensor>,
}

/// One serialised tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedTensor {
    /// Parameter name (e.g. `"weight"`).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Row-major data.
    pub data: Vec<f32>,
}

/// Errors produced when restoring a checkpoint.
#[derive(Debug)]
pub enum LoadError {
    /// Parameter counts differ between network and checkpoint.
    CountMismatch {
        /// Parameters in the target network.
        expected: usize,
        /// Tensors in the checkpoint.
        found: usize,
    },
    /// A tensor's shape differs from the corresponding parameter.
    ShapeMismatch {
        /// Position in the parameter list.
        index: usize,
        /// Shape expected by the network.
        expected: Vec<usize>,
        /// Shape found in the checkpoint.
        found: Vec<usize>,
    },
    /// A tensor's data length differs from its parameter's element count.
    LengthMismatch {
        /// Position in the parameter list.
        index: usize,
        /// Elements in the network's parameter.
        expected: usize,
        /// Values in the checkpoint tensor.
        found: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::CountMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint has {found} tensors but the network has {expected} parameters"
                )
            }
            LoadError::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "tensor {index} has shape {found:?} but the network expects {expected:?}"
            ),
            LoadError::LengthMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "tensor {index} holds {found} values but its parameter has {expected}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Captures the current weights of a network.
pub fn snapshot(net: &Sequential) -> Checkpoint {
    Checkpoint {
        tensors: net
            .params()
            .iter()
            .map(|p| NamedTensor {
                name: p.name.clone(),
                shape: p.value.shape().to_vec(),
                data: p.value.data().to_vec(),
            })
            .collect(),
    }
}

/// Checks that `tensors` fit `net` (count, shapes and data lengths)
/// without replacing anything.
///
/// # Errors
///
/// As [`restore`].
pub fn check(net: &Sequential, tensors: &[NamedTensor]) -> Result<(), LoadError> {
    let params = net.params();
    if params.len() != tensors.len() {
        return Err(LoadError::CountMismatch {
            expected: params.len(),
            found: tensors.len(),
        });
    }
    for (i, (p, t)) in params.iter().zip(tensors).enumerate() {
        if p.value.shape() != t.shape.as_slice() {
            return Err(LoadError::ShapeMismatch {
                index: i,
                expected: p.value.shape().to_vec(),
                found: t.shape.clone(),
            });
        }
        if t.data.len() != p.value.len() {
            return Err(LoadError::LengthMismatch {
                index: i,
                expected: p.value.len(),
                found: t.data.len(),
            });
        }
    }
    Ok(())
}

/// Restores a checkpoint into a network with the same architecture.
///
/// # Errors
///
/// Returns [`LoadError::CountMismatch`], [`LoadError::ShapeMismatch`] or
/// [`LoadError::LengthMismatch`] if the checkpoint does not fit the
/// network. Nothing is replaced unless every tensor fits.
pub fn restore(net: &mut Sequential, ckpt: &Checkpoint) -> Result<(), LoadError> {
    check(net, &ckpt.tensors)?;
    for (p, t) in net.params_mut().into_iter().zip(&ckpt.tensors) {
        p.value = Tensor::from_vec(t.shape.clone(), t.data.clone());
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: the data goes to a sibling
/// temporary file, is fsynced, and is then renamed over `path`, so readers
/// never observe a half-written file even if the process dies mid-write.
///
/// # Errors
///
/// Returns an error on any I/O failure; the temporary file is removed on
/// a failed write.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write;

    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);

    let write = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    if let Err(e) = write {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::Mode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Sequential::new();
        n.push(Linear::new(3, 4, &mut rng));
        n.push(Relu::new());
        n.push(Linear::new(4, 2, &mut rng));
        n
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut a = net(1);
        let mut b = net(2);
        let x = Tensor::from_vec(vec![1, 3], vec![0.3, -0.2, 0.9]);
        let ya = a.forward(&x, Mode::Eval);
        let yb = b.forward(&x, Mode::Eval);
        assert_ne!(ya, yb, "different seeds should differ");
        restore(&mut b, &snapshot(&a)).unwrap();
        let yb2 = b.forward(&x, Mode::Eval);
        assert_eq!(ya, yb2);
    }

    #[test]
    fn restore_rejects_count_mismatch() {
        let a = net(1);
        let mut small = Sequential::new();
        let mut rng = StdRng::seed_from_u64(3);
        small.push(Linear::new(3, 4, &mut rng));
        let err = restore(&mut small, &snapshot(&a)).unwrap_err();
        assert!(matches!(err, LoadError::CountMismatch { .. }));
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let a = net(1);
        let mut other = Sequential::new();
        let mut rng = StdRng::seed_from_u64(4);
        other.push(Linear::new(3, 5, &mut rng));
        other.push(Relu::new());
        other.push(Linear::new(5, 2, &mut rng));
        let err = restore(&mut other, &snapshot(&a)).unwrap_err();
        assert!(matches!(err, LoadError::ShapeMismatch { index: 0, .. }));
    }

    #[test]
    fn restore_is_atomic_on_shape_error() {
        // A failed restore must not partially overwrite weights.
        let a = net(1);
        let mut other = Sequential::new();
        let mut rng = StdRng::seed_from_u64(5);
        other.push(Linear::new(3, 4, &mut rng));
        other.push(Relu::new());
        other.push(Linear::new(4, 3, &mut rng)); // mismatched final layer
        let before = snapshot(&other);
        let _ = restore(&mut other, &snapshot(&a)).unwrap_err();
        assert_eq!(snapshot(&other), before);
    }

    #[test]
    fn restore_rejects_data_that_does_not_fill_the_shape() {
        // A deserialised checkpoint can carry any data length; it must be
        // an error, not a panic in `Tensor::from_vec`, and change nothing.
        let a = net(1);
        let mut b = net(2);
        let before = snapshot(&b);
        for delta in [-1isize, 1] {
            let mut ckpt = snapshot(&a);
            let n = ckpt.tensors[2].data.len();
            let bad = n.checked_add_signed(delta).expect("non-empty tensor");
            ckpt.tensors[2].data.resize(bad, 0.5);
            let err = restore(&mut b, &ckpt).unwrap_err();
            assert!(
                matches!(err, LoadError::LengthMismatch { index: 2, expected, found }
                    if expected == n && found == bad),
                "{err}"
            );
            assert_eq!(snapshot(&b), before);
        }
    }

    #[test]
    fn write_atomic_replaces_existing_content() {
        let dir = std::env::temp_dir().join(format!("snia_nn_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.txt");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temporary file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_error_display_is_informative() {
        let e = LoadError::CountMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains("4"));
    }
}

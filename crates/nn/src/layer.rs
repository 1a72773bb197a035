//! The [`Layer`] trait, learnable [`Param`]s and the train/eval [`Mode`].

use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Batch normalisation uses batch statistics in [`Mode::Train`] and running
/// statistics in [`Mode::Eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: batch statistics, caches retained for
    /// the backward pass.
    Train,
    /// Evaluation: running statistics.
    Eval,
}

/// A learnable parameter: a value tensor and its accumulated gradient.
///
/// Gradients are *accumulated* by `backward` calls; call
/// [`Param::zero_grad`] (or [`crate::Sequential::zero_grad`]) between
/// optimisation steps. Accumulation is what makes weight sharing across the
/// five photometric bands work: the shared CNN is applied to every band and
/// each application adds its contribution to the same gradient buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Human-readable name used for serialisation (e.g. `"conv1.weight"`).
    pub name: String,
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient, always the same shape as `value`.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient buffer.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty (never the case for real layers).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A non-learnable layer buffer failed to restore.
///
/// Produced by [`Layer::load_extra_state`] and
/// [`crate::Sequential::load_extra_states`] when a checkpoint's extra
/// state does not fit the target network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The checkpoint carries extra state for a different layer count.
    LayerCount {
        /// Layers in the target network.
        expected: usize,
        /// Extra-state entries in the checkpoint.
        found: usize,
    },
    /// One layer's extra state has the wrong length.
    LengthMismatch {
        /// Position of the offending layer (0 when standalone).
        layer: usize,
        /// Scalars the layer expects.
        expected: usize,
        /// Scalars the checkpoint provided.
        found: usize,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::LayerCount { expected, found } => write!(
                f,
                "checkpoint has extra state for {found} layers but the network has {expected}"
            ),
            StateError::LengthMismatch {
                layer,
                expected,
                found,
            } => write!(
                f,
                "layer {layer} expects {expected} extra-state scalars, checkpoint has {found}"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// A differentiable network building block.
///
/// The contract is the classic layer-wise backprop protocol:
///
/// 1. `forward(input, mode)` computes the output and, when
///    `mode == Mode::Train`, caches whatever intermediate state the backward
///    pass needs.
/// 2. `backward(grad_output)` consumes the cache from the **most recent**
///    forward call, accumulates parameter gradients into [`Param::grad`],
///    and returns the gradient with respect to the input.
///
/// Calling `backward` twice without an intervening `forward`, or after an
/// `Eval`-mode forward, is a logic error; implementations panic on a missing
/// cache.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output for `input`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass preceded this call.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable references to the layer's learnable parameters.
    ///
    /// The default implementation returns an empty vector (parameter-free
    /// layers such as activations and pooling).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Immutable references to the layer's learnable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// A short human-readable layer name (e.g. `"Conv2d"`).
    fn name(&self) -> &'static str;

    /// Non-learnable buffers that must survive a checkpoint round trip
    /// (e.g. batch-norm running statistics), flattened to scalars.
    ///
    /// The default is empty: most layers are fully described by their
    /// [`Param`]s.
    fn extra_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores buffers captured by [`Layer::extra_state`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::LengthMismatch`] when `state` has the wrong
    /// length for this layer.
    fn load_extra_state(&mut self, state: &[f32]) -> Result<(), StateError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(StateError::LengthMismatch {
                layer: 0,
                expected: 0,
                found: state.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new("w", Tensor::ones(vec![2, 2]));
        assert_eq!(p.grad, Tensor::zeros(vec![2, 2]));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn param_zero_grad_resets() {
        let mut p = Param::new("w", Tensor::ones(vec![3]));
        p.grad = Tensor::ones(vec![3]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn param_serde_round_trip() {
        let p = Param::new("w", Tensor::from_slice(&[1.0, 2.0]));
        let json = serde_json::to_string(&p).unwrap();
        let q: Param = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
    }
}

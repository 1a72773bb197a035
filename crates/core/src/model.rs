//! The trait every trainable model implements.

use snia_nn::serialize::{self, Checkpoint, LoadError};
use snia_nn::{Param, Sequential, StateError};

use crate::resilience::{CheckpointError, ModelState};

/// A model built from one or more [`Sequential`] networks.
///
/// Implementors supply the networks (in parameter order) and a way to
/// build a structurally identical copy; parameter views, gradient reset
/// and full-state capture/restore follow from those. The data-parallel
/// [`crate::BatchExecutor`], checkpointing ([`crate::resilience`]) and
/// `snia-serve`'s worker replicas all work through this trait.
pub trait Model: Send + Sized {
    /// The model's networks, in parameter order.
    fn networks(&self) -> Vec<&Sequential>;

    /// Mutable access to the networks, in the same order.
    fn networks_mut(&mut self) -> Vec<&mut Sequential>;

    /// Builds a structurally identical model (same layers, same parameter
    /// shapes and order). Its parameter values are arbitrary: callers
    /// overwrite them before use.
    fn replicate(&self) -> Self;

    /// Immutable parameter view, network by network.
    fn params(&self) -> Vec<&Param> {
        self.networks()
            .into_iter()
            .flat_map(Sequential::params)
            .collect()
    }

    /// Mutable parameter view, in [`Model::params`] order.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.networks_mut()
            .into_iter()
            .flat_map(Sequential::params_mut)
            .collect()
    }

    /// Zeroes accumulated gradients.
    fn zero_grad(&mut self) {
        for net in self.networks_mut() {
            net.zero_grad();
        }
    }

    /// Captures weights and non-learnable buffers: every network's
    /// tensors, then every network's per-layer extra state, concatenated
    /// in network order.
    fn capture(&self) -> ModelState {
        let nets = self.networks();
        ModelState {
            weights: Checkpoint {
                tensors: nets
                    .iter()
                    .flat_map(|net| serialize::snapshot(net).tensors)
                    .collect(),
            },
            extra: nets.iter().flat_map(|net| net.extra_states()).collect(),
        }
    }

    /// Restores a state captured by [`Model::capture`]. Every network's
    /// share is checked before anything is replaced, so a state that does
    /// not fit leaves the whole model as it was.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Model`] when the tensor count, a shape or
    /// a data length differs, and [`CheckpointError::State`] when the
    /// layer count or a buffer length differs.
    fn restore(&mut self, state: &ModelState) -> Result<(), CheckpointError> {
        let mut nets = self.networks_mut();
        // Check the totals first, then split by each network's counts.
        let n_params: usize = nets.iter().map(|n| n.params().len()).sum();
        let n_layers: usize = nets.iter().map(|n| n.len()).sum();
        if state.weights.tensors.len() != n_params {
            return Err(CheckpointError::Model(LoadError::CountMismatch {
                expected: n_params,
                found: state.weights.tensors.len(),
            }));
        }
        if state.extra.len() != n_layers {
            return Err(CheckpointError::State(StateError::LayerCount {
                expected: n_layers,
                found: state.extra.len(),
            }));
        }
        let (mut tensors, mut extra) = (state.weights.tensors.as_slice(), state.extra.as_slice());
        let mut parts = Vec::with_capacity(nets.len());
        for net in &nets {
            let (net_tensors, rest) = tensors.split_at(net.params().len());
            tensors = rest;
            let (net_extra, rest) = extra.split_at(net.len());
            extra = rest;
            serialize::check(net, net_tensors)?;
            net.check_extra_states(net_extra)?;
            parts.push((net_tensors, net_extra));
        }
        for (net, (net_tensors, net_extra)) in nets.iter_mut().zip(parts) {
            let weights = Checkpoint {
                tensors: net_tensors.to_vec(),
            };
            serialize::restore(net, &weights)?;
            net.load_extra_states(net_extra)?;
        }
        Ok(())
    }
}

//! The [`Sequential`] network container.

use crate::layer::{Layer, Mode, Param, StateError};
use crate::tensor::Tensor;

/// A network that chains layers, feeding each layer's output to the next.
///
/// # Examples
///
/// ```
/// use snia_nn::{Sequential, Tensor, Mode};
/// use snia_nn::layers::{Linear, Relu};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 1, &mut rng));
/// let y = net.forward(&Tensor::zeros(vec![2, 4]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 1]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the end of the network.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// The number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the input through every layer in order.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward(input, mode);
        for layer in layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    /// Backpropagates through every layer in reverse order, accumulating
    /// parameter gradients, and returns the gradient with respect to the
    /// network input.
    ///
    /// # Panics
    ///
    /// Panics if the most recent forward pass was not in [`Mode::Train`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    /// All learnable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Immutable view of all learnable parameters.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Zeroes every accumulated parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Per-layer non-learnable buffers (see [`Layer::extra_state`]), in
    /// layer order; one (possibly empty) entry per layer.
    pub fn extra_states(&self) -> Vec<Vec<f32>> {
        self.layers.iter().map(|l| l.extra_state()).collect()
    }

    /// Checks that `states` fit the layers: one entry per layer, each as
    /// long as that layer's [`Layer::extra_state`]. Replaces nothing.
    ///
    /// # Errors
    ///
    /// As [`Sequential::load_extra_states`].
    pub fn check_extra_states(&self, states: &[Vec<f32>]) -> Result<(), StateError> {
        if states.len() != self.layers.len() {
            return Err(StateError::LayerCount {
                expected: self.layers.len(),
                found: states.len(),
            });
        }
        for (i, (layer, state)) in self.layers.iter().zip(states).enumerate() {
            let expected = layer.extra_state().len();
            if state.len() != expected {
                return Err(StateError::LengthMismatch {
                    layer: i,
                    expected,
                    found: state.len(),
                });
            }
        }
        Ok(())
    }

    /// Restores buffers captured by [`Sequential::extra_states`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the entry count differs from the
    /// layer count or an entry's length differs from its layer's buffer.
    /// Nothing is replaced unless every entry fits.
    pub fn load_extra_states(&mut self, states: &[Vec<f32>]) -> Result<(), StateError> {
        self.check_extra_states(states)?;
        for (layer, state) in self.layers.iter_mut().zip(states) {
            layer.load_extra_state(state)?;
        }
        Ok(())
    }

    /// A short multi-line structural summary (one line per layer).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let n: usize = layer.params().iter().map(|p| p.len()).sum();
            s.push_str(&format!("{:2}: {:<12} params={}\n", i, layer.name(), n));
        }
        s.push_str(&format!("total parameters: {}\n", self.num_parameters()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::layers::{BatchNorm, Linear, Relu};
    use crate::loss::mse_loss;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 16, rng));
        net.push(Relu::new());
        net.push(Linear::new(16, 1, rng));
        net
    }

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(70);
        let mut net = tiny_net(&mut rng);
        let y = net.forward(&Tensor::zeros(vec![5, 2]), Mode::Eval);
        assert_eq!(y.shape(), &[5, 1]);
    }

    #[test]
    fn num_parameters_counts_all() {
        let mut rng = StdRng::seed_from_u64(71);
        let net = tiny_net(&mut rng);
        // (16*2 + 16) + (1*16 + 1) = 65
        assert_eq!(net.num_parameters(), 65);
    }

    #[test]
    fn summary_mentions_layers() {
        let mut rng = StdRng::seed_from_u64(72);
        let net = tiny_net(&mut rng);
        let s = net.summary();
        assert!(s.contains("Linear"));
        assert!(s.contains("Relu"));
        assert!(s.contains("total parameters: 65"));
    }

    #[test]
    fn trains_xor_like_regression() {
        // The classic sanity check: a 2-layer MLP must fit XOR targets.
        let mut rng = StdRng::seed_from_u64(73);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let t = Tensor::from_vec(vec![4, 1], vec![0., 1., 1., 0.]);
        let mut opt = Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..2000 {
            let y = net.forward(&x, Mode::Train);
            let (loss, grad) = mse_loss(&y, &t);
            final_loss = loss;
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net.params_mut());
        }
        assert!(final_loss < 1e-3, "XOR loss stayed at {final_loss}");
    }

    #[test]
    fn extra_states_load_all_or_nothing() {
        let mut net = Sequential::new();
        net.push(BatchNorm::new(2));
        net.push(BatchNorm::new(3));
        let before = net.extra_states();
        // The first entry fits and the second does not: nothing changes.
        let bad = vec![vec![7.0; 4], vec![7.0; 5]];
        assert_eq!(
            net.load_extra_states(&bad),
            Err(StateError::LengthMismatch {
                layer: 1,
                expected: 6,
                found: 5
            })
        );
        assert_eq!(net.extra_states(), before);
        let good = vec![vec![7.0; 4], vec![8.0; 6]];
        net.load_extra_states(&good).unwrap();
        assert_eq!(net.extra_states(), good);
    }

    #[test]
    fn zero_grad_resets_all() {
        let mut rng = StdRng::seed_from_u64(74);
        let mut net = tiny_net(&mut rng);
        let x = init::randn_tensor(&mut rng, vec![3, 2], 1.0);
        let y = net.forward(&x, Mode::Train);
        net.backward(&Tensor::ones(y.shape().to_vec()));
        assert!(net.params().iter().any(|p| p.grad.norm() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.norm() == 0.0));
    }
}

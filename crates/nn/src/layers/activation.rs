//! The parameter-free [`Relu`] layer and the scalar [`sigmoid_scalar`].

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    cache_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu { cache_input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.cache_input = Some(input.clone());
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cache_input
            .take()
            .expect("Relu::backward called without a training forward pass");
        input.zip(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Numerically stable logistic sigmoid on a scalar.
///
/// # Examples
///
/// ```
/// assert_eq!(snia_nn::layers::sigmoid_scalar(0.0), 0.5);
/// ```
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_scalar_is_bounded_and_stable() {
        let y: Vec<f32> = [-100.0, -1.0, 0.0, 1.0, 100.0]
            .into_iter()
            .map(sigmoid_scalar)
            .collect();
        assert!(y.iter().all(|v| v.is_finite()));
        assert!((y[2] - 0.5).abs() < 1e-6);
        assert!(y[0] >= 0.0 && y[4] <= 1.0);
        assert!(y[0] < 1e-6 && y[4] > 1.0 - 1e-6);
    }

    #[test]
    fn relu_gradcheck() {
        let mut rng = StdRng::seed_from_u64(10);
        // Offset away from the kink at 0 to keep finite differences valid.
        let x = init::randn_tensor(&mut rng, vec![4, 5], 1.0).map(|v| {
            if v.abs() < 0.1 {
                v + 0.2
            } else {
                v
            }
        });
        check_layer_gradients(Box::new(Relu::new()), &x, 1e-3, 2e-2);
    }
}

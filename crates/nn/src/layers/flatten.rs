//! Flattening layer bridging convolutional and fully-connected stages.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Flattens `(N, d1, d2, ...)` to `(N, d1·d2·…)`, preserving the batch axis.
#[derive(Debug, Default)]
pub struct Flatten {
    cache_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cache_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(input.clone(), mode)
    }

    /// Keeps the input's buffer: only the shape changes.
    fn forward_owned(&mut self, input: Tensor, mode: Mode) -> Tensor {
        assert!(input.ndim() >= 1, "Flatten needs at least a batch axis");
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        if mode == Mode::Train {
            self.cache_shape = Some(input.shape().to_vec());
        }
        input.into_reshape(vec![n, rest])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .cache_shape
            .take()
            .expect("Flatten::backward called without a training forward pass");
        grad_output.reshape(shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_restore() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 5]);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 60]);
        let g = f.backward(&Tensor::ones(vec![2, 60]));
        assert_eq!(g.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn flatten_2d_is_identity_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![4, 7]);
        let y = f.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[4, 7]);
    }
}

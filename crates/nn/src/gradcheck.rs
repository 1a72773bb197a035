//! Finite-difference gradient checking.
//!
//! Every analytic backward pass in this crate is validated against central
//! finite differences. The check drives the layer with a fixed pseudo-random
//! linear read-out of the output (so all output elements influence the
//! scalar loss) and compares both the input gradient and every parameter
//! gradient.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Deterministic pseudo-random coefficients in roughly `[-1, 1]`, used as
/// the loss read-out weights. Avoids pulling an RNG into the check.
fn readout_coeffs(n: usize) -> Vec<f32> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (u32::MAX >> 1) as f32) - 1.0
        })
        .collect()
}

fn loss_of(output: &Tensor, coeffs: &[f32]) -> f64 {
    output
        .data()
        .iter()
        .zip(coeffs)
        .map(|(&y, &c)| (y * c) as f64)
        .sum()
}

/// Relative error between an analytic and a numeric derivative.
fn rel_err(a: f32, n: f32) -> f32 {
    (a - n).abs() / (a.abs() + n.abs() + 1e-3)
}

/// Checks a layer's input and parameter gradients against central finite
/// differences.
///
/// * `eps` — finite-difference step (1e-2 works well in `f32`).
/// * `tol` — maximum allowed relative error per element.
///
/// # Panics
///
/// Panics (test-style, with a diagnostic message) if any gradient element
/// disagrees beyond `tol`, or if the layer output is non-finite.
pub fn check_layer_gradients(mut layer: Box<dyn Layer>, x: &Tensor, eps: f32, tol: f32) {
    // Analytic pass.
    let y = layer.forward(x, Mode::Train);
    assert!(y.all_finite(), "non-finite forward output");
    let coeffs = readout_coeffs(y.len());
    let grad_out = Tensor::from_vec(y.shape().to_vec(), coeffs.clone());
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let grad_in = layer.backward(&grad_out);
    assert_eq!(grad_in.shape(), x.shape(), "input gradient shape mismatch");

    // Numeric input gradient.
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = xp.data()[i];
        xp.data_mut()[i] = orig + eps;
        let lp = loss_of(&layer.forward(&xp, Mode::Train), &coeffs);
        xp.data_mut()[i] = orig - eps;
        let lm = loss_of(&layer.forward(&xp, Mode::Train), &coeffs);
        xp.data_mut()[i] = orig;
        let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
        let analytic = grad_in.data()[i];
        assert!(
            rel_err(analytic, numeric) < tol,
            "input grad mismatch at {}: analytic {} vs numeric {}",
            i,
            analytic,
            numeric
        );
    }

    // Numeric parameter gradients. Copy out the analytic grads first, since
    // re-running forward does not touch them (we never call backward
    // again).
    let analytic_param_grads: Vec<(String, Tensor)> = layer
        .params()
        .iter()
        .map(|p| (p.name.clone(), p.grad.clone()))
        .collect();
    for (pi, (pname, pgrad)) in analytic_param_grads.iter().enumerate() {
        for i in 0..pgrad.len() {
            let orig = layer.params_mut()[pi].value.data()[i];
            layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
            let lp = loss_of(&layer.forward(x, Mode::Train), &coeffs);
            layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
            let lm = loss_of(&layer.forward(x, Mode::Train), &coeffs);
            layer.params_mut()[pi].value.data_mut()[i] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = pgrad.data()[i];
            assert!(
                rel_err(analytic, numeric) < tol,
                "param {pname} grad mismatch at {i}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }
}

/// Checks the gradient returned by a scalar loss function `f(x) -> (loss,
/// dloss/dx)` against central finite differences.
///
/// # Panics
///
/// Panics if any element disagrees beyond `tol`.
pub fn check_loss_gradient(f: impl Fn(&Tensor) -> (f32, Tensor), x: &Tensor, eps: f32, tol: f32) {
    let (_, grad) = f(x);
    assert_eq!(grad.shape(), x.shape(), "loss gradient shape mismatch");
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = xp.data()[i];
        xp.data_mut()[i] = orig + eps;
        let (lp, _) = f(&xp);
        xp.data_mut()[i] = orig - eps;
        let (lm, _) = f(&xp);
        xp.data_mut()[i] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grad.data()[i];
        assert!(
            rel_err(analytic, numeric) < tol,
            "loss grad mismatch at {i}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readout_coeffs_are_bounded_and_varied() {
        let c = readout_coeffs(100);
        assert!(c.iter().all(|x| (-1.0..=1.0).contains(x)));
        let distinct = c.iter().filter(|&&x| x != c[0]).count();
        assert!(distinct > 50);
    }

    #[test]
    fn check_loss_gradient_accepts_correct_gradient() {
        // f(x) = sum(x^2), grad = 2x
        let f = |x: &Tensor| {
            let loss = x.data().iter().map(|v| v * v).sum::<f32>();
            (loss, x.map(|v| 2.0 * v))
        };
        let x = Tensor::from_slice(&[0.5, -1.0, 2.0]);
        check_loss_gradient(f, &x, 1e-3, 1e-2);
    }

    #[test]
    #[should_panic(expected = "loss grad mismatch")]
    fn check_loss_gradient_rejects_wrong_gradient() {
        let f = |x: &Tensor| {
            let loss = x.data().iter().map(|v| v * v).sum::<f32>();
            (loss, x.map(|v| 3.0 * v)) // wrong: should be 2x
        };
        let x = Tensor::from_slice(&[0.5, -1.0, 2.0]);
        check_loss_gradient(f, &x, 1e-3, 1e-2);
    }
}

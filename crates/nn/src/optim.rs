//! The Adam optimizer.

use serde::{Deserialize, Serialize};

use crate::layer::Param;

/// An invalid optimizer hyper-parameter.
///
/// Returned by [`Adam::try_new`] so bad CLI input can be reported instead
/// of aborting the process (the legacy [`Adam::new`] panics with the same
/// message), and by [`Adam::load_state`] for a corrupted checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimError {
    /// Learning rate not positive and finite.
    InvalidLearningRate(f32),
    /// A beta coefficient outside `[0, 1)`.
    InvalidBeta(f32),
}

impl std::fmt::Display for OptimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimError::InvalidLearningRate(lr) => write!(f, "invalid learning rate {lr}"),
            OptimError::InvalidBeta(b) => write!(f, "invalid beta {b}"),
        }
    }
}

impl std::error::Error for OptimError {}

fn check_lr(lr: f32) -> Result<f32, OptimError> {
    if lr > 0.0 && lr.is_finite() {
        Ok(lr)
    } else {
        Err(OptimError::InvalidLearningRate(lr))
    }
}

/// An optimisation algorithm that updates parameters from their accumulated
/// gradients.
///
/// Stateful optimizers ([`Adam`]) key their per-parameter state by
/// position in the `params` slice, so the same network must be passed in
/// the same layer order on every step (which [`crate::Sequential`]
/// guarantees).
pub trait Optimizer {
    /// Applies one update step. Does not zero gradients — call
    /// [`crate::Sequential::zero_grad`] before the next backward pass.
    fn step(&mut self, params: &mut [&mut Param]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by fine-tuning).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

/// The full internal state of an [`Adam`] optimizer — hyper-parameters,
/// step counter and both moment estimates — in a serialisable form, so a
/// training checkpoint can resume mid-run with bit-identical updates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one vector per parameter.
    pub m: Vec<Vec<f32>>,
    /// Second-moment estimates, one vector per parameter.
    pub v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the canonical defaults `β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive learning rate; [`Adam::try_new`] reports
    /// the same condition as an error.
    pub fn new(lr: f32) -> Self {
        Self::try_new(lr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor with the canonical defaults.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidLearningRate`] unless `lr` is positive
    /// and finite.
    pub fn try_new(lr: f32) -> Result<Self, OptimError> {
        Ok(Adam {
            lr: check_lr(lr)?,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        })
    }

    /// Captures the complete optimizer state for checkpointing.
    pub fn state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured by [`Adam::state`]; the next `step` behaves
    /// exactly as if the original optimizer had continued.
    ///
    /// # Errors
    ///
    /// Returns an [`OptimError`] when the stored hyper-parameters are
    /// invalid (a corrupted or hand-edited checkpoint).
    pub fn load_state(&mut self, s: &AdamState) -> Result<(), OptimError> {
        let lr = check_lr(s.lr)?;
        for beta in [s.beta1, s.beta2] {
            if !(0.0..1.0).contains(&beta) {
                return Err(OptimError::InvalidBeta(beta));
            }
        }
        self.lr = lr;
        self.beta1 = s.beta1;
        self.beta2 = s.beta2;
        self.eps = s.eps;
        self.t = s.t;
        self.m = s.m.clone();
        self.v = s.v.clone();
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "parameter list changed between Adam steps"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((mi, vi), &g), val) in m
                .iter_mut()
                .zip(v.iter_mut())
                .zip(p.grad.data())
                .zip(p.value.data_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *val -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// A 1-D quadratic bowl f(θ) = (θ − 3)²; gradient 2(θ − 3).
    fn bowl_param(start: f32) -> Param {
        Param::new("theta", Tensor::from_slice(&[start]))
    }

    fn bowl_grad(p: &mut Param) {
        let theta = p.value.data()[0];
        p.grad.data_mut()[0] = 2.0 * (theta - 3.0);
    }

    fn run<O: Optimizer>(mut opt: O, steps: usize) -> f32 {
        let mut p = bowl_param(0.0);
        for _ in 0..steps {
            bowl_grad(&mut p);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        p.value.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let theta = run(Adam::new(0.1), 500);
        assert!((theta - 3.0).abs() < 1e-2, "theta {theta}");
    }

    #[test]
    #[should_panic(expected = "invalid learning rate")]
    fn adam_rejects_bad_lr() {
        Adam::new(-1.0);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert_eq!(
            Adam::try_new(-1.0).unwrap_err(),
            OptimError::InvalidLearningRate(-1.0)
        );
        assert_eq!(
            Adam::try_new(f32::NAN).unwrap_err().to_string(),
            "invalid learning rate NaN"
        );
        assert!(Adam::try_new(0.1).is_ok());
    }

    #[test]
    fn adam_state_round_trip_resumes_exactly() {
        // Take K steps, checkpoint, take more steps; a fresh optimizer
        // loaded from the checkpoint must produce bit-identical updates.
        let mut p = bowl_param(0.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..5 {
            bowl_grad(&mut p);
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        let state = opt.state();
        let mut p2 = Param::new("theta", p.value.clone());
        let mut opt2 = Adam::new(0.999); // wrong lr, overwritten by load
        opt2.load_state(&state).unwrap();
        for _ in 0..5 {
            bowl_grad(&mut p);
            opt.step(&mut [&mut p]);
            p.zero_grad();
            bowl_grad(&mut p2);
            opt2.step(&mut [&mut p2]);
            p2.zero_grad();
        }
        assert_eq!(p.value.data()[0], p2.value.data()[0]);
    }

    #[test]
    fn adam_load_state_rejects_bad_hyperparams() {
        let mut opt = Adam::new(0.1);
        let mut s = opt.state();
        s.lr = -0.5;
        assert!(matches!(
            opt.load_state(&s),
            Err(OptimError::InvalidLearningRate(_))
        ));
        assert_eq!(opt.learning_rate(), 0.1, "failed load must not mutate");
        let mut s = opt.state();
        s.beta2 = 1.0;
        assert_eq!(opt.load_state(&s), Err(OptimError::InvalidBeta(1.0)));
    }
}

//! Layer implementations.
//!
//! Every layer implements [`crate::Layer`] and is validated against
//! finite-difference gradients in its unit tests (see [`crate::gradcheck`]).

mod activation;
mod batchnorm;
mod conv;
mod flatten;
mod highway;
mod linear;
mod lstm;
mod pool;
mod prelu;

pub use activation::{sigmoid_scalar, Relu};
pub use batchnorm::{BatchNorm, BatchNorm1d, BatchNorm2d};
pub use conv::{Conv2d, Padding};
pub use flatten::Flatten;
pub use highway::Highway;
pub use linear::Linear;
pub use lstm::Lstm;
pub use pool::{AvgPool2d, MaxPool2d};
pub use prelu::PRelu;

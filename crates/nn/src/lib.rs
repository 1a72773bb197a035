//! # snia-nn
//!
//! A small, self-contained CPU neural-network library written for the
//! reproduction of *"Single-epoch supernova classification with deep
//! convolutional neural networks"* (Kimura et al., 2017).
//!
//! The Rust deep-learning ecosystem is immature, so everything the paper's
//! models need is implemented here from scratch:
//!
//! * [`Tensor`] — dense row-major `f32` n-dimensional arrays with the
//!   elementwise / matrix operations the layers need.
//! * [`Layer`] — the forward/backward building-block trait, with
//!   implementations for 2-D convolution, batch normalisation (1-D and 2-D),
//!   parametric ReLU, max pooling, fully-connected layers, highway layers
//!   (Srivastava et al. 2015), LSTMs (for the Charnock-style baseline)
//!   and ReLU.
//! * [`Sequential`] — a container chaining layers into a network.
//! * [`optim`] — the Adam optimizer, with a serialisable state for
//!   checkpoints.
//! * [`loss`] — MSE, binary cross-entropy (with logits) and softmax
//!   cross-entropy, each returning the loss *and* the input gradient.
//! * [`gradcheck`] — finite-difference gradient checking used throughout the
//!   test-suite to validate every analytic backward pass.
//!
//! ## Example
//!
//! ```
//! use snia_nn::{Sequential, Tensor, Mode};
//! use snia_nn::layers::{Linear, Relu};
//! use snia_nn::loss::mse_loss;
//! use snia_nn::optim::{Adam, Optimizer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Sequential::new();
//! net.push(Linear::new(2, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Linear::new(8, 1, &mut rng));
//!
//! let x = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 1.0, 0.0]);
//! let t = Tensor::from_vec(vec![2, 1], vec![1.0, -1.0]);
//! let mut opt = Adam::new(0.01);
//! for _ in 0..50 {
//!     let y = net.forward(&x, Mode::Train);
//!     let (loss, grad) = mse_loss(&y, &t);
//!     assert!(loss.is_finite());
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net.params_mut());
//! }
//! ```

// The AVX2 build of the GEMM micro-kernel (`gemm::x86`) is the one module
// allowed `unsafe_code`, for its single call into a `#[target_feature]`
// function; every other crate in the workspace forbids it, and
// scripts/check.sh fails on the keyword anywhere else.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod lowering;
pub mod net;
pub mod optim;
mod planes;
pub mod serialize;
pub mod tensor;

pub use layer::{Layer, Mode, Param, StateError};
pub use net::Sequential;
pub use tensor::{ShapeError, Tensor};

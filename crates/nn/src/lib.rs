//! From-scratch neural-network training stack for the LeCA reproduction.
//!
//! The paper jointly trains a tiny analog encoder and a digital decoder
//! through a **frozen** pre-trained CNN backbone. That requires exact
//! gradients but not a general autograd engine, so this crate implements the
//! classic layer-wise design: every [`Layer`] owns its parameters and
//! caches, computes `forward`, and returns the input gradient from
//! `backward`. All gradients are verified against finite differences in the
//! test suite (see [`gradcheck`]).
//!
//! Contents:
//!
//! * [`layers`] — Conv2d, ConvTranspose2d, Linear, BatchNorm2d, ReLU,
//!   global average pooling, `Sequential`, residual blocks.
//! * [`loss`] — fused softmax + cross-entropy with accuracy helpers.
//! * [`optim`] — Adam with the paper's step-decay schedule.
//! * [`quant`] — bit depths and the software quantizer grids that the
//!   encoder trains through with a straight-through estimator
//!   (`f(x) = q(x) + x - stop_gradient(x)`, Eq. (2) of the paper).
//! * [`backbone`] — ResNet-style classifier builders that stand in for the
//!   paper's ResNet-18/50.
//! * [`serialize`] — flat binary checkpoint format for parameters.
//!
//! # Example
//!
//! ```
//! use leca_nn::layers::{Linear, Relu, Sequential};
//! use leca_nn::{Layer, Mode};
//! use leca_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Linear::new(8, 2, &mut rng));
//! let x = Tensor::ones(&[3, 4]);
//! let logits = net.forward(&x, Mode::Eval)?;
//! assert_eq!(logits.shape(), &[3, 2]);
//! # Ok::<(), leca_nn::NnError>(())
//! ```

// This crate promises memory safety by construction: no `unsafe` at all.
// `leca-audit` verifies this header is present; the compiler enforces it.
#![forbid(unsafe_code)]

mod error;
mod layer;
mod param;

pub mod backbone;
pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod qlayers;
pub mod quant;
pub mod serialize;

pub use error::NnError;
pub use layer::{Layer, Mode};
pub use param::Param;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;

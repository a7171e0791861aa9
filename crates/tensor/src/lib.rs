//! Dense `f32` tensor kernels for the LeCA reproduction.
//!
//! This crate is the numerical substrate underneath `leca-nn`: a small,
//! dependency-light n-dimensional array with exactly the operations a
//! convolutional training stack needs — threaded matrix multiplication,
//! convolution (forward, both gradients, and the transposed conv as its
//! adjoint) on three im2col-style drivers, reductions, and random
//! initialization.
//!
//! Tensors are always row-major and contiguous; shapes are plain
//! `Vec<usize>`. That keeps the mental model trivial at the cost of some
//! copies, which is the right trade for a reproduction whose hot loops are
//! all funneled through [`ops::matmul`].
//!
//! # Example
//!
//! ```
//! use leca_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), leca_tensor::TensorError>(())
//! ```

// The only crate in the workspace allowed to contain `unsafe` (the SIMD
// kernels, the worker pool, nothing else — `leca-audit` enforces the
// allowlist); every unsafe operation must sit in an explicit block with
// its own safety argument, even inside `unsafe fn`s.
#![deny(unsafe_op_in_unsafe_fn)]

mod error;
mod init;
mod shape;
mod tensor;

pub mod backend;
pub mod ops;
pub mod parallel;
pub mod quant;
pub mod runtime_env;
pub mod workspace;

pub use error::TensorError;
pub use init::{kaiming_normal, kaiming_uniform, standard_normal, xavier_uniform, NormalStream};
pub use quant::{QTensor, QuantParams};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{PooledTensor, Workspace, WorkspaceStats};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

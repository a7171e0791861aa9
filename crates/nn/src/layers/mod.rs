//! Neural-network layers.
//!
//! Each layer implements [`crate::Layer`]; gradients are exact and verified
//! against finite differences in [`crate::gradcheck`]-based tests.

mod activation;
mod batchnorm;
mod conv;
mod conv_transpose;
mod linear;
mod pool;
mod residual;
mod sequential;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use conv_transpose::ConvTranspose2d;
pub use linear::Linear;
pub use pool::GlobalAvgPool;
pub use residual::ResidualBlock;
pub use sequential::Sequential;

//! Numerical kernels: matrix multiplication, convolution, axis
//! reductions.
//!
//! Every kernel here is a free function over [`crate::Tensor`]; the neural
//! network layers in `leca-nn` are thin stateful wrappers around them.

mod conv;
mod gemm;
mod matmul;
mod qconv;
pub mod reduce;
pub mod reference;

pub use conv::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, conv2d_into, conv2d_out_shape, conv_transpose2d,
    conv_transpose2d_into, conv_transpose2d_out_shape, im2col, Conv2dGeometry,
};
pub use matmul::{matmul, matmul_at, matmul_bt_into};
pub use qconv::{qconv, PackedQMat, QIm2col};
pub use reduce::{max_abs_f32, softmax_rows, sum_axis0, sum_slice_f32, sum_spatial_per_channel};

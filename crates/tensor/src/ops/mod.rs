//! Numerical kernels: matrix multiplication, convolution, pooling,
//! axis reductions.
//!
//! Every kernel here is a free function over [`crate::Tensor`]; the neural
//! network layers in `leca-nn` are thin stateful wrappers around them.

mod conv;
mod gemm;
mod matmul;
mod pool;
mod qgemm;
pub mod reduce;
pub mod reference;

pub use conv::{
    col2im, conv2d, conv2d_grad_input, conv2d_grad_weight, conv2d_into, conv2d_out_shape,
    conv_transpose2d, conv_transpose2d_grad_input, conv_transpose2d_grad_weight,
    conv_transpose2d_into, conv_transpose2d_out_shape, im2col, Conv2dGeometry,
};
pub use matmul::{matmul, matmul_at, matmul_at_into, matmul_bt, matmul_bt_into, matmul_into};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_into, max_pool2d, max_pool2d_backward,
    max_pool2d_into, pool2d_out_shape, MaxPoolIndices,
};
pub use qgemm::{qgemm, PackedQMat, QIm2col, QOperand};
pub use reduce::{
    max_abs_f32, mean_axes_keep_channel, softmax_rows, softmax_rows_into, sum_axis0, sum_slice_f32,
    sum_spatial_per_channel,
};

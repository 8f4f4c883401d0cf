//! Minimal CPU tensor library for the Pipe-BD reproduction.
//!
//! This crate provides the numerical substrate used by the *functional* side
//! of the reproduction: real (scaled-down) blockwise-distillation training
//! that demonstrates the paper's Section VII-D claim that Pipe-BD scheduling
//! does not change training results.
//!
//! The design goals are determinism, correctness, and testability first,
//! throughput second. Every kernel has a hand-written adjoint ("backward")
//! kernel next to it, validated against finite differences in the test
//! suite — and the hot kernels (`matmul` family, `conv2d` family) come in
//! two implementations: the blocked plane every call runs — a
//! cache-blocked packed GEMM, convolutions that read the image in place
//! where their geometry allows and lower to that GEMM through im2col where
//! it does not — and direct naive loops, the oracle the blocked plane is
//! tested against (reached through the `*_with` variants' [`KernelPolicy`]
//! argument only).
//!
//! # Example
//!
//! ```
//! use pipebd_tensor::{Tensor, Rng64};
//!
//! # fn main() -> Result<(), pipebd_tensor::TensorError> {
//! let mut rng = Rng64::seed_from_u64(7);
//! let a = Tensor::randn(&[2, 3], &mut rng);
//! let b = Tensor::randn(&[3, 4], &mut rng);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape().dims(), &[2, 4]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod conv;
mod direct;
mod epilogue;
mod error;
mod gemm;
mod im2col;
mod kernel;
mod linalg;
pub mod parallel;
mod pool;
mod recycle;
pub mod reduce;
mod rng;
mod shape;
mod shared;
mod simd;
mod stencil;
mod tensor;

pub use conv::{
    conv2d, conv2d_fused, conv2d_grad_epilogue, conv2d_grad_input, conv2d_grad_input_with,
    conv2d_grad_weight, conv2d_grad_weight_fused, conv2d_grad_weight_with, conv2d_with, Conv2dSpec,
};
pub use epilogue::{Activation, Epilogue};
pub use error::TensorError;
pub use kernel::{kernel_policy, KernelPolicy};
pub use pool::{global_avg_pool, global_avg_pool_backward};
pub use rng::Rng64;
pub use shape::Shape;
pub use shared::SharedTensor;
pub use simd::{resolve_simd_override, set_simd_tier, simd_tier, SimdTier};
pub use tensor::Tensor;

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

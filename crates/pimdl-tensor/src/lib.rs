//! Dense tensor substrate for the PIM-DL reproduction.
//!
//! This crate provides the numerical foundation the rest of the workspace is
//! built on: a row-major [`Matrix`] of `f32`, reference and blocked/parallel
//! [GEMM](gemm), symmetric INT8 [quantization](quant), the element-wise
//! operators a transformer needs ([`elementwise`]), and the normalization
//! operators ([`norm`]).
//!
//! Everything here is deliberately dependency-light and deterministic: the
//! PIM simulator executes micro-kernels *functionally* against data produced
//! by this crate, and tests assert bit-stable agreement between host reference
//! kernels and simulated PIM kernels.
//!
//! # Example
//!
//! ```rust
//! use pimdl_tensor::{Matrix, gemm};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::eye(3);
//! let c = gemm::matmul(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok::<(), pimdl_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod matrix;

pub mod elementwise;
pub mod gemm;
pub mod norm;
pub mod pool;
pub mod quant;
pub mod rng;

pub use error::TensorError;
pub use matrix::Matrix;

/// Crate-wide result alias with [`TensorError`] as the default error type
/// (code generic over an error that wraps it names its own).
pub type Result<T, E = TensorError> = std::result::Result<T, E>;

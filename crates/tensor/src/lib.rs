//! Dense tensor substrate for the FlashFuser reproduction.
//!
//! This crate provides the numeric foundation every other layer builds on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with borrowed strided views,
//!   used both as workload data and as the contents of simulated on-chip
//!   buffers.
//! * [`gemm`] — reference GEMM kernels (naive and blocked) that define
//!   ground-truth numerics for every fused plan the simulator executes.
//! * [`kernel`] — pluggable GEMM backends behind the [`MicroKernel`]
//!   trait: the naive oracle loop and a packed, cache-blocked,
//!   autovectorized fast path, selected explicitly via
//!   [`NumericConfig`] (no CPU sniffing, so results are reproducible).
//! * [`Activation`] / [`BinaryOp`] — the element-wise operators that appear
//!   between GEMMs in the paper's chains (ReLU, SiLU, Mul, Add, ...).
//! * [`im2col`] — the convolution-to-GEMM lowering used for the paper's
//!   conv chains (Table V).
//! * [`rng`] — deterministic seeded data generation so that every
//!   experiment in the repository is reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use flashfuser_tensor::{Matrix, gemm};
//!
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::identity(3);
//! let c = gemm::matmul(&a, &b).unwrap();
//! assert_eq!(c, a);
//! ```

pub mod activation;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod kernel;
pub mod matrix;
pub mod rng;
pub mod softmax;

pub use activation::{Activation, BinaryOp};
pub use error::ShapeError;
pub use im2col::Conv2dSpec;
pub use kernel::{BlockedKernel, KernelKind, MicroKernel, NaiveKernel, NumericConfig, Order};
pub use matrix::{MatMut, MatRef, Matrix, View};
pub use softmax::{rowwise_softmax, rowwise_softmax_inplace, softmax_scale};

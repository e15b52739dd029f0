//! Operator-graph IR for compute-intensive operator chains.
//!
//! This crate models the paper's Figure 1 chain families as typed values
//! the compiler can analyse:
//!
//! * [`ChainDims`] — the unified loop-dimension set `{M, N, K, L}` of a
//!   two-GEMM chain (Fig. 2), with FLOP and byte accounting.
//! * [`ChainSpec`] / [`ChainKind`] — a standard FFN, gated FFN (SwiGLU),
//!   or convolution block lowered to a GEMM chain via im2col.
//! * [`OpGraph`] — a small operator DAG used to express and validate the
//!   chain structure, and the input of whole-graph compilation.
//! * [`segment`] — shape inference, unfused per-op pricing, and the
//!   pattern matcher that recovers typed chains from an arbitrary DAG
//!   (the front half of whole-graph compilation).
//! * [`mod@rand_graph`] — seeded random-DAG generation: diverse,
//!   always-valid graphs for differential fuzzing of the compiler.
//!
//! # Example
//!
//! ```
//! use flashfuser_graph::ChainSpec;
//! use flashfuser_tensor::Activation;
//!
//! // GPT-6.7B FFN subgraph (Table VII, G5).
//! let chain = ChainSpec::standard_ffn(128, 16384, 4096, 4096, Activation::Relu);
//! assert_eq!(chain.dims().intermediate_bytes_f16(), 128 * 16384 * 2);
//! ```

pub mod chain;
pub mod conv;
pub mod dims;
pub mod fingerprint;
pub mod op;
pub mod rand_graph;
pub mod segment;

pub use chain::{ChainKind, ChainSpec};
pub use conv::{ConvChainError, ConvChainSpec};
pub use dims::{ChainDims, Dim};
pub use fingerprint::StableHasher;
pub use op::{OpGraph, OpKind, OpNode};
pub use rand_graph::{rand_graph, RandGraphConfig};
pub use segment::{match_chains, recover_chain_io, ChainIo, ChainMatch, GraphShapeError, OpCost};

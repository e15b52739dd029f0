//! The paper's workloads.
//!
//! * [`tables`] — the exact subgraph configurations of Tables V
//!   (conv chains C1–C8), VI (gated FFNs S1–S8) and VII (GEMM chains
//!   G1–G10).
//! * [`models`] — the transformer model zoo (GPT, LLaMA, OPT, BERT,
//!   Qwen) with layer shapes; [`ModelSpec::graph`] lowers whole decoder
//!   layers into operator DAGs for whole-graph compilation.
//!
//! The timing models the paper's end-to-end figures need (FFN time
//! share, end-to-end speedup, rooflines) live with the reproduction in
//! `crates/bench`.

pub mod models;
pub mod tables;

pub use models::{find_model, large_model_zoo, model_zoo, ModelSpec};
pub use tables::{all_workloads, conv_chains, gated_ffn_chains, gemm_chains, Workload};

//! Typed descriptions of the three fusible chain families (paper Fig. 1).

use crate::dims::ChainDims;
use crate::op::{OpGraph, OpKind};
use flashfuser_tensor::rng::{derive_seed, seeded_matrix};
use flashfuser_tensor::{Activation, BinaryOp, Matrix, ShapeError};
use std::fmt;

/// The structural family of a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainKind {
    /// `E = act(A x B) x D` — standard FFN (Fig. 1(b)) and conv blocks
    /// lowered via im2col (Fig. 1(a)).
    StandardFfn {
        /// Activation between the GEMMs.
        activation: Activation,
    },
    /// `E = (act(A x B_gate) ⊙ (A x B_up)) x D` — gated FFN / SwiGLU
    /// (Fig. 1(c)). The branch combine is always element-wise `Mul`.
    GatedFfn {
        /// Activation applied to the gate branch.
        activation: Activation,
    },
    /// `E = softmax(A x B) x D` — attention (`Q×K^T → softmax → A×V`),
    /// with `A = Q[M,K]`, `B = K^T[K,N]`, `D = V[N,L]`. The reduction
    /// between the GEMMs is rowwise over N; `scaled` multiplies scores
    /// by `1/sqrt(K)` first (scaled dot-product attention).
    Attention {
        /// `true` for scaled dot-product attention.
        scaled: bool,
    },
}

impl ChainKind {
    /// The activation between GEMM0 and GEMM1 (`Identity` for attention
    /// — the rowwise softmax is not an element-wise activation and is
    /// applied separately at the strip level).
    pub fn activation(&self) -> Activation {
        match self {
            ChainKind::StandardFfn { activation } | ChainKind::GatedFfn { activation } => {
                *activation
            }
            ChainKind::Attention { .. } => Activation::Identity,
        }
    }

    /// `true` for gated (two parallel up-projection branches).
    pub fn is_gated(&self) -> bool {
        matches!(self, ChainKind::GatedFfn { .. })
    }

    /// `true` for attention (rowwise softmax between the GEMMs).
    pub fn is_attention(&self) -> bool {
        matches!(self, ChainKind::Attention { .. })
    }

    /// The combiner carried by `dsm_all_exchange`: `Add` for K-partitioned
    /// partial sums of a standard chain, `Mul` when the exchange combines
    /// the two branches of a gated chain (§IV-A).
    pub fn exchange_op(&self) -> BinaryOp {
        if self.is_gated() {
            BinaryOp::Mul
        } else {
            BinaryOp::Add
        }
    }
}

/// A concrete fusible chain: dims + family + a workload name.
///
/// # Example
///
/// ```
/// use flashfuser_graph::ChainSpec;
/// use flashfuser_tensor::Activation;
///
/// // Llama-2-7B gated FFN (Table VI, S3).
/// let s = ChainSpec::gated_ffn(128, 11008, 4096, 4096, Activation::Silu).named("S3");
/// assert!(s.kind().is_gated());
/// assert_eq!(s.total_flops(), 2 * s.dims().gemm0_flops() + s.dims().gemm1_flops());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    dims: ChainDims,
    kind: ChainKind,
    name: String,
}

impl ChainSpec {
    /// Creates a standard-FFN chain `E[M,L] = act(A[M,K] x B[K,N]) x D[N,L]`.
    pub fn standard_ffn(m: usize, n: usize, k: usize, l: usize, activation: Activation) -> Self {
        Self {
            dims: ChainDims::new(m, n, k, l),
            kind: ChainKind::StandardFfn { activation },
            name: String::new(),
        }
    }

    /// Creates a gated-FFN chain (two parallel `[M,K]x[K,N]` branches).
    pub fn gated_ffn(m: usize, n: usize, k: usize, l: usize, activation: Activation) -> Self {
        Self {
            dims: ChainDims::new(m, n, k, l),
            kind: ChainKind::GatedFfn { activation },
            name: String::new(),
        }
    }

    /// Creates an attention chain `E[M,L] = softmax(Q[M,K] x Kt[K,N]) x
    /// V[N,L]`, optionally scaled by `1/sqrt(K)`.
    pub fn attention(m: usize, n: usize, k: usize, l: usize, scaled: bool) -> Self {
        Self {
            dims: ChainDims::new(m, n, k, l),
            kind: ChainKind::Attention { scaled },
            name: String::new(),
        }
    }

    /// The `scale_k` of the chain's softmax node: `K` for scaled
    /// attention, `0` otherwise (unscaled, or not an attention chain).
    pub fn softmax_scale_k(&self) -> usize {
        match self.kind {
            ChainKind::Attention { scaled: true } => self.dims.k,
            _ => 0,
        }
    }

    /// Attaches a workload name (`"G5"`, `"S3"`, ...), consuming `self`.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The workload name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Problem dimensions.
    pub fn dims(&self) -> ChainDims {
        self.dims
    }

    /// Chain family.
    pub fn kind(&self) -> ChainKind {
        self.kind
    }

    /// Total FLOPs (both GEMMs; gated chains run GEMM0 twice).
    pub fn total_flops(&self) -> u64 {
        let g0 = self.dims.gemm0_flops();
        let g1 = self.dims.gemm1_flops();
        if self.kind.is_gated() {
            2 * g0 + g1
        } else {
            g0 + g1
        }
    }

    /// Minimum global bytes of a fused execution (see
    /// [`ChainDims::fused_min_global_bytes`]).
    pub fn fused_min_global_bytes(&self) -> u64 {
        self.dims.fused_min_global_bytes(self.kind.is_gated())
    }

    /// Global bytes of the unfused execution.
    pub fn unfused_global_bytes(&self) -> u64 {
        if self.kind.is_attention() {
            self.dims.attention_unfused_global_bytes()
        } else {
            self.dims.unfused_global_bytes(self.kind.is_gated())
        }
    }

    /// Arithmetic intensity (FLOP per global byte) of the fused execution;
    /// the x-axis of the paper's roofline analysis (Fig. 16a).
    pub fn fused_arithmetic_intensity(&self) -> f64 {
        self.total_flops() as f64 / self.fused_min_global_bytes() as f64
    }

    /// Expands the chain into its operator DAG (Fig. 1 shape): an input
    /// `A`, the chain spliced on by [`OpGraph::append_chain`], and an
    /// `Output` marker.
    pub fn to_op_graph(&self) -> OpGraph {
        let mut g = OpGraph::new();
        let a = g.add_input("A", self.dims.m, self.dims.k);
        let e = g.append_chain(self, a, "");
        g.add_node(OpKind::Output, vec![e], "out");
        g
    }

    /// Deterministically generates the chain's input tensors from `seed`.
    pub fn make_inputs(&self, seed: u64) -> ChainInputs {
        let d = self.dims;
        let a = seeded_matrix(d.m, d.k, derive_seed(seed, "A"));
        let b = seeded_matrix(d.k, d.n, derive_seed(seed, "B"));
        let b_gate = if self.kind.is_gated() {
            Some(seeded_matrix(d.k, d.n, derive_seed(seed, "B_gate")))
        } else {
            None
        };
        let dw = seeded_matrix(d.n, d.l, derive_seed(seed, "D"));
        ChainInputs {
            a,
            b,
            b_gate,
            d: dw,
        }
    }

    /// Computes the ground-truth output with the reference (unfused,
    /// untiled) pipeline. Every fused plan the simulator executes must
    /// reproduce this result.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `inputs` do not match the chain dims.
    pub fn reference_output(&self, inputs: &ChainInputs) -> Result<Matrix, ShapeError> {
        let act = self.kind.activation();
        let c = match (&self.kind, &inputs.b_gate) {
            (ChainKind::StandardFfn { .. }, _) => {
                let c = flashfuser_tensor::gemm::matmul(&inputs.a, &inputs.b)?;
                act.apply_matrix(&c)
            }
            (ChainKind::Attention { .. }, _) => {
                let scores = flashfuser_tensor::gemm::matmul(&inputs.a, &inputs.b)?;
                flashfuser_tensor::rowwise_softmax(
                    &scores,
                    flashfuser_tensor::softmax_scale(self.softmax_scale_k()),
                )
            }
            (ChainKind::GatedFfn { .. }, Some(b_gate)) => {
                let up = flashfuser_tensor::gemm::matmul(&inputs.a, &inputs.b)?;
                let gate = flashfuser_tensor::gemm::matmul(&inputs.a, b_gate)?;
                act.apply_matrix(&gate).mul_elem(&up)?
            }
            (ChainKind::GatedFfn { .. }, None) => {
                return Err(ShapeError::new("reference_output", (0, 0), (0, 0)));
            }
        };
        flashfuser_tensor::gemm::matmul(&c, &inputs.d)
    }
}

impl fmt::Display for ChainSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ChainKind::StandardFfn { activation } => format!("ffn/{activation}"),
            ChainKind::GatedFfn { activation } => format!("gated/{activation}"),
            ChainKind::Attention { scaled: true } => "attn/scaled".to_string(),
            ChainKind::Attention { scaled: false } => "attn".to_string(),
        };
        if self.name.is_empty() {
            write!(f, "{kind}[{}]", self.dims)
        } else {
            write!(f, "{} {kind}[{}]", self.name, self.dims)
        }
    }
}

/// Input tensors of a chain, generated by [`ChainSpec::make_inputs`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChainInputs {
    /// Activation input `A[M,K]`.
    pub a: Matrix,
    /// First (up) weight `B[K,N]`.
    pub b: Matrix,
    /// Gate weight `B_gate[K,N]` — present only for gated chains.
    pub b_gate: Option<Matrix>,
    /// Down-projection weight `D[N,L]`.
    pub d: Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_reference_matches_manual_compute() {
        let s = ChainSpec::standard_ffn(4, 6, 5, 3, Activation::Relu);
        let inputs = s.make_inputs(11);
        let c = flashfuser_tensor::gemm::matmul(&inputs.a, &inputs.b).unwrap();
        let c = Activation::Relu.apply_matrix(&c);
        let e = flashfuser_tensor::gemm::matmul(&c, &inputs.d).unwrap();
        let got = s.reference_output(&inputs).unwrap();
        assert_eq!(e, got);
        assert_eq!(got.shape(), (4, 3));
    }

    #[test]
    fn gated_reference_applies_silu_to_gate_branch() {
        let s = ChainSpec::gated_ffn(3, 4, 2, 5, Activation::Silu);
        let inputs = s.make_inputs(12);
        let up = flashfuser_tensor::gemm::matmul(&inputs.a, &inputs.b).unwrap();
        let gate =
            flashfuser_tensor::gemm::matmul(&inputs.a, inputs.b_gate.as_ref().unwrap()).unwrap();
        let c = Activation::Silu.apply_matrix(&gate).mul_elem(&up).unwrap();
        let e = flashfuser_tensor::gemm::matmul(&c, &inputs.d).unwrap();
        assert_eq!(s.reference_output(&inputs).unwrap(), e);
    }

    #[test]
    fn gated_without_gate_weight_is_error() {
        let s = ChainSpec::gated_ffn(2, 2, 2, 2, Activation::Silu);
        let mut inputs = s.make_inputs(1);
        inputs.b_gate = None;
        assert!(s.reference_output(&inputs).is_err());
    }

    #[test]
    fn flops_double_gemm0_for_gated() {
        let std = ChainSpec::standard_ffn(8, 8, 8, 8, Activation::Relu);
        let gated = ChainSpec::gated_ffn(8, 8, 8, 8, Activation::Silu);
        assert_eq!(
            gated.total_flops() - std.total_flops(),
            std.dims().gemm0_flops()
        );
    }

    #[test]
    fn op_graph_shapes() {
        let s = ChainSpec::standard_ffn(2, 2, 2, 2, Activation::Relu);
        assert_eq!(s.to_op_graph().matmul_count(), 2);
        let g = ChainSpec::gated_ffn(2, 2, 2, 2, Activation::Silu);
        assert_eq!(g.to_op_graph().matmul_count(), 3);
        assert_eq!(g.to_op_graph().matmul_chain_len(), 2);
    }

    #[test]
    fn exchange_op_mul_only_for_gated() {
        assert_eq!(
            ChainKind::StandardFfn {
                activation: Activation::Relu
            }
            .exchange_op(),
            BinaryOp::Add
        );
        assert_eq!(
            ChainKind::GatedFfn {
                activation: Activation::Silu
            }
            .exchange_op(),
            BinaryOp::Mul
        );
    }

    #[test]
    fn inputs_deterministic_per_seed() {
        let s = ChainSpec::standard_ffn(4, 4, 4, 4, Activation::Relu);
        assert_eq!(s.make_inputs(7), s.make_inputs(7));
        assert_ne!(s.make_inputs(7).a, s.make_inputs(8).a);
        // A and B use distinct derived seeds even with identical shapes.
        let sq = ChainSpec::standard_ffn(4, 4, 4, 4, Activation::Relu);
        let i = sq.make_inputs(7);
        assert_ne!(i.a, i.b);
    }

    #[test]
    fn display_includes_name_and_dims() {
        let s = ChainSpec::gated_ffn(128, 8192, 3072, 3072, Activation::Silu).named("S1");
        let txt = s.to_string();
        assert!(txt.contains("S1"));
        assert!(txt.contains("gated/silu"));
        assert!(txt.contains("N=8192"));
    }
}

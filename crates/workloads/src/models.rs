//! The transformer model zoo used by Table I and the end-to-end
//! evaluation (Figs. 16/17).
//!
//! The zoo lowers whole decoder layers into [`OpGraph`]s
//! ([`ModelSpec::graph`]): the end-to-end figures read their speedups
//! off the whole-graph compiler's plan of one such layer
//! (`flashfuser::Compiler::compile_graph`). The closed-form accounting
//! ([`ModelSpec::attention_flops`] etc.) prices Table I's FFN share.

use flashfuser_graph::op::NodeId;
use flashfuser_graph::{ChainSpec, OpGraph, OpKind};
use flashfuser_tensor::{Activation, BinaryOp};

/// Architecture parameters of one decoder/encoder model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Display name.
    pub name: &'static str,
    /// Number of transformer layers.
    pub layers: usize,
    /// Model (hidden) dimension `d`.
    pub hidden: usize,
    /// FFN inner dimension.
    pub ffn_hidden: usize,
    /// Whether the FFN is gated (SwiGLU).
    pub gated: bool,
}

impl ModelSpec {
    /// The FFN chain of one layer for `m` resident tokens
    /// (batch x sequence), in the two-GEMM form the fusion engine
    /// consumes.
    pub fn ffn_chain(&self, m: usize) -> ChainSpec {
        if self.gated {
            ChainSpec::gated_ffn(
                m,
                self.ffn_hidden,
                self.hidden,
                self.hidden,
                Activation::Silu,
            )
            .named(self.name)
        } else {
            ChainSpec::standard_ffn(
                m,
                self.ffn_hidden,
                self.hidden,
                self.hidden,
                Activation::Gelu,
            )
            .named(self.name)
        }
    }

    /// FLOPs of the attention part of one layer for `m` tokens attending
    /// over `seq` positions: QKV + output projections plus the two
    /// score/context batched GEMMs.
    pub fn attention_flops(&self, m: usize, seq: usize) -> u64 {
        let d = self.hidden as u64;
        let m = m as u64;
        let seq = seq as u64;
        4 * 2 * m * d * d + 2 * 2 * m * seq * d
    }

    /// Global bytes of the attention part (f16): projection weights, the
    /// token activations and the KV tensors.
    pub fn attention_bytes(&self, m: usize, seq: usize) -> u64 {
        let d = self.hidden as u64;
        let m = m as u64;
        let seq = seq as u64;
        4 * d * d * 2 + 6 * m * d * 2 + 2 * seq * d * 2 + 2 * m * seq * 2
    }

    /// Lowers one decoder layer onto `x` (the `[m, hidden]` residual
    /// stream) inside `g`, returning the layer's output node.
    ///
    /// The layer is attention + FFN + element-wise remainder:
    ///
    /// * attention — Q/K/V projections, `Q x K^T` scores (via a
    ///   `Transpose` node), a real scaled rowwise [`OpKind::Softmax`]
    ///   (`scale_k = hidden`), the context GEMM and the output
    ///   projection. The `scores -> softmax -> ctx` window is a
    ///   recoverable attention chain: the partitioner fuses it with the
    ///   row statistics held in the cluster's DSM tier, while the
    ///   projections and the transpose stay ordinary per-op work
    ///   outside the window;
    /// * the FFN as the canonical two-GEMM chain expansion
    ///   ([`OpGraph::append_chain`] of `ffn`, the model's
    ///   [`ModelSpec::ffn_chain`] built once per graph), which the graph
    ///   partitioner recovers and fuses;
    /// * residual adds after both halves.
    ///
    /// Sequence length equals `m` (every resident token attends over
    /// the whole batch window), matching the closed-form accounting
    /// ([`ModelSpec::attention_flops`]) Table I uses.
    fn lower_layer(&self, g: &mut OpGraph, x: NodeId, layer: usize, ffn: &ChainSpec) -> NodeId {
        let d = self.hidden;
        // One exact-size allocation per label, moved into its node.
        let prefix = format!("l{layer}.");
        let l = |part: &str| [prefix.as_str(), part].concat();
        let wq = g.add_input(l("Wq"), d, d);
        let wk = g.add_input(l("Wk"), d, d);
        let wv = g.add_input(l("Wv"), d, d);
        let wo = g.add_input(l("Wo"), d, d);
        let q = g.add_node(OpKind::Matmul, vec![x, wq], l("q"));
        let k = g.add_node(OpKind::Matmul, vec![x, wk], l("k"));
        let v = g.add_node(OpKind::Matmul, vec![x, wv], l("v"));
        let kt = g.add_node(OpKind::Transpose, vec![k], l("kT"));
        let scores = g.add_node(OpKind::Matmul, vec![q, kt], l("scores"));
        let probs = g.add_node(OpKind::Softmax { scale_k: d }, vec![scores], l("softmax"));
        let ctx = g.add_node(OpKind::Matmul, vec![probs, v], l("ctx"));
        let attn = g.add_node(OpKind::Matmul, vec![ctx, wo], l("attn"));
        let resid1 = g.add_node(
            OpKind::Elementwise(BinaryOp::Add),
            vec![attn, x],
            l("resid1"),
        );
        let ffn = g.append_chain(ffn, resid1, &l("ffn"));
        g.add_node(
            OpKind::Elementwise(BinaryOp::Add),
            vec![ffn, resid1],
            l("resid2"),
        )
    }

    /// Lowers `layers` decoder layers for `m` resident tokens into an
    /// operator DAG ending in an `Output` marker — the whole-graph
    /// compilation input. Every layer's FFN *and* its attention window
    /// are recoverable fused chains of identical shape, so a whole-graph
    /// compile resolves each of the two shapes once (one search cold,
    /// one plan-cache lookup warm) and every layer's segments share that
    /// plan. Lowering costs the same per layer however deep the graph.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero.
    pub fn graph(&self, m: usize, layers: usize) -> OpGraph {
        assert!(layers > 0, "a model graph needs at least one layer");
        let mut g = OpGraph::new();
        let mut x = g.add_input("tokens", m, self.hidden);
        let ffn = self.ffn_chain(m);
        for layer in 0..layers {
            x = self.lower_layer(&mut g, x, layer, &ffn);
        }
        g.add_node(OpKind::Output, vec![x], "out");
        g
    }

    /// One decoder layer as an operator DAG ([`ModelSpec::graph`] with
    /// `layers = 1`).
    pub fn layer_graph(&self, m: usize) -> OpGraph {
        self.graph(m, 1)
    }

    /// A structurally identical model shrunk to `hidden`: same layer
    /// count, gatedness and (approximate) FFN expansion ratio, with the
    /// FFN width rounded up to the 16-wide MMA granule so the scaled
    /// FFN chain stays fusible. Numeric differential validation runs
    /// real `f32` tensors through every operator, which is affordable
    /// at `hidden ≈ 64` but not at production widths — the scaled model
    /// exercises exactly the same graph structure, partitioning and
    /// dataflow at a size the oracle can execute.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is zero.
    pub fn scaled_to(&self, hidden: usize) -> ModelSpec {
        assert!(hidden > 0, "scaled model needs a positive hidden size");
        let ffn = (self.ffn_hidden * hidden / self.hidden).max(1);
        ModelSpec {
            hidden,
            ffn_hidden: ffn.div_ceil(16) * 16,
            ..*self
        }
    }
}

/// Looks a model up across [`model_zoo`] and [`large_model_zoo`],
/// ignoring ASCII case — the lookup behind the CLI `graph` subcommand
/// and the server's graph requests.
pub fn find_model(name: &str) -> Option<ModelSpec> {
    model_zoo()
        .into_iter()
        .chain(large_model_zoo())
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

/// The error for a `name` [`find_model`] does not know, listing every
/// model it does — the text of the CLI's usage error and of the
/// server's 400.
pub fn unknown_model(name: &str) -> String {
    let zoo = model_zoo().into_iter().chain(large_model_zoo());
    let names: Vec<&str> = zoo.map(|m| m.name).collect();
    format!("unknown model '{name}'; available: {}", names.join(", "))
}

/// The models of Table I plus the large models of Fig. 16.
pub fn model_zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "GPT-6.7B",
            layers: 32,
            hidden: 4096,
            ffn_hidden: 16384,
            gated: false,
        },
        ModelSpec {
            name: "LLaMA-1B",
            layers: 22,
            hidden: 2048,
            ffn_hidden: 5632,
            gated: true,
        },
        ModelSpec {
            name: "OPT-1.3B",
            layers: 24,
            hidden: 2048,
            ffn_hidden: 8192,
            gated: false,
        },
        ModelSpec {
            name: "BERT",
            layers: 12,
            hidden: 768,
            ffn_hidden: 3072,
            gated: false,
        },
        ModelSpec {
            name: "GPT-2",
            layers: 12,
            hidden: 768,
            ffn_hidden: 3072,
            gated: false,
        },
    ]
}

/// The large models of Fig. 16: Llama3-70B, Qwen2.5-14B/32B.
pub fn large_model_zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "llama3-70B",
            layers: 80,
            hidden: 8192,
            ffn_hidden: 28672,
            gated: true,
        },
        ModelSpec {
            name: "qwen2_5-14B",
            layers: 48,
            hidden: 5120,
            ffn_hidden: 13824,
            gated: true,
        },
        ModelSpec {
            name: "qwen2_5-32B",
            layers: 64,
            hidden: 5120,
            ffn_hidden: 27648,
            gated: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_contains_table_i_models() {
        let names: Vec<_> = model_zoo().iter().map(|m| m.name).collect();
        for expected in ["GPT-6.7B", "LLaMA-1B", "OPT-1.3B", "BERT", "GPT-2"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn ffn_chain_shapes() {
        let gpt = &model_zoo()[0];
        let c = gpt.ffn_chain(512);
        let d = c.dims();
        assert_eq!((d.m, d.n, d.k, d.l), (512, 16384, 4096, 4096));
        assert!(!c.kind().is_gated());
        let llama = &model_zoo()[1];
        assert!(llama.ffn_chain(128).kind().is_gated());
    }

    #[test]
    fn attention_accounting_scales() {
        let m = &model_zoo()[0];
        assert!(m.attention_flops(512, 512) > m.attention_flops(128, 128));
        assert!(m.attention_bytes(512, 512) > m.attention_bytes(128, 128));
    }

    #[test]
    fn large_models_are_gated_and_big() {
        for m in large_model_zoo() {
            assert!(m.gated);
            assert!(m.hidden >= 5120);
        }
    }

    #[test]
    fn layer_graph_is_well_shaped_and_counts_attention_gemms() {
        let bert = &model_zoo()[3];
        let g = bert.layer_graph(128);
        let shapes = g.infer_shapes().unwrap();
        // The residual stream ends at [m, hidden].
        assert_eq!(*shapes.last().unwrap(), (128, bert.hidden));
        // 6 attention GEMMs (q/k/v, scores, ctx, out) + 2 FFN GEMMs.
        assert_eq!(g.matmul_count(), 8);
        let gated = &model_zoo()[1]; // LLaMA-1B
        assert_eq!(gated.layer_graph(128).matmul_count(), 9);
    }

    #[test]
    fn model_graph_ffns_are_recoverable_per_layer() {
        let model = &model_zoo()[4]; // GPT-2
        let g = model.graph(64, 3);
        let matches = flashfuser_graph::match_chains(&g).unwrap();
        assert_eq!(
            matches.len(),
            6,
            "one fusible attention window and one FFN per layer"
        );
        let (attn, ffn): (Vec<_>, Vec<_>) =
            matches.iter().partition(|m| m.chain.kind().is_attention());
        assert_eq!(attn.len(), 3);
        assert_eq!(ffn.len(), 3);
        for m in &attn {
            // seq = m = 64, scaled by 1/sqrt(hidden).
            assert_eq!(
                m.chain,
                ChainSpec::attention(64, 64, model.hidden, model.hidden, true)
            );
        }
        for m in &ffn {
            // Names are metadata; the structure is exactly the layer's
            // FFN chain.
            assert_eq!(m.chain, model.ffn_chain(64).named(""));
            assert_eq!(m.chain.fingerprint(), model.ffn_chain(64).fingerprint());
        }
    }

    #[test]
    fn scaled_models_keep_structure_and_granule() {
        for model in model_zoo().into_iter().chain(large_model_zoo()) {
            let small = model.scaled_to(64);
            assert_eq!(small.hidden, 64);
            assert_eq!(small.gated, model.gated);
            assert_eq!(small.layers, model.layers);
            assert_eq!(
                small.ffn_hidden % 16,
                0,
                "{}: FFN must stay tileable",
                model.name
            );
            // The expansion ratio survives within rounding.
            let want = model.ffn_hidden as f64 / model.hidden as f64;
            let got = small.ffn_hidden as f64 / small.hidden as f64;
            assert!(
                (got - want).abs() < 0.3,
                "{}: ratio {got} vs {want}",
                model.name
            );
            // The scaled layer graph recovers the attention window and
            // the same FFN chain family.
            let matches = flashfuser_graph::match_chains(&small.layer_graph(16)).unwrap();
            assert_eq!(matches.len(), 2, "{}", model.name);
            let ffn = matches
                .iter()
                .find(|m| !m.chain.kind().is_attention())
                .unwrap();
            assert_eq!(ffn.chain.kind().is_gated(), model.gated);
            assert!(matches.iter().any(|m| m.chain.kind().is_attention()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layer_graph_panics() {
        model_zoo()[0].graph(128, 0);
    }
}

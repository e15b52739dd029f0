//! End-to-end inference speedup (Figs. 16(b) and 17), read off the
//! [`GraphPlan`] that `Compiler::compile_graph` returns for a model's
//! layer graph.
//!
//! The serving baseline (SGLang-class) runs the FFN as tuned-but-unfused
//! kernels and attention as one fused kernel (SGLang ships
//! FlashAttention). So the baseline's layer is the stitched plan with
//! every FFN segment back at its unfused bar, while FlashFuser's fused
//! attention stands in for the baseline's: only the FFN earns credit.
//! On a graph without attention the layer speedup is
//! [`GraphPlan::speedup`].

use flashfuser::GraphPlan;

/// FlashFuser's speedups over the serving baseline on one compiled graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpeedup {
    /// Kernel-level FFN speedup (1.0 when no FFN fused).
    pub ffn: f64,
    /// End-to-end speedup of the whole graph.
    pub layer: f64,
}

impl LayerSpeedup {
    /// Reads both speedups off `plan`.
    pub fn of(plan: &GraphPlan) -> Self {
        let ffn = plan
            .fused_segments()
            .filter(|s| !s.chain.kind().is_attention());
        let (bar, stitched) = ffn.fold((0.0, 0.0), |(bar, stitched), s| {
            (bar + s.unfused_seconds, stitched + s.stitched_seconds())
        });
        LayerSpeedup {
            ffn: if stitched > 0.0 { bar / stitched } else { 1.0 },
            layer: (plan.seconds + bar - stitched) / plan.seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser::Compiler;
    use flashfuser_core::MachineDescriptor;
    use flashfuser_graph::{ChainSpec, OpGraph, OpKind};
    use flashfuser_tensor::Activation;
    use flashfuser_workloads::{find_model, large_model_zoo, model_zoo, ModelSpec};

    /// One decoder layer of `model` with `m` tokens, compiled on the H100.
    fn layer(model: &ModelSpec, m: usize) -> GraphPlan {
        let compiler = Compiler::new(MachineDescriptor::h100_sxm());
        compiler
            .compile_graph(&model.graph(m, 1))
            .expect("a layer compiles")
    }

    #[test]
    fn e2e_speedup_is_amdahl_bounded() {
        // E2E speedup must be positive, above 1 (fallback guarantees it)
        // and strictly below the kernel-level FFN speedup.
        let r = LayerSpeedup::of(&layer(&model_zoo()[0], 128));
        assert!(r.layer >= 1.0);
        assert!(r.ffn >= r.layer);
        assert!(r.ffn > 1.05, "FFN kernel should win: {r:?}");
    }

    #[test]
    fn large_models_gain_less_at_high_batch() {
        // Fig. 16: at large m the FFN becomes compute-bound and the
        // fusion headroom shrinks.
        let model = &large_model_zoo()[1]; // Qwen2.5-14B
        let small = LayerSpeedup::of(&layer(model, 256));
        let large = LayerSpeedup::of(&layer(model, 4096));
        assert!(
            large.layer <= small.layer + 1e-9,
            "small {} vs large {}",
            small.layer,
            large.layer
        );
    }

    #[test]
    fn only_attention_separates_layer_and_plan_speedup() {
        // Two FFN layers and no attention: the baseline is the
        // all-unfused plan.
        let compiler = Compiler::new(MachineDescriptor::h100_sxm());
        let ffn = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Gelu);
        let mut g = OpGraph::new();
        let x = g.add_input("tokens", 128, 256);
        let l1 = g.append_chain(&ffn, x, "l1");
        let l2 = g.append_chain(&ffn, l1, "l2");
        g.add_node(OpKind::Output, vec![l2], "out");
        let plan = compiler.compile_graph(&g).unwrap();
        let r = LayerSpeedup::of(&plan);
        assert!((r.layer - plan.speedup()).abs() <= 1e-12 * plan.speedup());
        // A zoo layer: fused attention earns no credit.
        let plan = layer(&find_model("GPT-2").expect("in the zoo"), 128);
        let r = LayerSpeedup::of(&plan);
        assert!((1.0..=plan.speedup()).contains(&r.layer), "{r:?}");
    }
}

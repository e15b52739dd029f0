//! End-to-end inference timing (Figs. 16(b) and 17).
//!
//! One layer = attention + FFN + element-wise remainder. The serving
//! baseline (SGLang-class) runs the FFN as tuned-but-unfused kernels
//! (eff `UNFUSED_EFFICIENCY` = 0.92); the FlashFuser configuration
//! replaces only the FFN with the searched fused kernel. Everything
//! else is identical, so the E2E speedup is the Amdahl composition of
//! the kernel-level gain with the FFN time share — exactly how the
//! paper's 1.24x arises from 3.3x kernel speedups.

use crate::baselines::System;
use flashfuser::UNFUSED_EFFICIENCY;
use flashfuser_core::MachineDescriptor;
use flashfuser_sim::unfused_time;
use flashfuser_workloads::ModelSpec;

/// End-to-end comparison for one model and token count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eReport {
    /// Kernel-level FFN speedup.
    pub ffn_speedup: f64,
    /// End-to-end speedup (whole model; layers are homogeneous).
    pub speedup: f64,
}

/// Non-FFN time of one layer with `m` resident tokens, its kernels
/// running at `efficiency` of peak compute and bandwidth: attention
/// (four projection launches plus two batched attention GEMMs) and the
/// element-wise remainder (norms, residuals and rotary: two passes over
/// the token activations). Shared by both systems here and by Table I.
pub(crate) fn non_ffn_layer_time(
    model: &ModelSpec,
    m: usize,
    params: &MachineDescriptor,
    efficiency: f64,
) -> f64 {
    let attn_flops = model.attention_flops(m, m) as f64;
    let attn_bytes = model.attention_bytes(m, m) as f64;
    let attn = (attn_flops / (params.peak_flops() * efficiency))
        .max(attn_bytes / (params.hbm_bw() * efficiency))
        + 6.0 * params.kernel_launch_s();
    let misc_bytes = (4 * m as u64 * model.hidden as u64 * 2) as f64;
    attn + misc_bytes / (params.hbm_bw() * efficiency) + 2.0 * params.kernel_launch_s()
}

/// Computes the end-to-end speedup of FlashFuser over the serving
/// baseline for `model` with `m` tokens in flight.
pub fn e2e_speedup(model: &ModelSpec, m: usize, params: &MachineDescriptor) -> E2eReport {
    let chain = model.ffn_chain(m);
    let baseline_ffn = unfused_time(&chain, params, UNFUSED_EFFICIENCY).seconds;
    let ff = System::FlashFuser.run(&chain, params);
    // FlashFuser never ships a fused kernel slower than the baseline's
    // unfused FFN (binning falls back per M bucket, §IV-C3).
    let ff_ffn = ff.seconds.min(baseline_ffn);
    let shared = non_ffn_layer_time(model, m, params, UNFUSED_EFFICIENCY);
    let baseline_layer_s = shared + baseline_ffn;
    let flashfuser_layer_s = shared + ff_ffn;
    E2eReport {
        ffn_speedup: baseline_ffn / ff_ffn,
        speedup: baseline_layer_s / flashfuser_layer_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_workloads::{large_model_zoo, model_zoo};

    #[test]
    fn e2e_speedup_is_amdahl_bounded() {
        // E2E speedup must be positive, above 1 (fallback guarantees it)
        // and strictly below the kernel-level FFN speedup.
        let p = MachineDescriptor::h100_sxm();
        let gpt = &model_zoo()[0];
        let r = e2e_speedup(gpt, 128, &p);
        assert!(r.speedup >= 1.0);
        assert!(r.ffn_speedup >= r.speedup);
        assert!(r.ffn_speedup > 1.05, "FFN kernel should win: {r:?}");
    }

    #[test]
    fn large_models_gain_less_at_high_batch() {
        // Fig. 16: at large m the FFN becomes compute-bound and the
        // fusion headroom shrinks.
        let p = MachineDescriptor::h100_sxm();
        let model = &large_model_zoo()[1]; // Qwen2.5-14B
        let small = e2e_speedup(model, 256, &p);
        let large = e2e_speedup(model, 4096, &p);
        assert!(
            large.speedup <= small.speedup + 1e-9,
            "small {} vs large {}",
            small.speedup,
            large.speedup
        );
    }
}

//! Table I: percentage of execution time spent in FFN layers.
//!
//! One transformer layer = attention (projections + score/context
//! GEMMs) + FFN + a small element-wise remainder (norms, residuals,
//! rotary). Each part is timed with the same bandwidth/compute-bound
//! kernel model as the rest of the repository; the FFN share is the
//! FFN fraction of the layer total. The paper's setting is a sequence
//! length of 512.

use flashfuser_core::MachineDescriptor;
use flashfuser_sim::unfused_time;
use flashfuser_workloads::ModelSpec;

/// Fraction (0–1) of layer execution time spent in the FFN, for `m`
/// resident tokens (the paper uses `m = seq = 512`).
pub fn ffn_time_share(model: &ModelSpec, m: usize, params: &MachineDescriptor) -> f64 {
    let ffn = unfused_time(&model.ffn_chain(m), params, 0.90).seconds;
    let attn_flops = model.attention_flops(m, m) as f64;
    let attn_bytes = model.attention_bytes(m, m) as f64;
    // Four projection launches plus two batched attention GEMMs.
    let attn = (attn_flops / (params.peak_flops() * 0.90))
        .max(attn_bytes / (params.hbm_bw() * 0.90))
        + 6.0 * params.kernel_launch_s();
    // Norms/residuals/rotary: two passes over the token activations.
    let d = model.hidden as u64;
    let misc_bytes = (4 * m as u64 * d * 2) as f64;
    let misc = misc_bytes / (params.hbm_bw() * 0.90) + 2.0 * params.kernel_launch_s();
    ffn / (ffn + attn + misc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_workloads::model_zoo;

    #[test]
    fn table_i_shares_in_range() {
        // Paper Table I at seq 512: GPT-6.7B 61%, LLaMA-1B 57%,
        // OPT-1.3B 53%, BERT 47%, GPT-2 42%. The model must land in the
        // 40–70% band with the same ordering trend (bigger FFN ratio ->
        // bigger share).
        let p = MachineDescriptor::h100_sxm();
        let zoo = model_zoo();
        let mut by_name = std::collections::HashMap::new();
        for m in &zoo {
            let s = ffn_time_share(m, 512, &p);
            assert!((0.35..0.75).contains(&s), "{}: {s}", m.name);
            by_name.insert(m.name, s);
        }
        // GPT-6.7B (4x FFN ratio, d=4096) spends more of its time in the
        // FFN than GPT-2 (d=768), as in Table I.
        assert!(by_name["GPT-6.7B"] > by_name["GPT-2"]);
    }

    #[test]
    fn share_grows_with_ffn_width() {
        let p = MachineDescriptor::h100_sxm();
        let narrow = ModelSpec {
            name: "narrow",
            layers: 1,
            hidden: 1024,
            ffn_hidden: 2048,
            gated: false,
        };
        let wide = ModelSpec {
            name: "wide",
            layers: 1,
            hidden: 1024,
            ffn_hidden: 8192,
            gated: false,
        };
        assert!(ffn_time_share(&wide, 512, &p) > ffn_time_share(&narrow, 512, &p));
    }
}

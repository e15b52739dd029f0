//! Unfused (one-kernel-per-operator) execution — the no-fusion baseline.
//!
//! PyTorch-style frameworks launch one kernel per operator and
//! round-trip every intermediate through global memory (§III). The
//! baseline is only ever priced, never run: this module is the
//! timing/traffic model the baseline systems and the graph
//! partitioner's fallback bar build on.

use flashfuser_core::MachineDescriptor;
use flashfuser_graph::ChainSpec;

/// The priced unfused execution: per-kernel times and the total.
#[derive(Debug, Clone, PartialEq)]
pub struct UnfusedReport {
    /// `(kernel name, seconds)` in launch order.
    pub kernels: Vec<(&'static str, f64)>,
    /// End-to-end seconds (kernels are serialised by the data
    /// dependency, so this is the sum plus per-launch overhead).
    pub seconds: f64,
    /// Global bytes moved.
    pub global_bytes: u64,
}

/// Seconds for one stand-alone kernel with the given FLOP/byte
/// footprint: bound by `max(compute, traffic / HBM-bandwidth)` at the
/// derated `efficiency`, plus one launch overhead. This is the
/// per-kernel model [`unfused_time`] sums over a chain, and
/// [`UnfusedKernelPricer`] prices remainder operators of a partitioned
/// graph (element-wise glue, transposes, attention GEMMs) with it, so
/// both follow exactly the same rule.
pub fn kernel_seconds(flops: u64, bytes: u64, params: &MachineDescriptor, efficiency: f64) -> f64 {
    assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency in (0,1]");
    let compute = flops as f64 / (params.peak_flops() * efficiency);
    let memory = bytes as f64 / (params.hbm_bw() * efficiency);
    compute.max(memory) + params.kernel_launch_s()
}

/// [`flashfuser_core::UnfusedPricer`] backed by the unfused kernel
/// model: the hook the graph partitioner uses to price everything the
/// fusion engine does not cover. Stand-alone operators are priced as
/// one roofline-bound kernel each; whole chains through
/// [`unfused_time`] (so the fallback bar includes the split-K round
/// trips a library GEMM would really pay).
#[derive(Debug, Clone)]
pub struct UnfusedKernelPricer {
    params: MachineDescriptor,
    efficiency: f64,
}

impl UnfusedKernelPricer {
    /// A pricer for `params` at the given kernel `efficiency`
    /// (cuBLAS-class ≈ 0.9; see [`unfused_time`]).
    pub fn new(params: MachineDescriptor, efficiency: f64) -> Self {
        assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency in (0,1]");
        Self { params, efficiency }
    }
}

impl flashfuser_core::UnfusedPricer for UnfusedKernelPricer {
    fn op_seconds(&self, cost: flashfuser_graph::OpCost) -> f64 {
        kernel_seconds(cost.flops, cost.bytes, &self.params, self.efficiency)
    }

    fn chain_seconds(&self, chain: &ChainSpec) -> f64 {
        unfused_time(chain, &self.params, self.efficiency).seconds
    }
}

/// Split-K factor a library GEMM uses for a narrow `M x R` reduction:
/// with few output rows the only way to fill the GPU is to parallelise
/// the reduction, writing f32 partial tiles to global memory and
/// reducing them in a second pass. This is precisely the global-memory
/// round trip that FlashFuser's in-cluster `dsm_all_exchange` replaces,
/// and the main source of the paper's Fig. 11 traffic gap.
fn split_k_factor(m: usize, r: usize) -> u64 {
    if m <= 256 && r >= 1024 {
        ((r / 512) as u64).clamp(2, 8)
    } else {
        1
    }
}

/// Times the unfused execution on `params`: each kernel is bound by
/// `max(compute, traffic / HBM-bandwidth)` plus a launch overhead, and
/// kernels serialise on the intermediate dependency. Narrow GEMMs pay
/// the split-K partial-sum round trips a library GEMM makes to fill
/// the GPU.
///
/// `efficiency` derates the per-kernel achieved throughput — baseline
/// policies use it to model the difference between, say, cuBLAS (0.9+)
/// and a generic compiler's generated GEMM (0.6–0.8).
pub fn unfused_time(
    chain: &ChainSpec,
    params: &MachineDescriptor,
    efficiency: f64,
) -> UnfusedReport {
    assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency in (0,1]");
    let dims = chain.dims();
    let gated = chain.kind().is_gated();
    let mut kernels: Vec<(&'static str, f64)> = vec![];
    let mut global_bytes = 0u64;

    let mut kernel = |name: &'static str, flops: u64, bytes: u64| -> (&'static str, f64) {
        global_bytes += bytes;
        (name, kernel_seconds(flops, bytes, params, efficiency))
    };

    // Split-K: s f32 partial tiles written + read back (4 bytes/elem =
    // 2x the f16 tile) before the final f16 store.
    let split_extra = |out_f16: u64, m: usize, r: usize| -> u64 {
        let s = split_k_factor(m, r);
        if s > 1 {
            2 * 2 * s * out_f16
        } else {
            0
        }
    };

    let attention = chain.kind().is_attention();
    let gemm0_bytes = dims.a_bytes_f16()
        + dims.b_bytes_f16()
        + dims.intermediate_bytes_f16()
        + split_extra(dims.intermediate_bytes_f16(), dims.m, dims.k);
    kernels.push(kernel(
        if attention {
            "gemm0.scores"
        } else {
            "gemm0.up"
        },
        dims.gemm0_flops(),
        gemm0_bytes,
    ));
    if gated {
        kernels.push(kernel("gemm0.gate", dims.gemm0_flops(), gemm0_bytes));
        kernels.push(kernel(
            "act_mul",
            2 * dims.intermediate_bytes_f16() / 2,
            3 * dims.intermediate_bytes_f16(),
        ));
    }
    if attention {
        // Stand-alone three-pass softmax: shift, exp, normalize over
        // M x N scores (4 flops/elem), three reads + one write.
        kernels.push(kernel(
            "softmax",
            4 * dims.m as u64 * dims.n as u64,
            4 * dims.intermediate_bytes_f16(),
        ));
    }
    kernels.push(kernel(
        "gemm1",
        dims.gemm1_flops(),
        dims.intermediate_bytes_f16()
            + dims.d_bytes_f16()
            + dims.e_bytes_f16()
            + split_extra(dims.e_bytes_f16(), dims.m, dims.n),
    ));

    let seconds = kernels.iter().map(|(_, s)| s).sum();
    UnfusedReport {
        kernels,
        seconds,
        global_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    #[test]
    fn traffic_matches_chain_model() {
        // With no split-K (every reduction here is far below 1024), the
        // priced traffic is exactly the closed-form unfused-traffic
        // formula used throughout the repo.
        for chain in [
            ChainSpec::standard_ffn(16, 48, 32, 32, Activation::Relu),
            ChainSpec::gated_ffn(16, 48, 32, 32, Activation::Silu),
            ChainSpec::attention(16, 48, 32, 32, false),
            ChainSpec::attention(16, 48, 32, 32, true),
        ] {
            let report = unfused_time(&chain, &MachineDescriptor::h100_sxm(), 0.92);
            assert_eq!(report.global_bytes, chain.unfused_global_bytes());
        }
    }

    #[test]
    fn launch_counts() {
        let p = MachineDescriptor::h100_sxm();
        let kernels = |chain: &ChainSpec| unfused_time(chain, &p, 0.92).kernels.len();
        let std = ChainSpec::standard_ffn(16, 32, 32, 32, Activation::Relu);
        assert_eq!(kernels(&std), 2);
        let gated = ChainSpec::gated_ffn(16, 32, 32, 32, Activation::Silu);
        assert_eq!(kernels(&gated), 4);
        let attn = ChainSpec::attention(16, 32, 32, 32, true);
        assert_eq!(kernels(&attn), 3, "gemm0 + softmax + gemm1");
    }

    #[test]
    fn timing_memory_bound_at_small_m() {
        // M=128 FFN: each GEMM is bandwidth-bound, so halving efficiency
        // roughly doubles time.
        let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let p = MachineDescriptor::h100_sxm();
        let full = unfused_time(&chain, &p, 1.0);
        let half = unfused_time(&chain, &p, 0.5);
        assert!(half.seconds > full.seconds * 1.8);
        // Narrow-M GEMMs pay split-K round trips on top of the ideal
        // unfused traffic.
        assert!(full.global_bytes > chain.unfused_global_bytes());
        assert_eq!(full.kernels.len(), 2);
        assert!(
            unfused_time(
                &ChainSpec::gated_ffn(128, 8192, 2048, 2048, Activation::Silu),
                &p,
                1.0
            )
            .kernels
            .len()
                == 4
        );
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn bad_efficiency_panics() {
        let chain = ChainSpec::standard_ffn(16, 32, 32, 32, Activation::Relu);
        unfused_time(&chain, &MachineDescriptor::h100_sxm(), 0.0);
    }

    #[test]
    fn op_time_is_roofline_plus_launch() {
        let p = MachineDescriptor::h100_sxm();
        // Pure launch.
        assert_eq!(kernel_seconds(0, 0, &p, 1.0), p.kernel_launch_s());
        // Memory-bound: doubling bytes doubles the traffic term.
        let t1 = kernel_seconds(0, 1 << 30, &p, 1.0) - p.kernel_launch_s();
        let t2 = kernel_seconds(0, 1 << 31, &p, 1.0) - p.kernel_launch_s();
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_pricer_agrees_with_the_chain_model() {
        use flashfuser_core::UnfusedPricer as _;
        let p = MachineDescriptor::h100_sxm();
        let pricer = UnfusedKernelPricer::new(p.clone(), 0.92);
        let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        assert_eq!(
            pricer.chain_seconds(&chain),
            unfused_time(&chain, &p, 0.92).seconds
        );
        let cost = flashfuser_graph::OpCost {
            flops: 1 << 30,
            bytes: 1 << 20,
        };
        assert_eq!(
            pricer.op_seconds(cost),
            kernel_seconds(cost.flops, cost.bytes, &p, 0.92)
        );
    }
}

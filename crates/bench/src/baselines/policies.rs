//! The baseline policies.

use flashfuser_core::{MachineDescriptor, MemLevel, PruneConfig, SearchConfig, SearchEngine};
use flashfuser_graph::ChainSpec;
use flashfuser_sim::{unfused_time, SimProfiler};

/// The outcome of running one system on one chain.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// System name.
    pub name: &'static str,
    /// End-to-end seconds for the chain.
    pub seconds: f64,
    /// Global-memory bytes moved.
    pub global_bytes: u64,
    /// Whether the system fused the whole chain into one kernel.
    pub fused: bool,
    /// Free-form note (e.g. `"fusion failed: intermediate 2 MiB"`).
    pub detail: String,
}

/// A baseline system: runs a chain, returns its simulated cost.
pub trait Baseline {
    /// Display name (figure legend).
    fn name(&self) -> &'static str;
    /// Executes `chain` under this system's capability envelope.
    fn run(&self, chain: &ChainSpec) -> BaselineResult;
}

/// Helper: an unfused run at a given kernel efficiency.
fn unfused_result(
    name: &'static str,
    chain: &ChainSpec,
    params: &MachineDescriptor,
    efficiency: f64,
    detail: &str,
) -> BaselineResult {
    let report = unfused_time(chain, params, efficiency);
    BaselineResult {
        name,
        seconds: report.seconds,
        global_bytes: report.global_bytes,
        fused: false,
        detail: detail.to_string(),
    }
}

macro_rules! unfused_policy {
    ($(#[$doc:meta])* $name:ident, $label:literal, $eff:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            params: MachineDescriptor,
        }

        impl $name {
            /// Creates the policy.
            pub fn new(params: MachineDescriptor) -> Self {
                Self { params }
            }
        }

        impl Baseline for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn run(&self, chain: &ChainSpec) -> BaselineResult {
                unfused_result($label, chain, &self.params, $eff, "one kernel per op")
            }
        }
    };
}

unfused_policy!(
    /// PyTorch 2.6 with `torch.compile`: cuBLAS GEMMs, one kernel per
    /// operator, activation folded into the producer epilogue.
    PyTorchPolicy,
    "PyTorch",
    0.90
);

unfused_policy!(
    /// NVIDIA TensorRT: best-in-class kernel selection, still no
    /// GEMM-chain fusion.
    TensorRtPolicy,
    "TensorRT",
    0.95
);

unfused_policy!(
    /// TVM/Relay: compute+activation fusion only, generated GEMMs well
    /// below cuBLAS.
    RelayPolicy,
    "Relay",
    0.62
);

/// TASO: graph substitution. For gated chains it merges the two parallel
/// up-projection GEMMs into one wide GEMM (halving A reads and one
/// launch); it cannot fuse *sequential* GEMMs.
#[derive(Debug, Clone)]
pub struct TasoPolicy {
    params: MachineDescriptor,
}

impl TasoPolicy {
    /// Creates the policy.
    pub fn new(params: MachineDescriptor) -> Self {
        Self { params }
    }
}

impl Baseline for TasoPolicy {
    fn name(&self) -> &'static str {
        "TASO"
    }

    fn run(&self, chain: &ChainSpec) -> BaselineResult {
        const EFF: f64 = 0.80;
        if chain.kind().is_gated() {
            // Substituted graph: one [M,K]x[K,2N] GEMM + act/mul kernel +
            // the second GEMM. Compared to the naive 4-kernel pipeline it
            // saves one launch and one pass over A.
            let d = chain.dims();
            let wide_gemm_bytes =
                d.a_bytes_f16() + 2 * d.b_bytes_f16() + 2 * d.intermediate_bytes_f16();
            let actmul_bytes = 3 * d.intermediate_bytes_f16();
            let gemm1_bytes = d.intermediate_bytes_f16() + d.d_bytes_f16() + d.e_bytes_f16();
            let p = &self.params;
            let kernel = |flops: f64, bytes: u64| {
                (flops / (p.peak_flops() * EFF)).max(bytes as f64 / (p.hbm_bw() * EFF))
                    + p.kernel_launch_s()
            };
            let seconds = kernel(2.0 * d.gemm0_flops() as f64, wide_gemm_bytes)
                + kernel(d.intermediate_bytes_f16() as f64, actmul_bytes)
                + kernel(d.gemm1_flops() as f64, gemm1_bytes);
            BaselineResult {
                name: "TASO",
                seconds,
                global_bytes: wide_gemm_bytes + actmul_bytes + gemm1_bytes,
                fused: false,
                detail: "merged parallel branches into one wide GEMM".to_string(),
            }
        } else {
            unfused_result("TASO", chain, &self.params, EFF, "no substitution applies")
        }
    }
}

/// BOLT: CUTLASS-template fusion in registers/SMEM with the template's
/// *fixed* loop order (`M` spatial, `N` outer, `K` innermost) and a fixed
/// tile menu. No cluster support, no atomic split-N. Falls back to
/// unfused CUTLASS kernels (eff 0.85) when no template fits.
#[derive(Debug, Clone)]
pub struct BoltPolicy {
    params: MachineDescriptor,
    engine: SearchEngine,
}

impl BoltPolicy {
    /// Creates the policy.
    pub fn new(params: MachineDescriptor) -> Self {
        let engine = SearchEngine::new(params.clone());
        Self { params, engine }
    }
}

impl Baseline for BoltPolicy {
    fn name(&self) -> &'static str {
        "BOLT"
    }

    fn run(&self, chain: &ChainSpec) -> BaselineResult {
        // BOLT's template library fixes the block execution order; its
        // manual tuning explores tiles but nothing else (§III). Model:
        // SMEM-bounded search restricted to a single schedule by
        // profiling with top_k = 1 (no cost-model reranking of orders).
        let config = SearchConfig {
            top_k: 1,
            prune: PruneConfig {
                max_cluster: 1,
                lowest_spill: MemLevel::Smem,
                allow_inter_cluster_reduce: false,
            },
            ..SearchConfig::default()
        };
        let mut profiler = SimProfiler::with_analyzer(
            flashfuser_core::DataflowAnalyzer::new(self.params.clone())
                .with_lowest_spill(MemLevel::Smem)
                .with_inter_cluster_reduce(false),
        );
        let fallback = unfused_time(chain, &self.params, 0.85);
        match self
            .engine
            .search_with_profiler(chain, &config, &mut profiler)
        {
            Ok(result) => {
                let m = result.best().measured.unwrap();
                // A fused template only ships if it beats the unfused
                // CUTLASS pair; otherwise BOLT abandons fusion (§VI-B
                // "when the problem sizes become large, BOLT abandons
                // fusion").
                if m.seconds < fallback.seconds {
                    BaselineResult {
                        name: "BOLT",
                        seconds: m.seconds,
                        global_bytes: m.global_bytes,
                        fused: true,
                        detail: result.best().analysis.plan().summary(),
                    }
                } else {
                    BaselineResult {
                        name: "BOLT",
                        seconds: fallback.seconds,
                        global_bytes: fallback.global_bytes,
                        fused: false,
                        detail: "fused template slower than unfused pair".to_string(),
                    }
                }
            }
            Err(_) => BaselineResult {
                name: "BOLT",
                seconds: fallback.seconds,
                global_bytes: fallback.global_bytes,
                fused: false,
                detail: "no feasible template".to_string(),
            },
        }
    }
}

/// Shared implementation of the SMEM-only analytical fusers (Chimera,
/// MCFuser, Mirage): fusion is feasible only while the whole
/// intermediate fits in one SM's shared memory (the paper's Fig. 5
/// criterion); above that the system falls back to unfused kernels.
fn smem_fuser(
    name: &'static str,
    chain: &ChainSpec,
    params: &MachineDescriptor,
    engine: &SearchEngine,
    fused_scale: f64,
    fallback_eff: f64,
) -> BaselineResult {
    let intermediate = chain.dims().intermediate_bytes_f16();
    let budget = params.smem_bytes_per_sm();
    if intermediate <= budget {
        let config = SearchConfig::smem_only();
        let mut profiler = SimProfiler::with_analyzer(
            flashfuser_core::DataflowAnalyzer::new(params.clone())
                .with_lowest_spill(MemLevel::Smem)
                .with_inter_cluster_reduce(false),
        );
        if let Ok(result) = engine.search_with_profiler(chain, &config, &mut profiler) {
            let m = result.best().measured.unwrap();
            return BaselineResult {
                name,
                seconds: m.seconds * fused_scale,
                global_bytes: m.global_bytes,
                fused: true,
                detail: result.best().analysis.plan().summary(),
            };
        }
    }
    let fallback = unfused_time(chain, params, fallback_eff);
    BaselineResult {
        name,
        seconds: fallback.seconds,
        global_bytes: fallback.global_bytes,
        fused: false,
        detail: format!(
            "fusion failed: intermediate {} KB > {} KB SMEM",
            intermediate / 1024,
            budget / 1024
        ),
    }
}

macro_rules! smem_fuser_policy {
    ($(#[$doc:meta])* $name:ident, $label:literal, $fused_scale:literal, $fallback:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            params: MachineDescriptor,
            engine: SearchEngine,
        }

        impl $name {
            /// Creates the policy.
            pub fn new(params: MachineDescriptor) -> Self {
                let engine = SearchEngine::new(params.clone());
                Self { params, engine }
            }
        }

        impl Baseline for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn run(&self, chain: &ChainSpec) -> BaselineResult {
                smem_fuser($label, chain, &self.params, &self.engine, $fused_scale, $fallback)
            }
        }
    };
}

smem_fuser_policy!(
    /// Chimera (HPCA'23): analytical SMEM fusion with block reordering;
    /// fails outright above the SMEM capacity (Fig. 5) and falls back to
    /// TVM-class unfused kernels.
    ChimeraPolicy,
    "Chimera",
    1.0,
    0.80
);

smem_fuser_policy!(
    /// MCFuser (SC'24): as Chimera with faster tuning and a CUTLASS-class
    /// unfused fallback.
    McFuserPolicy,
    "MCFuser",
    1.0,
    0.85
);

smem_fuser_policy!(
    /// Mirage: a superoptimizer over SMEM-level fused kernels — slightly
    /// better generated code than the analytical fusers (x0.95) and a
    /// near-cuBLAS fallback.
    MiragePolicy,
    "Mirage",
    0.95,
    0.92
);

/// PipeThreader: no kernel fusion, but dependent kernels are pipelined
/// at tile granularity so the second GEMM starts while the first drains
/// — modelled as hiding 25 % of the serialised unfused time. Traffic is
/// unchanged (the intermediate still round-trips).
#[derive(Debug, Clone)]
pub struct PipeThreaderPolicy {
    params: MachineDescriptor,
}

impl PipeThreaderPolicy {
    /// Creates the policy.
    pub fn new(params: MachineDescriptor) -> Self {
        Self { params }
    }
}

impl Baseline for PipeThreaderPolicy {
    fn name(&self) -> &'static str {
        "PipeThreader"
    }

    fn run(&self, chain: &ChainSpec) -> BaselineResult {
        let report = unfused_time(chain, &self.params, 0.90);
        BaselineResult {
            name: "PipeThreader",
            seconds: report.seconds * 0.75,
            global_bytes: report.global_bytes,
            fused: false,
            detail: "inter-kernel pipelining, intermediate still round-trips".to_string(),
        }
    }
}

/// FlashFuser itself: the full DSM-aware search of `flashfuser-core`
/// profiled on the simulator (Algorithm 2 end to end).
#[derive(Debug, Clone)]
pub struct FlashFuserPolicy {
    params: MachineDescriptor,
    engine: SearchEngine,
    config: SearchConfig,
}

impl FlashFuserPolicy {
    /// Creates the policy with the paper's `K = 11`. The cluster limit
    /// (and hence DSM availability) follows the target device: 16 on
    /// H100, 1 on the A100 preset.
    pub fn new(params: MachineDescriptor) -> Self {
        let engine = SearchEngine::new(params.clone());
        let mut config = SearchConfig::default();
        config.prune.max_cluster = params.max_cluster();
        if params.max_cluster() <= 1 {
            // Pre-Hopper: no DSM pool to spill into.
            config.prune.lowest_spill = MemLevel::Smem;
        }
        Self {
            params,
            engine,
            config,
        }
    }
}

impl Baseline for FlashFuserPolicy {
    fn name(&self) -> &'static str {
        "FlashFuser"
    }

    fn run(&self, chain: &ChainSpec) -> BaselineResult {
        let mut profiler = SimProfiler::new(self.params.clone());
        // The runtime keeps the unfused path as a per-M-bin fallback
        // (§IV-C3 binning); a fused kernel only ships when it wins.
        let fallback = unfused_time(chain, &self.params, 0.90);
        match self
            .engine
            .search_with_profiler(chain, &self.config, &mut profiler)
        {
            Ok(result) => {
                let m = result.best().measured.unwrap();
                if m.seconds < fallback.seconds {
                    return BaselineResult {
                        name: "FlashFuser",
                        seconds: m.seconds,
                        global_bytes: m.global_bytes,
                        fused: true,
                        detail: result.best().analysis.plan().summary(),
                    };
                }
                BaselineResult {
                    name: "FlashFuser",
                    seconds: fallback.seconds,
                    global_bytes: fallback.global_bytes,
                    fused: false,
                    detail: "fused plan slower than unfused".to_string(),
                }
            }
            Err(_) => BaselineResult {
                name: "FlashFuser",
                seconds: fallback.seconds,
                global_bytes: fallback.global_bytes,
                fused: false,
                detail: "no feasible fused plan".to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    fn params() -> MachineDescriptor {
        MachineDescriptor::h100_sxm()
    }

    /// OPT-1.3B (G8): the large-intermediate regime.
    fn big_chain() -> ChainSpec {
        ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu)
    }

    /// DLRM-0 (G1): the small regime where SMEM fusion works.
    fn small_chain() -> ChainSpec {
        ChainSpec::standard_ffn(128, 512, 32, 256, Activation::Relu)
    }

    #[test]
    fn flashfuser_beats_every_baseline_on_big_chains() {
        let p = params();
        let ff = FlashFuserPolicy::new(p.clone()).run(&big_chain());
        assert!(ff.fused);
        for baseline in crate::baselines::suite(&p) {
            if baseline.name() == "FlashFuser" {
                continue;
            }
            let r = baseline.run(&big_chain());
            assert!(
                ff.seconds < r.seconds,
                "FlashFuser {:.2}us should beat {} {:.2}us",
                ff.seconds * 1e6,
                r.name,
                r.seconds * 1e6
            );
        }
    }

    #[test]
    fn chimera_fuses_small_fails_big() {
        let p = params();
        let chimera = ChimeraPolicy::new(p);
        let small = chimera.run(&small_chain());
        assert!(small.fused, "{small:?}");
        let big = chimera.run(&big_chain());
        assert!(!big.fused, "{big:?}");
        assert!(big.detail.contains("fusion failed"));
    }

    #[test]
    fn tensorrt_fastest_unfused_library() {
        let p = params();
        let trt = TensorRtPolicy::new(p.clone()).run(&big_chain());
        let torch = PyTorchPolicy::new(p.clone()).run(&big_chain());
        let relay = RelayPolicy::new(p).run(&big_chain());
        assert!(trt.seconds < torch.seconds);
        assert!(torch.seconds < relay.seconds);
        assert_eq!(trt.global_bytes, torch.global_bytes);
    }

    #[test]
    fn taso_substitution_helps_gated_only() {
        let p = params();
        let taso = TasoPolicy::new(p.clone());
        let gated = ChainSpec::gated_ffn(128, 8192, 2048, 2048, Activation::Silu);
        let merged = taso.run(&gated);
        assert!(merged.detail.contains("merged"));
        // The wide-GEMM substitution reads A once instead of twice.
        let naive = unfused_time(&gated, &p, 0.80);
        assert!(merged.seconds < naive.seconds);
        assert!(merged.global_bytes < naive.global_bytes);
        // Standard chains: no substitution applies.
        let std = taso.run(&big_chain());
        assert!(std.detail.contains("no substitution"));
    }

    #[test]
    fn bolt_abandons_fusion_when_unprofitable() {
        let p = params();
        let bolt = BoltPolicy::new(p);
        // M=128 chains leave BOLT's templates (no clusters, no atomic
        // split-N) with at most M/16 = 8 blocks — fusion cannot fill the
        // GPU and BOLT ships the unfused pair (§VI-B: "when the problem
        // sizes become large, BOLT abandons fusion").
        let big = bolt.run(&big_chain());
        assert!(!big.fused, "{big:?}");
        // Conv chains have M = H*W = 3136: plenty of grid-spatial
        // parallelism, so the fused template wins.
        let conv = flashfuser_graph::ConvChainSpec::new(64, 56, 56, 256, 64, 1, 1).to_chain();
        let small = bolt.run(&conv);
        assert!(small.fused, "{small:?}");
    }

    #[test]
    fn pipethreader_faster_than_torch_same_traffic() {
        let p = params();
        let pt = PipeThreaderPolicy::new(p.clone()).run(&big_chain());
        let torch = PyTorchPolicy::new(p).run(&big_chain());
        assert!(pt.seconds < torch.seconds);
        assert_eq!(pt.global_bytes, torch.global_bytes);
        assert!(!pt.fused);
    }

    #[test]
    fn flashfuser_reduces_traffic_vs_pytorch() {
        // The Fig. 11 claim: PyTorch moves ~2.4x more global data.
        let p = params();
        let ff = FlashFuserPolicy::new(p.clone()).run(&big_chain());
        let torch = PyTorchPolicy::new(p).run(&big_chain());
        let ratio = torch.global_bytes as f64 / ff.global_bytes as f64;
        assert!(ratio > 1.3, "traffic ratio {ratio}");
    }

    #[test]
    fn suite_has_eight_systems() {
        let systems = crate::baselines::suite(&params());
        assert_eq!(systems.len(), 8);
        let names: Vec<_> = systems.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"FlashFuser"));
        assert!(names.contains(&"Chimera"));
    }
}

//! Baseline systems, re-implemented as rows over the simulator.
//!
//! The paper compares FlashFuser against libraries (PyTorch/cuBLAS,
//! TensorRT), compilers (Relay, TASO, BOLT, Chimera, MCFuser), research
//! systems (Mirage, PipeThreader) and the SGLang serving stack, and
//! ablates its own components (Fig. 15). None of those run here; each
//! is modelled by its *documented capability envelope* on the same
//! machine model:
//!
//! | system | capability envelope |
//! |---|---|
//! | PyTorch | one kernel per op, cuBLAS-class GEMMs (eff 0.90) |
//! | TensorRT | one kernel per op, best-in-class selection (eff 0.95) |
//! | Relay | one kernel per op, generated GEMMs (eff 0.62) |
//! | TASO | graph substitution (merges gated branches), no GEMM-chain fusion (eff 0.80) |
//! | BOLT | reg/SMEM fusion, fixed CUTLASS loop order + tile menu |
//! | Chimera | SMEM-only analytical fusion; *fails* when the intermediate exceeds 227 KB (Fig. 5) |
//! | MCFuser | as Chimera with a better unfused fallback |
//! | Mirage | SMEM-fusion superoptimizer, strong fallback |
//! | PipeThreader | no fusion, but overlaps dependent kernels |
//! | FlashFuser | the full DSM search of `flashfuser-core` |
//! | DA | Fig. 15: analyzer-guided fusion without DSM (SMEM or global spill) |
//! | DC+DA | Fig. 15: DSM and analyzer, a random configuration instead of the search |
//!
//! Every system prices its unfused path at its own kernel efficiency
//! and ships a fused kernel when [`System`]'s one fusion row gives it
//! one. The efficiency constants are calibrated once against the
//! relative baseline gaps the paper reports (§VI-B) and recorded in
//! DESIGN.md; everything structural (who can fuse what, where
//! intermediates live, when fusion fails) is derived, not fitted.

use flashfuser::default_config_for;
use flashfuser_core::{MachineDescriptor, MemLevel, SearchConfig, SearchEngine, SearchResult};
use flashfuser_graph::ChainSpec;
use flashfuser_sim::{kernel_seconds, unfused_time, SimProfiler};

/// The outcome of running one system on one chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineResult {
    /// System name.
    pub name: &'static str,
    /// End-to-end seconds for the chain.
    pub seconds: f64,
    /// Global-memory bytes moved.
    pub global_bytes: u64,
    /// Whether the system fused the whole chain into one kernel.
    pub fused: bool,
}

/// One compared system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// PyTorch 2.6 with `torch.compile`: cuBLAS GEMMs, one kernel per
    /// operator, activation folded into the producer epilogue.
    PyTorch,
    /// NVIDIA TensorRT: best-in-class kernel selection, still no
    /// GEMM-chain fusion.
    TensorRt,
    /// TVM/Relay: compute+activation fusion only, generated GEMMs well
    /// below cuBLAS.
    Relay,
    /// TASO: graph substitution. For gated chains it merges the two
    /// parallel up-projection GEMMs into one wide GEMM (halving A reads
    /// and one launch); it cannot fuse *sequential* GEMMs.
    Taso,
    /// BOLT: CUTLASS-template fusion in registers/SMEM with the
    /// template's *fixed* loop order and tile menu, no clusters, no
    /// atomic split-N. Ships the unfused CUTLASS pair when the fused
    /// template does not beat it (§VI-B "when the problem sizes become
    /// large, BOLT abandons fusion").
    Bolt,
    /// Chimera (HPCA'23): analytical SMEM fusion with block reordering;
    /// fails outright above the SMEM capacity (Fig. 5) and falls back to
    /// TVM-class unfused kernels.
    Chimera,
    /// MCFuser (SC'24): as Chimera with faster tuning and a
    /// CUTLASS-class unfused fallback.
    McFuser,
    /// Mirage: a superoptimizer over SMEM-level fused kernels — slightly
    /// better generated code than the analytical fusers (x0.95) and a
    /// near-cuBLAS fallback.
    Mirage,
    /// PipeThreader: no kernel fusion, but dependent kernels are
    /// pipelined at tile granularity so the second GEMM starts while the
    /// first drains — modelled as hiding 25 % of the serialised unfused
    /// time. Traffic is unchanged (the intermediate still round-trips).
    PipeThreader,
    /// FlashFuser itself: the full DSM-aware search of `flashfuser-core`
    /// with the target's default configuration, profiled on the
    /// simulator (Algorithm 2 end to end). The runtime keeps the unfused
    /// path as a per-M-bin fallback (§IV-C3), so a fused kernel only
    /// ships when it wins.
    FlashFuser,
    /// The Fig. 15 `DA` bar: analyzer-guided fusion constrained to one
    /// SM — the strip may spill to global memory (costed), but no DSM
    /// pool and no Hopper-only atomic reduce exist.
    Da,
    /// The Fig. 15 `DC+DA` bar: DSM primitives and the analyzer, but a
    /// random feasible configuration instead of the search engine. A
    /// random pick is modelled as the slowest of the cost model's top-K,
    /// moving the median-ranked plan's traffic.
    DcDa,
}

/// The Fig. 10 comparison suite, in the paper's plotting order.
pub const SUITE: [System; 8] = [
    System::Bolt,
    System::FlashFuser,
    System::Relay,
    System::Taso,
    System::TensorRt,
    System::PyTorch,
    System::Chimera,
    System::McFuser,
];

impl System {
    /// Display name (figure legend).
    pub fn name(self) -> &'static str {
        match self {
            System::PyTorch => "PyTorch",
            System::TensorRt => "TensorRT",
            System::Relay => "Relay",
            System::Taso => "TASO",
            System::Bolt => "BOLT",
            System::Chimera => "Chimera",
            System::McFuser => "MCFuser",
            System::Mirage => "Mirage",
            System::PipeThreader => "PipeThreader",
            System::FlashFuser => "FlashFuser",
            System::Da => "DA",
            System::DcDa => "DC+DA",
        }
    }

    /// Achieved fraction of peak of the system's unfused kernels.
    fn unfused_efficiency(self) -> f64 {
        match self {
            System::TensorRt => 0.95,
            System::Mirage => 0.92,
            System::Bolt | System::McFuser => 0.85,
            System::Taso | System::Chimera => 0.80,
            System::Relay => 0.62,
            System::PyTorch | System::PipeThreader => 0.90,
            System::FlashFuser | System::Da | System::DcDa => 0.90,
        }
    }

    /// Runs `chain` on `params` under this system's capability envelope:
    /// the fused kernel when [`System`]'s fusion row yields one, else the
    /// unfused kernels.
    pub fn run(self, chain: &ChainSpec, params: &MachineDescriptor) -> BaselineResult {
        let unfused = unfused_time(chain, params, self.unfused_efficiency());
        let (seconds, global_bytes, fused) = match self.fused(chain, params, unfused.seconds) {
            Some((seconds, bytes)) => (seconds, bytes, true),
            None if self == System::Taso && chain.kind().is_gated() => {
                let (seconds, bytes) = taso_substituted(chain, params);
                (seconds, bytes, false)
            }
            None if self == System::PipeThreader => {
                (unfused.seconds * 0.75, unfused.global_bytes, false)
            }
            None => (unfused.seconds, unfused.global_bytes, false),
        };
        BaselineResult {
            name: self.name(),
            seconds,
            global_bytes,
            fused,
        }
    }

    /// The fused kernel's `(seconds, global bytes)`, or `None` when the
    /// system cannot fuse `chain` or the kernel does not ship. Each
    /// fusing system is one `(config, scale, must_win)` row: the search
    /// it runs, the factor on the profiled time, and whether the kernel
    /// must beat `unfused_seconds` to ship.
    fn fused(
        self,
        chain: &ChainSpec,
        params: &MachineDescriptor,
        unfused_seconds: f64,
    ) -> Option<(f64, u64)> {
        let smem = SearchConfig::smem_only();
        // Fig. 5: an SMEM-only fuser needs the whole intermediate in one SM.
        let fits_one_sm = chain.dims().intermediate_bytes_f16() <= params.smem_bytes_per_sm();
        let (config, scale, must_win) = match self {
            // One schedule: no cost-model reranking of loop orders.
            System::Bolt => (SearchConfig { top_k: 1, ..smem }, 1.0, true),
            System::Chimera | System::McFuser if fits_one_sm => (smem, 1.0, false),
            System::Mirage if fits_one_sm => (smem, 0.95, false),
            System::FlashFuser => (default_config_for(params), 1.0, true),
            System::Da => {
                let mut da = smem;
                da.prune.lowest_spill = MemLevel::Global;
                (da, 1.0, true)
            }
            System::DcDa => {
                let result = searched(chain, params, &default_config_for(params))?;
                let top_k = result.top_k();
                let measured = top_k.iter().filter_map(|p| p.measured);
                let worst = measured.map(|m| m.seconds).fold(0.0, f64::max);
                let median = &top_k[top_k.len() / 2].analysis;
                return Some((worst, median.volume(MemLevel::Global)));
            }
            // The unfused-only systems, and the SMEM fusers past Fig. 5's cliff.
            System::PyTorch | System::TensorRt | System::Relay | System::Taso => return None,
            System::PipeThreader | System::Chimera | System::McFuser | System::Mirage => {
                return None
            }
        };
        let best = searched(chain, params, &config)?.best().measured?;
        let seconds = best.seconds * scale;
        (!must_win || seconds < unfused_seconds).then_some((seconds, best.global_bytes))
    }
}

/// Searches `chain` under `config` and profiles the top-K on the
/// simulator; `None` when no fused plan is feasible.
pub(crate) fn searched(
    chain: &ChainSpec,
    params: &MachineDescriptor,
    config: &SearchConfig,
) -> Option<SearchResult> {
    let engine = SearchEngine::new(params.clone());
    let mut profiler = SimProfiler::new(params.clone());
    engine
        .search_with_profiler(chain, config, &mut profiler)
        .ok()
}

/// TASO's substituted gated graph: one `[M,K]x[K,2N]` GEMM, an act/mul
/// kernel and the second GEMM — one launch and one pass over A fewer
/// than the naive four kernels. Returns `(seconds, global bytes)`.
fn taso_substituted(chain: &ChainSpec, params: &MachineDescriptor) -> (f64, u64) {
    let d = chain.dims();
    let inter = d.intermediate_bytes_f16();
    let kernels = [
        (
            2 * d.gemm0_flops(),
            d.a_bytes_f16() + 2 * d.b_bytes_f16() + 2 * inter,
        ),
        (inter, 3 * inter),
        (d.gemm1_flops(), inter + d.d_bytes_f16() + d.e_bytes_f16()),
    ];
    let eff = System::Taso.unfused_efficiency();
    let seconds = kernels
        .iter()
        .map(|&(flops, bytes)| kernel_seconds(flops, bytes, params, eff))
        .sum();
    (seconds, kernels.iter().map(|&(_, bytes)| bytes).sum())
}

#[cfg(test)]
mod policies {
    //! Each compared system's capability envelope.
    mod tests {
        use crate::baselines::*;
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
            let ff = System::FlashFuser.run(&big_chain(), &p);
            assert!(ff.fused);
            for system in SUITE {
                if system == System::FlashFuser {
                    continue;
                }
                let r = system.run(&big_chain(), &p);
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
            let small = System::Chimera.run(&small_chain(), &p);
            assert!(small.fused, "{small:?}");
            let big = System::Chimera.run(&big_chain(), &p);
            assert!(!big.fused, "{big:?}");
            // Failed fusion ships the TVM-class unfused kernels.
            assert_eq!(big.seconds, unfused_time(&big_chain(), &p, 0.80).seconds);
        }

        #[test]
        fn tensorrt_fastest_unfused_library() {
            let p = params();
            let trt = System::TensorRt.run(&big_chain(), &p);
            let torch = System::PyTorch.run(&big_chain(), &p);
            let relay = System::Relay.run(&big_chain(), &p);
            assert!(trt.seconds < torch.seconds);
            assert!(torch.seconds < relay.seconds);
            assert_eq!(trt.global_bytes, torch.global_bytes);
        }

        #[test]
        fn taso_substitution_helps_gated_only() {
            let p = params();
            let gated = ChainSpec::gated_ffn(128, 8192, 2048, 2048, Activation::Silu);
            let merged = System::Taso.run(&gated, &p);
            assert!(!merged.fused);
            // The wide-GEMM substitution reads A once instead of twice.
            let naive = unfused_time(&gated, &p, 0.80);
            assert!(merged.seconds < naive.seconds);
            assert!(merged.global_bytes < naive.global_bytes);
            // Standard chains: no substitution applies.
            let std = System::Taso.run(&big_chain(), &p);
            assert_eq!(std.seconds, unfused_time(&big_chain(), &p, 0.80).seconds);
        }

        #[test]
        fn bolt_abandons_fusion_when_unprofitable() {
            let p = params();
            // M=128 chains leave BOLT's templates (no clusters, no atomic
            // split-N) with at most M/16 = 8 blocks — fusion cannot fill the
            // GPU and BOLT ships the unfused pair (§VI-B: "when the problem
            // sizes become large, BOLT abandons fusion").
            let big = System::Bolt.run(&big_chain(), &p);
            assert!(!big.fused, "{big:?}");
            // Conv chains have M = H*W = 3136: plenty of grid-spatial
            // parallelism, so the fused template wins.
            let conv = flashfuser_graph::ConvChainSpec::new(64, 56, 56, 256, 64, 1, 1).to_chain();
            let small = System::Bolt.run(&conv, &p);
            assert!(small.fused, "{small:?}");
        }

        #[test]
        fn pipethreader_faster_than_torch_same_traffic() {
            let p = params();
            let pt = System::PipeThreader.run(&big_chain(), &p);
            let torch = System::PyTorch.run(&big_chain(), &p);
            assert!(pt.seconds < torch.seconds);
            assert_eq!(pt.global_bytes, torch.global_bytes);
            assert!(!pt.fused);
        }

        #[test]
        fn flashfuser_reduces_traffic_vs_pytorch() {
            // The Fig. 11 claim: PyTorch moves ~2.4x more global data.
            let p = params();
            let ff = System::FlashFuser.run(&big_chain(), &p);
            let torch = System::PyTorch.run(&big_chain(), &p);
            let ratio = torch.global_bytes as f64 / ff.global_bytes as f64;
            assert!(ratio > 1.3, "traffic ratio {ratio}");
        }
    }
}

#[cfg(test)]
mod ablation {
    //! The Fig. 15 bars.
    mod tests {
        use crate::baselines::*;
        use flashfuser_tensor::Activation;

        #[test]
        fn ablation_ordering_matches_fig15() {
            // Adding components never hurts (each variant keeps the unfused
            // fallback) and the full system is strictly fastest — the Fig. 15
            // averages over all 18 workloads are the `fig15` ledger rows; on
            // one large chain the DA step may tie the baseline
            // (its only parallelism source, grid-spatial M, cannot fill the
            // GPU at M=128).
            let p = MachineDescriptor::h100_sxm();
            let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
            let bars = [
                System::PyTorch,
                System::Da,
                System::DcDa,
                System::FlashFuser,
            ];
            let times = bars.map(|s| s.run(&chain, &p).seconds);
            assert!(
                times[0] >= times[1] && times[1] >= times[2] && times[2] >= times[3],
                "expected non-increasing times, got {times:?}"
            );
            let speedup_all = times[0] / times[3];
            assert!(
                speedup_all > 1.5,
                "full system speedup {speedup_all} too small"
            );
            // DC (DSM) must contribute on this chain: with clusters the
            // random-config variant already beats the best DSM-less variant.
            assert!(times[2] < times[1]);
        }
    }
}

//! The Fig. 15 ablation: isolating `dsm_comm` (DC), the dataflow
//! analyzer (DA) and the search engine (SE).
//!
//! * `NoFusion` — the unfused baseline (1x reference).
//! * `Da` — analyzer-guided fusion *without DSM*: intermediates may only
//!   use SMEM or spill to global memory (the paper's "using only
//!   SMEM/global memory for fusion"); paper: 1.52x.
//! * `DcDa` — DSM primitives + analyzer but a *random* feasible
//!   configuration instead of the search engine ("using a random
//!   configuration"); paper: 2.11x.
//! * `All` — the full system; paper: 3.29x.

use super::policies::BaselineResult;
use flashfuser_core::{
    DataflowAnalyzer, MachineDescriptor, MemLevel, PruneConfig, SearchConfig, SearchEngine,
};
use flashfuser_graph::ChainSpec;
use flashfuser_sim::{unfused_time, SimProfiler, TimingModel};

/// Which ablation variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// Unfused reference.
    NoFusion,
    /// Dataflow analyzer only (SMEM/global spill, no clusters).
    Da,
    /// DSM + analyzer, random configuration (no search engine).
    DcDa,
    /// The full system.
    All,
}

impl AblationVariant {
    /// All variants in the figure's order.
    pub const ALL: [AblationVariant; 4] = [
        AblationVariant::NoFusion,
        AblationVariant::Da,
        AblationVariant::DcDa,
        AblationVariant::All,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            AblationVariant::NoFusion => "No Fusion",
            AblationVariant::Da => "DA",
            AblationVariant::DcDa => "DC+DA",
            AblationVariant::All => "All",
        }
    }
}

/// Runs one ablation variant on one chain.
pub fn run_ablation(
    variant: AblationVariant,
    chain: &ChainSpec,
    params: &MachineDescriptor,
) -> BaselineResult {
    let engine = SearchEngine::new(params.clone());
    match variant {
        AblationVariant::NoFusion => {
            let r = unfused_time(chain, params, 0.90);
            BaselineResult {
                name: variant.label(),
                seconds: r.seconds,
                global_bytes: r.global_bytes,
                fused: false,
                detail: "unfused reference".to_string(),
            }
        }
        AblationVariant::Da => {
            // Analyzer-guided fusion constrained to one SM: the strip may
            // spill to global memory (costed), but no DSM pool exists and
            // no Hopper-only atomic reduce path either.
            let config = SearchConfig {
                top_k: 11,
                prune: PruneConfig {
                    max_cluster: 1,
                    lowest_spill: MemLevel::Global,
                    allow_inter_cluster_reduce: false,
                },
                ..SearchConfig::default()
            };
            let analyzer = DataflowAnalyzer::new(params.clone())
                .with_lowest_spill(MemLevel::Global)
                .with_inter_cluster_reduce(false);
            let mut profiler = SimProfiler::with_analyzer(analyzer);
            run_search(variant, chain, params, &engine, &config, &mut profiler)
        }
        AblationVariant::DcDa => {
            // DSM available, but no cost-model search: take a "random"
            // (first feasible under a deterministic mid-space probe)
            // configuration. Modelled by ranking with top_k = 1 over a
            // restricted enumeration seeded mid-space: we approximate by
            // profiling the *median* of the top-K list instead of the
            // best.
            let config = SearchConfig::default();
            let mut profiler = SimProfiler::new(params.clone());
            match engine.search(chain, &config) {
                Ok(result) => {
                    let timer = TimingModel::new(params.clone());
                    // Median-ranked candidate stands in for a random pick.
                    let mid = result.top_k().len() / 2;
                    let plan = result.top_k()[mid].analysis.plan().clone();
                    let m = profiler.measure(&plan);
                    // A random pick across the whole feasible space is
                    // worse than the median of the cost-model's top-K;
                    // derate by the observed top-K spread.
                    let worst = result
                        .top_k()
                        .iter()
                        .map(|p| timer.time_analysis(&p.analysis).seconds)
                        .fold(0.0, f64::max);
                    let seconds = m.seconds.max(worst);
                    BaselineResult {
                        name: variant.label(),
                        seconds,
                        global_bytes: m.global_bytes,
                        fused: true,
                        detail: format!("random configuration: {}", plan.summary()),
                    }
                }
                Err(_) => {
                    let r = unfused_time(chain, params, 0.90);
                    BaselineResult {
                        name: variant.label(),
                        seconds: r.seconds,
                        global_bytes: r.global_bytes,
                        fused: false,
                        detail: "no feasible plan".to_string(),
                    }
                }
            }
        }
        AblationVariant::All => {
            let config = SearchConfig::default();
            let mut profiler = SimProfiler::new(params.clone());
            run_search(variant, chain, params, &engine, &config, &mut profiler)
        }
    }
}

fn run_search(
    variant: AblationVariant,
    chain: &ChainSpec,
    params: &MachineDescriptor,
    engine: &SearchEngine,
    config: &SearchConfig,
    profiler: &mut SimProfiler,
) -> BaselineResult {
    // Every variant keeps the unfused path as a fallback and ships
    // whichever is faster — fusing at a loss would be a compiler bug.
    let fallback = unfused_time(chain, params, 0.90);
    match engine.search_with_profiler(chain, config, profiler) {
        Ok(result) => {
            let m = result.best().measured.unwrap();
            if m.seconds < fallback.seconds {
                BaselineResult {
                    name: variant.label(),
                    seconds: m.seconds,
                    global_bytes: m.global_bytes,
                    fused: true,
                    detail: result.best().analysis.plan().summary(),
                }
            } else {
                BaselineResult {
                    name: variant.label(),
                    seconds: fallback.seconds,
                    global_bytes: fallback.global_bytes,
                    fused: false,
                    detail: "fused plan slower than unfused".to_string(),
                }
            }
        }
        Err(_) => BaselineResult {
            name: variant.label(),
            seconds: fallback.seconds,
            global_bytes: fallback.global_bytes,
            fused: false,
            detail: "no feasible plan".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    #[test]
    fn ablation_ordering_matches_fig15() {
        // Adding components never hurts (each variant keeps the unfused
        // fallback) and the full system is strictly fastest — the Fig. 15
        // averages over all 18 workloads are the `fig15` ledger rows; on
        // one large chain the DA step may tie the baseline
        // (its only parallelism source, grid-spatial M, cannot fill the
        // GPU at M=128).
        let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let p = MachineDescriptor::h100_sxm();
        let times: Vec<f64> = AblationVariant::ALL
            .iter()
            .map(|&v| run_ablation(v, &chain, &p).seconds)
            .collect();
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

    #[test]
    fn labels_are_stable() {
        assert_eq!(AblationVariant::DcDa.label(), "DC+DA");
        assert_eq!(AblationVariant::ALL.len(), 4);
    }
}

//! The simulator's stopwatch: a plan's "measured" seconds.
//!
//! A measurement refines the cost model instead of re-deriving it: it is
//! [`CostModel::evaluate`] — which owns wave quantisation, occupancy,
//! the per-tier bandwidths and the amortized DSM-hop/barrier latency
//! chain — plus exactly three terms the model leaves out (§IV-C1,
//! Fig. 12):
//!
//! * **overlap leak** — every pipeline stage but the bottleneck leaks
//!   `1 - OVERLAP_EFFICIENCY` of its time. The stages are compute and
//!   each tier below the register file (the register feed is not one).
//! * **fixed latency** — two off-chip round trips (fill and drain) and
//!   one kernel launch.
//! * **perturbation** — a deterministic ±`PERTURBATION` factor keyed by
//!   the plan's `Display` bytes, standing in for clock jitter, L2 set
//!   conflicts and the other reasons two "equivalent" kernels never
//!   time identically.
//!
//! Because of those terms the cost-model rank-1 plan is *usually but not
//! always* the measured-fastest — exactly the behaviour that makes
//! top-K on-device profiling worthwhile (Fig. 12b).

use flashfuser_core::{
    CostModel, DataflowAnalysis, DataflowAnalyzer, FusedPlan, MachineDescriptor, MemLevel,
    PlanProfiler, ProfileOutcome,
};
use std::fmt::{self, Write};

/// Fraction of a non-bottleneck stage's time that pipelining hides.
const OVERLAP_EFFICIENCY: f64 = 0.92;

/// Amplitude of the deterministic per-plan perturbation.
const PERTURBATION: f64 = 0.03;

/// Times an analyzed plan: [`CostModel::evaluate`] plus the overlap
/// leak and the fixed latency, times the plan's perturbation.
pub fn time_analysis(model: &CostModel, analysis: &DataflowAnalysis) -> ProfileOutcome {
    ProfileOutcome {
        seconds: unperturbed_seconds(model, analysis) * perturbation(analysis.plan()),
        global_bytes: analysis.volume(MemLevel::Global),
        dsm_bytes: analysis.volume(MemLevel::Dsm),
    }
}

/// The measured seconds before the perturbation: the bottleneck stage,
/// the overlap leak, the model's latency chain and the fixed latency.
fn unperturbed_seconds(model: &CostModel, analysis: &DataflowAnalysis) -> f64 {
    let cost = model.evaluate(analysis);
    let tier = |level: MemLevel| cost.tier_s[level.index()];
    let stages = [
        cost.compute_s,
        tier(MemLevel::Smem),
        tier(MemLevel::Dsm),
        tier(MemLevel::L2),
        tier(MemLevel::Global),
    ];
    let bottleneck = stages.into_iter().fold(0.0, f64::max);
    let leak = (1.0 - OVERLAP_EFFICIENCY) * (stages.into_iter().sum::<f64>() - bottleneck);
    let p = model.params();
    let latency_s =
        cost.latency_s + 2.0 * p.global_latency_cycles() * p.cycle_s() + p.kernel_launch_s();
    bottleneck + leak + latency_s
}

/// FNV-1a over whatever is written into it, so a plan's `Display` bytes
/// hash without ever becoming a `String`.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Deterministic ±[`PERTURBATION`] factor keyed by `key`'s `Display`
/// bytes.
fn perturbation(key: impl fmt::Display) -> f64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{key}").expect("hashing never fails");
    let unit = (h.0 >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + PERTURBATION * (2.0 * unit - 1.0)
}

/// The [`PlanProfiler`] the search engine hands its top-K finalists to:
/// re-runs the dataflow analysis (the back-end's view of the plan) and
/// times it with [`time_analysis`].
#[derive(Debug, Clone)]
pub struct SimProfiler {
    analyzer: DataflowAnalyzer,
    model: CostModel,
    /// Number of plans profiled (Table VIII accounting).
    pub profiled: u64,
}

impl SimProfiler {
    /// Creates a profiler that re-times any plan a search produced,
    /// whatever spill floor and reduce flag that search ran with: it
    /// re-analyzes with the floor at global memory and the inter-cluster
    /// reduce allowed. Neither changes how an admitted plan places or
    /// times (DESIGN.md, "One profiler for every search"), so the
    /// measurement is the search's own analysis, timed.
    pub fn new(params: MachineDescriptor) -> Self {
        Self {
            analyzer: DataflowAnalyzer::new(params.clone()).with_lowest_spill(MemLevel::Global),
            model: CostModel::new(params),
            profiled: 0,
        }
    }
}

impl PlanProfiler for SimProfiler {
    fn profile(&mut self, plan: &FusedPlan) -> ProfileOutcome {
        self.profiled += 1;
        let analysis = self
            .analyzer
            .analyze(&plan.chain, &plan.schedule, plan.cluster, plan.tile)
            .expect("profiled plan must re-analyze (it was produced by the analyzer)");
        time_analysis(&self.model, &analysis)
    }

    /// The simulator's measurements are a pure (deterministic) function
    /// of the plan, so the search engine may profile candidates from
    /// worker threads, each with its own clone.
    fn fork(&self) -> Option<Box<dyn PlanProfiler + Send>> {
        Some(Box::new(SimProfiler {
            profiled: 0,
            ..self.clone()
        }))
    }

    /// Folds a worker's call count back into [`SimProfiler::profiled`],
    /// keeping Table VIII accounting exact under parallel profiling.
    fn join(&mut self, profiled: u64) {
        self.profiled += profiled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_core::comm::ClusterShape;
    use flashfuser_core::{BlockTile, LoopSchedule, SearchConfig, SearchEngine};
    use flashfuser_graph::{ChainSpec, Dim};
    use flashfuser_tensor::Activation;

    fn analysis_for(chain: &ChainSpec, cluster: ClusterShape, tile: BlockTile) -> DataflowAnalysis {
        let s = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(chain, &s, cluster, tile)
            .unwrap()
    }

    fn h100_model() -> CostModel {
        CostModel::new(MachineDescriptor::h100_sxm())
    }

    #[test]
    fn measurement_exceeds_cost_model_estimate() {
        // The leak and the fixed latency only add to the estimate, so
        // (perturbation aside) measured >= estimated.
        let chain = ChainSpec::standard_ffn(128, 2048, 512, 512, Activation::Relu);
        let a = analysis_for(
            &chain,
            ClusterShape::new(1, 2, 2, 2).unwrap(),
            BlockTile::new(64, 64, 32, 64),
        );
        let model = h100_model();
        let measured = unperturbed_seconds(&model, &a);
        let est = model.evaluate(&a).est_s;
        assert!(measured >= est, "measured {measured} < est {est}");
    }

    #[test]
    fn timing_is_deterministic() {
        let chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu);
        let a = analysis_for(
            &chain,
            ClusterShape::new(1, 2, 1, 2).unwrap(),
            BlockTile::new(64, 64, 32, 64),
        );
        let model = h100_model();
        assert_eq!(time_analysis(&model, &a), time_analysis(&model, &a));
    }

    #[test]
    fn perturbation_bounded_and_plan_dependent() {
        let a = perturbation("plan-a");
        let b = perturbation("plan-b");
        assert!((0.97..=1.03).contains(&a));
        assert!((0.97..=1.03).contains(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn more_parallelism_is_faster_until_saturation() {
        // Same chain with 1 cluster-block vs 16 should time faster with
        // 16 (better SM utilisation at this size).
        let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let model = h100_model();
        let small = analysis_for(
            &chain,
            ClusterShape::single_block(),
            BlockTile::new(16, 64, 64, 64),
        );
        let large = analysis_for(
            &chain,
            ClusterShape::new(1, 8, 2, 16).unwrap(),
            BlockTile::new(128, 128, 64, 128),
        );
        let (small, large) = (
            unperturbed_seconds(&model, &small),
            unperturbed_seconds(&model, &large),
        );
        assert!(large < small, "large {large} vs small {small}");
    }

    #[test]
    fn sim_profiler_feeds_search_engine() {
        let chain = ChainSpec::standard_ffn(128, 2048, 512, 512, Activation::Relu);
        let params = MachineDescriptor::h100_sxm();
        let engine = SearchEngine::new(params.clone());
        let mut profiler = SimProfiler::new(params);
        let result = engine
            .search_with_profiler(&chain, &SearchConfig::default(), &mut profiler)
            .unwrap();
        assert_eq!(profiler.profiled, result.top_k().len() as u64);
        assert!(result.best().measured.unwrap().seconds > 0.0);
    }
}

//! The analytical timing model — the simulator's stopwatch.
//!
//! Converts a plan's dataflow analysis into "measured" seconds. On top
//! of the cost model's bandwidth terms (Eq. 1) it adds the second-order
//! effects real silicon shows and the paper's cost model deliberately
//! ignores (§IV-C1, Fig. 12):
//!
//! * **wave quantisation** — `ceil(blocks / SMs)` waves; a partially
//!   filled last wave leaves SMs idle,
//! * **bandwidth underutilisation** — fewer resident blocks than SMs
//!   cannot saturate HBM,
//! * **imperfect overlap** — non-bottleneck stages leak a fraction of
//!   their time past the pipeline,
//! * **latency chains** — serialised DSM hops and `mbarrier` phases,
//! * **a deterministic per-plan perturbation** (±3 %, keyed by the plan
//!   summary) standing in for clock jitter, L2 set conflicts and all the
//!   other reasons two "equivalent" kernels never time identically.
//!
//! Because of those terms the cost-model rank-1 plan is *usually but not
//! always* the measured-fastest — exactly the behaviour that makes
//! top-K on-device profiling worthwhile (Fig. 12b).

use flashfuser_core::{
    DataflowAnalysis, DataflowAnalyzer, FusedPlan, MachineDescriptor, MemLevel, PlanProfiler,
    ProfileOutcome,
};
use std::fmt;

/// A timed kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMeasurement {
    /// Total "measured" seconds.
    pub seconds: f64,
    /// Pure tensor-core time (wave-adjusted).
    pub compute_s: f64,
    /// The bottleneck stage time before latency terms.
    pub pipeline_s: f64,
    /// Serialised latency (DSM hops + barriers + fill/drain + launch).
    pub latency_s: f64,
    /// Wave count.
    pub waves: u64,
    /// Global bytes moved.
    pub global_bytes: u64,
    /// DSM bytes moved.
    pub dsm_bytes: u64,
}

impl fmt::Display for KernelMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} us (pipeline {:.3} us + latency {:.3} us, {} waves)",
            self.seconds * 1e6,
            self.pipeline_s * 1e6,
            self.latency_s * 1e6,
            self.waves
        )
    }
}

/// The timing model.
#[derive(Debug, Clone)]
pub struct TimingModel {
    params: MachineDescriptor,
    /// Fraction of non-bottleneck stage time hidden by pipelining.
    overlap_efficiency: f64,
    /// Amplitude of the deterministic per-plan perturbation.
    noise_amplitude: f64,
}

impl TimingModel {
    /// Creates the model with default second-order parameters
    /// (92 % overlap, ±3 % perturbation).
    pub fn new(params: MachineDescriptor) -> Self {
        Self {
            params,
            overlap_efficiency: 0.92,
            noise_amplitude: 0.03,
        }
    }

    /// Overrides the perturbation amplitude (0 disables it; useful in
    /// tests that need exact reproducibility of the pipeline terms).
    pub fn with_noise(mut self, amplitude: f64) -> Self {
        self.noise_amplitude = amplitude;
        self
    }

    /// Times an analyzed fused plan.
    pub fn time_analysis(&self, analysis: &DataflowAnalysis) -> KernelMeasurement {
        let plan = analysis.plan();
        let p = &self.params;
        let cluster_size = plan.cluster.blocks();
        let blocks = plan.blocks_total();
        let sms = p.num_sms() as u64;
        let waves = blocks.div_ceil(sms).max(1);
        // Idle SMs in the last wave stretch compute time.
        let wave_eff = blocks as f64 / (waves * sms) as f64;
        // Fewer resident blocks than SMs cannot saturate the memory
        // system either.
        let bw_util = (blocks as f64 / sms as f64).clamp(0.05, 1.0);

        let compute_s = plan.chain.total_flops() as f64 / p.peak_flops() / wave_eff;
        let mut stage_times = vec![compute_s];
        for level in [
            MemLevel::Smem,
            MemLevel::Dsm,
            MemLevel::L2,
            MemLevel::Global,
        ] {
            let v = analysis.volume(level);
            if v > 0 {
                stage_times.push(v as f64 / (p.bandwidth(level, cluster_size) * bw_util));
            }
        }
        let bottleneck = stage_times.iter().copied().fold(0.0, f64::max);
        let others: f64 = stage_times.iter().sum::<f64>() - bottleneck;
        let pipeline_s = bottleneck + (1.0 - self.overlap_efficiency) * others;

        let cycle = p.cycle_s();
        // Double-buffered rings hide most hop latency; only the
        // amortized fraction (shared constant with the cost model)
        // reaches the critical path, plus pipeline fill/drain and launch.
        let latency_s = flashfuser_core::cost::LATENCY_AMORTIZATION
            * (analysis.dsm_steps() as f64 * p.dsm_latency_cycles(cluster_size)
                + analysis.barriers() as f64 * p.barrier_cycles())
            * cycle
            + 2.0 * p.global_latency_cycles() * cycle
            + p.kernel_launch_s();

        let noise = self.perturbation(&plan.summary());
        let seconds = (pipeline_s + latency_s) * noise;
        KernelMeasurement {
            seconds,
            compute_s,
            pipeline_s,
            latency_s,
            waves,
            global_bytes: analysis.volume(MemLevel::Global),
            dsm_bytes: analysis.volume(MemLevel::Dsm),
        }
    }

    /// Deterministic ±`noise_amplitude` factor keyed by the plan summary.
    fn perturbation(&self, key: &str) -> f64 {
        if self.noise_amplitude == 0.0 {
            return 1.0;
        }
        // FNV-1a, mapped to [-1, 1).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.noise_amplitude * (2.0 * unit - 1.0)
    }
}

/// The [`PlanProfiler`] the search engine hands its top-K finalists to:
/// re-runs the dataflow analysis (the back-end's view of the plan) and
/// times it with the [`TimingModel`].
#[derive(Debug, Clone)]
pub struct SimProfiler {
    analyzer: DataflowAnalyzer,
    timer: TimingModel,
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
            timer: TimingModel::new(params),
            profiled: 0,
        }
    }

    /// Times `plan`, returning the full measurement.
    pub fn measure(&mut self, plan: &FusedPlan) -> KernelMeasurement {
        self.profiled += 1;
        let analysis = self
            .analyzer
            .analyze(&plan.chain, &plan.schedule, plan.cluster, plan.tile)
            .expect("profiled plan must re-analyze (it was produced by the analyzer)");
        self.timer.time_analysis(&analysis)
    }
}

impl PlanProfiler for SimProfiler {
    fn profile(&mut self, plan: &FusedPlan) -> ProfileOutcome {
        let m = self.measure(plan);
        ProfileOutcome {
            seconds: m.seconds,
            global_bytes: m.global_bytes,
            dsm_bytes: m.dsm_bytes,
        }
    }

    /// The simulator's measurements are a pure (deterministic) function
    /// of the plan, so the search engine may profile candidates from
    /// worker threads, each with its own clone.
    fn fork(&self) -> Option<Box<dyn PlanProfiler + Send>> {
        Some(Box::new(SimProfiler {
            analyzer: self.analyzer.clone(),
            timer: self.timer.clone(),
            profiled: 0,
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

    #[test]
    fn measurement_exceeds_cost_model_estimate() {
        // The timing model adds latency and overlap terms on top of the
        // pure bandwidth bound, so (noise-free) measured >= estimated.
        let chain = ChainSpec::standard_ffn(128, 2048, 512, 512, Activation::Relu);
        let a = analysis_for(
            &chain,
            ClusterShape::new(1, 2, 2, 2).unwrap(),
            BlockTile::new(64, 64, 32, 64),
        );
        let params = MachineDescriptor::h100_sxm();
        let measured = TimingModel::new(params.clone())
            .with_noise(0.0)
            .time_analysis(&a);
        let est = flashfuser_core::CostModel::new(params).evaluate(&a).est_s;
        assert!(
            measured.seconds >= est,
            "measured {} < est {}",
            measured.seconds,
            est
        );
    }

    #[test]
    fn timing_is_deterministic() {
        let chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu);
        let a = analysis_for(
            &chain,
            ClusterShape::new(1, 2, 1, 2).unwrap(),
            BlockTile::new(64, 64, 32, 64),
        );
        let t = TimingModel::new(MachineDescriptor::h100_sxm());
        assert_eq!(t.time_analysis(&a).seconds, t.time_analysis(&a).seconds);
    }

    #[test]
    fn perturbation_bounded_and_plan_dependent() {
        let t = TimingModel::new(MachineDescriptor::h100_sxm());
        let a = t.perturbation("plan-a");
        let b = t.perturbation("plan-b");
        assert!((0.97..=1.03).contains(&a));
        assert!((0.97..=1.03).contains(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn more_parallelism_is_faster_until_saturation() {
        // Same chain with 1 cluster-block vs 16 should time faster with
        // 16 (better SM utilisation at this size).
        let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let t = TimingModel::new(MachineDescriptor::h100_sxm()).with_noise(0.0);
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
        assert!(
            t.time_analysis(&large).seconds < t.time_analysis(&small).seconds,
            "large {} vs small {}",
            t.time_analysis(&large).seconds,
            t.time_analysis(&small).seconds
        );
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

    #[test]
    fn display_formats() {
        let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
        let a = analysis_for(
            &chain,
            ClusterShape::single_block(),
            BlockTile::new(16, 16, 16, 16),
        );
        let m = TimingModel::new(MachineDescriptor::h100_sxm()).time_analysis(&a);
        assert!(m.to_string().contains("us"));
    }
}

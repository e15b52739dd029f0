//! Property-based tests: every feasible plan the analyzer accepts must
//! execute to the reference result, across randomly drawn geometries.
//!
//! Sampling uses the workspace's own deterministic [`SplitMix64`] stream
//! instead of an external property-testing crate, so the suite builds
//! offline; every case is reproducible bit-for-bit.

use flashfuser::core::comm::ClusterShape;
use flashfuser::core::{BlockTile, DataflowAnalyzer, LoopSchedule, MachineDescriptor};
use flashfuser::graph::{ChainSpec, Dim};
use flashfuser::sim::{execute_fused, TrafficCounters};
use flashfuser::tensor::rng::SplitMix64;
use flashfuser::tensor::Activation;

fn dim_size(rng: &mut SplitMix64) -> usize {
    // Multiples of 16 up to 128 keep the functional runs fast.
    (1 + rng.next_index(8)) * 16
}

fn schedules() -> Vec<LoopSchedule> {
    vec![
        LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]),
        LoopSchedule::new(vec![Dim::M], vec![Dim::L, Dim::N, Dim::K]),
        LoopSchedule::new(vec![Dim::M, Dim::N], vec![Dim::L, Dim::K]),
        LoopSchedule::new(vec![Dim::M, Dim::K], vec![Dim::N, Dim::L]),
    ]
}

fn clusters() -> Vec<ClusterShape> {
    vec![
        ClusterShape::single_block(),
        ClusterShape::new(1, 2, 1, 2).unwrap(),
        ClusterShape::new(1, 2, 2, 2).unwrap(),
        ClusterShape::new(1, 4, 2, 4).unwrap(),
        ClusterShape::new(2, 2, 2, 4).unwrap(),
        ClusterShape::new(1, 4, 2, 8).unwrap(),
    ]
}

#[test]
fn feasible_plans_compute_the_reference() {
    let schedules = schedules();
    let clusters = clusters();
    let mut rng = SplitMix64::new(0xE2E);
    let mut executed = 0u32;
    for _ in 0..48 {
        let m = dim_size(&mut rng);
        let n = dim_size(&mut rng);
        let k = dim_size(&mut rng);
        let l = dim_size(&mut rng);
        let gated = rng.next_u64().is_multiple_of(2);
        let schedule = rng.pick(&schedules).clone();
        let cluster = *rng.pick(&clusters);
        let seed = rng.next_u64() % 1000;
        let chain = if gated {
            ChainSpec::gated_ffn(m, n, k, l, Activation::Silu)
        } else {
            ChainSpec::standard_ffn(m, n, k, l, Activation::Relu)
        };
        let tile = BlockTile::new(16, 16, 16, 16);
        let analyzer = DataflowAnalyzer::new(MachineDescriptor::h100_sxm());
        // Infeasible combinations are fine — the property only covers
        // plans the analyzer accepts.
        let Ok(analysis) = analyzer.analyze(&chain, &schedule, cluster, tile) else {
            continue;
        };
        executed += 1;
        let inputs = chain.make_inputs(seed);
        let expected = chain.reference_output(&inputs).unwrap();
        let mut counters = TrafficCounters::new();
        let got = execute_fused(analysis.plan(), &inputs, &mut counters).unwrap();
        assert!(
            expected.approx_eq(&got, 1e-2).unwrap(),
            "{} diverged by {}",
            analysis.plan().summary(),
            expected.max_abs_diff(&got).unwrap()
        );
        // Traffic invariants: the executor agrees with the analyzer.
        assert_eq!(
            counters.dsm_bytes(),
            analysis.volume(flashfuser::core::MemLevel::Dsm)
        );
        assert_eq!(
            counters.global_bytes(),
            analysis.volume(flashfuser::core::MemLevel::L2)
        );
    }
    assert!(
        executed >= 8,
        "only {executed} feasible samples — sampler drifted"
    );
}

#[test]
fn cost_is_positive_and_bounded_by_physics() {
    let mut rng = SplitMix64::new(0xC057);
    for _ in 0..24 {
        let n = dim_size(&mut rng);
        let k = dim_size(&mut rng);
        let chain = ChainSpec::standard_ffn(64, n, k, k, Activation::Relu);
        let params = MachineDescriptor::h100_sxm();
        if let Ok(compiled) = flashfuser::compile(&chain, &params) {
            // No plan can beat the speed of light: pure compute time.
            let light = chain.total_flops() as f64 / params.peak_flops();
            assert!(compiled.measured_seconds >= light * 0.5);
            assert!(compiled.measured_seconds.is_finite());
        }
    }
}

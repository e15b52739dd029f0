//! The profiler times any plan a search produced exactly as the search
//! analysed it, whatever spill floor and reduce flag that search ran
//! with.

use flashfuser_core::{MachineDescriptor, MemLevel, SearchConfig, SearchEngine};
use flashfuser_graph::ChainSpec;
use flashfuser_sim::{SimProfiler, TimingModel};
use flashfuser_tensor::Activation;

#[test]
fn profiler_times_every_finalist_as_the_search_analysed_it() {
    let p = MachineDescriptor::h100_sxm();
    let mut da = SearchConfig::smem_only();
    da.prune.lowest_spill = MemLevel::Global;
    let configs = [SearchConfig::default(), SearchConfig::smem_only(), da];
    let chains = [
        ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu),
        ChainSpec::gated_ffn(128, 11008, 4096, 4096, Activation::Silu),
        ChainSpec::standard_ffn(128, 512, 32, 256, Activation::Relu),
    ];
    let (engine, timer) = (SearchEngine::new(p.clone()), TimingModel::new(p.clone()));
    let mut below_dsm = 0;
    for config in &configs {
        for chain in &chains {
            let result = engine.search(chain, config).expect("a fused plan");
            for ranked in result.top_k() {
                let plan = ranked.analysis.plan();
                let measured = SimProfiler::new(p.clone()).measure(plan);
                let expected = timer.time_analysis(&ranked.analysis);
                assert_eq!(measured, expected, "{chain}: {}", plan.summary());
                below_dsm += usize::from(plan.deepest_reused_level() > Some(MemLevel::Dsm));
            }
        }
    }
    assert!(below_dsm > 0, "no finalist spills below DSM");
}

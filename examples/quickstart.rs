//! Quickstart: compile and execute one fused gated-FFN chain.
//!
//! Run with `cargo run --release --example quickstart`.

use flashfuser::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Llama-2-7B gated FFN subgraph (Table VI, S3).
    let chain = ChainSpec::gated_ffn(128, 11008, 4096, 4096, Activation::Silu).named("S3");
    println!("workload: {chain}");
    println!(
        "intermediate: {} KB (SMEM limit: 227 KB)",
        chain.dims().intermediate_bytes_f16() / 1024
    );

    // Search for the best fused plan (Algorithm 2) and profile the
    // top-K finalists on the machine model.
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    let mut profiler = SimProfiler::new(params.clone());
    let result = engine.search_with_profiler(&chain, &SearchConfig::default(), &mut profiler)?;
    let best = result.best();
    println!("best plan:  {}", best.analysis.plan());
    println!("estimated:  {:.2} us", best.est_seconds * 1e6);
    println!("measured:   {:.2} us", best.measured.unwrap().seconds * 1e6);

    // Compare against the unfused execution.
    let unfused = unfused_time(&chain, &params, flashfuser::UNFUSED_EFFICIENCY);
    println!(
        "unfused:    {:.2} us  -> speedup {:.2}x",
        unfused.seconds * 1e6,
        unfused.seconds / best.measured.unwrap().seconds
    );

    // Functional check on a scaled-down instance of the same shape
    // family: the fused interpreter must reproduce the reference.
    let small = ChainSpec::gated_ffn(32, 128, 64, 64, Activation::Silu);
    let small_plan = engine
        .search(&small, &SearchConfig::default())?
        .best()
        .analysis
        .plan()
        .clone();
    let inputs = small.make_inputs(42);
    let mut counters = TrafficCounters::new();
    let fused_out = execute_fused_with(
        &small_plan,
        &inputs,
        &mut counters,
        NumericConfig::default(),
    )?;
    let reference = small.reference_output(&inputs)?;
    assert!(reference.approx_eq(&fused_out, 1e-3)?);
    println!(
        "functional check: fused result matches reference (max err {:.2e})",
        reference.max_abs_diff(&fused_out)?
    );
    println!("traffic: {counters}");
    Ok(())
}

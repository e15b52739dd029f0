//! Fuse a ResNet conv->ReLU->conv block: im2col lowering, fusion and a
//! full functional validation against the direct convolution.
//!
//! Run with `cargo run --release --example conv_chain`.

use flashfuser::graph::ConvChainSpec;
use flashfuser::prelude::*;
use flashfuser::tensor::rng::seeded_matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down C5-style block (3x3 then 1x1) so the functional
    // validation runs in milliseconds (IC=16 keeps K = IC*9 = 144 a
    // multiple of one MMA granule); the Table V geometry is used for the
    // timing comparison below.
    let block = ConvChainSpec::new(16, 8, 8, 16, 32, 3, 1);
    let chain = block.to_chain();
    println!("conv block lowered to GEMM chain: {chain}");

    // Functional validation: fused GEMM-chain execution == direct convs.
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    let plan = engine
        .search(&chain, &SearchConfig::default())?
        .best()
        .analysis
        .plan()
        .clone();
    let input = seeded_matrix(block.in_channels, block.height * block.width, 7);
    let w1 = seeded_matrix(block.oc1, block.conv1().gemm_k(), 8);
    let w2 = seeded_matrix(block.oc2, block.conv2().gemm_k(), 9);
    let direct = block.reference_direct(&input, &w1, &w2)?;

    let patches = flashfuser::tensor::im2col::im2col(&input, &block.conv1())?;
    let inputs = flashfuser::graph::chain::ChainInputs {
        a: patches,
        b: w1.transpose(),
        b_gate: None,
        d: w2.transpose(),
    };
    let mut counters = TrafficCounters::new();
    let fused = execute_fused_with(&plan, &inputs, &mut counters, NumericConfig::default())?;
    assert!(direct.transpose().approx_eq(&fused, 1e-3)?);
    println!("fused conv chain matches direct convolution ✔");

    // Timing on the real Table V geometry (C5).
    let c5 = ConvChainSpec::new(64, 56, 56, 64, 256, 3, 1).to_chain();
    let mut profiler = SimProfiler::new(params.clone());
    let best = engine.search_with_profiler(&c5, &SearchConfig::default(), &mut profiler)?;
    let fused_s = best.best().measured.unwrap().seconds;
    let unfused = unfused_time(&c5, &params, flashfuser::UNFUSED_EFFICIENCY);
    println!(
        "C5: fused {:.2} us vs unfused {:.2} us ({:.2}x)",
        fused_s * 1e6,
        unfused.seconds * 1e6,
        unfused.seconds / fused_s
    );
    Ok(())
}

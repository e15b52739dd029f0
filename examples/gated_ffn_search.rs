//! Walk the search space of a gated FFN: pruning cascade, top-K ranking
//! and the winning dataflow.
//!
//! Run with `cargo run --release --example gated_ffn_search`.

use flashfuser::core::prune::{count_cascade, PruneConfig};
use flashfuser::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chain = ChainSpec::gated_ffn(128, 8192, 2048, 2048, Activation::Silu).named("S4");
    let params = MachineDescriptor::h100_sxm();

    println!("== pruning cascade for {chain} ==");
    let stats = count_cascade(&chain, &params, &PruneConfig::default());
    println!("{stats}\n");

    println!("== top-K candidates ==");
    let engine = SearchEngine::new(params.clone());
    let mut profiler = SimProfiler::new(params.clone());
    let result = engine.search_with_profiler(&chain, &SearchConfig::default(), &mut profiler)?;
    for (i, ranked) in result.top_k().iter().enumerate() {
        let marker = if i == result.best_index() { "*" } else { " " };
        println!(
            "{marker} rank {i}: est {:>8.2} us, measured {:>8.2} us  {}",
            ranked.est_seconds * 1e6,
            ranked.measured.unwrap().seconds * 1e6,
            ranked.analysis.plan()
        );
    }
    println!(
        "\nsearch stats: {} geometry-eligible candidates, {} skipped on the bound \
         ({} of {} groups cut on their floor, {} planes visited, {} dropped whole), \
         {:.2} s analysis",
        result.stats().considered,
        result.stats().prefiltered,
        result.stats().groups_skipped,
        result.stats().groups,
        result.stats().planes,
        result.stats().planes_skipped,
        result.stats().analysis_seconds
    );
    Ok(())
}

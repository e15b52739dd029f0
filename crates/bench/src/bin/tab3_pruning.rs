//! Table III: the pruning cascade for GPT-6.7B
//! (M=256, N=16384, K=L=4096).

use flashfuser_bench::h100;
use flashfuser_core::prune::{count_cascade, PruneConfig};
use flashfuser_graph::ChainSpec;
use flashfuser_tensor::Activation;

fn main() {
    let chain = ChainSpec::standard_ffn(256, 16384, 4096, 4096, Activation::Relu);
    let stats = count_cascade(&chain, &h100(), &PruneConfig::default());
    println!("== Table III: pruning cascade (GPT-6.7B, M=256) ==");
    println!("{stats}");
    println!("\npaper reference: 2.75e13 -> 1.14e8 -> 2.47e7 -> 1.44e7 -> 9.62e6 -> 1.15e6");
    println!("(Geometry is this reproduction's row: the Rule-4 survivors whose tiles and");
    println!("cluster fit the problem - closed form, and all the search engine scans.)");
    println!("traditional (no clusters) pruned space ~1e4; ours remains ~1e6 (\u{a7}III).");
}

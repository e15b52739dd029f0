//! Whole-graph compilation: lower a small transformer into an operator
//! DAG, partition it into fusible chains + unfused remainders, and
//! stitch the per-segment plans into an end-to-end figure.
//!
//! Run with `cargo run --release --example graph_compile`.

use flashfuser::prelude::*;
use flashfuser::workloads::ModelSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A LLaMA-style toy decoder: gated FFN, two layers of one shape.
    let model = ModelSpec {
        name: "toy-llama",
        layers: 2,
        hidden: 256,
        ffn_hidden: 1024,
        gated: true,
    };
    let graph = model.graph(128, 2);
    println!(
        "graph: {} node(s), {} matmul(s), longest matmul chain {}",
        graph.len(),
        graph.matmul_count(),
        graph.matmul_chain_len()
    );

    // The matcher recovers two chains per layer: the attention window
    // (`scores -> softmax -> context`, whose operands are computed
    // projections) and the gated FFN.
    for (i, m) in match_chains(&graph)?.iter().enumerate() {
        println!("  fusible chain {}: {}", i + 1, m.chain);
    }

    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let plan = compiler.compile_graph(&graph)?;
    println!("segments:");
    for (i, segment) in plan.segments.iter().enumerate() {
        match segment {
            CompiledSegment::Fused(f) => println!(
                "  {}. fused   {:>8.2} us  {} ({})",
                i + 1,
                f.stitched_seconds() * 1e6,
                f.compiled.plan,
                if f.searched { "searched" } else { "reused" },
            ),
            CompiledSegment::Unfused(u) => println!(
                "  {}. unfused {:>8.2} us  {} kernel(s)",
                i + 1,
                u.seconds * 1e6,
                u.nodes.len(),
            ),
        }
    }
    println!(
        "stitched {:.2} us vs {:.2} us all-unfused -> {:.2}x, {} search(es), cache: {}",
        plan.seconds * 1e6,
        plan.unfused_seconds * 1e6,
        plan.speedup(),
        compiler.searches_run(),
        compiler.cache_stats()
    );
    assert_eq!(
        plan.fused_segments().count(),
        4,
        "two fused chains per layer"
    );
    assert_eq!(
        compiler.searches_run(),
        2,
        "layer 2 must reuse layer 1's plans for both chains"
    );
    Ok(())
}

//! End-to-end transformer inference with and without FlashFuser: one
//! decoder layer of every zoo model compiled by `Compiler::compile_graph`.
//!
//! Run with `cargo run --release -p flashfuser-bench --example e2e_inference`.

use flashfuser::core::MachineDescriptor;
use flashfuser::workloads::model_zoo;
use flashfuser::Compiler;
use flashfuser_bench::e2e::LayerSpeedup;
use flashfuser_bench::ffn_share::ffn_time_share;

fn main() {
    let params = MachineDescriptor::h100_sxm();
    let compiler = Compiler::new(params.clone());
    println!(
        "{:<12}{:>12}{:>14}{:>12}",
        "model", "FFN share", "FFN speedup", "E2E"
    );
    for model in model_zoo() {
        let share = ffn_time_share(&model, 512, &params);
        let plan = compiler.compile_graph(&model.graph(128, 1));
        let r = LayerSpeedup::of(&plan.expect("a decoder layer compiles"));
        assert!(r.layer >= 1.0 && r.layer <= r.ffn, "{}: {r:?}", model.name);
        println!(
            "{:<12}{:>11.1}%{:>14.2}{:>12.3}",
            model.name,
            100.0 * share,
            r.ffn,
            r.layer
        );
    }
    println!("\nThe FFN kernel speedup, diluted by the rest of the layer");
    println!("(the baseline keeps a fused attention kernel; paper: 1.24x avg).");
}

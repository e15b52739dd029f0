//! End-to-end transformer inference with and without FlashFuser.
//!
//! Run with `cargo run --release -p flashfuser-bench --example e2e_inference`.

use flashfuser::core::MachineDescriptor;
use flashfuser::workloads::model_zoo;
use flashfuser_bench::e2e::e2e_speedup;
use flashfuser_bench::ffn_share::ffn_time_share;

fn main() {
    let params = MachineDescriptor::h100_sxm();
    println!(
        "{:<12}{:>12}{:>14}{:>12}",
        "model", "FFN share", "FFN speedup", "E2E"
    );
    for model in model_zoo() {
        let share = ffn_time_share(&model, 512, &params);
        let r = e2e_speedup(&model, 128, &params);
        println!(
            "{:<12}{:>11.1}%{:>14.2}{:>12.3}",
            model.name,
            100.0 * share,
            r.ffn_speedup,
            r.speedup
        );
    }
    println!("\nAmdahl in action: the E2E speedup is the FFN kernel speedup");
    println!("diluted by the non-FFN fraction of each layer (paper: 1.24x avg).");
}

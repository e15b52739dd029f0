//! Every `GraphPlan` the whole-graph compiler stitches, pinned bit for
//! bit.
//!
//! Two populations, each folded into one `StableHasher` digest:
//!
//! * the six whole-model bodies the `serve_graph` benchmark posts
//!   (BERT×12, GPT-2×12, OPT-1.3B×24, LLaMA-1B×22, GPT-6.7B×32,
//!   qwen2_5-14B×48, all at M = 128) on the default H100;
//! * every zoo model's one-layer graph (Table I's and Fig. 16's large
//!   models) at M ∈ {128, 512, 2048} on H100, A100 and
//!   `machines/tensix_like.json`.
//!
//! Per plan the digest folds the stitched `seconds` and
//! `unfused_seconds` bits and `global_bytes`; per segment its nodes,
//! and for a fused segment `fell_back`, the measured-seconds bits and
//! the plan's `Display`, for an unfused one its seconds bits and bytes.
//! A change to how a graph is lowered, partitioned, looked up or
//! stitched must leave both digests alone; a deliberate modelling
//! change updates them from the values the failing assert prints.

use flashfuser::prelude::*;
use flashfuser::workloads::{find_model, large_model_zoo, model_zoo};
use flashfuser::{CompiledSegment, GraphPlan};
use flashfuser_graph::StableHasher;

fn fold_plan(h: &mut StableHasher, plan: &GraphPlan) {
    h.write_u64(plan.seconds.to_bits());
    h.write_u64(plan.unfused_seconds.to_bits());
    h.write_u64(plan.global_bytes);
    h.write_usize(plan.segments.len());
    for segment in &plan.segments {
        h.write_usize(segment.nodes().len());
        for &id in segment.nodes() {
            h.write_usize(id);
        }
        match segment {
            CompiledSegment::Fused(f) => {
                h.write_u8(1);
                h.write_u8(u8::from(f.fell_back));
                h.write_u64(f.compiled.measured_seconds.to_bits());
                h.write_str(&f.compiled.plan.to_string());
            }
            CompiledSegment::Unfused(u) => {
                h.write_u8(0);
                h.write_u64(u.seconds.to_bits());
                h.write_u64(u.bytes);
            }
        }
    }
}

fn digest(plan: &GraphPlan) -> u64 {
    let mut h = StableHasher::new();
    fold_plan(&mut h, plan);
    h.finish()
}

/// The `serve_graph` bodies, compiled twice on one compiler: the warm
/// plan must fold to the cold one's digest (only `searched` differs).
fn serve_graph_digest() -> u64 {
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let mut h = StableHasher::new();
    for (model, layers) in [
        ("BERT", 12),
        ("GPT-2", 12),
        ("OPT-1.3B", 24),
        ("LLaMA-1B", 22),
        ("GPT-6.7B", 32),
        ("qwen2_5-14B", 48),
    ] {
        let graph = find_model(model).expect("zoo model").graph(128, layers);
        let cold = digest(&compiler.compile_graph(&graph).expect("compiles"));
        let warm = digest(&compiler.compile_graph(&graph).expect("compiles"));
        assert_eq!(cold, warm, "{model}: warm differs from cold");
        h.write_u64(cold);
    }
    h.finish()
}

fn zoo_layer_digest() -> u64 {
    let tensix = flashfuser_core::decode_machine(include_str!("../machines/tensix_like.json"))
        .expect("committed descriptor decodes");
    let mut h = StableHasher::new();
    for machine in [
        MachineDescriptor::h100_sxm(),
        MachineDescriptor::a100_sxm(),
        tensix,
    ] {
        let compiler = Compiler::new(machine);
        for model in model_zoo().into_iter().chain(large_model_zoo()) {
            for m in [128, 512, 2048] {
                let plan = compiler
                    .compile_graph(&model.layer_graph(m))
                    .expect("zoo layers compile");
                fold_plan(&mut h, &plan);
            }
        }
    }
    h.finish()
}

#[test]
fn graph_plans_are_pinned() {
    let digests = (serve_graph_digest(), zoo_layer_digest());
    assert_eq!(
        digests,
        (0xe494_7d10_08e6_6ff1, 0x8d56_f53e_2b7e_cb5b),
        "GraphPlan digests (serve_graph bodies, zoo layers) = {digests:#018x?}"
    );
}

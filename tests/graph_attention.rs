//! The attention-fusion test wall (ISSUE 8): every zoo model's
//! `Q×K^T → softmax → A×V` window must compile to a *fused* segment
//! validated against the interpreter oracle, the new chain form must
//! round-trip the codec with its fingerprint intact, identical layers
//! must share one plan key (one search), and the matcher must recover
//! the window in every lowering the zoo and the fuzzer emit: the
//! transposed-K producer, a computed (non-weight) V, and — for the
//! neighbouring gated family — both `Mul` operand orders.

use flashfuser::prelude::*;
use flashfuser::workloads::{large_model_zoo, model_zoo};
use flashfuser::DEFAULT_TOLERANCE;
use flashfuser_core::codec::{decode_chain, encode_chain};
use flashfuser_core::json;

#[test]
fn all_eight_zoo_models_fuse_attention_per_layer_and_validate() {
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let zoo: Vec<_> = model_zoo().into_iter().chain(large_model_zoo()).collect();
    assert_eq!(zoo.len(), 8, "the acceptance bar names all eight models");
    for model in zoo {
        let small = model.scaled_to(64);
        let layers = 2;
        let graph = small.graph(16, layers);
        let v = validate_graph_with(
            &compiler,
            &graph,
            11,
            DEFAULT_TOLERANCE,
            NumericConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{}: validation errored: {e}", model.name));
        assert!(
            v.passed(),
            "{}: diverged (max err {:.2e}): {:?}",
            model.name,
            v.max_err,
            v.failures().collect::<Vec<_>>()
        );
        let attn: Vec<&FusedSegment> = v
            .plan
            .fused_segments()
            .filter(|s| s.chain.kind().is_attention())
            .collect();
        assert!(
            attn.len() >= layers,
            "{}: expected >= {layers} fused attention segments, got {}",
            model.name,
            attn.len()
        );
        for segment in &attn {
            assert!(
                !segment.fell_back,
                "{}: the attention window must take the fused path",
                model.name
            );
            // The zoo lowers scaled dot-product attention over the
            // full sequence: m = n = seq, k = l = hidden.
            assert_eq!(
                segment.chain,
                ChainSpec::attention(16, 16, small.hidden, small.hidden, true),
                "{}",
                model.name
            );
        }
    }
}

#[test]
fn attention_chain_fingerprint_round_trips_through_the_codec() {
    for scaled in [false, true] {
        let chain = ChainSpec::attention(96, 128, 64, 48, scaled);
        let text = encode_chain(&chain);
        let doc = json::parse(&text).expect("chain encoding parses");
        let decoded = decode_chain(&doc).expect("chain encoding decodes");
        assert_eq!(decoded, chain);
        assert_eq!(decoded.fingerprint(), chain.fingerprint());
        assert_eq!(
            decoded.to_op_graph().fingerprint(),
            chain.to_op_graph().fingerprint(),
            "lowered graphs must agree node for node"
        );
    }
    // Scaled-ness changes the computation, so it must split the
    // fingerprint space (the plan-cache key).
    assert_ne!(
        ChainSpec::attention(96, 128, 64, 48, true).fingerprint(),
        ChainSpec::attention(96, 128, 64, 48, false).fingerprint()
    );
}

#[test]
fn identical_layers_share_the_attention_plan_key() {
    // Two identical decoder layers: the attention window is searched
    // once and layer 2 shares that search's compiled plan.
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let model = model_zoo()[4].scaled_to(64); // GPT-2, shrunk
    let plan = compiler.compile_graph(&model.graph(16, 2)).unwrap();
    let attn: Vec<&FusedSegment> = plan
        .fused_segments()
        .filter(|s| s.chain.kind().is_attention())
        .collect();
    assert_eq!(attn.len(), 2);
    assert!(
        attn[0].searched && !attn[1].searched,
        "layer 2's attention must reuse layer 1's plan"
    );
    assert_eq!(attn[0].compiled, attn[1].compiled);
    // One search for the attention chain, one for the FFN chain —
    // nothing else.
    assert_eq!(compiler.searches_run(), 2);
    // A direct compile of the same chain on the same compiler hits the
    // populated cache (the key is content-addressed; names are
    // metadata).
    let direct = compiler
        .compile(&attn[0].chain.clone().named("direct"))
        .unwrap();
    assert_eq!(compiler.searches_run(), 2, "direct compile must hit");
    assert_eq!(direct.plan.to_string(), attn[0].compiled.plan.to_string());
    assert_eq!(
        direct.measured_seconds.to_bits(),
        attn[0].compiled.measured_seconds.to_bits()
    );
}

/// Builds `softmax(Q x K^T) x V` with an explicit `Transpose` producer
/// for K, the way the zoo lowers it.
fn transposed_k_graph(m: usize, n: usize, k: usize, l: usize, scale_k: usize) -> OpGraph {
    let mut g = OpGraph::new();
    let q = g.add_input("q", m, k);
    let key = g.add_input("key", n, k);
    let kt = g.add_node(OpKind::Transpose, vec![key], "kT");
    let v = g.add_input("v", n, l);
    let scores = g.add_node(OpKind::Matmul, vec![q, kt], "scores");
    let probs = g.add_node(OpKind::Softmax { scale_k }, vec![scores], "softmax");
    let ctx = g.add_node(OpKind::Matmul, vec![probs, v], "ctx");
    g.add_node(OpKind::Output, vec![ctx], "out");
    g
}

#[test]
fn matcher_recovers_the_transposed_k_path() {
    // The transpose stays *outside* the chain (it is a layout change on
    // a dedicated input), but the window behind it must still match.
    let g = transposed_k_graph(32, 48, 64, 64, 64);
    let matches = match_chains(&g).unwrap();
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].chain, ChainSpec::attention(32, 48, 64, 64, true));
    // And the whole graph compiles + validates end to end.
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let v = validate_graph_with(
        &compiler,
        &g,
        13,
        DEFAULT_TOLERANCE,
        NumericConfig::default(),
    )
    .unwrap();
    assert!(v.passed(), "{:?}", v.failures().collect::<Vec<_>>());
    assert!(v
        .plan
        .fused_segments()
        .any(|s| s.chain.kind().is_attention()));
}

#[test]
fn matcher_recovers_attention_with_a_computed_value_tensor() {
    // V produced by a projection GEMM, not a dedicated weight: the FFN
    // families would refuse (D must be a weight), attention must not.
    let mut g = OpGraph::new();
    let q = g.add_input("q", 32, 64);
    let kt = g.add_input("kT", 64, 48);
    let x = g.add_input("x", 48, 64);
    let wv = g.add_input("wv", 64, 24);
    let v = g.add_node(OpKind::Matmul, vec![x, wv], "v_proj");
    let scores = g.add_node(OpKind::Matmul, vec![q, kt], "scores");
    let probs = g.add_node(OpKind::Softmax { scale_k: 0 }, vec![scores], "softmax");
    let ctx = g.add_node(OpKind::Matmul, vec![probs, v], "ctx");
    g.add_node(OpKind::Output, vec![ctx], "out");
    let matches = match_chains(&g).unwrap();
    let attn: Vec<_> = matches
        .iter()
        .filter(|m| m.chain.kind().is_attention())
        .collect();
    assert_eq!(attn.len(), 1);
    assert_eq!(attn[0].chain, ChainSpec::attention(32, 48, 64, 24, false));
    // The computed V is a segment boundary input, not a chain weight.
    assert_eq!(attn[0].io.b_up, kt);
    assert_eq!(attn[0].io.d, v);
}

#[test]
fn gated_windows_still_match_under_both_mul_operand_orders() {
    // Attention and the FFN families share one walk in `match_chains`;
    // it must recover the gated family in either `Mul` operand order.
    for flip in [false, true] {
        let mut g = OpGraph::new();
        let a = g.add_input("a", 32, 64);
        let b_gate = g.add_input("b_gate", 64, 96);
        let b_up = g.add_input("b_up", 64, 96);
        let d = g.add_input("d", 96, 64);
        let gate = g.add_node(OpKind::Matmul, vec![a, b_gate], "gate");
        let act = g.add_node(OpKind::Activation(Activation::Silu), vec![gate], "act");
        let up = g.add_node(OpKind::Matmul, vec![a, b_up], "up");
        let inputs = if flip { vec![up, act] } else { vec![act, up] };
        let mul = g.add_node(
            OpKind::Elementwise(flashfuser_tensor::BinaryOp::Mul),
            inputs,
            "mul",
        );
        let e = g.add_node(OpKind::Matmul, vec![mul, d], "down");
        g.add_node(OpKind::Output, vec![e], "out");
        let matches = match_chains(&g).unwrap();
        assert_eq!(matches.len(), 1, "flip={flip}");
        assert_eq!(
            matches[0].chain,
            ChainSpec::gated_ffn(32, 96, 64, 64, Activation::Silu),
            "flip={flip}"
        );
    }
}

#[test]
fn fused_attention_moves_strictly_fewer_priced_bytes_on_both_machines() {
    // The acceptance bar: the fused plan's priced global bytes beat the
    // per-op unfused fallback (which round-trips the score matrix
    // through HBM twice and re-reads it for the softmax kernel) on the
    // H100 *and* the SRAM-rich Tensix-like descriptor.
    let tensix = flashfuser_core::decode_machine(include_str!("../machines/tensix_like.json"))
        .expect("committed descriptor decodes");
    for machine in [MachineDescriptor::h100_sxm(), tensix] {
        let compiler = Compiler::new(machine.clone());
        for scaled in [false, true] {
            let chain = ChainSpec::attention(256, 256, 64, 64, scaled);
            let compiled = compiler
                .compile(&chain)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            assert!(
                compiled.global_bytes < chain.unfused_global_bytes(),
                "{} scaled={scaled}: fused {} >= unfused {}",
                machine.name,
                compiled.global_bytes,
                chain.unfused_global_bytes()
            );
        }
    }
}

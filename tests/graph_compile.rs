//! Integration tests of whole-graph compilation (ISSUE 3): the
//! partitioner must recover the exact typed chains from round-tripped
//! operator DAGs, and a multi-layer model graph's segment plans must be
//! bit-identical to direct `ChainSpec` compiles — with each distinct
//! chain looked up once per call and its plan shared by every layer.

use flashfuser::prelude::*;
use flashfuser::workloads::{gemm_chains, ModelSpec};
use flashfuser_core::segment::{partition_graph, Segment};
use flashfuser_sim::UnfusedKernelPricer;

/// A two-layer toy model small enough to search in a test.
fn tiny_model(gated: bool) -> ModelSpec {
    ModelSpec {
        name: "tiny",
        layers: 2,
        hidden: 256,
        ffn_hidden: 1024,
        gated,
    }
}

#[test]
fn partitioner_recovers_g1_to_g5_exactly() {
    let params = MachineDescriptor::h100_sxm();
    let pricer = UnfusedKernelPricer::new(params.clone(), flashfuser::UNFUSED_EFFICIENCY);
    for workload in gemm_chains().into_iter().take(5) {
        let chain = workload.chain;
        let graph = chain.to_op_graph();
        // The matcher recovers exactly one chain, equal to the original
        // up to the workload name (metadata).
        let matches = match_chains(&graph).unwrap();
        assert_eq!(matches.len(), 1, "{}: expected one match", workload.id);
        let unnamed = chain.clone().named("");
        assert_eq!(matches[0].chain, unnamed, "{}", workload.id);
        assert_eq!(
            matches[0].chain.fingerprint(),
            chain.fingerprint(),
            "{}: fingerprints must agree (names are metadata)",
            workload.id
        );
        // The DP turns the whole graph into that single fused segment.
        let partition = partition_graph(&graph, &params, &pricer).unwrap();
        assert_eq!(partition.segments.len(), 1, "{}", workload.id);
        match &partition.segments[0] {
            Segment::Fused { chain: c, .. } => assert_eq!(*c, unnamed, "{}", workload.id),
            other => panic!("{}: expected a fused segment, got {other:?}", workload.id),
        }
    }
}

#[test]
fn two_layer_graph_segments_are_bit_identical_to_direct_compiles() {
    let model = tiny_model(false);
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let graph = model.graph(128, 2);
    let plan = compiler.compile_graph(&graph).unwrap();

    let fused: Vec<&FusedSegment> = plan.fused_segments().collect();
    assert_eq!(
        fused.len(),
        4,
        "one fused attention + one fused FFN per layer"
    );
    let ffn: Vec<&&FusedSegment> = fused
        .iter()
        .filter(|s| !s.chain.kind().is_attention())
        .collect();
    let attn: Vec<&&FusedSegment> = fused
        .iter()
        .filter(|s| s.chain.kind().is_attention())
        .collect();
    assert_eq!(ffn.len(), 2);
    assert_eq!(attn.len(), 2);
    // One lookup per distinct chain per call: the cold compile misses
    // each of the two shapes once and layer 2 shares layer 1's plans.
    let stats = compiler.cache_stats();
    assert_eq!(stats.misses, 2, "{stats}");
    assert_eq!(stats.hits(), 0, "{stats}");
    assert_eq!(compiler.searches_run(), 2, "one search per chain kind");
    // Both layers share each chain and therefore the exact plan.
    assert_eq!(ffn[0].compiled, ffn[1].compiled);
    assert!(std::sync::Arc::ptr_eq(&ffn[0].compiled, &ffn[1].compiled));
    assert!(ffn[0].searched && !ffn[1].searched);
    assert_eq!(attn[0].compiled, attn[1].compiled);
    assert!(attn[0].searched && !attn[1].searched);

    // The same graph again: one memory hit per distinct chain.
    compiler.compile_graph(&graph).unwrap();
    let stats = compiler.cache_stats();
    assert_eq!((stats.mem_hits, stats.misses), (2, 2), "{stats}");
    assert_eq!(compiler.searches_run(), 2);

    // Bit-identical to direct compiles of the same chains on a fresh
    // compiler (no cache shared with the graph compile).
    let direct_chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Gelu);
    assert_eq!(ffn[0].chain, direct_chain);
    let direct = Compiler::new(MachineDescriptor::h100_sxm())
        .compile(&direct_chain)
        .unwrap();
    assert_eq!(direct.plan, ffn[0].compiled.plan);
    assert_eq!(
        direct.measured_seconds.to_bits(),
        ffn[0].compiled.measured_seconds.to_bits()
    );
    assert_eq!(direct.global_bytes, ffn[0].compiled.global_bytes);

    let direct_attn_chain = ChainSpec::attention(128, 128, 256, 256, true);
    assert_eq!(attn[0].chain, direct_attn_chain);
    let direct_attn = Compiler::new(MachineDescriptor::h100_sxm())
        .compile(&direct_attn_chain)
        .unwrap();
    assert_eq!(direct_attn.plan, attn[0].compiled.plan);
    assert_eq!(direct_attn.global_bytes, attn[0].compiled.global_bytes);
}

#[test]
fn gated_layers_share_the_plan_key_with_direct_compiles() {
    let model = tiny_model(true);
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let plan = compiler.compile_graph(&model.graph(128, 2)).unwrap();
    assert_eq!(plan.fused_segments().count(), 4);
    assert_eq!(compiler.searches_run(), 2);
    for segment in plan.fused_segments() {
        let kind = segment.chain.kind();
        assert!(kind.is_gated() || kind.is_attention());
    }
    // A direct compile of the layer chain on the *same* compiler hits
    // the segment's cache entry (names are metadata, the key is
    // content-addressed).
    let direct = compiler.compile(&model.ffn_chain(128)).unwrap();
    assert_eq!(compiler.searches_run(), 2, "direct compile must hit");
    let gated: Vec<&FusedSegment> = plan
        .fused_segments()
        .filter(|s| s.chain.kind().is_gated())
        .collect();
    assert_eq!(direct.plan.to_string(), gated[0].compiled.plan.to_string());
    assert_eq!(
        direct.measured_seconds.to_bits(),
        gated[0].compiled.measured_seconds.to_bits()
    );
}

#[test]
fn stitched_totals_are_consistent_and_no_worse_than_unfused() {
    let model = tiny_model(false);
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let graph = model.graph(128, 2);
    let plan = compiler.compile_graph(&graph).unwrap();

    // Segments cover every compute node exactly once.
    let mut covered: Vec<usize> = plan
        .segments
        .iter()
        .flat_map(|s| s.nodes().to_vec())
        .collect();
    covered.sort_unstable();
    covered.dedup();
    let compute = (0..graph.len())
        .filter(|&id| !matches!(graph.node(id).kind, OpKind::Input(..) | OpKind::Output))
        .count();
    assert_eq!(covered.len(), compute);

    // The stitched total is the sum of its parts and beats (or ties)
    // the all-unfused baseline by construction of the fallback.
    let sum: f64 = plan.segments.iter().map(|s| s.seconds()).sum();
    assert!((plan.seconds - sum).abs() < 1e-15);
    assert!(plan.seconds <= plan.unfused_seconds + 1e-18);
    assert!(plan.speedup() >= 1.0);
    assert!(plan.global_bytes > 0);
    // This model's FFNs are DSM-profitable, so the fused path must
    // strictly win end to end.
    assert!(
        plan.speedup() > 1.01,
        "expected a real speedup, got {:.3}",
        plan.speedup()
    );
}

#[test]
fn warm_graph_segments_are_not_labelled_searched_by_another_threads_search() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // `searched` must say whether *this call* ran the search. On a
    // shared compiler another thread's cold compiles bump the search
    // counter all the time; a warm graph still hit the cache.
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let graph = flashfuser::workloads::find_model("GPT-2")
        .expect("GPT-2 is in the zoo")
        .graph(64, 2);
    let cold = compiler.compile_graph(&graph).unwrap();
    assert!(cold.fused_segments().any(|s| s.searched));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..96 {
                let novel = ChainSpec::standard_ffn(64, 64 + 16 * i, 64, 64, Activation::Relu);
                let _ = compiler.compile(&novel);
            }
            done.store(true, Ordering::SeqCst);
        });
        loop {
            let finished = done.load(Ordering::SeqCst);
            let warm = compiler.compile_graph(&graph).unwrap();
            assert_eq!(warm.fused_segments().count(), cold.fused_segments().count());
            assert!(
                warm.fused_segments().all(|s| !s.searched),
                "a cache-hit segment was labelled searched"
            );
            if finished {
                break;
            }
        }
    });
    assert!(
        compiler.searches_run() > 90,
        "the cold thread really searched"
    );
}

#[test]
fn empty_graph_is_a_partition_error() {
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let err = compiler.compile_graph(&OpGraph::new()).unwrap_err();
    assert!(matches!(err, flashfuser::GraphCompileError::Partition(_)));
    assert!(err.to_string().contains("partition"));
}

/// Content fingerprints are the plan-cache key and the file names of a
/// `--cache-dir` snapshot: a replica serving a snapshot written by an
/// older build depends on these values never moving.
#[test]
fn chain_fingerprints_are_stable_across_versions() {
    let pinned = [
        (
            ChainSpec::standard_ffn(128, 3072, 768, 768, Activation::Relu),
            0xcc64_0bae_dd69_03eb_u64,
        ),
        (
            ChainSpec::gated_ffn(128, 11008, 4096, 4096, Activation::Silu),
            0xa962_a6ec_e219_2590,
        ),
        (
            ChainSpec::attention(128, 128, 64, 64, true),
            0x0e0d_8aa6_103b_7cef,
        ),
        (
            ChainSpec::attention(128, 128, 64, 64, false),
            0xe6d1_a0fa_858b_f487,
        ),
    ];
    for (chain, fingerprint) in pinned {
        assert_eq!(chain.fingerprint(), fingerprint, "{chain}");
    }
}

/// Pins the matcher's output over a fixed corpus: 256 random graphs
/// (attention motifs on even seeds) and every zoo model at two layers.
/// Each match contributes its chain fingerprint, its fused nodes and
/// its boundary roles.
#[test]
fn matcher_output_is_pinned_over_a_fixed_corpus() {
    use flashfuser::graph::{recover_chain_io, StableHasher};
    use flashfuser::workloads::{large_model_zoo, model_zoo};
    let mut graphs: Vec<OpGraph> = (0..256u64)
        .map(|seed| {
            let p = if seed % 2 == 0 { 0.5 } else { 0.0 };
            let config = RandGraphConfig::new().with_ops(24).with_attention_prob(p);
            rand_graph(seed, &config)
        })
        .collect();
    graphs.extend(
        model_zoo()
            .into_iter()
            .chain(large_model_zoo())
            .map(|model| model.graph(128, 2)),
    );
    let mut h = StableHasher::new();
    let mut count = 0usize;
    for g in &graphs {
        for m in match_chains(g).unwrap() {
            count += 1;
            h.write_u64(m.chain.fingerprint());
            h.write_usize(m.nodes.len());
            for &n in &m.nodes {
                h.write_usize(n);
            }
            let e = *m.nodes.last().unwrap();
            let io = recover_chain_io(g, e).expect("every match closes a chain");
            h.write_usize(io.input);
            h.write_usize(io.b_up);
            h.write_usize(io.b_gate.map_or(usize::MAX, |b| b));
            h.write_usize(io.d);
            h.write_usize(io.output);
        }
    }
    assert_eq!(count, 1699);
    assert_eq!(h.finish(), 0x7c78_600f_0ef2_ca89, "matcher digest moved");
}

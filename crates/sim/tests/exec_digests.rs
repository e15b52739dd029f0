//! The fused executor's arithmetic and traffic, pinned bit for bit.
//!
//! Each digest folds the output `f32` bits and every `TrafficCounters`
//! field (via its `Display`, which prints all of them) into one
//! `StableHasher`. Two populations, each under both GEMM kernels:
//!
//! * `execute_fused_with` over hand-built plans covering both strip
//!   orders, gated chains, split-N attention softmax, the inter-cluster
//!   reduce, `cls_reduce > 1`, reduce-free and single-block clusters,
//!   tiles below the blocked kernel's cutoff, ragged micro-panels and
//!   tile K extents deeper than one 256-step chunk;
//! * `execute_graph_with` over the eight zoo models' layer graphs,
//!   scaled to hidden 64 and 32 tokens, each fused segment running the
//!   search's rank-1 plan.
//!
//! The naive-kernel digests hold on any host. The blocked kernel's FMA
//! micro-tile rounds once where the non-FMA build rounds twice, so its
//! digests are compiled only under `target_feature = "fma"`: tier-1
//! stays green on a host without FMA, and CI (GitHub runners have FMA
//! under `target-cpu=native`) checks both halves.
//!
//! A deliberate numeric change updates the constants: a mismatch prints
//! every computed digest in the assert message.

use flashfuser_core::comm::ClusterShape;
use flashfuser_core::{
    partition_graph, BlockTile, DataflowAnalyzer, FusedPlan, LoopSchedule, MachineDescriptor,
    SearchConfig, SearchEngine, Segment,
};
use flashfuser_graph::op::NodeId;
use flashfuser_graph::{ChainSpec, Dim, OpGraph, StableHasher};
use flashfuser_sim::{
    execute_fused_with, execute_graph_with, seeded_graph_inputs, ExecSegment, TrafficCounters,
    UnfusedKernelPricer,
};
use flashfuser_tensor::{Activation, KernelKind, Matrix, NumericConfig};
use flashfuser_workloads::{large_model_zoo, model_zoo};

fn fold_matrix(h: &mut StableHasher, m: &Matrix) {
    h.write_usize(m.rows());
    h.write_usize(m.cols());
    for v in m.as_slice() {
        h.write_u64(u64::from(v.to_bits()));
    }
}

fn fold_counters(h: &mut StableHasher, c: &TrafficCounters) {
    h.write_str(&c.to_string());
}

fn plan(
    chain: ChainSpec,
    spatial: &[Dim],
    temporal: &[Dim],
    cluster: (usize, usize, usize, usize),
    tile: (usize, usize, usize, usize),
) -> FusedPlan {
    let schedule = LoopSchedule::new(spatial.to_vec(), temporal.to_vec());
    let cluster = ClusterShape::new(cluster.0, cluster.1, cluster.2, cluster.3).unwrap();
    let tile = BlockTile::new(tile.0, tile.1, tile.2, tile.3);
    DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
        .analyze(&chain, &schedule, cluster, tile)
        .unwrap_or_else(|e| panic!("{chain} {cluster} {tile}: {e}"))
        .plan()
        .clone()
}

/// The fused-plan population (see the module docs for what it covers).
fn fused_population() -> Vec<FusedPlan> {
    use Dim::{K, L, M, N};
    let relu = Activation::Relu;
    vec![
        // E-strip order, cls_shuffle = 2 and cls_reduce = 2.
        plan(
            ChainSpec::standard_ffn(32, 128, 64, 128, relu),
            &[M],
            &[N, L, K],
            (1, 4, 2, 4),
            (16, 16, 16, 16),
        ),
        // C-strip order.
        plan(
            ChainSpec::standard_ffn(32, 96, 48, 64, relu),
            &[M],
            &[L, N, K],
            (1, 2, 1, 2),
            (16, 16, 16, 16),
        ),
        // Gated, sub-cutoff tiles.
        plan(
            ChainSpec::gated_ffn(16, 64, 32, 64, Activation::Silu),
            &[M],
            &[N, L, K],
            (1, 2, 2, 2),
            (16, 16, 16, 16),
        ),
        // Four K partials per exchange (two are summed the same either
        // way round), gated and not, below and above the cutoff.
        plan(
            ChainSpec::gated_ffn(16, 32, 128, 64, Activation::Silu),
            &[M],
            &[N, L, K],
            (1, 1, 4, 4),
            (16, 16, 16, 16),
        ),
        plan(
            ChainSpec::standard_ffn(64, 128, 256, 256, relu),
            &[M],
            &[L, N, K],
            (1, 2, 4, 4),
            (32, 64, 32, 64),
        ),
        // Split-N attention softmax, plain and with a K split.
        plan(
            ChainSpec::attention(32, 64, 48, 64, true),
            &[M],
            &[L, N, K],
            (1, 2, 1, 2),
            (16, 16, 16, 16),
        ),
        plan(
            ChainSpec::attention(64, 128, 64, 64, false),
            &[M],
            &[L, N, K],
            (1, 2, 2, 4),
            (32, 32, 32, 16),
        ),
        // Inter-cluster reduce (N spatial over clusters).
        plan(
            ChainSpec::standard_ffn(16, 128, 32, 32, relu),
            &[M, N],
            &[L, K],
            (1, 2, 1, 2),
            (16, 16, 16, 16),
        ),
        // Reduce-free: cls_l = cls_n * cls_k.
        plan(
            ChainSpec::standard_ffn(16, 64, 32, 128, relu),
            &[M],
            &[N, L, K],
            (1, 4, 2, 8),
            (16, 16, 16, 16),
        ),
        // One block per cluster.
        plan(
            ChainSpec::standard_ffn(32, 64, 48, 64, Activation::Gelu),
            &[M],
            &[N, L, K],
            (1, 1, 1, 1),
            (16, 16, 16, 16),
        ),
        // Above the cutoff: several clusters, block rows, K/N/L trips.
        plan(
            ChainSpec::standard_ffn(128, 256, 128, 128, relu),
            &[M],
            &[N, L, K],
            (2, 2, 2, 2),
            (32, 64, 32, 64),
        ),
        // Above the cutoff, C-strip, gated, M temporal.
        plan(
            ChainSpec::gated_ffn(128, 256, 64, 256, Activation::Silu),
            &[K],
            &[M, L, N],
            (2, 2, 2, 2),
            (32, 64, 32, 64),
        ),
        // Ragged micro-panels: 48 columns is one and a half NR panels.
        plan(
            ChainSpec::standard_ffn(64, 192, 96, 96, Activation::Identity),
            &[M],
            &[N, L, K],
            (1, 2, 1, 2),
            (32, 48, 48, 48),
        ),
        // Tile K extents past one 256-deep chunk: GEMM0 over t.k = 384
        // (256 + 128), then GEMM1 over t.n = 320 (256 + 64).
        plan(
            ChainSpec::standard_ffn(32, 64, 768, 64, relu),
            &[M],
            &[N, L, K],
            (1, 1, 2, 2),
            (16, 16, 384, 16),
        ),
        plan(
            ChainSpec::standard_ffn(32, 640, 32, 64, relu),
            &[M],
            &[L, N, K],
            (1, 1, 2, 2),
            (16, 320, 16, 16),
        ),
    ]
}

fn fused_digest(kind: KernelKind) -> u64 {
    let mut h = StableHasher::new();
    for (i, plan) in fused_population().iter().enumerate() {
        let inputs = plan.chain.make_inputs(0xD16 + i as u64);
        let mut counters = TrafficCounters::new();
        let out = execute_fused_with(plan, &inputs, &mut counters, NumericConfig { kernel: kind })
            .unwrap_or_else(|e| panic!("{}: {e}", plan));
        fold_matrix(&mut h, &out);
        fold_counters(&mut h, &counters);
    }
    h.finish()
}

/// A zoo layer graph's segments compiled the way the facade compiles
/// them, minus profiling: the partitioner's cuts, and the search's
/// rank-1 plan for each fused segment (none where nothing is feasible).
fn compiled_layer(graph: &OpGraph) -> Vec<(Vec<NodeId>, Option<FusedPlan>)> {
    let machine = MachineDescriptor::h100_sxm();
    let pricer = UnfusedKernelPricer::new(machine.clone(), 0.92);
    let partition = partition_graph(graph, &machine, &pricer).expect("zoo layers partition");
    let engine = SearchEngine::new(machine);
    partition
        .segments
        .into_iter()
        .map(|s| match s {
            Segment::Fused { chain, nodes, .. } => {
                let plan = engine.search(&chain, &SearchConfig::default()).ok();
                (nodes, plan.map(|r| r.best().analysis.plan().clone()))
            }
            Segment::Unfused { nodes, .. } => (nodes, None),
        })
        .collect()
}

fn zoo_digest(kind: KernelKind) -> u64 {
    let mut h = StableHasher::new();
    for model in model_zoo().into_iter().chain(large_model_zoo()) {
        let graph = model.scaled_to(64).layer_graph(32);
        let layer = compiled_layer(&graph);
        let segments: Vec<ExecSegment<'_>> = layer
            .iter()
            .map(|(nodes, plan)| match plan {
                Some(plan) => ExecSegment::Fused { plan, nodes },
                None => ExecSegment::Unfused { nodes },
            })
            .collect();
        let inputs = seeded_graph_inputs(&graph, 0x200);
        let execution =
            execute_graph_with(&graph, &segments, &inputs, NumericConfig { kernel: kind })
                .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        for id in 0..graph.len() {
            match execution.value(id) {
                Some(m) => {
                    h.write_u8(1);
                    fold_matrix(&mut h, m);
                }
                None => h.write_u8(0),
            }
        }
        for trace in &execution.traces {
            h.write_u8(u8::from(trace.fused));
            fold_counters(&mut h, &trace.counters);
        }
    }
    h.finish()
}

fn check(kind: KernelKind, pinned: (u64, u64)) {
    let got = (fused_digest(kind), zoo_digest(kind));
    assert_eq!(
        got, pinned,
        "{kind}: (fused plans, zoo layers) digests moved; computed {got:?}"
    );
}

#[test]
fn naive_kernel_outputs_and_counters_match_the_pinned_digests() {
    check(
        KernelKind::Naive,
        (16180607333427108640, 12722947061058576558),
    );
}

#[cfg(target_feature = "fma")]
#[test]
fn blocked_kernel_outputs_and_counters_match_the_pinned_digests() {
    check(
        KernelKind::Blocked,
        (12087881886308874983, 9214756805309713543),
    );
}

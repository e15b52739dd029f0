//! The fused executor's cluster loop allocates nothing, and the stitched
//! executor copies no input — as a test rather than a claim.
//!
//! A counting global allocator wraps `System`; the binary holds exactly
//! one `#[test]`, so every counted allocation is the measured call's own.
//! What `execute_fused_with` may allocate is its arena — a fixed set of
//! buffers sized from the plan's geometry — the output and the counters'
//! entries: the same number of allocations however many clusters,
//! block rows or n-trips the plan walks.

use flashfuser_core::comm::ClusterShape;
use flashfuser_core::{BlockTile, DataflowAnalyzer, FusedPlan, LoopSchedule, MachineDescriptor};
use flashfuser_graph::op::{OpGraph, OpKind};
use flashfuser_graph::{match_chains, ChainSpec, Dim};
use flashfuser_sim::{
    execute_fused_with, execute_graph_with, seeded_graph_inputs, ExecSegment, TrafficCounters,
};
use flashfuser_tensor::{Activation, BinaryOp, NumericConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// relaxed atomics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let after = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ((after.0 - before.0, after.1 - before.1), out)
}

fn plan(
    chain: &ChainSpec,
    temporal: [Dim; 3],
    cluster: ClusterShape,
    tile: BlockTile,
) -> FusedPlan {
    let schedule = LoopSchedule::new(vec![Dim::M], temporal.to_vec());
    DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
        .analyze(chain, &schedule, cluster, tile)
        .expect("test geometry is feasible")
        .plan()
        .clone()
}

/// Allocations of one blocked-kernel `execute_fused_with` call.
fn fused_allocations(plan: &FusedPlan) -> u64 {
    let inputs = plan.chain.make_inputs(1);
    let mut counters = TrafficCounters::new();
    let ((allocations, _), out) =
        counted(|| execute_fused_with(plan, &inputs, &mut counters, NumericConfig::blocked()));
    out.expect("plan executes");
    allocations
}

#[test]
fn the_cluster_loop_allocates_nothing_and_no_input_is_copied() {
    use Dim::{K, L, N};
    let relu = Activation::Relu;
    // (M, N, K, L), schedule, cluster and tile: an E-strip plan above the
    // blocked cutoff and a C-strip plan below it.
    let cases = [
        (
            (32, 128, 64, 128),
            [N, L, K],
            ClusterShape::new(1, 2, 2, 2).unwrap(),
            BlockTile::new(16, 64, 32, 64),
        ),
        (
            (32, 96, 48, 64),
            [L, N, K],
            ClusterShape::new(1, 2, 1, 2).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        ),
    ];
    for ((m, n, k, l), temporal, cluster, tile) in cases {
        let base = plan(
            &ChainSpec::standard_ffn(m, n, k, l, relu),
            temporal,
            cluster,
            tile,
        );
        let rows = plan(
            &ChainSpec::standard_ffn(4 * m, n, k, l, relu),
            temporal,
            cluster,
            tile,
        );
        let trips = plan(
            &ChainSpec::standard_ffn(m, 4 * n, k, l, relu),
            temporal,
            cluster,
            tile,
        );
        assert_eq!(rows.geometry.grid(Dim::M), 4 * base.geometry.grid(Dim::M));
        assert_eq!(
            trips.geometry.trips(Dim::N),
            4 * base.geometry.trips(Dim::N)
        );
        let counts = [&base, &rows, &trips].map(fused_allocations);
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{}: allocations for the chain, 4x its clusters, 4x its n-trips: {counts:?}",
            base
        );
    }

    // Two stacked FFN layers with an unfused Add between them, N spread
    // over eight clusters: the weights dominate the bound inputs, and a
    // cluster column's packed weight slabs are an eighth of them, so the
    // execution allocates fewer bytes than the inputs unless it copies
    // them.
    let chain = ChainSpec::standard_ffn(16, 256, 64, 64, relu);
    let mut g = OpGraph::new();
    let x = g.add_input("x", 16, 64);
    let l1 = g.append_chain(&chain, x, "l1");
    let glue = g.add_node(OpKind::Elementwise(BinaryOp::Add), vec![l1, l1], "glue");
    let l2 = g.append_chain(&chain, glue, "l2");
    g.add_node(OpKind::Output, vec![l2], "out");
    let matches = match_chains(&g).unwrap();
    let plan = DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
        .analyze(
            &chain,
            &LoopSchedule::new(vec![Dim::M, N], vec![L, K]),
            ClusterShape::new(1, 2, 1, 2).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        )
        .expect("test geometry is feasible")
        .plan()
        .clone();
    assert_eq!(plan.geometry.grid(N), 8);
    let segments = [
        ExecSegment::Fused {
            plan: &plan,
            nodes: &matches[0].nodes,
        },
        ExecSegment::Unfused { nodes: &[glue] },
        ExecSegment::Fused {
            plan: &plan,
            nodes: &matches[1].nodes,
        },
    ];
    let inputs = seeded_graph_inputs(&g, 2);
    let input_bytes: u64 = inputs.iter().map(|(_, m)| m.len() as u64 * 4).sum();
    let ((_, bytes), execution) =
        counted(|| execute_graph_with(&g, &segments, &inputs, NumericConfig::blocked()));
    execution.expect("graph executes");
    assert!(
        bytes < input_bytes,
        "execute_graph_with allocated {bytes} B for {input_bytes} B of bound inputs"
    );
}

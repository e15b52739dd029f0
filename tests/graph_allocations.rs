//! What one more layer costs a warm graph request, counted in
//! allocations rather than timed.
//!
//! A counting global allocator wraps `System`; the binary holds exactly
//! one `#[test]`, and a warm `compile_graph` runs no search, so every
//! counted allocation is the measured call's own. GPT-2 is lowered and
//! compiled at 12 and at 24 layers; the difference over the 12 extra
//! layers is the per-layer marginal, which a fixed per-request set-up
//! (the pricer, the DP tables, one lookup per distinct chain) does not
//! enter.

use flashfuser::prelude::*;
use flashfuser::workloads::find_model;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_warm_graph_request_allocates_a_fixed_few_times_per_layer() {
    let gpt2 = find_model("GPT-2").expect("zoo model");
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let (short, long) = (gpt2.graph(128, 12), gpt2.graph(128, 24));
    // Cold: one search per distinct chain (attention and FFN).
    compiler.compile_graph(&short).expect("GPT-2 compiles");
    compiler.compile_graph(&long).expect("GPT-2 compiles");

    let (lower_short, _) = counted(|| gpt2.graph(128, 12));
    let (lower_long, _) = counted(|| gpt2.graph(128, 24));

    let hits = compiler.cache_stats().hits();
    let (warm_short, plan) = counted(|| compiler.compile_graph(&short));
    plan.expect("warm compile");
    assert_eq!(
        compiler.cache_stats().hits() - hits,
        2,
        "a warm request looks each distinct chain up once"
    );
    let (warm_long, plan) = counted(|| compiler.compile_graph(&long));
    plan.expect("warm compile");
    assert_eq!(compiler.searches_run(), 2);

    // Measured: 34⅙ allocations per lowered layer (19 labels, 13
    // operand lists, 2 label prefixes) and 6⅓ per warm-compiled layer
    // (2 matched node lists, 2 unfused runs, 2 boxed fused segments);
    // the rest is amortised vector growth. The bounds leave 5–10 %.
    let per_layer = |short: u64, long: u64| long.saturating_sub(short) as f64 / 12.0;
    let lowering = per_layer(lower_short, lower_long);
    let warm = per_layer(warm_short, warm_long);
    assert!(
        lowering <= 36.0,
        "lowering GPT-2 allocates {lowering:.2} times per layer \
         ({lower_short} at 12 layers, {lower_long} at 24)"
    );
    assert!(
        warm <= 7.0,
        "a warm compile_graph allocates {warm:.2} times per layer \
         ({warm_short} at 12 layers, {warm_long} at 24)"
    );
}

//! The search scan allocates nothing per candidate, as a test rather
//! than a claim.
//!
//! A counting global allocator wraps `System`; the binary holds exactly
//! one `#[test]` and searches on the calling thread (`threads = 1`), so
//! every counted allocation is the search's own. What a search may
//! allocate is its fixed set-up — the tile axes, the group headers and
//! their floor order, the analyzer's and cost model's descriptor clones,
//! the top-K buffer — and the `K` finalists it materialises: a couple of
//! hundred allocations, and the same couple of hundred whether it scored
//! one thousand candidates or twenty-five thousand. (The schedule list is built once
//! per process; a discarded first search pays for it.)

use flashfuser_core::{MachineDescriptor, SearchConfig, SearchEngine};
use flashfuser_graph::ChainSpec;
use flashfuser_tensor::Activation;
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

/// Allocations (and reallocations) of one single-threaded search, and how
/// many candidates it scored successfully.
fn search_allocations(chain: &ChainSpec) -> (u64, u64) {
    let engine = SearchEngine::new(MachineDescriptor::h100_sxm());
    let config = SearchConfig::default().with_threads(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = engine.search(chain, &config);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let result = result.expect("G1 and G4 fuse on H100");
    assert_eq!(result.top_k().len(), config.top_k);
    (allocations, result.stats().feasible)
}

#[test]
fn a_search_allocates_the_same_few_hundred_times_however_many_candidates_it_scores() {
    // Table VII's G1 (DLRM-0) and G4 (GPT-2-Small).
    let g1 = ChainSpec::standard_ffn(128, 512, 32, 256, Activation::Relu);
    let g4 = ChainSpec::standard_ffn(128, 3072, 768, 768, Activation::Relu);
    search_allocations(&g1);
    let (g1_allocations, g1_scored) = search_allocations(&g1);
    let (g4_allocations, g4_scored) = search_allocations(&g4);
    assert_eq!(
        (g1_scored, g4_scored),
        (1_254, 24_552),
        "the single-threaded scan is deterministic"
    );
    for (name, allocations) in [("G1", g1_allocations), ("G4", g4_allocations)] {
        assert!(
            allocations < 1_000,
            "{name}: {allocations} allocations in one search"
        );
    }
    assert!(
        g4_allocations.abs_diff(g1_allocations) * 10 <= g1_allocations,
        "G4 scored {g4_scored} candidates and allocated {g4_allocations} times, \
         G1 scored {g1_scored} and allocated {g1_allocations} times: \
         the count depends on the candidates"
    );
}

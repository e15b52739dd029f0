//! Batch compilation through the content-addressed plan cache.
//!
//! Run with `cargo run --release --example batch_compile`.
//!
//! Models one serving tick of an inference fleet: a burst of
//! compilation requests in which most graphs repeat (different layers
//! of the same model share the FFN shape, and different requests share
//! layers). The batch front door dedupes content-identical graphs,
//! shards the distinct ones across worker threads, and remembers every
//! result — so the second burst compiles from cache alone.

use flashfuser::prelude::*;
use flashfuser::CompilerOptions;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = MachineDescriptor::h100_sxm();

    // Optional: point the cache at a directory to persist plans across
    // process restarts (the CLI's `--cache-dir` does the same).
    let cache_dir = std::env::temp_dir().join("flashfuser-example-plans");
    let compiler = Compiler::with_options(
        params.clone(),
        CompilerOptions::new().with_cache_dir(&cache_dir),
    )?;

    // A burst of 9 requests over 3 distinct graphs. Names differ per
    // request (they are metadata); content decides identity.
    let gpt2 = ChainSpec::standard_ffn(128, 3072, 768, 768, Activation::Relu);
    let dlrm = ChainSpec::standard_ffn(128, 512, 416, 256, Activation::Relu);
    let small = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
    let batch: Vec<ChainSpec> = (0..3)
        .flat_map(|layer| {
            [
                gpt2.clone().named(&format!("gpt2-ffn-{layer}")),
                dlrm.clone().named(&format!("dlrm-mlp-{layer}")),
                small.clone().named(&format!("head-{layer}")),
            ]
        })
        .collect();

    println!("burst 1: {} requests, 3 distinct graphs", batch.len());
    let t0 = Instant::now();
    let results = compiler.compile_batch(&batch);
    let cold_s = t0.elapsed().as_secs_f64();
    for (chain, result) in batch.iter().zip(&results) {
        let compiled = result.as_ref().map_err(Clone::clone)?;
        println!(
            "  {:<12} {:<40} {:>8.2} us",
            chain.name(),
            compiled.plan.to_string(),
            compiled.measured_seconds * 1e6
        );
    }
    println!(
        "  -> {:.3} s wall, {} searches for {} requests, cache: {}",
        cold_s,
        compiler.searches_run(),
        batch.len(),
        compiler.cache_stats()
    );

    // The same burst again: pure cache, zero searches.
    let before = compiler.searches_run();
    let t0 = Instant::now();
    let warm = compiler.compile_batch(&batch);
    let warm_s = t0.elapsed().as_secs_f64();
    assert!(warm.iter().all(Result::is_ok));
    assert_eq!(
        compiler.searches_run(),
        before,
        "warm burst must not search"
    );
    // Bit-identical to the cold results, per the determinism guarantee.
    for (a, b) in results.iter().zip(&warm) {
        assert_eq!(a.as_ref().unwrap().plan, b.as_ref().unwrap().plan);
    }
    println!(
        "burst 2: {:.6} s wall ({}x faster), plans bit-identical, cache: {}",
        warm_s,
        (cold_s / warm_s).round(),
        compiler.cache_stats()
    );
    println!("plans persisted under {}", cache_dir.display());
    Ok(())
}

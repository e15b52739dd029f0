//! Integration tests of the plan cache + batch compilation front door
//! (ISSUE 2): warm hits must be bit-identical to fresh searches, the
//! disk tier must survive compiler restarts, keys must invalidate on
//! machine/config changes, batches must dedupe, concurrent misses must
//! coalesce into exactly one search, and nothing a compile returns or
//! persists may vary with the search's thread count.

use flashfuser::core::codec::encode_record;
use flashfuser::prelude::*;
use flashfuser::workloads::{find_model, gemm_chains};
use flashfuser::{default_config_for, Compiler, CompilerOptions};
use std::path::PathBuf;
use std::sync::Arc;

fn g3() -> ChainSpec {
    // DLRM-2 (Table VII): the smallest searchable paper chain.
    ChainSpec::standard_ffn(128, 512, 416, 256, Activation::Relu).named("G3")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-plan-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_hit_is_bit_identical_and_skips_the_search() {
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let chain = g3();
    let cold = compiler.compile(&chain).unwrap();
    let warm = compiler.compile(&chain).unwrap();
    assert_eq!(compiler.searches_run(), 1, "second compile must be a hit");
    assert_eq!(cold.plan, warm.plan);
    assert_eq!(
        cold.measured_seconds.to_bits(),
        warm.measured_seconds.to_bits()
    );
    assert_eq!(cold.global_bytes, warm.global_bytes);
    assert_eq!(cold.feasible_candidates, warm.feasible_candidates);
    // And both agree with an uncached from-scratch compile.
    let scratch = flashfuser::compile(&chain, &MachineDescriptor::h100_sxm()).unwrap();
    assert_eq!(scratch.plan, warm.plan);
    assert_eq!(
        scratch.measured_seconds.to_bits(),
        warm.measured_seconds.to_bits()
    );
}

#[test]
fn disk_store_round_trips_across_compiler_restarts() {
    let dir = temp_dir("restart");
    let chain = g3();
    let params = MachineDescriptor::h100_sxm();
    let cold = {
        let compiler =
            Compiler::with_options(params.clone(), CompilerOptions::new().with_cache_dir(&dir))
                .unwrap();
        compiler.compile(&chain).unwrap()
    };
    // A fresh compiler (empty memory tier) must be served from disk,
    // bit-identically, without searching.
    let compiler =
        Compiler::with_options(params, CompilerOptions::new().with_cache_dir(&dir)).unwrap();
    let warm = compiler.compile(&chain).unwrap();
    assert_eq!(compiler.searches_run(), 0);
    assert_eq!(compiler.cache_stats().disk_hits, 1);
    assert_eq!(cold.plan, warm.plan);
    assert_eq!(
        cold.measured_seconds.to_bits(),
        warm.measured_seconds.to_bits()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn machine_change_invalidates_the_key() {
    let dir = temp_dir("machine");
    let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
    {
        let h100 = Compiler::with_options(
            MachineDescriptor::h100_sxm(),
            CompilerOptions::new().with_cache_dir(&dir),
        )
        .unwrap();
        h100.compile(&chain).unwrap();
    }
    // Same chain, same disk dir, different machine: must re-search.
    let a100 = Compiler::with_options(
        MachineDescriptor::a100_sxm(),
        CompilerOptions::new().with_cache_dir(&dir),
    )
    .unwrap();
    a100.compile(&chain).unwrap();
    assert_eq!(a100.searches_run(), 1);
    assert_eq!(a100.cache_stats().disk_hits, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn config_change_invalidates_the_key() {
    let dir = temp_dir("config");
    let chain = g3();
    let params = MachineDescriptor::h100_sxm();
    {
        let compiler =
            Compiler::with_options(params.clone(), CompilerOptions::new().with_cache_dir(&dir))
                .unwrap();
        compiler.compile(&chain).unwrap();
    }
    let mut options = CompilerOptions::new().with_cache_dir(&dir);
    let mut config = flashfuser::default_config_for(&params);
    config.top_k = 5; // result-relevant: different finalist set
    options.config = Some(config);
    let compiler = Compiler::with_options(params.clone(), options).unwrap();
    compiler.compile(&chain).unwrap();
    assert_eq!(
        compiler.searches_run(),
        1,
        "top_k=5 must miss the top_k=11 entry"
    );

    // Thread count is result-neutral and must NOT invalidate.
    let mut options = CompilerOptions::new().with_cache_dir(&dir);
    options.config = Some(flashfuser::default_config_for(&params).with_threads(3));
    let compiler = Compiler::with_options(params, options).unwrap();
    compiler.compile(&chain).unwrap();
    assert_eq!(compiler.searches_run(), 0, "threads must not key the cache");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn workload_names_are_metadata_not_identity() {
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let first = compiler.compile(&g3()).unwrap();
    // Content-identical chain under another name: hits, and the
    // returned plan carries the *requested* name — exactly what a
    // fresh search of it would produce.
    let renamed = ChainSpec::standard_ffn(128, 512, 416, 256, Activation::Relu).named("other");
    let second = compiler.compile(&renamed).unwrap();
    assert_eq!(compiler.searches_run(), 1);
    assert_eq!(second.plan.chain.name(), "other");
    assert_eq!(first.plan.to_string(), second.plan.to_string());
}

#[test]
fn batch_dedupes_and_preserves_input_order() {
    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let a = g3();
    let b = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu).named("B");
    // 6 requests, 2 unique graphs, interleaved.
    let batch = vec![
        a.clone(),
        b.clone(),
        a.clone(),
        a.clone(),
        b.clone(),
        a.clone(),
    ];
    let results = compiler.compile_batch(&batch);
    assert_eq!(results.len(), 6);
    assert_eq!(compiler.searches_run(), 2, "2 unique graphs -> 2 searches");
    let plans: Vec<_> = results
        .iter()
        .map(|r| r.as_ref().unwrap().plan.clone())
        .collect();
    // Order: result i belongs to request i.
    for (i, request) in batch.iter().enumerate() {
        assert_eq!(&plans[i].chain, request, "result {i} out of order");
    }
    assert_eq!(plans[0].to_string(), plans[2].to_string());
    // Batch results equal per-request compiles, bit for bit.
    let single = flashfuser::compile(&b, &MachineDescriptor::h100_sxm()).unwrap();
    assert_eq!(single.plan, plans[1]);
}

#[test]
fn free_function_compile_batch_matches_compile() {
    let params = MachineDescriptor::h100_sxm();
    let batch = vec![g3(), g3()];
    let results = flashfuser::compile_batch(&batch, &params);
    let reference = flashfuser::compile(&g3(), &params).unwrap();
    for r in &results {
        let r = r.as_ref().unwrap();
        assert_eq!(r.plan, reference.plan);
        assert_eq!(
            r.measured_seconds.to_bits(),
            reference.measured_seconds.to_bits()
        );
    }
}

#[test]
fn concurrent_compiles_coalesce_into_one_search() {
    const THREADS: usize = 8;
    // Reference: the profiler calls one search makes (= top-K width).
    let reference = Compiler::new(MachineDescriptor::h100_sxm());
    reference.compile(&g3()).unwrap();
    let calls_per_search = reference.profile_calls();
    assert!(calls_per_search > 0);

    let compiler = Arc::new(Compiler::new(MachineDescriptor::h100_sxm()));
    let gate = Arc::new(std::sync::Barrier::new(THREADS));
    let plans: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let compiler = Arc::clone(&compiler);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    gate.wait();
                    compiler.compile(&g3()).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // The herd coalesced: one search, one search's worth of profiler
    // calls — not 8x.
    assert_eq!(compiler.searches_run(), 1);
    assert_eq!(compiler.profile_calls(), calls_per_search);
    for pair in plans.windows(2) {
        assert_eq!(pair[0].plan, pair[1].plan);
        assert_eq!(
            pair[0].measured_seconds.to_bits(),
            pair[1].measured_seconds.to_bits()
        );
    }
}

#[test]
fn compiled_results_and_encoded_records_are_identical_for_every_thread_count() {
    // The determinism contract: a cold compile is a pure function of
    // (chain, machine, config minus `threads`). Fresh compiler per
    // cell, so every answer comes from its own search.
    let tensix = flashfuser::core::decode_machine(include_str!("../machines/tensix_like.json"))
        .expect("committed descriptor decodes");
    let mut chains: Vec<ChainSpec> = gemm_chains()
        .into_iter()
        .filter(|w| ["G1", "G2", "G3"].contains(&w.id))
        .map(|w| w.chain)
        .collect();
    chains.push(find_model("BERT").expect("zoo model").ffn_chain(64));
    assert_eq!(chains.len(), 4);

    for machine in [MachineDescriptor::h100_sxm(), tensix] {
        for chain in &chains {
            let cold = |threads: usize| {
                let mut options = CompilerOptions::new();
                options.config = Some(default_config_for(&machine).with_threads(threads));
                let compiler = Compiler::with_options(machine.clone(), options).unwrap();
                let compiled = compiler.compile(chain);
                let document = compiler
                    .compile_record_for(chain)
                    .map(|record| encode_record(&record));
                assert_eq!(compiler.searches_run(), 1, "the record is that search's");
                (compiled, document)
            };
            let reference = cold(1);
            for threads in [2, 3, 8] {
                assert_eq!(
                    cold(threads),
                    reference,
                    "{}: {chain}: {threads} threads answered differently from 1",
                    machine.name
                );
            }
        }
    }
}

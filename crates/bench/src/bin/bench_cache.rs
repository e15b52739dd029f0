//! Plan-cache benchmark and `BENCH_cache.json` emitter.
//!
//! For each chain this measures, through one `flashfuser::Compiler`:
//!
//! * **cold** — first compile (cache miss, full fusion search);
//! * **warm** — second compile of the same graph (in-memory LRU hit);
//! * **disk** — first compile through a *fresh* compiler pointed at the
//!   same cache directory (on-disk hit, JSON decode + promote);
//!
//! asserts the cached plan is **bit-identical** to an independent
//! from-scratch search, then runs a duplicate-heavy batch to report the
//! achieved hit rate. The record is written to `BENCH_cache.json`
//! (`BENCH_cache.quick.json` under `FLASHFUSER_QUICK=1`, the
//! verify-gate mode, so a verify run never clobbers the committed
//! full-run baseline).
//!
//! Gates enforced here (the process exits non-zero on violation):
//!
//! * every cached variant (cold, warm, disk) is bit-identical to an
//!   independent from-scratch compile;
//! * quick mode: warm < cold for every chain;
//! * full mode: warm is additionally ≥ 10× faster than cold on G4/G5
//!   (the ISSUE 2 acceptance bar).

use flashfuser::{Compiler, CompilerOptions};
use flashfuser_bench::{env_threads, h100, quick_mode};
use flashfuser_workloads::gemm_chains;
use std::time::Instant;

struct CacheRecord {
    id: &'static str,
    cold_s: f64,
    warm_s: f64,
    disk_s: f64,
    warm_speedup: f64,
    disk_speedup: f64,
    warm_faster: bool,
    bit_identical: bool,
    batch_requests: u64,
    batch_searches: u64,
    hit_rate: f64,
}

fn json_record(r: &CacheRecord) -> String {
    format!(
        concat!(
            "    {{\"id\": \"{}\", \"cold_s\": {:.6}, \"warm_s\": {:.6}, ",
            "\"disk_s\": {:.6}, \"warm_speedup\": {:.1}, \"disk_speedup\": {:.1}, ",
            "\"warm_faster\": {}, \"bit_identical\": {}, ",
            "\"batch_requests\": {}, \"batch_searches\": {}, \"hit_rate\": {:.3}}}"
        ),
        r.id,
        r.cold_s,
        r.warm_s,
        r.disk_s,
        r.warm_speedup,
        r.disk_speedup,
        r.warm_faster,
        r.bit_identical,
        r.batch_requests,
        r.batch_searches,
        r.hit_rate,
    )
}

fn main() {
    let params = h100();
    let quick = quick_mode();
    let threads = env_threads();
    let ids: &[&str] = if quick { &["G3"] } else { &["G4", "G5"] };
    let cache_dir =
        std::env::temp_dir().join(format!("flashfuser-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!("== plan cache: cold vs warm vs on-disk compile latency ==");
    println!(
        "cache dir: {} {}",
        cache_dir.display(),
        if quick { "(quick mode)" } else { "" }
    );
    println!(
        "{:<6}{:>12}{:>12}{:>12}{:>10}{:>10}{:>14}{:>10}",
        "id", "cold s", "warm s", "disk s", "warm x", "disk x", "bit-identical", "hit rate"
    );

    let mut records = Vec::new();
    for w in gemm_chains().into_iter().filter(|w| ids.contains(&w.id)) {
        let mut options = CompilerOptions::new().with_cache_dir(&cache_dir);
        options.batch_workers = threads;
        if threads > 0 {
            let mut config = flashfuser::default_config_for(&params);
            config.threads = threads;
            options.config = Some(config);
        }
        let compiler =
            Compiler::with_options(params.clone(), options.clone()).expect("cache dir creatable");

        // Cold: full search, populates memory + disk.
        let t0 = Instant::now();
        let cold = compiler.compile(&w.chain).expect("feasible chain");
        let cold_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            compiler.searches_run(),
            1,
            "{}: cold path must search",
            w.id
        );

        // Warm: in-memory hit.
        let t0 = Instant::now();
        let warm = compiler.compile(&w.chain).expect("feasible chain");
        let warm_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            compiler.searches_run(),
            1,
            "{}: warm hit must not search",
            w.id
        );

        // Disk: a fresh compiler (empty memory tier) over the same dir.
        let fresh =
            Compiler::with_options(params.clone(), options.clone()).expect("cache dir creatable");
        let t0 = Instant::now();
        let disk = fresh.compile(&w.chain).expect("feasible chain");
        let disk_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            fresh.searches_run(),
            0,
            "{}: disk hit must not search",
            w.id
        );

        // Bit-identity: an independent from-scratch compile must agree
        // exactly with every cached variant (PR 1's determinism).
        let scratch = flashfuser::compile(&w.chain, &params).expect("feasible chain");
        let bit_identical = scratch.plan == cold.plan
            && scratch.plan == warm.plan
            && scratch.plan == disk.plan
            && scratch.measured_seconds.to_bits() == warm.measured_seconds.to_bits()
            && scratch.measured_seconds.to_bits() == disk.measured_seconds.to_bits()
            && scratch.global_bytes == warm.global_bytes
            && scratch.feasible_candidates == warm.feasible_candidates;
        assert!(
            bit_identical,
            "{}: cached plan diverged from fresh search",
            w.id
        );

        // Hit rate on a duplicate-heavy batch (the serving-traffic
        // shape): 8 requests, 1 unique graph, against a warm cache.
        let batch: Vec<_> = (0..8).map(|_| w.chain.clone()).collect();
        let before = fresh.searches_run();
        let results = fresh.compile_batch(&batch);
        assert!(results.iter().all(Result::is_ok));
        let batch_searches = fresh.searches_run() - before;
        let stats = fresh.cache_stats();

        let record = CacheRecord {
            id: w.id,
            cold_s,
            warm_s,
            disk_s,
            warm_speedup: cold_s / warm_s,
            disk_speedup: cold_s / disk_s,
            warm_faster: warm_s < cold_s,
            bit_identical,
            batch_requests: batch.len() as u64,
            batch_searches,
            hit_rate: stats.hit_rate(),
        };
        println!(
            "{:<6}{:>12.4}{:>12.6}{:>12.6}{:>9.0}x{:>9.0}x{:>14}{:>9.0}%",
            record.id,
            record.cold_s,
            record.warm_s,
            record.disk_s,
            record.warm_speedup,
            record.disk_speedup,
            record.bit_identical,
            record.hit_rate * 100.0,
        );
        records.push(record);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    let body: Vec<String> = records.iter().map(json_record).collect();
    let json = format!(
        "{{\n  \"bench\": \"cache\",\n  \"quick\": {},\n  \"chains\": [\n{}\n  ]\n}}\n",
        quick,
        body.join(",\n")
    );
    let path = if quick {
        "BENCH_cache.quick.json"
    } else {
        "BENCH_cache.json"
    };
    std::fs::write(path, &json).expect("writing the benchmark record");
    println!("\nwrote {path}");

    // The gates. Quick mode (CI): warm must beat cold. Full mode: the
    // acceptance bar is >= 10x on G4/G5 — comfortably met, since a warm
    // hit is a hash lookup against a multi-second search.
    for r in &records {
        assert!(
            r.warm_faster,
            "{}: warm-cache compile ({:.6}s) is not faster than cold ({:.6}s)",
            r.id, r.warm_s, r.cold_s
        );
        if !quick {
            assert!(
                r.warm_speedup >= 10.0,
                "{}: warm-cache speedup {:.1}x is below the 10x acceptance bar",
                r.id,
                r.warm_speedup
            );
        }
    }
    println!(
        "cache gates: OK (warm < cold{})",
        if quick { "" } else { ", warm >= 10x" }
    );
}

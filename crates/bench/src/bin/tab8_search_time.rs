//! Table VIII: search-engine time vs brute force (G3, G4, G5).
//!
//! Both paths use every available core (brute force forks the simulator
//! profiler across workers; the guided engine shards candidate ranking),
//! so the ratio reflects the algorithmic gap — top-K profiling plus the
//! lower-bound skip versus profiling everything — not a threading
//! artefact. `FLASHFUSER_QUICK=1` restricts the run to G3 (the mode
//! `scripts/verify.sh` uses).

use flashfuser_bench::{h100, quick_mode};
use flashfuser_core::{SearchConfig, SearchEngine};
use flashfuser_sim::SimProfiler;
use flashfuser_workloads::gemm_chains;
use std::time::Instant;

fn main() {
    let params = h100();
    let engine = SearchEngine::new(params.clone());
    let quick = quick_mode();
    let ids: &[&str] = if quick { &["G3"] } else { &["G3", "G4", "G5"] };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Table VIII: search time, engine (top-K=11) vs brute force ==");
    println!(
        "({threads} worker thread(s){})",
        if quick { ", quick mode" } else { "" }
    );
    println!(
        "{:<6}{:>14}{:>14}{:>10}{:>14}",
        "id", "brute s", "engine s", "speedup", "same plan?"
    );
    for w in gemm_chains().into_iter().filter(|w| ids.contains(&w.id)) {
        let config = SearchConfig::default();
        let t0 = Instant::now();
        let mut p1 = SimProfiler::new(params.clone());
        let (brute, profiled) = engine.brute_force(&w.chain, &config, &mut p1).unwrap();
        let brute_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut p2 = SimProfiler::new(params.clone());
        let guided = engine
            .search_with_profiler(&w.chain, &config, &mut p2)
            .unwrap();
        let engine_s = t1.elapsed().as_secs_f64();
        let same = (guided.best().measured.unwrap().seconds - brute.measured.unwrap().seconds)
            .abs()
            / brute.measured.unwrap().seconds
            < 0.02;
        println!(
            "{:<6}{brute_s:>14.2}{engine_s:>14.2}{:>9.1}x{:>14}",
            w.id,
            brute_s / engine_s,
            if same { "within 2%" } else { "no" }
        );
        eprintln!(
            "   ({} candidates brute-profiled; engine scanned {} geometry-eligible, skipped {} on the bound; {} planes, {} dropped whole)",
            profiled,
            guided.stats().considered,
            guided.stats().prefiltered,
            guided.stats().planes,
            guided.stats().planes_skipped
        );
    }
    println!("\npaper: 1.2-8.1 hr brute vs ~380 s engine (12-68x); wall-clock");
    println!("magnitudes differ (their profiling compiles + runs real kernels).");
}

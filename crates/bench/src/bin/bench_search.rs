//! Search-engine throughput benchmark and `BENCH_search.json` emitter.
//!
//! Runs the guided search (Algorithm 2, top-K = 11) once on the
//! sequential path (`threads = 1`) and once on the parallel path
//! (`threads = 0`, every available core) for each Table VIII chain,
//! verifies the two runs produce identical winning plans and top-K
//! orders, and writes a machine-readable record so future changes have a
//! perf trajectory to regress against:
//!
//! * per chain: candidates enumerated / considered / eligible (asserted
//!   equal across the two runs), the parallel run's feasible and
//!   prefiltered diagnostics, candidates per second, sequential vs
//!   parallel wall-clock and the resulting speedup;
//! * plus the host's thread count, so numbers from different machines
//!   are comparable.
//!
//! `FLASHFUSER_QUICK=1` restricts the run to the smallest chain (G3) —
//! the mode `scripts/verify.sh` uses — and writes to
//! `BENCH_search.quick.json` (untracked) so a verify run never clobbers
//! the committed full-run baseline.

use flashfuser_bench::{env_threads, h100, quick_mode};
use flashfuser_core::{LoopSchedule, SearchConfig, SearchEngine, SearchResult, SearchStats};
use flashfuser_sim::SimProfiler;
use flashfuser_workloads::gemm_chains;
use std::time::Instant;

struct ChainRecord {
    id: &'static str,
    candidates: u64,
    seq_stats: SearchStats,
    par_stats: SearchStats,
    seq_wall_s: f64,
    par_wall_s: f64,
    identical: bool,
    winner: String,
}

fn run_once(
    engine: &SearchEngine,
    chain: &flashfuser_graph::ChainSpec,
    threads: usize,
) -> (SearchResult, f64) {
    let params = engine.params().clone();
    let config = SearchConfig::default().with_threads(threads);
    let mut profiler = SimProfiler::new(params);
    let t0 = Instant::now();
    let result = engine
        .search_with_profiler(chain, &config, &mut profiler)
        .expect("Table VIII chains always have feasible plans");
    (result, t0.elapsed().as_secs_f64())
}

fn identical_top_k(a: &SearchResult, b: &SearchResult) -> bool {
    a.best_index() == b.best_index()
        && a.top_k().len() == b.top_k().len()
        && a.top_k().iter().zip(b.top_k()).all(|(x, y)| {
            x.est_seconds == y.est_seconds
                && x.analysis.plan().summary() == y.analysis.plan().summary()
        })
}

fn json_record(r: &ChainRecord) -> String {
    format!(
        concat!(
            "    {{\"id\": \"{}\", \"candidates\": {}, \"considered\": {}, ",
            "\"eligible\": {}, \"feasible\": {}, \"prefiltered\": {}, ",
            "\"seq_wall_s\": {:.6}, \"par_wall_s\": {:.6}, \"speedup\": {:.3}, ",
            "\"seq_candidates_per_s\": {:.0}, \"par_candidates_per_s\": {:.0}, ",
            "\"par_threads\": {}, \"identical_top_k\": {}, \"winner\": \"{}\"}}"
        ),
        r.id,
        r.candidates,
        r.par_stats.considered,
        r.par_stats.eligible,
        r.par_stats.feasible,
        r.par_stats.prefiltered,
        r.seq_wall_s,
        r.par_wall_s,
        r.seq_wall_s / r.par_wall_s,
        r.seq_stats.candidates_per_second(),
        r.par_stats.candidates_per_second(),
        r.par_stats.threads,
        r.identical,
        r.winner,
    )
}

fn main() {
    let params = h100();
    let engine = SearchEngine::new(params.clone());
    let quick = quick_mode();
    let ids: &[&str] = if quick { &["G3"] } else { &["G3", "G4", "G5"] };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let all = LoopSchedule::enumerate_all();

    println!("== search-engine throughput: sequential vs parallel guided search ==");
    println!(
        "host threads: {host_threads}{}",
        if quick { " (quick mode)" } else { "" }
    );
    println!(
        "{:<6}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}{:>12}",
        "id",
        "candidates",
        "eligible",
        "feasible",
        "prefiltered",
        "seq s",
        "par s",
        "speedup",
        "cand/s(par)"
    );

    let mut records = Vec::new();
    for w in gemm_chains().into_iter().filter(|w| ids.contains(&w.id)) {
        let stream =
            flashfuser_core::CandidateStream::build(&w.chain, &SearchConfig::default().prune, &all);
        let candidates = stream.len();
        let (seq, seq_wall_s) = run_once(&engine, &w.chain, 1);
        // FLASHFUSER_THREADS pins the parallel run; 0 = all cores.
        let (par, par_wall_s) = run_once(&engine, &w.chain, env_threads());
        let identical = identical_top_k(&seq, &par);
        assert!(
            identical,
            "{}: parallel top-K diverged from sequential — determinism bug",
            w.id
        );
        assert_eq!(
            seq.stats().eligible,
            par.stats().eligible,
            "{}: the persisted candidate count moved with the thread count",
            w.id
        );
        let record = ChainRecord {
            id: w.id,
            candidates,
            seq_stats: seq.stats(),
            par_stats: par.stats(),
            seq_wall_s,
            par_wall_s,
            identical,
            winner: par.best().analysis.plan().summary(),
        };
        println!(
            "{:<6}{:>12}{:>12}{:>12}{:>12}{:>12.3}{:>12.3}{:>9.2}x{:>12.0}",
            record.id,
            record.candidates,
            record.par_stats.eligible,
            record.par_stats.feasible,
            record.par_stats.prefiltered,
            record.seq_wall_s,
            record.par_wall_s,
            record.seq_wall_s / record.par_wall_s,
            record.par_stats.candidates_per_second(),
        );
        records.push(record);
    }

    let body: Vec<String> = records.iter().map(json_record).collect();
    let json = format!(
        "{{\n  \"bench\": \"search\",\n  \"host_threads\": {},\n  \"quick\": {},\n  \"chains\": [\n{}\n  ]\n}}\n",
        host_threads,
        quick,
        body.join(",\n")
    );
    // Quick mode must not overwrite the committed full-run baseline.
    let path = if quick {
        "BENCH_search.quick.json"
    } else {
        "BENCH_search.json"
    };
    std::fs::write(path, &json).expect("writing the benchmark record");
    println!("\nwrote {path}");
    if host_threads >= 4 {
        let worst = records
            .iter()
            .map(|r| r.seq_wall_s / r.par_wall_s)
            .fold(f64::INFINITY, f64::min);
        println!("worst-case parallel speedup on this {host_threads}-core host: {worst:.2}x");
    } else {
        println!("(host has {host_threads} core(s); parallel speedup needs a multi-core host)");
    }
}

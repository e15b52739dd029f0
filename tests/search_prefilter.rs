//! Acceptance tests for the guided search against the paper's
//! GEMM-chain workload table, on the real simulator profiler:
//!
//! * for every `gemm_chains()` workload small enough to brute-force, the
//!   unfiltered brute-force optimum lower-bounds the guided pick,
//! * the guided parallel search never loses to itself run sequentially
//!   — plans and measurements agree exactly, and
//! * the counts the compiler persists and the oracle profiles are the
//!   ones captured before the candidate stream was factored by geometry.

use flashfuser::core::{SearchConfig, SearchEngine};
use flashfuser::prelude::*;
use flashfuser::workloads::gemm_chains;

/// Candidate-stream ceiling under which brute-forcing a workload stays
/// cheap enough for CI. The stream holds geometry-eligible candidates
/// only: the DLRM-class chains G1–G3 (48 348 / 38 675 / 68 943) qualify,
/// G9 (222 055) and everything larger do not.
const BRUTE_FORCE_CANDIDATE_LIMIT: u64 = 100_000;

/// How many candidates `brute_force` profiles — every Rule-5 survivor —
/// per workload, captured at the commit before the stream was factored.
const BRUTE_FORCE_PROFILED: [(&str, u64); 3] = [("G1", 46_628), ("G2", 34_296), ("G3", 53_363)];

fn stream_len(chain: &ChainSpec, config: &SearchConfig) -> u64 {
    let all = LoopSchedule::enumerate_all();
    flashfuser::core::CandidateStream::build(chain, &config.prune, &all).len()
}

#[test]
fn prefilter_keeps_the_brute_force_winner_on_small_gemm_chains() {
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    let config = SearchConfig::default();
    let mut tested = 0;
    for w in gemm_chains() {
        if stream_len(&w.chain, &config) > BRUTE_FORCE_CANDIDATE_LIMIT {
            continue;
        }
        tested += 1;

        // Ground truth: unfiltered brute force over every feasible plan.
        let mut brute_profiler = SimProfiler::new(params.clone());
        let (brute, profiled) = engine
            .brute_force(&w.chain, &config, &mut brute_profiler)
            .unwrap();
        assert!(
            BRUTE_FORCE_PROFILED.contains(&(w.id, profiled)),
            "{}: brute force profiled {profiled} candidates",
            w.id
        );

        // The guided pick is one of the plans brute force profiled, so
        // the true optimum can only be faster or equal.
        let mut profiler = SimProfiler::new(params.clone());
        let guided = engine
            .search_with_profiler(&w.chain, &config, &mut profiler)
            .unwrap();
        let brute_s = brute.measured.unwrap().seconds;
        let guided_s = guided.best().measured.unwrap().seconds;
        assert!(
            brute_s <= guided_s + 1e-18,
            "{}: brute force must lower-bound the guided pick",
            w.id
        );
    }
    assert!(
        tested >= 3,
        "only {tested} workloads small enough — limit drifted"
    );
}

#[test]
fn parallel_guided_search_matches_sequential_on_the_simulator() {
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    for w in gemm_chains()
        .into_iter()
        .filter(|w| ["G1", "G2", "G10"].contains(&w.id))
    {
        let mut p_seq = SimProfiler::new(params.clone());
        let seq = engine
            .search_with_profiler(
                &w.chain,
                &SearchConfig::default().with_threads(1),
                &mut p_seq,
            )
            .unwrap();
        let mut p_par = SimProfiler::new(params.clone());
        let par = engine
            .search_with_profiler(
                &w.chain,
                &SearchConfig::default().with_threads(4),
                &mut p_par,
            )
            .unwrap();
        assert_eq!(seq.best_index(), par.best_index(), "{}", w.id);
        assert_eq!(p_seq.profiled, p_par.profiled, "{}", w.id);
        for (x, y) in seq.top_k().iter().zip(par.top_k()) {
            assert_eq!(x.est_seconds, y.est_seconds, "{}", w.id);
            assert_eq!(x.measured.unwrap(), y.measured.unwrap(), "{}", w.id);
        }
    }
}

#[test]
fn persisted_feasible_counts_are_the_ones_counted_one_candidate_at_a_time() {
    // `Compiled::feasible_candidates` is the stream's closed-form length
    // now; these are the values the per-candidate `derive` count gave.
    let params = MachineDescriptor::h100_sxm();
    let gemm = gemm_chains();
    let llama =
        ChainSpec::gated_ffn(128, 11008, 4096, 4096, Activation::Silu).named("llama-7b-ffn");
    for (chain, want) in [
        (&gemm[0].chain, 48_348),
        (&gemm[3].chain, 828_168),
        (&llama, 545_126),
    ] {
        let compiled = Compiler::new(params.clone()).compile(chain).unwrap();
        assert_eq!(compiled.feasible_candidates, want, "{chain}");
    }
}
